//! The JSON workload profile the client parses in the preparation phase
//! (paper §III-B1, step ①).

use hammer_rpc::json::{float, string, uint, Fields, ReadError, Value};

/// Which generator produces the payloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    /// The SmallBank banking workload (the paper's evaluation workload).
    SmallBank,
    /// A YCSB-style key/value workload.
    Ycsb,
}

/// How accounts/keys are picked.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AccessDistribution {
    /// Uniform over the pool.
    Uniform,
    /// Zipfian with the given skew.
    Zipfian {
        /// Skew parameter (YCSB default 0.99).
        theta: f64,
    },
}

/// A parsed workload profile.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadConfig {
    /// Generator to use.
    pub kind: WorkloadKind,
    /// Target chain name.
    pub chain_name: String,
    /// Target contract name.
    pub contract_name: String,
    /// Number of pre-created accounts (the paper seeds 5 000 per shard).
    pub accounts: usize,
    /// Fraction of read-only operations in `[0, 1]`.
    pub read_ratio: f64,
    /// Account/key selection distribution.
    pub distribution: AccessDistribution,
    /// Total transactions to generate.
    pub total_txs: usize,
    /// Number of workload clients.
    pub clients: u32,
    /// Worker threads per client.
    pub threads_per_client: u32,
    /// Initial checking balance per seeded account.
    pub initial_checking: u64,
    /// Initial savings balance per seeded account.
    pub initial_savings: u64,
    /// RNG seed for reproducible generation.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            kind: WorkloadKind::SmallBank,
            chain_name: "fabric-sim".to_owned(),
            contract_name: "smallbank".to_owned(),
            accounts: 5_000,
            read_ratio: 0.0,
            distribution: AccessDistribution::Uniform,
            total_txs: 10_000,
            clients: 2,
            threads_per_client: 2,
            initial_checking: 1_000_000,
            initial_savings: 1_000_000,
            seed: 42,
        }
    }
}

/// Configuration parse/validation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "workload config error: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

impl WorkloadConfig {
    /// Validates invariants, returning the first violation.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.accounts == 0 {
            return Err(ConfigError("accounts must be positive".into()));
        }
        if !(0.0..=1.0).contains(&self.read_ratio) {
            return Err(ConfigError(format!(
                "read_ratio must be in [0,1], got {}",
                self.read_ratio
            )));
        }
        if self.clients == 0 || self.threads_per_client == 0 {
            return Err(ConfigError("clients and threads must be positive".into()));
        }
        if let AccessDistribution::Zipfian { theta } = self.distribution {
            if !theta.is_finite() || theta < 0.0 {
                return Err(ConfigError(format!("bad zipfian theta {theta}")));
            }
        }
        Ok(())
    }

    /// Reads the JSON profile format onto `base`: a missing field keeps
    /// `base`'s value; a key the format does not define, or a value that
    /// does not fit its field (a negative, fractional or too-large
    /// integer, a wrong type), is an error — a profile is outside input
    /// and a typo must not run with the default. Validates the result.
    pub fn from_json(v: &Value, base: WorkloadConfig) -> Result<Self, ReadError> {
        let f = Fields::known_keys(
            v,
            "a workload profile",
            &[
                "kind",
                "chain_name",
                "contract_name",
                "accounts",
                "read_ratio",
                "distribution",
                "total_txs",
                "clients",
                "threads_per_client",
                "initial_checking",
                "initial_savings",
                "seed",
            ],
        )?;
        let mut config = base;
        let owned = |v| string(v).map(str::to_owned);
        f.set(&mut config.chain_name, "chain_name", owned)?;
        f.set(&mut config.contract_name, "contract_name", owned)?;
        f.set(&mut config.accounts, "accounts", uint)?;
        f.set(&mut config.read_ratio, "read_ratio", float)?;
        f.set(&mut config.total_txs, "total_txs", uint)?;
        f.set(&mut config.clients, "clients", uint)?;
        f.set(&mut config.threads_per_client, "threads_per_client", uint)?;
        f.set(&mut config.initial_checking, "initial_checking", uint)?;
        f.set(&mut config.initial_savings, "initial_savings", uint)?;
        f.set(&mut config.seed, "seed", uint)?;
        f.set(&mut config.kind, "kind", |k| match string(k)? {
            "smallbank" => Ok(WorkloadKind::SmallBank),
            "ycsb" => Ok(WorkloadKind::Ycsb),
            other => Err(ReadError::new(format!("unknown workload kind {other:?}"))),
        })?;
        f.set(&mut config.distribution, "distribution", |d| {
            let d = Fields::known_keys(d, "a distribution", &["type", "theta"])?;
            match d.req("type", string)? {
                "uniform" => Ok(AccessDistribution::Uniform),
                "zipfian" => Ok(AccessDistribution::Zipfian {
                    theta: d.opt("theta", float)?.unwrap_or(0.99),
                }),
                other => Err(ReadError::new(format!("unknown distribution {other:?}"))),
            }
        })?;
        config.validate().map_err(|e| ReadError::new(e.0))?;
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl WorkloadConfig {
        /// Serialises to the JSON profile format.
        fn to_json(&self) -> Value {
            let dist = match self.distribution {
                AccessDistribution::Uniform => Value::object([("type", Value::from("uniform"))]),
                AccessDistribution::Zipfian { theta } => Value::object([
                    ("type", Value::from("zipfian")),
                    ("theta", Value::from(theta)),
                ]),
            };
            Value::object([
                (
                    "kind",
                    Value::from(match self.kind {
                        WorkloadKind::SmallBank => "smallbank",
                        WorkloadKind::Ycsb => "ycsb",
                    }),
                ),
                ("chain_name", Value::from(self.chain_name.clone())),
                ("contract_name", Value::from(self.contract_name.clone())),
                ("accounts", Value::from(self.accounts)),
                ("read_ratio", Value::from(self.read_ratio)),
                ("distribution", dist),
                ("total_txs", Value::from(self.total_txs)),
                ("clients", Value::from(self.clients as u64)),
                (
                    "threads_per_client",
                    Value::from(self.threads_per_client as u64),
                ),
                ("initial_checking", Value::from(self.initial_checking)),
                ("initial_savings", Value::from(self.initial_savings)),
                ("seed", Value::from(self.seed)),
            ])
        }

        /// Parses from JSON text, over [`WorkloadConfig::default`].
        fn parse(text: &str) -> Result<Self, ConfigError> {
            let read = |text| Self::from_json(&Value::parse(text)?, Self::default());
            read(text).map_err(|e| ConfigError(e.to_string()))
        }
    }

    #[test]
    fn default_validates() {
        WorkloadConfig::default().validate().unwrap();
    }

    #[test]
    fn roundtrip_through_json() {
        let config = WorkloadConfig {
            kind: WorkloadKind::Ycsb,
            read_ratio: 0.5,
            distribution: AccessDistribution::Zipfian { theta: 0.99 },
            seed: u64::MAX,
            ..WorkloadConfig::default()
        };
        let text = config.to_json().to_json();
        let parsed = WorkloadConfig::parse(&text).unwrap();
        assert_eq!(parsed, config);
    }

    #[test]
    fn missing_fields_take_defaults() {
        let parsed = WorkloadConfig::parse(r#"{"kind": "smallbank"}"#).unwrap();
        assert_eq!(parsed, WorkloadConfig::default());
    }

    #[test]
    fn rejects_unknown_workload() {
        assert!(WorkloadConfig::parse(r#"{"kind": "tpcc"}"#).is_err());
    }

    #[test]
    fn rejects_bad_read_ratio() {
        let config = WorkloadConfig {
            read_ratio: 1.5,
            ..WorkloadConfig::default()
        };
        assert!(config.validate().is_err());
    }

    #[test]
    fn rejects_zero_accounts() {
        let config = WorkloadConfig {
            accounts: 0,
            ..WorkloadConfig::default()
        };
        assert!(config.validate().is_err());
    }

    #[test]
    fn rejects_zero_clients() {
        let config = WorkloadConfig {
            clients: 0,
            ..WorkloadConfig::default()
        };
        assert!(config.validate().is_err());
    }

    #[test]
    fn rejects_invalid_json() {
        assert!(WorkloadConfig::parse("{nope").is_err());
    }

    #[test]
    fn hostile_profiles_are_rejected_not_truncated() {
        for (profile, names) in [
            (r#"{"clients": 4294967298}"#, "clients"),
            (r#"{"accounts": -1}"#, "accounts"),
            (r#"{"threads_per_client": 1.5}"#, "threads_per_client"),
            (r#"{"chain_name": 7}"#, "chain_name"),
            (r#"{"workload": "ycsb"}"#, "workload"),
            (
                r#"{"distribution": {"type": "zipfian", "skew": 1}}"#,
                "skew",
            ),
            (r#"[]"#, "object"),
        ] {
            let err = WorkloadConfig::parse(profile).unwrap_err();
            assert!(err.0.contains(names), "{profile}: {err}");
        }
    }

    #[test]
    fn zipfian_default_theta() {
        let parsed = WorkloadConfig::parse(r#"{"distribution": {"type": "zipfian"}}"#).unwrap();
        assert_eq!(
            parsed.distribution,
            AccessDistribution::Zipfian { theta: 0.99 }
        );
    }
}
