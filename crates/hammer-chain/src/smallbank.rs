//! The SmallBank contract — the paper's evaluation workload — plus a
//! YCSB-style key/value extension ("self-defined workloads", §II-B).
//!
//! SmallBank models a basic banking system. Each account has a *checking*
//! and a *savings* balance. The four primary operations the paper uses
//! (deposit, withdraw, transfer, amalgamate) map to the classic SmallBank
//! procedures; reads are also provided for mixed workloads.

use crate::types::Address;

/// A contract operation carried inside a transaction.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    /// Creates an account with initial checking/savings balances.
    CreateAccount {
        /// The new account.
        account: Address,
        /// Initial checking balance.
        checking: u64,
        /// Initial savings balance.
        savings: u64,
    },
    /// Deposits `amount` into checking (the paper's *deposit*).
    DepositChecking {
        /// Target account.
        account: Address,
        /// Amount to add.
        amount: u64,
    },
    /// Writes a check against checking (the paper's *withdraw*); fails on
    /// insufficient funds.
    WriteCheck {
        /// Target account.
        account: Address,
        /// Amount to remove.
        amount: u64,
    },
    /// Transfers from one checking account to another (the paper's
    /// *transfer*).
    SendPayment {
        /// Source account.
        from: Address,
        /// Destination account.
        to: Address,
        /// Amount to move.
        amount: u64,
    },
    /// Moves the entire savings balance into checking of another account
    /// (the paper's *amalgamate*).
    Amalgamate {
        /// Account whose savings are drained.
        from: Address,
        /// Account whose checking is credited.
        to: Address,
    },
    /// Adds `amount` to savings (classic SmallBank `TransactSavings`).
    TransactSavings {
        /// Target account.
        account: Address,
        /// Amount to add.
        amount: u64,
    },
    /// Reads both balances.
    Balance {
        /// Account to read.
        account: Address,
    },
    /// YCSB-style blind write of an opaque value.
    KvPut {
        /// Key.
        key: u64,
        /// Value.
        value: u64,
    },
    /// YCSB-style read.
    KvGet {
        /// Key.
        key: u64,
    },
}

impl Op {
    /// Stable numeric tag used in the byte encoding.
    pub(crate) fn tag(&self) -> u8 {
        match self {
            Op::CreateAccount { .. } => 0,
            Op::DepositChecking { .. } => 1,
            Op::WriteCheck { .. } => 2,
            Op::SendPayment { .. } => 3,
            Op::Amalgamate { .. } => 4,
            Op::TransactSavings { .. } => 5,
            Op::Balance { .. } => 6,
            Op::KvPut { .. } => 7,
            Op::KvGet { .. } => 8,
        }
    }

    /// The accounts this operation touches (used by sharded chains to
    /// route, and by conflict estimators).
    pub fn touched_accounts(&self) -> Vec<Address> {
        match self {
            Op::CreateAccount { account, .. }
            | Op::DepositChecking { account, .. }
            | Op::WriteCheck { account, .. }
            | Op::TransactSavings { account, .. }
            | Op::Balance { account } => vec![*account],
            Op::SendPayment { from, to, .. } | Op::Amalgamate { from, to } => vec![*from, *to],
            Op::KvPut { key, .. } => vec![Address(*key)],
            Op::KvGet { key } => vec![Address(*key)],
        }
    }

    /// Appends the canonical byte encoding (used for hashing/signing).
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(self.tag());
        match self {
            Op::CreateAccount {
                account,
                checking,
                savings,
            } => {
                out.extend_from_slice(&account.0.to_be_bytes());
                out.extend_from_slice(&checking.to_be_bytes());
                out.extend_from_slice(&savings.to_be_bytes());
            }
            Op::DepositChecking { account, amount }
            | Op::WriteCheck { account, amount }
            | Op::TransactSavings { account, amount } => {
                out.extend_from_slice(&account.0.to_be_bytes());
                out.extend_from_slice(&amount.to_be_bytes());
            }
            Op::SendPayment { from, to, amount } => {
                out.extend_from_slice(&from.0.to_be_bytes());
                out.extend_from_slice(&to.0.to_be_bytes());
                out.extend_from_slice(&amount.to_be_bytes());
            }
            Op::Amalgamate { from, to } => {
                out.extend_from_slice(&from.0.to_be_bytes());
                out.extend_from_slice(&to.0.to_be_bytes());
            }
            Op::Balance { account } => {
                out.extend_from_slice(&account.0.to_be_bytes());
            }
            Op::KvPut { key, value } => {
                out.extend_from_slice(&key.to_be_bytes());
                out.extend_from_slice(&value.to_be_bytes());
            }
            Op::KvGet { key } => {
                out.extend_from_slice(&key.to_be_bytes());
            }
        }
    }
}

/// Result value of a successfully executed operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OpOutput {
    /// Write succeeded, no return value.
    #[default]
    Ok,
    /// Balance read: `(checking, savings)`.
    Balances(u64, u64),
    /// KV read result (`None` for missing keys).
    KvValue(Option<u64>),
}

/// Execution failure of an operation against the contract state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// The referenced account does not exist.
    UnknownAccount(Address),
    /// The account already exists.
    AccountExists(Address),
    /// Checking or savings balance is too small.
    InsufficientFunds {
        /// The short account.
        account: Address,
        /// Balance available.
        available: u64,
        /// Amount requested.
        requested: u64,
    },
    /// Balance arithmetic overflowed.
    Overflow,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::UnknownAccount(a) => write!(f, "unknown account {a}"),
            ExecError::AccountExists(a) => write!(f, "account {a} already exists"),
            ExecError::InsufficientFunds {
                account,
                available,
                requested,
            } => write!(
                f,
                "insufficient funds in {account}: have {available}, need {requested}"
            ),
            ExecError::Overflow => write!(f, "balance arithmetic overflow"),
        }
    }
}

impl std::error::Error for ExecError {}

#[cfg(test)]
mod tests {
    use super::*;

    impl Op {
        /// Human-readable operation name (matches the paper's terminology).
        fn name(&self) -> &'static str {
            match self {
                Op::CreateAccount { .. } => "create_account",
                Op::DepositChecking { .. } => "deposit",
                Op::WriteCheck { .. } => "withdraw",
                Op::SendPayment { .. } => "transfer",
                Op::Amalgamate { .. } => "amalgamate",
                Op::TransactSavings { .. } => "transact_savings",
                Op::Balance { .. } => "balance",
                Op::KvPut { .. } => "kv_put",
                Op::KvGet { .. } => "kv_get",
            }
        }
    }

    fn addr(n: &str) -> Address {
        Address::from_name(n)
    }

    #[test]
    fn tags_are_unique() {
        let ops = [
            Op::CreateAccount {
                account: addr("a"),
                checking: 0,
                savings: 0,
            },
            Op::DepositChecking {
                account: addr("a"),
                amount: 1,
            },
            Op::WriteCheck {
                account: addr("a"),
                amount: 1,
            },
            Op::SendPayment {
                from: addr("a"),
                to: addr("b"),
                amount: 1,
            },
            Op::Amalgamate {
                from: addr("a"),
                to: addr("b"),
            },
            Op::TransactSavings {
                account: addr("a"),
                amount: 1,
            },
            Op::Balance { account: addr("a") },
            Op::KvPut { key: 1, value: 2 },
            Op::KvGet { key: 1 },
        ];
        let mut tags: Vec<u8> = ops.iter().map(Op::tag).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), ops.len());
    }

    #[test]
    fn encoding_distinguishes_similar_ops() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        Op::DepositChecking {
            account: addr("a"),
            amount: 5,
        }
        .encode_into(&mut a);
        Op::WriteCheck {
            account: addr("a"),
            amount: 5,
        }
        .encode_into(&mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn touched_accounts_cover_both_sides() {
        let op = Op::SendPayment {
            from: addr("a"),
            to: addr("b"),
            amount: 1,
        };
        let touched = op.touched_accounts();
        assert!(touched.contains(&addr("a")));
        assert!(touched.contains(&addr("b")));
        assert_eq!(touched.len(), 2);
    }

    #[test]
    fn op_names_match_paper_terms() {
        assert_eq!(
            Op::DepositChecking {
                account: addr("a"),
                amount: 1
            }
            .name(),
            "deposit"
        );
        assert_eq!(
            Op::WriteCheck {
                account: addr("a"),
                amount: 1
            }
            .name(),
            "withdraw"
        );
        assert_eq!(
            Op::SendPayment {
                from: addr("a"),
                to: addr("b"),
                amount: 1
            }
            .name(),
            "transfer"
        );
        assert_eq!(
            Op::Amalgamate {
                from: addr("a"),
                to: addr("b")
            }
            .name(),
            "amalgamate"
        );
    }

    #[test]
    fn exec_error_display() {
        let e = ExecError::InsufficientFunds {
            account: addr("a"),
            available: 3,
            requested: 10,
        };
        let text = e.to_string();
        assert!(text.contains("have 3"));
        assert!(text.contains("need 10"));
    }
}
