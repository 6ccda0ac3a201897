//! Scripted, deterministic fault injection.
//!
//! A [`FaultPlan`] is a list of [`FaultWindow`]s keyed on *simulated* time:
//! between `start` and `end` the window's [`Fault`] is active. Plans are
//! immutable once installed on a [`crate::SimNetwork`], so a run under
//! faults is exactly reproducible — same clock, same seed, same plan, same
//! outcome. In the traffic accounting of [`crate::SimNetwork::send`],
//! faults compose with the probabilistic [`crate::LinkConfig`] loss
//! model: a message must first survive the plan (partition, blackhole,
//! crash) and then the link's own loss sample.
//!
//! Four fault shapes cover the scenarios robustness-oriented drivers
//! (Gromit-style) inject. **Only the first two reach anything a run
//! measures** — ingress gating (`check_node_ingress`) and the sealer's
//! crash gate read [`FaultPlan::node_fault`], which knows crashes and
//! blackholes only:
//!
//! * [`Fault::Crash`] — the node is down: chain simulators stop sealing
//!   on a crashed node and fail ingress to it with a transient error;
//!   replication traffic to or from it is booked as dropped.
//! * [`Fault::Blackhole`] — the node's process is alive but all its
//!   traffic is silently dropped (the classic "switch ate my port"
//!   failure). Ingress to a blackholed node times out at the RPC layer;
//!   sealing goes on.
//! * [`Fault::Partition`] — endpoints listed in different groups cannot
//!   exchange messages for the window; unlisted endpoints talk to
//!   everyone. **Today this moves only the accounting**
//!   ([`FaultPlan::link_cut`] ⇒ `NetStats::faulted`,
//!   `hammer_net_dropped_total{reason="fault"}`): the simulated network
//!   delivers nothing, so no ingress is turned away and no block goes
//!   unsealed because of a partition. The window is still validated,
//!   journaled and given its per-window report row.
//! * [`Fault::LatencySpike`] — deliveries involving the target (or all
//!   of them, if no target is named) are meant to take `extra` longer.
//!   **Today nothing reads it**: there are no deliveries to slow, and
//!   ingress pays no simulated delay. The window is validated, journaled
//!   and reported like any other.
//!
//! Giving the last two their documented meaning on the path that exists
//! is an open correctness item in ROADMAP.md; until then a schedule's
//! partition and latency windows (half of what the seeded chaos
//! generator draws) exercise bookkeeping, not the chain.

use std::time::Duration;

use hammer_rpc::json::Value;

/// One fault shape. See the module docs for semantics.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Fault {
    /// The node is fully down for the window: no ingress, no egress, no
    /// block production.
    Crash {
        /// Endpoint name of the crashed node.
        node: String,
    },
    /// All traffic to and from the node is silently dropped; the node
    /// itself keeps running.
    Blackhole {
        /// Endpoint name of the blackholed node.
        node: String,
    },
    /// Endpoints in different groups cannot exchange messages. Moves only
    /// the traffic accounting today — no ingress or sealing path consults
    /// it (module docs).
    Partition {
        /// Partition groups; endpoints not listed anywhere are unaffected.
        groups: Vec<Vec<String>>,
    },
    /// Deliveries are meant to take `extra` longer than the link alone
    /// would impose. Read by nothing today — the network delivers
    /// nothing and ingress pays no simulated delay (module docs).
    LatencySpike {
        /// Additional one-way delay (simulated time).
        extra: Duration,
        /// When set, only deliveries to or from this endpoint are slowed;
        /// when `None` the spike is network-wide.
        node: Option<String>,
    },
}

/// A fault active during `[start, end)` of simulated time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultWindow {
    /// Human-readable label, surfaced in per-window report breakdowns.
    pub label: String,
    /// Window start (inclusive), simulated time since run start.
    pub start: Duration,
    /// Window end (exclusive), simulated time since run start.
    pub end: Duration,
    /// The fault active inside the window.
    pub fault: Fault,
}

impl FaultWindow {
    /// Whether `now` falls inside the window.
    pub fn contains(&self, now: Duration) -> bool {
        self.start <= now && now < self.end
    }

    /// Window length.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Why a [`FaultPlan`] failed validation.
///
/// Shape errors ([`FaultPlanError::EmptyWindow`],
/// [`FaultPlanError::AmbiguousPartition`],
/// [`FaultPlanError::ContradictoryOverlap`]) are intrinsic to the plan;
/// [`FaultPlanError::UnknownNode`] only arises from
/// [`FaultPlan::validate_against`], which additionally checks every
/// referenced endpoint against a deployed topology.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultPlanError {
    /// A window's `start >= end`, so it can never be active.
    EmptyWindow {
        /// Label of the offending window.
        label: String,
    },
    /// A partition window lists the same endpoint in more than one
    /// group, so its side of the partition is undefined.
    AmbiguousPartition {
        /// Label of the offending window.
        label: String,
        /// The endpoint listed twice.
        node: String,
    },
    /// Two same-kind state faults (crash/crash or blackhole/blackhole)
    /// target the same node in overlapping windows. The overlap is
    /// redundant at best and contradicts per-window attribution: a
    /// schedule should merge the windows instead.
    ContradictoryOverlap {
        /// Label of the earlier window.
        first: String,
        /// Label of the overlapping window.
        second: String,
        /// The doubly-faulted node.
        node: String,
    },
    /// The plan references an endpoint the deployed topology does not
    /// contain, so the fault would silently never fire.
    UnknownNode {
        /// Label of the offending window.
        label: String,
        /// The unknown endpoint name.
        node: String,
    },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::EmptyWindow { label } => {
                write!(f, "fault window '{label}' is empty or inverted")
            }
            FaultPlanError::AmbiguousPartition { label, node } => {
                write!(
                    f,
                    "partition window '{label}' lists '{node}' in more than one group"
                )
            }
            FaultPlanError::ContradictoryOverlap {
                first,
                second,
                node,
            } => write!(
                f,
                "windows '{first}' and '{second}' apply the same fault to '{node}' in \
                 overlapping intervals"
            ),
            FaultPlanError::UnknownNode { label, node } => {
                write!(f, "fault window '{label}' references unknown node '{node}'")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// How a node is currently impaired, from the viewpoint of a client
/// calling into it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeFault {
    /// The node's process is down (crash window active).
    Crashed,
    /// The node runs but its network traffic is dropped (blackhole).
    Unreachable,
}

/// A scripted schedule of fault windows.
///
/// Build one with the fluent helpers, then install it on a network with
/// [`crate::SimNetwork::install_faults`]:
///
/// ```
/// use std::time::Duration;
/// use hammer_net::fault::FaultPlan;
///
/// let plan = FaultPlan::new()
///     .crash("eth-node-0", Duration::from_secs(1), Duration::from_secs(3))
///     .latency_spike(
///         Duration::from_millis(250),
///         Duration::from_secs(4),
///         Duration::from_secs(5),
///     );
/// assert_eq!(plan.windows().len(), 2);
/// assert!(plan.crashed("eth-node-0", Duration::from_secs(2)));
/// assert!(!plan.crashed("eth-node-0", Duration::from_secs(3)));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    windows: Vec<FaultWindow>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an arbitrary window.
    pub fn with_window(mut self, window: FaultWindow) -> Self {
        self.windows.push(window);
        self
    }

    /// Crashes `node` during `[start, end)`.
    pub fn crash(self, node: &str, start: Duration, end: Duration) -> Self {
        self.with_window(FaultWindow {
            label: format!("crash:{node}"),
            start,
            end,
            fault: Fault::Crash {
                node: node.to_owned(),
            },
        })
    }

    /// Blackholes `node` during `[start, end)`.
    pub fn blackhole(self, node: &str, start: Duration, end: Duration) -> Self {
        self.with_window(FaultWindow {
            label: format!("blackhole:{node}"),
            start,
            end,
            fault: Fault::Blackhole {
                node: node.to_owned(),
            },
        })
    }

    /// Partitions the listed groups from each other during `[start, end)`.
    pub fn partition(self, groups: &[&[&str]], start: Duration, end: Duration) -> Self {
        let groups: Vec<Vec<String>> = groups
            .iter()
            .map(|g| g.iter().map(|s| (*s).to_owned()).collect())
            .collect();
        self.with_window(FaultWindow {
            label: "partition".to_owned(),
            start,
            end,
            fault: Fault::Partition { groups },
        })
    }

    /// Adds `extra` delay to every delivery during `[start, end)`.
    pub fn latency_spike(self, extra: Duration, start: Duration, end: Duration) -> Self {
        self.with_window(FaultWindow {
            label: format!("latency:+{}ms", extra.as_millis()),
            start,
            end,
            fault: Fault::LatencySpike { extra, node: None },
        })
    }

    /// Adds `extra` delay to deliveries touching `node` during
    /// `[start, end)`.
    pub fn latency_spike_on(
        self,
        node: &str,
        extra: Duration,
        start: Duration,
        end: Duration,
    ) -> Self {
        self.with_window(FaultWindow {
            label: format!("latency:{node}:+{}ms", extra.as_millis()),
            start,
            end,
            fault: Fault::LatencySpike {
                extra,
                node: Some(node.to_owned()),
            },
        })
    }

    /// All scripted windows, in insertion order.
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// Whether the plan schedules any fault at all.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Labels of every window active at `now`.
    pub fn active_labels(&self, now: Duration) -> Vec<&str> {
        self.windows
            .iter()
            .filter(|w| w.contains(now))
            .map(|w| w.label.as_str())
            .collect()
    }

    /// Validates the plan's shape: every window non-empty, every
    /// partition unambiguous, and no two same-kind state faults
    /// (crash/crash, blackhole/blackhole) overlapping on one node.
    /// Cross-kind overlap stays legal — a crash dominating a concurrent
    /// blackhole is defined behaviour ([`FaultPlan::node_fault`]), and
    /// latency spikes stack by design.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        for w in &self.windows {
            if w.start >= w.end {
                return Err(FaultPlanError::EmptyWindow {
                    label: w.label.clone(),
                });
            }
            if let Fault::Partition { groups } = &w.fault {
                let mut seen: Vec<&str> = Vec::new();
                for member in groups.iter().flatten() {
                    if seen.contains(&member.as_str()) {
                        return Err(FaultPlanError::AmbiguousPartition {
                            label: w.label.clone(),
                            node: member.clone(),
                        });
                    }
                    seen.push(member);
                }
            }
        }
        let state_target = |fault: &Fault| match fault {
            Fault::Crash { node } => Some((0u8, node.clone())),
            Fault::Blackhole { node } => Some((1u8, node.clone())),
            _ => None,
        };
        for (i, a) in self.windows.iter().enumerate() {
            let Some(key_a) = state_target(&a.fault) else {
                continue;
            };
            for b in &self.windows[i + 1..] {
                if state_target(&b.fault) == Some(key_a.clone())
                    && a.start < b.end
                    && b.start < a.end
                {
                    return Err(FaultPlanError::ContradictoryOverlap {
                        first: a.label.clone(),
                        second: b.label.clone(),
                        node: key_a.1,
                    });
                }
            }
        }
        Ok(())
    }

    /// [`FaultPlan::validate`] plus a topology check: every endpoint the
    /// plan references (crash/blackhole/latency targets, partition group
    /// members) must appear in `topology`, so a typo'd node name fails
    /// loudly instead of producing a fault that never fires.
    pub fn validate_against(&self, topology: &[String]) -> Result<(), FaultPlanError> {
        self.validate()?;
        let known = |name: &str| topology.iter().any(|t| t == name);
        for w in &self.windows {
            let mut referenced: Vec<&str> = Vec::new();
            match &w.fault {
                Fault::Crash { node } | Fault::Blackhole { node } => referenced.push(node),
                Fault::Partition { groups } => {
                    referenced.extend(groups.iter().flatten().map(String::as_str));
                }
                Fault::LatencySpike { node, .. } => {
                    referenced.extend(node.as_deref());
                }
            }
            if let Some(node) = referenced.into_iter().find(|n| !known(n)) {
                return Err(FaultPlanError::UnknownNode {
                    label: w.label.clone(),
                    node: node.to_owned(),
                });
            }
        }
        Ok(())
    }

    /// Whether a crash window covers `node` at `now`.
    pub fn crashed(&self, node: &str, now: Duration) -> bool {
        self.windows
            .iter()
            .any(|w| w.contains(now) && matches!(&w.fault, Fault::Crash { node: n } if n == node))
    }

    /// Whether a blackhole window covers `node` at `now`.
    pub fn blackholed(&self, node: &str, now: Duration) -> bool {
        self.windows.iter().any(|w| {
            w.contains(now) && matches!(&w.fault, Fault::Blackhole { node: n } if n == node)
        })
    }

    /// The strongest impairment on `node` at `now`, if any. A crash
    /// dominates a blackhole when both windows overlap.
    pub fn node_fault(&self, node: &str, now: Duration) -> Option<NodeFault> {
        if self.crashed(node, now) {
            Some(NodeFault::Crashed)
        } else if self.blackholed(node, now) {
            Some(NodeFault::Unreachable)
        } else {
            None
        }
    }

    /// Whether the plan severs the directed link `from -> to` at `now`
    /// (either endpoint crashed or blackholed, or a partition window puts
    /// the endpoints in different groups).
    pub fn link_cut(&self, from: &str, to: &str, now: Duration) -> bool {
        self.windows
            .iter()
            .filter(|w| w.contains(now))
            .any(|w| match &w.fault {
                Fault::Crash { node } | Fault::Blackhole { node } => node == from || node == to,
                Fault::Partition { groups } => {
                    let group_of =
                        |name: &str| groups.iter().position(|g| g.iter().any(|m| m == name));
                    matches!((group_of(from), group_of(to)), (Some(a), Some(b)) if a != b)
                }
                Fault::LatencySpike { .. } => false,
            })
    }

    /// Serialises the plan to a JSON [`Value`] so it can cross an RPC
    /// boundary (a multi-process deployment forwards the driver's plan to
    /// each node-host over the wire). Durations travel as microseconds of
    /// simulated time.
    pub fn to_value(&self) -> Value {
        let windows: Vec<Value> = self
            .windows
            .iter()
            .map(|w| {
                let fault = match &w.fault {
                    Fault::Crash { node } => Value::object([
                        ("kind", Value::from("crash")),
                        ("node", Value::from(node.as_str())),
                    ]),
                    Fault::Blackhole { node } => Value::object([
                        ("kind", Value::from("blackhole")),
                        ("node", Value::from(node.as_str())),
                    ]),
                    Fault::Partition { groups } => Value::object([
                        ("kind", Value::from("partition")),
                        (
                            "groups",
                            Value::Array(
                                groups
                                    .iter()
                                    .map(|g| {
                                        Value::Array(
                                            g.iter().map(|m| Value::from(m.as_str())).collect(),
                                        )
                                    })
                                    .collect(),
                            ),
                        ),
                    ]),
                    Fault::LatencySpike { extra, node } => Value::object([
                        ("kind", Value::from("latency")),
                        ("extra_us", Value::from(extra.as_micros() as u64)),
                        (
                            "node",
                            node.as_deref().map(Value::from).unwrap_or(Value::Null),
                        ),
                    ]),
                };
                Value::object([
                    ("label", Value::from(w.label.as_str())),
                    ("start_us", Value::from(w.start.as_micros() as u64)),
                    ("end_us", Value::from(w.end.as_micros() as u64)),
                    ("fault", fault),
                ])
            })
            .collect();
        Value::object([("windows", Value::Array(windows))])
    }

    /// Parses a plan previously produced by [`FaultPlan::to_value`].
    ///
    /// Returns a human-readable description of the first malformed field;
    /// shape validation ([`FaultPlan::validate`]) is still the caller's
    /// job, exactly as for a locally built plan.
    pub fn from_value(value: &Value) -> Result<FaultPlan, String> {
        let windows = value
            .get("windows")
            .and_then(Value::as_array)
            .ok_or("fault plan: missing 'windows' array")?;
        let mut plan = FaultPlan::new();
        for (i, w) in windows.iter().enumerate() {
            let field = |name: &str| {
                w.get(name)
                    .ok_or_else(|| format!("fault window {i}: missing '{name}'"))
            };
            let us = |name: &str| -> Result<Duration, String> {
                field(name)?
                    .as_u64()
                    .map(Duration::from_micros)
                    .ok_or_else(|| format!("fault window {i}: '{name}' is not an integer"))
            };
            let label = field("label")?
                .as_str()
                .ok_or_else(|| format!("fault window {i}: 'label' is not a string"))?
                .to_owned();
            let fault_v = field("fault")?;
            let str_field = |name: &str| -> Result<String, String> {
                fault_v
                    .get(name)
                    .and_then(Value::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| format!("fault window {i}: fault '{name}' is not a string"))
            };
            let kind = str_field("kind")?;
            let fault = match kind.as_str() {
                "crash" => Fault::Crash {
                    node: str_field("node")?,
                },
                "blackhole" => Fault::Blackhole {
                    node: str_field("node")?,
                },
                "partition" => {
                    let groups_v = fault_v
                        .get("groups")
                        .and_then(Value::as_array)
                        .ok_or_else(|| format!("fault window {i}: missing 'groups' array"))?;
                    let mut groups = Vec::with_capacity(groups_v.len());
                    for g in groups_v {
                        let members = g
                            .as_array()
                            .ok_or_else(|| format!("fault window {i}: group is not an array"))?
                            .iter()
                            .map(|m| {
                                m.as_str().map(str::to_owned).ok_or_else(|| {
                                    format!("fault window {i}: group member is not a string")
                                })
                            })
                            .collect::<Result<Vec<String>, String>>()?;
                        groups.push(members);
                    }
                    Fault::Partition { groups }
                }
                "latency" => {
                    let extra = fault_v
                        .get("extra_us")
                        .and_then(Value::as_u64)
                        .map(Duration::from_micros)
                        .ok_or_else(|| format!("fault window {i}: 'extra_us' is not an integer"))?;
                    let node =
                        match fault_v.get("node") {
                            None | Some(Value::Null) => None,
                            Some(v) => Some(v.as_str().map(str::to_owned).ok_or_else(|| {
                                format!("fault window {i}: 'node' is not a string")
                            })?),
                        };
                    Fault::LatencySpike { extra, node }
                }
                other => return Err(format!("fault window {i}: unknown fault kind '{other}'")),
            };
            plan = plan.with_window(FaultWindow {
                label,
                start: us("start_us")?,
                end: us("end_us")?,
                fault,
            });
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> Duration {
        Duration::from_secs(s)
    }

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert!(!plan.link_cut("a", "b", secs(0)));
        assert_eq!(plan.node_fault("a", secs(0)), None);
    }

    #[test]
    fn crash_window_is_half_open() {
        let plan = FaultPlan::new().crash("n", secs(1), secs(3));
        assert!(!plan.crashed("n", Duration::from_millis(999)));
        assert!(plan.crashed("n", secs(1)));
        assert!(plan.crashed("n", Duration::from_millis(2999)));
        assert!(!plan.crashed("n", secs(3)));
        assert!(!plan.crashed("other", secs(2)));
    }

    #[test]
    fn crash_cuts_both_directions() {
        let plan = FaultPlan::new().crash("n", secs(1), secs(3));
        assert!(plan.link_cut("n", "peer", secs(2)));
        assert!(plan.link_cut("peer", "n", secs(2)));
        assert!(!plan.link_cut("peer", "other", secs(2)));
    }

    #[test]
    fn blackhole_is_unreachable_not_crashed() {
        let plan = FaultPlan::new().blackhole("n", secs(0), secs(5));
        assert_eq!(plan.node_fault("n", secs(1)), Some(NodeFault::Unreachable));
        assert!(!plan.crashed("n", secs(1)));
        assert!(plan.link_cut("n", "peer", secs(1)));
    }

    #[test]
    fn crash_dominates_blackhole() {
        let plan = FaultPlan::new()
            .blackhole("n", secs(0), secs(5))
            .crash("n", secs(2), secs(3));
        assert_eq!(plan.node_fault("n", secs(1)), Some(NodeFault::Unreachable));
        assert_eq!(plan.node_fault("n", secs(2)), Some(NodeFault::Crashed));
        assert_eq!(plan.node_fault("n", secs(4)), Some(NodeFault::Unreachable));
    }

    #[test]
    fn partition_groups_follow_listing() {
        let plan = FaultPlan::new().partition(&[&["a", "b"], &["c"]], secs(1), secs(2));
        assert!(plan.link_cut("a", "c", Duration::from_millis(1500)));
        assert!(!plan.link_cut("a", "b", Duration::from_millis(1500)));
        // Unlisted endpoints talk to everyone.
        assert!(!plan.link_cut("a", "x", Duration::from_millis(1500)));
        // Outside the window nothing is cut.
        assert!(!plan.link_cut("a", "c", secs(3)));
    }

    #[test]
    fn validate_rejects_inverted_windows() {
        let good = FaultPlan::new().crash("n", secs(1), secs(2));
        assert!(good.validate().is_ok());
        let bad = FaultPlan::new().crash("n", secs(2), secs(2));
        assert!(matches!(
            bad.validate(),
            Err(FaultPlanError::EmptyWindow { label }) if label == "crash:n"
        ));
    }

    #[test]
    fn validate_rejects_ambiguous_partitions() {
        let bad = FaultPlan::new().partition(&[&["a", "b"], &["b", "c"]], secs(1), secs(2));
        assert!(matches!(
            bad.validate(),
            Err(FaultPlanError::AmbiguousPartition { node, .. }) if node == "b"
        ));
    }

    #[test]
    fn validate_rejects_same_kind_overlap_on_one_node() {
        let bad = FaultPlan::new()
            .crash("n", secs(1), secs(4))
            .crash("n", secs(3), secs(6));
        assert!(matches!(
            bad.validate(),
            Err(FaultPlanError::ContradictoryOverlap { node, .. }) if node == "n"
        ));
        // Crash-restart on one node (disjoint windows) stays legal, as
        // does the same interval on two different nodes.
        let restart = FaultPlan::new()
            .crash("n", secs(1), secs(3))
            .crash("n", secs(5), secs(7));
        assert!(restart.validate().is_ok());
        let two_nodes =
            FaultPlan::new()
                .blackhole("a", secs(1), secs(4))
                .blackhole("b", secs(1), secs(4));
        assert!(two_nodes.validate().is_ok());
        // Cross-kind overlap is defined behaviour (crash dominates).
        let cross = FaultPlan::new()
            .blackhole("n", secs(0), secs(5))
            .crash("n", secs(2), secs(3));
        assert!(cross.validate().is_ok());
        // Overlapping network-wide latency spikes stack by design.
        let spikes = FaultPlan::new()
            .latency_spike(Duration::from_millis(10), secs(0), secs(5))
            .latency_spike(Duration::from_millis(20), secs(2), secs(7));
        assert!(spikes.validate().is_ok());
    }

    #[test]
    fn validate_against_checks_the_topology() {
        let topology: Vec<String> = ["a", "b", "c"].iter().map(|s| (*s).to_string()).collect();
        let good = FaultPlan::new()
            .crash("a", secs(1), secs(2))
            .partition(&[&["a"], &["b", "c"]], secs(3), secs(4))
            .latency_spike_on("b", Duration::from_millis(5), secs(5), secs(6))
            .latency_spike(Duration::from_millis(5), secs(7), secs(8));
        assert!(good.validate_against(&topology).is_ok());
        let bad = FaultPlan::new().blackhole("ghost", secs(1), secs(2));
        assert!(matches!(
            bad.validate_against(&topology),
            Err(FaultPlanError::UnknownNode { node, .. }) if node == "ghost"
        ));
        let bad_group = FaultPlan::new().partition(&[&["a"], &["ghost"]], secs(1), secs(2));
        assert!(matches!(
            bad_group.validate_against(&topology),
            Err(FaultPlanError::UnknownNode { node, .. }) if node == "ghost"
        ));
    }

    #[test]
    fn json_roundtrip_preserves_every_fault_shape() {
        let plan = FaultPlan::new()
            .crash("a", secs(1), secs(2))
            .blackhole("b", secs(2), secs(3))
            .partition(&[&["a", "b"], &["c"]], secs(3), secs(4))
            .latency_spike(Duration::from_millis(250), secs(4), secs(5))
            .latency_spike_on("c", Duration::from_micros(1500), secs(5), secs(6));
        let value = plan.to_value();
        // Cross a real serialise/parse boundary, as the RPC path would.
        let text = value.to_json();
        let parsed = hammer_rpc::json::Value::parse(&text).unwrap();
        let back = FaultPlan::from_value(&parsed).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn from_value_rejects_malformed_plans() {
        use hammer_rpc::json::Value;
        assert!(FaultPlan::from_value(&Value::Null)
            .unwrap_err()
            .contains("windows"));
        let bad_kind = Value::parse(
            r#"{"windows":[{"label":"x","start_us":0,"end_us":1,
                "fault":{"kind":"meteor","node":"n"}}]}"#,
        )
        .unwrap();
        assert!(FaultPlan::from_value(&bad_kind)
            .unwrap_err()
            .contains("meteor"));
        let missing_node = Value::parse(
            r#"{"windows":[{"label":"x","start_us":0,"end_us":1,
                "fault":{"kind":"crash"}}]}"#,
        )
        .unwrap();
        assert!(FaultPlan::from_value(&missing_node).is_err());
    }

    #[test]
    fn active_labels_report_windows() {
        let plan = FaultPlan::new().crash("n", secs(1), secs(3)).latency_spike(
            Duration::from_millis(10),
            secs(2),
            secs(4),
        );
        assert_eq!(plan.active_labels(secs(0)), Vec::<&str>::new());
        assert_eq!(plan.active_labels(secs(1)), vec!["crash:n"]);
        assert_eq!(
            plan.active_labels(Duration::from_millis(2500)),
            vec!["crash:n", "latency:+10ms"]
        );
    }
}
