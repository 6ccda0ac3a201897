//! Scripted, deterministic fault injection — and the one module that
//! enumerates the fault kinds.
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
//! **A window is written once.** The same type serves a scenario author, a
//! spec file, the socket and the network, and a window's node names are
//! kept *as written*: an endpoint name, or a placeholder that keeps the
//! plan backend-agnostic — `ingress:N` / `sealer:N` (the N-th discovered
//! [`ChaosTargets`] entry) and, inside a partition group, `rest` (every
//! registered endpoint no other group names). [`FaultPlan::resolve`] turns
//! the placeholders into the deployed chain's endpoint names; a plan that
//! skipped it is refused at [`crate::SimNetwork::try_install_faults`] by
//! the topology check (`UnknownNode("ingress:0")`), so no second type keeps
//! the two apart. [`FaultPlan::to_value`] / [`FaultPlan::from_value`] are
//! the one JSON form — a scenario spec's `"chaos"` object and the
//! `install_faults` wire params alike — and a plan that validates
//! round-trips through it exactly.
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
//! is an open correctness item in ROADMAP.md (an edit to this file alone);
//! until then a schedule's partition and latency windows (half of what the
//! seeded chaos generator draws) exercise bookkeeping, not the chain.

use std::time::Duration;

use hammer_rpc::json::Value;

use crate::chaos::ChaosTargets;

/// Inside a partition group: every registered endpoint no other group names.
const REST: &str = "rest";

/// One fault shape. See the module docs for semantics. Node names are an
/// endpoint name or, until [`FaultPlan::resolve`], a placeholder.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Fault {
    /// The node is fully down for the window: no ingress, no egress, no
    /// block production.
    Crash {
        /// The crashed node.
        node: String,
    },
    /// All traffic to and from the node is silently dropped; the node
    /// itself keeps running.
    Blackhole {
        /// The blackholed node.
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
    /// Human-readable label derived from the fault, surfaced in per-window
    /// report breakdowns and journal events. Not unique within a plan.
    pub label: String,
    /// Window start (inclusive), simulated time since run start.
    pub start: Duration,
    /// Window end (exclusive), simulated time since run start.
    pub end: Duration,
    /// The fault active inside the window.
    pub fault: Fault,
}

impl FaultWindow {
    /// A window labelled after its fault — the one place labels are made,
    /// which is why the JSON form carries none.
    fn new(fault: Fault, start: Duration, end: Duration) -> Self {
        let label = match &fault {
            Fault::Crash { node } => format!("crash:{node}"),
            Fault::Blackhole { node } => format!("blackhole:{node}"),
            Fault::Partition { .. } => "partition".to_owned(),
            Fault::LatencySpike { extra, node: None } => {
                format!("latency:+{}ms", extra.as_millis())
            }
            Fault::LatencySpike {
                extra,
                node: Some(node),
            } => format!("latency:{node}:+{}ms", extra.as_millis()),
        };
        FaultWindow {
            label,
            start,
            end,
            fault,
        }
    }

    /// Whether `now` falls inside the window.
    pub fn contains(&self, now: Duration) -> bool {
        self.start <= now && now < self.end
    }

    /// Window length.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Why a [`FaultPlan`] failed validation or resolution.
///
/// All but [`FaultPlanError::UnknownNode`] are intrinsic to the plan and
/// come from [`FaultPlan::validate`]; `UnknownNode` arises where names meet
/// a topology — a placeholder [`FaultPlan::resolve`] cannot resolve, or an
/// endpoint [`FaultPlan::validate_against`] does not find.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultPlanError {
    /// A window's `start >= end`, so it can never be active.
    EmptyWindow {
        /// Label of the offending window.
        label: String,
    },
    /// A window's start, end or latency `extra` is not a whole number of
    /// milliseconds, which the JSON form could not carry exactly.
    FractionalMillis {
        /// Label of the offending window.
        label: String,
    },
    /// A partition window has fewer than two groups or an empty one (a
    /// `rest` that resolved to nobody), so it separates nothing.
    DegeneratePartition {
        /// Label of the offending window.
        label: String,
    },
    /// A partition window lists the same endpoint — or `rest` — in more
    /// than one group, so its side of the partition is undefined.
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
    /// contain (so the fault would silently never fire), a placeholder
    /// past the end of the chain's ingress or sealer list, or `rest`
    /// outside a partition group.
    UnknownNode {
        /// Label of the offending window.
        label: String,
        /// The unknown endpoint name, as written.
        node: String,
    },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::EmptyWindow { label } => {
                write!(f, "fault window '{label}' is empty or inverted")
            }
            FaultPlanError::FractionalMillis { label } => write!(
                f,
                "fault window '{label}' is not stated in whole milliseconds"
            ),
            FaultPlanError::DegeneratePartition { label } => write!(
                f,
                "partition window '{label}' needs at least two groups, none empty"
            ),
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
    pub(crate) windows: Vec<FaultWindow>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    fn with(mut self, fault: Fault, start: Duration, end: Duration) -> Self {
        self.windows.push(FaultWindow::new(fault, start, end));
        self
    }

    /// Crashes `node` during `[start, end)`.
    pub fn crash(self, node: &str, start: Duration, end: Duration) -> Self {
        let node = node.to_owned();
        self.with(Fault::Crash { node }, start, end)
    }

    /// Blackholes `node` during `[start, end)`.
    pub fn blackhole(self, node: &str, start: Duration, end: Duration) -> Self {
        let node = node.to_owned();
        self.with(Fault::Blackhole { node }, start, end)
    }

    /// Partitions the listed groups from each other during `[start, end)`.
    pub fn partition(self, groups: &[&[&str]], start: Duration, end: Duration) -> Self {
        let groups: Vec<Vec<String>> = groups
            .iter()
            .map(|g| g.iter().map(|s| (*s).to_owned()).collect())
            .collect();
        self.with(Fault::Partition { groups }, start, end)
    }

    /// Adds `extra` delay to every delivery during `[start, end)`.
    pub fn latency_spike(self, extra: Duration, start: Duration, end: Duration) -> Self {
        self.with(Fault::LatencySpike { extra, node: None }, start, end)
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
        let node = Some(node.to_owned());
        self.with(Fault::LatencySpike { extra, node }, start, end)
    }

    /// All scripted windows, in insertion order.
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// Whether the plan schedules any fault at all.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The `[start, end)` of every crash window — what a supervisor that
    /// realises crashes as process kills arms itself with.
    pub fn crash_windows(&self) -> Vec<(Duration, Duration)> {
        let crashes = self
            .windows
            .iter()
            .filter(|w| matches!(w.fault, Fault::Crash { .. }));
        crashes.map(|w| (w.start, w.end)).collect()
    }

    /// The plan with every placeholder replaced by the endpoint it stands
    /// for on a deployed chain — what a network can install. `ingress:N` /
    /// `sealer:N` index `targets`; a partition group's `rest` becomes every
    /// name in `endpoints` that no other group claimed; anything else is
    /// taken as an endpoint name. Labels are derived from the resolved
    /// names, and the result is [validated](FaultPlan::validate).
    pub fn resolve(
        &self,
        targets: &ChaosTargets,
        endpoints: &[String],
    ) -> Result<FaultPlan, FaultPlanError> {
        // The shape as written first: `rest` in two groups is an error in
        // its own name, not in the name of whatever both resolve to.
        self.validate()?;
        let mut resolved = FaultPlan::new();
        for w in &self.windows {
            let node = |name: &str| resolve_node(name, targets, &w.label);
            let fault = match &w.fault {
                Fault::Crash { node: n } => Fault::Crash { node: node(n)? },
                Fault::Blackhole { node: n } => Fault::Blackhole { node: node(n)? },
                Fault::LatencySpike { extra, node: n } => Fault::LatencySpike {
                    extra: *extra,
                    node: n.as_deref().map(node).transpose()?,
                },
                Fault::Partition { groups } => Fault::Partition {
                    groups: resolve_partition(groups, targets, endpoints, &w.label)?,
                },
            };
            let window = FaultWindow::new(fault, w.start, w.end);
            // Two placeholders may name one node (ethereum's only node is
            // both `ingress:0` and `sealer:0`): the same crash or blackhole
            // over the same interval on the same node is one window, not a
            // contradictory overlap. Windows that merely overlap still
            // reach `validate` and fail there.
            let aliased = matches!(window.fault, Fault::Crash { .. } | Fault::Blackhole { .. })
                && resolved.windows.contains(&window);
            if !aliased {
                resolved.windows.push(window);
            }
        }
        resolved.validate()?;
        Ok(resolved)
    }

    /// Validates the plan's shape: every window non-empty and stated in
    /// whole milliseconds (so the JSON form round-trips it exactly), every
    /// partition with at least two non-empty groups and no member — `rest`
    /// included — listed twice, and no two same-kind state faults
    /// (crash/crash, blackhole/blackhole) overlapping on one node.
    /// Cross-kind overlap stays legal — a crash dominating a concurrent
    /// blackhole is defined behaviour ([`FaultPlan::node_fault`]), and
    /// latency spikes and partitions stack by design.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        // What a JSON integer of milliseconds carries without loss.
        let exact = |d: &Duration| {
            d.subsec_nanos().is_multiple_of(1_000_000) && d.as_millis() <= i64::MAX as u128
        };
        for w in &self.windows {
            let label = || w.label.clone();
            if w.start >= w.end {
                return Err(FaultPlanError::EmptyWindow { label: label() });
            }
            let extra = match &w.fault {
                Fault::LatencySpike { extra, .. } => *extra,
                _ => Duration::ZERO,
            };
            if ![w.start, w.end, extra].iter().all(exact) {
                return Err(FaultPlanError::FractionalMillis { label: label() });
            }
            if let Fault::Partition { groups } = &w.fault {
                if groups.len() < 2 || groups.iter().any(Vec::is_empty) {
                    return Err(FaultPlanError::DegeneratePartition { label: label() });
                }
                let mut seen: Vec<&str> = Vec::new();
                for member in groups.iter().flatten() {
                    if seen.contains(&member.as_str()) {
                        return Err(FaultPlanError::AmbiguousPartition {
                            label: label(),
                            node: member.clone(),
                        });
                    }
                    seen.push(member);
                }
            }
        }
        for (i, a) in self.windows.iter().enumerate() {
            for b in &self.windows[i + 1..] {
                let same_state_on = match (&a.fault, &b.fault) {
                    (Fault::Crash { node: x }, Fault::Crash { node: y })
                    | (Fault::Blackhole { node: x }, Fault::Blackhole { node: y })
                        if x == y =>
                    {
                        Some(x)
                    }
                    _ => None,
                };
                if let Some(node) = same_state_on.filter(|_| a.start < b.end && b.start < a.end) {
                    return Err(FaultPlanError::ContradictoryOverlap {
                        first: a.label.clone(),
                        second: b.label.clone(),
                        node: node.clone(),
                    });
                }
            }
        }
        Ok(())
    }

    /// [`FaultPlan::validate`] plus a topology check: every endpoint the
    /// plan references (crash/blackhole/latency targets, partition group
    /// members) must appear in `topology`, so a typo'd node name — or a
    /// placeholder nobody resolved — fails loudly instead of producing a
    /// fault that never fires.
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

    /// The plan as JSON, in the form a scenario spec's `"chaos"` object
    /// has: `{"faults": [{kind, node, start_ms, end_ms, extra_ms,
    /// groups}]}`, each window carrying the keys its kind uses. What a
    /// multi-process deployment forwards to each node-host, and what can
    /// be pasted back into a spec to repeat a run's schedule.
    pub fn to_value(&self) -> Value {
        let ms = |d: Duration| Value::from(d.as_millis() as u64);
        let names = |names: &[String]| {
            Value::Array(names.iter().map(|n| Value::from(n.as_str())).collect())
        };
        let fault = |w: &FaultWindow| {
            let mut fields = match &w.fault {
                Fault::Crash { node } => {
                    vec![("kind", "crash".into()), ("node", node.as_str().into())]
                }
                Fault::Blackhole { node } => {
                    vec![("kind", "blackhole".into()), ("node", node.as_str().into())]
                }
                Fault::Partition { groups } => vec![
                    ("kind", "partition".into()),
                    (
                        "groups",
                        Value::Array(groups.iter().map(|g| names(g)).collect()),
                    ),
                ],
                Fault::LatencySpike { extra, node } => {
                    let mut fields = vec![("kind", "latency_spike".into())];
                    fields.extend(node.as_deref().map(|n| ("node", n.into())));
                    fields.push(("extra_ms", ms(*extra)));
                    fields
                }
            };
            fields.extend([("start_ms", ms(w.start)), ("end_ms", ms(w.end))]);
            Value::object(fields)
        };
        Value::object([(
            "faults",
            Value::Array(self.windows.iter().map(fault).collect()),
        )])
    }

    /// Reads the form [`FaultPlan::to_value`] writes. The value is outside
    /// input — a spec file or a socket — and is read strictly: an unknown
    /// key, an unknown kind, a value that does not fit its field or a group
    /// member that is not a string is refused by name, never dropped or
    /// defaulted. Shape validation ([`FaultPlan::validate`]) is still the
    /// caller's job, exactly as for a locally built plan.
    pub fn from_value(value: &Value) -> Result<FaultPlan, String> {
        known_keys(value, "a fault plan", &["faults"])?;
        let name = |v: &Value| v.as_str().map(str::to_owned);
        let millis = |v: &Value| v.as_u64().map(Duration::from_millis);
        let mut plan = FaultPlan::new();
        for f in required(value, "faults", Value::as_array)? {
            known_keys(
                f,
                "a fault",
                &["kind", "node", "start_ms", "end_ms", "extra_ms", "groups"],
            )?;
            let start = required(f, "start_ms", millis)?;
            let end = required(f, "end_ms", millis)?;
            let fault = match required(f, "kind", Value::as_str)? {
                "crash" => Fault::Crash {
                    node: required(f, "node", name)?,
                },
                "blackhole" => Fault::Blackhole {
                    node: required(f, "node", name)?,
                },
                "latency_spike" => Fault::LatencySpike {
                    extra: required(f, "extra_ms", millis)?,
                    node: optional(f, "node", name)?,
                },
                "partition" => {
                    // Every group a list, every member a string: a dropped
                    // member would silently widen "rest".
                    let group = |g: &Value| g.as_array()?.iter().map(name).collect();
                    let groups = |list: &Value| list.as_array()?.iter().map(group).collect();
                    Fault::Partition {
                        groups: required(f, "groups", groups)?,
                    }
                }
                other => return Err(format!("unknown fault kind {other:?}")),
            };
            plan = plan.with(fault, start, end);
        }
        Ok(plan)
    }
}

/// The endpoint a node name as written stands for: `ingress:N` / `sealer:N`
/// index the chain's discovered targets, anything else is an endpoint name
/// already. `rest` means something only inside a partition group
/// ([`resolve_partition`]).
fn resolve_node(name: &str, targets: &ChaosTargets, label: &str) -> Result<String, FaultPlanError> {
    let index = |prefix: &str| name.strip_prefix(prefix)?.parse::<usize>().ok();
    let resolved = if name == REST {
        None
    } else if let Some(i) = index("ingress:") {
        targets.ingress.get(i)
    } else if let Some(i) = index("sealer:") {
        targets.sealers.get(i)
    } else {
        return Ok(name.to_owned());
    };
    resolved
        .cloned()
        .ok_or_else(|| FaultPlanError::UnknownNode {
            label: label.to_owned(),
            node: name.to_owned(),
        })
}

fn resolve_partition(
    groups: &[Vec<String>],
    targets: &ChaosTargets,
    endpoints: &[String],
    label: &str,
) -> Result<Vec<Vec<String>>, FaultPlanError> {
    let mut named: Vec<String> = Vec::new();
    for member in groups.iter().flatten().filter(|m| *m != REST) {
        named.push(resolve_node(member, targets, label)?);
    }
    let mut resolved = Vec::with_capacity(groups.len());
    for group in groups {
        let mut out: Vec<String> = Vec::new();
        for member in group {
            if member == REST {
                // Every registered endpoint no other group claimed —
                // the full topology, not just the discovered fault
                // targets, so "isolate the sealer from the rest of the
                // network" is expressible even on chains whose only
                // discovered target is the sealer itself. A `rest` that
                // matches nobody leaves its group empty for `validate`.
                for t in endpoints {
                    if !named.contains(t) && !out.contains(t) {
                        out.push(t.clone());
                    }
                }
            } else {
                let name = resolve_node(member, targets, label)?;
                if !out.contains(&name) {
                    out.push(name);
                }
            }
        }
        resolved.push(out);
    }
    Ok(resolved)
}

/// Rejects a key of the object `value` that the format does not define.
fn known_keys(value: &Value, at: &str, keys: &[&str]) -> Result<(), String> {
    let Value::Object(pairs) = value else {
        return Err(format!("{at} must be an object"));
    };
    match pairs.iter().find(|(k, _)| !keys.contains(&k.as_str())) {
        Some((key, _)) => Err(format!("unknown key {key:?} in {at}")),
        None => Ok(()),
    }
}

/// Reads `key` if present; a value `read` refuses is an error.
fn optional<'a, T>(
    value: &'a Value,
    key: &str,
    read: impl Fn(&'a Value) -> Option<T>,
) -> Result<Option<T>, String> {
    let read_one = |f| read(f).ok_or_else(|| format!("bad {key:?}: {}", f.to_json()));
    value.get(key).map(read_one).transpose()
}

/// [`optional`] for a key the format requires.
fn required<'a, T>(
    value: &'a Value,
    key: &str,
    read: impl Fn(&'a Value) -> Option<T>,
) -> Result<T, String> {
    optional(value, key, read)?.ok_or_else(|| format!("missing {key:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        // Only the crash is the supervisor's business.
        assert_eq!(plan.crash_windows(), [(secs(2), secs(3))]);
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
    fn labels_are_derived_from_the_fault() {
        let plan = FaultPlan::new()
            .crash("n", secs(1), secs(2))
            .blackhole("n", secs(1), secs(2))
            .partition(&[&["a"], &["b"]], secs(1), secs(2))
            .latency_spike(Duration::from_millis(10), secs(1), secs(2))
            .latency_spike_on("n", Duration::from_millis(10), secs(1), secs(2));
        let labels: Vec<&str> = plan.windows().iter().map(|w| w.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "crash:n",
                "blackhole:n",
                "partition",
                "latency:+10ms",
                "latency:n:+10ms"
            ]
        );
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
        // A plan nobody resolved is refused by the same check.
        let unresolved = FaultPlan::new().crash("ingress:0", secs(1), secs(2));
        assert!(unresolved.validate().is_ok());
        assert!(matches!(
            unresolved.validate_against(&topology),
            Err(FaultPlanError::UnknownNode { node, .. }) if node == "ingress:0"
        ));
    }

    /// Two ingress nodes, one sealer that is also the first ingress node,
    /// and a follower no role names.
    fn deployed() -> (ChaosTargets, Vec<String>) {
        let targets = ChaosTargets::new(
            vec!["n0".to_owned(), "n1".to_owned()],
            vec!["n0".to_owned()],
        );
        let endpoints = ["follower", "n0", "n1"].map(str::to_owned).to_vec();
        (targets, endpoints)
    }

    #[test]
    fn placeholders_resolve_against_the_deployed_chain() {
        let (targets, endpoints) = deployed();
        let written = FaultPlan::new()
            .crash("ingress:1", secs(1), secs(2))
            .blackhole("follower", secs(1), secs(2))
            .latency_spike_on("sealer:0", Duration::from_millis(5), secs(3), secs(4))
            .latency_spike(Duration::from_millis(5), secs(3), secs(4))
            .partition(&[&["sealer:0"], &["rest"]], secs(5), secs(6));
        let resolved = written.resolve(&targets, &endpoints).unwrap();
        let expected = FaultPlan::new()
            .crash("n1", secs(1), secs(2))
            .blackhole("follower", secs(1), secs(2))
            .latency_spike_on("n0", Duration::from_millis(5), secs(3), secs(4))
            .latency_spike(Duration::from_millis(5), secs(3), secs(4))
            .partition(&[&["n0"], &["follower", "n1"]], secs(5), secs(6));
        assert_eq!(resolved, expected, "labels included");
        resolved.validate_against(&endpoints).unwrap();
        // A resolved plan resolves to itself.
        assert_eq!(resolved.resolve(&targets, &endpoints).unwrap(), resolved);

        // `ingress:0` and `sealer:0` are one node here: the same crash over
        // the same interval is one window; a merely overlapping one is a
        // contradiction.
        let aliased = FaultPlan::new().crash("ingress:0", secs(3), secs(5)).crash(
            "sealer:0",
            secs(3),
            secs(5),
        );
        let resolved = aliased.resolve(&targets, &endpoints).unwrap();
        assert_eq!(resolved, FaultPlan::new().crash("n0", secs(3), secs(5)));
        let overlapping = FaultPlan::new().crash("ingress:0", secs(3), secs(5)).crash(
            "sealer:0",
            secs(4),
            secs(6),
        );
        assert!(matches!(
            overlapping.resolve(&targets, &endpoints),
            Err(FaultPlanError::ContradictoryOverlap { node, .. }) if node == "n0"
        ));
    }

    #[test]
    fn unresolvable_or_misshapen_plans_are_typed_errors() {
        use FaultPlanError::*;
        let (targets, endpoints) = deployed();
        let sub_ms = Duration::from_micros(1500);
        let table = [
            (
                FaultPlan::new().crash("ingress:9", secs(1), secs(2)),
                UnknownNode {
                    label: "crash:ingress:9".to_owned(),
                    node: "ingress:9".to_owned(),
                },
            ),
            (
                FaultPlan::new().blackhole("rest", secs(1), secs(2)),
                UnknownNode {
                    label: "blackhole:rest".to_owned(),
                    node: "rest".to_owned(),
                },
            ),
            (
                FaultPlan::new().partition(&[&["rest"], &["n0", "rest"]], secs(1), secs(2)),
                AmbiguousPartition {
                    label: "partition".to_owned(),
                    node: "rest".to_owned(),
                },
            ),
            (
                // Every endpoint is named, so `rest` is nobody.
                FaultPlan::new().partition(
                    &[&["n0", "n1", "follower"], &["rest"]],
                    secs(1),
                    secs(2),
                ),
                DegeneratePartition {
                    label: "partition".to_owned(),
                },
            ),
            (
                FaultPlan::new().partition(&[&["rest"]], secs(1), secs(2)),
                DegeneratePartition {
                    label: "partition".to_owned(),
                },
            ),
            (
                FaultPlan::new().crash("n0", secs(1), secs(1) + sub_ms),
                FractionalMillis {
                    label: "crash:n0".to_owned(),
                },
            ),
            (
                FaultPlan::new().latency_spike(sub_ms, secs(1), secs(2)),
                FractionalMillis {
                    label: "latency:+1ms".to_owned(),
                },
            ),
        ];
        for (plan, expected) in table {
            assert_eq!(plan.resolve(&targets, &endpoints), Err(expected));
        }
    }

    fn through_the_wire(plan: &FaultPlan) -> FaultPlan {
        // Cross a real serialise/parse boundary, as the RPC path would.
        let text = plan.to_value().to_json();
        FaultPlan::from_value(&Value::parse(&text).unwrap()).unwrap()
    }

    #[test]
    fn json_roundtrip_preserves_every_fault_shape() {
        let plan = FaultPlan::new()
            .crash("a", secs(1), secs(2))
            .blackhole("ingress:0", secs(2), secs(3))
            .partition(&[&["a", "b"], &["rest"]], secs(3), secs(4))
            .latency_spike(Duration::from_millis(250), secs(4), secs(5))
            .latency_spike_on("c", Duration::from_millis(2), secs(5), secs(6));
        assert_eq!(through_the_wire(&plan), plan);
        // The form is the corpus's: a spec's "chaos" object reads back.
        let spec = r#"{"faults": [{"kind": "latency_spike", "node": "ingress:0",
            "extra_ms": 500, "start_ms": 2000, "end_ms": 8000}]}"#;
        let written = FaultPlan::new().latency_spike_on(
            "ingress:0",
            Duration::from_millis(500),
            secs(2),
            secs(8),
        );
        let parsed = FaultPlan::from_value(&Value::parse(spec).unwrap()).unwrap();
        assert_eq!(parsed, written);
        assert_eq!(
            written.to_value().canonicalize(),
            Value::parse(spec).unwrap().canonicalize()
        );
    }

    #[test]
    fn from_value_rejects_malformed_plans() {
        let refused = |json: &str, names: &str| {
            let err = FaultPlan::from_value(&Value::parse(json).unwrap()).unwrap_err();
            assert!(err.contains(names), "{json}: {err}");
        };
        refused("null", "a fault plan");
        refused(r#"{"windows": []}"#, "windows");
        refused(r#"{}"#, "faults");
        refused(r#"{"faults": [7]}"#, "a fault");
        let fault =
            |body: &str| format!(r#"{{"faults": [{{"start_ms": 0, "end_ms": 1, {body}}}]}}"#);
        refused(&fault(r#""kind": "meteor", "node": "n""#), "meteor");
        refused(&fault(r#""kind": "latency", "extra_ms": 1"#), "latency");
        refused(&fault(r#""kind": "crash""#), "node");
        refused(&fault(r#""kind": "crash", "node": null"#), "node");
        refused(
            &fault(r#""kind": "crash", "node": "n", "label": "x""#),
            "label",
        );
        refused(&fault(r#""kind": "latency_spike""#), "extra_ms");
        refused(
            &fault(r#""kind": "latency_spike", "extra_ms": -1"#),
            "extra_ms",
        );
        refused(
            &fault(r#""kind": "partition", "groups": [["a"], "b"]"#),
            "groups",
        );
        refused(
            &fault(r#""kind": "partition", "groups": [["a"], ["b", 7]]"#),
            "groups",
        );
        refused(
            r#"{"faults": [{"kind": "crash", "node": "n", "end_ms": 1}]}"#,
            "start_ms",
        );
        refused(
            r#"{"faults": [{"kind": "crash", "node": "n", "start_ms": 0.5, "end_ms": 1}]}"#,
            "start_ms",
        );
    }

    /// Values shaped like a plan on the wire: the keys and kinds the
    /// decoder looks for, holding anything.
    fn arb_wire_value() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            (0i64..5000).prop_map(Value::Int),
            (-1e19f64..1e19f64).prop_map(Value::Float),
            "(crash|blackhole|partition|latency_spike|latency|rest|ingress:[0-9]{1,20}|sealer:0|n0)"
                .prop_map(Value::String),
        ];
        let key = "(faults|kind|node|start_ms|end_ms|extra_ms|groups|label|windows)";
        leaf.prop_recursive(4, 32, 5, move |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
                proptest::collection::vec((key, inner), 0..6).prop_map(Value::Object),
            ]
        })
    }

    proptest! {
        /// Whatever arrives decodes or is refused; what decodes can be
        /// validated, resolved and written back without a panic either.
        #[test]
        fn prop_from_value_never_panics(value in arb_wire_value()) {
            let wrapped = Value::object([("faults", Value::Array(vec![value.clone()]))]);
            for candidate in [value, wrapped] {
                if let Ok(plan) = FaultPlan::from_value(&candidate) {
                    let (targets, endpoints) = deployed();
                    let _ = plan.resolve(&targets, &endpoints);
                    if plan.validate().is_ok() {
                        prop_assert_eq!(through_the_wire(&plan), plan);
                    }
                }
            }
        }
    }
}
