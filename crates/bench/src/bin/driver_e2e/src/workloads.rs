//! The four workloads and the code that runs one repetition of any of them:
//! set up a fresh deployment, run the real [`Evaluation::run`], check the
//! result, tear everything down, and report what a user would have seen.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hammer_chain::types::TxStatus;
use hammer_core::chaos::{live_children, live_threads};
use hammer_core::deploy::{BackendOptions, DeployMode, Deployment, SupervisorConfig};
use hammer_core::driver::{EvalConfig, EvalReport, Evaluation, SigningStrategy, TestingMode};
use hammer_core::machine::ClientMachine;
use hammer_net::{LinkConfig, ReconnectPolicy, SimClock, SimNetwork};
use hammer_obs::Obs;
use hammer_workload::{ControlSequence, TraceKind, TraceSpec, WorkloadConfig};

use crate::host;
use crate::null;
use crate::stats::{median, percentile_sorted};
use crate::trace::{Recorder, Span, TracedChain};

/// How load is offered.
#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// Closed loop: the whole budget is released in one slice and each of
    /// the `workers` clients submits its next transaction when the previous
    /// call returns. An invocation repeats it for as long as `--seconds`
    /// lasts.
    Closed { txs: u64 },
    /// Open loop: a bursty NFT-trace control sequence of 100 ms slices at a
    /// mean of `mean_tps`, for the run's `--seconds`: one repetition.
    Paced { mean_tps: u64 },
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub backend: &'static str,
    pub mode: DeployMode,
    pub load: Load,
    /// Driver and node share one CPU (see README: unpinned, loopback TCP in
    /// a VM measures cross-core wake-ups, not the program).
    pub pinned: bool,
    /// Listed in `BENCHMARK.json`, so that the harness holds its end-to-end
    /// metrics to their bounds. A workload that is not is measured and
    /// reported all the same (see README, "What is not gated").
    pub gated: bool,
}

/// Length of a control slice of the paced workload.
pub const PACED_SLICE: Duration = Duration::from_millis(100);

/// Block-polling interval of every workload.
const POLL: Duration = Duration::from_millis(10);

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "inproc_saturate",
        why: "closed loop against an in-process null chain sealing every 5 ms: signer, submit workers, tracker and report do all the work; codec and sockets do none",
        backend: null::NULL_5MS.name,
        mode: DeployMode::InProcess,
        load: Load::Closed { txs: 1_000_000 },
        pinned: false,
        gated: true,
    },
    Workload {
        name: "tcp_saturate",
        why: "same driver, null chain in its own process over loopback TCP, both on one CPU: JSON codec, framing, sockets and the monitor's block reads dominate; signing is a tenth",
        backend: null::NULL_5MS.name,
        mode: DeployMode::MultiProcess,
        load: Load::Closed { txs: 200_000 },
        pinned: true,
        gated: false,
    },
    Workload {
        name: "inproc_deep",
        why: "in-process, the chain seals only once 500k tx are pooled: tracker, monitor and store against a few huge blocks and a DRAM-sized in-flight index; where memory shows",
        backend: "null-deep",
        mode: DeployMode::InProcess,
        load: Load::Closed { txs: 1_500_000 },
        pinned: false,
        gated: true,
    },
    Workload {
        name: "inproc_paced",
        why: "open loop on a bursty NFT-trace control sequence at 7 % of capacity, 2 ms blocks: throughput is the schedule; gates idle CPU and memory only, latency and pacing are reported without a bound",
        backend: null::NULL_2MS.name,
        mode: DeployMode::InProcess,
        load: Load::Paced { mean_tps: 15_000 },
        pinned: false,
        gated: true,
    },
];

pub fn workload_named(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What is the same for every repetition of an invocation.
#[derive(Clone, Copy, Debug)]
pub struct RunEnv {
    /// Submission workers and signer threads: `min(host cores, 4)`, taken
    /// before any pinning.
    pub workers: u32,
    /// Sizes are divided by this (1, or 50 for `--smoke`).
    pub shrink: u64,
    /// Length of the paced schedule.
    pub paced_seconds: u64,
}

impl RunEnv {
    pub fn deep_depth(&self) -> usize {
        (null::DEEP_DEPTH as u64 / self.shrink) as usize
    }
}

impl Workload {
    /// The control sequence of one repetition.
    pub fn control(&self, env: &RunEnv, seed: u64) -> ControlSequence {
        match self.load {
            // The slice only has to be short: the pacer sleeps it out once
            // after releasing the budget.
            Load::Closed { txs } => ControlSequence::from_budgets(
                vec![(txs / env.shrink) as u32],
                Duration::from_millis(1),
            ),
            Load::Paced { mean_tps } => {
                let slices = (env.paced_seconds * 10 / env.shrink).max(5);
                let total = mean_tps * slices / 10;
                let trace = TraceSpec {
                    kind: TraceKind::Nft,
                    hours: slices as usize,
                    seed,
                }
                .generate();
                ControlSequence::from_trace(&trace, total as usize, PACED_SLICE)
            }
        }
    }
}

/// Which extras a repetition carries.
#[derive(Clone, Default)]
pub struct RepOptions {
    /// Record chain-call spans into this recorder.
    pub recorder: Option<Arc<Recorder>>,
    /// Install an enabled `Obs` on the driver-side network.
    pub obs: bool,
}

/// A deployment ready for `Evaluation::run`, and everything that has to be
/// torn down after it.
struct Stage {
    /// What the driver runs against: `base`, or the traced wrapper over it.
    deployment: Deployment,
    /// The untraced deployment under a traced one; it owns the supervisor.
    base: Option<Deployment>,
    net: SimNetwork,
    evaluation: Evaluation,
    workload: WorkloadConfig,
    control: ControlSequence,
}

fn set_up(w: &Workload, env: &RunEnv, seed: u64, options: &RepOptions) -> Result<Stage, String> {
    let registry = null::registry(env.deep_depth());
    // Speed-up 1: simulated time is wall time, so every reported latency is
    // a wall latency.
    let clock = SimClock::with_speedup(1.0);
    let net = SimNetwork::new(clock.clone(), LinkConfig::lan());
    if options.obs {
        net.install_obs(Obs::new());
    }
    let opts = BackendOptions::default();
    let base = match w.mode {
        DeployMode::InProcess => registry
            .deploy_on(w.backend, &opts, clock.clone(), net.clone())
            .map_err(|e| e.to_string())?,
        DeployMode::MultiProcess => {
            let node_host = std::env::current_exe().map_err(|e| e.to_string())?;
            registry
                .deploy_multi(
                    w.backend,
                    &opts,
                    clock.clone(),
                    net.clone(),
                    SupervisorConfig {
                        node_host: Some(node_host),
                        ..SupervisorConfig::default()
                    },
                    ReconnectPolicy::none(),
                )
                .map_err(|e| e.to_string())?
        }
    };
    let (deployment, base) = match &options.recorder {
        Some(recorder) => {
            let traced = TracedChain::new(Arc::clone(base.chain()), Arc::clone(recorder));
            (
                Deployment::from_chain(traced, clock, net.clone()),
                Some(base),
            )
        }
        None => (base, None),
    };
    let config = EvalConfig::builder()
        .mode(TestingMode::TaskProcessing)
        .signing(SigningStrategy::Pipelined)
        .signer_threads(env.workers as usize)
        // A client machine that never throttles: the cost measured is the
        // driver's own.
        .machine(ClientMachine {
            vcpus: 1024,
            submit_cost: Duration::from_nanos(1),
            contention_overhead: 0.0,
        })
        .poll_interval(POLL)
        .drain_timeout(Duration::from_secs(3600))
        .build()
        .map_err(|e| e.to_string())?;
    Ok(Stage {
        deployment,
        base,
        net,
        evaluation: Evaluation::new(config),
        workload: WorkloadConfig {
            chain_name: w.backend.to_owned(),
            accounts: 5_000,
            clients: 1,
            threads_per_client: env.workers,
            seed,
            ..WorkloadConfig::default()
        },
        control: w.control(env, seed),
    })
}

/// Deployment down (node process reaped), then network scheduler joined.
/// Returns the seconds the first part took.
fn tear_down(stage: Stage) -> f64 {
    let Stage {
        deployment,
        base,
        net,
        ..
    } = stage;
    let started = Instant::now();
    drop(deployment);
    drop(base);
    let shutdown_s = started.elapsed().as_secs_f64();
    net.shutdown_and_join();
    shutdown_s
}

/// Waits (briefly) for detached helper threads — the pipelined signers exit
/// on their own once their channel closes — and reports what is still
/// alive beyond `threads_before`.
fn leaks(threads_before: usize) -> Vec<String> {
    let deadline = Instant::now() + Duration::from_secs(2);
    while live_threads() > threads_before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut found = Vec::new();
    let threads = live_threads();
    if threads > threads_before {
        found.push(format!(
            "{threads} threads alive after teardown, {threads_before} before set-up"
        ));
    }
    let children = live_children();
    if children > 0 {
        found.push(format!("{children} node children alive after teardown"));
    }
    found
}

/// One set-up without a run: a sample of `setup_s` alone.
pub fn setup_only(w: &Workload, env: &RunEnv, seed: u64) -> Result<f64, String> {
    let threads_before = live_threads();
    let started = Instant::now();
    let stage = set_up(w, env, seed, &RepOptions::default())?;
    let setup_s = started.elapsed().as_secs_f64();
    tear_down(stage);
    let found = leaks(threads_before);
    if found.is_empty() {
        Ok(setup_s)
    } else {
        Err(found.join("; "))
    }
}

/// Spans of one traced run, on the recorder's clock.
pub struct RunTrace {
    pub run_start_ns: u64,
    pub run_end_ns: u64,
    pub spans: Vec<Span>,
}

/// What one repetition measured.
pub struct Rep {
    /// Workload start to the `Evaluation::run` call: registry, clock,
    /// network, deploy (over TCP: node spawn, handshake, first health check,
    /// client connect), config build.
    pub setup_s: f64,
    pub run_s: f64,
    /// Dropping the deployment: chain stopped, node process reaped.
    pub shutdown_s: f64,
    /// `run` return to everything down, network scheduler included.
    pub teardown_s: f64,
    /// CPU seconds of the driver and its reaped node children from set-up to
    /// the end of teardown, without the benchmark's own ledger check.
    pub cpu_s: f64,
    /// `VmHWM` when `Evaluation::run` returned.
    pub peak_rss_mb: f64,
    pub latency: Latency,
    pub report: EvalReport,
    pub control: ControlSequence,
    pub trace: Option<RunTrace>,
    /// Client sockets to the node at the end of a multi-process run:
    /// `(established, closed)`.
    pub connections: (u64, u64),
    /// Everything the correctness gate found wrong (empty = correct).
    pub violations: Vec<String>,
}

impl Rep {
    pub fn tps(&self) -> f64 {
        self.report.committed as f64 / self.run_s
    }

    pub fn cpu_us_per_tx(&self) -> f64 {
        self.cpu_s * 1e6 / self.report.committed.max(1) as f64
    }
}

/// Commit latency (`end − start` of committed records), the number a Hammer
/// user reads.
pub struct Latency {
    pub p50_ms: f64,
    /// p99 of each 5 s window of commit time, median over the windows that
    /// hold at least [`MIN_WINDOW_SAMPLES`].
    pub p99_ms: f64,
    pub samples: usize,
    pub windows: usize,
}

const LATENCY_WINDOW: Duration = Duration::from_secs(5);

/// A window's p99 needs at least ten samples beyond it.
const MIN_WINDOW_SAMPLES: usize = 1_000;

pub fn latency_of(report: &EvalReport) -> Latency {
    let committed: Vec<(Duration, u64)> = report
        .records
        .iter()
        .filter(|r| r.status == TxStatus::Committed)
        .filter_map(|r| Some((r.end?, r.end?.saturating_sub(r.start).as_nanos() as u64)))
        .collect();
    if committed.is_empty() {
        return Latency {
            p50_ms: 0.0,
            p99_ms: 0.0,
            samples: 0,
            windows: 0,
        };
    }
    let first_end = committed
        .iter()
        .map(|(end, _)| *end)
        .min()
        .expect("non-empty");
    let mut all: Vec<u64> = committed.iter().map(|(_, ns)| *ns).collect();
    all.sort_unstable();
    let mut windows: Vec<Vec<u64>> = Vec::new();
    for (end, ns) in &committed {
        let w = ((*end - first_end).as_nanos() / LATENCY_WINDOW.as_nanos()) as usize;
        if windows.len() <= w {
            windows.resize_with(w + 1, Vec::new);
        }
        windows[w].push(*ns);
    }
    let mut p99s: Vec<f64> = windows
        .iter_mut()
        .filter(|w| w.len() >= MIN_WINDOW_SAMPLES)
        .map(|w| {
            w.sort_unstable();
            percentile_sorted(w, 0.99) as f64 / 1e6
        })
        .collect();
    if p99s.is_empty() {
        p99s.push(percentile_sorted(&all, 0.99) as f64 / 1e6);
    }
    Latency {
        p50_ms: percentile_sorted(&all, 0.50) as f64 / 1e6,
        p99_ms: median(&p99s),
        samples: all.len(),
        windows: p99s.len(),
    }
}

/// The correctness gate on a finished run (leak checks come after teardown).
fn check_report(report: &EvalReport, control: &ControlSequence) -> Vec<String> {
    let mut violations = Vec::new();
    let accounted = report.committed as u64
        + report.failed as u64
        + report.timed_out as u64
        + report.rejected
        + report.dropped as u64
        + report.expired as u64;
    if accounted != report.submitted {
        violations.push(format!(
            "accounting identity broken: {accounted} accounted, {} submitted",
            report.submitted
        ));
    }
    if report.submitted != control.total() {
        violations.push(format!(
            "submitted {} of a budget of {}",
            report.submitted,
            control.total()
        ));
    }
    if report.committed as u64 != control.total() {
        violations.push(format!(
            "committed {} of {} on a backend that accepts everything",
            report.committed,
            control.total()
        ));
    }
    if report.stalled {
        violations.push("run reported a stall".to_owned());
    }
    violations
}

/// Runs one cold repetition of `w`.
pub fn run_rep(w: &Workload, env: &RunEnv, seed: u64, options: &RepOptions) -> Result<Rep, String> {
    let threads_before = live_threads();
    let cpu_before = host::cpu_time();
    let set_up_started = Instant::now();
    let stage = set_up(w, env, seed, options)?;

    let run_started = Instant::now();
    let setup_s = (run_started - set_up_started).as_secs_f64();
    let outcome = stage
        .evaluation
        .run(&stage.deployment, &stage.workload, &stage.control);
    let run_ended = Instant::now();
    let run_s = (run_ended - run_started).as_secs_f64();
    let peak_rss_mb = host::peak_rss_mb();
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            tear_down(stage);
            return Err(format!("Evaluation::run failed: {e}"));
        }
    };

    let mut violations = check_report(&report, &stage.control);
    let mut check_cpu_s = 0.0;
    if w.mode == DeployMode::InProcess {
        // The ledger check recomputes every Merkle root; it is the
        // benchmark's work, not the driver's, so its CPU time is taken out.
        let before = host::cpu_time();
        if let Err(e) = stage.deployment.chain().verify_ledgers() {
            violations.push(format!("ledger check failed: {e:?}"));
        }
        check_cpu_s = host::cpu_time().own - before.own;
    }
    let connections = stage
        .base
        .as_ref()
        .unwrap_or(&stage.deployment)
        .supervisor()
        .map_or((0, 0), |s| host::tcp_connections_to(s.addr().port()));

    let control = stage.control.clone();
    let teardown_started = Instant::now();
    let shutdown_s = tear_down(stage);
    let teardown_s = teardown_started.elapsed().as_secs_f64();
    let cpu_after = host::cpu_time();
    violations.extend(leaks(threads_before));

    let trace = options.recorder.as_ref().map(|recorder| RunTrace {
        run_start_ns: recorder.ns_at(run_started),
        run_end_ns: recorder.ns_at(run_ended),
        spans: recorder.take_sorted(),
    });
    Ok(Rep {
        setup_s,
        run_s,
        shutdown_s,
        teardown_s,
        cpu_s: cpu_after.total() - cpu_before.total() - check_cpu_s,
        peak_rss_mb,
        latency: latency_of(&report),
        report,
        control,
        trace,
        connections,
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SpanKind;
    use hammer_core::index::TxRecord;

    const SMALL: Workload = Workload {
        name: "test_closed",
        why: "",
        backend: null::NULL_2MS.name,
        mode: DeployMode::InProcess,
        load: Load::Closed { txs: 2_000 },
        pinned: false,
        gated: false,
    };

    const ENV: RunEnv = RunEnv {
        workers: 2,
        shrink: 1,
        paced_seconds: 2,
    };

    /// Everything in a report that does not depend on timing.
    fn counts(report: &EvalReport) -> (u64, u64, u64, usize, usize, usize, usize, usize) {
        (
            report.submitted,
            report.rejected,
            report.retried,
            report.committed,
            report.failed,
            report.timed_out,
            report.dropped,
            report.expired,
        )
    }

    #[test]
    fn traced_chain_is_transparent_to_the_driver() {
        let plain = run_rep(&SMALL, &ENV, 9, &RepOptions::default()).unwrap();
        let recorder = Recorder::new(4_096);
        let traced = run_rep(
            &SMALL,
            &ENV,
            9,
            &RepOptions {
                recorder: Some(recorder),
                obs: false,
            },
        )
        .unwrap();
        assert_eq!(counts(&plain.report), counts(&traced.report));
        assert_eq!(counts(&plain.report).3, 2_000);
        assert!(check_report(&traced.report, &traced.control).is_empty());
        let ids = |r: &EvalReport| {
            let mut ids: Vec<_> = r.records.iter().map(|r: &TxRecord| r.tx_id).collect();
            ids.sort();
            ids
        };
        assert_eq!(
            ids(&plain.report),
            ids(&traced.report),
            "same seed, same inputs"
        );

        // One span per call: every submission, and every block the monitor
        // matched, went through the wrapper.
        let spans = &traced.trace.as_ref().unwrap().spans;
        let submits = spans.iter().filter(|s| s.kind == SpanKind::Submit).count();
        assert_eq!(submits as u64, traced.report.submitted);
        let fetched: u64 = spans
            .iter()
            .filter(|s| s.kind == SpanKind::BlockAt)
            .map(|s| s.txs as u64)
            .sum();
        assert_eq!(fetched, traced.report.committed as u64);
        assert!(spans.iter().all(|s| s.ok));
        assert!(plain.trace.is_none());
    }

    #[test]
    fn paced_control_follows_the_seed_and_the_requested_length() {
        let paced = workload_named("inproc_paced").unwrap();
        let env = RunEnv {
            paced_seconds: 3,
            ..ENV
        };
        let a = paced.control(&env, 5);
        assert_eq!(a, paced.control(&env, 5), "same seed, same schedule");
        assert_ne!(a, paced.control(&env, 6));
        assert_eq!(a.len(), 30);
        assert_eq!(a.slice_duration(), PACED_SLICE);
        // Per-slice rounding moves the total by at most half a transaction
        // per slice.
        assert!(a.total().abs_diff(45_000) <= 15, "{}", a.total());
        let smoke = RunEnv { shrink: 50, ..env };
        assert_eq!(paced.control(&smoke, 5).len(), 5);
    }

    #[test]
    fn closed_control_is_one_slice_and_shrinks_for_smoke() {
        let control = SMALL.control(&ENV, 1);
        assert_eq!((control.len(), control.total()), (1, 2_000));
        let smoke = RunEnv { shrink: 50, ..ENV };
        assert_eq!(SMALL.control(&smoke, 1).total(), 40);
    }

    #[test]
    fn gate_catches_a_short_or_unbalanced_report() {
        let rep = run_rep(&SMALL, &ENV, 3, &RepOptions::default()).unwrap();
        assert!(check_report(&rep.report, &rep.control).is_empty());
        let mut short = rep.report.clone();
        short.committed -= 1;
        let found = check_report(&short, &rep.control);
        assert_eq!(found.len(), 2, "{found:?}"); // identity and commit count
        let bigger = ControlSequence::from_budgets(vec![2_001], Duration::from_millis(1));
        assert_eq!(check_report(&rep.report, &bigger).len(), 2);
    }

    #[test]
    fn latency_windows_take_the_median_p99() {
        let rep = run_rep(&SMALL, &ENV, 4, &RepOptions::default()).unwrap();
        let latency = latency_of(&rep.report);
        assert_eq!(latency.samples, 2_000);
        assert_eq!(latency.windows, 1);
        assert!(latency.p50_ms > 0.0 && latency.p50_ms <= latency.p99_ms);
    }
}
