//! One invocation of the benchmark on one workload: the untraced pass that
//! yields the end-to-end metrics, and the traced pass that yields the
//! per-layer ones.
//!
//! Every repetition runs in a process of its own (this binary, re-executed
//! with `--rep`): a user's run starts from a cold heap, and a repetition
//! that inherits the heap its predecessor grew runs measurably faster and
//! reports a larger peak, which is noise between the repetitions and bias
//! against what a user sees.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use hammer_rpc::json::Value;

use crate::host;
use crate::layers::{self, Metrics, ProbePlan};
use crate::stats::median;
use crate::trace::{self, Recorder};
use crate::workloads::{run_rep, setup_only, Load, Rep, RepOptions, RunEnv, Workload};

/// Set-ups behind one `setup_s`, at least: they are timed in windows, one
/// before every repetition and one after the last.
const SETUPS_PER_INVOCATION: usize = 66;

/// Repetitions of a closed-loop invocation, at least: fewer have no median
/// worth the name, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// Transactions the direct probes sign, admit, seal and encode.
const PROBE_SAMPLE: u64 = 100_000;

/// Empty round trips behind `net.rtt_empty_us_*`.
const ROUND_TRIPS: u64 = 5_000;

/// What an invocation reports.
pub struct Outcome {
    /// Every repetition passed the correctness gate.
    pub correct: bool,
    /// Transactions submitted, over all repetitions.
    pub attempted: u64,
    /// Submitted transactions that did not commit.
    pub failed: u64,
    pub metrics: Metrics,
    /// What does not fit the result line: the samples behind each median,
    /// `pinned`, host facts.
    pub detail: Value,
}

impl Outcome {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, value)| *value)
    }

    /// Whether the invocation passed the correctness gate.
    pub fn passed(&self) -> bool {
        self.correct && self.failed == 0
    }
}

/// Parameters of one invocation.
pub struct Invocation<'a> {
    pub workload: &'a Workload,
    pub seed: u64,
    pub seconds: u64,
    pub smoke: bool,
    /// CPUs the process may run on, taken before any pinning.
    pub host_cores: usize,
}

impl Invocation<'_> {
    fn env(&self, paced_seconds: u64) -> RunEnv {
        RunEnv {
            workers: self.host_cores.min(4) as u32,
            shrink: if self.smoke { 50 } else { 1 },
            paced_seconds,
        }
    }

    /// Whether the invocation is a single repetition: a smoke run, or the
    /// paced workload, whose one run lasts `--seconds`.
    fn single_rep(&self) -> bool {
        self.smoke || matches!(self.workload.load, Load::Paced { .. })
    }

    /// Pins the calling thread when the workload asks for it; the flag says
    /// whether the workload runs pinned.
    fn pin(&self) -> (Option<host::PinGuard>, bool) {
        if !self.workload.pinned {
            return (None, false);
        }
        let guard = host::pin_to_one_cpu();
        if guard.is_none() {
            eprintln!(
                "warning: cannot pin to one CPU; {} runs unpinned and its bounds in \
                 BENCHMARK.json do not apply",
                self.workload.name
            );
        }
        let pinned = guard.is_some();
        (guard, pinned)
    }

    fn detail(&self, trace: bool, pinned: bool, more: Vec<(&str, Value)>) -> Value {
        let mut pairs = vec![
            ("workload", Value::from(self.workload.name)),
            ("trace", Value::from(trace)),
            ("seed", Value::from(self.seed)),
            ("pinned", Value::from(pinned)),
            ("host_cores", Value::from(self.host_cores)),
            ("commit", Value::from(host::commit())),
            ("rustc", Value::from(host::rustc())),
        ];
        pairs.extend(more);
        Value::object(pairs)
    }

    /// Runs this binary again on the same workload with `extra` flags and
    /// returns the JSON lines it printed.
    pub fn in_child(&self, seed: u64, seconds: u64, extra: &[&str]) -> Result<Vec<Value>, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut command = Command::new(exe);
        command
            .args(["--workload", self.workload.name])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(extra);
        if self.smoke {
            command.arg("--smoke");
        }
        let output = command
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn {}: {e}", self.workload.name))?;
        if !output.status.success() {
            return Err(format!(
                "{} {extra:?}: {}",
                self.workload.name, output.status
            ));
        }
        String::from_utf8_lossy(&output.stdout)
            .lines()
            .map(|line| Value::parse(line).map_err(|e| format!("child output {line:?}: {e}")))
            .collect()
    }
}

pub fn numbers(values: &[f64]) -> Value {
    Value::Array(values.iter().map(|v| Value::from(*v)).collect())
}

/// The numbers of one repetition, as its process prints them and its
/// conductor reads them back.
pub struct RepLine {
    pub tps: f64,
    pub cpu_us_per_tx: f64,
    pub peak_rss_mb: f64,
    pub shutdown_s: f64,
    pub teardown_s: f64,
    pub latency_p50_ms: f64,
    pub latency_p99_ms: f64,
    pub submitted: u64,
    pub committed: u64,
    pub connections: (u64, u64),
    pub pinned: bool,
    pub violations: Vec<String>,
}

impl RepLine {
    fn of(rep: &Rep, pinned: bool) -> Self {
        RepLine {
            tps: rep.tps(),
            cpu_us_per_tx: rep.cpu_us_per_tx(),
            peak_rss_mb: rep.peak_rss_mb,
            shutdown_s: rep.shutdown_s,
            teardown_s: rep.teardown_s,
            latency_p50_ms: rep.latency.p50_ms,
            latency_p99_ms: rep.latency.p99_ms,
            submitted: rep.report.submitted,
            committed: rep.report.committed as u64,
            connections: rep.connections,
            pinned,
            violations: rep.violations.clone(),
        }
    }

    pub fn to_json(&self) -> String {
        Value::object([
            ("tps", Value::from(self.tps)),
            ("cpu_us_per_tx", Value::from(self.cpu_us_per_tx)),
            ("peak_rss_mb", Value::from(self.peak_rss_mb)),
            ("shutdown_s", Value::from(self.shutdown_s)),
            ("teardown_s", Value::from(self.teardown_s)),
            ("latency_p50_ms", Value::from(self.latency_p50_ms)),
            ("latency_p99_ms", Value::from(self.latency_p99_ms)),
            ("submitted", Value::from(self.submitted)),
            ("committed", Value::from(self.committed)),
            ("established", Value::from(self.connections.0)),
            ("closed", Value::from(self.connections.1)),
            ("pinned", Value::from(self.pinned)),
            (
                "violations",
                Value::Array(self.violations.iter().cloned().map(Value::from).collect()),
            ),
        ])
        .to_json()
    }

    fn from_json(v: &Value) -> Option<Self> {
        let f = |key| v.get(key).and_then(Value::as_f64);
        let u = |key| v.get(key).and_then(Value::as_u64);
        Some(RepLine {
            tps: f("tps")?,
            cpu_us_per_tx: f("cpu_us_per_tx")?,
            peak_rss_mb: f("peak_rss_mb")?,
            shutdown_s: f("shutdown_s")?,
            teardown_s: f("teardown_s")?,
            latency_p50_ms: f("latency_p50_ms")?,
            latency_p99_ms: f("latency_p99_ms")?,
            submitted: u("submitted")?,
            committed: u("committed")?,
            connections: (u("established")?, u("closed")?),
            pinned: v.get("pinned")?.as_bool()?,
            violations: v
                .get("violations")?
                .as_array()?
                .iter()
                .filter_map(|s| s.as_str().map(str::to_owned))
                .collect(),
        })
    }
}

fn log_rep(name: &str, what: &str, rep: &Rep) {
    eprintln!(
        "{name} {what}: {:.0} tx/s over {:.3} s ({} tx), cpu {:.2} us/tx, rss {:.0} MiB, \
         commit latency p50 {:.2} ms p99 {:.2} ms ({} samples, {} windows), \
         setup {:.2} ms, teardown {:.2} ms",
        rep.tps(),
        rep.run_s,
        rep.report.committed,
        rep.cpu_us_per_tx(),
        rep.peak_rss_mb,
        rep.latency.p50_ms,
        rep.latency.p99_ms,
        rep.latency.samples,
        rep.latency.windows,
        rep.setup_s * 1e3,
        rep.teardown_s * 1e3,
    );
    for violation in &rep.violations {
        eprintln!("{name} {what}: VIOLATION: {violation}");
    }
}

/// `--rep`: one cold repetition in this process.
pub fn one_rep(inv: &Invocation, obs: bool) -> Result<RepLine, String> {
    let w = inv.workload;
    let (_pin, pinned) = inv.pin();
    let options = RepOptions {
        obs,
        ..RepOptions::default()
    };
    let rep = run_rep(w, &inv.env(inv.seconds), inv.seed, &options)?;
    log_rep(w.name, if obs { "rep (obs on)" } else { "rep" }, &rep);
    Ok(RepLine::of(&rep, pinned))
}

/// One repetition in a process of its own.
fn rep_in_child(
    inv: &Invocation,
    seed: u64,
    seconds: u64,
    extra: &[&str],
) -> Result<RepLine, String> {
    let mut args = vec!["--rep"];
    args.extend(extra);
    let lines = inv.in_child(seed, seconds, &args)?;
    lines
        .last()
        .and_then(RepLine::from_json)
        .ok_or_else(|| format!("{}: repetition printed no result", inv.workload.name))
}

/// `(attempted, failed)` over repetitions given as `(submitted, committed)`.
fn tally(reps: impl IntoIterator<Item = (u64, u64)>) -> (u64, u64) {
    reps.into_iter()
        .fold((0, 0), |(attempted, failed), (submitted, committed)| {
            (
                attempted + submitted,
                failed + submitted.saturating_sub(committed),
            )
        })
}

/// Set-up alone, `count` times back to back in this process (pinned like a
/// repetition): samples of `setup_s`.
fn time_setups(inv: &Invocation, count: usize) -> Result<Vec<f64>, String> {
    let (_pin, _) = inv.pin();
    let env = inv.env(inv.seconds);
    (0..count)
        .map(|_| setup_only(inv.workload, &env, inv.seed))
        .collect()
}

/// The untraced pass: cold repetitions until `seconds` are used up, medians
/// reported. The time is what is fixed, not the count: on a host that runs a
/// fifth slower for minutes at a time, a fixed count would take a fifth
/// longer, and the harness's budget for all its runs is fixed too.
pub fn untraced(inv: &Invocation) -> Result<Outcome, String> {
    let started = Instant::now();
    let budget = Duration::from_secs(inv.seconds);
    host::warm_up(inv.host_cores);
    // `setup_s` is sampled in a window before every repetition and after the
    // last: in-process set-up is a few thread spawns, whose cost on this
    // class of host wanders by a third within seconds, so samples from one
    // moment would make two invocations disagree.
    let per_window = match (inv.smoke, inv.single_rep()) {
        (true, _) => 1,
        (false, true) => SETUPS_PER_INVOCATION / 2,
        (false, false) => SETUPS_PER_INVOCATION / (MIN_REPS + 1) + 1,
    };
    let mut setups = Vec::new();
    let mut reps = Vec::new();
    loop {
        let round = Instant::now();
        setups.extend(time_setups(inv, per_window)?);
        reps.push(rep_in_child(
            inv,
            inv.seed + reps.len() as u64,
            inv.seconds,
            &[],
        )?);
        // Another round only if it fits, going by the one just made.
        let fits = started.elapsed() + round.elapsed() <= budget;
        if inv.single_rep() || (reps.len() >= MIN_REPS && !fits) {
            break;
        }
    }
    setups.extend(time_setups(inv, per_window)?);
    let of = |f: fn(&RepLine) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let tps = of(|r| r.tps);
    let cpu = of(|r| r.cpu_us_per_tx);
    let rss = of(|r| r.peak_rss_mb);
    let (attempted, failed) = tally(reps.iter().map(|r| (r.submitted, r.committed)));
    Ok(Outcome {
        correct: reps.iter().all(|r| r.violations.is_empty()),
        attempted,
        failed,
        metrics: vec![
            ("driver_wall_tps", median(&tps)),
            ("cpu_us_per_tx", median(&cpu)),
            ("peak_rss_mb", median(&rss)),
            ("setup_s", median(&setups)),
        ],
        detail: inv.detail(
            false,
            reps.iter().all(|r| r.pinned),
            vec![
                ("driver_wall_tps", numbers(&tps)),
                ("cpu_us_per_tx", numbers(&cpu)),
                ("peak_rss_mb", numbers(&rss)),
                ("setup_s", numbers(&setups)),
                ("teardown_s", numbers(&of(|r| r.teardown_s))),
                ("commit_latency_p50_ms", numbers(&of(|r| r.latency_p50_ms))),
                ("commit_latency_p99_ms", numbers(&of(|r| r.latency_p99_ms))),
            ],
        ),
    })
}

/// Where trace files go: beside the build's other outputs.
fn trace_path(workload: &str) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target)
        .join("driver_e2e")
        .join(format!("{workload}.trace.jsonl"))
}

/// The traced pass: the same repetition with `Obs` on, plain and traced —
/// the first two each in a process of its own, the traced one in this
/// process (its first work, so it is as cold as they were) — then the direct
/// probes. The children run while this process is still small: on this class
/// of host a process that merely holds a few hundred MiB slows a
/// memory-hungry neighbour by a quarter.
pub fn traced(inv: &Invocation) -> Result<Outcome, String> {
    let w = inv.workload;
    // Three paced runs share the invocation's seconds.
    let paced_seconds = (inv.seconds / 3).max(2);
    let env = inv.env(paced_seconds);
    host::warm_up(inv.host_cores);
    let total = w.control(&env, inv.seed).total();

    let obs = rep_in_child(inv, inv.seed, paced_seconds, &["--obs"])?;
    let plain = rep_in_child(inv, inv.seed, paced_seconds, &[])?;

    // Pinned only now: a repetition launched by an already pinned process
    // runs in a different regime (about 8 % faster over loopback) from one
    // that pins itself, which is what every other repetition does.
    let (_pin, pinned) = inv.pin();
    // Every submit is one span; polls and block reads are few beside them.
    let recorder = Recorder::new(total as usize / env.workers as usize * 2 + 65_536);
    let traced = run_rep(
        w,
        &env,
        inv.seed,
        &RepOptions {
            recorder: Some(recorder),
            ..RepOptions::default()
        },
    )?;
    log_rep(w.name, "traced", &traced);
    let run_trace = traced.trace.as_ref().expect("ran with a recorder");
    let mut violations = traced.violations.clone();
    let submit_spans = run_trace
        .spans
        .iter()
        .filter(|s| s.kind == trace::SpanKind::Submit)
        .count() as u64;
    if submit_spans != traced.report.submitted {
        violations.push(format!(
            "{submit_spans} submit spans for {} submissions",
            traced.report.submitted
        ));
    }

    violations.extend(obs.violations.iter().chain(&plain.violations).cloned());

    let mut metrics: Metrics = vec![
        ("commit_latency_p50_ms", plain.latency_p50_ms),
        ("commit_latency_p99_ms", plain.latency_p99_ms),
        ("teardown_s", plain.teardown_s),
    ];
    layers::print_layer_table(run_trace);
    metrics.extend(layers::from_spans(
        run_trace,
        &traced.report,
        &traced.control,
    ));
    let sample = (PROBE_SAMPLE / env.shrink).min(total) as usize;
    let plan = ProbePlan {
        txs: total as usize,
        sample,
        block_size: layers::mean_block_size(&run_trace.spans).min(sample),
        workers: env.workers as usize,
        shards: std::thread::available_parallelism().map_or(1, |n| n.get().min(256)),
        seed: inv.seed,
        backend: w.backend,
    };
    metrics.extend(layers::direct_probes(&plan, &traced.report)?);
    metrics.extend(layers::node_probe(
        crate::null::NULL_5MS.name,
        (ROUND_TRIPS / env.shrink) as usize,
    )?);
    metrics.extend([
        ("net.connections", plain.connections.0 as f64),
        ("net.reconnects", plain.connections.1 as f64),
        ("deploy.shutdown_ms", plain.shutdown_s * 1e3),
        ("obs.on_tps_ratio", obs.tps / plain.tps),
        (
            "trace.overhead_pct",
            (plain.tps / traced.tps() - 1.0) * 100.0,
        ),
    ]);
    for violation in &violations {
        eprintln!("{}: VIOLATION: {violation}", w.name);
    }
    // Last, so that flushing a file of this size to disk competes with
    // nothing that is measured.
    let path = trace_path(w.name);
    trace::write_trace(
        &path,
        w.name,
        run_trace.run_start_ns,
        run_trace.run_end_ns,
        &run_trace.spans,
    )
    .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!(
        "{}: {} spans -> {}",
        w.name,
        run_trace.spans.len() + 1,
        path.display()
    );
    let (attempted, failed) = tally([
        (obs.submitted, obs.committed),
        (plain.submitted, plain.committed),
        (traced.report.submitted, traced.report.committed as u64),
    ]);
    Ok(Outcome {
        correct: violations.is_empty(),
        attempted,
        failed,
        metrics,
        detail: inv.detail(
            true,
            pinned && obs.pinned && plain.pinned,
            vec![
                ("trace_file", Value::from(path.display().to_string())),
                ("plain_tps", Value::from(plain.tps)),
                ("traced_tps", Value::from(traced.tps())),
                ("obs_tps", Value::from(obs.tps)),
            ],
        ),
    })
}
