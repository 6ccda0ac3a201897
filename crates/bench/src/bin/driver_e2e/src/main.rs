//! `driver_e2e`: the repo's benchmark. Runs the real `Evaluation::run`
//! (generate → sign → submit → monitor → match → report) against a null
//! backend in both deploy modes and reports wall-clock throughput, CPU,
//! memory and set-up cost, with a per-layer breakdown from a traced pass.
//! Every layer is measured from outside: this directory touches no library
//! source. See `README.md` beside this file.
//!
//! ```text
//! driver_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one measurement; the last line of stdout is the result object
//!     (`correct`, `attempted`, `failed`, `metrics`) of /BENCHMARK.json
//! driver_e2e --all    [--seed <n>] [--seconds <s>]
//!     every workload untraced, then traced; one JSON line per metric
//! driver_e2e --repeat <N> [--seed <n>] [--seconds <s>]
//!     the untraced set of the gated workloads N times, compared against
//!     BENCHMARK.json's bounds
//! driver_e2e --smoke  [--seed <n>]
//!     every workload at 1/50 size, both passes, correctness gate only
//! driver_e2e --backend <name> --port <p> ...
//!     node-host mode (what the multi-process deployments spawn)
//! ```

mod host;
mod layers;
mod measure;
mod metrics;
mod null;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use hammer_rpc::json::Value;

use measure::{Invocation, Outcome};
use metrics::{Better, MetricDef, END_TO_END, PER_LAYER};
use workloads::{workload_named, Workload, WORKLOADS};

/// Seconds an untraced invocation measures for when `--seconds` is absent:
/// `run_seconds` of BENCHMARK.json.
const DEFAULT_SECONDS: u64 = 40;

const DEFAULT_SEED: u64 = 1;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    all: bool,
    repeat: Option<u64>,
    /// Internal: run exactly one repetition and print its numbers (what an
    /// invocation re-executes itself with).
    rep: bool,
    /// Internal, with `rep`: install an enabled `Obs`.
    obs: bool,
}

/// The value following `flag` on a command line.
fn flag_value<T: std::str::FromStr>(flag: &str, raw: Option<&String>) -> Result<T, String> {
    let raw = raw.ok_or_else(|| format!("{flag} requires a value"))?;
    raw.parse()
        .map_err(|_| format!("invalid value {raw:?} for {flag}"))
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        all: false,
        repeat: None,
        rep: false,
        obs: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => parsed.workload = Some(flag_value(flag, it.next())?),
            "--seed" => parsed.seed = flag_value(flag, it.next())?,
            "--seconds" => parsed.seconds = flag_value::<u64>(flag, it.next())?.max(1),
            "--trace" => parsed.trace = flag_value::<u64>(flag, it.next())? != 0,
            "--repeat" => parsed.repeat = Some(flag_value::<u64>(flag, it.next())?.max(2)),
            "--smoke" => parsed.smoke = true,
            "--all" => parsed.all = true,
            "--rep" => parsed.rep = true,
            "--obs" => parsed.obs = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(parsed)
}

/// The result object, with the metrics of `defs` in table order.
fn result_line(outcome: &Outcome, defs: &[MetricDef]) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(defs.len());
    for def in defs {
        let value = outcome
            .metric(def.name)
            .ok_or_else(|| format!("metric {} was not measured", def.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is not a number", def.name));
        }
        metrics.push((
            def.name,
            Value::object([
                ("value", Value::from(value)),
                ("unit", Value::from(def.unit)),
            ]),
        ));
    }
    Ok(Value::object([
        ("correct", Value::from(outcome.correct)),
        ("attempted", Value::from(outcome.attempted)),
        ("failed", Value::from(outcome.failed)),
        ("metrics", Value::object(metrics)),
    ])
    .to_json())
}

fn invocation<'a>(w: &'a Workload, args: &Args) -> Invocation<'a> {
    Invocation {
        workload: w,
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        host_cores: host::host_cores(),
    }
}

/// `--rep`: one repetition in this process; its numbers on stdout.
fn rep_here(w: &Workload, args: &Args) -> ExitCode {
    match measure::one_rep(&invocation(w, args), args.obs) {
        Ok(line) => {
            println!("{}", line.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("driver_e2e: {}: {e}", w.name);
            ExitCode::FAILURE
        }
    }
}

/// The untraced pass on `w`, conducted from this process; fails when the
/// correctness gate does.
fn untraced_checked(w: &Workload, args: &Args) -> Result<Outcome, String> {
    let outcome = measure::untraced(&invocation(w, args))?;
    if outcome.passed() {
        Ok(outcome)
    } else {
        Err(format!("{} failed its correctness gate", w.name))
    }
}

/// One measurement, conducted from this process.
fn measure_here(w: &Workload, args: &Args) -> ExitCode {
    let inv = invocation(w, args);
    eprintln!("{}: {}", w.name, w.why);
    let (outcome, defs): (_, &[MetricDef]) = if args.trace {
        (measure::traced(&inv), &PER_LAYER)
    } else {
        (measure::untraced(&inv), &END_TO_END)
    };
    let line = outcome.and_then(|outcome| {
        if outcome.attempted == 0 {
            return Err("nothing was attempted".to_owned());
        }
        let line = result_line(&outcome, defs)?;
        Ok((outcome, line))
    });
    match line {
        Ok((outcome, line)) => {
            let passed = outcome.passed();
            println!("{}", Value::object([("detail", outcome.detail)]).to_json());
            println!("{line}");
            if passed {
                ExitCode::SUCCESS
            } else {
                eprintln!("driver_e2e: {} failed its correctness gate", w.name);
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("driver_e2e: {}: {e}", w.name);
            ExitCode::FAILURE
        }
    }
}

/// What a traced child invocation printed.
struct ChildResult {
    detail: Value,
    result: Value,
}

impl ChildResult {
    fn metric(&self, name: &str) -> Option<f64> {
        self.result
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }
}

/// The traced pass in a process of its own: it pins itself and holds a
/// run's spans, and neither may reach the next workload. Fails when the
/// child does (its correctness gate included).
fn traced_in_child(w: &Workload, args: &Args) -> Result<ChildResult, String> {
    let mut lines = invocation(w, args).in_child(args.seed, args.seconds, &["--trace", "1"])?;
    let result = lines.pop().ok_or("no result line")?;
    let detail = lines
        .pop()
        .and_then(|line| line.get("detail").cloned())
        .ok_or("no detail line")?;
    Ok(ChildResult { detail, result })
}

/// One JSON line per metric of a measurement; `detail` holds the samples
/// behind the values and the host facts.
fn print_metric_lines(
    w: &Workload,
    defs: &[MetricDef],
    kind: &str,
    detail: &Value,
    metric: impl Fn(&str) -> Option<f64>,
) {
    for def in defs {
        let value = metric(def.name).expect("a finished pass reports every metric of its table");
        let mut pairs = vec![
            ("workload", Value::from(w.name)),
            ("metric", Value::from(def.name)),
            ("kind", Value::from(kind)),
            ("value", Value::from(value)),
            ("unit", Value::from(def.unit)),
            ("better", Value::from(def.better.name())),
        ];
        let samples: Vec<f64> = detail
            .get(def.name)
            .and_then(Value::as_array)
            .map(|a| a.iter().filter_map(Value::as_f64).collect())
            .unwrap_or_default();
        if !samples.is_empty() {
            pairs.push(("n", Value::from(samples.len())));
        }
        if samples.len() >= 2 {
            let [q1, _, q3] = stats::quartiles(&samples);
            pairs.push(("q1", Value::from(q1)));
            pairs.push(("q3", Value::from(q3)));
        }
        for key in ["pinned", "host_cores", "commit", "rustc"] {
            if let Some(v) = detail.get(key) {
                pairs.push((key, v.clone()));
            }
        }
        println!("{}", Value::object(pairs).to_json());
    }
}

/// `--all` and `--smoke`: every workload untraced, then traced.
fn run_all(args: &Args) -> ExitCode {
    let mut failed = false;
    for w in &WORKLOADS {
        match untraced_checked(w, args) {
            Ok(outcome) => {
                print_metric_lines(w, &END_TO_END, "end_to_end", &outcome.detail, |name| {
                    outcome.metric(name)
                })
            }
            Err(e) => {
                eprintln!("driver_e2e: {e}");
                failed = true;
            }
        }
    }
    for w in &WORKLOADS {
        match traced_in_child(w, args) {
            Ok(child) => print_metric_lines(w, &PER_LAYER, "per_layer", &child.detail, |name| {
                child.metric(name)
            }),
            Err(e) => {
                eprintln!("driver_e2e: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The regression bounds of `BENCHMARK.json` in the working directory.
fn read_bounds() -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repo root): {e}"))?;
    let spec = Value::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let listed = spec
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    listed
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_owned(), b))
                .ok_or_else(|| "BENCHMARK.json: end_to_end entry without name/bound".to_owned())
        })
        .collect()
}

/// `--repeat N`: the untraced set of the gated workloads N times; every
/// later set must agree with the first within the benchmark's own bounds.
fn run_repeat(args: &Args, sets: u64) -> ExitCode {
    let gated: Vec<&Workload> = WORKLOADS.iter().filter(|w| w.gated).collect();
    let bounds = match read_bounds() {
        Ok(bounds) => bounds,
        Err(e) => {
            eprintln!("driver_e2e: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut results: Vec<Vec<Outcome>> = Vec::new();
    for set in 0..sets {
        let mut row = Vec::new();
        for w in &gated {
            eprintln!("set {} of {sets}: {}", set + 1, w.name);
            match untraced_checked(w, args) {
                Ok(outcome) => row.push(outcome),
                Err(e) => {
                    eprintln!("driver_e2e: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        results.push(row);
    }
    let mut exceeded = false;
    for (i, w) in gated.iter().enumerate() {
        for def in &END_TO_END {
            let values: Vec<f64> = results
                .iter()
                .map(|row| {
                    row[i]
                        .metric(def.name)
                        .expect("the untraced pass reports every end-to-end metric")
                })
                .collect();
            let bound = bounds
                .iter()
                .find(|(name, _)| name == def.name)
                .map_or(0.0, |(_, b)| *b);
            let first = values[0];
            // Positive = a later set reads worse than the first.
            let worst = values[1..]
                .iter()
                .map(|v| match def.better {
                    Better::Lower => (v - first) / first,
                    Better::Higher => (first - v) / first,
                })
                .fold(f64::MIN, f64::max);
            let over = worst > bound;
            exceeded |= over;
            println!(
                "{}",
                Value::object([
                    ("workload", Value::from(w.name)),
                    ("metric", Value::from(def.name)),
                    ("unit", Value::from(def.unit)),
                    ("values", measure::numbers(&values)),
                    ("worse_by", Value::from(worst)),
                    ("bound", Value::from(bound)),
                    ("within_bound", Value::from(!over)),
                ])
                .to_json()
            );
        }
    }
    if exceeded {
        eprintln!("driver_e2e: two sets of runs of the same code disagree beyond a bound");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--backend") {
        return match null::parse_host_args(&raw) {
            Ok(host_args) => null::serve_node(host_args),
            Err(e) => {
                eprintln!("driver_e2e (node host): {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("driver_e2e: {e}");
            return ExitCode::from(2);
        }
    };
    match (&args.workload, args.repeat) {
        (Some(name), _) => match workload_named(name) {
            Some(w) if args.rep => rep_here(w, &args),
            Some(w) => measure_here(w, &args),
            None => {
                let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!("driver_e2e: unknown workload {name:?} (known: {known:?})");
                ExitCode::from(2)
            }
        },
        (None, Some(sets)) => run_repeat(&args, sets),
        (None, None) if args.all || args.smoke => run_all(&args),
        (None, None) => {
            eprintln!("driver_e2e: one of --workload, --all, --repeat, --smoke is required");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    /// The `[profile…]` tables of a manifest: table name → its settings.
    fn profiles(manifest: &str) -> BTreeMap<String, Vec<String>> {
        let mut tables: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let mut current = None;
        for line in manifest.lines().map(str::trim) {
            if let Some(header) = line.strip_prefix('[') {
                let name = header.trim_end_matches(']');
                current = name.starts_with("profile.").then(|| name.to_owned());
                if let Some(name) = &current {
                    tables.entry(name.clone()).or_default();
                }
            } else if let (Some(name), false) = (&current, line.is_empty() || line.starts_with('#'))
            {
                tables
                    .entry(name.clone())
                    .or_default()
                    .push(line.to_owned());
            }
        }
        tables
    }

    /// Profiles are read from the workspace root only, so this package
    /// repeats the repo root's; the benchmark has to measure the build a
    /// user of the repo gets.
    #[test]
    fn profiles_match_the_workspace_root() {
        let here = env!("CARGO_MANIFEST_DIR");
        let read = |path: String| std::fs::read_to_string(&path).expect(&path);
        let own = profiles(&read(format!("{here}/Cargo.toml")));
        let mut root = profiles(&read(format!("{here}/../../../../../Cargo.toml")));
        // `cargo bench` builds nothing of this package.
        root.remove("profile.bench");
        assert!(own.contains_key("profile.release"));
        assert_eq!(own, root);
    }
}
