//! The observability layer end to end: an instrumented evaluation run
//! must produce lifecycle spans, chain/driver metrics, a journal with
//! block seals (and fault transitions under a plan), a Prometheus
//! exposition that parses back to the driver's own numbers, and an ASCII
//! dashboard — while an uninstrumented run must record nothing at all.

use std::time::Duration;

use hammer::core::deploy::{BackendOptions, BackendRegistry};
use hammer::core::driver::{EvalConfig, EvalReport, Evaluation};
use hammer::core::machine::ClientMachine;
use hammer::core::retry::RetryPolicy;
use hammer::net::{FaultPlan, LinkConfig, SimClock, SimNetwork};
use hammer::obs::{parse_prometheus, render_dashboard, EventKind, Obs, Stage};
use hammer::workload::{ControlSequence, WorkloadConfig};

/// Runs SmallBank on Neuchain, on a virtual clock, with observability
/// installed (unless `obs` is `None`) and an optional fault plan.
fn run_neuchain(
    obs: Option<Obs>,
    plan: Option<FaultPlan>,
    retry: RetryPolicy,
    total: u32,
    slices: usize,
) -> (EvalReport, Obs) {
    let clock = SimClock::virtual_time();
    let net = SimNetwork::new(clock.clone(), LinkConfig::cloud_100mbps());
    if let Some(obs) = obs {
        net.install_obs(obs);
    }
    // Deploy first: install_faults validates the plan against the live
    // topology, so the node endpoints must already be registered.
    let deployment = BackendRegistry::builtin()
        .deploy_on(
            "neuchain-sim",
            &BackendOptions::default(),
            clock,
            net.clone(),
        )
        .unwrap();
    if let Some(plan) = plan {
        net.install_faults(plan);
    }
    let workload = WorkloadConfig {
        accounts: 500,
        chain_name: "neuchain-sim".to_owned(),
        ..WorkloadConfig::default()
    };
    let control = ControlSequence::constant(total / slices as u32, slices, Duration::from_secs(1));
    let config = EvalConfig::builder()
        .machine(ClientMachine::unconstrained())
        .retry(retry)
        .drain_timeout(Duration::from_secs(60))
        .build()
        .expect("valid config");
    let report = Evaluation::new(config)
        .run(&deployment, &workload, &control)
        .expect("evaluation failed");
    let obs = deployment.net().obs();
    (report, obs)
}

#[test]
fn instrumented_run_produces_spans_metrics_and_exposition() {
    let (report, obs) = run_neuchain(Some(Obs::new()), None, RetryPolicy::disabled(), 200, 4);
    assert!(obs.enabled());
    assert_eq!(report.committed, 200, "committed");

    // Lifecycle spans: every generated transaction was timed through the
    // preparation stages, and every matched one through the chain stages.
    let spans = obs.spans();
    assert_eq!(spans.histogram(Stage::Generated).count(), 200);
    assert_eq!(spans.histogram(Stage::Signed).count(), 200);
    assert!(spans.histogram(Stage::Submitted).count() > 0);
    assert!(spans.histogram(Stage::InBlock).count() >= report.committed as u64);
    assert_eq!(
        spans.histogram(Stage::Matched).count(),
        spans.histogram(Stage::InBlock).count()
    );

    // The journal saw the chain sealing blocks.
    assert!(obs.journal().count_of(EventKind::BlockSeal) > 0);

    // Exposition round-trip: the rendered text parses back, and the
    // parsed samples agree with the driver's own accounting.
    let text = obs.render_prometheus();
    let samples = parse_prometheus(&text).expect("exposition parses");
    let submitted = samples
        .iter()
        .find(|s| s.name == "hammer_driver_submitted_total")
        .expect("driver counter exposed");
    assert_eq!(submitted.value as u64, report.submitted);
    let sealed = samples
        .iter()
        .find(|s| {
            s.name == "hammer_chain_txs_sealed_total" && s.label("chain") == Some("neuchain-sim")
        })
        .expect("chain seal counter exposed");
    assert!(sealed.value as usize >= report.committed);
    // The span histograms render as cumulative bucket families.
    assert!(
        samples
            .iter()
            .any(|s| s.name == "hammer_span_stage_ns_count" && s.label("stage") == Some("signed")),
        "span histogram missing from exposition:\n{text}"
    );

    // The dashboard renders every section against a live registry.
    let series: Vec<f64> = report.tps_series.iter().map(|&n| n as f64).collect();
    let dash = render_dashboard(&obs, &series);
    for section in [
        "== TPS ==",
        "== Latency quantiles (s) ==",
        "== Resources ==",
        "== Journal",
    ] {
        assert!(dash.contains(section), "missing {section} in:\n{dash}");
    }
}

#[test]
fn fault_plan_transitions_are_journaled() {
    // Crash the ingress gate for [2 s, 4 s) of a 6-slice run: the driver's
    // monitor polls the plan and must journal the enter and exit edges. Two
    // slices follow the window: a chunk's transactions retry side by side,
    // so what is submitted in it expires within the retry deadline (one
    // slice), and a run that ended inside the window would be over before
    // its exit edge.
    let plan = FaultPlan::new().crash(
        "neuchain-client-proxy",
        Duration::from_secs(2),
        Duration::from_secs(4),
    );
    let retry = RetryPolicy::standard();
    let (report, obs) = run_neuchain(Some(Obs::new()), Some(plan), retry, 300, 6);
    assert!(obs.enabled());
    assert!(
        obs.journal().count_of(EventKind::FaultEnter) >= 1,
        "no fault-enter journaled; journal:\n{}",
        obs.journal().to_jsonl()
    );
    assert!(
        obs.journal().count_of(EventKind::FaultExit) >= 1,
        "no fault-exit journaled; journal:\n{}",
        obs.journal().to_jsonl()
    );
    // The retried counter mirrors the report.
    let samples = parse_prometheus(&obs.render_prometheus()).expect("exposition parses");
    let retried = samples
        .iter()
        .find(|s| s.name == "hammer_driver_retried_total")
        .expect("retried counter exposed");
    assert_eq!(retried.value as u64, report.retried);
}

#[test]
fn uninstrumented_run_records_nothing() {
    let (_, obs) = run_neuchain(None, None, RetryPolicy::disabled(), 100, 4);
    assert!(!obs.enabled());
    assert_eq!(obs.spans().histogram(Stage::Signed).count(), 0);
    assert!(obs.journal().is_empty());
    let samples = parse_prometheus(&obs.render_prometheus()).expect("exposition parses");
    assert!(
        samples.is_empty(),
        "disabled registry must expose nothing: {samples:?}"
    );
}
