//! The scenario DSL end to end: a built scenario compiles to a driver
//! configuration deterministically, the JSON corpus round-trips through
//! the builder, runs are reproducible per seed, and every
//! [`ScenarioError`] variant is reachable through build-time validation
//! (typed errors, never panics).

use std::time::Duration;

use hammer::core::retry::RetryPolicy;
use hammer::core::scenario::{corpus, Scenario, ScenarioError};
use hammer::net::FaultPlan;

/// A small fault-free scenario for determinism runs: well under
/// neuchain's capacity, so every transaction commits and the verdict is
/// a pure function of the seed.
fn small_scenario() -> Scenario {
    Scenario::builder("dsl-determinism")
        .backend("neuchain-sim")
        .constant_load(100, 3)
        .workload_with(|w| {
            w.accounts = 100;
            w.seed = 41;
        })
        .expect_consensus_liveness(1)
        .expect_min_inclusion(1.0)
        .expect_accounting_identity()
        .expect_no_stall()
        .build()
        .expect("the determinism scenario is statically valid")
}

/// ScenarioBuilder -> EvalConfig -> run -> Verdict is deterministic per
/// seed: the same built scenario, run twice on its virtual clock, gives
/// the same verdict, byte for byte, but for the wall time it took.
#[test]
fn built_scenario_runs_deterministically() {
    let scenario = small_scenario();
    let mut first = scenario.run().expect("run must complete");
    let mut second = scenario.run().expect("run must complete");

    assert!(first.passed(), "violations: {:?}", first.violations());
    // Journal monotonicity is graded on every run, asked for or not.
    assert!(first
        .checks
        .iter()
        .any(|c| c.name == "journal_monotonicity"));
    assert_eq!(first.report.submitted, 300);
    assert_eq!(first.report.committed, 300);
    first.report.wall_time = Duration::ZERO;
    second.report.wall_time = Duration::ZERO;
    assert_eq!(first.to_value().to_json(), second.to_value().to_json());
}

/// The same builder composition compiles to the same scenario: backend,
/// run window, expectations, and the driver configuration all match.
#[test]
fn compilation_is_deterministic() {
    let a = small_scenario();
    let b = small_scenario();
    assert_eq!(a.name(), b.name());
    assert_eq!(a.backend(), b.backend());
    assert_eq!(a.control(), b.control());
    assert_eq!(a.expectations(), b.expectations());
    // EvalConfig carries no PartialEq; its Debug form is the projection.
    assert_eq!(
        format!("{:?}", a.eval_config()),
        format!("{:?}", b.eval_config())
    );
}

/// Every shipped corpus spec parses, and re-parsing the same JSON yields
/// an identical scenario (the parser has no hidden state).
#[test]
fn corpus_round_trips_through_json() {
    let names = corpus::names();
    assert_eq!(names.len(), 8, "the shipped corpus has eight scenarios");
    for name in names {
        let spec = corpus::spec(name).expect("listed scenarios have specs");
        let first = Scenario::from_json(spec).expect("corpus spec must parse");
        let second = Scenario::from_json(spec).expect("corpus spec must parse");
        assert_eq!(first.name(), name);
        assert_eq!(first.backend(), second.backend());
        assert_eq!(first.control(), second.control());
        assert_eq!(first.expectations(), second.expectations());
        assert_eq!(first.recoverable(), second.recoverable());
        assert_eq!(
            format!("{:?}", first.eval_config()),
            format!("{:?}", second.eval_config())
        );
    }
}

/// Retargeting preserves the window shape: same slice count, scaled
/// total, new backend — and the result still validates.
#[test]
fn retarget_scales_the_window_and_revalidates() {
    let authored = corpus::load("partition-then-heal").expect("corpus scenario");
    let native_total = authored.control().total();
    let retargeted = authored
        .retarget("fabric-sim", 0.1)
        .expect("retargeting onto a registered backend must validate");
    assert_eq!(retargeted.backend(), "fabric-sim");
    assert_eq!(
        retargeted.control().duration(),
        authored.control().duration(),
        "retargeting preserves the window duration"
    );
    let scaled_total = retargeted.control().total();
    assert!(
        (scaled_total as f64 - native_total as f64 * 0.1).abs() <= 1.0,
        "total {native_total} scaled by 0.1 gave {scaled_total}"
    );

    let err = authored.retarget("fabric-sim", 0.0).unwrap_err();
    assert!(matches!(err, ScenarioError::Spec(_)), "got {err:?}");
}

// ---- one negative-path probe per ScenarioError variant ----

fn base() -> hammer::core::scenario::ScenarioBuilder {
    Scenario::builder("negative-path").constant_load(10, 2)
}

#[test]
fn unknown_backend_is_a_typed_error() {
    let err = base().backend("no-such-chain").build().unwrap_err();
    match err {
        ScenarioError::UnknownBackend { name, known } => {
            assert_eq!(name, "no-such-chain");
            assert!(known.contains(&"neuchain-sim".to_owned()));
        }
        other => panic!("expected UnknownBackend, got {other:?}"),
    }
}

#[test]
fn invalid_workload_is_a_typed_error() {
    let err = base()
        .workload_with(|w| w.accounts = 0)
        .build()
        .unwrap_err();
    assert!(matches!(err, ScenarioError::Workload(_)), "got {err:?}");
}

#[test]
fn missing_or_inconsistent_run_window_is_a_typed_error() {
    let err = Scenario::builder("no-window").build().unwrap_err();
    assert!(matches!(err, ScenarioError::RunWindow(_)), "got {err:?}");

    // A per-transaction retry deadline longer than the control slice
    // would let retries of slice N bleed arbitrarily far into slice N+1.
    let long_deadline = RetryPolicy {
        deadline: Some(Duration::from_secs(30)),
        ..RetryPolicy::standard()
    };
    let err = base().retry(long_deadline).build().unwrap_err();
    assert!(matches!(err, ScenarioError::RunWindow(_)), "got {err:?}");
}

#[test]
fn malformed_chaos_is_a_typed_error() {
    // Empty window: start == end.
    let instant = Duration::from_secs(2);
    let err = base()
        .faults(FaultPlan::new().crash("ingress:0", instant, instant))
        .build()
        .unwrap_err();
    assert!(matches!(err, ScenarioError::Chaos(_)), "got {err:?}");

    // A one-group "partition".
    let err = base()
        .faults(FaultPlan::new().partition(
            &[&["rest"]],
            Duration::from_secs(1),
            Duration::from_secs(2),
        ))
        .build()
        .unwrap_err();
    assert!(matches!(err, ScenarioError::Chaos(_)), "got {err:?}");
}

#[test]
fn out_of_range_expectation_is_a_typed_error() {
    let err = base().expect_min_inclusion(0.0).build().unwrap_err();
    assert!(matches!(err, ScenarioError::Expectation(_)), "got {err:?}");

    let err = base()
        .expect_latency_slo(1.5, Duration::from_secs(1))
        .build()
        .unwrap_err();
    assert!(matches!(err, ScenarioError::Expectation(_)), "got {err:?}");
}

#[test]
fn malformed_recovery_is_a_typed_error() {
    let err = base()
        .recover(Duration::ZERO, Duration::from_secs(1))
        .build()
        .unwrap_err();
    assert!(matches!(err, ScenarioError::Recovery(_)), "got {err:?}");
}

#[test]
fn bad_json_spec_is_a_typed_error() {
    let err = Scenario::from_json("{ not json").unwrap_err();
    assert!(matches!(err, ScenarioError::Spec(_)), "got {err:?}");

    let err = corpus::load("no-such-scenario").unwrap_err();
    assert!(matches!(err, ScenarioError::Spec(_)), "got {err:?}");

    // A spec is outside input: a value that does not fit its field, a
    // non-string group member or a misspelt key is refused by name, never
    // narrowed, dropped or left to run with the default.
    const VALID: &str = r#"{"name": "hostile", "backend": "neuchain-sim",
        "workload": {"accounts": 100},
        "control": {"shape": "constant", "rate": 10, "slices": 2},
        "chaos": {"faults": [{"kind": "partition", "start_ms": 0, "end_ms": 1000,
            "groups": [["sealer:0"], ["rest"]]}]}}"#;
    Scenario::from_json(VALID).expect("the unmodified spec loads");
    // (fragment of VALID, its hostile replacement, the key the error names)
    let hostile = [
        (r#""rate": 10"#, r#""rate": 4294967301"#, "rate"), // paced at 5 tx/s
        (r#""rate": 10"#, r#""rate": 10, "rat": 3"#, "rat"),
        (r#""slices": 2"#, r#""slices": -1"#, "slices"),
        (r#""slices": 2"#, r#""slices": 2.5"#, "slices"),
        // `slices` sizes the budget vector: a capacity overflow, or terabytes.
        (
            r#""slices": 2"#,
            r#""slices": 9223372036854775807"#,
            "slices",
        ),
        (r#""slices": 2"#, r#""slices": 1000000000000"#, "slices"),
        // More than one tracker shard can index (2^32 - 1).
        (
            r#""rate": 10, "slices": 2"#,
            r#""rate": 4294967295, "slices": 2"#,
            "control total",
        ),
        (
            r#""shape": "constant", "rate": 10, "slices": 2"#,
            r#""shape": "budgets", "budgets": [4294967295, 1]"#,
            "control total",
        ),
        (r#""accounts": 100"#, r#""clients": 4294967298"#, "clients"), // ran as 2
        (
            r#""accounts": 100"#,
            r#""threads_per_client": -1"#,
            "threads_per_client",
        ),
        (r#""accounts": 100"#, r#""workload": "ycsb""#, "workload"),
        (
            r#""name""#,
            r#""tracker_shards": 2.5, "name""#,
            "tracker_shards",
        ),
        (
            r#""name""#,
            r#""stall_budget_s": -1, "name""#,
            "stall_budget_s",
        ),
        (r#""name""#, r#""stall_budget": 5, "name""#, "stall_budget"),
        (r#""end_ms": 1000"#, r#""end_ms": 1000, "nod": "x""#, "nod"),
        (r#""sealer:0""#, r#""sealer:0", 7"#, "groups"),
    ];
    for (fragment, replacement, names) in hostile {
        let spec = VALID.replacen(fragment, replacement, 1);
        assert_ne!(spec, VALID, "{fragment} is not part of the valid spec");
        match Scenario::from_json(&spec) {
            Err(ScenarioError::Spec(msg)) => assert!(msg.contains(names), "{names}: {msg}"),
            other => panic!("{replacement}: expected a Spec error, got {other:?}"),
        }
    }
    for name in corpus::names() {
        corpus::load(name).unwrap_or_else(|e| panic!("corpus {name} must still load: {e}"));
    }
}

#[test]
fn rejected_driver_config_is_a_typed_error() {
    // tracker_shards is bounds-checked by the EvalConfig builder; the
    // scenario layer surfaces that rejection at build time.
    let err = base().tracker_shards(0).build().unwrap_err();
    assert!(matches!(err, ScenarioError::Config(_)), "got {err:?}");
}
