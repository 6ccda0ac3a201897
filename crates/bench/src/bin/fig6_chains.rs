//! **Fig. 6** — Throughput and latency of the four blockchains under the
//! SmallBank workload.
//!
//! Paper numbers (5-node Aliyun testbed): Ethereum 18.6 TPS / 4.8 s
//! latency (a private PoW net with short blocks), Fabric ~239 TPS,
//! Meepo mid-range TPS with high latency, Neuchain 8 688 TPS with low
//! latency. The shape to reproduce:
//! `Neuchain ≫ Meepo > Fabric ≫ Ethereum` on TPS, Ethereum worst latency.
//!
//! Each chain is driven just above its capacity so measured TPS is its
//! peak without building an unbounded backlog. Speed-ups are tuned per
//! chain so the real CPU the simulators burn (PoW hashing, signature
//! verification) fits inside the simulated-time budget.

use std::time::Duration;

use bench::{save_csv, summary_header, summary_row, RunSpec};
use hammer_core::deploy::{BackendRegistry, Deployment};
use hammer_ethereum::EthereumConfig;
use hammer_store::report::{render_bars, render_table, to_csv};

fn main() {
    println!("=== Fig. 6: throughput & latency of different blockchains (SmallBank) ===\n");

    // Private-net Ethereum (the paper's testbed): 5 s PoW blocks,
    // 2 M gas => ~95 txs/block => ~19 TPS ceiling.
    let mut registry = BackendRegistry::builtin();
    registry.register("ethereum-sim", |_, clock, net| {
        let config = EthereumConfig {
            block_interval: Duration::from_secs(5),
            block_gas_limit: 2_000_000,
            ..EthereumConfig::default()
        };
        let chain = hammer_ethereum::start(config, clock.clone(), net.clone());
        Deployment::from_chain(chain, clock, net)
    });

    // (backend, rate tx/s, seconds, speedup): rates ~10% above each
    // system's capacity; Ethereum gets a long window to average over PoW
    // blocks. The other three run at their registry defaults.
    let runs = [
        ("ethereum-sim", 17u32, 240usize, 400.0),
        ("fabric-sim", 245, 60, 100.0),
        ("meepo-sim", 3_300, 30, 10.0),
        ("neuchain-sim", 9_000, 20, 5.0),
    ];

    let mut rows = Vec::new();
    let mut tps_points = Vec::new();
    let mut lat_points = Vec::new();
    for (name, rate, seconds, speedup) in runs {
        eprintln!("running {name} at {rate} tx/s for {seconds}s (sim, {speedup}x)...");
        let mut spec = RunSpec::peak(name, rate, seconds);
        spec.speedup = speedup;
        // A realistically sized SmallBank pool keeps incidental MVCC
        // conflicts on Fabric at the few-percent level seen in practice.
        spec.accounts = 30_000;
        let report = spec.run(&registry);
        if report.per_shard_committed.len() > 1 {
            eprintln!(
                "  shard-aware load report: {:?}",
                report.per_shard_committed
            );
        }
        tps_points.push((name.to_owned(), report.overall_tps));
        lat_points.push((name.to_owned(), report.latency.mean_s));
        rows.push(summary_row(&report));
    }

    println!("{}", render_table(&summary_header(), &rows));
    println!("{}", render_bars("Peak throughput (TPS)", &tps_points, 50));
    println!(
        "{}",
        render_bars("Mean commit latency (s)", &lat_points, 50)
    );

    save_csv("fig6_chains", &to_csv(&summary_header(), &rows));

    println!("Paper reference: Ethereum 18.6 TPS (worst, latency 4.8s);");
    println!("Neuchain 8688 TPS (best, lowest latency); Meepo between, high latency.");
}
