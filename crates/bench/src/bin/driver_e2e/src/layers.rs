//! Per-layer metrics: what the spans of a traced run say about the driver,
//! pacer, monitor and chain boundary, and direct probes of the layers below
//! them (generator, crypto, signer, tracker, kernel, codec, RPC, sockets,
//! deploy, store), run after the traced run on the same seed and sizes.

use std::collections::HashMap;
use std::io::BufRead;
use std::net::SocketAddr;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use hammer_chain::client::BlockchainClient;
use hammer_chain::codec;
use hammer_chain::kernel::ConsensusPolicy;
use hammer_chain::types::{Block, SignedTransaction, TxId, TxStatus};
use hammer_core::driver::EvalReport;
use hammer_core::shard::ShardedTxTable;
use hammer_core::signer;
use hammer_crypto::sig::SigParams;
use hammer_crypto::{sha256, Keypair};
use hammer_net::{
    LinkConfig, ReconnectPolicy, SimClock, SimNetwork, TcpClientConfig, TcpRpcClient,
};
use hammer_rpc::json::Value;
use hammer_store::{PerfRow, RowOutcome, TableStore};
use hammer_workload::{ControlSequence, SmallBankGenerator, WorkloadConfig};

use crate::null;
use crate::stats::percentile_sorted;
use crate::trace::{due_offsets_ns, union_ns, Span, SpanKind};
use crate::workloads::RunTrace;

/// `(metric name, value)` pairs, in the order of `BENCHMARK.json`.
pub type Metrics = Vec<(&'static str, f64)>;

fn p(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        percentile_sorted(sorted, q) as f64
    }
}

fn sorted(mut values: Vec<u64>) -> Vec<u64> {
    values.sort_unstable();
    values
}

/// How late each submission started against the control sequence:
/// `(lateness p50 ms, lateness p99 ms, overrun %)`. The schedule's origin is
/// placed so the first submission is exactly on time; `overrun` compares the
/// wall span between the first submissions of the first and last non-empty
/// slices with the scheduled one (0 for a single-slice sequence).
pub fn pacing(submit_starts_ns: &[u64], control: &ControlSequence) -> (f64, f64, f64) {
    let slice_ns = control.slice_duration().as_nanos() as u64;
    let due = due_offsets_ns(control.budgets(), slice_ns, submit_starts_ns.len());
    let (Some(first_start), Some(first_due)) = (submit_starts_ns.first(), due.first()) else {
        return (0.0, 0.0, 0.0);
    };
    let lateness = sorted(
        submit_starts_ns
            .iter()
            .zip(&due)
            .map(|(start, due)| (start - first_start).saturating_sub(due - first_due))
            .collect(),
    );
    let last_due = *due.last().expect("non-empty");
    let last_slice_first = due.partition_point(|d| *d < last_due);
    let scheduled = last_due - first_due;
    let overrun = if scheduled == 0 {
        0.0
    } else {
        let wall = submit_starts_ns[last_slice_first] - first_start;
        (wall as f64 / scheduled as f64 - 1.0) * 100.0
    };
    (p(&lateness, 0.50) / 1e6, p(&lateness, 0.99) / 1e6, overrun)
}

/// Mean transactions per non-empty block the monitor fetched.
pub fn mean_block_size(spans: &[Span]) -> usize {
    let (blocks, txs) = spans
        .iter()
        .filter(|s| s.kind == SpanKind::BlockAt && s.txs > 0)
        .fold((0u64, 0u64), |(b, t), s| (b + 1, t + s.txs as u64));
    (txs / blocks.max(1)).max(1) as usize
}

/// The driver-side layers, from the spans of one traced run.
pub fn from_spans(trace: &RunTrace, report: &EvalReport, control: &ControlSequence) -> Metrics {
    let spans = &trace.spans;
    let of = |kind| spans.iter().filter(move |s| s.kind == kind);
    let submits: Vec<&Span> = of(SpanKind::Submit).collect();
    // Driver: what happens around the chain calls.
    let first_submit = submits.first().map_or(trace.run_end_ns, |s| s.start_ns);
    let last_fetch = of(SpanKind::BlockAt)
        .map(|s| s.end_ns)
        .max()
        .unwrap_or(trace.run_end_ns);
    let mut by_thread: HashMap<u32, u64> = HashMap::new();
    let mut gaps = Vec::with_capacity(submits.len());
    for s in &submits {
        if let Some(prev_end) = by_thread.insert(s.thread, s.end_ns) {
            gaps.push(s.start_ns.saturating_sub(prev_end));
        }
    }
    let gaps = sorted(gaps);
    let mut flow: Vec<(u64, i64)> = submits.iter().map(|s| (s.start_ns, 1)).collect();
    flow.extend(of(SpanKind::BlockAt).map(|s| (s.end_ns, -(s.txs as i64))));
    flow.sort_unstable();
    let mut inflight = 0i64;
    let mut inflight_max = 0i64;
    for (_, delta) in flow {
        inflight += delta;
        inflight_max = inflight_max.max(inflight);
    }

    // Pacer.
    let starts: Vec<u64> = submits.iter().map(|s| s.start_ns).collect();
    let (late_p50, late_p99, overrun) = pacing(&starts, control);

    // Monitor.
    let polls = of(SpanKind::LatestHeight).count();
    let mut seen = 0;
    let mut useful = 0;
    for s in of(SpanKind::LatestHeight) {
        if s.id > seen {
            seen = s.id;
            useful += 1;
        }
    }
    let (fetch_ns, fetched) = of(SpanKind::BlockAt).fold((0u64, 0u64), |(ns, txs), s| {
        (ns + (s.end_ns - s.start_ns), txs + s.txs as u64)
    });
    // Driver-side clocks only: a transaction is observed when the block_at
    // call that delivered its block returns.
    let observed_at: HashMap<u64, u64> = of(SpanKind::BlockAt)
        .filter(|s| s.txs > 0)
        .map(|s| (s.stamp_ns, s.end_ns))
        .collect();
    let submitted_at: HashMap<u64, u64> = submits.iter().map(|s| (s.id, s.end_ns)).collect();
    let to_observed = sorted(
        report
            .records
            .iter()
            .filter(|r| r.status == TxStatus::Committed)
            .filter_map(|r| {
                let observed = observed_at.get(&(r.end?.as_nanos() as u64))?;
                let submitted = submitted_at.get(&r.tx_id.fingerprint())?;
                Some(observed.saturating_sub(*submitted))
            })
            .collect(),
    );

    // Chain boundary.
    let submit_ns = sorted(submits.iter().map(|s| s.end_ns - s.start_ns).collect());
    let stats = report.index_stats.unwrap_or_default();

    let ms = |ns: u64| ns as f64 / 1e6;
    vec![
        ("driver.prepare_ms", ms(first_submit - trace.run_start_ns)),
        ("driver.report_ms", ms(trace.run_end_ns - last_fetch)),
        ("driver.submit_gap_ns_p50", p(&gaps, 0.50)),
        ("driver.inflight_max", inflight_max as f64),
        ("pacer.lateness_ms_p50", late_p50),
        ("pacer.lateness_ms_p99", late_p99),
        ("pacing_overrun_pct", overrun),
        (
            "tracker.probe_steps_per_tx",
            stats.probe_steps as f64 / report.submitted.max(1) as f64,
        ),
        ("tracker.bloom_rebuilds", stats.bloom_rebuilds as f64),
        ("monitor.polls", polls as f64),
        (
            "monitor.useful_poll_ratio",
            useful as f64 / polls.max(1) as f64,
        ),
        (
            "monitor.block_fetch_ns_per_tx",
            fetch_ns as f64 / fetched.max(1) as f64,
        ),
        (
            "monitor.submit_to_observed_ms_p50",
            p(&to_observed, 0.50) / 1e6,
        ),
        (
            "monitor.submit_to_observed_ms_p99",
            p(&to_observed, 0.99) / 1e6,
        ),
        ("chain.submit_calls", submits.len() as f64),
        (
            "chain.submit_errors",
            submits.iter().filter(|s| !s.ok).count() as f64,
        ),
        ("chain.submit_ns_p50", p(&submit_ns, 0.50)),
        ("chain.submit_ns_p99", p(&submit_ns, 0.99)),
    ]
}

/// The table a reader locates a regression in: the run's wall time split
/// into its phases, and under it the chain calls with their count, busy
/// time (sum of durations), median and the share of the run's wall time
/// they cover (union over threads). The run's self time is what no chain
/// call covers.
pub fn print_layer_table(trace: &RunTrace) {
    let run_ns = (trace.run_end_ns - trace.run_start_ns).max(1);
    let share = |ns: u64| 100.0 * ns as f64 / run_ns as f64;
    let of = |kind| trace.spans.iter().filter(move |s| s.kind == kind);
    let first_submit = of(SpanKind::Submit)
        .map(|s| s.start_ns)
        .min()
        .unwrap_or(trace.run_end_ns);
    let last_submit = of(SpanKind::Submit)
        .map(|s| s.end_ns)
        .max()
        .unwrap_or(first_submit);
    let drain_end = of(SpanKind::BlockAt)
        .map(|s| s.end_ns)
        .max()
        .map_or(last_submit, |last_fetch| last_fetch.max(last_submit));
    eprintln!(
        "{:<22}{:>10}{:>12}{:>11}{:>9}",
        "span", "count", "busy_ms", "p50_us", "wall_%"
    );
    let row = |name: &str, count: usize, busy: u64, p50: Option<f64>, covered: u64| {
        eprintln!(
            "{:<22}{:>10}{:>12.2}{:>11}{:>9.1}",
            name,
            count,
            busy as f64 / 1e6,
            p50.map_or("-".to_owned(), |v| format!("{:.2}", v / 1e3)),
            share(covered)
        );
    };
    row("run", 1, run_ns, None, run_ns);
    let phases = [
        ("  phase prepare", trace.run_start_ns, first_submit),
        ("  phase submit", first_submit, last_submit),
        ("  phase drain", last_submit, drain_end),
        ("  phase report", drain_end, trace.run_end_ns),
    ];
    for (name, from, to) in phases {
        let ns = to.saturating_sub(from);
        row(name, 1, ns, None, ns);
    }
    let mut all = Vec::new();
    for kind in [SpanKind::Submit, SpanKind::LatestHeight, SpanKind::BlockAt] {
        let calls: Vec<(u64, u64)> = of(kind).map(|s| (s.start_ns, s.end_ns)).collect();
        let durations = sorted(calls.iter().map(|(s, e)| e - s).collect());
        row(
            &format!("  call {}", kind.name()),
            calls.len(),
            durations.iter().sum(),
            Some(p(&durations, 0.50)),
            union_ns(calls.clone()),
        );
        all.extend(calls);
    }
    let covered = union_ns(all);
    row("  run self", 1, run_ns - covered, None, run_ns - covered);
}

/// Nanoseconds per item of `work` over `items` items.
fn ns_per<T>(items: usize, work: impl FnOnce() -> T) -> f64 {
    let started = Instant::now();
    std::hint::black_box(work());
    started.elapsed().as_nanos() as f64 / items.max(1) as f64
}

/// Sizes of the direct probes.
pub struct ProbePlan {
    /// The run's transaction count (generator, tracker, store work on it).
    pub txs: usize,
    /// Transactions signed, admitted, sealed and encoded.
    pub sample: usize,
    /// The workload's block size: tracker matching, sealing and the block
    /// codec depend on it.
    pub block_size: usize,
    pub workers: usize,
    /// Tracker shard count the driver would pick.
    pub shards: usize,
    pub seed: u64,
    pub backend: &'static str,
}

/// Probes of the layers under the driver, each driven directly.
pub fn direct_probes(plan: &ProbePlan, report: &EvalReport) -> Result<Metrics, String> {
    let mut out: Metrics = Vec::new();
    let params = SigParams::fast();
    let keypair = Keypair::from_seed(plan.seed);
    let config = WorkloadConfig {
        chain_name: plan.backend.to_owned(),
        accounts: 5_000,
        clients: 1,
        threads_per_client: plan.workers as u32,
        seed: plan.seed,
        total_txs: plan.txs,
        ..WorkloadConfig::default()
    };

    // hammer-workload: the serial head of every run.
    let mut unsigned = Vec::new();
    out.push((
        "workload.generate_ns_per_tx",
        ns_per(plan.txs, || {
            unsigned = SmallBankGenerator::new(config.clone()).generate_all()
        }),
    ));
    unsigned.truncate(plan.sample);
    let sample = unsigned.len();

    // hammer-crypto, on the bytes the signer signs.
    let messages: Vec<Vec<u8>> = unsigned.iter().map(|tx| tx.signable_bytes()).collect();
    let mut signatures = Vec::with_capacity(sample);
    out.push((
        "crypto.sign_ns",
        ns_per(sample, || {
            signatures.extend(messages.iter().map(|m| keypair.sign(m, &params)))
        }),
    ));
    let public = keypair.public();
    out.push((
        "crypto.verify_ns",
        ns_per(sample, || {
            messages
                .iter()
                .zip(&signatures)
                .filter(|(m, s)| public.verify(m, s, &params))
                .count()
        }),
    ));
    out.push((
        "crypto.tx_id_hash_ns",
        ns_per(sample, || {
            messages.iter().fold(0u8, |acc, m| acc ^ sha256(m)[0])
        }),
    ));

    // hammer-core::signer, serial against the run's pipelined pool.
    let serial_ns = ns_per(sample, || {
        signer::sign_serial(unsigned.clone(), &keypair, &params)
    });
    let mut signed: Vec<SignedTransaction> = Vec::with_capacity(sample);
    let batch = unsigned.clone();
    let pipelined_ns = ns_per(sample, || {
        signed.extend(signer::sign_pipelined(batch, keypair, params, plan.workers).iter())
    });
    out.push(("signer.serial_ns_per_tx", serial_ns));
    out.push(("signer.pipelined_ns_per_tx", pipelined_ns));
    out.push((
        "signer.parallel_efficiency",
        serial_ns / (plan.workers as f64 * pipelined_ns),
    ));

    // hammer-core::shard: insert everything, then match it block by block.
    let ids: Vec<TxId> = report.records.iter().map(|r| r.tx_id).collect();
    let table = ShardedTxTable::new(plan.shards, ids.len());
    out.push((
        "tracker.insert_ns",
        ns_per(ids.len(), || {
            for id in &ids {
                table.insert(*id, 0, 0, Duration::ZERO);
            }
        }),
    ));
    let entries: Vec<(TxId, bool)> = ids.iter().map(|id| (*id, true)).collect();
    let mut matched = Vec::with_capacity(plan.block_size);
    out.push((
        "tracker.match_ns_per_tx",
        ns_per(ids.len(), || {
            for block in entries.chunks(plan.block_size) {
                matched.clear();
                table.complete_block(block, Duration::from_secs(1), &mut matched);
            }
        }),
    ));
    drop((table, entries, matched, ids));

    // hammer-chain::kernel: a null node whose sealer never fires, admitted
    // into and sealed by hand.
    let clock = SimClock::with_speedup(1.0);
    let net = SimNetwork::new(clock.clone(), LinkConfig::lan());
    let node = null::start(
        null::NullConfig {
            name: "null-probe",
            seal_every: Duration::from_secs(3600),
            min_depth: 1,
        },
        clock,
        net.clone(),
    );
    let to_admit = signed.clone();
    out.push((
        "kernel.admit_ns_per_tx",
        ns_per(sample, || {
            for tx in to_admit {
                node.submit(tx).expect("the null node admits everything");
            }
        }),
    ));
    // Seal what was admitted in blocks of the workload's size: drain the
    // pool once, then hand the kernel one round per block.
    let pooled = node
        .policy()
        .build_round(node.kernel(), 0)
        .map_or(Vec::new(), |round| round.tx_ids);
    out.push((
        "kernel.seal_ns_per_tx",
        ns_per(pooled.len(), || {
            for ids in pooled.chunks(plan.block_size) {
                node.kernel().seal_block(0, null::round_of(ids.to_vec()));
            }
        }),
    ));

    // hammer-chain::codec + hammer-rpc::json, on the same transactions and
    // on the first sealed block.
    let mut text = String::new();
    let mut encoded: Vec<String> = Vec::with_capacity(sample);
    out.push((
        "codec.encode_signed_tx_ns",
        ns_per(sample, || {
            for tx in &signed {
                text.clear();
                codec::encode_signed_tx_into(tx, &mut text);
                encoded.push(text.clone());
            }
        }),
    ));
    out.push((
        "codec.decode_signed_tx_ns",
        ns_per(sample, || {
            encoded
                .iter()
                .filter(|t| codec::decode_signed_tx_bytes(t.as_bytes()).is_ok())
                .count()
        }),
    ));
    out.push((
        "codec.signed_tx_bytes",
        encoded.iter().map(String::len).sum::<usize>() as f64 / sample.max(1) as f64,
    ));
    let block: Block = node
        .block_at(0, 1)
        .map_err(|e| e.to_string())?
        .ok_or("the kernel probe sealed no block")?;
    const BLOCK_ROUNDS: usize = 5;
    let per_round = block.len() * BLOCK_ROUNDS;
    out.push((
        "codec.encode_block_ns_per_tx",
        ns_per(per_round, || {
            for _ in 0..BLOCK_ROUNDS {
                text.clear();
                codec::encode_block_into(&block, &mut text);
            }
        }),
    ));
    out.push((
        "codec.decode_block_ns_per_tx",
        ns_per(per_round, || {
            (0..BLOCK_ROUNDS)
                .filter(|_| codec::decode_block_bytes(text.as_bytes()).is_ok())
                .count()
        }),
    ));
    out.push((
        "codec.block_bytes_per_tx",
        text.len() as f64 / block.len().max(1) as f64,
    ));

    // hammer-rpc::transport: one in-process dispatch of the cheapest method.
    const DISPATCHES: usize = 20_000;
    let rpc = node.serve_rpc_sim().client();
    out.push((
        "rpc.dispatch_ns",
        ns_per(DISPATCHES, || {
            (0..DISPATCHES)
                .filter(|_| rpc.call("chain_name", Value::Null).is_ok())
                .count()
        }),
    ));
    drop(rpc);
    node.shutdown_and_join();
    drop(node);
    net.shutdown_and_join();

    // hammer-store: what the report phase does with the run's rows.
    let rows: Vec<PerfRow> = report
        .records
        .iter()
        .map(|r| PerfRow {
            tx_id: r.tx_id.fingerprint(),
            client_id: r.client_id,
            server_id: r.server_id,
            chain: report.chain.clone(),
            start_time: r.start,
            end_time: r.end,
            outcome: RowOutcome::Committed,
        })
        .collect();
    out.push((
        "store.report_ns_per_row",
        ns_per(rows.len(), || {
            let table = TableStore::new();
            table.insert_batch(rows);
            (
                table.overall_tps(),
                table.latency_summary(),
                table.tps_series(Duration::from_secs(1)),
                table.per_client_committed(),
            )
        }),
    ));
    Ok(out)
}

/// hammer-core::deploy and hammer-net::tcp against a live null node: spawns
/// this binary as a node host the way the supervisor does, and times the
/// handshake, the first health check and empty round trips.
pub fn node_probe(backend: &str, round_trips: usize) -> Result<Metrics, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let started = Instant::now();
    let mut child = Command::new(exe)
        .args(["--backend", backend, "--port", "0", "--speedup", "1"])
        .args(["--epoch-offset-ms", "0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn node host: {e}"))?;
    let result = (|| {
        let stdout = child.stdout.take().ok_or("node host has no stdout")?;
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        let handshake_ms = started.elapsed().as_secs_f64() * 1e3;
        let port: u16 = line
            .trim()
            .strip_prefix("LISTENING ")
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| format!("bad handshake line {line:?}"))?;
        let rpc = TcpRpcClient::new(
            SocketAddr::from(([127, 0, 0, 1], port)),
            TcpClientConfig::default(),
            ReconnectPolicy::none(),
        );
        let call = |rpc: &TcpRpcClient| -> Result<u64, String> {
            let started = Instant::now();
            rpc.call("chain_name", Value::Null)
                .map_err(|e| e.to_string())?
                .map_err(|e| e.to_string())?;
            Ok(started.elapsed().as_nanos() as u64)
        };
        let first_health_ms = call(&rpc)? as f64 / 1e6;
        let mut rtts = Vec::with_capacity(round_trips);
        for _ in 0..round_trips {
            rtts.push(call(&rpc)?);
        }
        let rtts = sorted(rtts);
        Ok(vec![
            ("net.rtt_empty_us_p50", p(&rtts, 0.50) / 1e3),
            ("net.rtt_empty_us_p99", p(&rtts, 0.99) / 1e3),
            ("deploy.spawn_handshake_ms", handshake_ms),
            ("deploy.first_health_ms", first_health_ms),
        ])
    })();
    let _ = child.kill();
    let _ = child.wait();
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pacing_measures_lateness_against_reconstructed_due_times() {
        // Budgets 2, 0, 2 at 100 ns slices: due at 0, 0, 200, 200 after the
        // first submission.
        let control = ControlSequence::from_budgets(vec![2, 0, 2], Duration::from_nanos(100));
        // Submissions at 1000 (on time), 1010 (+10), 1230 (+30), 1260 (+60).
        let (p50, p99, overrun) = pacing(&[1000, 1010, 1230, 1260], &control);
        assert_eq!(p50 * 1e6, 10.0);
        assert_eq!(p99 * 1e6, 60.0);
        // The last slice was due 200 ns after the first and started 230 ns
        // after it: 15 % over.
        assert!((overrun - 15.0).abs() < 1e-9, "{overrun}");
    }

    #[test]
    fn pacing_of_a_single_slice_has_no_overrun() {
        let control = ControlSequence::from_budgets(vec![3], Duration::from_millis(1));
        let (p50, p99, overrun) = pacing(&[50, 60, 90], &control);
        assert_eq!((p50 * 1e6, p99 * 1e6, overrun), (10.0, 40.0, 0.0));
        assert_eq!(pacing(&[], &control), (0.0, 0.0, 0.0));
    }

    #[test]
    fn mean_block_size_ignores_empty_fetches() {
        let span = |kind, txs| Span {
            kind,
            thread: 0,
            ok: true,
            start_ns: 0,
            end_ns: 1,
            id: 0,
            txs,
            stamp_ns: 0,
        };
        let spans = [
            span(SpanKind::BlockAt, 10),
            span(SpanKind::BlockAt, 0),
            span(SpanKind::BlockAt, 30),
            span(SpanKind::Submit, 0),
        ];
        assert_eq!(mean_block_size(&spans), 20);
        assert_eq!(mean_block_size(&[]), 1);
    }
}
