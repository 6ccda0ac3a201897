//! **Driver ceiling** — how many in-flight transactions the tracker
//! sustains before the *driver* (not the chain) becomes the bottleneck.
//!
//! The paper's driver claim is O(1) asynchronous task processing; ROADMAP
//! item 1 asks for that at production scale ("millions of users"). This
//! bin takes the chain out of the picture entirely — transactions are
//! synthesized, never submitted — and pushes the in-flight tracker to
//! millions of concurrently pending records, sweeping shard count ×
//! submit-thread count × in-flight depth:
//!
//! 1. **Fill** — `clients` submit threads insert until the configured
//!    in-flight depth is reached (every 1000th id is terminally rejected,
//!    exercising the one-lock rejection path).
//! 2. **Sustained match** — a matcher completes whole blocks through the
//!    batched per-shard fan-out while the submit threads insert
//!    replacements, holding the depth at the configured level (this is
//!    the steady state of a saturated run).
//! 3. **Accounting** — inserted must equal matched + rejected + pending,
//!    and the drained tracker must agree; the line `accounting identity
//!    holds` is what scripts/ci_check.sh greps for.
//!
//! `--shards 1` is the single-lock tracker (the pre-sharding driver);
//! larger values are the sharded tracker. Results append as JSON objects
//! to `target/bench-results/driver_ceiling.json` for
//! scripts/bench_snapshot.sh.
//!
//! Usage: `driver_ceiling [--inflight N] [--clients C] [--blocks B]
//! [--block-size M] [--shards 1,4,16] [--smoke]`

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::save_result;
use hammer_chain::types::{TxId, TxStatus};
use hammer_core::shard::ShardedTxTable;
use hammer_rpc::json::Value;

/// splitmix64: cheap, well-mixed 64-bit ids. The fingerprint (the first
/// 8 bytes, big-endian) drives both shard selection and the per-shard
/// home slot, so it must be uniform — hashing real transactions here
/// would make the bench measure SHA-256, not the tracker.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn tx_id(i: u64) -> TxId {
    let mut bytes = [0u8; 32];
    bytes[..8].copy_from_slice(&splitmix64(i).to_be_bytes());
    bytes[8..16].copy_from_slice(&i.to_be_bytes());
    TxId(bytes)
}

struct Args {
    inflight: u64,
    clients: u64,
    blocks: u64,
    block_size: u64,
    shards: Vec<usize>,
}

fn parse_args() -> Args {
    let mut args = Args {
        inflight: 1_000_000,
        clients: std::thread::available_parallelism()
            .map(|n| n.get() as u64)
            .unwrap_or(1)
            .clamp(1, 8),
        blocks: 50,
        block_size: 10_000,
        shards: vec![
            1,
            std::thread::available_parallelism()
                .map(|n| n.get().next_power_of_two())
                .unwrap_or(4)
                .max(4),
        ],
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match flag.as_str() {
            "--inflight" => args.inflight = value("--inflight").parse().expect("--inflight"),
            "--clients" => args.clients = value("--clients").parse().expect("--clients"),
            "--blocks" => args.blocks = value("--blocks").parse().expect("--blocks"),
            "--block-size" => {
                args.block_size = value("--block-size").parse().expect("--block-size")
            }
            "--shards" => {
                args.shards = value("--shards")
                    .split(',')
                    .map(|s| s.trim().parse().expect("--shards"))
                    .collect();
            }
            "--smoke" => {
                // The CI configuration: small but still deep enough to
                // exercise index growth, Bloom rotation, and the batched
                // fan-out.
                args.inflight = 50_000;
                args.clients = 2;
                args.blocks = 10;
                args.block_size = 5_000;
                args.shards = vec![2];
            }
            other => panic!("unknown flag {other:?}"),
        }
    }
    // The matcher consumes ids 0..blocks×block_size while replacement
    // submitters insert ids from `inflight` upward; keeping the match
    // window inside the fill range guarantees the two never race on the
    // same id (a matched-then-rejected overlap would double-count).
    assert!(
        args.blocks * args.block_size <= args.inflight,
        "blocks × block_size must not exceed the in-flight depth"
    );
    args
}

struct CeilingResult {
    shards: usize,
    fill_tps: f64,
    match_tps: f64,
    match_ns_per_tx: f64,
    inserted: u64,
    matched: u64,
    rejected: u64,
    pending: u64,
}

/// One sweep point: fill to depth, then match `blocks` blocks while
/// submitters keep the depth constant.
fn run_point(shards: usize, args: &Args) -> CeilingResult {
    let tracker = Arc::new(ShardedTxTable::new(shards, args.inflight as usize));
    let next_id = AtomicU64::new(0);
    let inserted = AtomicU64::new(0);
    let rejected = AtomicU64::new(0);
    let stop = AtomicBool::new(false);

    // Phase 1: fill to the configured depth from `clients` threads.
    let fill_start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..args.clients {
            let tracker = Arc::clone(&tracker);
            let next_id = &next_id;
            let inserted = &inserted;
            let rejected = &rejected;
            scope.spawn(move || loop {
                let i = next_id.fetch_add(1, Ordering::Relaxed);
                if i >= args.inflight {
                    return;
                }
                let id = tx_id(i);
                tracker.insert(id, (i % 97) as u32, 0, Duration::ZERO);
                inserted.fetch_add(1, Ordering::Relaxed);
                if i % 1000 == 999 {
                    tracker.reject(&id, Duration::from_millis(1));
                    rejected.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    let fill_time = fill_start.elapsed();
    let fill_tps = args.inflight as f64 / fill_time.as_secs_f64().max(1e-9);

    // Phase 2: sustained matching at constant depth. The matcher
    // completes blocks of the oldest live ids; submitters insert fresh
    // ids (with the same 1/1000 rejection mix) as fast as the matcher
    // retires old ones, so pending hovers at the configured depth.
    let matched_target = args.blocks * args.block_size;
    let match_start = Instant::now();
    let (matched, match_time) = std::thread::scope(|scope| {
        for _ in 0..args.clients {
            let tracker = Arc::clone(&tracker);
            let next_id = &next_id;
            let inserted = &inserted;
            let rejected = &rejected;
            let stop = &stop;
            let ceiling = args.inflight + matched_target;
            scope.spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let i = next_id.fetch_add(1, Ordering::Relaxed);
                    if i >= ceiling {
                        return; // replacement budget spent
                    }
                    let id = tx_id(i);
                    tracker.insert(id, (i % 97) as u32, 0, Duration::ZERO);
                    inserted.fetch_add(1, Ordering::Relaxed);
                    if i % 1000 == 999 {
                        tracker.reject(&id, Duration::from_millis(1));
                        rejected.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }

        // The matcher runs in this thread: oldest-first blocks, skipping
        // the ids the submitters already rejected (1/1000).
        let mut matched = 0u64;
        let mut out = Vec::with_capacity(args.block_size as usize);
        let mut entries = Vec::with_capacity(args.block_size as usize);
        let mut cursor = 0u64;
        for b in 0..args.blocks {
            entries.clear();
            entries.extend((cursor..cursor + args.block_size).map(|i| (tx_id(i), i % 3 != 2)));
            cursor += args.block_size;
            out.clear();
            tracker.complete_block(&entries, Duration::from_secs(1), &mut out);
            matched += out.len() as u64;
            if b == args.blocks / 2 {
                // Mid-sweep sanity: depth is still at the ceiling level.
                let pending = tracker.pending() as u64;
                assert!(
                    pending + matched_target >= args.inflight,
                    "depth collapsed mid-run: {pending}"
                );
            }
        }
        let match_time = match_start.elapsed();
        stop.store(true, Ordering::Release);
        (matched, match_time)
    });

    let stats = tracker.stats();
    let pending = tracker.pending() as u64;
    let inserted = inserted.load(Ordering::Relaxed);
    let rejected = rejected.load(Ordering::Relaxed);

    // Accounting identity over the live tracker, then over the drain.
    assert_eq!(
        inserted,
        matched + rejected + pending,
        "live accounting broke"
    );
    let (records, drained_rejected) = tracker.drain();
    assert_eq!(records.len() as u64, inserted, "drain lost records");
    assert_eq!(drained_rejected.len() as u64, rejected, "rejected set off");
    let drained_pending = records
        .iter()
        .filter(|r| r.status == TxStatus::Pending)
        .count() as u64;
    assert_eq!(drained_pending, pending, "pending mismatch after drain");

    let match_tps = matched as f64 / match_time.as_secs_f64().max(1e-9);
    println!(
        "shards={shards:>4}  fill {fill_tps:>12.0} tx/s   match {match_tps:>12.0} tx/s   \
         ({:.1} ns/tx, bloom_rebuilds={}, expansions={})",
        1e9 / match_tps.max(1e-9),
        stats.bloom_rebuilds,
        stats.expansions,
    );
    println!(
        "accounting identity holds (inserted={inserted} matched={matched} \
         rejected={rejected} pending={pending})"
    );

    CeilingResult {
        shards,
        fill_tps,
        match_tps,
        match_ns_per_tx: 1e9 / match_tps.max(1e-9),
        inserted,
        matched,
        rejected,
        pending,
    }
}

fn main() {
    let args = parse_args();
    println!(
        "=== Driver ceiling: sharded in-flight tracker at depth {} ===",
        args.inflight
    );
    println!(
        "clients={} blocks={} block_size={} shard sweep {:?}\n",
        args.clients, args.blocks, args.block_size, args.shards
    );

    let results: Vec<CeilingResult> = args.shards.iter().map(|&s| run_point(s, &args)).collect();

    if let Some(single) = results.iter().find(|r| r.shards == 1) {
        for r in results.iter().filter(|r| r.shards > 1) {
            println!(
                "\nsharded({}) vs single-lock match throughput: {:.2}x",
                r.shards,
                r.match_tps / single.match_tps.max(1e-9)
            );
        }
    }

    // JSON results for bench_snapshot.sh: rates as whole tx/s, the
    // per-tx cost to a tenth of a nanosecond.
    let points = results.iter().map(|r| {
        Value::object([
            ("shards", Value::from(r.shards)),
            ("fill_tps", Value::from(r.fill_tps.round() as u64)),
            ("match_tps", Value::from(r.match_tps.round() as u64)),
            (
                "match_ns_per_tx",
                Value::from((r.match_ns_per_tx * 10.0).round() / 10.0),
            ),
            ("inserted", Value::from(r.inserted)),
            ("matched", Value::from(r.matched)),
            ("rejected", Value::from(r.rejected)),
            ("pending", Value::from(r.pending)),
        ])
    });
    let json = Value::object([
        ("bench", Value::from("driver_ceiling")),
        ("inflight", Value::from(args.inflight)),
        ("clients", Value::from(args.clients)),
        ("blocks", Value::from(args.blocks)),
        ("block_size", Value::from(args.block_size)),
        (
            "host_cores",
            Value::from(std::thread::available_parallelism().map_or(1, |n| n.get())),
        ),
        ("points", Value::Array(points.collect())),
    ]);
    save_result("driver_ceiling.json", &json.to_json());
}
