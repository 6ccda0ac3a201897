//! Spans at the driver ↔ chain boundary, recorded from outside.
//!
//! [`TracedChain`] wraps whatever chain handle a deployment exposes and
//! records one [`Span`] per `submit` / `latest_height` / `block_at` call.
//! Spans go into per-thread lanes of a [`Recorder`], sized before the run so
//! recording never reallocates, and are only read after the run returns.
//! The run itself is the root span; the chain calls are its children.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crossbeam::channel::Receiver;
use hammer_chain::client::{Architecture, BlockchainClient, ChainError, CommitEvent};
use hammer_chain::kernel::SimChain;
use hammer_chain::ledger::LedgerError;
use hammer_chain::state::AccountState;
use hammer_chain::types::{Address, Block, SignedTransaction, TxId};

/// Which chain call a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    Submit,
    LatestHeight,
    BlockAt,
}

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Submit => "submit",
            SpanKind::LatestHeight => "latest_height",
            SpanKind::BlockAt => "block_at",
        }
    }
}

/// One chain call. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: SpanKind,
    /// The calling thread (dense ids in order of first use).
    pub thread: u32,
    /// Whether the call returned `Ok`.
    pub ok: bool,
    pub start_ns: u64,
    pub end_ns: u64,
    /// What the span shares with the rest of its request: the transaction
    /// fingerprint (`submit`) or the block height (`latest_height`: the
    /// height returned; `block_at`: the height asked for).
    pub id: u64,
    /// `block_at` only: transactions in the returned block.
    pub txs: u32,
    /// `block_at` only: the block's timestamp in simulated nanoseconds —
    /// the commit time every record matched from it carries.
    pub stamp_ns: u64,
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD_ID: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Lanes a recorder spreads threads over. Two live threads share a lane
/// only once more than this many threads have recorded in the process,
/// and then they merely contend for its lock.
const LANES: usize = 64;

/// Collects spans from every thread of a run.
pub struct Recorder {
    epoch: Instant,
    lanes: Vec<Mutex<Vec<Span>>>,
    lane_capacity: usize,
}

impl Recorder {
    /// A recorder whose lanes each reserve room for `lane_capacity` spans on
    /// first use.
    pub fn new(lane_capacity: usize) -> Arc<Self> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            lanes: (0..LANES).map(|_| Mutex::new(Vec::new())).collect(),
            lane_capacity,
        })
    }

    /// Nanoseconds since the recorder was created.
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// `at` on the recorder's clock.
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a call that started at `start_ns` and has just returned.
    fn record(&self, kind: SpanKind, ok: bool, start_ns: u64, id: u64, block: Option<&Block>) {
        let thread = THREAD_ID.with(|id| *id);
        let span = Span {
            kind,
            thread,
            ok,
            start_ns,
            end_ns: self.now_ns(),
            id,
            txs: block.map_or(0, |b| b.len() as u32),
            stamp_ns: block.map_or(0, |b| b.header.timestamp.as_nanos() as u64),
        };
        let mut lane = self.lanes[thread as usize % LANES]
            .lock()
            .expect("span lane lock");
        if lane.capacity() == 0 {
            lane.reserve_exact(self.lane_capacity);
        }
        lane.push(span);
    }

    /// Every recorded span, ordered by start time.
    pub fn take_sorted(&self) -> Vec<Span> {
        let mut all: Vec<Span> = Vec::new();
        for lane in &self.lanes {
            all.append(&mut lane.lock().expect("span lane lock"));
        }
        all.sort_by_key(|s| s.start_ns);
        all
    }
}

/// A chain handle that records a span per driver-facing call and is
/// otherwise transparent.
pub struct TracedChain {
    inner: Arc<dyn SimChain>,
    recorder: Arc<Recorder>,
}

impl TracedChain {
    pub fn new(inner: Arc<dyn SimChain>, recorder: Arc<Recorder>) -> Arc<Self> {
        Arc::new(TracedChain { inner, recorder })
    }
}

impl BlockchainClient for TracedChain {
    fn chain_name(&self) -> &str {
        self.inner.chain_name()
    }

    fn architecture(&self) -> Architecture {
        self.inner.architecture()
    }

    fn submit(&self, tx: SignedTransaction) -> Result<TxId, ChainError> {
        let id = tx.id.fingerprint();
        let start_ns = self.recorder.now_ns();
        let result = self.inner.submit(tx);
        self.recorder
            .record(SpanKind::Submit, result.is_ok(), start_ns, id, None);
        result
    }

    fn latest_height(&self, shard: u32) -> Result<u64, ChainError> {
        let start_ns = self.recorder.now_ns();
        let result = self.inner.latest_height(shard);
        let height = *result.as_ref().unwrap_or(&0);
        self.recorder.record(
            SpanKind::LatestHeight,
            result.is_ok(),
            start_ns,
            height,
            None,
        );
        result
    }

    fn block_at(&self, shard: u32, height: u64) -> Result<Option<Block>, ChainError> {
        let start_ns = self.recorder.now_ns();
        let result = self.inner.block_at(shard, height);
        let block = result.as_ref().ok().and_then(Option::as_ref);
        self.recorder
            .record(SpanKind::BlockAt, result.is_ok(), start_ns, height, block);
        result
    }

    fn pending_txs(&self) -> Result<usize, ChainError> {
        self.inner.pending_txs()
    }

    fn subscribe_commits(&self) -> Receiver<CommitEvent> {
        self.inner.subscribe_commits()
    }

    fn shutdown(&self) {
        self.inner.shutdown()
    }
}

impl SimChain for TracedChain {
    fn seed_account(&self, account: Address, checking: u64, savings: u64) {
        self.inner.seed_account(account, checking, savings)
    }

    fn account(&self, account: Address) -> Option<AccountState> {
        self.inner.account(account)
    }

    fn ingress_nodes(&self) -> Vec<String> {
        self.inner.ingress_nodes()
    }

    fn sealer_nodes(&self) -> Vec<String> {
        self.inner.sealer_nodes()
    }

    fn verify_ledgers(&self) -> Result<(), LedgerError> {
        self.inner.verify_ledgers()
    }

    fn progress_mark(&self) -> u64 {
        self.inner.progress_mark()
    }
}

/// Writes the root span and its children as JSON lines.
pub fn write_trace(
    path: &Path,
    workload: &str,
    run_start_ns: u64,
    run_end_ns: u64,
    spans: &[Span],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "{{\"name\":\"run\",\"start_ns\":{run_start_ns},\"end_ns\":{run_end_ns},\
         \"parent\":null,\"id\":\"{workload}\"}}"
    )?;
    for s in spans {
        write!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":\"run\",\
             \"thread\":{},\"ok\":{},",
            s.kind.name(),
            s.start_ns,
            s.end_ns,
            s.thread,
            s.ok
        )?;
        match s.kind {
            SpanKind::Submit => writeln!(out, "\"id\":\"{:016x}\"}}", s.id)?,
            SpanKind::LatestHeight => writeln!(out, "\"id\":{}}}", s.id)?,
            SpanKind::BlockAt => writeln!(out, "\"id\":{},\"txs\":{}}}", s.id, s.txs)?,
        }
    }
    out.flush()
}

/// Offsets from the schedule's origin at which each of the first `n`
/// submissions was due: submission `k` (in submission order) belongs to the
/// slice whose cumulative budget first exceeds `k`, and is due when that
/// slice starts. Empty slices take their time and release nothing.
pub fn due_offsets_ns(budgets: &[u32], slice_ns: u64, n: usize) -> Vec<u64> {
    let mut due = Vec::with_capacity(n);
    for (slice, budget) in budgets.iter().enumerate() {
        let take = (*budget as usize).min(n - due.len());
        due.resize(due.len() + take, slice as u64 * slice_ns);
        if due.len() == n {
            break;
        }
    }
    due
}

/// Total time covered by at least one of the `(start, end)` intervals.
pub fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut open: Option<(u64, u64)> = None;
    for (start, end) in intervals {
        match open {
            Some((s, e)) if start <= e => open = Some((s, e.max(end))),
            Some((s, e)) => {
                covered += e - s;
                open = Some((start, end));
            }
            None => open = Some((start, end)),
        }
    }
    covered + open.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::null;
    use hammer_net::{LinkConfig, SimClock, SimNetwork};

    #[test]
    fn traced_chain_records_one_span_per_call_with_its_identifier() {
        let clock = SimClock::with_speedup(1.0);
        let net = SimNetwork::new(clock.clone(), LinkConfig::lan());
        let node = null::start(null::NULL_2MS, clock, net.clone());
        let recorder = Recorder::new(16);
        let chain = TracedChain::new(node.clone(), Arc::clone(&recorder));

        let txs: Vec<SignedTransaction> = (0..3).map(null::tests::signed).collect();
        let fingerprints: Vec<u64> = txs.iter().map(|tx| tx.id.fingerprint()).collect();
        for tx in txs {
            chain.submit(tx).unwrap();
        }
        while chain.latest_height(0).unwrap() == 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let block = chain.block_at(0, 1).unwrap().expect("sealed");
        assert!(chain.block_at(0, 99).unwrap().is_none());
        assert!(chain.latest_height(7).is_err(), "no such shard");

        let spans = recorder.take_sorted();
        let of = |kind| spans.iter().filter(move |s| s.kind == kind);
        let submits: Vec<&Span> = of(SpanKind::Submit).collect();
        assert_eq!(
            submits.iter().map(|s| s.id).collect::<Vec<_>>(),
            fingerprints
        );
        assert!(submits.iter().all(|s| s.ok && s.end_ns >= s.start_ns));
        let polls: Vec<&Span> = of(SpanKind::LatestHeight).collect();
        assert!(polls.len() >= 2);
        assert!(!polls.last().unwrap().ok, "the failed call is recorded too");
        assert_eq!(polls[polls.len() - 2].id, 1, "height returned");
        let fetches: Vec<&Span> = of(SpanKind::BlockAt).collect();
        assert_eq!(fetches.len(), 2);
        assert_eq!((fetches[0].id, fetches[0].txs as usize), (1, block.len()));
        assert_eq!(
            fetches[0].stamp_ns,
            block.header.timestamp.as_nanos() as u64
        );
        assert_eq!((fetches[1].id, fetches[1].txs), (99, 0));
        assert!(recorder.take_sorted().is_empty(), "taking drains the lanes");

        node.shutdown_and_join();
        net.shutdown_and_join();
    }

    #[test]
    fn due_offsets_follow_variable_budgets() {
        // Slices of 2, 0, 3 and 1 transactions, 100 ns each.
        let due = due_offsets_ns(&[2, 0, 3, 1], 100, 6);
        assert_eq!(due, vec![0, 0, 200, 200, 200, 300]);
    }

    #[test]
    fn due_offsets_with_leading_empty_slices_and_short_runs() {
        assert_eq!(due_offsets_ns(&[0, 0, 2], 10, 2), vec![20, 20]);
        // Fewer submissions than budget: only the submitted ones are due.
        assert_eq!(due_offsets_ns(&[3, 3], 10, 4), vec![0, 0, 0, 10]);
        // More submissions asked for than budgeted: the schedule runs out.
        assert_eq!(due_offsets_ns(&[1], 10, 3), vec![0]);
        assert!(due_offsets_ns(&[], 10, 0).is_empty());
    }

    #[test]
    fn union_merges_overlaps_and_keeps_gaps() {
        assert_eq!(union_ns(vec![]), 0);
        assert_eq!(union_ns(vec![(0, 10), (5, 20), (30, 40)]), 30);
        assert_eq!(union_ns(vec![(30, 40), (0, 10), (10, 12)]), 22);
        assert_eq!(union_ns(vec![(0, 100), (10, 20)]), 100);
    }
}
