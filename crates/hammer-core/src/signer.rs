//! Workload signing: serial, asynchronous, and pipelined (paper §III-D,
//! Fig. 4).
//!
//! Each blockchain workload item carries a client signature, and "the
//! signature of a transaction does not depend on any previous result", so
//! signing parallelises perfectly:
//!
//! * [`sign_serial`] — the Caliper-style baseline (Fig. 4a): one thread
//!   signs everything before execution begins.
//! * [`sign_async`] — asynchronous signatures (Fig. 4b): a thread pool
//!   signs in parallel, but execution still waits for the whole batch.
//! * [`sign_pipelined`] — asynchronous signatures **plus** pipelined
//!   preparation/execution (Fig. 4c): signed transactions stream to the
//!   execution phase while signing is still running, so the two phases
//!   overlap. This combination is Fig. 8's "Asynchronous Pipeline" (~6.9×
//!   over serial on multi-core clients).
//!
//! The overlap is chunk-wise, not item-wise. Signers claim the unsigned
//! workload in segments of 32 Ki transactions, from one shared source: the
//! driver's generator thread keeps a bounded queue filled while they drain
//! it, so generating overlaps with signing, and a batch already in memory
//! is cut as they claim it, with no thread of its own. They sign,
//! and send 128 signed transactions per message on a [`SignedStream`]
//! (hand-off to submission): a channel operation costs a lock hand-off and,
//! when the peer is parked, a syscall, so it is paid once per 128
//! transactions instead of once each. The chunk is also the submission
//! unit: a submit worker takes it whole (`SignedStream::recv_chunk`) and
//! hands the chain as much of it as has come due — one token take, one
//! clock reading, one tracker pass and one `submit_batch` call each time.

use std::cell::RefCell;
use std::sync::Arc;

use crossbeam::channel::{bounded, unbounded, Receiver, RecvError};
use hammer_chain::types::{SignedTransaction, Transaction};
use hammer_crypto::sig::SigParams;
use hammer_crypto::Keypair;
use hammer_net::{thread, SimClock};
use hammer_obs::{Histogram, Obs, Stage};

/// Per-transaction timing context for the signing pool: records each
/// signing duration (in simulated time) into the lifecycle `signed`
/// stage histogram. Cheap to clone into worker threads. A disabled
/// context skips timestamp capture entirely, so the plain entry points
/// pay one predictable branch per transaction.
#[derive(Clone)]
pub struct SignObs {
    hist: Histogram,
    clock: SimClock,
    enabled: bool,
}

impl SignObs {
    /// Context recording into `obs`'s `signed` span on `clock`.
    pub fn new(obs: &Obs, clock: &SimClock) -> Self {
        SignObs {
            hist: obs.spans().histogram(Stage::Signed).clone(),
            clock: clock.clone(),
            enabled: obs.enabled(),
        }
    }

    /// Context that records nothing.
    pub fn disabled() -> Self {
        SignObs {
            hist: Histogram::disabled(),
            clock: SimClock::realtime(),
            enabled: false,
        }
    }

    #[inline]
    fn sign_one(
        &self,
        tx: Transaction,
        keypair: &Keypair,
        params: &SigParams,
        buf: &mut Vec<u8>,
    ) -> SignedTransaction {
        if self.enabled {
            let start = self.clock.now();
            let signed = tx.sign_with_buf(keypair, params, buf);
            self.hist
                .record_duration(self.clock.now().saturating_sub(start));
            signed
        } else {
            tx.sign_with_buf(keypair, params, buf)
        }
    }
}

/// Signs the batch on the calling thread (the serial baseline).
///
/// One scratch buffer serves the whole batch, so steady-state signing does
/// no per-transaction allocations for the signable encoding.
pub fn sign_serial(
    txs: Vec<Transaction>,
    keypair: &Keypair,
    params: &SigParams,
) -> Vec<SignedTransaction> {
    sign_serial_obs(txs, keypair, params, &SignObs::disabled())
}

/// [`sign_serial`] with per-transaction span recording.
pub fn sign_serial_obs(
    txs: Vec<Transaction>,
    keypair: &Keypair,
    params: &SigParams,
    obs: &SignObs,
) -> Vec<SignedTransaction> {
    let mut buf = Vec::with_capacity(64);
    txs.into_iter()
        .map(|tx| obs.sign_one(tx, keypair, params, &mut buf))
        .collect()
}

/// Signs the batch on `threads` worker threads and waits for all of them
/// (asynchronous signatures without pipelining).
///
/// The output preserves the input order.
pub fn sign_async(
    txs: Vec<Transaction>,
    keypair: &Keypair,
    params: &SigParams,
    threads: usize,
) -> Vec<SignedTransaction> {
    sign_async_obs(txs, keypair, params, threads, &SignObs::disabled())
}

/// [`sign_async`] with per-transaction span recording on every worker.
pub(crate) fn sign_async_obs(
    txs: Vec<Transaction>,
    keypair: &Keypair,
    params: &SigParams,
    threads: usize,
    obs: &SignObs,
) -> Vec<SignedTransaction> {
    let share = txs.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = cut(txs, share)
            .map(|batch| {
                let (kp, p, obs) = (*keypair, *params, obs.clone());
                let mut buf = Vec::with_capacity(64);
                let sign = move || -> Vec<_> {
                    let sign_one = |tx| obs.sign_one(tx, &kp, &p, &mut buf);
                    batch.into_iter().map(sign_one).collect()
                };
                thread::spawn_scoped(scope, "hammer-signer", sign).expect("spawn signer")
            })
            .collect();
        // Joined in the order the batch was cut: the output keeps the input's.
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("signer thread panicked"))
            .collect()
    })
}

/// Signed transactions per message on a [`SignedStream`].
const CHUNK: usize = 128;

/// Signed transactions a stream buffers before the signers wait (the
/// back-pressure bound when execution is the bottleneck).
const STREAM_BOUND: usize = 4096;

/// Unsigned transactions a signer claims at a time. Coarse, so the queue is
/// touched a few dozen times per million transactions; still far smaller
/// than the workload, so a segment's memory is freed as soon as it is
/// signed and a descheduled signer leaves at most one segment — not half
/// the run — to a single thread. (Chunk-sized segments were tried: the
/// allocator fragments, +0.3 µs of CPU per transaction.)
const SEGMENT: usize = 32 * 1024;

/// Unsigned segments the generator may queue per signer before it waits: a
/// bound on memory, not a buffer to tune. Generating costs a fifth of
/// signing, so the queue is full all run whatever its length; these, one in
/// each signer's hands and one in the generator's are all that is unsigned.
const SEGMENTS_AHEAD: usize = 2;

/// Segments of at most [`SEGMENT`], equal in size and a whole number per
/// thread: when every signer gets its share of the cores they finish
/// together (a small batch is simply split evenly).
fn segment_len(n: usize, threads: usize) -> usize {
    let count = n.div_ceil(SEGMENT).next_multiple_of(threads);
    n.div_ceil(count.max(1)).max(1)
}

/// Cuts `items` into consecutive vectors of `size` (the last may be
/// shorter). The source allocation is freed when the last piece is cut.
fn cut<T>(items: Vec<T>, size: usize) -> impl Iterator<Item = Vec<T>> {
    let mut rest = items.into_iter();
    std::iter::from_fn(move || {
        let piece: Vec<T> = rest.by_ref().take(size).collect();
        (!piece.is_empty()).then_some(piece)
    })
}

/// The consuming end of a signing run: signed transactions, delivered each
/// to exactly one consumer. Clones share the stream (multi-consumer); the
/// signers stop once every clone is dropped.
///
/// Transactions travel in chunks; a consumer holds the chunk it is working
/// through, so that chunk's transactions are its alone. Not `Sync` — give
/// each consuming thread its own clone.
pub struct SignedStream {
    chunks: Receiver<Vec<SignedTransaction>>,
    current: RefCell<std::vec::IntoIter<SignedTransaction>>,
}

impl SignedStream {
    fn from_chunks(chunks: Receiver<Vec<SignedTransaction>>) -> Self {
        SignedStream {
            chunks,
            current: RefCell::default(),
        }
    }

    /// A finished batch as a stream, cut into chunks so that cloned
    /// consumers share it.
    pub(crate) fn from_batch(signed: Vec<SignedTransaction>) -> Self {
        let (tx, rx) = unbounded();
        for chunk in cut(signed, CHUNK) {
            tx.send(chunk).expect("the receiver is held here");
        }
        Self::from_chunks(rx)
    }

    /// The next signed transaction, blocking until one is ready; an error
    /// once the workload is exhausted.
    pub fn recv(&self) -> Result<SignedTransaction, RecvError> {
        let mut current = self.current.borrow_mut();
        loop {
            if let Some(tx) = current.next() {
                return Ok(tx);
            }
            *current = self.chunks.recv()?.into_iter();
        }
    }

    /// The rest of the chunk this consumer holds, or else the next chunk,
    /// blocking until one is ready; an error once the workload is
    /// exhausted. Never empty.
    pub(crate) fn recv_chunk(&self) -> Result<Vec<SignedTransaction>, RecvError> {
        let rest: Vec<_> = std::mem::take(&mut *self.current.borrow_mut()).collect();
        if rest.is_empty() {
            self.chunks.recv()
        } else {
            Ok(rest)
        }
    }

    /// A blocking iterator that yields until the workload is exhausted.
    pub fn iter(&self) -> impl Iterator<Item = SignedTransaction> + '_ {
        std::iter::from_fn(|| self.recv().ok())
    }
}

impl Clone for SignedStream {
    fn clone(&self) -> Self {
        Self::from_chunks(self.chunks.clone())
    }
}

/// Owning blocking iterator over a [`SignedStream`].
pub struct IntoIter(SignedStream);

impl Iterator for IntoIter {
    type Item = SignedTransaction;
    fn next(&mut self) -> Option<SignedTransaction> {
        self.0.recv().ok()
    }
}

impl IntoIterator for SignedStream {
    type Item = SignedTransaction;
    type IntoIter = IntoIter;
    fn into_iter(self) -> IntoIter {
        IntoIter(self)
    }
}

/// Signs on `threads` workers and streams the results so the consumer (the
/// execution phase) starts immediately — asynchronous signatures +
/// pipelining.
///
/// Output order is *not* guaranteed across workers (transactions are
/// independent; the driver tracks them by id). The stream is bounded to
/// apply back-pressure when execution is the bottleneck.
pub fn sign_pipelined(
    txs: Vec<Transaction>,
    keypair: Keypair,
    params: SigParams,
    threads: usize,
) -> SignedStream {
    // The signers claim their segments from the batch itself.
    let (n, threads) = (txs.len(), threads.max(1));
    let len = segment_len(n, threads);
    let rest = parking_lot::Mutex::new(txs.into_iter());
    let next_segment = move || {
        let segment: Vec<Transaction> = rest.lock().by_ref().take(len).collect();
        (!segment.is_empty()).then_some(segment)
    };
    let signers = threads.min(n.div_ceil(len));
    sign_segments(next_segment, signers, keypair, params, SignObs::disabled())
}

/// Starts the generator thread of a run of `n` transactions and `threads`
/// signers: it queues what `next_segment(len)` returns, [`SEGMENTS_AHEAD`]
/// per signer at most, until that is empty or every receiver is gone.
pub(crate) fn generate_segments(
    n: usize,
    threads: usize,
    mut next_segment: impl FnMut(usize) -> Vec<Transaction> + Send + 'static,
) -> Receiver<Vec<Transaction>> {
    let threads = threads.max(1);
    let len = segment_len(n, threads);
    let (queue, segments) = bounded(SEGMENTS_AHEAD * threads);
    thread::spawn("hammer-generator", move || loop {
        let unsigned = next_segment(len);
        if unsigned.is_empty() || queue.send(unsigned).is_err() {
            return;
        }
    })
    .expect("spawn generator");
    segments
}

/// The one pipelined signing path: `signers` threads claim segments from
/// `next_segment` until it answers `None`, and stream what they sign. The
/// source is dropped, with whatever it holds, when the last signer leaves.
pub(crate) fn sign_segments(
    next_segment: impl Fn() -> Option<Vec<Transaction>> + Send + Sync + 'static,
    signers: usize,
    keypair: Keypair,
    params: SigParams,
    obs: SignObs,
) -> SignedStream {
    let (out, chunks) = bounded::<Vec<SignedTransaction>>(STREAM_BOUND / CHUNK);
    let next_segment = Arc::new(next_segment);
    for _ in 0..signers {
        let next_segment = Arc::clone(&next_segment);
        let out = out.clone();
        let obs = obs.clone();
        thread::spawn("hammer-signer", move || {
            let mut buf = Vec::with_capacity(64);
            let mut chunk = Vec::with_capacity(CHUNK);
            for tx in std::iter::from_fn(|| next_segment()).flatten() {
                chunk.push(obs.sign_one(tx, &keypair, &params, &mut buf));
                if chunk.len() == CHUNK {
                    let full = std::mem::replace(&mut chunk, Vec::with_capacity(CHUNK));
                    if out.send(full).is_err() {
                        return; // consumer gone
                    }
                }
            }
            if !chunk.is_empty() {
                let _ = out.send(chunk);
            }
        })
        .expect("spawn signer");
    }
    SignedStream::from_chunks(chunks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hammer_chain::smallbank::Op;
    use std::collections::HashSet;
    use std::time::Duration;

    impl SignObs {
        /// Whether signing durations are recorded.
        fn is_enabled(&self) -> bool {
            self.enabled
        }
    }

    fn batch(n: u64) -> Vec<Transaction> {
        (0..n)
            .map(|i| Transaction {
                client_id: (i % 4) as u32,
                server_id: 0,
                nonce: i,
                op: Op::KvPut { key: i, value: i },
                chain_name: "c".to_owned(),
                contract_name: "k".to_owned(),
            })
            .collect()
    }

    #[test]
    fn serial_signs_all_valid() {
        let kp = Keypair::from_seed(1);
        let params = SigParams::fast();
        let signed = sign_serial(batch(50), &kp, &params);
        assert_eq!(signed.len(), 50);
        assert!(signed.iter().all(|s| s.verify(&params)));
    }

    #[test]
    fn async_matches_serial_output() {
        let kp = Keypair::from_seed(1);
        let params = SigParams::fast();
        let serial = sign_serial(batch(101), &kp, &params);
        for threads in [1, 2, 4, 7] {
            let parallel = sign_async(batch(101), &kp, &params, threads);
            assert_eq!(parallel, serial, "threads = {threads}");
        }
    }

    #[test]
    fn async_empty_batch() {
        let kp = Keypair::from_seed(1);
        assert!(sign_async(vec![], &kp, &SigParams::fast(), 4).is_empty());
    }

    #[test]
    fn pipelined_delivers_every_tx() {
        let kp = Keypair::from_seed(1);
        let params = SigParams::fast();
        let expected: HashSet<_> = batch(200).iter().map(|t| t.id()).collect();
        let rx = sign_pipelined(batch(200), kp, params, 4);
        let mut seen = HashSet::new();
        for signed in rx {
            assert!(signed.verify(&params));
            seen.insert(signed.id);
        }
        assert_eq!(seen, expected);
    }

    #[test]
    fn every_tx_reaches_exactly_one_of_four_consumers() {
        // Empty, a lone transaction, one short of / exactly / one past a
        // chunk, many chunks, and more than one segment per signer.
        let kp = Keypair::from_seed(1);
        let params = SigParams::fast();
        for n in [0, 1, 127, 128, 129, 5_000, 2 * SEGMENT as u64 + 129] {
            let stream = sign_pipelined(batch(n), kp, params, 2);
            let consumers: Vec<_> = (0..4)
                .map(|_| {
                    let stream = stream.clone();
                    let consume = move || stream.iter().map(|s| s.tx.nonce).collect();
                    thread::spawn("signer-test-consumer", consume).unwrap()
                })
                .collect();
            drop(stream);
            let mut nonces: Vec<u64> = consumers
                .into_iter()
                .flat_map(|c| -> Vec<u64> { c.join().unwrap() })
                .collect();
            nonces.sort_unstable();
            assert_eq!(nonces, (0..n).collect::<Vec<_>>(), "n = {n}");
        }
    }

    #[test]
    fn a_finished_batch_is_shared_between_consumers() {
        let kp = Keypair::from_seed(1);
        let signed = sign_serial(batch(3 * CHUNK as u64 + 1), &kp, &SigParams::fast());
        let first = SignedStream::from_batch(signed.clone());
        let second = first.clone();
        // Each consumer holds a chunk of its own; neither starves the other.
        assert_eq!(first.recv().unwrap(), signed[0]);
        assert_eq!(second.recv().unwrap(), signed[CHUNK]);
        assert_eq!(first.iter().chain(second.iter()).count(), signed.len() - 2);
        assert!(SignedStream::from_batch(Vec::new()).recv().is_err());
    }

    #[test]
    fn pipelined_streams_before_completion() {
        // With a slow consumer and bounded channel, the first results must
        // arrive long before all signing could have finished.
        let kp = Keypair::from_seed(1);
        let params = SigParams::with_cost(50);
        let rx = sign_pipelined(batch(500), kp, params, 2);
        let first = rx.recv_chunk().expect("a streamed chunk");
        assert_eq!(first.len(), CHUNK, "one chunk, not the batch");
        drop(rx); // consumer leaves; workers must exit quietly
    }

    #[test]
    fn the_generator_waits_at_the_queue_bound() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        // Fifty one-transaction segments, nobody consuming: the generator
        // queues `bound` of them and parks holding one more.
        let (threads, total) = (2, 50);
        let bound = SEGMENTS_AHEAD * threads;
        let produced = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&produced);
        let segments = generate_segments(total, threads, move |_len| {
            if counter.fetch_add(1, Ordering::SeqCst) < total {
                batch(1)
            } else {
                Vec::new()
            }
        });
        let ahead_of = |consumed: usize| {
            while produced.load(Ordering::SeqCst) < consumed + bound + 1 {
                std::thread::yield_now();
            }
            // Time for a generator that ignored the bound to show itself.
            std::thread::sleep(Duration::from_millis(5));
            produced.load(Ordering::SeqCst) - consumed
        };
        for consumed in 0..10 {
            assert_eq!(ahead_of(consumed), bound + 1, "after {consumed}");
            assert_eq!(segments.recv().unwrap().len(), 1);
        }
        assert_eq!(segments.iter().count(), total - 10);
    }

    #[test]
    fn dropping_every_consumer_sends_generator_and_signers_home() {
        use std::sync::Arc;
        // A workload without end: the generator can only leave because
        // every signer has dropped its end of the segment queue, and it
        // drops `held` on its way out.
        let alive = Arc::new(());
        let held = Arc::clone(&alive);
        let segments = generate_segments(usize::MAX, 2, move |len| {
            let _ = &held;
            batch(len.min(3 * CHUNK) as u64)
        });
        let params = SigParams::fast();
        let kp = Keypair::from_seed(1);
        let stream = sign_segments(
            move || segments.recv().ok(),
            2,
            kp,
            params,
            SignObs::disabled(),
        );
        let second = stream.clone();
        assert!(stream.recv().is_ok() && second.recv().is_ok());
        drop((stream, second));
        while Arc::strong_count(&alive) > 1 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn pipelined_empty_batch_closes_channel() {
        let kp = Keypair::from_seed(1);
        let rx = sign_pipelined(vec![], kp, SigParams::fast(), 4);
        assert!(rx.recv().is_err());
    }

    #[test]
    fn more_threads_than_txs() {
        let kp = Keypair::from_seed(1);
        let params = SigParams::fast();
        let signed = sign_async(batch(3), &kp, &params, 16);
        assert_eq!(signed.len(), 3);
    }

    #[test]
    fn obs_variants_record_one_span_per_tx() {
        let kp = Keypair::from_seed(1);
        let params = SigParams::fast();
        let obs = Obs::new();
        let clock = SimClock::realtime();
        let sign_obs = SignObs::new(&obs, &clock);
        assert!(sign_obs.is_enabled());

        let serial = sign_serial_obs(batch(20), &kp, &params, &sign_obs);
        assert_eq!(serial.len(), 20);
        assert_eq!(obs.spans().histogram(Stage::Signed).count(), 20);

        let parallel = sign_async_obs(batch(30), &kp, &params, 4, &sign_obs);
        assert_eq!(parallel.len(), 30);
        assert_eq!(obs.spans().histogram(Stage::Signed).count(), 50);

        let segment = parking_lot::Mutex::new(Some(batch(25)));
        let rx = sign_segments(move || segment.lock().take(), 3, kp, params, sign_obs);
        assert_eq!(rx.iter().count(), 25);
        assert_eq!(obs.spans().histogram(Stage::Signed).count(), 75);
    }

    #[test]
    fn disabled_obs_records_nothing() {
        let kp = Keypair::from_seed(1);
        let params = SigParams::fast();
        let sign_obs = SignObs::disabled();
        assert!(!sign_obs.is_enabled());
        let signed = sign_serial_obs(batch(5), &kp, &params, &sign_obs);
        assert_eq!(signed.len(), 5);
    }
}
