//! Workload signing: serial, asynchronous, and pipelined (paper §III-D,
//! Fig. 4).
//!
//! Each blockchain workload item carries a client signature, and "the
//! signature of a transaction does not depend on any previous result", so
//! signing parallelises perfectly:
//!
//! * [`sign_serial`] — the Caliper-style baseline (Fig. 4a): one thread
//!   signs everything before execution begins.
//! * [`sign_async_obs`] — asynchronous signatures (Fig. 4b): a thread pool
//!   signs in parallel, but execution still waits for the whole batch.
//! * [`sign_pipelined`] — asynchronous signatures **plus** pipelined
//!   preparation/execution (Fig. 4c): signed transactions stream to the
//!   execution phase while signing is still running, so the two phases
//!   overlap. This combination is Fig. 8's "Asynchronous Pipeline" (~6.9×
//!   over serial on multi-core clients).
//!
//! The overlap is chunk-wise, not item-wise. Each signer claims the next
//! 128 unsigned transactions from one shared source, under one lock: the
//! workload generator itself, or a batch already in memory. It signs them
//! into the chunk it sends on a [`SignedStream`] (hand-off to submission), so
//! generating overlaps with signing without a thread of its own and at most
//! one chunk per signer is unsigned at a time. A channel operation costs a
//! lock hand-off and, when the peer is parked, a syscall, so it is paid once
//! per 128 transactions instead of once each. The chunk is also the
//! submission unit: a submit worker takes it whole
//! (`SignedStream::recv_chunk`) and hands the chain as much of it as has
//! come due — one token take, one clock reading, one tracker pass and one
//! `submit_batch` call each time. A chunk is generated, signed and submitted
//! as one unit.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{bounded, unbounded, Receiver, RecvError};
use hammer_chain::types::{SignedTransaction, Transaction};
use hammer_crypto::sig::SigParams;
use hammer_crypto::Keypair;
use hammer_net::{thread, SimClock};
use hammer_obs::{Histogram, Obs, Stage};

/// Per-transaction timing context for the signing pool: records each
/// signing duration (in simulated time) into the lifecycle `signed`
/// stage histogram, and may make each signature pay a modelled cost.
/// Cheap to clone into worker threads. A disabled context skips timestamp
/// capture entirely, so the plain entry points pay one predictable branch
/// per transaction.
#[derive(Clone)]
pub struct SignObs {
    hist: Histogram,
    clock: SimClock,
    /// Simulated client CPU per signature; zero but from [`SignObs::paying`].
    cost: Duration,
    /// Whether a signature reads the clock: it records a span or pays a cost.
    enabled: bool,
}

impl SignObs {
    /// Context recording into `obs`'s `signed` span on `clock`.
    pub fn new(obs: &Obs, clock: &SimClock) -> Self {
        SignObs {
            hist: obs.spans().histogram(Stage::Signed).clone(),
            clock: clock.clone(),
            cost: Duration::ZERO,
            enabled: obs.enabled(),
        }
    }

    /// Context that records nothing.
    pub fn disabled() -> Self {
        SignObs {
            hist: Histogram::disabled(),
            clock: SimClock::realtime(),
            cost: Duration::ZERO,
            enabled: false,
        }
    }

    /// Context that records nothing and makes every signature take `cost`
    /// of simulated time on `clock`, as on a client core busy signing (how
    /// Fig. 8 times the three paths on a host with fewer cores): each
    /// signature sleeps `cost` first. Exact on a virtual clock
    /// ([`SimClock::virtual_time`]), where real CPU and time blocked on a
    /// full [`SignedStream`] cost nothing and a sleep ends at its deadline.
    pub fn paying(clock: &SimClock, cost: Duration) -> Self {
        SignObs {
            hist: Histogram::disabled(),
            clock: clock.clone(),
            cost,
            enabled: true,
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
            if !self.cost.is_zero() {
                self.clock.sleep(self.cost);
            }
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
    // One scratch buffer for the signable encoding per signing thread, so
    // steady-state signing allocates nothing per transaction.
    let mut buf = Vec::new();
    txs.into_iter()
        .map(|tx| obs.sign_one(tx, keypair, params, &mut buf))
        .collect()
}

/// Signs the batch on `threads` worker threads and waits for all of them
/// (asynchronous signatures without pipelining), each recording its spans
/// into `obs`.
///
/// The output preserves the input order.
pub fn sign_async_obs(
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
                let mut buf = Vec::new();
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

/// Unsigned transactions per claim, and signed ones per message on a
/// [`SignedStream`].
const CHUNK: usize = 128;

/// Signed transactions a stream buffers before the signers wait (the
/// back-pressure bound when execution is the bottleneck).
const STREAM_BOUND: usize = 4096;

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
    // The signers claim their chunks from the batch itself.
    let signers = threads.max(1).min(txs.len().div_ceil(CHUNK));
    let mut rest = txs.into_iter();
    let claim = move |len| rest.by_ref().take(len).collect();
    sign_chunks(claim, signers, keypair, params, SignObs::disabled())
}

/// The one pipelined signing path: `signers` threads take turns at one lock
/// around `claim`, each drawing 128 transactions at a time (`claim(max)`
/// answers at most `max`, and nothing once the workload is exhausted), and
/// send each claim signed as one chunk. A signer leaves on an empty claim or
/// once every consumer is gone; the last one to leave drops the source, with
/// whatever it holds.
pub fn sign_chunks(
    claim: impl FnMut(usize) -> Vec<Transaction> + Send + 'static,
    signers: usize,
    keypair: Keypair,
    params: SigParams,
    obs: SignObs,
) -> SignedStream {
    let (out, chunks) = bounded::<Vec<SignedTransaction>>(STREAM_BOUND / CHUNK);
    let claim = Arc::new(parking_lot::Mutex::new(claim));
    for _ in 0..signers {
        let (claim, out, obs) = (Arc::clone(&claim), out.clone(), obs.clone());
        thread::spawn("hammer-signer", move || {
            let mut buf = Vec::new();
            loop {
                let unsigned = (*claim.lock())(CHUNK);
                if unsigned.is_empty() {
                    return;
                }
                let sign = |tx| obs.sign_one(tx, &keypair, &params, &mut buf);
                let signed: Vec<_> = unsigned.into_iter().map(sign).collect();
                if out.send(signed).is_err() {
                    return; // consumer gone
                }
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

    impl SignObs {
        /// Whether a signature reads the clock.
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
            let parallel = sign_async_obs(batch(101), &kp, &params, threads, &SignObs::disabled());
            assert_eq!(parallel, serial, "threads = {threads}");
        }
    }

    #[test]
    fn async_empty_batch() {
        let kp = Keypair::from_seed(1);
        assert!(
            sign_async_obs(vec![], &kp, &SigParams::fast(), 4, &SignObs::disabled()).is_empty()
        );
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
        // chunk, and many chunks.
        let kp = Keypair::from_seed(1);
        let params = SigParams::fast();
        for n in [0, 1, 127, 128, 129, 5_000] {
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
    fn an_unread_stream_stops_the_source_one_chunk_per_signer_past_its_bound() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // A workload without end and nobody consuming: the stream fills,
        // each signer signs one more chunk and waits to send it, and
        // nothing else is claimed. Each chunk taken lets one more be claimed.
        let signers = 2;
        let bound = STREAM_BOUND + signers * CHUNK;
        let handed = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&handed);
        let claim = move |len| {
            counter.fetch_add(len, Ordering::SeqCst);
            batch(len as u64)
        };
        let (kp, params) = (Keypair::from_seed(1), SigParams::fast());
        let stream = sign_chunks(claim, signers, kp, params, SignObs::disabled());
        for taken in 0..3 {
            let expected = bound + taken * CHUNK;
            while handed.load(Ordering::SeqCst) < expected {
                std::thread::yield_now();
            }
            // Time for a source drawn ahead of the stream to show itself.
            std::thread::sleep(Duration::from_millis(5));
            assert_eq!(handed.load(Ordering::SeqCst), expected, "after {taken}");
            assert_eq!(stream.recv_chunk().unwrap().len(), CHUNK);
        }
    }

    #[test]
    fn dropping_every_consumer_sends_the_signers_home() {
        // A workload without end: the signers can only leave because every
        // consumer is gone, and the last of them drops the source, `held`
        // with it.
        let alive = Arc::new(());
        let held = Arc::clone(&alive);
        let claim = move |len| {
            let _ = &held;
            batch(len as u64)
        };
        let (kp, params) = (Keypair::from_seed(1), SigParams::fast());
        let stream = sign_chunks(claim, 2, kp, params, SignObs::disabled());
        let second = stream.clone();
        assert!(stream.recv().is_ok() && second.recv().is_ok());
        drop((stream, second));
        while Arc::strong_count(&alive) > 1 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_paying_serial_signer_takes_its_cost_per_transaction() {
        let clock = SimClock::virtual_time();
        let cost = Duration::from_millis(2);
        let obs = SignObs::paying(&clock, cost);
        let (kp, params) = (Keypair::from_seed(1), SigParams::fast());
        assert_eq!(sign_serial_obs(batch(20), &kp, &params, &obs).len(), 20);
        assert_eq!(clock.now(), cost * 20);
    }

    #[test]
    fn a_signer_held_by_an_unread_stream_banks_none_of_the_wait() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // One transaction per claim: the stream holds `held - 1` of them and
        // the signer signs one more, then waits to send it for the rest of
        // the hundred costs.
        let clock = SimClock::virtual_time();
        let cost = Duration::from_millis(2);
        let held = STREAM_BOUND / CHUNK + 1;
        let handed = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&handed);
        let claim = move |_| {
            counter.fetch_add(1, Ordering::SeqCst);
            batch(1)
        };
        let (kp, params) = (Keypair::from_seed(1), SigParams::fast());
        let stream = sign_chunks(claim, 1, kp, params, SignObs::paying(&clock, cost));
        clock.sleep(cost * 100);
        assert_eq!(handed.load(Ordering::SeqCst), held, "claims while unread");
        // Once read, the stream's next 20 transactions are each signed and
        // paid for anew; a wait banked as paid signing would send them at once.
        let start = clock.now();
        for _ in 0..held + 20 {
            stream.recv().unwrap();
        }
        assert_eq!(clock.now() - start, cost * 20);
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
        let signed = sign_async_obs(batch(3), &kp, &params, 16, &SignObs::disabled());
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

        let mut rest = batch(25).into_iter();
        let claim = move |len| rest.by_ref().take(len).collect();
        let rx = sign_chunks(claim, 3, kp, params, sign_obs);
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
