//! The **Prepare** stage (Fig. 3, steps 1-3): validate, seed, start the
//! generator and the signer, and on a resumed run restore the checkpoint.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::Ordering;

use crossbeam::channel::{bounded, Receiver};
use hammer_chain::types::{Transaction, TxId, TxStatus};
use hammer_crypto::sig::SigParams;
use hammer_crypto::Keypair;
use hammer_obs::{Obs, Stage};
use hammer_workload::{SmallBankGenerator, WorkloadKind, YcsbGenerator};

use super::monitor::Progress;
use super::{invalid, EvalConfig, EvalError, Inputs, RunState, SigningStrategy};
use crate::checkpoint::DriverCheckpoint;
use crate::signer::{self, SignedStream};

impl Inputs<'_> {
    /// The checks that need the workload and the control sequence;
    /// [`EvalConfig::validate`] covers the rest.
    pub(super) fn validate(&self, config: &EvalConfig) -> Result<(), EvalError> {
        self.workload
            .validate()
            .map_err(|e| EvalError::InvalidConfig(e.to_string()))?;
        if self.control.is_empty() || self.control.total() == 0 {
            return invalid("control sequence has no budget");
        }
        // A transaction's retry budget may not outlive the slice that
        // paid for it: a deadline beyond the slice length would let
        // stragglers steal the next slice's budget.
        let slice = self.control.slice_duration();
        match config.retry.deadline {
            Some(deadline) if config.retry.enabled() && deadline > slice => invalid(&format!(
                "retry deadline ({deadline:?}) exceeds the control slice length ({slice:?})"
            )),
            _ => Ok(()),
        }
    }

    /// Crash recovery: adopts any prior checkpoint for this run id. A
    /// checkpoint taken under a different workload, control sequence or
    /// shard layout would resume into a different run — refuse it.
    fn load_checkpoint(&self, shards: usize) -> Result<Option<DriverCheckpoint>, EvalError> {
        let Some(cp) = self
            .recovery
            .and_then(|r| DriverCheckpoint::load(&r.store, &r.run_id))
        else {
            return Ok(None);
        };
        let (seed, total) = (self.workload.seed, self.control.total());
        if cp.workload_seed != seed || cp.total != total {
            return invalid(&format!(
                "checkpoint was taken under a different run (seed {} total {}, \
                 this run has seed {seed} total {total})",
                cp.workload_seed, cp.total,
            ));
        }
        if cp.last_seen.len() != shards {
            return invalid("checkpoint was taken against a chain with a different shard count");
        }
        Ok(Some(cp))
    }

    /// Seeds the SmallBank account fixtures on this thread, then starts the
    /// generator thread; returns the queue of unsigned segments it fills.
    fn generate(&self, threads: usize, obs: &Obs) -> Receiver<Vec<Transaction>> {
        let workload = self.workload;
        let total = self.control.total() as usize;
        let mut generation_config = workload.clone();
        generation_config.total_txs = total;
        let mut next_segment: Box<dyn FnMut(usize) -> Vec<Transaction> + Send> = match workload.kind
        {
            WorkloadKind::SmallBank => {
                let mut generator = SmallBankGenerator::new(generation_config);
                for account in generator.accounts() {
                    self.deployment.seed_account(
                        *account,
                        workload.initial_checking,
                        workload.initial_savings,
                    );
                }
                Box::new(move |len| generator.next_segment(len))
            }
            WorkloadKind::Ycsb => {
                let mut generator = YcsbGenerator::new(generation_config);
                Box::new(move |len| generator.next_segment(len))
            }
        };
        let (obs, clock) = (obs.clone(), self.deployment.clock().clone());
        signer::generate_segments(total, threads, move |len| {
            let start = clock.now();
            let unsigned = next_segment(len);
            if obs.enabled() && !unsigned.is_empty() {
                // A segment is generated as a batch; attribute its cost
                // evenly so the span count matches the transaction count.
                let per_tx = clock.now().saturating_sub(start) / unsigned.len() as u32;
                for _ in 0..unsigned.len() {
                    obs.spans().record(Stage::Generated, per_tx);
                }
            }
            unsigned
        })
    }
}

/// Starts the configured signing strategy on the generator's segments: the
/// pipelined one streams while execution runs, the batch strategies collect
/// the whole workload and finish before returning.
fn start_signer(
    config: &EvalConfig,
    segments: Receiver<Vec<Transaction>>,
    keypair: Keypair,
    sign_obs: signer::SignObs,
) -> SignedStream {
    // The SUT verifies with these parameters, so they are not a knob.
    let params = SigParams::fast();
    let threads = config.signer_threads;
    let batch = || segments.iter().flatten().collect();
    let signed = match config.signing {
        SigningStrategy::Pipelined => {
            let next_segment = move || segments.recv().ok();
            return signer::sign_segments(next_segment, threads, keypair, params, sign_obs);
        }
        SigningStrategy::Serial => signer::sign_serial_obs(batch(), &keypair, &params, &sign_obs),
        SigningStrategy::Async => {
            signer::sign_async_obs(batch(), &keypair, &params, threads, &sign_obs)
        }
    };
    SignedStream::from_batch(signed)
}

/// Resume: replays the checkpointed records into the fresh tracker and
/// restores the counters; returns the ids the checkpoint owns. Terminal
/// records are settled as they were; pending ones stay pending — workers
/// are never interrupted mid-transaction, so every checkpointed record was
/// already handed to the chain, and the monitor's rescan (from the
/// checkpointed heights) re-observes their commits. `submitted` is derived
/// from the record count rather than checkpointed separately: the two are
/// updated by workers without a common lock, so only the records are
/// authoritative.
pub(super) fn restore(state: &RunState, cp: &DriverCheckpoint) -> HashSet<TxId> {
    let tracker = &*state.tracker;
    let rejected: HashSet<TxId> = cp.rejected_ids.iter().copied().collect();
    for record in &cp.records {
        let id = &record.tx_id;
        tracker.insert(*id, record.client_id, record.server_id, record.start);
        let end = record.end.unwrap_or(record.start);
        match record.status {
            TxStatus::Pending if rejected.contains(id) => {
                // The rejection landed in the id set but its record
                // completion was lost to the crash.
                let _ = tracker.complete(id, record.start, false);
            }
            TxStatus::Pending => {}
            TxStatus::Committed => {
                let _ = tracker.complete(id, end, true);
            }
            TxStatus::Failed => {
                let _ = tracker.complete(id, end, false);
            }
            status @ (TxStatus::TimedOut | TxStatus::Dropped | TxStatus::Expired) => {
                let _ = tracker.abandon(id, end, status);
            }
        }
    }
    tracker.restore_rejected(&cp.rejected_ids);
    let submitted = cp.records.len() as u64;
    state.submitted.store(submitted, Ordering::Relaxed);
    state
        .rejected
        .store(cp.rejected_ids.len() as u64, Ordering::Relaxed);
    state.retried.store(cp.retried, Ordering::Relaxed);
    cp.records.iter().map(|r| r.tx_id).collect()
}

/// Transactions the checkpoint already owns are filtered out of the
/// signed stream so the resumed workers only process the rest.
fn without(upstream: SignedStream, known: HashSet<TxId>) -> SignedStream {
    // At most as many chunks as the upstream buffers; a filtered chunk is
    // no larger than it arrived.
    let (filtered_tx, filtered) = bounded(signer::STREAM_BOUND / signer::CHUNK);
    std::thread::Builder::new()
        .name("hammer-resume-filter".to_owned())
        .spawn(move || {
            for mut chunk in upstream.into_chunks() {
                chunk.retain(|tx| !known.contains(&tx.id));
                if !chunk.is_empty() && filtered_tx.send(chunk).is_err() {
                    return;
                }
            }
        })
        .expect("spawn resume filter");
    SignedStream::from_chunks(filtered)
}

/// Runs the stage; returns the signed-transaction stream (minus anything a
/// checkpoint owns) and where the monitor starts. The checkpoint guard
/// comes first so a refused resume costs nothing; signing is already under
/// way while a checkpoint is replayed into `state`. A fresh run starts at
/// the chain's heights now, before any of its transactions is submitted:
/// none of them can sit in an earlier block.
pub(super) fn prepare(
    config: &EvalConfig,
    inputs: &Inputs<'_>,
    state: &RunState,
    obs: &Obs,
) -> Result<(SignedStream, Progress), EvalError> {
    let chain = inputs.deployment.client();
    let shards = chain.architecture().shard_count();
    let checkpoint = inputs.load_checkpoint(shards as usize)?;
    let last_seen = match &checkpoint {
        Some(cp) => cp.last_seen.clone(),
        None => (0..shards)
            .map(|shard| chain.latest_height(shard))
            .collect::<Result<_, _>>()
            .map_err(EvalError::Chain)?,
    };
    let segments = inputs.generate(config.signer_threads, obs);
    let keypair = Keypair::from_seed(inputs.workload.seed);
    let sign_obs = signer::SignObs::new(obs, inputs.deployment.clock());
    let signed = start_signer(config, segments, keypair, sign_obs);
    let Some(cp) = checkpoint else {
        let fresh = Progress {
            last_seen,
            shard_commits: BTreeMap::new(),
        };
        return Ok((signed, fresh));
    };
    let signed = without(signed, restore(state, &cp));
    let shard_commits = cp.shard_commits.iter().map(|(s, n)| (*s, *n as usize));
    let resumed = Progress {
        last_seen,
        shard_commits: shard_commits.collect(),
    };
    Ok((signed, resumed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn state() -> RunState {
        let config = EvalConfig::builder().tracker_shards(4).build().unwrap();
        RunState::new(&config, 16)
    }

    fn sorted_snapshot(state: &RunState) -> (Vec<crate::index::TxRecord>, Vec<TxId>) {
        let (mut records, mut rejected) = state.tracker.snapshot();
        records.sort_by_key(|r| r.tx_id);
        rejected.sort();
        (records, rejected)
    }

    #[test]
    fn restore_reproduces_the_snapshot() {
        // A tracker mid-run: every status a snapshot can hold (timeouts are
        // only declared at report time), three still pending.
        let live = state();
        let ms = Duration::from_millis;
        let id = |i: u8| TxId([i; 32]);
        for i in 0..8u8 {
            live.tracker
                .insert(id(i), u32::from(i), 0, ms(u64::from(i)));
        }
        live.tracker.complete(&id(0), ms(50), true);
        live.tracker.complete(&id(1), ms(51), false);
        live.tracker.abandon(&id(2), ms(52), TxStatus::Dropped);
        live.tracker.abandon(&id(3), ms(53), TxStatus::Expired);
        live.tracker.reject(&id(5), ms(5));
        let (records, rejected_ids) = sorted_snapshot(&live);
        let cp = DriverCheckpoint {
            workload_seed: 1,
            total: 16,
            retried: 5,
            last_seen: vec![3],
            shard_commits: vec![(0, 1)],
            rejected_ids,
            records,
        };

        let resumed = state();
        let known = restore(&resumed, &cp);
        assert_eq!(known, (0..8).map(id).collect::<HashSet<_>>());
        assert_eq!(
            sorted_snapshot(&resumed),
            (cp.records.clone(), cp.rejected_ids.clone())
        );
        assert_eq!(resumed.tracker.pending(), 3);
        assert_eq!(resumed.submitted.load(Ordering::Relaxed), 8);
        assert_eq!(resumed.rejected.load(Ordering::Relaxed), 1);
        assert_eq!(resumed.retried.load(Ordering::Relaxed), 5);

        // A crash between the two halves of a rejection: the id reached
        // the rejected set, the record's completion did not. The resumed
        // tracker settles it as the rejection it was.
        let mut torn = cp.clone();
        let lost = torn.records.iter_mut().find(|r| r.tx_id == id(5)).unwrap();
        (lost.status, lost.end) = (TxStatus::Pending, None);
        let resumed = state();
        restore(&resumed, &torn);
        assert_eq!(sorted_snapshot(&resumed), (cp.records, cp.rejected_ids));
    }
}
