//! The **Prepare** stage (Fig. 3, steps 1-3): validate, seed, hand the
//! workload generator to the signers, and on a resumed run restore the
//! checkpoint.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::Ordering;

use hammer_chain::types::{Transaction, TxId, TxStatus};
use hammer_crypto::sig::SigParams;
use hammer_crypto::Keypair;
use hammer_net::SimClock;
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

    /// Crash recovery: adopts any prior checkpoint in the run directory. A
    /// checkpoint taken under a different workload, control sequence or
    /// shard layout would resume into a different run — refuse it.
    fn load_checkpoint(&self, shards: usize) -> Result<Option<DriverCheckpoint>, EvalError> {
        let loaded = self.recovery.map(|r| DriverCheckpoint::load(&r.dir));
        let Some(cp) = loaded.transpose()?.flatten() else {
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

    /// Seeds the SmallBank account fixtures on this thread and returns the
    /// workload's claim function ([`claims`]); nothing is generated until a
    /// signer claims it.
    fn generate(
        &self,
        obs: &Obs,
        owned: HashSet<TxId>,
    ) -> impl FnMut(usize) -> Vec<Transaction> + Send + 'static {
        let workload = self.workload;
        let mut generation_config = workload.clone();
        generation_config.total_txs = self.control.total() as usize;
        let next: Box<dyn FnMut(usize) -> Vec<Transaction> + Send> = match workload.kind {
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
        claims(next, owned, obs.clone(), self.deployment.clock().clone())
    }
}

/// The generator's `next(max)` as the signers claim it: each claim records
/// its `generated` spans and drops the ids in `owned` (the ones a
/// checkpoint settled) before they reach a signer — an id hashes the
/// signable bytes, not the signature. An empty claim ends the workload, so
/// one the filter empties is followed by the next until a claim survives or
/// the generator is dry.
fn claims(
    mut next: impl FnMut(usize) -> Vec<Transaction> + Send,
    owned: HashSet<TxId>,
    obs: Obs,
    clock: SimClock,
) -> impl FnMut(usize) -> Vec<Transaction> + Send {
    move |len| loop {
        let start = clock.now();
        let mut unsigned = next(len);
        let dry = unsigned.is_empty();
        if obs.enabled() && !dry {
            // A claim is generated as a batch; attribute its cost evenly so
            // the span count matches the transaction count.
            let per_tx = clock.now().saturating_sub(start) / unsigned.len() as u32;
            for _ in 0..unsigned.len() {
                obs.spans().record(Stage::Generated, per_tx);
            }
        }
        if !owned.is_empty() {
            unsigned.retain(|tx| !owned.contains(&tx.id()));
        }
        if dry || !unsigned.is_empty() {
            return unsigned;
        }
    }
}

/// Starts the configured signing strategy on the workload's claims: the
/// pipelined one streams while execution runs, the batch strategies claim
/// the whole workload at once and finish before returning.
fn start_signer(
    config: &EvalConfig,
    mut claim: impl FnMut(usize) -> Vec<Transaction> + Send + 'static,
    keypair: Keypair,
    sign_obs: signer::SignObs,
) -> SignedStream {
    // The SUT verifies with these parameters, so they are not a knob.
    let params = SigParams::fast();
    let threads = config.signer_threads;
    let signed = match config.signing {
        SigningStrategy::Pipelined => {
            return signer::sign_chunks(claim, threads, keypair, params, sign_obs);
        }
        SigningStrategy::Serial => {
            signer::sign_serial_obs(claim(usize::MAX), &keypair, &params, &sign_obs)
        }
        SigningStrategy::Async => {
            signer::sign_async_obs(claim(usize::MAX), &keypair, &params, threads, &sign_obs)
        }
    };
    SignedStream::from_batch(signed)
}

/// The ids a checkpoint has settled: every terminal record, and a pending
/// one whose rejection reached the id set. The other pending ones are
/// offered again: a process can die between a worker's insert and its send.
fn settled(cp: &DriverCheckpoint) -> HashSet<TxId> {
    let rejected: HashSet<TxId> = cp.rejected_ids.iter().copied().collect();
    let settled = cp
        .records
        .iter()
        .filter(|r| r.status != TxStatus::Pending || rejected.contains(&r.tx_id));
    settled.map(|r| r.tx_id).collect()
}

/// Resume: replays the settled records into the fresh tracker and restores
/// the counters. `submitted` is the settled record count rather than a
/// checkpointed counter: the two are updated by workers without a common
/// lock, so only the records are authoritative.
pub(super) fn restore(state: &RunState, cp: &DriverCheckpoint) {
    let tracker = &*state.tracker;
    let settled = settled(cp);
    let records = cp.records.iter().filter(|r| settled.contains(&r.tx_id));
    for record in records.clone() {
        let id = &record.tx_id;
        tracker.insert(*id, record.client_id, record.server_id, record.start);
        let end = record.end.unwrap_or(record.start);
        match record.status {
            TxStatus::Pending => {
                // The rejection landed in the id set but its record
                // completion was lost to the crash.
                let _ = tracker.complete(id, record.start, false);
            }
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
    state
        .submitted
        .store(records.count() as u64, Ordering::Relaxed);
    state
        .rejected
        .store(cp.rejected_ids.len() as u64, Ordering::Relaxed);
    state.retried.store(cp.retried, Ordering::Relaxed);
}

/// Runs the stage; returns the signed-transaction stream (minus anything a
/// checkpoint has settled: it is never signed) and where the monitor
/// starts. The checkpoint guard comes first so a refused resume costs
/// nothing; only its settled id set is needed before the signers start,
/// and signing is already under way while the checkpoint is replayed into
/// `state`. A fresh run starts at the chain's heights now, before any of its
/// transactions is submitted: none of them can sit in an earlier block.
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
    let owned = checkpoint.as_ref().map(settled).unwrap_or_default();
    let claim = inputs.generate(obs, owned);
    let keypair = Keypair::from_seed(inputs.workload.seed);
    let sign_obs = signer::SignObs::new(obs, inputs.deployment.clock());
    let signed = start_signer(config, claim, keypair, sign_obs);
    let Some(cp) = checkpoint else {
        let fresh = Progress {
            last_seen,
            shard_commits: BTreeMap::new(),
        };
        return Ok((signed, fresh));
    };
    restore(state, &cp);
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
    fn claims_skip_what_a_checkpoint_settled_and_yield_the_rest() {
        const CLAIM: usize = 128;
        let config = hammer_workload::WorkloadConfig {
            accounts: 50,
            total_txs: 10 * CLAIM + 5,
            ..Default::default()
        };
        let ids: Vec<TxId> = SmallBankGenerator::new(config.clone())
            .next_segment(usize::MAX)
            .iter()
            .map(Transaction::id)
            .collect();
        // The first three claims are settled whole, the fourth all but
        // its last transaction, and every seventh one of the claims after.
        let owned: HashSet<TxId> = ids
            .iter()
            .enumerate()
            .filter(|&(i, _)| i < 4 * CLAIM - 1 || (i >= 4 * CLAIM && i % 7 == 0))
            .map(|(_, id)| *id)
            .collect();
        let rest: Vec<TxId> = ids
            .iter()
            .filter(|id| !owned.contains(id))
            .copied()
            .collect();

        let obs = Obs::new();
        let mut generator = SmallBankGenerator::new(config);
        let next = move |len| generator.next_segment(len);
        let mut claim = claims(next, owned, obs.clone(), SimClock::realtime());
        let first = claim(CLAIM);
        assert_eq!(first.len(), 1, "three emptied claims are passed over");
        let mut yielded: Vec<TxId> = first.iter().map(Transaction::id).collect();
        loop {
            let unsigned = claim(CLAIM);
            if unsigned.is_empty() {
                break;
            }
            assert!(unsigned.len() <= CLAIM);
            yielded.extend(unsigned.iter().map(Transaction::id));
        }
        assert_eq!(yielded, rest);
        assert!(claim(CLAIM).is_empty(), "stays dry");
        // Every generated transaction has its span, settled or not.
        let spans = obs.spans().histogram(Stage::Generated).count();
        assert_eq!(spans, ids.len() as u64);
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

        // The three pending records are not restored: the workload stream
        // offers them again.
        let settled: Vec<_> = cp
            .records
            .iter()
            .filter(|r| r.status != TxStatus::Pending)
            .cloned()
            .collect();
        let resumed = state();
        restore(&resumed, &cp);
        assert_eq!(
            sorted_snapshot(&resumed),
            (settled.clone(), cp.rejected_ids.clone())
        );
        assert_eq!(resumed.tracker.pending(), 0);
        assert_eq!(resumed.submitted.load(Ordering::Relaxed), 5);
        assert_eq!(resumed.rejected.load(Ordering::Relaxed), 1);
        assert_eq!(resumed.retried.load(Ordering::Relaxed), 5);
        let ids = |records: &[crate::index::TxRecord]| -> HashSet<TxId> {
            records.iter().map(|r| r.tx_id).collect()
        };
        assert_eq!(super::settled(&cp), ids(&settled));

        // A crash between the two halves of a rejection: the id reached
        // the rejected set, the record's completion did not. The resumed
        // tracker settles it as the rejection it was.
        let mut torn = cp.clone();
        let lost = torn.records.iter_mut().find(|r| r.tx_id == id(5)).unwrap();
        (lost.status, lost.end) = (TxStatus::Pending, None);
        let resumed = state();
        restore(&resumed, &torn);
        assert_eq!(sorted_snapshot(&resumed), (settled, cp.rejected_ids));
    }
}
