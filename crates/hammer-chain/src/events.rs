//! A broadcast bus for per-transaction commit events.
//!
//! Chain simulators publish a [`CommitEvent`] for every transaction in
//! every committed block; interactive (Caliper-style) testing subscribes.
//! Subscribers that disconnect are pruned lazily.

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use crate::client::CommitEvent;

/// A fan-out bus: every subscriber receives every event published after it
/// subscribed.
#[derive(Debug, Default)]
pub struct CommitBus {
    subscribers: Mutex<Vec<Sender<CommitEvent>>>,
}

impl CommitBus {
    /// An empty bus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a subscriber and returns its receiving end.
    pub fn subscribe(&self) -> Receiver<CommitEvent> {
        let (tx, rx) = unbounded();
        self.subscribers.lock().push(tx);
        rx
    }

    /// Publishes an event to every live subscriber, pruning dead ones.
    pub fn publish(&self, event: &CommitEvent) {
        let mut subs = self.subscribers.lock();
        subs.retain(|s| s.send(event.clone()).is_ok());
    }

    /// Publishes a batch (one lock acquisition for the whole block).
    ///
    /// `events` is called only when someone is subscribed, so a block
    /// nobody listens to costs no per-transaction event. "Nobody" is
    /// decided under the same lock that `subscribe` takes: a subscriber
    /// arriving during the call gets the whole batch or none of it.
    pub fn publish_all(&self, events: impl FnOnce() -> Vec<CommitEvent>) {
        let mut subs = self.subscribers.lock();
        if subs.is_empty() {
            return;
        }
        let events = events();
        subs.retain(|s| events.iter().all(|e| s.send(e.clone()).is_ok()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Transaction, TxId};
    use std::time::Duration;

    fn event(n: u64) -> CommitEvent {
        let tx = Transaction {
            client_id: 0,
            server_id: 0,
            nonce: n,
            op: crate::smallbank::Op::KvGet { key: n },
            chain_name: "t".to_owned(),
            contract_name: "k".to_owned(),
        };
        CommitEvent {
            tx_id: tx.id(),
            success: true,
            block_height: 1,
            shard: 0,
            committed_at: Duration::from_millis(n),
        }
    }

    #[test]
    fn all_subscribers_receive() {
        let bus = CommitBus::new();
        let rx1 = bus.subscribe();
        let rx2 = bus.subscribe();
        bus.publish(&event(1));
        assert_eq!(rx1.try_recv().unwrap().tx_id, event(1).tx_id);
        assert_eq!(rx2.try_recv().unwrap().tx_id, event(1).tx_id);
    }

    #[test]
    fn dropped_subscriber_pruned() {
        let bus = CommitBus::new();
        let rx1 = bus.subscribe();
        {
            let _rx2 = bus.subscribe();
        } // rx2 dropped
        assert_eq!(bus.subscribers.lock().len(), 2);
        bus.publish(&event(1));
        assert_eq!(bus.subscribers.lock().len(), 1);
        assert!(rx1.try_recv().is_ok());
    }

    #[test]
    fn publish_all_delivers_in_order() {
        let bus = CommitBus::new();
        let rx = bus.subscribe();
        let events: Vec<CommitEvent> = (0..5).map(event).collect();
        bus.publish_all(|| events.clone());
        for e in &events {
            assert_eq!(rx.try_recv().unwrap().tx_id, e.tx_id);
        }
    }

    #[test]
    fn publish_all_builds_nothing_for_nobody() {
        let bus = CommitBus::new();
        bus.publish_all(|| panic!("events built with no subscriber"));
        // The same once the only subscriber is gone and pruned.
        drop(bus.subscribe());
        bus.publish(&event(1));
        bus.publish_all(|| panic!("events built with no subscriber"));
    }

    #[test]
    fn late_subscriber_misses_earlier_events() {
        let bus = CommitBus::new();
        bus.publish(&event(1));
        let rx = bus.subscribe();
        assert!(rx.try_recv().is_err());
        bus.publish(&event(2));
        assert_eq!(rx.try_recv().unwrap().tx_id, event(2).tx_id);
    }

    // Silence unused-import lint for TxId used only in type position here.
    #[allow(dead_code)]
    fn _t(_x: TxId) {}
}
