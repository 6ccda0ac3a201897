//! An in-memory key/value store standing in for Redis.
//!
//! The paper's driver keeps per-server transaction-status vector lists in
//! Redis and periodically merges them (Fig. 2, step ④/⑥). This store
//! offers the operations that flow needs: binary values, list
//! append/range, and a merge-friendly `getset` — all behind sharded locks
//! so driver threads don't serialise on one mutex.

use std::collections::HashMap;

use parking_lot::RwLock;

const SHARDS: usize = 16;

/// A value stored under a key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KvValue {
    /// An opaque byte blob.
    Bytes(Vec<u8>),
    /// An append-only list of blobs.
    List(Vec<Vec<u8>>),
}

/// A sharded, thread-safe key/value store.
#[derive(Debug)]
pub struct KvStore {
    shards: Vec<RwLock<HashMap<String, KvValue>>>,
}

impl Default for KvStore {
    fn default() -> Self {
        Self::new()
    }
}

impl KvStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        KvStore {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, key: &str) -> &RwLock<HashMap<String, KvValue>> {
        // FNV-1a over the key bytes.
        let mut h: u64 = 0xcbf29ce484222325;
        for b in key.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        &self.shards[(h % SHARDS as u64) as usize]
    }

    /// Stores bytes under `key`, replacing any previous value.
    pub fn set(&self, key: &str, value: Vec<u8>) {
        self.shard(key)
            .write()
            .insert(key.to_owned(), KvValue::Bytes(value));
    }

    /// Reads the bytes stored under `key` (`None` for missing keys or
    /// non-byte values).
    pub fn get(&self, key: &str) -> Option<Vec<u8>> {
        match self.shard(key).read().get(key) {
            Some(KvValue::Bytes(b)) => Some(b.clone()),
            _ => None,
        }
    }

    /// Atomically replaces the bytes under `key`, returning the old value.
    /// This is the merge primitive: the poller `getset`s each vector-list
    /// key to claim its contents exactly once.
    pub fn getset(&self, key: &str, value: Vec<u8>) -> Option<Vec<u8>> {
        match self
            .shard(key)
            .write()
            .insert(key.to_owned(), KvValue::Bytes(value))
        {
            Some(KvValue::Bytes(old)) => Some(old),
            _ => None,
        }
    }

    /// Removes `key`, returning whether it existed.
    pub fn del(&self, key: &str) -> bool {
        self.shard(key).write().remove(key).is_some()
    }

    /// Appends an item to the list at `key` (creating it), returning the
    /// new length. Overwrites non-list values.
    pub fn rpush(&self, key: &str, item: Vec<u8>) -> usize {
        let mut shard = self.shard(key).write();
        let entry = shard
            .entry(key.to_owned())
            .or_insert(KvValue::List(Vec::new()));
        match entry {
            KvValue::List(items) => {
                items.push(item);
                items.len()
            }
            other => {
                *other = KvValue::List(vec![item]);
                1
            }
        }
    }

    /// Reads list items in `[start, stop)` (clamped).
    pub fn lrange(&self, key: &str, start: usize, stop: usize) -> Vec<Vec<u8>> {
        match self.shard(key).read().get(key) {
            Some(KvValue::List(items)) => {
                let start = start.min(items.len());
                let stop = stop.min(items.len());
                items[start..stop].to_vec()
            }
            _ => Vec::new(),
        }
    }

    /// Atomically takes the entire list at `key`, leaving it empty.
    pub fn ltake(&self, key: &str) -> Vec<Vec<u8>> {
        let mut shard = self.shard(key).write();
        match shard.get_mut(key) {
            Some(KvValue::List(items)) => std::mem::take(items),
            _ => Vec::new(),
        }
    }

    /// Number of keys across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes every key.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.write().clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn set_get_del() {
        let kv = KvStore::new();
        kv.set("a", b"1".to_vec());
        assert_eq!(kv.get("a"), Some(b"1".to_vec()));
        assert!(kv.del("a"));
        assert_eq!(kv.get("a"), None);
        assert!(!kv.del("a"));
    }

    #[test]
    fn getset_claims_once() {
        let kv = KvStore::new();
        kv.set("vl", b"batch1".to_vec());
        assert_eq!(kv.getset("vl", b"".to_vec()), Some(b"batch1".to_vec()));
        assert_eq!(kv.getset("vl", b"".to_vec()), Some(b"".to_vec()));
    }

    #[test]
    fn lists() {
        let kv = KvStore::new();
        assert_eq!(kv.rpush("l", b"a".to_vec()), 1);
        assert_eq!(kv.rpush("l", b"b".to_vec()), 2);
        assert_eq!(kv.lrange("l", 0, 10), vec![b"a".to_vec(), b"b".to_vec()]);
        assert_eq!(kv.lrange("l", 1, 2), vec![b"b".to_vec()]);
        assert_eq!(kv.ltake("l"), vec![b"a".to_vec(), b"b".to_vec()]);
        assert!(kv.lrange("l", 0, 10).is_empty());
    }

    #[test]
    fn len_and_clear() {
        let kv = KvStore::new();
        for i in 0..100 {
            kv.set(&format!("k{i}"), vec![]);
        }
        assert_eq!(kv.len(), 100);
        kv.clear();
        assert!(kv.is_empty());
    }

    #[test]
    fn concurrent_rpush_keeps_all() {
        let kv = Arc::new(KvStore::new());
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let kv = Arc::clone(&kv);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u16 {
                    kv.rpush("list", vec![t, (i % 256) as u8]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(kv.ltake("list").len(), 2000);
    }
}
