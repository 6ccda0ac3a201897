//! An in-memory key/value store standing in for Redis.
//!
//! What the driver keeps in it is one blob per recoverable run — the
//! periodic driver checkpoint (`hammer-core`'s `checkpoint` module), shared
//! between the run that is killed and the run that resumes — so the store
//! is a map of byte values behind one lock.

use std::collections::HashMap;

use parking_lot::RwLock;

/// A thread-safe key/value store of byte blobs.
#[derive(Debug, Default)]
pub struct KvStore {
    values: RwLock<HashMap<String, Vec<u8>>>,
}

impl KvStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores bytes under `key`, replacing any previous value.
    pub fn set(&self, key: &str, value: Vec<u8>) {
        self.values.write().insert(key.to_owned(), value);
    }

    /// Reads the bytes stored under `key`.
    pub fn get(&self, key: &str) -> Option<Vec<u8>> {
        self.values.read().get(key).cloned()
    }

    /// Removes `key`, returning whether it existed.
    pub fn del(&self, key: &str) -> bool {
        self.values.write().remove(key).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_del() {
        let kv = KvStore::new();
        kv.set("a", b"1".to_vec());
        assert_eq!(kv.get("a"), Some(b"1".to_vec()));
        kv.set("a", b"2".to_vec());
        assert_eq!(kv.get("a"), Some(b"2".to_vec()));
        assert!(kv.del("a"));
        assert_eq!(kv.get("a"), None);
        assert!(!kv.del("a"));
    }
}
