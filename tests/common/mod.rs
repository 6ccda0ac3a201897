//! Shared helpers for the integration-test binaries.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use hammer::core::chaos::live_threads;
use parking_lot::{Mutex, MutexGuard};

/// Chain simulations are timing-sensitive; on small CI hosts running them
/// concurrently within one test binary starves the simulator threads, so
/// timing-sensitive tests serialise on this guard. The static is
/// per-binary (each integration test crate compiles its own copy), which
/// matches how the harness parallelises: threads within a binary, not
/// across binaries.
static GUARD: Mutex<()> = Mutex::new(());

/// Takes the binary-wide serialisation guard. Hold the returned guard for
/// the whole test body:
///
/// ```ignore
/// let _guard = common::serial_guard();
/// ```
///
/// The guard is handed over once the harness has finished changing
/// tests: the previous holder's thread is still exiting when it releases
/// the lock, and libtest spawns the next test (which then parks on this
/// guard) only after that. A process-wide thread baseline
/// (`LeakProbe::start`, `live_threads`) taken inside that hand-over is
/// off by one for the rest of the test, so this waits until two reads
/// of the thread count 20 ms apart agree.
pub fn serial_guard() -> MutexGuard<'static, ()> {
    let guard = GUARD.lock();
    let mut threads = live_threads();
    loop {
        std::thread::sleep(std::time::Duration::from_millis(20));
        let now = live_threads();
        if now == threads {
            return guard;
        }
        threads = now;
    }
}

/// A fresh directory under the system temp dir, unique to this process
/// and call, removed with everything in it on drop: a recoverable run's
/// directory. Not every test binary makes one.
#[allow(dead_code)]
pub struct TempDir(PathBuf);

#[allow(dead_code)]
impl TempDir {
    pub fn new(label: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let name = format!("hammer-test-{label}-{}-{n}", std::process::id());
        let path = std::env::temp_dir().join(name);
        // One left by a dead process that had this id.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create a test directory");
        TempDir(path)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// # Fabric commit band (referenced by tests/cross_chain.rs)
//
// The zipf-0.99 SmallBank workload on `fabric_default()` (100 tx/s x 6 s
// = 600 txs at 400x speed-up) commits fewer than 600: the EOV pipeline
// loses hot-account transactions to intra-block MVCC conflicts, and the
// exact block composition jitters with wall-clock scheduling noise, so
// the commit count is a band, not a constant.
//
// Derivation of the asserted floor: run the fabric cross-chain test in
// release mode N>=10 times and read the printed `fabric committed =`
// lines, e.g.
//
//   for i in $(seq 1 10); do \
//     cargo test --release --test cross_chain fabric -- --nocapture \
//       2>&1 | grep 'fabric committed'; done
//
// Measured bands, oldest first:
//
// * pre-watchdog driver (PR 3): [503, 526]
// * watchdog-instrumented driver (PR 5, stall probe in the monitor
//   loop): [510, 529] — the probe reads three atomics and a block
//   counter per poll tick, which does not shift the band's floor.
//
// The assertion uses `> 480`: ~6% below every observed floor, so
// scheduling noise cannot flake it, while a real sealing or validation
// regression (which commits far less than the band) still trips it.
