//! Shared helpers for the integration-test binaries.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use hammer::core::chaos::live_threads;
use parking_lot::{Mutex, MutexGuard};

/// Serialises the tests of one binary that either count the process's
/// threads (`LeakProbe`, `live_threads`), which a concurrent test's
/// threads would throw off, or run a chain on a scaled clock, whose
/// simulated time a concurrent test's CPU would skew (the multi-process
/// cells and the process-kill test). A test on a virtual clock that counts
/// no threads needs neither: its time owes nothing to the host. The static
/// is per-binary (each integration test crate compiles its own copy),
/// which matches how the harness parallelises: threads within a binary,
/// not across binaries.
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
pub(crate) fn serial_guard() -> MutexGuard<'static, ()> {
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
pub(crate) struct TempDir(PathBuf);

#[allow(dead_code)]
impl TempDir {
    pub(crate) fn new(label: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let name = format!("hammer-test-{label}-{}-{n}", std::process::id());
        let path = std::env::temp_dir().join(name);
        // One left by a dead process that had this id.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create a test directory");
        TempDir(path)
    }

    pub(crate) fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
