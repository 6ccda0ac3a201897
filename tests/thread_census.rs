//! Each builtin backend runs on exactly one thread: the kernel's loop,
//! named after the chain. `live_threads` counts the whole process, so this
//! is the only test in its binary.

use std::time::{Duration, Instant};

use hammer::core::chaos::live_threads;
use hammer::core::deploy::{BackendOptions, BackendRegistry};

/// Live threads of this process named `name`, read once the count is
/// not 0: a new thread sets its own name once it runs.
fn threads_named(name: &str) -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let tasks = std::fs::read_dir("/proc/self/task").expect("procfs");
        let comm = |task: &std::fs::DirEntry| std::fs::read_to_string(task.path().join("comm"));
        let named = (tasks.flatten())
            .filter(|task| comm(task).is_ok_and(|comm| comm.trim() == name))
            .count();
        if named > 0 || Instant::now() > deadline {
            return named;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn a_builtin_backend_runs_on_exactly_one_thread() {
    let registry = BackendRegistry::builtin();
    assert_eq!(registry.names().len(), 4);
    let baseline = live_threads();
    for name in registry.names() {
        let deployment = registry.deploy(name, &BackendOptions::default()).unwrap();
        assert_eq!(threads_named(name), 1, "{name}: its loop");
        assert_eq!(live_threads(), baseline + 1, "{name}: and nothing else");
        drop(deployment);
        assert_eq!(live_threads(), baseline, "{name}: joined on drop");
    }
}
