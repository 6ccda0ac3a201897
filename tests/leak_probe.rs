//! `LeakProbe` counts the whole process, so its test is the only test in
//! its binary: under the harness's parallel test threads a finishing
//! neighbour would cancel out the thread this test leaks on purpose.

use hammer::core::chaos::LeakProbe;
use hammer::core::InvariantCheck;

fn thread_row(rows: [InvariantCheck; 2]) -> InvariantCheck {
    let [threads, children] = rows;
    assert_eq!(threads.name, "no_thread_leak");
    assert_eq!(children.name, "no_child_leak");
    assert!(children.passed, "{children:?}");
    threads
}

/// A thread that outlives the cell fails `no_thread_leak` (after the
/// probe's grace period); once it is joined the next probe passes.
#[test]
fn leak_probe_sees_a_parked_thread() {
    let probe = LeakProbe::start();
    let (release, parked) = std::sync::mpsc::channel::<()>();
    let handle = std::thread::spawn(move || parked.recv());
    let leaked = thread_row(probe.finish());
    assert!(!leaked.passed, "{leaked:?}");

    let probe = LeakProbe::start();
    drop(release);
    handle.join().expect("parked thread exits").unwrap_err();
    let joined = thread_row(probe.finish());
    assert!(joined.passed, "{joined:?}");
}
