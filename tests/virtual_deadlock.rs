//! A virtual clock's scheduler fails a run whose participants all wait for
//! each other, and leaves no thread behind. `LeakProbe` counts the whole
//! process, so this is the only test in its binary.

use std::time::Duration;

use crossbeam::channel::bounded;
use hammer::core::chaos::LeakProbe;
use hammer::net::{thread, SimClock};

#[test]
fn two_participants_that_wait_on_each_other_fail_with_both_waits_named() {
    let probe = LeakProbe::start();
    let clock = SimClock::virtual_time();
    let (to_first, first_inbox) = bounded::<()>(1);
    let (to_second, second_inbox) = bounded::<()>(1);
    let caught = std::panic::catch_unwind(|| {
        std::thread::scope(|scope| {
            // Each would answer the other's message, and neither sends first.
            let second = move || {
                second_inbox.recv().ok();
                to_first.send(()).ok();
            };
            let peer = thread::spawn_scoped(scope, "deadlock-test-second", second).unwrap();
            clock.sleep(Duration::from_millis(1));
            first_inbox.recv().ok();
            to_second.send(()).ok();
            let _ = peer.join();
        });
    });
    let payload = caught.expect_err("a run that cannot go on fails");
    let report = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        report.starts_with("virtual time: every participant waits and none until a deadline"),
        "{report}"
    );
    let first = std::thread::current().name().unwrap().to_owned();
    assert!(
        report.contains(&format!("{first}#0 (recv on channel ")),
        "{report}"
    );
    assert!(
        report.contains("deadlock-test-second#1 (recv on channel "),
        "{report}"
    );
    assert_eq!(clock.now(), Duration::from_millis(1));
    let [threads, children] = probe.finish();
    assert!(
        threads.passed && children.passed,
        "{threads:?} {children:?}"
    );
}
