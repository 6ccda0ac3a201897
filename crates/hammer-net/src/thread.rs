//! The one place a thread is started: [`spawn`] and [`spawn_scoped`] name
//! it after its role (`hammer-submit`, `fabric-sim`), and `clippy.toml`
//! disallows the std spawns everywhere else. A thread started by a
//! participant of a virtual clock ([`crate::SimClock::virtual_time`]) is one
//! too, and a participant that joins it waits for its exit through the
//! clock's scheduler, so the handles wrap the std ones. A failed spawn is
//! returned as the std builder returns it, so a caller that survives one
//! still sees it.

use std::io;
use std::thread::{Builder, Scope};

pub use crate::sched::in_virtual_time;
use crate::sched::Child;

/// An owned permission to join a thread started by [`spawn`].
#[derive(Debug)]
pub struct JoinHandle<T> {
    inner: std::thread::JoinHandle<T>,
    child: Option<Child>,
}

impl<T> JoinHandle<T> {
    /// Waits for the thread to finish, as [`std::thread::JoinHandle::join`].
    pub fn join(self) -> std::thread::Result<T> {
        if let Some(child) = &self.child {
            child.await_exit();
        }
        self.inner.join()
    }

    /// Whether the thread has finished running its closure.
    pub fn is_finished(&self) -> bool {
        self.inner.is_finished()
    }
}

/// An owned permission to join a thread started by [`spawn_scoped`].
#[derive(Debug)]
pub struct ScopedJoinHandle<'scope, T> {
    inner: std::thread::ScopedJoinHandle<'scope, T>,
    child: Option<Child>,
}

impl<T> ScopedJoinHandle<'_, T> {
    /// Waits for the thread to finish, as
    /// [`std::thread::ScopedJoinHandle::join`].
    pub fn join(self) -> std::thread::Result<T> {
        if let Some(child) = &self.child {
            child.await_exit();
        }
        self.inner.join()
    }

    /// Whether the thread has finished running its closure.
    pub fn is_finished(&self) -> bool {
        self.inner.is_finished()
    }
}

/// The std spawn's result, with a participant whose thread never started
/// taken off its scheduler.
fn started<H>(spawned: io::Result<H>, child: Option<&Child>) -> io::Result<H> {
    if let (Err(_), Some(child)) = (&spawned, child) {
        child.abandon();
    }
    spawned
}

/// Starts a thread named `name` running `f`.
#[allow(clippy::disallowed_methods)] // the sanctioned std spawn
pub fn spawn<T: Send + 'static>(
    name: impl Into<String>,
    f: impl FnOnce() -> T + Send + 'static,
) -> io::Result<JoinHandle<T>> {
    let name = name.into();
    let child = Child::register(&name);
    let run = child.clone();
    let spawned = Builder::new().name(name).spawn(move || Child::run(run, f));
    let inner = started(spawned, child.as_ref())?;
    Ok(JoinHandle { inner, child })
}

/// Starts a thread named `name` running `f` inside `scope`.
#[allow(clippy::disallowed_methods)] // the sanctioned std scoped spawn
pub fn spawn_scoped<'scope, T: Send + 'scope>(
    scope: &'scope Scope<'scope, '_>,
    name: impl Into<String>,
    f: impl FnOnce() -> T + Send + 'scope,
) -> io::Result<ScopedJoinHandle<'scope, T>> {
    let name = name.into();
    let child = Child::register(&name);
    let run = child.clone();
    let spawned = Builder::new()
        .name(name)
        .spawn_scoped(scope, move || Child::run(run, f));
    let inner = started(spawned, child.as_ref())?;
    Ok(ScopedJoinHandle { inner, child })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn own_name() -> Option<String> {
        std::thread::current().name().map(str::to_owned)
    }

    #[test]
    fn both_entry_points_name_their_thread() {
        let free = spawn("thread-test-free", own_name).unwrap();
        assert_eq!(free.join().unwrap().as_deref(), Some("thread-test-free"));
        let scoped = std::thread::scope(|scope| {
            let handle = spawn_scoped(scope, format!("thread-test-{}", "scoped"), own_name);
            handle.unwrap().join().unwrap()
        });
        assert_eq!(scoped.as_deref(), Some("thread-test-scoped"));
    }
}
