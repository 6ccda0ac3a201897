//! The one place a thread is started: [`spawn`] and [`spawn_scoped`] name
//! it after its role (`hammer-submit`, `fabric-sim`), and `clippy.toml`
//! disallows the std spawns everywhere else. Both return what the std
//! builder returns, so a caller that survives a failed spawn still sees it.

use std::io;
use std::thread::{Builder, JoinHandle, Scope, ScopedJoinHandle};

/// Starts a thread named `name` running `f`.
#[allow(clippy::disallowed_methods)] // the sanctioned std spawn
pub fn spawn<T: Send + 'static>(
    name: impl Into<String>,
    f: impl FnOnce() -> T + Send + 'static,
) -> io::Result<JoinHandle<T>> {
    Builder::new().name(name.into()).spawn(f)
}

/// Starts a thread named `name` running `f` inside `scope`.
#[allow(clippy::disallowed_methods)] // the sanctioned std scoped spawn
pub fn spawn_scoped<'scope, T: Send + 'scope>(
    scope: &'scope Scope<'scope, '_>,
    name: impl Into<String>,
    f: impl FnOnce() -> T + Send + 'scope,
) -> io::Result<ScopedJoinHandle<'scope, T>> {
    Builder::new().name(name.into()).spawn_scoped(scope, f)
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
