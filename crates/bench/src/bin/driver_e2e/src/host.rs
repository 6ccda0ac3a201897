//! What the benchmark reads from, and asks of, the host: CPU time and peak
//! memory from procfs, loopback sockets, CPU pinning, and the metadata
//! printed beside every result.

use std::process::Command;
use std::time::{Duration, Instant};

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

/// glibc's `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

/// CPU seconds (user + system) charged to this process (`own`) and to the
/// children it has waited for (`reaped`: a node process counts once the
/// supervisor reaps it).
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTime {
    pub own: f64,
    pub reaped: f64,
}

impl CpuTime {
    pub fn total(&self) -> f64 {
        self.own + self.reaped
    }
}

/// Reads utime/stime/cutime/cstime from `/proc/self/stat`.
pub fn cpu_time() -> CpuTime {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The comm field may contain spaces; fields are counted after its ')'.
    let after_comm = stat.rfind(')').map_or("", |i| &stat[i + 1..]);
    let ticks: Vec<f64> = after_comm
        .split_whitespace()
        .skip(11) // state ppid pgrp session tty tpgid flags minflt cminflt majflt cmajflt
        .take(4)
        .filter_map(|f| f.parse().ok())
        .collect();
    // SAFETY: sysconf takes no pointers and has no preconditions.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
    match ticks[..] {
        [utime, stime, cutime, cstime] => CpuTime {
            own: (utime + stime) / hz,
            reaped: (cutime + cstime) / hz,
        },
        _ => CpuTime::default(),
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Loopback connections from this host's clients to `port`:
/// `(established, closed)`, where closed counts sockets the client side has
/// already torn down (TIME_WAIT and friends) — every reconnect leaves one.
pub fn tcp_connections_to(port: u16) -> (u64, u64) {
    let table = std::fs::read_to_string("/proc/net/tcp").unwrap_or_default();
    let mut established = 0;
    let mut closed = 0;
    for line in table.lines().skip(1) {
        let mut fields = line.split_whitespace().skip(1);
        let (Some(local), Some(remote), Some(state)) =
            (fields.next(), fields.next(), fields.next())
        else {
            continue;
        };
        let port_of = |addr: &str| {
            addr.rsplit(':')
                .next()
                .and_then(|p| u16::from_str_radix(p, 16).ok())
        };
        if port_of(remote) != Some(port) || port_of(local) == Some(port) {
            continue;
        }
        if state == "01" {
            established += 1;
        } else {
            closed += 1;
        }
    }
    (established, closed)
}

/// Restores the thread's CPU affinity when dropped.
pub struct PinGuard {
    original: CpuSet,
}

impl Drop for PinGuard {
    fn drop(&mut self) {
        // SAFETY: the mask is a live, fully initialised cpu_set_t-sized buffer.
        unsafe {
            sched_setaffinity(0, std::mem::size_of::<CpuSet>(), self.original.as_ptr());
        }
    }
}

/// Pins the calling thread to the highest-numbered CPU it may run on.
/// Threads and processes it starts afterwards inherit the mask. Returns
/// `None` (and changes nothing) when the host refuses.
pub fn pin_to_one_cpu() -> Option<PinGuard> {
    let mut original: CpuSet = [0; 16];
    // SAFETY: the mask is a live buffer of exactly the size passed.
    let got = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), original.as_mut_ptr()) };
    if got != 0 {
        return None;
    }
    let word = original.iter().rposition(|w| *w != 0)?;
    let bit = 63 - original[word].leading_zeros() as usize;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << bit;
    // SAFETY: as above; the kernel only reads the mask.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), one.as_ptr()) };
    (set == 0).then_some(PinGuard { original })
}

/// Keeps `cores` threads busy for a second. After an idle gap this class of
/// host (a small VM) takes about that long to give a process its full share
/// again, and a run that starts inside the ramp reads 10–15 % slow; every
/// invocation therefore starts with this, untimed.
pub fn warm_up(cores: usize) {
    const WARM_UP: Duration = Duration::from_secs(1);
    std::thread::scope(|scope| {
        for _ in 0..cores {
            scope.spawn(|| {
                let started = Instant::now();
                let mut x = 1u64;
                while started.elapsed() < WARM_UP {
                    for i in 0..10_000u64 {
                        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
                    }
                }
                std::hint::black_box(x);
            });
        }
    });
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// CPUs the process may run on. Take it before any pinning:
/// `available_parallelism` follows the affinity mask.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checkout's commit, where there is one.
pub fn commit() -> String {
    command_line("git", &["rev-parse", "--short", "HEAD"])
}

pub fn rustc() -> String {
    command_line("rustc", &["--version"])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn procfs_readers_return_plausible_values() {
        // CPU time is charged in clock ticks: burn until one has been.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut x = 0u64;
        while cpu_time().own == 0.0 && Instant::now() < deadline {
            for i in 0..1_000_000u64 {
                x = x.wrapping_mul(31).wrapping_add(i);
            }
        }
        std::hint::black_box(x);
        assert!(cpu_time().own > 0.0);
        assert!(peak_rss_mb() > 1.0);
    }

    #[test]
    fn pinning_narrows_and_restores_the_mask() {
        let before = std::thread::available_parallelism().unwrap().get();
        if let Some(guard) = pin_to_one_cpu() {
            assert_eq!(std::thread::available_parallelism().unwrap().get(), 1);
            drop(guard);
        }
        assert_eq!(std::thread::available_parallelism().unwrap().get(), before);
    }

    #[test]
    fn counts_only_client_side_sockets_to_the_port() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        assert_eq!(tcp_connections_to(port), (0, 0));
        let client = std::net::TcpStream::connect(("127.0.0.1", port)).unwrap();
        let (_server_side, _) = listener.accept().unwrap();
        assert_eq!(tcp_connections_to(port), (1, 0));
        drop(client);
    }
}
