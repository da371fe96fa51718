//! Spreads timed work over the host's CPUs.
//!
//! On a shared host one CPU can run markedly slower than another for tens
//! of seconds: on a 2-vCPU VM, one-thread solves pinned to each CPU in
//! turn differed by 30%, and the slow CPU changed within a minute. A lone
//! thread stays on the CPU it runs on, so a run's single-threaded times
//! would read whichever CPU the scheduler happened to leave it on. Moving
//! the benchmark's thread to the next CPU before each timed step spreads
//! every run's steps evenly over the CPUs.

use std::os::raw::c_int;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// `cpu_set_t`: 1024 CPU bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
}

/// The CPUs the process may run on, read once; empty if unreadable.
fn allowed() -> &'static (CpuSet, Vec<usize>) {
    static ALLOWED: OnceLock<(CpuSet, Vec<usize>)> = OnceLock::new();
    ALLOWED.get_or_init(|| {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a writable buffer of exactly the size passed;
        // pid 0 is the calling thread.
        if unsafe { sched_getaffinity(0, size_of::<CpuSet>(), &mut set) } != 0 {
            return (set, Vec::new());
        }
        let ids = (0..1024)
            .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        (set, ids)
    })
}

/// Moves the calling thread onto the next CPU in turn, then allows it
/// every CPU again: an otherwise idle host has no reason to move a lone
/// thread, so it stays where it was put, while pool threads started later
/// may still run anywhere. Does nothing if the CPU set is unreadable.
pub fn rotate() {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let (set, ids) = allowed();
    if ids.is_empty() {
        return;
    }
    let cpu = ids[NEXT.fetch_add(1, Ordering::Relaxed) % ids.len()];
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: both masks are readable buffers of exactly the size passed;
    // pid 0 is the calling thread.
    unsafe {
        sched_setaffinity(0, size_of::<CpuSet>(), &one);
        sched_setaffinity(0, size_of::<CpuSet>(), set);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn current() -> CpuSet {
        let mut set: CpuSet = [0; 16];
        // SAFETY: as in `allowed`.
        assert_eq!(
            unsafe { sched_getaffinity(0, size_of::<CpuSet>(), &mut set) },
            0
        );
        set
    }

    #[test]
    fn rotation_leaves_every_cpu_allowed() {
        let before = current();
        for _ in 0..5 {
            rotate();
            assert_eq!(current(), before);
        }
        assert!(!allowed().1.is_empty());
    }
}
