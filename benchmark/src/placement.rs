//! Thread placement for the latency-chain phases.
//!
//! A request through the TCP front-end, or a frame along the
//! distributed chain, is a relay of thread wake-ups. On the two-core
//! sandbox the scheduler's choice of core for each mostly-sleeping
//! thread decides whether those wake-ups stay on one core or cross to
//! an idle one, and it makes that choice once per thread: unpinned, the
//! same binary serves 4 400 or 5 500 req/s for a whole run (README,
//! "Thread placement"). So these phases fix the layout instead of
//! drawing it: the serving stack on the first allowed CPU and the load
//! generator on the second; the distributed coordinator and its workers
//! all on the first. Compute phases run unpinned.
//!
//! A thread inherits the mask of the thread that spawns it, which is how
//! the crates' own threads are placed without editing the crates.

use std::sync::OnceLock;

/// Words of the CPU masks passed to the kernel (1 024 CPUs).
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs this process may run on, read once.
fn allowed() -> &'static [usize] {
    static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
    ALLOWED.get_or_init(|| {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..MASK_WORDS * 64).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1).collect()
    })
}

/// Restrict the calling thread to `cpus`; false if the kernel refuses.
fn set(cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for &c in cpus {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a live buffer of exactly the size passed and the
    // kernel only reads it; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Read the process's CPU set; call before any thread is pinned.
pub fn init() {
    allowed();
}

/// Pin the calling thread (and threads it spawns from now on) to the
/// `slot`-th CPU this process may run on, wrapping when there are fewer.
/// With fewer than two CPUs, or if the kernel refuses, nothing changes.
pub fn pin(slot: usize) {
    let cpus = allowed();
    if cpus.len() < 2 {
        return;
    }
    let cpu = cpus[slot % cpus.len()];
    if !set(&[cpu]) {
        eprintln!(
            "warning: could not pin a thread to cpu {cpu}; placement is left to the scheduler"
        );
    }
}

/// Give the calling thread back the CPU set the process started with.
pub fn unpin() {
    if !allowed().is_empty() {
        set(allowed());
    }
}

/// Run `f` with the calling thread pinned to `slot`, then unpin it.
pub fn pinned<R>(slot: usize, f: impl FnOnce() -> R) -> R {
    pin(slot);
    let r = f();
    unpin();
    r
}
