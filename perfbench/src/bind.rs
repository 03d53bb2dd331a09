//! Where the benchmark's threads run.
//!
//! Rank threads are bound to CPUs, one rank per CPU in turn, as an MPI
//! launcher binds ranks to cores. Left to itself the scheduler sometimes
//! puts two ping-ponging rank threads on one CPU and sometimes on two, and
//! the op latency differs by a factor of five between the two placements.
//!
//! While ops are measured, one `SCHED_IDLE` spinner per CPU keeps the CPUs
//! out of idle. A spinner only gets a CPU that no other thread wants. On a
//! virtual machine a halted vCPU is woken through the host's scheduler,
//! which costs up to milliseconds and varies with the host's load; without
//! the spinners that wake-up, not the program, sets the tail of every op
//! that hands work from one thread to another.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the spinners run before the first op is timed.
const SETTLE: Duration = Duration::from_millis(200);

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Binds the calling thread to CPU `rank % nproc`. Returns whether the
/// binding took; on failure the thread stays where the scheduler puts it.
pub fn bind_rank(rank: usize) -> bool {
    sys::bind_to(rank % nproc())
}

/// The idle-priority spinners; dropping the value stops and joins them.
pub struct Spinners {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Spinners {
    /// Starts one spinner per CPU and lets them settle. A spinner that
    /// cannot drop to idle priority exits at once rather than compete.
    pub fn start() -> Spinners {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..nproc())
            .map(|cpu| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    if !(sys::bind_to(cpu) && sys::idle_priority()) {
                        return;
                    }
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        std::thread::sleep(SETTLE);
        Spinners { stop, threads }
    }
}

impl Drop for Spinners {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            // A spinner only loops on a flag; it has nothing to panic on.
            let _ = t.join();
        }
    }
}

#[cfg(target_os = "linux")]
mod sys {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    }

    /// Linux's `SCHED_IDLE` policy.
    const SCHED_IDLE: i32 = 5;

    /// Binds the calling thread to `cpu`.
    pub fn bind_to(cpu: usize) -> bool {
        // glibc's cpu_set_t: 1024 bits.
        let mut set = [0u64; 16];
        if cpu >= 64 * set.len() {
            return false;
        }
        set[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `set` is a live, aligned 128-byte CPU mask that the call
        // only reads, and `cpusetsize` is its exact size; pid 0 names the
        // calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&set), set.as_ptr()) == 0 }
    }

    /// Moves the calling thread to the `SCHED_IDLE` policy.
    pub fn idle_priority() -> bool {
        // `struct sched_param` is one int, the priority, which must be 0
        // for SCHED_IDLE.
        let param: i32 = 0;
        // SAFETY: `param` is a live, aligned `struct sched_param` that the
        // call only reads; pid 0 names the calling thread.
        unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn bind_to(_cpu: usize) -> bool {
        false
    }

    pub fn idle_priority() -> bool {
        false
    }
}
