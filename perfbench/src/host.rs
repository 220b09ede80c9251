//! What the benchmark sets on its own process so that a run's best
//! times depend less on the shared host: fresh pages for every pair
//! run, and pair runs rotated over the CPUs the process may use.

/// glibc's `mallopt` parameter for the size from which `malloc` maps
/// fresh pages instead of reusing the heap.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
const M_MMAP_THRESHOLD: i32 = -3;

/// 64-bit words in the CPU sets passed to the kernel (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// From here on, gives every pair run's organization fresh pages. By
/// default glibc raises its mmap threshold after the first large `free`,
/// and from then on each run's organization reuses the same heap pages,
/// so one physical placement of the simulator's state holds for the
/// whole process. With a fixed threshold each run maps new pages, and a
/// pair's best time over many runs no longer rests on one placement
/// (on a 2-vCPU host, 5 s `capacity4` runs interleaved with runs
/// without it: spread 0.13 against 0.20 over 20 seeds). Called after
/// the set-up rounds, which keep reusing the heap: with fresh pages
/// their time is mostly page faults, which moved by 2x from one run to
/// the next.
pub fn fresh_pages_per_run() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        // SAFETY: `mallopt` takes plain integers and only sets a tunable
        // of the allocator, under the allocator's own lock.
        if unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) } != 1 {
            eprintln!("perfbench: mallopt(M_MMAP_THRESHOLD) failed; runs may reuse heap pages");
        }
    }
}

/// Pins the calling thread to each CPU it may use in turn.
///
/// On a shared host the CPUs a process gets do not run at one speed:
/// what else runs on the same physical core differs per CPU and changes
/// over minutes, and left alone the scheduler keeps a single busy
/// thread on one CPU for seconds at a time. Rotating pair runs over the
/// CPUs lets a pair's best time come from whichever CPU was fastest
/// (on a 2-vCPU host, 5 s `capacity4` runs: spread 0.11 against 0.29
/// unpinned over 20 seeds). Dropping it lets the thread run anywhere
/// again, so threads it starts later are not confined to one CPU.
pub struct CpuRotation {
    allowed: [u64; CPU_SET_WORDS],
    cpus: Vec<usize>,
}

impl CpuRotation {
    /// The CPUs the calling thread may use now.
    pub fn new() -> CpuRotation {
        let mut allowed = [0u64; CPU_SET_WORDS];
        #[cfg(target_os = "linux")]
        {
            // SAFETY: `allowed` is a writable CPU set of the size passed.
            let rc = unsafe {
                sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr())
            };
            if rc != 0 {
                allowed = [0; CPU_SET_WORDS];
            }
        }
        let cpus = (0..CPU_SET_WORDS * 64).filter(|c| allowed[c / 64] >> (c % 64) & 1 == 1);
        CpuRotation { allowed, cpus: cpus.collect() }
    }

    /// Pins the calling thread to the `turn`-th CPU, cyclically.
    pub fn pin(&self, turn: usize) {
        if let Some(cpu) = self.cpus.get(turn % self.cpus.len().max(1)) {
            let mut mask = [0u64; CPU_SET_WORDS];
            mask[cpu / 64] |= 1 << (cpu % 64);
            set_affinity(&mask);
        }
    }
}

impl Drop for CpuRotation {
    fn drop(&mut self) {
        if !self.cpus.is_empty() {
            set_affinity(&self.allowed);
        }
    }
}

/// Confines the calling thread to `mask`; a refusal leaves it where it
/// was, which only costs steadiness.
fn set_affinity(mask: &[u64; CPU_SET_WORDS]) {
    #[cfg(target_os = "linux")]
    {
        // SAFETY: `mask` is a readable CPU set of the size passed.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_visits_every_allowed_cpu_and_restores_the_set() {
        let before = CpuRotation::new();
        assert!(!before.cpus.is_empty(), "a running thread may use some CPU");
        {
            let rotation = CpuRotation::new();
            for turn in 0..rotation.cpus.len() {
                rotation.pin(turn);
                assert_eq!(CpuRotation::new().cpus, vec![rotation.cpus[turn]]);
            }
        }
        assert_eq!(CpuRotation::new().cpus, before.cpus);
    }
}
