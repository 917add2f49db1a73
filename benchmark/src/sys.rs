//! What the benchmark reads from the operating system: process CPU time
//! and peak RSS for the end-to-end metrics, and the host description
//! every JSON output carries beside its numbers.

use serde::{Deserialize, Serialize};
use std::fs;
use std::path::{Path, PathBuf};

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` in `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// User + system CPU seconds consumed so far by this process (every
/// thread, live or joined; child processes are not included). The
/// process CPU clock has nanosecond resolution where `/proc/self/stat`
/// has 10 ms ticks — too coarse for workloads that mostly wait.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `timespec` through the pointer,
    // which is a valid, exclusively borrowed `Timespec` of matching layout.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// `cpu_set_t` in `<sched.h>` on Linux: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// The calling thread confined to one CPU; its previous affinity comes
/// back on drop. Threads spawned meanwhile inherit the confinement and
/// keep it.
pub struct OneCpu {
    /// The affinity to restore, and the CPU chosen; `None` where the
    /// kernel refused (the workload then runs unconfined).
    pinned: Option<(CpuSet, usize)>,
}

impl OneCpu {
    /// Confine the calling thread, and every thread it spawns from now
    /// on, to the lowest-numbered CPU it may run on.
    pub fn confine() -> Self {
        let mut before: CpuSet = [0; 16];
        let size = std::mem::size_of::<CpuSet>();
        // SAFETY: the kernel writes at most `size` bytes through the
        // pointer, which is a valid, exclusively borrowed `CpuSet`.
        if unsafe { sched_getaffinity(0, size, &mut before) } != 0 {
            return OneCpu { pinned: None };
        }
        let Some(word) = before.iter().position(|&w| w != 0) else {
            return OneCpu { pinned: None };
        };
        let cpu = word * 64 + before[word].trailing_zeros() as usize;
        let mut one: CpuSet = [0; 16];
        one[word] = 1 << (cpu % 64);
        // SAFETY: the kernel reads `size` bytes of a valid `CpuSet`.
        let pinned = (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some((before, cpu));
        OneCpu { pinned }
    }

    /// The CPU the thread is confined to, if the kernel allowed it.
    pub fn cpu(&self) -> Option<usize> {
        self.pinned.map(|(_, cpu)| cpu)
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        if let Some((before, _)) = &self.pinned {
            // SAFETY: the kernel reads `size_of::<CpuSet>()` bytes of a
            // valid `CpuSet`. Failure leaves the thread confined, which
            // only the rest of this process would notice.
            unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), before) };
        }
    }
}

fn status_kib(key: &str) -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("{key} missing from /proc/self/status"))
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

/// Current resident set size (`VmRSS`), bytes.
pub fn rss_bytes() -> f64 {
    status_kib("VmRSS:") * 1024.0
}

/// Generator threads, service workers and fleet workers: the one size
/// input of every workload.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The repository root: the benchmark package lives one level below it
/// and is always built inside the checkout it measures.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits inside the repository")
        .to_path_buf()
}

/// `benchmark/out/`, created on demand — traces and JSON reports.
pub fn out_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

/// HEAD's commit id read straight from `.git` (no `git` process, nothing
/// outside the checkout); `"unknown"` in an exported tree.
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn first_line(path: &str) -> Option<String> {
    fs::read_to_string(path)
        .ok()
        .and_then(|s| s.lines().next().map(|l| l.trim().to_string()))
}

/// The parameter set reported beside every number (Meyer et al.,
/// arXiv:2004.11059: a measurement without its configuration is not a
/// measurement).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Host {
    /// Commit the checkout is at, or `unknown` outside a git work tree.
    pub git_rev: String,
    /// `available_parallelism` — also `T`, the load size.
    pub nproc: usize,
    /// CPU model string.
    pub cpu_model: String,
    /// Kernel release.
    pub kernel: String,
    /// Last-level cache size as sysfs prints it (e.g. `16384K`).
    pub llc: String,
}

impl Host {
    /// Describe this host.
    pub fn probe() -> Self {
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        // The highest cache index sysfs lists for cpu0 is the LLC.
        let llc = (0..8)
            .rev()
            .find_map(|i| first_line(&format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size")))
            .unwrap_or_else(|| "unknown".into());
        Host {
            git_rev: git_rev(&repo_root()),
            nproc: parallelism(),
            cpu_model,
            kernel: first_line("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into()),
            llc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_cpu_confines_spawned_threads_and_restores() {
        // On its own thread: affinity is per thread, and the test
        // harness's other threads must not inherit the confinement.
        std::thread::spawn(|| {
            let before = parallelism();
            let guard = OneCpu::confine();
            if guard.cpu().is_some() {
                assert_eq!(parallelism(), 1);
                assert_eq!(std::thread::spawn(parallelism).join().unwrap(), 1);
            }
            drop(guard);
            assert_eq!(parallelism(), before);
        })
        .join()
        .unwrap();
    }
}
