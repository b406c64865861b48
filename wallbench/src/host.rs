//! The host record: how noisy the machine was while a run measured, read
//! from `/proc` and from a fixed calibration loop in benchmark code.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Aggregate CPU jiffies from the first line of `/proc/stat`: (steal, total).
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user/nice.
    let steal = *fields.get(7)?;
    let total = fields.iter().take(8).sum();
    Some((steal, total))
}

/// Steal ticks counted so far over all CPUs: hundredths of a second of CPU
/// time during which the hypervisor ran something else on one of this
/// VM's CPUs. 0 where `/proc/stat` has no steal field.
pub fn steal_ticks() -> u64 {
    cpu_jiffies().map_or(0, |(steal, _)| steal)
}

/// Runs `f` and returns its result, its wall time (s) and the steal ticks
/// that fell while it ran. The counter is read outside the timed region.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, u64) {
    let before = steal_ticks();
    let t = Instant::now();
    let out = f();
    let wall = t.elapsed().as_secs_f64();
    (out, wall, steal_ticks().saturating_sub(before))
}

/// A field of `/proc/self/status` in its own unit (kB for memory).
fn status_field(name: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// Peak resident set (`VmHWM`) of this process in MB (MiB).
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Milliseconds of one fixed single-thread loop: a clock for the host's
/// current speed that involves no program code.
pub fn calibration_ms() -> f64 {
    let t = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    for i in 0..4_000_000_u64 {
        x = black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
    }
    black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Samples the host while a run measures: steal jiffies between start and
/// stop, the calibration loop at both ends, and the process's thread count
/// every 20 ms from a sampler thread.
pub struct HostMonitor {
    start: Option<(u64, u64)>,
    cal_start: f64,
    stop: Arc<AtomicBool>,
    peak: Arc<AtomicUsize>,
    sampler: Option<JoinHandle<()>>,
}

/// What [`HostMonitor::finish`] measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostRecord {
    /// Share of CPU time the hypervisor stole during the run (0 when
    /// `/proc/stat` has no steal field).
    pub steal_frac: f64,
    /// Mean of the calibration loop at start and end of the run (ms).
    pub cal_ms: f64,
    /// Most threads this process ran at once, not counting the sampler.
    pub threads_peak: usize,
    /// Logical CPUs available.
    pub nproc: usize,
}

impl HostMonitor {
    /// Starts sampling.
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let peak = Arc::new(AtomicUsize::new(0));
        let sampler = {
            let (stop, peak) = (Arc::clone(&stop), Arc::clone(&peak));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if let Some(n) = status_field("Threads") {
                        peak.fetch_max(n as usize, Ordering::Relaxed);
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            })
        };
        HostMonitor {
            start: cpu_jiffies(),
            cal_start: calibration_ms(),
            stop,
            peak,
            sampler: Some(sampler),
        }
    }

    /// Stops the sampler thread and returns the record.
    pub fn finish(mut self) -> HostRecord {
        let cal_end = calibration_ms();
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.sampler.take() {
            h.join().expect("host sampler thread panicked");
        }
        let steal_frac = match (self.start, cpu_jiffies()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
            _ => 0.0,
        };
        HostRecord {
            steal_frac,
            cal_ms: 0.5 * (self.cal_start + cal_end),
            threads_peak: self.peak.load(Ordering::Relaxed).saturating_sub(1),
            nproc: nproc(),
        }
    }
}

impl Drop for HostMonitor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.sampler.take() {
            let _ = h.join();
        }
    }
}
