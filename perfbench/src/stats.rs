//! Order statistics and process readings (std only).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Samples strictly beyond the reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile of `v` that still has [`TAIL_BEYOND`] samples
/// beyond it: `(value, percentile)`. With too few samples for that, the
/// maximum and 100 are returned.
pub fn tail(v: &[f64]) -> (f64, f64) {
    if v.is_empty() {
        return (0.0, 100.0);
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n <= TAIL_BEYOND {
        return (s[n - 1], 100.0);
    }
    (s[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) as f64 / n as f64)
}

/// Mean of `v`; 0 when empty.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Geometric mean of `v`; 0 when empty or when any value is not positive.
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() || v.iter().any(|&x| x <= 0.0) {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A `/proc/self/status` field in its own units (kB for memory), or 0
/// where the file or field is missing.
fn proc_status(field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status("VmHWM:") as f64 / 1024.0
}

/// Threads currently alive in this process.
pub fn threads() -> u64 {
    proc_status("Threads:")
}

/// Samples the process's thread count from a thread of its own while the
/// benchmark works, so threads that live only inside one call are seen
/// too. The sampler and a caller that only waits on a pool are not
/// counted.
pub struct ThreadWatch {
    stop: Arc<AtomicBool>,
    /// Bumped on entering and on leaving [`ThreadWatch::wait`]: odd while
    /// the caller waits. A sample taken across a bump is dropped.
    waits: Arc<AtomicU64>,
    peak: Arc<AtomicU64>,
    sampler: JoinHandle<()>,
}

/// Time between two samples.
const SAMPLE_EVERY: Duration = Duration::from_millis(2);

impl ThreadWatch {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let waits = Arc::new(AtomicU64::new(0));
        let peak = Arc::new(AtomicU64::new(0));
        let (s, w, p) = (Arc::clone(&stop), Arc::clone(&waits), Arc::clone(&peak));
        let sampler = std::thread::spawn(move || {
            while !s.load(Ordering::SeqCst) {
                let before = w.load(Ordering::SeqCst);
                let n = threads();
                if w.load(Ordering::SeqCst) == before {
                    p.fetch_max(n.saturating_sub(1 + before % 2), Ordering::SeqCst);
                }
                std::thread::sleep(SAMPLE_EVERY);
            }
        });
        ThreadWatch { stop, waits, peak, sampler }
    }

    /// Run `f`, during which the calling thread only waits for others.
    pub fn wait<R>(&self, f: impl FnOnce() -> R) -> R {
        self.waits.fetch_add(1, Ordering::SeqCst);
        let r = f();
        self.waits.fetch_add(1, Ordering::SeqCst);
        r
    }

    /// Stop sampling; the most threads seen doing work at once.
    pub fn stop(self) -> u64 {
        self.stop.store(true, Ordering::SeqCst);
        self.sampler.join().expect("thread sampler");
        self.peak.load(Ordering::SeqCst)
    }
}

/// Seconds [`calibrate`] takes on the reference machine: the 2-core
/// x86-64 VM the bounds were set on, at its median speed there.
pub const CALIBRATION_REF_S: f64 = 0.0035;

/// Time a fixed compute kernel, in seconds: pseudo-random reads from an
/// L1-resident vector feeding dependent floating-point updates, the shape
/// of the simplex's sparse kernels. It is the benchmark's own code, so no
/// change to the program moves it; only the machine's speed does.
pub fn calibrate() -> f64 {
    let t0 = std::time::Instant::now();
    let mut v: Vec<f64> = (0..4096).map(|i| (i as f64).sin()).collect();
    let (mut acc, mut x) = (0.0f64, 12345u64);
    for _ in 0..200 {
        for i in 0..v.len() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            acc += v[i] * v[(x >> 52) as usize];
            v[i] = acc.fract();
        }
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// Run `work` between two calibrations before it and two after it, on
/// the calling thread. Returns its result and the machine's speed over it
/// relative to the reference: the reference time over the calibrations'
/// median.
pub fn at_speed<R>(work: impl FnOnce() -> R) -> (R, f64) {
    let before = [calibrate(), calibrate()];
    let r = work();
    let calibrations = [before[0], before[1], calibrate(), calibrate()];
    (r, ratio(CALIBRATION_REF_S, median(&calibrations)))
}

/// Cores the host advertises.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // Ten samples (91..=100) lie beyond the 90th value.
        assert_eq!(tail(&v), (90.0, 90.0));
        assert_eq!(tail(&[1.0, 5.0]), (5.0, 100.0));
    }
}
