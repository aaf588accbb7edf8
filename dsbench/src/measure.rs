//! Small measurement helpers: order statistics, a seeded generator and
//! the two process counters the benchmark reads from procfs.

use std::time::Instant;

/// Seconds elapsed since `t0`.
pub fn secs_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Median of `v` (mean of the middle pair for even lengths); 0 if empty.
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
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` (0..=1) of `v`; 0 if empty.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// SplitMix64: a seeded, dependency-free generator for read ranges.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0xD5B3_11E7_A4C1_9F27)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A `/proc/self/status` field given in KiB, in MB of 10^6 bytes.
fn status_mb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}

/// Resident set size of this process now (`VmRSS`), in MB.
pub fn rss_mb() -> Option<f64> {
    status_mb("VmRSS:")
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    status_mb("VmHWM:")
}

/// Hands the allocator's free pages back to the kernel, so that the
/// next call's growth is not hidden by memory an earlier one freed.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim only returns free pages to the
        // kernel; it takes no pointers and is thread-safe.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Runs `f` and returns its result with the most resident memory it
/// added above what the process held when it started, in MB: `VmHWM`
/// after the call minus `VmRSS` before it, with free pages first handed
/// back and the peak reset to the current size through
/// `/proc/self/clear_refs`. `None` when procfs does not allow that.
pub fn peak_growth_mb<T>(f: impl FnOnce() -> T) -> (T, Option<f64>) {
    release_free_memory();
    let base = std::fs::write("/proc/self/clear_refs", "5")
        .ok()
        .and_then(|()| rss_mb());
    let out = f();
    let growth = base.and_then(|b| Some(peak_rss_mb()? - b));
    (out, growth)
}

/// User plus system CPU seconds of this process, all threads, from
/// `/proc/self/stat` (clock ticks of 1/100 s, the Linux `USER_HZ`).
pub fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may hold spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After ')' the state is field 3, so utime (14) and stime (15) sit
    // at offsets 11 and 12.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Runs `f`, returning its result, the wall seconds it took and the
/// process CPU seconds it used.
pub fn timed_cpu<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let cpu0 = process_cpu_s().unwrap_or(0.0);
    let t0 = Instant::now();
    let out = f();
    let wall = secs_since(t0);
    let cpu = process_cpu_s().unwrap_or(0.0) - cpu0;
    (out, wall, cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.5);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let mut r = Rng::new(7);
        assert!(a.iter().all(|&x| x == r.next_u64()));
        assert!((0..1000).all(|_| r.unit() < 1.0));
    }
}
