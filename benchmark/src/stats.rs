//! Order statistics, the seeded generator, and process memory readings.

/// Samples that must lie beyond a percentile before it is reported: a
/// percentile resting on fewer is a reading of a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank quantile `q` of ascending `sorted`, reported only when at
/// least [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let r = rank(sorted.len(), q);
    (sorted.len() - r >= MIN_BEYOND).then(|| sorted[r - 1])
}

/// SplitMix64: the benchmark's only source of randomness. Inputs are a
/// pure function of `--seed`; the program never sees the generator.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A uniform sample of at most `cap` values from a stream (Algorithm R).
/// The buffer is written in full when created, so recording a sample
/// during a measurement never grows the process's resident set.
pub struct Reservoir {
    buf: Vec<f64>,
    len: usize,
    seen: u64,
    rng: SplitMix,
}

impl Reservoir {
    pub fn new(cap: usize, seed: u64) -> Reservoir {
        Reservoir {
            buf: vec![f64::NAN; cap.max(1)],
            len: 0,
            seen: 0,
            rng: SplitMix::new(seed),
        }
    }

    pub fn push(&mut self, x: f64) {
        self.seen += 1;
        if self.len < self.buf.len() {
            self.buf[self.len] = x;
            self.len += 1;
        } else {
            let j = self.rng.next_u64() % self.seen;
            if let Some(slot) = usize::try_from(j).ok().and_then(|j| self.buf.get_mut(j)) {
                *slot = x;
            }
        }
    }

    /// The kept values, ascending.
    pub fn into_sorted(mut self) -> Vec<f64> {
        self.buf.truncate(self.len);
        self.buf.sort_by(f64::total_cmp);
        self.buf
    }
}

/// Derive an independent seed for input stream `stream` of run `seed`.
pub fn derive(seed: u64, stream: u64) -> u64 {
    SplitMix::new(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// Reset the process's peak-RSS high-water mark (`VmHWM`) to its current
/// RSS, so the peak read afterwards belongs to the measured phase alone.
/// Free heap pages that set-up left cached in the allocator are returned
/// to the kernel first; otherwise the peak would depend on how set-up
/// happened to fragment the heap. Returns false where the kernel offers
/// no reset.
pub fn reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and only hands
        // free memory back to the kernel; it may be called at any time.
        unsafe {
            malloc_trim(0);
        }
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak RSS over consecutive time slices of a load phase, each starting
/// from a trimmed heap and a reset high-water mark. The median slice
/// peak is steadier than one peak over the phase, which the allocator's
/// timing-dependent heap growth would set.
pub struct RssSlices {
    every_s: f64,
    next_s: f64,
    peaks: Vec<f64>,
}

impl RssSlices {
    pub fn start(phase_s: f64, slices: usize) -> RssSlices {
        reset_peak_rss();
        let every_s = phase_s / slices.max(1) as f64;
        RssSlices {
            every_s,
            next_s: every_s,
            peaks: Vec::new(),
        }
    }

    /// Close the current slice if `elapsed_s` has reached its end.
    pub fn tick(&mut self, elapsed_s: f64) -> Result<(), String> {
        if elapsed_s >= self.next_s {
            self.peaks.push(peak_rss_mib()?);
            reset_peak_rss();
            self.next_s += self.every_s;
        }
        Ok(())
    }

    /// Close the last slice; the median slice peak in MiB.
    pub fn finish(mut self) -> Result<f64, String> {
        self.peaks.push(peak_rss_mib()?);
        Ok(median(&self.peaks))
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // Rank 50 of 100: 50 samples beyond.
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        // Rank 90: exactly 10 beyond — reportable.
        assert_eq!(percentile(&xs, 0.9), Some(90.0));
        // Rank 99: only 1 beyond — withheld.
        assert_eq!(percentile(&xs, 0.99), None);
        let few: Vec<f64> = (1..=19).map(f64::from).collect();
        // Rank 10 of 19 leaves 9 beyond.
        assert_eq!(percentile(&few, 0.5), None);
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&twenty, 0.5), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn reservoir_keeps_everything_until_full_then_samples() {
        let mut r = Reservoir::new(4, 1);
        for x in [3.0, 1.0, 2.0] {
            r.push(x);
        }
        assert_eq!(r.into_sorted(), vec![1.0, 2.0, 3.0]);
        let mut r = Reservoir::new(1000, 2);
        for i in 0..100_000 {
            r.push(f64::from(i));
        }
        let kept = r.into_sorted();
        assert_eq!(kept.len(), 1000);
        // A uniform sample's median sits near the stream's.
        assert!((40_000.0..60_000.0).contains(&median(&kept)));
    }

    #[test]
    fn derived_streams_differ_and_repeat() {
        assert_eq!(derive(1, 2), derive(1, 2));
        assert_ne!(derive(1, 2), derive(1, 3));
        assert_ne!(derive(1, 2), derive(2, 2));
    }
}
