//! Sample statistics, process memory readings and the outcome digest.

/// Median of `samples` (mean of the middle two for an even count);
/// `0.0` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len().is_multiple_of(2) {
        (s[mid - 1] + s[mid]) / 2.0
    } else {
        s[mid]
    }
}

/// Nearest-rank percentile `p` (in `(0, 100]`) of `samples`; `0.0` for no
/// samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// `numerator / denominator`, or `0.0` when the denominator is zero (a
/// ratio over a layer the workload never called).
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`), in bytes.
fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.trim()
            .trim_end_matches("kB")
            .trim()
            .parse::<u64>()
            .ok()
    })
}

/// Resident set size now, in bytes (`0` where `/proc` is unavailable).
pub fn rss_bytes() -> u64 {
    status_kb("VmRSS").map_or(0, |kb| kb * 1024)
}

/// Peak resident set size of this process so far (`VmHWM`), in bytes.
pub fn peak_rss_bytes() -> Option<u64> {
    status_kb("VmHWM").map(|kb| kb * 1024)
}

/// FNV-1a over 64-bit words: the order-sensitive digest of simulated
/// counts printed per run (seed-stable, host-independent).
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds one word into the digest.
    pub fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.push(1);
        a.push(2);
        b.push(2);
        b.push(1);
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn proc_readings_are_positive_on_linux() {
        assert!(rss_bytes() > 0);
        assert!(peak_rss_bytes().is_some_and(|b| b >= 1024));
    }
}
