//! Small numeric helpers: nearest-rank percentiles and tails, CPU steal,
//! and the FNV-1a digest that fingerprints generated inputs.
//!
//! Per-call speeds are summarized by medians, not means: on a machine
//! whose CPUs the hypervisor sometimes takes away, a mean absorbs every
//! stolen millisecond while a median moves only when most calls are hit.

/// The percentile ladder a tail is chosen from, highest last.
const TAIL_LADDER: [f64; 5] = [50.0, 75.0, 90.0, 99.0, 99.9];

/// Samples a reported percentile must leave beyond it to be trusted.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `p`-th percentile (`0 < p <= 100`) of `sorted`, which
/// must be sorted ascending. `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The 1-based nearest rank of the `p`-th percentile among `n >= 1`
/// samples. The product is rounded to 1e-9 first so that, say, p99.9 of
/// 10 000 is rank 9990 and not 9991 through binary rounding.
fn rank(n: usize, p: f64) -> usize {
    let exact = (p / 100.0 * n as f64 * 1e9).round() / 1e9;
    (exact.ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest percentile of the ladder (p50, p75, p90, p99, p99.9) that
/// leaves at least [`MIN_BEYOND`] of `n` samples beyond it. `None` when
/// even the median does not.
pub fn highest_supported(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| n > 0 && beyond(n, p) >= MIN_BEYOND)
}

/// Median of unsorted values (the lower middle value for an even count,
/// as nearest rank gives it). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// A reported percentile: its value (µs), which percentile it is, and
/// the samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Value in microseconds.
    pub value: f64,
    /// The percentile actually reported.
    pub p: f64,
    /// Samples it was computed from.
    pub n: usize,
}

impl Tail {
    /// Provenance note: `p99 n=12345`.
    pub fn note(&self) -> String {
        format!("p{} n={}", self.p, self.n)
    }
}

/// A latency distribution: sorted samples in microseconds.
#[derive(Debug, Clone, Default)]
pub struct Dist {
    sorted_us: Vec<f64>,
}

impl Dist {
    /// Builds a distribution from nanosecond samples.
    pub fn from_ns(samples: &[u64]) -> Dist {
        let mut sorted_us: Vec<f64> = samples.iter().map(|&ns| ns as f64 / 1e3).collect();
        sorted_us.sort_by(f64::total_cmp);
        Dist { sorted_us }
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.sorted_us.len()
    }

    /// Nearest-rank percentile in microseconds.
    pub fn p(&self, p: f64) -> Option<f64> {
        percentile(&self.sorted_us, p)
    }

    /// The `want`-th percentile when at least [`MIN_BEYOND`] samples lie
    /// beyond it, else the highest percentile that many samples support
    /// (the median when none does), so a tail never rests on a handful of
    /// samples. `None` without samples.
    pub fn tail(&self, want: f64) -> Option<Tail> {
        let n = self.len();
        let p = if beyond(n, want) >= MIN_BEYOND {
            want
        } else {
            highest_supported(n).unwrap_or(50.0).min(want)
        };
        Some(Tail {
            value: self.p(p)?,
            p,
            n,
        })
    }
}

/// CPU steal ticks so far, summed over the machine's CPUs: time the
/// hypervisor ran something else while the machine's CPUs wanted to run
/// (`/proc/stat`, eighth value of the `cpu` line). 0 where the counter
/// does not exist.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("cpu "))?;
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into an FNV-1a 64-bit digest.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_median_and_tail() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 19 samples: the median leaves 9 beyond it, not enough.
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(40), Some(75.0));
        // p90 of 100 leaves exactly 10 beyond.
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(999), Some(90.0));
        // p99 of 1000 leaves exactly 10 beyond.
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert_eq!(highest_supported(0), None);
    }

    #[test]
    fn tails_fall_back_to_what_the_sample_count_supports() {
        let ns = |n: u64| (1..=n).map(|i| i * 1000).collect::<Vec<_>>();
        let tail = |n: u64, want: f64| {
            Dist::from_ns(&ns(n))
                .tail(want)
                .map(|t| (t.value, t.p, t.n))
        };
        // 1000 samples carry a p99 (10 beyond) and report it.
        assert_eq!(tail(1000, 99.0), Some((990.0, 99.0, 1000)));
        assert_eq!(tail(1000, 50.0), Some((500.0, 50.0, 1000)));
        // 60 samples carry no p99 or p90; p75 leaves 15 beyond.
        assert_eq!(tail(60, 99.0), Some((45.0, 75.0, 60)));
        // Below 20 samples nothing is supported: the median stands in.
        assert_eq!(tail(9, 99.0), Some((5.0, 50.0, 9)));
        assert_eq!(Dist::from_ns(&[]).tail(50.0), None);
    }

    #[test]
    fn fnv_is_order_sensitive() {
        assert_ne!(fnv1a(FNV_OFFSET, b"ab"), fnv1a(FNV_OFFSET, b"ba"));
        assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
    }
}
