//! Summary statistics and the one-line JSON result.

use std::fmt::Write as _;

/// The exact nearest-rank `p`-th quantile (`0 < p <= 1`) of `samples`,
/// which it reorders. `None` when empty.
pub fn quantile(samples: &mut [u32], p: f64) -> Option<u32> {
    if samples.is_empty() {
        return None;
    }
    let rank = ((p * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    let (_, v, _) = samples.select_nth_unstable(rank - 1);
    Some(*v)
}

/// Sub-buckets per power of two in [`LatencyHist`]: 1/256 relative
/// resolution.
const SUB_BITS: u32 = 8;
const SUB: usize = 1 << SUB_BITS;

/// A fixed-size log-linear histogram of nanosecond latencies: exact below
/// 256 ns, then 256 buckets per power of two. Its memory does not grow
/// with the number of samples, so the benchmark's own bookkeeping does
/// not move the process's peak RSS.
#[derive(Clone)]
pub struct LatencyHist {
    counts: Box<[u32]>,
    total: u64,
}

impl std::fmt::Debug for LatencyHist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHist")
            .field("total", &self.total)
            .finish()
    }
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist {
            counts: vec![0; SUB * (65 - SUB_BITS as usize)].into_boxed_slice(),
            total: 0,
        }
    }
}

impl LatencyHist {
    fn index(ns: u64) -> usize {
        if ns < SUB as u64 {
            return ns as usize;
        }
        let shift = 63 - ns.leading_zeros() - SUB_BITS;
        SUB * (shift as usize + 1) + ((ns >> shift) as usize - SUB)
    }

    /// The midpoint of bucket `i`.
    fn value(i: usize) -> f64 {
        if i < SUB {
            return i as f64;
        }
        let shift = (i / SUB - 1) as u32;
        let low = ((SUB + i % SUB) as u64) << shift;
        low as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
    }

    /// Records one latency.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Adds `other`'s samples.
    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The nearest-rank `p`-th quantile (`0 < p <= 1`), to the bucket's
    /// resolution. `None` when empty.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((p * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            seen += u64::from(n);
            if seen >= rank {
                return Some(Self::value(i));
            }
        }
        unreachable!("ranks stop at the total")
    }
}

/// The `p`-th quantile (`0 <= p <= 1`) of `values`, interpolated
/// linearly between neighbouring ranks. `0.0` when empty.
pub fn interpolated(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

/// The median of `values` (mean of the middle two for an even count).
/// `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    interpolated(values, 0.5)
}

/// `num / den`, or `0.0` when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Named metrics in insertion order, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Adds one metric. Non-finite values are a bug in the caller.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.entries.push((name.to_owned(), value, unit));
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn to_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), Some(50));
        assert_eq!(quantile(&mut v, 0.99), Some(99));
        assert_eq!(quantile(&mut v, 1.0), Some(100));
        assert_eq!(quantile(&mut [], 0.5), None);
    }

    #[test]
    fn latency_hist_is_exact_low_and_tight_high() {
        let mut h = LatencyHist::default();
        for ns in 1..=100u64 {
            h.record(ns);
        }
        assert_eq!(h.quantile(0.5), Some(50.0));
        assert_eq!(h.quantile(0.99), Some(99.0));
        let mut wide = LatencyHist::default();
        for ns in [1_000u64, 123_456, 9_876_543_210] {
            wide.record(ns);
            let got = wide.quantile(1.0).unwrap();
            assert!(
                (got - ns as f64).abs() <= ns as f64 / 256.0,
                "{ns} -> {got}"
            );
        }
        let mut merged = LatencyHist::default();
        merged.merge(&h);
        merged.merge(&wide);
        assert_eq!(merged.count(), 103);
        assert_eq!(LatencyHist::default().quantile(0.5), None);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn interpolated_runs_between_ranks() {
        let v = [40.0, 10.0, 30.0, 20.0, 50.0];
        assert_eq!(interpolated(&v, 0.0), 10.0);
        assert_eq!(interpolated(&v, 0.9), 46.0);
        assert_eq!(interpolated(&v, 1.0), 50.0);
        assert_eq!(interpolated(&[7.0], 0.1), 7.0);
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut m = Metrics::default();
        m.put("ops_per_s", 1234.5, "1/s");
        m.put("setup_s", 0.25, "s");
        assert_eq!(
            m.to_json(true, 10, 0),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"ops_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
