//! The benchmark's own statistics: order statistics over samples, the
//! percentile rule, run-to-run spread, and the metric-name grammar.

/// Median of a sample (mean of the two middle values for even counts).
/// `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some(0.5 * (v[n / 2 - 1] + v[n / 2])),
    }
}

/// How many of `n` timing samples a run's timings are taken from: the
/// best quarter (rounded up). On a shared host the same work runs up to
/// half as fast again while neighbours are busy, for seconds at a time;
/// the best quarter of a run's samples are the ones they disturbed
/// least. Work that got slower is slower in its best samples too.
pub fn best_share(n: usize) -> usize {
    n.div_ceil(4)
}

/// Median of the [`best_share`] smallest values. `None` for an empty
/// sample.
pub fn best_median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.truncate(best_share(v.len()));
    median(&v)
}

/// Latency histogram: 1 % wide log buckets from 1 µs to about 100 ms
/// (slower requests land in the top bucket) plus one bucket for failed
/// requests. Only buckets in use are stored, as (bucket, count) in
/// bucket order, so a histogram per short timing window stays a few
/// hundred bytes and the benchmark's own bookkeeping barely moves
/// `peak_rss_mb`.
#[derive(Clone, Default)]
pub struct LatencyHist {
    counts: Vec<(u16, u32)>,
}

const HIST_MIN_NS: f64 = 1e3;
const HIST_GROWTH: f64 = 1.01;
const HIST_FINITE: u16 = 1158;

impl LatencyHist {
    pub fn record_ns(&mut self, ns: u64) {
        let b = ((ns as f64 / HIST_MIN_NS).max(1.0).ln() / HIST_GROWTH.ln()) as usize;
        self.bump(b.min(HIST_FINITE as usize - 1) as u16, 1);
    }

    pub fn record_failed(&mut self) {
        self.bump(HIST_FINITE, 1);
    }

    fn bump(&mut self, bucket: u16, count: u32) {
        match self.counts.binary_search_by_key(&bucket, |e| e.0) {
            Ok(i) => self.counts[i].1 += count,
            Err(i) => self.counts.insert(i, (bucket, count)),
        }
    }

    pub fn add(&mut self, other: &LatencyHist) {
        for &(b, c) in &other.counts {
            self.bump(b, c);
        }
    }

    pub fn len(&self) -> usize {
        self.counts.iter().map(|&(_, c)| c as usize).sum()
    }

    /// Nearest-rank `q` percentile in µs, `failed_us` when it falls on a
    /// failed request; within a bucket, interpolated by rank. `None`
    /// when empty.
    pub fn percentile_us(&self, q: f64, failed_us: f64) -> Option<f64> {
        let rank = nearest_rank(self.len(), q)?;
        let mut below = 0usize;
        for &(b, c) in &self.counts {
            let c = c as usize;
            if rank < below + c {
                if b == HIST_FINITE {
                    return Some(failed_us);
                }
                let frac = (rank - below) as f64 / c as f64;
                return Some(HIST_MIN_NS * HIST_GROWTH.powf(b as f64 + frac) / 1e3);
            }
            below += c;
        }
        None
    }
}

/// Index of the nearest-rank `q` percentile in an ascending sample of
/// `n`: the smallest rank with at least `q` of the sample at or below it.
fn nearest_rank(n: usize, q: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let rank = (q * n as f64).ceil() as usize;
    Some(rank.clamp(1, n) - 1)
}

/// Samples ranked strictly above the nearest-rank `q` percentile of a
/// sample of `n`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    nearest_rank(n, q).map_or(0, |r| n - r - 1)
}

/// The percentile rule: a tail percentile is reported only when at
/// least ten samples lie beyond it.
pub fn percentile_is_valid(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= 10
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// (its default "exclusive" method) computes them. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len as i64 + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4i64) {
        let j = (i * m / 4).clamp(1, len as i64 - 1);
        // Negative when `j` was clamped up, as in CPython.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Run-to-run spread: interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// A metric or workload name: a letter or digit, then at most 63 more
/// letters, digits, `_`, `.` or `-`.
pub fn is_valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let first_ok = chars.next().is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` or `-`.
pub fn is_valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Expected values printed by CPython 3.11's
        // `statistics.quantiles(v, n=4)`.
        let cases: [(&[f64], [f64; 3]); 4] = [
            (
                &[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.],
                [2.75, 5.5, 8.25],
            ),
            (&[3.5, 1.25, 9.0, 2.0, 7.75], [1.625, 3.5, 8.375]),
            (&[5.0, 5.0], [5.0, 5.0, 5.0]),
            (
                &[1., 2., 3., 4., 5., 6., 7., 8., 9., 10., 11.],
                [3.0, 6.0, 9.0],
            ),
        ];
        for (values, want) in cases {
            assert_eq!(quartiles(values), Some(want), "{values:?}");
        }
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v = [1., 2., 3., 4., 5., 6., 7., 8., 9., 10.];
        assert_eq!(spread(&v), Some((8.25 - 2.75) / 5.5));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn best_median_is_the_median_of_the_best_quarter() {
        // Nine samples: the best quarter is the three smallest.
        let v = [9.0, 3.0, 7.0, 1.0, 8.0, 2.0, 6.0, 4.0, 5.0];
        assert_eq!(best_median(&v), Some(2.0));
        let v: Vec<f64> = (1..=8).rev().map(f64::from).collect();
        assert_eq!(best_median(&v), Some(1.5));
        assert_eq!(best_median(&[4.0]), Some(4.0));
        assert_eq!(best_median(&[]), None);
        assert_eq!([1, 4, 5, 100].map(best_share), [1, 1, 2, 25]);
    }

    #[test]
    fn histogram_percentiles_are_within_a_bucket() {
        let mut h = LatencyHist::default();
        for us in 1..=1000u64 {
            h.record_ns(us * 1000);
        }
        assert_eq!(h.len(), 1000);
        for (q, want) in [(0.5, 500.0), (0.99, 990.0), (0.0, 1.0)] {
            let got = h.percentile_us(q, 1e7).unwrap();
            assert!((got / want - 1.0).abs() <= 0.011, "q {q}: {got} vs {want}");
        }
        // Failed requests rank above every latency.
        let mut f = LatencyHist::default();
        f.record_ns(5_000);
        f.record_failed();
        assert_eq!(f.percentile_us(0.99, 1e7), Some(1e7));
        let mut sum = LatencyHist::default();
        sum.add(&h);
        sum.add(&f);
        assert_eq!(sum.len(), 1002);
        assert_eq!(LatencyHist::default().percentile_us(0.5, 1e7), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 is rank 990, ten ranked above it.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!(percentile_is_valid(1000, 0.99));
        assert!(!percentile_is_valid(999, 0.99));
        assert!(percentile_is_valid(20, 0.5));
        assert!(!percentile_is_valid(0, 0.5));
    }

    #[test]
    fn name_and_unit_grammar() {
        for ok in [
            "setup_s",
            "core.train_s.knn",
            "regen-allreduce",
            "9lives",
            &"a".repeat(64),
        ] {
            assert!(is_valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "µs", &"a".repeat(65)] {
            assert!(!is_valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "req/s", "%", "MiB"] {
            assert!(is_valid_unit(ok), "{ok}");
        }
        for bad in ["", "µs", "per second", &"x".repeat(17)] {
            assert!(!is_valid_unit(bad), "{bad}");
        }
    }
}
