//! Order statistics for latencies and for run-to-run spread.

/// Percentiles offered as the tail of a latency summary.
const TAIL_LADDER: [f64; 5] = [90.0, 99.0, 99.9, 99.99, 99.999];

/// A latency sample summarized the way the benchmark reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
    pub max: f64,
    /// The highest percentile of [`TAIL_LADDER`] with at least ten
    /// samples beyond it (`None` below 100 samples).
    pub tail: Option<(f64, f64)>,
}

/// Nearest-rank percentile of an ascending sample.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    // The epsilon keeps decimal percentiles such as 99.9 from rounding
    // up a whole rank.
    let rank = (pct / 100.0 * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn summarize(samples: &mut [f64]) -> Summary {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let tail = TAIL_LADDER
        .iter()
        .rev()
        .find(|&&p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
        .map(|&p| (p, percentile(samples, p)));
    Summary {
        n,
        p50: percentile(samples, 50.0),
        p95: percentile(samples, 95.0),
        p99: percentile(samples, 99.0),
        max: samples[n - 1],
        tail,
    }
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// does, so spreads match what the benchmark's own acceptance check sees.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    if ld == 1 {
        return (d[0], d[0], d[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}
