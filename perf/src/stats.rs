//! Order statistics over a run's samples.

/// Sample count, median and quartiles of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (mean of the two middle samples when `n` is even).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Interquartile distance as a share of the median (0 when the median
    /// is 0).
    pub fn spread(&self) -> f64 {
        ratio(self.q3 - self.q1, self.median.abs())
    }
}

/// `a ÷ b`, or 0 when `b` is 0: a metric with an empty denominator reads
/// 0, never NaN or infinity, so every printed value is a JSON number.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Quartiles by the rule of Python's `statistics.quantiles(v, n=4)` (the
/// exclusive method), so a spread computed here equals the one a reader
/// computes from the printed samples — except that a quartile never leaves
/// the range of the samples: of two samples the rule extrapolates, here
/// the quartiles are the two samples. One sample is its own quartiles.
///
/// Panics on an empty slice or a NaN sample: both are bugs in the caller.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summarize: no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("summarize: NaN sample"));
    let n = v.len();
    let quartile = |i: usize| {
        if n == 1 {
            return v[0];
        }
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        ((v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0).clamp(v[0], v[n - 1])
    };
    Summary {
        n,
        median: (v[(n - 1) / 2] + v[n / 2]) / 2.0,
        q1: quartile(1),
        q3: quartile(3),
    }
}

/// Median alone.
pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}
