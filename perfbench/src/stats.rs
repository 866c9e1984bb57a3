//! Order statistics for job times and run-to-run spreads.

/// Jobs a workload needs before [`job_tail`] reports a percentile: with
/// fewer, no percentile has [`TAIL_BEYOND`] jobs beyond it and still sits
/// in the upper quarter.
pub const TAIL_MIN_JOBS: usize = 40;

/// Jobs that must lie strictly beyond the tail percentile.
pub const TAIL_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First, second and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method).
/// A single value is its own quartiles.
///
/// # Panics
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no values");
    let v = sorted(values);
    let n = v.len();
    if n == 1 {
        return [v[0]; 3];
    }
    let m = n + 1;
    let mut q = [0.0; 3];
    for (i, slot) in q.iter_mut().enumerate() {
        let k = (i + 1) * m;
        // Python clamps j to [1, n-1] so that j-1 and j index the data,
        // and then extrapolates (delta may leave [0, 4]) for tiny samples.
        let j = (k / 4).clamp(1, n - 1);
        let delta = k as f64 - 4.0 * j as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    q
}

/// Interquartile range as a share of the median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// The highest whole percentile that leaves at least [`TAIL_BEYOND`] of
/// `jobs` samples strictly above its nearest-rank value, or `None` below
/// [`TAIL_MIN_JOBS`] samples.
pub fn tail_percentile(jobs: usize) -> Option<usize> {
    (jobs >= TAIL_MIN_JOBS).then(|| 100 * (jobs - TAIL_BEYOND) / jobs)
}

/// The nearest-rank `p`-th percentile: the smallest value with at least
/// `p` % of the samples at or below it.
///
/// # Panics
/// Panics on an empty slice or `p > 100`.
pub fn nearest_rank(values: &[f64], p: usize) -> f64 {
    assert!(!values.is_empty(), "percentile of no values");
    assert!(p <= 100, "percentile {p} above 100");
    let v = sorted(values);
    let rank = (p * v.len()).div_ceil(100).max(1);
    v[rank - 1]
}

/// The tail job time: the [`tail_percentile`] of the jobs when there are at
/// least [`TAIL_MIN_JOBS`] of them, else the slowest job.
pub fn job_tail(values: &[f64]) -> f64 {
    match tail_percentile(values.len()) {
        Some(p) => nearest_rank(values, p),
        None => sorted(values).last().copied().expect("job_tail of no jobs"),
    }
}
