//! The statistics helpers behind the reported metrics.

use fmaverify_perfbench::stats::{
    job_tail, median, nearest_rank, quartiles, relative_spread, tail_percentile, TAIL_BEYOND,
    TAIL_MIN_JOBS,
};

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[7.5]), 7.5);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Values from Python 3: statistics.quantiles(data, n=4).
    let data: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&data), [2.75, 5.5, 8.25]);
    assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), [1.5, 3.0, 4.5]);
    assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), [1.25, 2.5, 3.75]);
    // Two values: Python extrapolates below and above the data.
    assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    assert_eq!(quartiles(&[5.0]), [5.0, 5.0, 5.0]);
}

#[test]
fn relative_spread_is_iqr_over_median() {
    let data: Vec<f64> = (1..=10).map(f64::from).collect();
    assert!((relative_spread(&data) - 5.5 / 5.5).abs() < 1e-12);
    assert_eq!(relative_spread(&[2.0; 10]), 0.0);
}

#[test]
fn tail_needs_forty_jobs() {
    assert_eq!(TAIL_MIN_JOBS, 40);
    assert_eq!(tail_percentile(39), None);
    assert_eq!(tail_percentile(40), Some(75));
    assert_eq!(tail_percentile(60), Some(83));
    assert_eq!(tail_percentile(147), Some(93));
}

#[test]
fn tail_percentile_is_the_highest_with_ten_jobs_beyond() {
    for n in TAIL_MIN_JOBS..2000 {
        let values: Vec<f64> = (1..=n).map(|v| v as f64).collect();
        let p = tail_percentile(n).expect("enough jobs");
        let beyond = |p: usize| {
            let cut = nearest_rank(&values, p);
            values.iter().filter(|&&v| v > cut).count()
        };
        assert!(beyond(p) >= TAIL_BEYOND, "n={n} p={p}");
        assert!(
            beyond(p + 1) < TAIL_BEYOND,
            "n={n}: p{} also qualifies",
            p + 1
        );
    }
}

#[test]
fn job_tail_falls_back_to_the_slowest_job() {
    let few = [5.0, 1.0, 9.0, 3.0];
    assert_eq!(job_tail(&few), 9.0);
    let many: Vec<f64> = (1..=60).map(f64::from).collect();
    assert_eq!(job_tail(&many), 50.0);
}

#[test]
fn nearest_rank_bounds() {
    let values = [10.0, 20.0, 30.0, 40.0];
    assert_eq!(nearest_rank(&values, 0), 10.0);
    assert_eq!(nearest_rank(&values, 50), 20.0);
    assert_eq!(nearest_rank(&values, 51), 30.0);
    assert_eq!(nearest_rank(&values, 100), 40.0);
}
