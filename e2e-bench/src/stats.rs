//! Order statistics over the benchmark's own samples.

/// Sorts ascending; every sample the benchmark takes is finite.
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Exact nearest-rank percentile of an ascending slice — the element at
/// `round((n − 1)·q)`, the same rule `FleetReport::frame_age` uses, so
/// the benchmark's own latencies and the program's are comparable.
/// Zero for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// Median (mean of the two middle elements for an even count); zero
/// for no values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The value a quarter of the way in from the better end of a run's
/// slices. The host this runs on slows by half for seconds at a time (a
/// busy sibling hyper-thread, stolen time), which only ever makes a
/// slice worse, so — as with the minimum of repeated timings — the
/// better slices are the ones that measured the program and not the
/// neighbours; the quartile rather than the single best keeps one
/// lucky slice from setting the figure. Zero for no values.
pub fn quiet_quartile(values: &[f64], higher_is_better: bool) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    if higher_is_better {
        v.reverse();
    }
    v.get(v.len().saturating_sub(1) / 4).copied().unwrap_or(0.0)
}

/// Median of repeated timings: `once` does the work and returns the
/// seconds it took; it is repeated at least 5 times, then until a
/// quarter second has gone or 25 repetitions are done, so a cheap
/// set-up is sampled often and a dear one does not eat the run.
pub fn median_of_repeats(mut once: impl FnMut() -> f64) -> f64 {
    let mut times = Vec::new();
    while times.len() < 5 || (times.len() < 25 && times.iter().sum::<f64>() < 0.25) {
        times.push(once());
    }
    median(&times)
}

/// Arithmetic mean; zero for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default exclusive method) computes them. Needs two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    let at = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median — the spread the
/// driver holds each end-to-end metric's bound against.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_matches_a_sorted_reference() {
        // A scrambled 0..=1000 ramp: the q-th percentile is 1000·q.
        let mut v: Vec<f64> = (0..=1000).map(|i| ((i * 7919) % 1001) as f64).collect();
        sort(&mut v);
        let reference: Vec<f64> = (0..=1000).map(f64::from).collect();
        assert_eq!(v, reference);
        for (q, want) in [
            (0.0, 0.0),
            (0.5, 500.0),
            (0.95, 950.0),
            (0.99, 990.0),
            (1.0, 1000.0),
        ] {
            assert_eq!(percentile(&v, q), want);
        }
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.5), 2.0); // round-half-away, as AgeProfile does
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn repeats_are_bounded_both_ways() {
        let mut calls = 0;
        let dear = median_of_repeats(|| {
            calls += 1;
            1.0
        });
        assert_eq!((calls, dear), (5, 1.0));
        let mut calls = 0;
        median_of_repeats(|| {
            calls += 1;
            1e-6
        });
        assert_eq!(calls, 25);
    }

    #[test]
    fn quiet_quartile_sits_a_quarter_in_from_the_better_end() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0, 6.0, 7.0, 8.0, 9.0];
        assert_eq!(quiet_quartile(&v, false), 3.0);
        assert_eq!(quiet_quartile(&v, true), 7.0);
        assert_eq!(quiet_quartile(&[2.0, 1.0, 3.0], true), 3.0);
        assert_eq!(quiet_quartile(&[], true), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(quartiles(&[10.0, 20.0, 30.0, 40.0, 50.0]), (15.0, 45.0));
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
    }
}
