//! The few order statistics the benchmark reports, in one place so every metric uses
//! the same definition.

/// Median of `values` (mean of the two middle elements for an even count).
///
/// Panics on an empty slice: a metric with no samples is a harness bug, not a number.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest element with at least
/// `p` of the samples at or below it. `p` is a fraction in `(0, 1]`.
pub fn percentile_sorted<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` and returns their `p`-th nearest-rank percentile.
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    samples.sort_unstable();
    percentile_sorted(samples, p)
}

/// Midmean (interquartile mean) of an ascending slice: the mean of the samples between
/// the first and the third quartile. Like the median it ignores both tails; unlike the
/// median it moves continuously when the samples are a handful of distinct values — the
/// modelled latencies of the `geo-*` workloads are one value per (key group, origin).
pub fn midmean_sorted(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "midmean of no samples");
    let n = sorted.len();
    let middle = &sorted[n / 4..(n - n / 4).max(n / 4 + 1)];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// `(max − min) / median` of per-segment values: the spread printed beside every
/// median-of-segments figure.
pub fn segment_spread(values: &[f64]) -> f64 {
    let m = median(values);
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    if m == 0.0 {
        0.0
    } else {
        (max - min) / m
    }
}

/// The quartiles of `values` as Python's `statistics.quantiles(values, n=4)` computes
/// them (the "exclusive" method: position `i·(n+1)/4` with linear interpolation), so
/// `--repeat-check` applies the same rule the acceptance procedure does.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    std::array::from_fn(|i| {
        let pos = (i + 1) * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    })
}

/// Interquartile distance as a share of the median.
pub fn iqr_frac(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_segments_takes_the_middle_value() {
        // Five per-segment throughputs, one of them a noisy-neighbour dip: the median
        // ignores it where a mean would not.
        assert_eq!(median(&[1000.0, 990.0, 400.0, 1010.0, 1005.0]), 1000.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn percentile_selection_is_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&sorted, 0.50), 50);
        assert_eq!(percentile_sorted(&sorted, 0.99), 99);
        assert_eq!(percentile_sorted(&sorted, 1.0), 100);
        // Fewer samples than the percentile resolves: the top sample.
        assert_eq!(percentile_sorted(&[3, 9], 0.99), 9);
        assert_eq!(percentile_sorted(&[3, 9], 0.50), 3);
        let mut unsorted = [30, 10, 20];
        assert_eq!(percentile(&mut unsorted, 0.5), 20);
    }

    #[test]
    fn midmean_is_the_mean_of_the_middle_half() {
        assert_eq!(
            midmean_sorted(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 1000.0]),
            4.5
        );
        assert_eq!(midmean_sorted(&[5.0]), 5.0);
        assert_eq!(midmean_sorted(&[1.0, 3.0]), 2.0);
        // Two modelled values, 60 % / 40 %: the median would read 94; the midmean says how
        // close the split is to tipping.
        let mut v = vec![94.0; 60];
        v.extend(vec![115.0; 40]);
        assert_eq!(midmean_sorted(&v), (35.0 * 94.0 + 15.0 * 115.0) / 50.0);
    }

    #[test]
    fn segment_spread_is_range_over_median() {
        assert_eq!(segment_spread(&[90.0, 100.0, 110.0]), 0.2);
        assert_eq!(segment_spread(&[5.0]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        assert_eq!(iqr_frac(&v), 1.0);
    }
}
