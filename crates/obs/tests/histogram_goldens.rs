//! Golden tests pinning the histogram arithmetic.
//!
//! Metric histograms estimate quantiles from log₂ buckets with in-bucket linear
//! interpolation; hand-computed goldens pin the estimate so a change to the buckets
//! can't silently skew reported percentiles.

use legostore_obs::{bucket_bounds, bucket_index, Histogram};

#[test]
fn log2_bucket_boundaries_are_exact() {
    // Bucket 0 is [0, 2); bucket i >= 1 is [2^i, 2^(i+1)).
    assert_eq!(bucket_index(0), 0);
    assert_eq!(bucket_index(1), 0);
    assert_eq!(bucket_index(2), 1);
    assert_eq!(bucket_index(3), 1);
    assert_eq!(bucket_index(4), 2);
    assert_eq!(bucket_index(7), 2);
    assert_eq!(bucket_index(8), 3);
    assert_eq!(bucket_index(1_023), 9);
    assert_eq!(bucket_index(1_024), 10);
    assert_eq!(bucket_index(u64::MAX), 63);

    assert_eq!(bucket_bounds(0), (0, 2));
    assert_eq!(bucket_bounds(1), (2, 4));
    assert_eq!(bucket_bounds(10), (1 << 10, 1 << 11));
    assert_eq!(bucket_bounds(63), (1 << 63, u64::MAX));

    // Every representable value lands inside its bucket's bounds.
    for v in [0u64, 1, 2, 3, 1_000, 123_456_789, u64::MAX / 2, u64::MAX] {
        let (lo, hi) = bucket_bounds(bucket_index(v));
        assert!(lo <= v && (v < hi || v == u64::MAX), "{v} outside [{lo}, {hi})");
    }
}

#[test]
fn interpolated_quantiles_golden_uniform_1_to_100() {
    // Recording 1..=100 fills buckets: idx0 holds {1} (1 sample), idx1 {2,3},
    // idx2 {4..7}, idx3 {8..15}, idx4 {16..31}, idx5 {32..63}, idx6 {64..100} (37).
    let h = Histogram::default();
    for v in 1..=100u64 {
        h.record(v);
    }
    let s = h.snapshot();
    assert_eq!(s.count, 100);
    assert_eq!(s.sum, 5_050);
    assert_eq!(s.buckets, vec![(0, 1), (1, 2), (2, 4), (3, 8), (4, 16), (5, 32), (6, 37)]);

    // p50: rank 50 falls in bucket 5 ([32, 64), 32 samples, 31 before it):
    // 32 + (50 - 31) / 32 * 32 = 51.
    assert!((s.quantile(0.50) - 51.0).abs() < 1e-9, "{}", s.quantile(0.50));
    // p99: rank 99 falls in bucket 6 ([64, 128), 37 samples, 63 before it):
    // 64 + (99 - 63) / 37 * 64.
    let p99 = 64.0 + 36.0 / 37.0 * 64.0;
    assert!((s.quantile(0.99) - p99).abs() < 1e-9, "{}", s.quantile(0.99));
    // p0 is the low edge of the first non-empty bucket; p1 (rank 1, exactly the one
    // sample of bucket 0) is that bucket's high edge under interpolation.
    assert!((s.quantile(0.0) - 0.0).abs() < 1e-9);
    assert!((s.quantile(0.01) - 2.0).abs() < 1e-9);
    // q > 1 clamps to the top of the distribution.
    assert!((s.quantile(2.0) - 128.0).abs() < 1e-9);
    assert!((s.mean() - 50.5).abs() < 1e-9);
}

#[test]
fn single_sample_quantile_interpolates_inside_its_bucket() {
    // One sample of 1000 sits in bucket 9 ([512, 1024)); the p50 estimate is the
    // bucket midpoint — a factor-of-2-bounded estimate, pinned exactly here.
    let h = Histogram::default();
    h.record(1_000);
    let s = h.snapshot();
    assert!((s.quantile(0.50) - 768.0).abs() < 1e-9, "{}", s.quantile(0.50));
    assert!((s.quantile(1.0) - 1_024.0).abs() < 1e-9);
}

#[test]
fn empty_histogram_quantiles_are_zero() {
    let s = Histogram::default().snapshot();
    assert_eq!(s.quantile(0.5), 0.0);
    assert_eq!(s.mean(), 0.0);
}

#[test]
fn identical_recordings_snapshot_identically() {
    let run = || {
        let h = Histogram::default();
        for v in [3u64, 17, 17, 250_000, 1, 999] {
            h.record(v);
        }
        h.snapshot()
    };
    assert_eq!(run(), run());
}
