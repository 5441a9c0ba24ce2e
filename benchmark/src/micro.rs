//! Timed calls into single layers that the walk cannot isolate (the codec runs inside
//! `on_reply`) or that no workload crosses (the campaign engine).

use crate::report::Metrics;
use crate::stats::median;
use legostore_campaign::{run_campaign, SweepSpec, Tier};
use legostore_erasure::{decode_value, encode_value, gf256};
use std::hint::black_box;
use std::time::Instant;

/// Median time of `f` over `reps` calls, in ns.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// `erasure.*` at the workload's `(n, k)` and value size: `encode_value`, `decode_value`
/// from the `k` data symbols, `decode_value` from the last `k` symbols (as many parity
/// symbols as the code has, forcing the matrix-inversion path).
pub fn erasure(value: &[u8], n: usize, k: usize, reps: usize) -> Metrics {
    let mut m = Metrics::default();
    let shards = encode_value(value, n, k).expect("valid code parameters");
    let encode = median_ns(reps, || {
        black_box(encode_value(black_box(value), n, k).expect("valid"));
    });
    let data = &shards[..k];
    let parity = &shards[n - k..];
    assert_eq!(decode_value(parity, n, k).expect("decodes"), value);
    let decode_data = median_ns(reps, || {
        black_box(decode_value(black_box(data), n, k).expect("decodes"));
    });
    let decode_parity = median_ns(reps, || {
        black_box(decode_value(black_box(parity), n, k).expect("decodes"));
    });
    m.set("erasure.encode_ns", encode, reps as u64);
    m.set("erasure.decode_data_ns", decode_data, reps as u64);
    m.set("erasure.decode_parity_ns", decode_parity, reps as u64);
    m
}

/// `erasure.*` for a workload that never touches the codec.
pub fn erasure_idle() -> Metrics {
    let mut m = Metrics::default();
    for name in [
        "erasure.encode_ns",
        "erasure.decode_data_ns",
        "erasure.decode_parity_ns",
    ] {
        m.set(name, 0.0, 0);
    }
    m
}

/// Throughput of `gf256::mul_acc_slice` over a 64 KiB slice, in GB/s of source bytes.
pub fn gf_mul_acc_gbps(reps: usize) -> (f64, u64) {
    const LEN: usize = 64 * 1024;
    let src: Vec<u8> = (0..LEN).map(|i| (i * 31 + 7) as u8).collect();
    let mut dst = vec![0u8; LEN];
    let ns = median_ns(reps, || {
        gf256::mul_acc_slice(black_box(&mut dst), black_box(&src), 0x53);
    });
    black_box(&dst);
    (LEN as f64 / ns, reps as u64)
}

/// Runs the campaign's smoke tier twice on one thread: cells per second of the faster
/// run, and a problem if the two runs' cell fingerprints differ or a cell fails.
pub fn campaign_smoke() -> (f64, u64, Vec<String>) {
    let spec = SweepSpec::for_tier(Tier::Smoke);
    let mut problems = Vec::new();
    let mut rates = Vec::new();
    let mut fingerprints = Vec::new();
    let mut cells = 0;
    for _ in 0..2 {
        let started = Instant::now();
        let outcomes = run_campaign(&spec, 1);
        rates.push(outcomes.len() as f64 / started.elapsed().as_secs_f64());
        cells = outcomes.len() as u64;
        for o in outcomes.iter().filter(|o| !o.passed()) {
            problems.push(format!(
                "campaign cell {} failed: {:?}",
                o.cell_id, o.violations
            ));
        }
        fingerprints.push(
            outcomes
                .iter()
                .map(|o| (o.sim_fingerprint, o.obs_digest))
                .collect::<Vec<_>>(),
        );
    }
    if fingerprints[0] != fingerprints[1] {
        problems.push("two runs of the campaign smoke tier produced different fingerprints".into());
    }
    problems.sort();
    problems.dedup();
    (rates.into_iter().fold(0.0, f64::max), cells, problems)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erasure_metrics_are_nonzero_nanoseconds() {
        let value: Vec<u8> = (0..10_000).map(|i| i as u8).collect();
        let m = erasure(&value, 5, 3, 5);
        for name in [
            "erasure.encode_ns",
            "erasure.decode_data_ns",
            "erasure.decode_parity_ns",
        ] {
            assert!(m.get(name).unwrap() > 0.0, "{name}");
        }
        assert_eq!(erasure_idle().get("erasure.encode_ns"), Some(0.0));
        assert!(gf_mul_acc_gbps(5).0 > 0.0);
    }
}
