//! Trace generation must be deterministic across runs, processes and platforms:
//! every simulated paper claim, campaign cell and benchmark run relies on seeded
//! workloads being exactly reproducible. These tests pin both same-process equality (two generators, same
//! seed, identical output) and a golden fingerprint of the generated stream (which
//! would catch a change to the shim `StdRng` stream or to the generators' draw
//! order between runs).

use legostore_workload::wikipedia::{synthesize_wikipedia, WikipediaParams};
use legostore_workload::{TraceGenerator, WorkloadSpec};

/// FNV-1a over a stable byte encoding; avoids depending on `Hash` internals.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn trace_fingerprint(requests: &[legostore_workload::Request]) -> u64 {
    fnv1a(requests.iter().flat_map(|r| {
        r.time_ms
            .to_bits()
            .to_le_bytes()
            .into_iter()
            .chain((r.origin.0 as u64).to_le_bytes())
            .chain((r.key_index as u64).to_le_bytes())
            .chain(r.object_size.to_le_bytes())
            .chain([matches!(r.kind, legostore_types::OpKind::Get) as u8])
    }))
}

#[test]
fn same_seed_same_trace() {
    let spec = WorkloadSpec::example();
    let a = TraceGenerator::new(spec.clone(), 16, 42).generate_count(500);
    let b = TraceGenerator::new(spec.clone(), 16, 42).generate_count(500);
    assert_eq!(a, b);

    let c = TraceGenerator::new(spec, 16, 43).generate_count(500);
    assert_ne!(a, c, "different seeds must give different traces");
}

#[test]
fn trace_stream_is_pinned() {
    let spec = WorkloadSpec::example();
    let requests = TraceGenerator::new(spec, 16, 42).generate_count(500);
    assert_eq!(requests.len(), 500);
    // Golden value: recompute only if the StdRng stream or the generator's draw
    // order changes intentionally, and say so in the commit message.
    assert_eq!(trace_fingerprint(&requests), 0xF944_4C44_A668_37F2);
}

#[test]
fn duration_based_generation_is_deterministic() {
    let spec = WorkloadSpec::example();
    let a = TraceGenerator::new(spec.clone(), 4, 7).generate(10_000.0);
    let b = TraceGenerator::new(spec, 4, 7).generate(10_000.0);
    assert!(!a.is_empty());
    assert_eq!(a, b);
    assert!(a.windows(2).all(|w| w[0].time_ms <= w[1].time_ms));
}

#[test]
fn wikipedia_synthesis_is_pinned() {
    let model = legostore_cloud::CloudModel::gcp9();
    let params = WikipediaParams {
        num_keys: 64,
        ..WikipediaParams::default()
    };
    let a = synthesize_wikipedia(&model, &params, 9);
    let b = synthesize_wikipedia(&model, &params, 9);
    assert_eq!(a.len(), 64);

    for (ka, kb) in a.iter().zip(&b) {
        assert_eq!(ka.name, kb.name);
        assert_eq!(ka.rank, kb.rank);
        assert_eq!(ka.t1.object_size, kb.t1.object_size);
        assert_eq!(ka.t1.arrival_rate.to_bits(), kb.t1.arrival_rate.to_bits());
        assert_eq!(ka.t2.arrival_rate.to_bits(), kb.t2.arrival_rate.to_bits());
    }

    // Popularity ranks are Zipf: rates must be non-increasing in rank.
    assert!(a.windows(2).all(|w| w[0].t1.arrival_rate >= w[1].t1.arrival_rate));

    let size_fp = fnv1a(a.iter().flat_map(|k| k.t1.object_size.to_le_bytes()));
    // Golden value, same recompute rule as `trace_stream_is_pinned`.
    assert_eq!(size_fp, 0xDD5A_D950_4248_1B3F);
}
