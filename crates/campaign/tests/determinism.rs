//! Campaign determinism and the negative control.
//!
//! The whole value of a regression campaign is that its reports are *diffable*: the
//! same sweep spec and seed base must produce byte-identical CSV and JSON no matter
//! how the cells were scheduled across workers. And a checker that can never fail is
//! worthless, so the negative control injects a known-stale history and asserts the
//! linearizability failure survives all the way into the reports.

use legostore_campaign::runner::run_campaign;
use legostore_campaign::{
    outcome_from_report, Aggregator, CampaignReport, ExpectedProperty, ScenarioFamily, SweepSpec,
    Tier,
};
use legostore_lincheck::HistoryRecorder;
use legostore_sim::{OpRecord, SimReport};
use legostore_types::{DcId, OpKind};
use std::sync::Arc;

fn aggregate(tier: Tier, threads: usize) -> CampaignReport {
    let spec = SweepSpec::for_tier(tier);
    let mut agg = Aggregator::new(tier.label());
    for outcome in run_campaign(&spec, threads) {
        agg.ingest(outcome);
    }
    agg.finish()
}

#[test]
fn smoke_reports_are_byte_identical_across_runs_and_thread_counts() {
    // Different worker counts force different completion interleavings; the reports
    // must not care.
    let a = aggregate(Tier::Smoke, 2);
    let b = aggregate(Tier::Smoke, 4);
    assert_eq!(a.to_csv(), b.to_csv(), "CSV must be byte-identical across reruns");
    assert_eq!(a.to_json(), b.to_json(), "JSON must be byte-identical across reruns");
    assert!(a.failures().is_empty(), "smoke cells failed: {:?}", a.failures());
    // The smoke tier's pinned identity (23 cells). A change that moves it on purpose
    // edits this literal and says why.
    assert_eq!(a.rows.len(), 23, "smoke tier writes one row per cell");
    assert_eq!(format!("{:016x}", a.fingerprint), "d288593a3adbacd3");
}

/// Negative control: a run whose history contains a stale read (a value read *after*
/// a later write completed) must be reported as a linearizability failure — by the
/// outcome, by the CSV row, and by the campaign's failure list. A checker pipeline
/// that swallows this is broken.
#[test]
fn injected_stale_read_is_reported_not_swallowed() {
    let cell = SweepSpec::for_tier(Tier::Smoke)
        .cells()
        .into_iter()
        .find(|c| c.family == ScenarioFamily::Baseline)
        .unwrap();

    let recorder = HistoryRecorder::new();
    recorder.register_key("key-0", 0);
    recorder.record_put("key-0", 1, 0xAAAA, 100, 200);
    recorder.record_put("key-0", 2, 0xBBBB, 300, 400);
    // Stale: reads the first value strictly after the second write returned.
    recorder.record_get("key-0", 3, 0xAAAA, 500, 600);

    let mut report = SimReport::default();
    for i in 0..3u32 {
        report.operations.push(OpRecord {
            origin: DcId(0),
            kind: if i < 2 { OpKind::Put } else { OpKind::Get },
            key: "key-0".into(),
            start_ms: f64::from(i) * 10.0,
            end_ms: f64::from(i) * 10.0 + 5.0,
            ok: true,
            one_phase: false,
            reconfig_retries: 0,
            timeout_retries: 0,
            object_bytes: 1024,
        });
    }
    report.histories = Some(Arc::new(recorder));

    let outcome =
        outcome_from_report(&cell, "abd".into(), &report, &ExpectedProperty::always_live());
    assert_eq!(outcome.linearizable, Some(false));
    assert!(
        outcome.violations.iter().any(|v| v.contains("non-linearizable")),
        "stale read must surface as a violation: {:?}",
        outcome.violations
    );

    let mut agg = Aggregator::new("negative-control");
    agg.ingest(outcome);
    let campaign = agg.finish();
    assert_eq!(campaign.failures().len(), 1, "the failing cell must be listed");
    let csv = campaign.to_csv();
    let row = csv.lines().nth(1).expect("one data row");
    assert!(row.contains(",false,"), "CSV must mark the cell non-linearizable: {row}");
    assert!(campaign.to_json().contains("non-linearizable"));
}
