//! Streaming aggregation of [`RunOutcome`]s into deterministic CSV / JSON reports.
//!
//! The aggregator is order-insensitive: outcomes may arrive in any completion order
//! (the thread pool races), but [`Aggregator::finish`] sorts rows by cell id and
//! derives every summary from that sorted list, so two runs of the same campaign emit
//! byte-identical reports. No wall-clock time, hostnames or paths appear anywhere in
//! the output — the report's identity is its [`CampaignReport::fingerprint`], an
//! FNV-1a digest of the CSV body that regression tooling can pin.

use crate::outcome::{fnv1a, RunOutcome};
use legostore_obs::escape_json;
use std::collections::BTreeMap;

/// Version of the report schema; bumped whenever a column or JSON field changes
/// meaning, so downstream tooling can refuse reports it does not understand.
pub const REPORT_SCHEMA_VERSION: u32 = 1;

/// Per-(family, protocol, placement) rollup.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSummary {
    /// Scenario family label.
    pub family: String,
    /// Protocol label (including flip labels like `abd->cas`).
    pub protocol: String,
    /// Placement label.
    pub placement: String,
    /// Cells in the group.
    pub cells: usize,
    /// Cells that violated their expected property.
    pub failed: usize,
    /// Median of the cells' p50 latencies (ms).
    pub median_p50_ms: f64,
    /// Median of the cells' p99 latencies (ms).
    pub median_p99_ms: f64,
    /// Median of the cells' throughputs (ops/s).
    pub median_ops_per_sec: f64,
    /// Mean availability across cells.
    pub mean_availability: f64,
    /// Summed network dollars across cells.
    pub total_cost_usd: f64,
    /// Summed completed reconfigurations across cells.
    pub reconfigs: usize,
}

/// A finished campaign: sorted per-cell rows, group rollups, the failure list and the
/// regression fingerprint.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Tier label the campaign ran under.
    pub tier: String,
    /// All outcomes, sorted by cell id.
    pub rows: Vec<RunOutcome>,
    /// Group rollups, sorted by (family, protocol, placement).
    pub groups: Vec<GroupSummary>,
    /// FNV-1a digest of the CSV body.
    pub fingerprint: u64,
}

/// Ingests outcomes as they complete and reduces them on [`Aggregator::finish`].
#[derive(Debug)]
pub struct Aggregator {
    tier: String,
    outcomes: Vec<RunOutcome>,
}

fn median(sorted: &[f64]) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    median(&v)
}

impl Aggregator {
    /// A fresh aggregator for a campaign running under `tier`.
    pub fn new(tier: &str) -> Aggregator {
        Aggregator { tier: tier.to_string(), outcomes: Vec::new() }
    }

    /// Adds one finished cell; call order does not matter.
    pub fn ingest(&mut self, outcome: RunOutcome) {
        self.outcomes.push(outcome);
    }

    /// Reduces everything ingested so far into a deterministic report.
    pub fn finish(mut self) -> CampaignReport {
        self.outcomes.sort_by(|a, b| a.cell_id.cmp(&b.cell_id));
        let rows = self.outcomes;

        let mut grouped: BTreeMap<(String, String, String), Vec<&RunOutcome>> = BTreeMap::new();
        for row in &rows {
            grouped
                .entry((row.family.clone(), row.protocol.clone(), row.placement.clone()))
                .or_default()
                .push(row);
        }
        let groups = grouped
            .into_iter()
            .map(|((family, protocol, placement), members)| GroupSummary {
                family,
                protocol,
                placement,
                cells: members.len(),
                failed: members.iter().filter(|m| !m.passed()).count(),
                median_p50_ms: median_of(members.iter().map(|m| m.p50_ms)),
                median_p99_ms: median_of(members.iter().map(|m| m.p99_ms)),
                median_ops_per_sec: median_of(members.iter().map(|m| m.ops_per_sec)),
                mean_availability: members.iter().map(|m| m.availability).sum::<f64>()
                    / members.len() as f64,
                total_cost_usd: members.iter().map(|m| m.cost_usd).sum(),
                reconfigs: members.iter().map(|m| m.reconfigs).sum(),
            })
            .collect();

        let mut report =
            CampaignReport { tier: self.tier, rows, groups, fingerprint: 0 };
        report.fingerprint = fnv1a(report.to_csv().as_bytes());
        report
    }
}

impl CampaignReport {
    /// Cells that violated their expected property, in cell-id order.
    pub fn failures(&self) -> Vec<&RunOutcome> {
        self.rows.iter().filter(|r| !r.passed()).collect()
    }

    /// True when every cell passed.
    pub fn passed(&self) -> bool {
        self.rows.iter().all(|r| r.passed())
    }

    /// The per-cell CSV table (one row per cell, sorted by cell id).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "cell,family,workload,protocol,placement,seed,ops,failures,availability,\
             linearizable,p50_ms,p99_ms,mean_ms,ops_per_sec,cost_usd,reconfigs,\
             timeout_widens,sim_fingerprint,obs_digest,pass,violations\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{:.6},{},{:.3},{:.3},{:.3},{:.3},{:.9},{},{},\
                 {:016x},{:016x},{},{}\n",
                r.cell_id,
                r.family,
                r.workload,
                r.protocol,
                r.placement,
                r.seed,
                r.ops,
                r.failures,
                r.availability,
                match r.linearizable {
                    Some(true) => "true",
                    Some(false) => "false",
                    None => "skipped",
                },
                r.p50_ms,
                r.p99_ms,
                r.mean_ms,
                r.ops_per_sec,
                r.cost_usd,
                r.reconfigs,
                r.timeout_widens,
                r.sim_fingerprint,
                r.obs_digest,
                if r.passed() { "pass" } else { "FAIL" },
                r.violations.join("|").replace(',', ";"),
            ));
        }
        out
    }

    /// The summary JSON document (schema, totals, group rollups, failure list,
    /// fingerprint). Deterministic: keys and rows are in fixed order, floats in fixed
    /// precision, and no timestamps appear.
    pub fn to_json(&self) -> String {
        let failed = self.failures();
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"schema_version\": {REPORT_SCHEMA_VERSION},\n"));
        out.push_str(&format!("  \"tier\": \"{}\",\n", escape_json(&self.tier)));
        out.push_str(&format!("  \"cells\": {},\n", self.rows.len()));
        out.push_str(&format!("  \"passed\": {},\n", self.rows.len() - failed.len()));
        out.push_str(&format!("  \"failed\": {},\n", failed.len()));
        out.push_str(&format!("  \"fingerprint\": \"{:016x}\",\n", self.fingerprint));
        out.push_str("  \"groups\": [\n");
        for (i, g) in self.groups.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"family\": \"{}\", \"protocol\": \"{}\", \"placement\": \"{}\", \
                 \"cells\": {}, \"failed\": {}, \"median_p50_ms\": {:.3}, \
                 \"median_p99_ms\": {:.3}, \"median_ops_per_sec\": {:.3}, \
                 \"mean_availability\": {:.6}, \"total_cost_usd\": {:.9}, \
                 \"reconfigs\": {}}}{}\n",
                escape_json(&g.family),
                escape_json(&g.protocol),
                escape_json(&g.placement),
                g.cells,
                g.failed,
                g.median_p50_ms,
                g.median_p99_ms,
                g.median_ops_per_sec,
                g.mean_availability,
                g.total_cost_usd,
                g.reconfigs,
                if i + 1 < self.groups.len() { "," } else { "" },
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"failures\": [\n");
        for (i, r) in failed.iter().enumerate() {
            let violations: Vec<String> =
                r.violations.iter().map(|v| format!("\"{}\"", escape_json(v))).collect();
            out.push_str(&format!(
                "    {{\"cell\": \"{}\", \"violations\": [{}]}}{}\n",
                escape_json(&r.cell_id),
                violations.join(", "),
                if i + 1 < failed.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(id: &str, family: &str, pass: bool) -> RunOutcome {
        RunOutcome {
            cell_id: id.into(),
            family: family.into(),
            workload: "w".into(),
            protocol: "abd".into(),
            placement: "paper".into(),
            seed: 1,
            ops: 100,
            failures: usize::from(!pass),
            availability: if pass { 1.0 } else { 0.5 },
            linearizable: Some(true),
            p50_ms: 100.0,
            p99_ms: 300.0,
            mean_ms: 120.0,
            ops_per_sec: 50.0,
            cost_usd: 0.001,
            reconfigs: 0,
            timeout_widens: 0,
            sim_fingerprint: 0xabc,
            obs_digest: 0xdef,
            violations: if pass { vec![] } else { vec!["availability 0.5 below 0.9".into()] },
        }
    }

    #[test]
    fn ingest_order_does_not_change_the_report() {
        let mut a = Aggregator::new("smoke");
        a.ingest(outcome("b/cell", "baseline", true));
        a.ingest(outcome("a/cell", "baseline", false));
        let mut b = Aggregator::new("smoke");
        b.ingest(outcome("a/cell", "baseline", false));
        b.ingest(outcome("b/cell", "baseline", true));
        let (ra, rb) = (a.finish(), b.finish());
        assert_eq!(ra.to_csv(), rb.to_csv());
        assert_eq!(ra.to_json(), rb.to_json());
        assert_eq!(ra.fingerprint, rb.fingerprint);
    }

    #[test]
    fn failures_are_listed_not_swallowed() {
        let mut agg = Aggregator::new("smoke");
        agg.ingest(outcome("x/bad", "baseline", false));
        agg.ingest(outcome("x/good", "baseline", true));
        let report = agg.finish();
        assert!(!report.passed());
        assert_eq!(report.failures().len(), 1);
        let json = report.to_json();
        assert!(json.contains("\"failed\": 1"));
        assert!(json.contains("x/bad"));
        assert!(json.contains("availability 0.5 below 0.9"));
        let csv = report.to_csv();
        assert!(csv.contains("FAIL"));
    }

    #[test]
    fn groups_roll_up_medians() {
        let mut agg = Aggregator::new("smoke");
        for (i, p50) in [10.0, 20.0, 30.0].iter().enumerate() {
            let mut o = outcome(&format!("g/{i}"), "diurnal", true);
            o.p50_ms = *p50;
            agg.ingest(o);
        }
        let report = agg.finish();
        assert_eq!(report.groups.len(), 1);
        let g = &report.groups[0];
        assert_eq!(g.cells, 3);
        assert_eq!(g.median_p50_ms, 20.0);
        assert_eq!(g.failed, 0);
    }

    #[test]
    fn csv_never_embeds_raw_commas_from_violations() {
        let mut o = outcome("v/cell", "baseline", false);
        o.violations = vec!["a, b".into()];
        let mut agg = Aggregator::new("smoke");
        agg.ingest(o);
        let csv = agg.finish().to_csv();
        let data_line = csv.lines().nth(1).unwrap();
        let header_cols = csv.lines().next().unwrap().split(',').count();
        assert_eq!(data_line.split(',').count(), header_cols);
    }
}
