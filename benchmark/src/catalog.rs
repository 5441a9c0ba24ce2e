//! The benchmark's contract in one table: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` at the repository root is
//! rendered from it (a test pins the file to [`render_benchmark_json`]), and every run
//! is checked against it before its result line is printed.

use std::fmt::Write as _;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// A workload: its name and the one-line reason it exists.
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why this workload is in the set.
    pub why: &'static str,
}

/// The four workloads (README.md has the long form of each "why").
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "tcp-cas-100k",
        why: "bulk path over loopback TCP, no injected delay: CAS(5,3), 100 KiB values, so erasure, fingerprint and wire memcpy dominate",
    },
    Workload {
        name: "tcp-abd-1k",
        why: "per-message path over loopback TCP, no injected delay: ABD(3), 1 KiB values, so framing, syscalls and hand-offs dominate; erasure idle",
    },
    Workload {
        name: "geo-core",
        why: "the paper's pipeline in-process on modelled gcp9 RTTs: optimizer plans 24 key groups, closed-loop replay, 16 reconfigurations",
    },
    Workload {
        name: "geo-sim",
        why: "the same planned keys, requests and reconfigurations on the discrete-event simulator, open loop at the Poisson arrival times",
    },
];

/// Whether a larger or a smaller value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the catalog.
pub struct MetricDef {
    /// Emitted name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which the metric may
    /// get worse before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// What a user of the store sees. Every workload reports every one of them. Each bound is
/// at least three times the widest interquartile spread ten seeds showed on the baseline
/// box (README.md, "Policies, and the noise that justifies them").
pub const END_TO_END: [MetricDef; 7] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.15),
    e2e("put_mid_ms", "ms", Better::Lower, 0.15),
    e2e("get_mid_ms", "ms", Better::Lower, 0.15),
    e2e("slo_met_frac", "frac", Better::Higher, 0.001),
    e2e("cost_usd_per_hr", "usd/h", Better::Lower, 0.001),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
];

/// One number per layer boundary (README.md says what each should move). A layer that
/// does no work on a workload reports 0 there.
pub const PER_LAYER: [MetricDef; 72] = [
    lower("erasure.encode_ns", "ns"),
    lower("erasure.decode_data_ns", "ns"),
    lower("erasure.decode_parity_ns", "ns"),
    higher("erasure.gf_mul_acc_gbps", "GB/s"),
    lower("lincheck.fingerprint_ns", "ns"),
    lower("lincheck.check_ms", "ms"),
    higher("lincheck.ops_checked", "count"),
    lower("proto.wire.encode_req_ns", "ns"),
    lower("proto.wire.decode_req_ns", "ns"),
    lower("proto.wire.encode_rep_ns", "ns"),
    lower("proto.wire.decode_rep_ns", "ns"),
    lower("proto.wire.req_frame_bytes", "B"),
    lower("proto.wire.rep_frame_bytes", "B"),
    lower("proto.server.handle_ns.abd_read_query", "ns"),
    lower("proto.server.handle_ns.abd_write_query", "ns"),
    lower("proto.server.handle_ns.abd_write", "ns"),
    lower("proto.server.handle_ns.cas_query", "ns"),
    lower("proto.server.handle_ns.cas_pre_write", "ns"),
    lower("proto.server.handle_ns.cas_finalize_write", "ns"),
    lower("proto.server.handle_ns.cas_finalize_read", "ns"),
    lower("proto.server.gc_ns", "ns"),
    lower("proto.server.stored_bytes_per_user_byte", "B/B"),
    lower("proto.client.put_cpu_ns", "ns"),
    lower("proto.client.get_cpu_ns", "ns"),
    lower("proto.client.msgs_per_put", "count"),
    lower("proto.client.msgs_per_get", "count"),
    lower("proto.client.bytes_per_put", "B"),
    lower("proto.client.bytes_per_get", "B"),
    higher("proto.client.one_phase_get_frac", "frac"),
    lower("proto.client.reconfig_p50_ms", "ms"),
    higher("proto.client.reconfigs", "count"),
    lower("core.transport.put_overhead_us", "us"),
    lower("core.transport.get_overhead_us", "us"),
    lower("core.client.c1_put_p50_us", "us"),
    lower("core.client.c1_get_p50_us", "us"),
    lower("core.client.put_p50_us", "us"),
    lower("core.client.get_p50_us", "us"),
    lower("core.client.put_p99_us", "us"),
    lower("core.client.get_p99_us", "us"),
    lower("core.client.phase1_put_ns", "ns"),
    lower("core.client.phase2_put_ns", "ns"),
    lower("core.client.phase3_put_ns", "ns"),
    lower("core.client.phase1_get_ns", "ns"),
    lower("core.client.phase2_get_ns", "ns"),
    lower("core.client.encode_ns", "ns"),
    lower("core.client.decode_ns", "ns"),
    lower("core.client.reply_service_ns", "ns"),
    lower("core.client.reply_network_ns", "ns"),
    lower("core.client.timeout_widens", "count"),
    lower("core.client.reconfig_restarts", "count"),
    lower("core.client.fail_frac", "frac"),
    lower("core.client.slo_miss_frac", "frac"),
    lower("server.dispatch_ns.phase1", "ns"),
    lower("server.dispatch_ns.phase2", "ns"),
    lower("server.dispatch_ns.phase3", "ns"),
    lower("server.queue_depth_max", "count"),
    lower("server.bytes_in_per_op", "B"),
    lower("server.bytes_out_per_op", "B"),
    lower("optimizer.optimize_ms_per_key", "ms"),
    lower("optimizer.optimize_ms_max", "ms"),
    lower("optimizer.abd_only_ms", "ms"),
    lower("optimizer.cas_only_ms", "ms"),
    higher("optimizer.cas_chosen_frac", "frac"),
    lower("optimizer.model_put_err_frac", "frac"),
    lower("optimizer.model_get_err_frac", "frac"),
    lower("sim.metered_cost_usd_per_hr", "usd/h"),
    lower("sim.core_put_mid_delta_ms", "ms"),
    lower("sim.core_get_mid_delta_ms", "ms"),
    higher("campaign.smoke_cells_per_s", "1/s"),
    lower("obs.overhead_frac", "frac"),
    higher("budget.put_explained_frac", "frac"),
    higher("budget.get_explained_frac", "frac"),
];

/// True if `name` is one a metric, workload or unit may carry: it starts with a letter
/// or digit and continues with letters, digits, `_`, `.`, `-` (units also `/` and `%`).
fn well_formed(name: &str, max_len: usize, extra: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= max_len
        && (first.is_ascii_alphanumeric() || extra.contains(first))
        && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c) || extra.contains(c))
}

/// Checks the catalog against the limits `BENCHMARK.json` must respect; returns every
/// violation found.
pub fn validate() -> Vec<String> {
    let mut problems = Vec::new();
    if !(2..=8).contains(&WORKLOADS.len()) {
        problems.push(format!("{} workloads (2 to 8 allowed)", WORKLOADS.len()));
    }
    if END_TO_END.len() > 16 {
        problems.push(format!(
            "{} end-to-end metrics (at most 16)",
            END_TO_END.len()
        ));
    }
    if PER_LAYER.len() > 128 {
        problems.push(format!(
            "{} per-layer metrics (at most 128)",
            PER_LAYER.len()
        ));
    }
    let mut seen = std::collections::BTreeSet::new();
    let names = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name));
    for name in names {
        if !well_formed(name, 64, "") {
            problems.push(format!(
                "name {name:?} is not [A-Za-z0-9][A-Za-z0-9_.-]{{0,63}}"
            ));
        }
        if !seen.insert(name) {
            problems.push(format!("name {name:?} is used twice"));
        }
    }
    for w in &WORKLOADS {
        if w.why.len() > 200 || w.why.contains('\n') {
            problems.push(format!(
                "why of {} is not one line of at most 200 characters",
                w.name
            ));
        }
    }
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        if !well_formed(m.unit, 16, "/%") {
            problems.push(format!("unit {:?} of {} is malformed", m.unit, m.name));
        }
    }
    for m in &END_TO_END {
        match m.bound {
            Some(b) if (0.0..=0.25).contains(&b) => {}
            other => problems.push(format!(
                "bound {other:?} of {} is outside [0, 0.25]",
                m.name
            )),
        }
    }
    if !END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower)
    {
        problems.push("no setup_s metric with unit s, lower is better".into());
    }
    problems
}

/// The exact text of `BENCHMARK.json`.
pub fn render_benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better.label(),
            m.bound.expect("end-to-end metrics carry a bound"),
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            m.better.label(),
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_respects_the_contract_limits() {
        assert_eq!(validate(), Vec::<String>::new());
    }

    #[test]
    fn validator_rejects_malformed_names_and_units() {
        assert!(well_formed("proto.wire.encode_req_ns", 64, ""));
        assert!(well_formed("1/s", 16, "/%"));
        assert!(!well_formed("", 64, ""));
        assert!(!well_formed(".leading", 64, ""));
        assert!(!well_formed("phase{1,2}", 64, ""));
        assert!(!well_formed("has space", 64, ""));
        assert!(!well_formed(&"x".repeat(65), 64, ""));
        assert!(!well_formed("usd/h", 64, ""), "'/' is for units only");
    }

    #[test]
    fn benchmark_json_is_rendered_from_the_catalog() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            render_benchmark_json(),
            "run with --print-benchmark-json to refresh"
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
