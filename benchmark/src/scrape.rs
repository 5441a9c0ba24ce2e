//! The scrape: what the repo's own telemetry says about one pass run with
//! `ObsConfig::Metrics`, read through `Cluster::stats()`.
//!
//! Times are the histograms' exact means (`sum / count`): the registry's log₂ buckets
//! resolve a quantile only to a factor of two.

use crate::report::Metrics;
use legostore_core::ClusterStats;

/// Mean of client histogram `name`, 0 when it has no samples.
fn client_mean(stats: &ClusterStats, name: &str) -> (f64, u64) {
    stats
        .client
        .histogram(name)
        .map_or((0.0, 0), |h| (h.mean(), h.count))
}

/// Mean of server histogram `name` over all data centers.
fn server_mean(stats: &ClusterStats, name: &str) -> (f64, u64) {
    let (sum, count) = stats
        .servers
        .values()
        .filter_map(|s| s.histogram(name))
        .fold((0u64, 0u64), |(sum, count), h| {
            (sum + h.sum, count + h.count)
        });
    if count == 0 {
        (0.0, 0)
    } else {
        (sum as f64 / count as f64, count)
    }
}

/// The `core.client.*` and `server.*` metrics of a scrape. `ops` is how many operations
/// the scraped deployment has served since it started (its counters never reset).
pub fn metrics(stats: &ClusterStats, ops: u64) -> Metrics {
    let mut m = Metrics::default();
    for (metric, histogram) in [
        ("core.client.phase1_put_ns", "client.put.phase1_ns"),
        ("core.client.phase2_put_ns", "client.put.phase2_ns"),
        ("core.client.phase3_put_ns", "client.put.phase3_ns"),
        ("core.client.phase1_get_ns", "client.get.phase1_ns"),
        ("core.client.phase2_get_ns", "client.get.phase2_ns"),
        ("core.client.encode_ns", "client.encode_ns"),
        ("core.client.decode_ns", "client.decode_ns"),
        ("core.client.reply_service_ns", "client.reply.service_ns"),
        ("core.client.reply_network_ns", "client.reply.network_ns"),
    ] {
        let (mean, n) = client_mean(stats, histogram);
        m.set(metric, mean, n);
    }
    m.set(
        "core.client.timeout_widens",
        stats.client.counter("client.retries.timeout_widen") as f64,
        1,
    );
    m.set(
        "core.client.reconfig_restarts",
        stats.client.counter("client.retries.reconfig") as f64,
        1,
    );
    for phase in 1..=3 {
        let (mean, n) = server_mean(stats, &format!("server.dispatch_ns.phase{phase}"));
        m.set(
            [
                "server.dispatch_ns.phase1",
                "server.dispatch_ns.phase2",
                "server.dispatch_ns.phase3",
            ][phase - 1],
            mean,
            n,
        );
    }
    let depth = stats
        .servers
        .values()
        .map(|s| s.gauge("server.queue_depth_max"))
        .max()
        .unwrap_or(0);
    m.set(
        "server.queue_depth_max",
        depth as f64,
        stats.servers.len() as u64,
    );
    let sum = |name: &str| stats.servers.values().map(|s| s.counter(name)).sum::<u64>() as f64;
    m.set(
        "server.bytes_in_per_op",
        sum("server.bytes_in") / ops.max(1) as f64,
        ops,
    );
    m.set(
        "server.bytes_out_per_op",
        sum("server.bytes_out") / ops.max(1) as f64,
        ops,
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use legostore_obs::{Obs, ObsConfig};
    use legostore_types::DcId;
    use std::collections::BTreeMap;

    #[test]
    fn scrape_takes_exact_means_and_sums_servers() {
        let client = Obs::new(ObsConfig::Metrics);
        client
            .registry()
            .histogram("client.put.phase1_ns")
            .record(100);
        client
            .registry()
            .histogram("client.put.phase1_ns")
            .record(300);
        client.registry().counter("client.retries.reconfig").add(3);
        let mut servers = BTreeMap::new();
        for (dc, dispatch, depth) in [(0u16, 1_000u64, 2u64), (1, 3_000, 5)] {
            let obs = Obs::new(ObsConfig::Metrics);
            obs.registry()
                .histogram("server.dispatch_ns.phase1")
                .record(dispatch);
            obs.registry().gauge("server.queue_depth_max").set(depth);
            obs.registry().counter("server.bytes_in").add(500);
            servers.insert(DcId(dc), obs.snapshot());
        }
        let m = metrics(
            &ClusterStats {
                client: client.snapshot(),
                servers,
            },
            10,
        );
        assert_eq!(m.get("core.client.phase1_put_ns"), Some(200.0));
        assert_eq!(m.get("core.client.phase2_put_ns"), Some(0.0));
        assert_eq!(m.get("core.client.reconfig_restarts"), Some(3.0));
        assert_eq!(m.get("server.dispatch_ns.phase1"), Some(2_000.0));
        assert_eq!(m.get("server.queue_depth_max"), Some(5.0));
        assert_eq!(m.get("server.bytes_in_per_op"), Some(100.0));
    }
}
