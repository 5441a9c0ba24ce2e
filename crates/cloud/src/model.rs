//! The generic cloud model abstraction.

use crate::{BYTES_PER_GB, DEFAULT_BANDWIDTH_BYTES_PER_SEC, DEFAULT_THETA_V, HOURS_PER_MONTH};
use legostore_types::DcId;
use serde::{Deserialize, Serialize};

/// Static description of one data center.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataCenter {
    /// Identifier (index into the model's matrices).
    pub id: DcId,
    /// Human-readable name, e.g. `"Tokyo"`.
    pub name: String,
    /// Storage price in $/GB-month (provisioned space).
    pub storage_price_gb_month: f64,
    /// Virtual-machine price in $/hour for the store's server VM class.
    pub vm_price_hour: f64,
}

/// A complete model of the cloud regions a LEGOStore deployment spans.
///
/// All matrices are indexed `[source][destination]` by [`DcId`] index.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CloudModel {
    dcs: Vec<DataCenter>,
    /// Round-trip times in milliseconds.
    rtt_ms: Vec<Vec<f64>>,
    /// Network price in $/GB for traffic sent from `source` to `destination`.
    net_price_gb: Vec<Vec<f64>>,
    /// Bandwidth in bytes/second between pairs.
    bandwidth: Vec<Vec<f64>>,
    /// VM-capacity multiplier θ_v (VM-hours per request/second of load).
    theta_v: f64,
}

impl CloudModel {
    /// The nine-GCP-data-center model of the paper (Tables 1 and 2).
    pub fn gcp9() -> CloudModel {
        crate::gcp::gcp9()
    }

    /// Number of data centers in the model.
    pub fn num_dcs(&self) -> usize {
        self.dcs.len()
    }

    /// All data-center ids.
    pub fn dc_ids(&self) -> Vec<DcId> {
        (0..self.dcs.len()).map(DcId::from).collect()
    }

    /// Data-center metadata.
    pub fn dc(&self, id: DcId) -> &DataCenter {
        &self.dcs[id.index()]
    }

    /// All data centers.
    pub fn dcs(&self) -> &[DataCenter] {
        &self.dcs
    }

    /// Looks a data center up by (case-insensitive) name.
    pub fn dc_by_name(&self, name: &str) -> Option<DcId> {
        self.dcs
            .iter()
            .position(|d| d.name.eq_ignore_ascii_case(name))
            .map(DcId::from)
    }

    /// Round-trip time between two data centers in milliseconds.
    pub fn rtt_ms(&self, from: DcId, to: DcId) -> f64 {
        self.rtt_ms[from.index()][to.index()]
    }

    /// One-way latency `l_ij` (RTT/2) in milliseconds, as used by the paper's latency model.
    pub fn latency_ms(&self, from: DcId, to: DcId) -> f64 {
        self.rtt_ms(from, to) / 2.0
    }

    /// Network transfer price from `from` to `to` in $/GB.
    pub fn net_price_gb(&self, from: DcId, to: DcId) -> f64 {
        self.net_price_gb[from.index()][to.index()]
    }

    /// Network transfer price from `from` to `to` in $/byte.
    pub fn net_price_per_byte(&self, from: DcId, to: DcId) -> f64 {
        self.net_price_gb(from, to) / BYTES_PER_GB
    }

    /// Bandwidth from `from` to `to` in bytes/second.
    fn bandwidth_bytes_per_sec(&self, from: DcId, to: DcId) -> f64 {
        self.bandwidth[from.index()][to.index()]
    }

    /// Time in milliseconds to push `bytes` from `from` to `to` (excluding propagation).
    pub fn transfer_time_ms(&self, from: DcId, to: DcId, bytes: u64) -> f64 {
        if from == to {
            return 0.0;
        }
        bytes as f64 / self.bandwidth_bytes_per_sec(from, to) * 1000.0
    }

    /// Storage price at `dc` in $/byte-hour.
    pub fn storage_price_per_byte_hour(&self, dc: DcId) -> f64 {
        self.dcs[dc.index()].storage_price_gb_month / BYTES_PER_GB / HOURS_PER_MONTH
    }

    /// VM price at `dc` in $/hour.
    pub fn vm_price_hour(&self, dc: DcId) -> f64 {
        self.dcs[dc.index()].vm_price_hour
    }

    /// VM-capacity multiplier θ_v.
    pub fn theta_v(&self) -> f64 {
        self.theta_v
    }

    /// Cost in dollars of sending `bytes` from `from` to `to`.
    pub fn transfer_cost(&self, from: DcId, to: DcId, bytes: u64) -> f64 {
        if from == to {
            return 0.0;
        }
        bytes as f64 * self.net_price_per_byte(from, to)
    }

    /// Average outbound network price ($/GB) from `dc` toward the given destinations,
    /// used by the `ABD Fixed` / `CAS Fixed` baselines to rank data centers.
    pub fn avg_outbound_price_gb(&self, dc: DcId, destinations: &[DcId]) -> f64 {
        if destinations.is_empty() {
            return 0.0;
        }
        let sum: f64 = destinations
            .iter()
            .map(|d| self.net_price_gb(dc, *d))
            .sum();
        sum / destinations.len() as f64
    }

    /// Data centers sorted by ascending RTT from `from` (excluding `from` itself first, then
    /// including it at the front since intra-DC RTT is minimal).
    pub fn nearest_dcs(&self, from: DcId) -> Vec<DcId> {
        let mut ids = self.dc_ids();
        ids.sort_by(|a, b| {
            self.rtt_ms(from, *a)
                .partial_cmp(&self.rtt_ms(from, *b))
                .unwrap()
        });
        ids
    }
}

/// Builder for custom [`CloudModel`]s (tests, sensitivity studies, other providers).
#[derive(Debug, Clone)]
pub struct CloudModelBuilder {
    dcs: Vec<DataCenter>,
    rtt_ms: Vec<Vec<f64>>,
    net_price_gb: Vec<Vec<f64>>,
    bandwidth: Vec<Vec<f64>>,
    theta_v: f64,
}

impl CloudModelBuilder {
    /// Starts a builder for `n` data centers with placeholder names and uniform defaults:
    /// 100 ms RTT (2 ms intra-DC), $0.08/GB, default bandwidth, zero storage/VM prices.
    pub fn uniform(n: usize) -> Self {
        let dcs = (0..n)
            .map(|i| DataCenter {
                id: DcId::from(i),
                name: format!("dc{i}"),
                storage_price_gb_month: 0.0,
                vm_price_hour: 0.0,
            })
            .collect();
        let rtt_ms = (0..n)
            .map(|i| (0..n).map(|j| if i == j { 2.0 } else { 100.0 }).collect())
            .collect();
        let net_price_gb = (0..n)
            .map(|i| (0..n).map(|j| if i == j { 0.0 } else { 0.08 }).collect())
            .collect();
        let bandwidth = vec![vec![DEFAULT_BANDWIDTH_BYTES_PER_SEC; n]; n];
        CloudModelBuilder {
            dcs,
            rtt_ms,
            net_price_gb,
            bandwidth,
            theta_v: DEFAULT_THETA_V,
        }
    }

    /// Starts a builder from explicit per-DC data and matrices.
    pub fn from_parts(
        dcs: Vec<DataCenter>,
        rtt_ms: Vec<Vec<f64>>,
        net_price_gb: Vec<Vec<f64>>,
    ) -> Self {
        let n = dcs.len();
        CloudModelBuilder {
            dcs,
            rtt_ms,
            net_price_gb,
            bandwidth: vec![vec![DEFAULT_BANDWIDTH_BYTES_PER_SEC; n]; n],
            theta_v: DEFAULT_THETA_V,
        }
    }

    /// Sets the name of data center `i`.
    pub fn name(mut self, i: usize, name: impl Into<String>) -> Self {
        self.dcs[i].name = name.into();
        self
    }

    /// Sets the storage price ($/GB-month) of data center `i`.
    pub fn storage_price(mut self, i: usize, price: f64) -> Self {
        self.dcs[i].storage_price_gb_month = price;
        self
    }

    /// Sets the VM price ($/hour) of data center `i`.
    pub fn vm_price(mut self, i: usize, price: f64) -> Self {
        self.dcs[i].vm_price_hour = price;
        self
    }

    /// Sets a symmetric RTT between `i` and `j`.
    pub fn rtt(mut self, i: usize, j: usize, ms: f64) -> Self {
        self.rtt_ms[i][j] = ms;
        self.rtt_ms[j][i] = ms;
        self
    }

    /// Sets the directional network price from `i` to `j` in $/GB.
    pub fn net_price(mut self, i: usize, j: usize, dollars_per_gb: f64) -> Self {
        self.net_price_gb[i][j] = dollars_per_gb;
        self
    }

    /// Sets a uniform bandwidth (bytes/second) for every pair.
    pub fn bandwidth_all(mut self, bytes_per_sec: f64) -> Self {
        for row in &mut self.bandwidth {
            for b in row.iter_mut() {
                *b = bytes_per_sec;
            }
        }
        self
    }

    /// Sets the VM-capacity multiplier θ_v.
    pub fn theta_v(mut self, theta: f64) -> Self {
        self.theta_v = theta;
        self
    }

    /// Finalizes the model, checking matrix shapes.
    pub fn build(self) -> CloudModel {
        let n = self.dcs.len();
        assert!(self.rtt_ms.len() == n && self.rtt_ms.iter().all(|r| r.len() == n));
        assert!(self.net_price_gb.len() == n && self.net_price_gb.iter().all(|r| r.len() == n));
        assert!(self.bandwidth.len() == n && self.bandwidth.iter().all(|r| r.len() == n));
        CloudModel {
            dcs: self.dcs,
            rtt_ms: self.rtt_ms,
            net_price_gb: self.net_price_gb,
            bandwidth: self.bandwidth,
            theta_v: self.theta_v,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_builder_defaults() {
        let m = CloudModelBuilder::uniform(4).build();
        assert_eq!(m.num_dcs(), 4);
        assert_eq!(m.rtt_ms(DcId(0), DcId(1)), 100.0);
        assert_eq!(m.rtt_ms(DcId(2), DcId(2)), 2.0);
        assert!((m.net_price_gb(DcId(0), DcId(1)) - 0.08).abs() < 1e-12);
        assert_eq!(m.net_price_gb(DcId(3), DcId(3)), 0.0);
        assert_eq!(m.latency_ms(DcId(0), DcId(1)), 50.0);
    }

    #[test]
    fn builder_setters_apply() {
        let m = CloudModelBuilder::uniform(3)
            .name(0, "A")
            .storage_price(0, 0.05)
            .vm_price(0, 0.02)
            .rtt(0, 1, 40.0)
            .net_price(0, 1, 0.12)
            .bandwidth_all(1e6)
            .theta_v(0.001)
            .build();
        assert_eq!(m.dc_by_name("a"), Some(DcId(0)));
        assert_eq!(m.dc_by_name("missing"), None);
        assert_eq!(m.rtt_ms(DcId(1), DcId(0)), 40.0);
        assert!((m.net_price_gb(DcId(0), DcId(1)) - 0.12).abs() < 1e-12);
        assert!((m.net_price_gb(DcId(1), DcId(0)) - 0.08).abs() < 1e-12);
        assert!((m.storage_price_per_byte_hour(DcId(0)) - 0.05 / 1e9 / 730.0).abs() < 1e-20);
        assert_eq!(m.vm_price_hour(DcId(0)), 0.02);
        assert_eq!(m.theta_v(), 0.001);
        // 1 MB at 1 MB/s = 1000 ms.
        assert!((m.transfer_time_ms(DcId(0), DcId(1), 1_000_000) - 1000.0).abs() < 1e-9);
        assert_eq!(m.transfer_time_ms(DcId(0), DcId(0), 1_000_000), 0.0);
    }

    #[test]
    fn transfer_cost_scales_with_bytes_and_price() {
        let m = CloudModelBuilder::uniform(2).net_price(0, 1, 0.10).build();
        let c = m.transfer_cost(DcId(0), DcId(1), 1_000_000_000);
        assert!((c - 0.10).abs() < 1e-9);
        assert_eq!(m.transfer_cost(DcId(0), DcId(0), 123), 0.0);
    }

    #[test]
    fn nearest_ordering() {
        let m = CloudModelBuilder::uniform(3).rtt(0, 1, 10.0).rtt(0, 2, 300.0).build();
        let near = m.nearest_dcs(DcId(0));
        assert_eq!(near[0], DcId(0)); // itself: 2ms
        assert_eq!(near[1], DcId(1));
        assert_eq!(near[2], DcId(2));
    }

    #[test]
    fn avg_outbound_price() {
        let m = CloudModelBuilder::uniform(3)
            .net_price(0, 1, 0.10)
            .net_price(0, 2, 0.20)
            .build();
        let avg = m.avg_outbound_price_gb(DcId(0), &[DcId(1), DcId(2)]);
        assert!((avg - 0.15).abs() < 1e-12);
        assert_eq!(m.avg_outbound_price_gb(DcId(0), &[]), 0.0);
    }
}
