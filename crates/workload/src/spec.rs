//! The per-key workload specification consumed by the optimizer and the generators.

use legostore_types::DcId;
use serde::{Deserialize, Serialize};

/// Read/write mix presets used throughout the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReadRatio {
    /// High-read, 30 GETs per PUT (ρ ≈ 0.968).
    HighRead,
    /// Balanced, 1 GET per PUT (ρ = 0.5).
    ReadWrite,
    /// High-write, 1 GET per 30 PUTs (ρ ≈ 0.032).
    HighWrite,
}

impl ReadRatio {
    /// The three presets in the paper's order (HW, RW, HR is used in figures; we expose
    /// them HR, RW, HW to match §4.1's listing).
    pub const ALL: [ReadRatio; 3] = [ReadRatio::HighRead, ReadRatio::ReadWrite, ReadRatio::HighWrite];

    /// The fraction of operations that are GETs.
    pub fn rho(self) -> f64 {
        match self {
            ReadRatio::HighRead => 30.0 / 31.0,
            ReadRatio::ReadWrite => 0.5,
            ReadRatio::HighWrite => 1.0 / 31.0,
        }
    }

    /// Short label used in figures ("HR", "RW", "HW").
    pub fn label(self) -> &'static str {
        match self {
            ReadRatio::HighRead => "HR",
            ReadRatio::ReadWrite => "RW",
            ReadRatio::HighWrite => "HW",
        }
    }
}

/// Workload features for one key (or a group of keys with similar features), mirroring the
/// optimizer inputs of Table 4.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Human-readable identifier.
    pub name: String,
    /// Average object size `o_g` in bytes.
    pub object_size: u64,
    /// Metadata size `o_m` in bytes exchanged per phase (the paper rounds to 100 B).
    pub metadata_size: u64,
    /// Fraction of requests that are GETs (ρ_g ∈ [0, 1]).
    pub read_ratio: f64,
    /// Aggregate arrival rate λ_g in requests/second.
    pub arrival_rate: f64,
    /// Total bytes stored by this key group (the datastore-size dimension of the grid);
    /// drives the storage-cost component.
    pub total_data_bytes: u64,
    /// Fraction of requests originating in/near each DC (α_ig); must sum to 1.
    pub client_distribution: Vec<(DcId, f64)>,
    /// GET latency SLO in milliseconds (99th percentile, modeled as worst case).
    pub slo_get_ms: f64,
    /// PUT latency SLO in milliseconds.
    pub slo_put_ms: f64,
    /// Number of simultaneous DC failures to tolerate.
    pub fault_tolerance: usize,
}

impl WorkloadSpec {
    /// A small, fully-specified default useful as a starting point in examples and tests:
    /// 1 KB objects, RW mix, 200 req/s, 1 TB of data, clients in Tokyo-equivalent DC 0,
    /// 1 s SLOs, f = 1.
    pub fn example() -> Self {
        WorkloadSpec {
            name: "example".into(),
            object_size: 1024,
            metadata_size: 100,
            read_ratio: 0.5,
            arrival_rate: 200.0,
            total_data_bytes: 1 << 40,
            client_distribution: vec![(DcId(0), 1.0)],
            slo_get_ms: 1000.0,
            slo_put_ms: 1000.0,
            fault_tolerance: 1,
        }
    }

    /// GET arrival rate in requests/second.
    pub fn get_rate(&self) -> f64 {
        self.arrival_rate * self.read_ratio
    }

    /// PUT arrival rate in requests/second.
    pub fn put_rate(&self) -> f64 {
        self.arrival_rate * (1.0 - self.read_ratio)
    }

    /// Arrival rate of requests originating at `dc` (λ_g · α_ig).
    pub fn rate_at(&self, dc: DcId) -> f64 {
        self.client_distribution
            .iter()
            .find(|(d, _)| *d == dc)
            .map(|(_, frac)| self.arrival_rate * frac)
            .unwrap_or(0.0)
    }

    /// The client DCs with non-zero request fractions.
    pub fn client_dcs(&self) -> Vec<DcId> {
        self.client_distribution
            .iter()
            .filter(|(_, f)| *f > 0.0)
            .map(|(d, _)| *d)
            .collect()
    }

    /// Checks internal consistency (fractions sum to ~1, ratios in range, positive sizes).
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.read_ratio) {
            return Err(format!("read_ratio {} out of [0,1]", self.read_ratio));
        }
        if self.arrival_rate < 0.0 {
            return Err("arrival_rate must be non-negative".into());
        }
        if self.object_size == 0 {
            return Err("object_size must be positive".into());
        }
        if self.client_distribution.is_empty() {
            return Err("client_distribution must not be empty".into());
        }
        let sum: f64 = self.client_distribution.iter().map(|(_, f)| f).sum();
        if (sum - 1.0).abs() > 1e-6 {
            return Err(format!("client_distribution sums to {sum}, expected 1"));
        }
        if self.client_distribution.iter().any(|(_, f)| *f < 0.0) {
            return Err("client fractions must be non-negative".into());
        }
        if self.slo_get_ms <= 0.0 || self.slo_put_ms <= 0.0 {
            return Err("SLOs must be positive".into());
        }
        Ok(())
    }

    /// Returns a copy with a different arrival rate (used when reacting to load changes).
    pub fn with_arrival_rate(&self, rate: f64) -> Self {
        let mut s = self.clone();
        s.arrival_rate = rate;
        s
    }

    /// Returns a copy with a different client distribution.
    pub fn with_clients(&self, clients: Vec<(DcId, f64)>) -> Self {
        let mut s = self.clone();
        s.client_distribution = clients;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_ratio_presets() {
        assert!((ReadRatio::ReadWrite.rho() - 0.5).abs() < 1e-12);
        assert!(ReadRatio::HighRead.rho() > 0.96);
        assert!(ReadRatio::HighWrite.rho() < 0.04);
        assert_eq!(ReadRatio::HighRead.label(), "HR");
        assert_eq!(ReadRatio::ALL.len(), 3);
    }

    #[test]
    fn example_spec_is_valid() {
        let s = WorkloadSpec::example();
        s.validate().unwrap();
        assert!((s.get_rate() + s.put_rate() - s.arrival_rate).abs() < 1e-9);
        assert_eq!(s.rate_at(DcId(0)), 200.0);
        assert_eq!(s.rate_at(DcId(3)), 0.0);
        assert_eq!(s.client_dcs(), vec![DcId(0)]);
    }

    #[test]
    fn validation_catches_errors() {
        let mut s = WorkloadSpec::example();
        s.read_ratio = 1.5;
        assert!(s.validate().is_err());

        let mut s = WorkloadSpec::example();
        s.client_distribution = vec![(DcId(0), 0.4), (DcId(1), 0.4)];
        assert!(s.validate().is_err());

        let mut s = WorkloadSpec::example();
        s.client_distribution.clear();
        assert!(s.validate().is_err());

        let mut s = WorkloadSpec::example();
        s.object_size = 0;
        assert!(s.validate().is_err());

        let mut s = WorkloadSpec::example();
        s.slo_get_ms = 0.0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn with_builders_modify_copies() {
        let s = WorkloadSpec::example();
        let s2 = s
            .with_arrival_rate(800.0)
            .with_clients(vec![(DcId(1), 0.5), (DcId(2), 0.5)]);
        assert_eq!(s.arrival_rate, 200.0);
        assert_eq!(s2.arrival_rate, 800.0);
        assert_eq!(s2.client_dcs().len(), 2);
        s2.validate().unwrap();
    }
}
