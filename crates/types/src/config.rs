//! Per-key configurations.
//!
//! The *configuration* of a key (paper §1, footnote 1) captures: (i) whether replication
//! (ABD) or erasure coding (CAS) is used; (ii) the code length `n` / dimension `k` (or the
//! replication degree, `k = 1`); (iii) the quorum sizes; and (iv) the data centers that host
//! the key. The optimizer additionally recommends, per client location, which hosting DCs
//! each quorum should contact; that recommendation is carried here as well so that clients
//! in the common case only message their preferred quorum.

use crate::{ConfigEpoch, DcId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Which consistency protocol a configuration uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProtocolKind {
    /// Attiya–Bar-Noy–Dolev replication (2-phase PUT, 2-phase GET).
    Abd,
    /// Coded Atomic Storage (3-phase PUT, 2-phase GET, Reed–Solomon codeword symbols).
    Cas,
}

impl ProtocolKind {
    /// Number of quorums the protocol defines (ABD: 2, CAS: 4).
    pub fn quorum_count(self) -> usize {
        match self {
            ProtocolKind::Abd => 2,
            ProtocolKind::Cas => 4,
        }
    }

    /// Number of client→server round trips for a PUT (ignoring the optimized fast path).
    pub fn put_phases(self) -> usize {
        match self {
            ProtocolKind::Abd => 2,
            ProtocolKind::Cas => 3,
        }
    }

    /// Number of client→server round trips for a GET (ignoring the optimized fast path).
    pub fn get_phases(self) -> usize {
        2
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolKind::Abd => write!(f, "ABD"),
            ProtocolKind::Cas => write!(f, "CAS"),
        }
    }
}

/// Index of a quorum within a configuration.
///
/// ABD uses `Q1` (query) and `Q2` (propagate). CAS uses `Q1` (query), `Q2` (pre-write),
/// `Q3` (finalize from writes) and `Q4` (finalize/collect from reads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum QuorumId {
    /// Query quorum (phase 1 of both GET and PUT, both protocols).
    Q1,
    /// ABD: value-propagation quorum; CAS: pre-write quorum.
    Q2,
    /// CAS only: write-finalize quorum.
    Q3,
    /// CAS only: read-finalize (symbol collection) quorum.
    Q4,
}

impl QuorumId {
    /// All quorum identifiers in order.
    pub const ALL: [QuorumId; 4] = [QuorumId::Q1, QuorumId::Q2, QuorumId::Q3, QuorumId::Q4];

    /// Zero-based index.
    pub fn index(self) -> usize {
        match self {
            QuorumId::Q1 => 0,
            QuorumId::Q2 => 1,
            QuorumId::Q3 => 2,
            QuorumId::Q4 => 3,
        }
    }

    /// Quorum identifier from a zero-based index.
    pub fn from_index(i: usize) -> Option<QuorumId> {
        QuorumId::ALL.get(i).copied()
    }
}

/// Quorum sizes `q1..q4`. For ABD only the first two are meaningful.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct QuorumSpec {
    sizes: [usize; 4],
}

impl QuorumSpec {
    /// Quorum spec for ABD with sizes `q1`, `q2` (the remaining entries are zero).
    pub fn abd(q1: usize, q2: usize) -> Self {
        QuorumSpec {
            sizes: [q1, q2, 0, 0],
        }
    }

    /// Quorum spec for CAS with sizes `q1..q4`.
    pub fn cas(q1: usize, q2: usize, q3: usize, q4: usize) -> Self {
        QuorumSpec {
            sizes: [q1, q2, q3, q4],
        }
    }

    /// Size of quorum `q`.
    pub fn size(&self, q: QuorumId) -> usize {
        self.sizes[q.index()]
    }

    /// All four sizes.
    pub fn sizes(&self) -> [usize; 4] {
        self.sizes
    }
}

/// Errors produced when validating a [`Configuration`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigurationError {
    /// The list of hosting data centers does not have `n` distinct entries.
    PlacementSize {
        /// The configured `n`.
        expected: usize,
        /// Distinct data centers actually listed.
        actual: usize,
    },
    /// A data center appears more than once in the placement.
    DuplicateDc(DcId),
    /// The code dimension is invalid for the protocol (`k != 1` for ABD, `k == 0`, `k > n`).
    InvalidDimension {
        /// Placement size.
        n: usize,
        /// Offending code dimension.
        k: usize,
    },
    /// A quorum size exceeds `n` or is zero.
    QuorumSizeOutOfRange {
        /// Which quorum is out of range.
        quorum: QuorumId,
        /// Its configured size.
        size: usize,
        /// Placement size bounding it.
        n: usize,
    },
    /// A liveness constraint `q_i <= n - f` is violated.
    LivenessViolated {
        /// Which quorum violates liveness.
        quorum: QuorumId,
        /// Its configured size.
        size: usize,
        /// Placement size.
        n: usize,
        /// Fault-tolerance target.
        f: usize,
    },
    /// A safety (intersection) constraint is violated.
    SafetyViolated(&'static str),
    /// The fault-tolerance bound `n - k >= 2f` (CAS) or `n >= f + 1` (ABD) is violated.
    FaultToleranceViolated {
        /// Placement size.
        n: usize,
        /// Code dimension.
        k: usize,
        /// Fault-tolerance target.
        f: usize,
    },
    /// A preferred quorum references a DC outside the placement.
    PreferredQuorumOutsidePlacement {
        /// Client the preferred quorum belongs to.
        client: DcId,
        /// The out-of-placement data center it references.
        dc: DcId,
    },
    /// A preferred quorum has the wrong number of members.
    PreferredQuorumWrongSize {
        /// Client the preferred quorum belongs to.
        client: DcId,
        /// Which quorum has the wrong size.
        quorum: QuorumId,
        /// The configured size for that quorum.
        expected: usize,
        /// Members actually listed.
        actual: usize,
    },
}

impl std::fmt::Display for ConfigurationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigurationError::PlacementSize { expected, actual } => {
                write!(f, "placement must list n={expected} data centers, got {actual}")
            }
            ConfigurationError::DuplicateDc(dc) => write!(f, "data center {dc} listed twice"),
            ConfigurationError::InvalidDimension { n, k } => {
                write!(f, "invalid code dimension k={k} for n={n}")
            }
            ConfigurationError::QuorumSizeOutOfRange { quorum, size, n } => {
                write!(f, "quorum {quorum:?} size {size} out of range for n={n}")
            }
            ConfigurationError::LivenessViolated { quorum, size, n, f: ff } => {
                write!(f, "quorum {quorum:?} size {size} violates q <= n - f ({n} - {ff})")
            }
            ConfigurationError::SafetyViolated(c) => write!(f, "safety constraint violated: {c}"),
            ConfigurationError::FaultToleranceViolated { n, k, f: ff } => {
                write!(f, "fault tolerance violated for n={n}, k={k}, f={ff}")
            }
            ConfigurationError::PreferredQuorumOutsidePlacement { client, dc } => {
                write!(f, "preferred quorum for client at {client} references non-member {dc}")
            }
            ConfigurationError::PreferredQuorumWrongSize { client, quorum, expected, actual } => {
                write!(
                    f,
                    "preferred quorum {quorum:?} for client at {client} has {actual} members, expected {expected}"
                )
            }
        }
    }
}

impl std::error::Error for ConfigurationError {}

/// A complete per-key configuration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Configuration {
    /// Protocol used for the key.
    pub protocol: ProtocolKind,
    /// Code length: the number of data centers hosting the key (replication degree for ABD).
    pub n: usize,
    /// Code dimension (1 for ABD / plain replication; `1..=n-2f` for CAS).
    pub k: usize,
    /// Quorum sizes.
    pub quorums: QuorumSpec,
    /// The `n` data centers hosting replicas / codeword symbols, in symbol order
    /// (DC `dcs[i]` stores codeword symbol `i` under CAS).
    pub dcs: Vec<DcId>,
    /// Fault tolerance this configuration was designed for.
    pub f: usize,
    /// Configuration epoch; bumped by every reconfiguration.
    pub epoch: ConfigEpoch,
    /// Optimizer-recommended quorum membership per client location. Clients not listed fall
    /// back to contacting all of `dcs` and taking the first responders.
    ///
    /// Shared copy-on-write: a clone of the configuration (one per operation, per client
    /// view and per redirect) shares this map, and a writer goes through
    /// [`Arc::make_mut`], which copies it only while another configuration still holds it.
    pub preferred_quorums: Arc<BTreeMap<DcId, Vec<Vec<DcId>>>>,
}

impl Configuration {
    /// Builds a majority-quorum ABD configuration over `dcs` tolerating `f` failures.
    ///
    /// Quorum sizes are the canonical `ceil((n+1)/2)` majorities, matching the paper's
    /// coarse analysis (Table 3).
    pub fn abd_majority(dcs: Vec<DcId>, f: usize) -> Self {
        let n = dcs.len();
        let q = n / 2 + 1;
        Configuration {
            protocol: ProtocolKind::Abd,
            n,
            k: 1,
            quorums: QuorumSpec::abd(q, q),
            dcs,
            f,
            epoch: ConfigEpoch::INITIAL,
            preferred_quorums: Arc::default(),
        }
    }

    /// Builds a CAS configuration with dimension `k` over `dcs` tolerating `f` failures,
    /// using the smallest quorums that satisfy constraints (5)–(9) of the paper.
    pub fn cas_default(dcs: Vec<DcId>, k: usize, f: usize) -> Self {
        let n = dcs.len();
        // Smallest sizes satisfying q1+q3 > n, q1+q4 > n, q2+q4 >= n+k, q4 >= k, qi <= n-f.
        let q4 = ((n + k) / 2).max(k).min(n - f.min(n.saturating_sub(1)));
        let q2 = (n + k).saturating_sub(q4).max(1);
        let q1 = n + 1 - q4.min(n);
        let q3 = n + 1 - q1;
        Configuration {
            protocol: ProtocolKind::Cas,
            n,
            k,
            quorums: QuorumSpec::cas(q1, q2, q3, q4),
            dcs,
            f,
            epoch: ConfigEpoch::INITIAL,
            preferred_quorums: Arc::default(),
        }
    }

    /// True if this configuration hosts data at `dc`.
    pub fn hosts(&self, dc: DcId) -> bool {
        self.dcs.contains(&dc)
    }

    /// Index of `dc` within the placement (the codeword-symbol index under CAS).
    pub fn symbol_index(&self, dc: DcId) -> Option<usize> {
        self.dcs.iter().position(|d| *d == dc)
    }

    /// Returns the members of quorum `q` preferred for a client at `client`.
    ///
    /// If the optimizer recorded a preference for this client location it is used;
    /// otherwise the first `q_i` data centers of the placement are contacted (the paper's
    /// protocols only message a quorum's worth of servers in the common case and widen to
    /// the remaining hosts on timeout, which is the hosting runtime's job).
    pub fn quorum_for(&self, client: DcId, q: QuorumId) -> &[DcId] {
        if let Some(qs) = self.preferred_quorums.get(&client) {
            if let Some(members) = qs.get(q.index()) {
                if !members.is_empty() {
                    return members;
                }
            }
        }
        let size = self.quorums.size(q).min(self.dcs.len()).max(1);
        &self.dcs[..size]
    }

    /// Validates the structural, safety and liveness constraints of the configuration
    /// (paper Appendix B constraints (5)–(10) for CAS and `q1 + q2 > n` for ABD).
    pub fn validate(&self) -> Result<(), ConfigurationError> {
        let n = self.n;
        let k = self.k;
        let f = self.f;
        if self.dcs.len() != n {
            return Err(ConfigurationError::PlacementSize {
                expected: n,
                actual: self.dcs.len(),
            });
        }
        let mut seen = std::collections::BTreeSet::new();
        for dc in &self.dcs {
            if !seen.insert(*dc) {
                return Err(ConfigurationError::DuplicateDc(*dc));
            }
        }
        match self.protocol {
            ProtocolKind::Abd => {
                if k != 1 {
                    return Err(ConfigurationError::InvalidDimension { n, k });
                }
                if n < f + 1 {
                    return Err(ConfigurationError::FaultToleranceViolated { n, k, f });
                }
                let q1 = self.quorums.size(QuorumId::Q1);
                let q2 = self.quorums.size(QuorumId::Q2);
                for (q, size) in [(QuorumId::Q1, q1), (QuorumId::Q2, q2)] {
                    if size == 0 || size > n {
                        return Err(ConfigurationError::QuorumSizeOutOfRange { quorum: q, size, n });
                    }
                    if size > n - f {
                        return Err(ConfigurationError::LivenessViolated { quorum: q, size, n, f });
                    }
                }
                if q1 + q2 <= n {
                    return Err(ConfigurationError::SafetyViolated("ABD requires q1 + q2 > n"));
                }
            }
            ProtocolKind::Cas => {
                if k == 0 || k > n {
                    return Err(ConfigurationError::InvalidDimension { n, k });
                }
                if n < k + 2 * f {
                    return Err(ConfigurationError::FaultToleranceViolated { n, k, f });
                }
                let q = |id: QuorumId| self.quorums.size(id);
                for id in QuorumId::ALL {
                    let size = q(id);
                    if size == 0 || size > n {
                        return Err(ConfigurationError::QuorumSizeOutOfRange { quorum: id, size, n });
                    }
                    if size > n - f {
                        return Err(ConfigurationError::LivenessViolated { quorum: id, size, n, f });
                    }
                }
                if q(QuorumId::Q1) + q(QuorumId::Q3) <= n {
                    return Err(ConfigurationError::SafetyViolated("CAS requires q1 + q3 > n"));
                }
                if q(QuorumId::Q1) + q(QuorumId::Q4) <= n {
                    return Err(ConfigurationError::SafetyViolated("CAS requires q1 + q4 > n"));
                }
                if q(QuorumId::Q2) + q(QuorumId::Q4) < n + k {
                    return Err(ConfigurationError::SafetyViolated("CAS requires q2 + q4 >= n + k"));
                }
                if q(QuorumId::Q4) < k {
                    return Err(ConfigurationError::SafetyViolated("CAS requires q4 >= k"));
                }
            }
        }
        // Preferred quorum sanity.
        for (client, quorums) in self.preferred_quorums.iter() {
            for (idx, members) in quorums.iter().enumerate() {
                if members.is_empty() {
                    continue;
                }
                let Some(qid) = QuorumId::from_index(idx) else { continue };
                if idx >= self.protocol.quorum_count() {
                    continue;
                }
                let expected = self.quorums.size(qid);
                if members.len() != expected {
                    return Err(ConfigurationError::PreferredQuorumWrongSize {
                        client: *client,
                        quorum: qid,
                        expected,
                        actual: members.len(),
                    });
                }
                for dc in members {
                    if !self.hosts(*dc) {
                        return Err(ConfigurationError::PreferredQuorumOutsidePlacement {
                            client: *client,
                            dc: *dc,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Short human-readable description, e.g. `ABD(3)` or `CAS(5,3)`.
    pub fn describe(&self) -> String {
        match self.protocol {
            ProtocolKind::Abd => format!("ABD({})", self.n),
            ProtocolKind::Cas => format!("CAS({},{})", self.n, self.k),
        }
    }
}

impl std::fmt::Display for Configuration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} on {:?} @{}", self.describe(), self.dcs, self.epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dcs(n: usize) -> Vec<DcId> {
        (0..n).map(DcId::from).collect()
    }

    #[test]
    fn abd_majority_is_valid() {
        let c = Configuration::abd_majority(dcs(3), 1);
        assert_eq!(c.describe(), "ABD(3)");
        assert_eq!(c.quorums.size(QuorumId::Q1), 2);
        assert_eq!(c.quorums.size(QuorumId::Q2), 2);
        c.validate().expect("majority ABD must validate");
    }

    #[test]
    fn cas_default_is_valid_for_paper_parameters() {
        // CAS(5,3) with f=1 is the paper's most common choice.
        let c = Configuration::cas_default(dcs(5), 3, 1);
        assert_eq!(c.describe(), "CAS(5,3)");
        c.validate().expect("CAS(5,3) f=1 must validate");
        // CAS(4,2), f=1: used in Figures 5 and 11.
        let c = Configuration::cas_default(dcs(4), 2, 1);
        c.validate().expect("CAS(4,2) f=1 must validate");
        // CAS(8,1), f=1: chosen in Figure 6 for the Wikipedia key.
        let c = Configuration::cas_default(dcs(8), 1, 1);
        c.validate().expect("CAS(8,1) f=1 must validate");
    }

    #[test]
    fn abd_rejects_non_intersecting_quorums() {
        let mut c = Configuration::abd_majority(dcs(3), 1);
        c.quorums = QuorumSpec::abd(1, 2);
        assert_eq!(
            c.validate(),
            Err(ConfigurationError::SafetyViolated("ABD requires q1 + q2 > n"))
        );
    }

    #[test]
    fn abd_rejects_liveness_violation() {
        let mut c = Configuration::abd_majority(dcs(3), 1);
        c.quorums = QuorumSpec::abd(3, 3);
        assert!(matches!(
            c.validate(),
            Err(ConfigurationError::LivenessViolated { .. })
        ));
    }

    #[test]
    fn cas_rejects_insufficient_fault_tolerance() {
        // n - k >= 2f fails: n=4, k=3, f=1.
        let c = Configuration::cas_default(dcs(4), 3, 1);
        assert!(matches!(
            c.validate(),
            Err(ConfigurationError::FaultToleranceViolated { .. })
        ));
    }

    #[test]
    fn cas_rejects_k_larger_than_n() {
        let mut c = Configuration::cas_default(dcs(5), 3, 1);
        c.k = 9;
        assert!(matches!(c.validate(), Err(ConfigurationError::InvalidDimension { .. })));
    }

    #[test]
    fn duplicate_dc_detected() {
        let mut c = Configuration::abd_majority(dcs(3), 1);
        c.dcs[2] = c.dcs[0];
        assert_eq!(c.validate(), Err(ConfigurationError::DuplicateDc(DcId(0))));
    }

    #[test]
    fn quorum_for_falls_back_to_quorum_sized_prefix() {
        let c = Configuration::abd_majority(dcs(3), 1);
        assert_eq!(c.quorum_for(DcId(7), QuorumId::Q1), vec![DcId(0), DcId(1)]);
        let cas = Configuration::cas_default(dcs(5), 3, 1);
        assert_eq!(
            cas.quorum_for(DcId(7), QuorumId::Q4).len(),
            cas.quorums.size(QuorumId::Q4)
        );
    }

    #[test]
    fn preferred_quorum_used_when_present() {
        let mut c = Configuration::abd_majority(dcs(3), 1);
        Arc::make_mut(&mut c.preferred_quorums)
            .insert(DcId(0), vec![vec![DcId(0), DcId(1)], vec![DcId(1), DcId(2)]]);
        c.validate().expect("valid preferred quorums");
        assert_eq!(c.quorum_for(DcId(0), QuorumId::Q2), vec![DcId(1), DcId(2)]);
    }

    #[test]
    fn preferred_quorum_wrong_size_rejected() {
        let mut c = Configuration::abd_majority(dcs(3), 1);
        Arc::make_mut(&mut c.preferred_quorums).insert(DcId(0), vec![vec![DcId(0)]]);
        assert!(matches!(
            c.validate(),
            Err(ConfigurationError::PreferredQuorumWrongSize { .. })
        ));
    }

    #[test]
    fn preferred_quorum_outside_placement_rejected() {
        let mut c = Configuration::abd_majority(dcs(3), 1);
        Arc::make_mut(&mut c.preferred_quorums)
            .insert(DcId(0), vec![vec![DcId(0), DcId(8)], vec![DcId(1), DcId(2)]]);
        assert!(matches!(
            c.validate(),
            Err(ConfigurationError::PreferredQuorumOutsidePlacement { .. })
        ));
    }

    #[test]
    fn symbol_index_matches_placement_order() {
        let c = Configuration::cas_default(vec![DcId(4), DcId(2), DcId(7)], 1, 1);
        assert_eq!(c.symbol_index(DcId(2)), Some(1));
        assert_eq!(c.symbol_index(DcId(9)), None);
        assert!(c.hosts(DcId(7)));
        assert!(!c.hosts(DcId(0)));
    }

    #[test]
    fn quorum_id_round_trip() {
        for (i, q) in QuorumId::ALL.iter().enumerate() {
            assert_eq!(QuorumId::from_index(i), Some(*q));
            assert_eq!(q.index(), i);
        }
        assert_eq!(QuorumId::from_index(4), None);
    }

    #[test]
    fn protocol_phase_counts_match_paper() {
        assert_eq!(ProtocolKind::Abd.put_phases(), 2);
        assert_eq!(ProtocolKind::Cas.put_phases(), 3);
        assert_eq!(ProtocolKind::Abd.get_phases(), 2);
        assert_eq!(ProtocolKind::Cas.get_phases(), 2);
        assert_eq!(ProtocolKind::Abd.quorum_count(), 2);
        assert_eq!(ProtocolKind::Cas.quorum_count(), 4);
    }
}
