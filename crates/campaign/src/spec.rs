//! Declarative sweep specifications and tier budgets.
//!
//! A campaign is described, not scripted: a [`SweepSpec`] names a [`Tier`] and a base
//! seed, and [`SweepSpec::cells`] expands it into the concrete list of [`CellSpec`]s —
//! (workload × fault seed × protocol × placement × scenario family) points — that the
//! runner executes. Expansion is pure: the same spec always yields the same cells in
//! the same order with the same per-cell seeds, which is what makes whole campaign
//! reports byte-reproducible.

use legostore_cloud::{CloudModel, GcpLocation};
use legostore_types::{Configuration, DcId, ProtocolKind};
use legostore_workload::grid::ClientDistribution;
use legostore_workload::{basic_workloads, client_distribution, WorkloadSpec};

/// Default SLOs used for campaign workloads (ms). Generous enough that a healthy
/// placement meets them; the monitor still sees violations under stress scenarios.
pub const SLO_GET_MS: f64 = 1_000.0;
pub const SLO_PUT_MS: f64 = 1_000.0;

/// Fault tolerance every campaign placement is built for.
pub const CAMPAIGN_F: usize = 1;

/// Minimum number of keys each cell's trace is spread over; [`CellSpec::keys`] scales
/// the actual count with the cell's arrival rate, so no key exceeds
/// [`MAX_RATE_PER_KEY`]. The checker decides any per-key concurrency in O(n log n); the
/// cap stays because every cell's trace, and so every campaign fingerprint, depends on
/// the key count. Lifting it is a deliberate fingerprint move that comes with a
/// hot-key scenario family.
pub const KEYS_PER_CELL: usize = 16;

/// Per-key offered load ceiling (req/s) used by [`CellSpec::keys`].
pub const MAX_RATE_PER_KEY: f64 = 4.0;

/// A CI-style budget tier: how much of the grid, how many seeds, how long each run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Seconds: a handful of cells, enough to catch wiring rot in every family.
    Smoke,
    /// Per-PR budget: ≥ 200 cells sampled across the grid, all scenario families.
    Ci,
    /// Scheduled: a dense grid slice, more seeds, both placements.
    Nightly,
    /// Everything: all 567 grid workloads, full seed matrix.
    Full,
}

impl Tier {
    /// All tiers, smallest first.
    pub const ALL: [Tier; 4] = [Tier::Smoke, Tier::Ci, Tier::Nightly, Tier::Full];

    /// Parses a tier name as accepted by `legostore-campaign --tier`.
    pub fn parse(s: &str) -> Option<Tier> {
        match s {
            "smoke" => Some(Tier::Smoke),
            "ci" => Some(Tier::Ci),
            "nightly" => Some(Tier::Nightly),
            "full" => Some(Tier::Full),
            _ => None,
        }
    }

    /// Canonical lower-case name.
    pub fn label(self) -> &'static str {
        match self {
            Tier::Smoke => "smoke",
            Tier::Ci => "ci",
            Tier::Nightly => "nightly",
            Tier::Full => "full",
        }
    }

    /// The budget this tier expands with.
    pub fn budget(self) -> TierBudget {
        match self {
            Tier::Smoke => TierBudget {
                grid_stride: 81,
                seeds_per_cell: 1,
                scenario_reps: 1,
                duration_ms: 4_000.0,
                placements: vec![PlacementChoice::Paper],
            },
            Tier::Ci => TierBudget {
                grid_stride: 11,
                seeds_per_cell: 2,
                scenario_reps: 2,
                duration_ms: 6_000.0,
                placements: vec![PlacementChoice::Paper],
            },
            Tier::Nightly => TierBudget {
                grid_stride: 8,
                seeds_per_cell: 3,
                scenario_reps: 4,
                duration_ms: 10_000.0,
                placements: vec![PlacementChoice::Paper, PlacementChoice::Spread],
            },
            Tier::Full => TierBudget {
                grid_stride: 1,
                seeds_per_cell: 3,
                scenario_reps: 6,
                duration_ms: 10_000.0,
                placements: vec![PlacementChoice::Paper, PlacementChoice::Spread],
            },
        }
    }
}

/// The knobs a [`Tier`] turns.
#[derive(Debug, Clone, PartialEq)]
pub struct TierBudget {
    /// Take every `grid_stride`-th workload of the 567-cell basic grid.
    pub grid_stride: usize,
    /// Seeds per (workload, protocol, placement) baseline cell; each seed drives both
    /// the Poisson trace and the fault plan.
    pub seeds_per_cell: usize,
    /// Seeded repetitions per scenario-family cell.
    pub scenario_reps: usize,
    /// Virtual duration of each run (ms).
    pub duration_ms: f64,
    /// Placements swept.
    pub placements: Vec<PlacementChoice>,
}

/// A named placement family; combined with a protocol it yields a concrete
/// [`Configuration`] (always built for [`CAMPAIGN_F`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementChoice {
    /// The paper's running examples: ABD over {Tokyo, LA, Oregon}, CAS(5,3) over
    /// {Singapore, Frankfurt, Virginia, LA, Oregon} (Figure 4 / §4.2).
    Paper,
    /// A deliberately spread alternative touching every region, so correlated-region
    /// outages and flash crowds land differently than on the paper placement.
    Spread,
}

/// A protocol's lower-case name in cell ids and reports.
pub(crate) fn protocol_label(protocol: ProtocolKind) -> &'static str {
    match protocol {
        ProtocolKind::Abd => "abd",
        ProtocolKind::Cas => "cas",
    }
}

impl PlacementChoice {
    /// Short label for cell ids and reports.
    pub fn label(self) -> &'static str {
        match self {
            PlacementChoice::Paper => "paper",
            PlacementChoice::Spread => "spread",
        }
    }

    /// The DCs hosting the key under `protocol`.
    pub fn dcs(self, protocol: ProtocolKind) -> Vec<DcId> {
        let loc = |l: GcpLocation| l.dc();
        match (self, protocol) {
            (PlacementChoice::Paper, ProtocolKind::Abd) => vec![
                loc(GcpLocation::Tokyo),
                loc(GcpLocation::LosAngeles),
                loc(GcpLocation::Oregon),
            ],
            (PlacementChoice::Paper, ProtocolKind::Cas) => vec![
                loc(GcpLocation::Singapore),
                loc(GcpLocation::Frankfurt),
                loc(GcpLocation::Virginia),
                loc(GcpLocation::LosAngeles),
                loc(GcpLocation::Oregon),
            ],
            (PlacementChoice::Spread, ProtocolKind::Abd) => vec![
                loc(GcpLocation::Tokyo),
                loc(GcpLocation::Frankfurt),
                loc(GcpLocation::Virginia),
            ],
            (PlacementChoice::Spread, ProtocolKind::Cas) => vec![
                loc(GcpLocation::Tokyo),
                loc(GcpLocation::Sydney),
                loc(GcpLocation::Frankfurt),
                loc(GcpLocation::Virginia),
                loc(GcpLocation::Oregon),
            ],
        }
    }

    /// The concrete configuration for `protocol` (ABD majority / CAS(5,3), f = 1).
    pub fn config(self, protocol: ProtocolKind) -> Configuration {
        let dcs = self.dcs(protocol);
        match protocol {
            ProtocolKind::Abd => Configuration::abd_majority(dcs, CAMPAIGN_F),
            ProtocolKind::Cas => Configuration::cas_default(dcs, 3, CAMPAIGN_F),
        }
    }
}

/// The six scenario families a campaign sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ScenarioFamily {
    /// A stationary grid workload under a seeded within-`f` fault plan.
    Baseline,
    /// Day/night sinusoidal load swing (no faults): §3.4's "workload changes" case.
    Diurnal,
    /// A surge window concentrating traffic onto one DC.
    FlashCrowd,
    /// A whole geographic region crashing and healing together.
    RegionOutage,
    /// A mid-run workload shift that the live monitor must answer with an ABD↔CAS /
    /// placement reconfiguration.
    ProtocolFlip,
    /// Seeded concurrent reconfigurations (ABD↔CAS epoch flips mid-traffic) under a
    /// within-`f` fault plan drawn over *both* placements: the transfer path itself
    /// under fire. Expected: at least one reconfiguration completes and every history
    /// stays linearizable.
    ReconfigStorm,
}

impl ScenarioFamily {
    /// The five non-baseline families, in sweep order.
    pub const SCENARIOS: [ScenarioFamily; 5] = [
        ScenarioFamily::Diurnal,
        ScenarioFamily::FlashCrowd,
        ScenarioFamily::RegionOutage,
        ScenarioFamily::ProtocolFlip,
        ScenarioFamily::ReconfigStorm,
    ];

    /// Short label for cell ids and reports.
    pub fn label(self) -> &'static str {
        match self {
            ScenarioFamily::Baseline => "baseline",
            ScenarioFamily::Diurnal => "diurnal",
            ScenarioFamily::FlashCrowd => "flash-crowd",
            ScenarioFamily::RegionOutage => "region-outage",
            ScenarioFamily::ProtocolFlip => "protocol-flip",
            ScenarioFamily::ReconfigStorm => "reconfig-storm",
        }
    }
}

/// One run the campaign engine will execute.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Stable, unique id: `family/workload/protocol/placement/s<seed-index>`.
    pub id: String,
    /// Scenario family this cell belongs to.
    pub family: ScenarioFamily,
    /// The (stationary) workload the cell starts from; scenario families warp it.
    pub workload: WorkloadSpec,
    /// Protocol under test (ignored by [`ScenarioFamily::ProtocolFlip`], whose
    /// configurations come from the optimizer).
    pub protocol: ProtocolKind,
    /// Placement family under test.
    pub placement: PlacementChoice,
    /// Seed driving the trace, the fault plan and any scenario coin flips.
    pub seed: u64,
    /// Virtual duration of the run (ms).
    pub duration_ms: f64,
}

impl CellSpec {
    /// Number of keys the cell's trace is spread over: at least [`KEYS_PER_CELL`],
    /// widened so no key sees more than [`MAX_RATE_PER_KEY`] req/s. Higher-rate
    /// workloads naturally touch more keys; the cap is kept so that the campaign
    /// fingerprints stay put, not to keep the checker tractable.
    pub fn keys(&self) -> usize {
        let by_rate = (self.workload.arrival_rate / MAX_RATE_PER_KEY).ceil() as usize;
        by_rate.max(KEYS_PER_CELL)
    }
}

/// A declarative campaign: a tier plus a base seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Budget tier.
    pub tier: Tier,
    /// Base seed; every cell's seed is `seed_base + <stable offset>`.
    pub seed_base: u64,
}

impl SweepSpec {
    /// The default campaign for `tier` (seed base 42, the repo-wide convention).
    pub fn for_tier(tier: Tier) -> SweepSpec {
        SweepSpec { tier, seed_base: 42 }
    }

    /// Expands the spec into the concrete cell list. Pure: same spec ⇒ same cells,
    /// same order, same seeds.
    pub fn cells(&self) -> Vec<CellSpec> {
        let budget = self.tier.budget();
        let model = CloudModel::gcp9();
        let grid = basic_workloads(&model, SLO_GET_MS, SLO_PUT_MS, CAMPAIGN_F);
        let mut out = Vec::new();
        let mut offset: u64 = 0;
        let mut push = |out: &mut Vec<CellSpec>,
                        family: ScenarioFamily,
                        workload: &WorkloadSpec,
                        protocol: ProtocolKind,
                        placement: PlacementChoice,
                        rep: usize| {
            let id = format!(
                "{}/{}/{}/{}/s{}",
                family.label(),
                workload.name,
                protocol_label(protocol),
                placement.label(),
                rep
            );
            out.push(CellSpec {
                id,
                family,
                workload: workload.clone(),
                protocol,
                placement,
                seed: self.seed_base + offset,
                duration_ms: budget.duration_ms,
            });
            offset += 1;
        };

        // Baseline grid slice: workload × protocol × placement × seed.
        for workload in grid.iter().step_by(budget.grid_stride.max(1)) {
            for &placement in &budget.placements {
                for protocol in [ProtocolKind::Abd, ProtocolKind::Cas] {
                    for rep in 0..budget.seeds_per_cell {
                        push(&mut out, ScenarioFamily::Baseline, workload, protocol, placement, rep);
                    }
                }
            }
        }

        // Scenario families: family × protocol × placement × rep (ProtocolFlip picks
        // its own configurations, so it sweeps only reps × placements).
        for family in ScenarioFamily::SCENARIOS {
            let workload = scenario_workload(family, &model);
            for &placement in &budget.placements {
                if family == ScenarioFamily::ProtocolFlip {
                    for rep in 0..budget.scenario_reps {
                        push(&mut out, family, &workload, ProtocolKind::Abd, placement, rep);
                    }
                } else {
                    for protocol in [ProtocolKind::Abd, ProtocolKind::Cas] {
                        for rep in 0..budget.scenario_reps {
                            push(&mut out, family, &workload, protocol, placement, rep);
                        }
                    }
                }
            }
        }
        out
    }
}

/// The stationary workload each scenario family starts from. Scenario cells do not
/// sweep the grid (the baseline slice covers it); they pin one representative spec and
/// vary seeds instead.
pub fn scenario_workload(family: ScenarioFamily, model: &CloudModel) -> WorkloadSpec {
    let mut spec = WorkloadSpec::example();
    spec.metadata_size = legostore_cloud::METADATA_BYTES;
    spec.slo_get_ms = SLO_GET_MS;
    spec.slo_put_ms = SLO_PUT_MS;
    spec.fault_tolerance = CAMPAIGN_F;
    spec.total_data_bytes = 100 * 1_000_000_000;
    match family {
        ScenarioFamily::Baseline => {
            spec.name = "baseline".into();
        }
        ScenarioFamily::Diurnal => {
            spec.name = "diurnal-10k-RW".into();
            spec.object_size = 10 * 1024;
            spec.read_ratio = 0.5;
            spec.arrival_rate = 240.0;
            spec.client_distribution = vec![
                (GcpLocation::Tokyo.dc(), 0.5),
                (GcpLocation::Frankfurt.dc(), 0.5),
            ];
        }
        ScenarioFamily::FlashCrowd => {
            spec.name = "flash-10k-HR".into();
            spec.object_size = 10 * 1024;
            spec.read_ratio = 30.0 / 31.0;
            spec.arrival_rate = 300.0;
            spec.client_distribution = vec![
                (GcpLocation::LosAngeles.dc(), 0.5),
                (GcpLocation::Oregon.dc(), 0.5),
            ];
        }
        ScenarioFamily::RegionOutage => {
            spec.name = "outage-10k-RW".into();
            spec.object_size = 10 * 1024;
            spec.read_ratio = 0.5;
            spec.arrival_rate = 240.0;
            spec.client_distribution = client_distribution(ClientDistribution::Uniform, model);
        }
        ScenarioFamily::ProtocolFlip => {
            // Epoch 1 of the flip scenario: 1 KB mixed traffic split between Sydney
            // and Frankfurt under a 300 ms SLO. CAS's 3-phase PUT cannot fit that
            // budget from clients this spread out, so the optimizer answers ABD.
            // Epoch 2 (see [`flip_epoch2_workload`]) collapses onto read-heavy
            // Tokyo-only traffic, where CAS fits the same SLO and is cheaper.
            spec.name = "flip-1k-RW-to-HR".into();
            spec.slo_get_ms = 300.0;
            spec.slo_put_ms = 300.0;
            spec.object_size = 1024;
            spec.read_ratio = 0.5;
            spec.arrival_rate = 150.0;
            spec.client_distribution = vec![
                (GcpLocation::Sydney.dc(), 0.5),
                (GcpLocation::Frankfurt.dc(), 0.5),
            ];
        }
        ScenarioFamily::ReconfigStorm => {
            // Write-heavy enough that PUTs are always in flight when an epoch flips
            // (the cross-epoch double-apply needs a redirected write), from clients
            // near the old placement, the new placement, and a third-party region.
            spec.name = "storm-1k-RW".into();
            spec.object_size = 1024;
            spec.read_ratio = 0.5;
            spec.arrival_rate = 150.0;
            spec.client_distribution = vec![
                (GcpLocation::Tokyo.dc(), 0.4),
                (GcpLocation::Oregon.dc(), 0.3),
                (GcpLocation::Frankfurt.dc(), 0.3),
            ];
        }
    }
    spec
}

/// The epoch-2 workload of the ABD↔CAS flip scenario: the drifted mix the monitor
/// should detect and the optimizer should answer with a different protocol/placement.
pub fn flip_epoch2_workload(model: &CloudModel) -> WorkloadSpec {
    let mut spec = scenario_workload(ScenarioFamily::ProtocolFlip, model);
    spec.name = "flip-epoch2-1k-HR-Tokyo".into();
    spec.read_ratio = 30.0 / 31.0;
    spec.client_distribution = vec![(GcpLocation::Tokyo.dc(), 1.0)];
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_parsing_round_trips() {
        for tier in Tier::ALL {
            assert_eq!(Tier::parse(tier.label()), Some(tier));
        }
        assert_eq!(Tier::parse("bogus"), None);
    }

    #[test]
    fn ci_tier_sweeps_at_least_200_cells_and_every_family() {
        let cells = SweepSpec::for_tier(Tier::Ci).cells();
        assert!(cells.len() >= 200, "ci tier must sweep ≥ 200 cells, got {}", cells.len());
        for family in [
            ScenarioFamily::Baseline,
            ScenarioFamily::Diurnal,
            ScenarioFamily::FlashCrowd,
            ScenarioFamily::RegionOutage,
            ScenarioFamily::ProtocolFlip,
            ScenarioFamily::ReconfigStorm,
        ] {
            assert!(
                cells.iter().any(|c| c.family == family),
                "ci tier misses {family:?}"
            );
        }
    }

    #[test]
    fn cell_ids_are_unique_and_seeds_stable() {
        let a = SweepSpec::for_tier(Tier::Smoke).cells();
        let b = SweepSpec::for_tier(Tier::Smoke).cells();
        let mut ids: Vec<&str> = a.iter().map(|c| c.id.as_str()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), a.len(), "cell ids must be unique");
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.seed, y.seed);
        }
    }

    #[test]
    fn full_tier_covers_the_whole_grid() {
        let budget = Tier::Full.budget();
        assert_eq!(budget.grid_stride, 1);
        let baseline: Vec<_> = SweepSpec::for_tier(Tier::Full)
            .cells()
            .into_iter()
            .filter(|c| c.family == ScenarioFamily::Baseline)
            .collect();
        // 567 workloads × 2 protocols × placements × seeds.
        assert_eq!(
            baseline.len(),
            567 * 2 * budget.placements.len() * budget.seeds_per_cell
        );
    }

    #[test]
    fn placements_build_valid_configs() {
        for placement in [PlacementChoice::Paper, PlacementChoice::Spread] {
            let abd = placement.config(ProtocolKind::Abd);
            assert_eq!(abd.protocol, ProtocolKind::Abd);
            assert_eq!(abd.n, 3);
            let cas = placement.config(ProtocolKind::Cas);
            assert_eq!(cas.protocol, ProtocolKind::Cas);
            assert_eq!((cas.n, cas.k), (5, 3));
        }
    }

    #[test]
    fn scenario_workloads_validate() {
        let model = CloudModel::gcp9();
        for family in ScenarioFamily::SCENARIOS {
            scenario_workload(family, &model).validate().expect("valid spec");
        }
        flip_epoch2_workload(&model).validate().expect("valid epoch-2 spec");
    }
}
