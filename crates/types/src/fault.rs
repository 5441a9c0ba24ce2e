//! Deterministic fault plans: the shared vocabulary both runtimes use to inject
//! network and data-center faults.
//!
//! A [`FaultPlan`] is a pure description — a time-ordered schedule of
//! [`FaultEvent`]s plus a seed for the per-message coin flips — with no opinion
//! about who interprets it. The threaded deployment (`legostore-core`) and the
//! discrete-event simulator (`legostore-sim`) both feed the plan into a
//! [`FaultState`] and consult [`FaultState::verdict`] at their transport
//! interposition points, so one plan drives adversarial conditions identically
//! (up to per-message randomness) in both runtimes.
//!
//! Time domain: event times are **model milliseconds**, the simulator's native
//! clock. The threaded deployment multiplies them by its `latency_scale` —
//! exactly as it scales the cloud model's RTTs — so a plan means the same thing
//! at any scale. Extra link/DC delays apply on the *reply* leg only in both
//! runtimes (the threaded deployment models the whole round trip on the reply
//! side; the simulator mirrors that so latency distributions stay comparable).
//!
//! What can be injected:
//!
//! * whole-DC crash + restart ([`FaultKind::CrashDc`] / [`FaultKind::RestartDc`]):
//!   every message to or from the DC is dropped while crashed;
//! * DC partitions, symmetric or asymmetric ([`FaultKind::Partition`] /
//!   [`FaultKind::Heal`]): traffic between the two sides is cut (one direction
//!   only for asymmetric partitions), and healing restores exactly the links
//!   that partition cut — overlapping partitions compose via per-link counts;
//! * slow-DC degradation ([`FaultKind::SlowDc`] / [`FaultKind::RestoreDc`]):
//!   extra delay on every message touching the DC;
//! * per-link drop / delay / duplication ([`FaultKind::LinkFault`] /
//!   [`FaultKind::ClearLink`]): seeded probabilistic loss and duplication.

use crate::DcId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// One kind of injected fault (or its repair).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The data center stops sending and receiving: every message to or from it is
    /// dropped until a matching [`FaultKind::RestartDc`].
    CrashDc {
        /// The crashed data center.
        dc: DcId,
    },
    /// Recovers a crashed data center (its stored state was never lost — the paper's
    /// fault model is unavailability, not disk loss).
    RestartDc {
        /// The recovering data center.
        dc: DcId,
    },
    /// Cuts the links between `left` and `right`. Symmetric partitions drop traffic in
    /// both directions; asymmetric ones only `left → right` (messages the other way
    /// still flow, modeling one-way route loss).
    Partition {
        /// Identifier matched by the healing [`FaultKind::Heal`] event.
        id: u32,
        /// One side of the cut.
        left: Vec<DcId>,
        /// The other side of the cut.
        right: Vec<DcId>,
        /// Cut both directions (`true`) or only `left → right` (`false`).
        symmetric: bool,
    },
    /// Heals the partition installed with the same `id`, restoring exactly the links it
    /// cut (links also cut by another still-active partition stay cut).
    Heal {
        /// Identifier of the partition to heal.
        id: u32,
    },
    /// Degrades a data center: every message to or from it gains `extra_ms` of delay.
    SlowDc {
        /// The degraded data center.
        dc: DcId,
        /// Extra one-way delay in model milliseconds (applied on the reply leg).
        extra_ms: f64,
    },
    /// Removes a [`FaultKind::SlowDc`] degradation.
    RestoreDc {
        /// The restored data center.
        dc: DcId,
    },
    /// Installs a lossy link `from → to`: each message is dropped with probability
    /// `drop_prob`, duplicated with probability `dup_prob`, and delayed by `extra_ms`.
    /// Coin flips come from the plan's seeded PRNG and are consumed in
    /// [`FaultState::verdict`] call order: fully reproducible in the single-threaded
    /// simulator, but in the threaded deployment concurrent clients race for draw
    /// order, so *which* messages a lossy link drops can differ between runs (the same
    /// caveat as the virtual clock's concurrent interleavings — crash, partition and
    /// slow-DC effects are draw-free and stay exact).
    LinkFault {
        /// Sending data center.
        from: DcId,
        /// Receiving data center.
        to: DcId,
        /// Per-message drop probability in `[0, 1]`.
        drop_prob: f64,
        /// Per-message duplication probability in `[0, 1]` (checked after drop).
        dup_prob: f64,
        /// Extra delay in model milliseconds for every delivered message.
        extra_ms: f64,
    },
    /// Removes the [`FaultKind::LinkFault`] on `from → to`.
    ClearLink {
        /// Sending data center.
        from: DcId,
        /// Receiving data center.
        to: DcId,
    },
}

/// A fault (or repair) scheduled at a point in model time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// When the fault takes effect, in model milliseconds from the start of the run.
    pub at_ms: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic, seed-driven schedule of fault events.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for the per-message drop/duplication coin flips.
    pub seed: u64,
    /// The schedule. [`FaultState`] applies events in `at_ms` order regardless of the
    /// order here; [`FaultPlan::sorted`] normalizes it.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults ever).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// True if the plan schedules no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Returns the plan with events sorted by time (stable, so simultaneous events keep
    /// their authored order).
    pub fn sorted(mut self) -> FaultPlan {
        self.events
            .sort_by(|a, b| a.at_ms.partial_cmp(&b.at_ms).unwrap_or(std::cmp::Ordering::Equal));
        self
    }

    /// The largest number of data centers that are simultaneously *faulted* — crashed,
    /// on the minority side of an active partition, or slowed — at any instant of the
    /// schedule. Lossy links ([`FaultKind::LinkFault`]) do not count: random loss delays
    /// operations but cannot permanently detach a DC.
    ///
    /// The stress suites compare this against a configuration's fault tolerance `f`:
    /// plans with `max_concurrent_faulted() <= f` must leave the store linearizable
    /// *and* live.
    pub fn max_concurrent_faulted(&self) -> usize {
        let plan = self.clone().sorted();
        let mut crashed: BTreeSet<DcId> = BTreeSet::new();
        let mut slow: BTreeSet<DcId> = BTreeSet::new();
        // partition id → the DCs its minority side detaches.
        let mut partitioned: BTreeMap<u32, Vec<DcId>> = BTreeMap::new();
        let mut max = 0usize;
        for ev in &plan.events {
            match &ev.kind {
                FaultKind::CrashDc { dc } => {
                    crashed.insert(*dc);
                }
                FaultKind::RestartDc { dc } => {
                    crashed.remove(dc);
                }
                FaultKind::SlowDc { dc, .. } => {
                    slow.insert(*dc);
                }
                FaultKind::RestoreDc { dc } => {
                    slow.remove(dc);
                }
                FaultKind::Partition { id, left, right, .. } => {
                    let minority = if left.len() <= right.len() { left } else { right };
                    partitioned.insert(*id, minority.clone());
                }
                FaultKind::Heal { id } => {
                    partitioned.remove(id);
                }
                FaultKind::LinkFault { .. } | FaultKind::ClearLink { .. } => {}
            }
            let mut faulted: BTreeSet<DcId> = crashed.union(&slow).copied().collect();
            for dcs in partitioned.values() {
                faulted.extend(dcs.iter().copied());
            }
            max = max.max(faulted.len());
        }
        max
    }
}

/// What the transport should do with one message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkVerdict {
    /// Silently discard the message.
    Drop,
    /// Deliver `copies` copies (1 = normal, 2 = duplicated), each `extra_delay_ms` of
    /// model time later than the fault-free delivery instant.
    Deliver {
        /// Number of copies to deliver.
        copies: u32,
        /// Extra model-milliseconds of delay per copy.
        extra_delay_ms: f64,
    },
}

impl LinkVerdict {
    /// Normal, fault-free delivery.
    pub const CLEAN: LinkVerdict = LinkVerdict::Deliver { copies: 1, extra_delay_ms: 0.0 };

    /// Collapses the verdict into the shape every transport loop wants: `None` to drop the
    /// message, `Some((copies, extra_delay_ms))` to deliver. Keeps the per-copy iteration
    /// identical across the in-process, TCP, and simulator seams.
    pub fn deliveries(self) -> Option<(u32, f64)> {
        match self {
            LinkVerdict::Drop => None,
            LinkVerdict::Deliver { copies, extra_delay_ms } => Some((copies, extra_delay_ms)),
        }
    }
}

/// Active per-link fault parameters (see [`FaultKind::LinkFault`]).
#[derive(Debug, Clone, Copy, PartialEq)]
struct LinkFaultParams {
    drop_prob: f64,
    dup_prob: f64,
    extra_ms: f64,
}

/// The runtime interpreter of a [`FaultPlan`]: tracks which faults are active as model
/// time advances and issues per-message [`LinkVerdict`]s.
///
/// Both runtimes advance the state lazily — [`FaultState::advance_to`] applies every
/// event scheduled at or before the queried instant — so no dedicated fault thread or
/// event type is needed, and a virtual clock that jumps over an entire fault window
/// still observes its effects at the first message sent inside it.
#[derive(Debug, Clone)]
pub struct FaultState {
    /// Remaining schedule, sorted by time.
    events: Vec<FaultEvent>,
    /// Index of the next unapplied event.
    next: usize,
    /// Crashed data centers.
    crashed: BTreeSet<DcId>,
    /// Directed link → number of active partitions cutting it.
    blocked: BTreeMap<(DcId, DcId), u32>,
    /// Active partitions: id → the directed links it cut.
    partitions: BTreeMap<u32, Vec<(DcId, DcId)>>,
    /// Slowed data centers → extra model-ms per message.
    slow: BTreeMap<DcId, f64>,
    /// Active lossy links.
    links: BTreeMap<(DcId, DcId), LinkFaultParams>,
    /// SplitMix64 state for the per-message coin flips.
    rng: u64,
}

impl FaultState {
    /// Builds the interpreter for `plan` with every event still pending.
    pub fn new(plan: &FaultPlan) -> FaultState {
        let sorted = plan.clone().sorted();
        FaultState {
            events: sorted.events,
            next: 0,
            crashed: BTreeSet::new(),
            blocked: BTreeMap::new(),
            partitions: BTreeMap::new(),
            slow: BTreeMap::new(),
            links: BTreeMap::new(),
            // Mix the seed so seed 0 still produces a useful stream.
            rng: plan.seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Applies every event scheduled at or before `now_ms`. Monotonic: earlier instants
    /// are a no-op once passed.
    pub fn advance_to(&mut self, now_ms: f64) {
        while self.next < self.events.len() && self.events[self.next].at_ms <= now_ms {
            let kind = self.events[self.next].kind.clone();
            self.next += 1;
            self.apply(&kind);
        }
    }

    /// Applies one fault immediately, outside the schedule (tests and ad-hoc drivers).
    pub fn apply(&mut self, kind: &FaultKind) {
        match kind {
            FaultKind::CrashDc { dc } => {
                self.crashed.insert(*dc);
            }
            FaultKind::RestartDc { dc } => {
                self.crashed.remove(dc);
            }
            FaultKind::Partition { id, left, right, symmetric } => {
                if self.partitions.contains_key(id) {
                    return; // duplicate install of the same partition: ignore
                }
                let mut cut = Vec::new();
                for l in left {
                    for r in right {
                        cut.push((*l, *r));
                        if *symmetric {
                            cut.push((*r, *l));
                        }
                    }
                }
                for link in &cut {
                    *self.blocked.entry(*link).or_insert(0) += 1;
                }
                self.partitions.insert(*id, cut);
            }
            FaultKind::Heal { id } => {
                if let Some(cut) = self.partitions.remove(id) {
                    for link in cut {
                        if let Some(count) = self.blocked.get_mut(&link) {
                            *count -= 1;
                            if *count == 0 {
                                self.blocked.remove(&link);
                            }
                        }
                    }
                }
            }
            FaultKind::SlowDc { dc, extra_ms } => {
                self.slow.insert(*dc, *extra_ms);
            }
            FaultKind::RestoreDc { dc } => {
                self.slow.remove(dc);
            }
            FaultKind::LinkFault { from, to, drop_prob, dup_prob, extra_ms } => {
                self.links.insert(
                    (*from, *to),
                    LinkFaultParams {
                        drop_prob: *drop_prob,
                        dup_prob: *dup_prob,
                        extra_ms: *extra_ms,
                    },
                );
            }
            FaultKind::ClearLink { from, to } => {
                self.links.remove(&(*from, *to));
            }
        }
    }

    /// Decides the fate of one message on the `from → to` link under the currently
    /// active faults. Consumes PRNG draws only when a lossy link is installed on that
    /// exact directed pair, so fault-free traffic stays deterministic regardless of
    /// query order.
    pub fn verdict(&mut self, from: DcId, to: DcId) -> LinkVerdict {
        if self.crashed.contains(&from) || self.crashed.contains(&to) {
            return LinkVerdict::Drop;
        }
        if self.blocked.get(&(from, to)).copied().unwrap_or(0) > 0 {
            return LinkVerdict::Drop;
        }
        let mut extra = self.slow.get(&from).copied().unwrap_or(0.0)
            + self.slow.get(&to).copied().unwrap_or(0.0);
        let mut copies = 1;
        if let Some(params) = self.links.get(&(from, to)).copied() {
            if self.next_unit() < params.drop_prob {
                return LinkVerdict::Drop;
            }
            if self.next_unit() < params.dup_prob {
                copies = 2;
            }
            extra += params.extra_ms;
        }
        LinkVerdict::Deliver { copies, extra_delay_ms: extra }
    }

    /// True if any fault is currently active (cheap gate for the hot path).
    pub fn any_active(&self) -> bool {
        !self.crashed.is_empty()
            || !self.blocked.is_empty()
            || !self.slow.is_empty()
            || !self.links.is_empty()
    }

    /// Next SplitMix64 draw mapped to `[0, 1)`.
    fn next_unit(&mut self) -> f64 {
        // SplitMix64 (Steele et al.); also what the offline `rand` shim's StdRng uses,
        // so fault coin flips and workload generation share one PRNG family.
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z = z ^ (z >> 31);
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn dc(i: u16) -> DcId {
        DcId(i)
    }

    impl FaultState {
        /// Number of events not yet applied.
        fn pending_events(&self) -> usize {
            self.events.len() - self.next
        }
    }

    #[test]
    fn deliveries_collapses_verdicts() {
        assert_eq!(LinkVerdict::Drop.deliveries(), None);
        assert_eq!(LinkVerdict::CLEAN.deliveries(), Some((1, 0.0)));
        let dup = LinkVerdict::Deliver { copies: 2, extra_delay_ms: 7.5 };
        assert_eq!(dup.deliveries(), Some((2, 7.5)));
    }

    #[test]
    fn crash_drops_both_directions_until_restart() {
        let mut s = FaultState::new(&FaultPlan::none());
        s.apply(&FaultKind::CrashDc { dc: dc(1) });
        assert_eq!(s.verdict(dc(0), dc(1)), LinkVerdict::Drop);
        assert_eq!(s.verdict(dc(1), dc(0)), LinkVerdict::Drop);
        assert_eq!(s.verdict(dc(0), dc(2)), LinkVerdict::CLEAN);
        s.apply(&FaultKind::RestartDc { dc: dc(1) });
        assert_eq!(s.verdict(dc(0), dc(1)), LinkVerdict::CLEAN);
        assert!(!s.any_active());
    }

    #[test]
    fn symmetric_partition_cuts_both_ways_and_heals_exactly() {
        let mut s = FaultState::new(&FaultPlan::none());
        s.apply(&FaultKind::Partition {
            id: 1,
            left: vec![dc(0)],
            right: vec![dc(1), dc(2)],
            symmetric: true,
        });
        assert_eq!(s.verdict(dc(0), dc(1)), LinkVerdict::Drop);
        assert_eq!(s.verdict(dc(2), dc(0)), LinkVerdict::Drop);
        assert_eq!(s.verdict(dc(1), dc(2)), LinkVerdict::CLEAN, "links within one side stay up");
        s.apply(&FaultKind::Heal { id: 1 });
        assert_eq!(s.verdict(dc(0), dc(1)), LinkVerdict::CLEAN);
        assert!(!s.any_active());
    }

    #[test]
    fn asymmetric_partition_cuts_one_direction() {
        let mut s = FaultState::new(&FaultPlan::none());
        s.apply(&FaultKind::Partition {
            id: 7,
            left: vec![dc(3)],
            right: vec![dc(4)],
            symmetric: false,
        });
        assert_eq!(s.verdict(dc(3), dc(4)), LinkVerdict::Drop);
        assert_eq!(s.verdict(dc(4), dc(3)), LinkVerdict::CLEAN, "reverse direction must still flow");
    }

    #[test]
    fn overlapping_partitions_compose_via_counts() {
        let mut s = FaultState::new(&FaultPlan::none());
        let cut = |id| FaultKind::Partition {
            id,
            left: vec![dc(0)],
            right: vec![dc(1)],
            symmetric: true,
        };
        s.apply(&cut(1));
        s.apply(&cut(2));
        s.apply(&FaultKind::Heal { id: 1 });
        assert_eq!(s.verdict(dc(0), dc(1)), LinkVerdict::Drop, "second partition still cuts the link");
        s.apply(&FaultKind::Heal { id: 2 });
        assert_eq!(s.verdict(dc(0), dc(1)), LinkVerdict::CLEAN);
    }

    #[test]
    fn slow_dc_adds_delay_on_both_endpoints() {
        let mut s = FaultState::new(&FaultPlan::none());
        s.apply(&FaultKind::SlowDc { dc: dc(2), extra_ms: 40.0 });
        assert_eq!(
            s.verdict(dc(0), dc(2)),
            LinkVerdict::Deliver { copies: 1, extra_delay_ms: 40.0 }
        );
        assert_eq!(
            s.verdict(dc(2), dc(0)),
            LinkVerdict::Deliver { copies: 1, extra_delay_ms: 40.0 }
        );
        assert_eq!(s.verdict(dc(0), dc(1)), LinkVerdict::CLEAN);
        s.apply(&FaultKind::RestoreDc { dc: dc(2) });
        assert_eq!(s.verdict(dc(0), dc(2)), LinkVerdict::CLEAN);
    }

    #[test]
    fn link_fault_drops_duplicates_and_delays_deterministically() {
        let plan = FaultPlan { seed: 42, events: vec![] };
        let run = || {
            let mut s = FaultState::new(&plan);
            s.apply(&FaultKind::LinkFault {
                from: dc(0),
                to: dc(1),
                drop_prob: 0.3,
                dup_prob: 0.3,
                extra_ms: 5.0,
            });
            (0..200).map(|_| s.verdict(dc(0), dc(1))).collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run(), "same seed must flip the same coins");
        let drops = a.iter().filter(|v| **v == LinkVerdict::Drop).count();
        let dups = a
            .iter()
            .filter(|v| matches!(v, LinkVerdict::Deliver { copies: 2, .. }))
            .count();
        assert!(drops > 20 && drops < 120, "≈30% of 200 messages drop, got {drops}");
        assert!(dups > 10, "duplications must occur, got {dups}");
        assert!(a
            .iter()
            .all(|v| !matches!(v, LinkVerdict::Deliver { extra_delay_ms, .. } if *extra_delay_ms != 5.0)));
        // The reverse direction is unaffected and consumes no randomness.
        let mut s = FaultState::new(&plan);
        s.apply(&FaultKind::ClearLink { from: dc(0), to: dc(1) });
        assert_eq!(s.verdict(dc(1), dc(0)), LinkVerdict::CLEAN);
    }

    #[test]
    fn advance_applies_events_in_time_order() {
        let plan = FaultPlan {
            seed: 0,
            events: vec![
                FaultEvent { at_ms: 200.0, kind: FaultKind::RestartDc { dc: dc(5) } },
                FaultEvent { at_ms: 100.0, kind: FaultKind::CrashDc { dc: dc(5) } },
            ],
        };
        let mut s = FaultState::new(&plan);
        assert_eq!(s.pending_events(), 2);
        s.advance_to(50.0);
        assert_eq!(s.verdict(dc(0), dc(5)), LinkVerdict::CLEAN);
        s.advance_to(150.0);
        assert_eq!(s.verdict(dc(0), dc(5)), LinkVerdict::Drop);
        s.advance_to(100.0); // going "back" is a no-op
        assert_eq!(s.verdict(dc(0), dc(5)), LinkVerdict::Drop);
        s.advance_to(1_000.0);
        assert_eq!(s.verdict(dc(0), dc(5)), LinkVerdict::CLEAN);
        assert_eq!(s.pending_events(), 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(128))]
        #[test]
        fn healing_every_partition_restores_full_connectivity(
            n in 2u16..9,
            cuts in proptest::collection::vec(proptest::arbitrary::any::<u64>(), 1..6),
        ) {
            // Apply a random pile of (possibly overlapping, possibly asymmetric)
            // partitions, then heal them in a different order than they were applied:
            // the link-count algebra must leave the topology exactly as it started.
            let mut s = FaultState::new(&FaultPlan::none());
            for (id, raw) in cuts.iter().enumerate() {
                let victim = dc((raw % n as u64) as u16);
                let rest: Vec<DcId> = (0..n).map(dc).filter(|d| *d != victim).collect();
                s.apply(&FaultKind::Partition {
                    id: id as u32,
                    left: vec![victim],
                    right: rest,
                    symmetric: raw & 1 == 0,
                });
            }
            // Heal odd ids first, then even: order independence is part of the algebra.
            for (id, _) in cuts.iter().enumerate().filter(|(i, _)| i % 2 == 1) {
                s.apply(&FaultKind::Heal { id: id as u32 });
            }
            for (id, _) in cuts.iter().enumerate().filter(|(i, _)| i % 2 == 0) {
                s.apply(&FaultKind::Heal { id: id as u32 });
            }
            for a in 0..n {
                for b in 0..n {
                    prop_assert_eq!(s.verdict(dc(a), dc(b)), LinkVerdict::CLEAN);
                }
            }
            prop_assert!(!s.any_active());
        }
    }

    #[test]
    fn max_concurrent_faulted_tracks_overlap() {
        let crash = |at_ms, i| FaultEvent { at_ms, kind: FaultKind::CrashDc { dc: dc(i) } };
        let restart = |at_ms, i| FaultEvent { at_ms, kind: FaultKind::RestartDc { dc: dc(i) } };
        let sequential = FaultPlan {
            seed: 0,
            events: vec![crash(0.0, 1), restart(100.0, 1), crash(200.0, 2), restart(300.0, 2)],
        };
        assert_eq!(sequential.max_concurrent_faulted(), 1);
        let overlapping = FaultPlan {
            seed: 0,
            events: vec![crash(0.0, 1), crash(50.0, 2), restart(100.0, 1), restart(300.0, 2)],
        };
        assert_eq!(overlapping.max_concurrent_faulted(), 2);
        // A partition isolating one DC counts its minority side.
        let partition = FaultPlan {
            seed: 0,
            events: vec![FaultEvent {
                at_ms: 0.0,
                kind: FaultKind::Partition {
                    id: 1,
                    left: vec![dc(3)],
                    right: vec![dc(0), dc(1), dc(2)],
                    symmetric: true,
                },
            }],
        };
        assert_eq!(partition.max_concurrent_faulted(), 1);
        assert_eq!(FaultPlan::none().max_concurrent_faulted(), 0);
    }
}
