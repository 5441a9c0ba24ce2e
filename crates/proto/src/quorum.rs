//! Quorum bookkeeping for the client-side protocol state machines, and the core the
//! four of them share.

use crate::msg::{OpOutcome, OpProgress, Outbound, ProtoMsg, ProtoReply};
use legostore_types::{Configuration, DcId, Key, QuorumId, StoreError};
use std::collections::BTreeSet;
use std::sync::Arc;

/// What `AbdPut`, `AbdGet`, `CasPut` and `CasGet` have in common: who runs the
/// operation under which configuration, which phase is collecting replies into which
/// tracker, how a phase fans out, the §4.5 widening and the reply screen.
#[derive(Debug, Clone)]
pub(crate) struct OpCore {
    pub key: Key,
    pub config: Configuration,
    pub client_dc: DcId,
    /// 1-based protocol phase currently collecting replies.
    pub phase: u8,
    /// One tracker per phase, indexed by `phase - 1`.
    trackers: Vec<QuorumTracker>,
    /// Distinct servers that answered `KeyNotFound` (see [`OpCore::screen`]).
    not_found: QuorumTracker,
}

impl OpCore {
    /// A machine in phase 1 whose phases need `needed[phase - 1]` distinct responders.
    pub fn new(key: Key, config: Configuration, client_dc: DcId, needed: &[usize]) -> Self {
        OpCore {
            key,
            client_dc,
            phase: 1,
            trackers: needed.iter().map(|n| QuorumTracker::new(*n)).collect(),
            not_found: QuorumTracker::new(config.quorums.size(QuorumId::Q1)),
            config,
        }
    }

    /// The tracker of `phase`.
    pub fn tracker(&self, phase: u8) -> &QuorumTracker {
        &self.trackers[phase as usize - 1]
    }

    /// Counts `from` toward the current phase; true exactly when it completes the quorum.
    pub fn record(&mut self, from: DcId) -> bool {
        self.trackers[self.phase as usize - 1].record(from)
    }

    /// `(needed, received)` of the current phase's quorum — how far a stalled phase got.
    pub fn pending_quorum(&self) -> (usize, usize) {
        let q = self.tracker(self.phase);
        (q.needed(), q.count())
    }

    /// One current-phase message per member of the client's preferred `quorum` for which
    /// `msg` yields a body.
    pub fn fan_out(&self, quorum: QuorumId, msg: impl Fn(DcId) -> Option<ProtoMsg>) -> Vec<Outbound> {
        self.send_to(self.config.quorum_for(self.client_dc, quorum), msg)
    }

    /// [`OpCore::fan_out`] over an explicit target list.
    pub fn send_to(&self, targets: &[DcId], msg: impl Fn(DcId) -> Option<ProtoMsg>) -> Vec<Outbound> {
        let outbound = |&to| {
            Some(Outbound {
                to,
                phase: self.phase,
                key: self.key.clone(),
                epoch: self.config.epoch,
                msg: msg(to)?,
            })
        };
        targets.iter().filter_map(outbound).collect()
    }

    /// The paper's §4.5 widening, made *sticky*: from now on every phase of this
    /// operation targets the full placement, so a later phase transition cannot fall back
    /// to a preferred quorum that contains the unreachable DC. Quorum *sizes* are
    /// untouched; only the target sets grow. The map is copied here if another
    /// configuration shares it, so the widening stays this operation's own.
    pub fn widen(&mut self) {
        let all = self.config.dcs.clone();
        Arc::make_mut(&mut self.config.preferred_quorums)
            .insert(self.client_dc, vec![all.clone(), all.clone(), all.clone(), all]);
    }

    /// The part of `on_reply` every machine shares. `Err` is the machine's answer;
    /// `Ok` hands back a current-phase reply for the machine to interpret.
    ///
    /// One key-less server must not veto an operation a quorum can still serve: a
    /// new-placement DC that was crashed or partitioned during the reconfiguration's
    /// write-new round answers `KeyNotFound` even though a write quorum holds the
    /// transferred key. Only a *read quorum* of `KeyNotFound`s — which intersects every
    /// write quorum, so no write could have completed — proves the key does not exist;
    /// fewer are treated as non-replies.
    pub fn screen(&mut self, from: DcId, phase: u8, reply: ProtoReply) -> Result<ProtoReply, OpProgress> {
        match reply {
            ProtoReply::OperationFail { new_config } => {
                Err(OpProgress::Done(OpOutcome::Reconfigured { new_config }))
            }
            _ if phase != self.phase => Err(OpProgress::Pending),
            ProtoReply::Error(e @ StoreError::KeyNotFound(_)) => Err(if self.not_found.record(from) {
                OpProgress::Done(OpOutcome::Failed(e))
            } else {
                OpProgress::Pending
            }),
            reply => Ok(reply),
        }
    }
}

/// Tracks which data centers have responded in the current phase and whether the phase's
/// quorum has been reached.
#[derive(Debug, Clone, Default)]
pub struct QuorumTracker {
    needed: usize,
    responded: BTreeSet<DcId>,
}

impl QuorumTracker {
    /// Starts a tracker that needs `needed` distinct responders.
    pub fn new(needed: usize) -> Self {
        QuorumTracker {
            needed,
            responded: BTreeSet::new(),
        }
    }

    /// Records a response from `dc`. Returns `true` exactly once: when this response is the
    /// one that completes the quorum.
    pub fn record(&mut self, dc: DcId) -> bool {
        if self.reached() {
            self.responded.insert(dc);
            return false;
        }
        self.responded.insert(dc);
        self.reached()
    }

    /// True if a duplicate or new response from `dc` has already been counted.
    pub fn has_responded(&self, dc: DcId) -> bool {
        self.responded.contains(&dc)
    }

    /// True once at least `needed` distinct DCs responded.
    pub fn reached(&self) -> bool {
        self.responded.len() >= self.needed
    }

    /// Number of distinct responders so far.
    pub fn count(&self) -> usize {
        self.responded.len()
    }

    /// The quorum size this tracker waits for.
    pub fn needed(&self) -> usize {
        self.needed
    }

    /// The set of responders.
    pub fn responders(&self) -> impl Iterator<Item = DcId> + '_ {
        self.responded.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_is_reached_exactly_once() {
        let mut q = QuorumTracker::new(2);
        assert!(!q.reached());
        assert!(!q.record(DcId(0)));
        assert!(!q.record(DcId(0))); // duplicate doesn't count twice
        assert_eq!(q.count(), 1);
        assert!(q.record(DcId(1))); // completes the quorum
        assert!(q.reached());
        assert!(!q.record(DcId(2))); // extra responses don't re-trigger
        assert_eq!(q.count(), 3);
        assert_eq!(q.needed(), 2);
        assert!(q.has_responded(DcId(2)));
        assert!(!q.has_responded(DcId(5)));
    }

    #[test]
    fn zero_quorum_is_immediately_reached() {
        let q = QuorumTracker::new(0);
        assert!(q.reached());
    }

    #[test]
    fn responders_iterates_distinct_dcs() {
        let mut q = QuorumTracker::new(3);
        q.record(DcId(2));
        q.record(DcId(1));
        q.record(DcId(2));
        let r: Vec<DcId> = q.responders().collect();
        assert_eq!(r, vec![DcId(1), DcId(2)]);
    }
}
