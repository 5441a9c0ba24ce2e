//! The "when and what to reconfigure" heuristics of §3.4.
//!
//! The reactive triggers that mark a key as badly configured live in [`crate::monitor`].
//! Once a better configuration is computed, the move is only made if
//! the projected savings over the workload's predicted stability window outweigh the
//! explicit cost of the transfer by a safety factor `(1 + α)`.

use crate::plan::Plan;
use legostore_cloud::CloudModel;
use legostore_types::{Configuration, ProtocolKind};
use serde::{Deserialize, Serialize};

/// The outcome of the cost/benefit analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ReconfigDecision {
    /// Stay with the current configuration.
    Stay {
        /// Projected savings over the window ($), possibly negative.
        projected_savings: f64,
        /// Cost of performing the reconfiguration ($).
        transfer_cost: f64,
    },
    /// Move to the new configuration.
    Reconfigure {
        /// Projected savings over the window ($).
        projected_savings: f64,
        /// Cost of performing the reconfiguration ($).
        transfer_cost: f64,
    },
}

impl ReconfigDecision {
    /// True if the decision is to reconfigure.
    pub fn should_move(&self) -> bool {
        matches!(self, ReconfigDecision::Reconfigure { .. })
    }
}

/// Explicit network cost ($) of transferring one key of `object_bytes` bytes from `old` to
/// `new`: the controller reads enough data from the old configuration to reconstruct the
/// value and then ships a replica / codeword symbol to every member of the new placement
/// (`ReCost(c_old, c_new)` in §3.4).
pub fn transfer_cost(
    model: &CloudModel,
    old: &Configuration,
    new: &Configuration,
    object_bytes: u64,
    controller_dc: legostore_types::DcId,
) -> f64 {
    let o = object_bytes as f64;
    // Read side: ABD ships whole values from N - q2 + 1 servers (we charge one value since
    // the rest are metadata-dominated in practice: the controller stops at the quorum), CAS
    // ships k codeword symbols.
    let read_cost = match old.protocol {
        ProtocolKind::Abd => old
            .dcs
            .first()
            .map(|dc| o * model.net_price_per_byte(*dc, controller_dc))
            .unwrap_or(0.0),
        ProtocolKind::Cas => old
            .dcs
            .iter()
            .take(old.k)
            .map(|dc| (o / old.k as f64) * model.net_price_per_byte(*dc, controller_dc))
            .sum(),
    };
    // Write side: every member of the new placement receives its replica / symbol.
    let write_cost: f64 = match new.protocol {
        ProtocolKind::Abd => new
            .dcs
            .iter()
            .map(|dc| o * model.net_price_per_byte(controller_dc, *dc))
            .sum(),
        ProtocolKind::Cas => new
            .dcs
            .iter()
            .map(|dc| (o / new.k as f64) * model.net_price_per_byte(controller_dc, *dc))
            .sum(),
    };
    read_cost + write_cost
}

/// Applies the §3.4 rule: reconfigure iff
/// `T_new · (Cost(c_exist) − Cost(c_new)) > (1 + α) · ReCost`.
///
/// `window_hours` is `T_new`, the predicted stability horizon of the new workload, and
/// `alpha` the conservatism factor (`α > 0`).
#[allow(clippy::too_many_arguments)] // the §3.4 rule genuinely takes this many inputs
pub fn should_reconfigure(
    model: &CloudModel,
    existing: &Plan,
    candidate: &Plan,
    object_bytes: u64,
    num_keys: u64,
    controller_dc: legostore_types::DcId,
    window_hours: f64,
    alpha: f64,
) -> ReconfigDecision {
    let savings_per_hour = existing.total_cost() - candidate.total_cost();
    let projected_savings = savings_per_hour * window_hours;
    let per_key = transfer_cost(
        model,
        &existing.config,
        &candidate.config,
        object_bytes,
        controller_dc,
    );
    let transfer = per_key * num_keys as f64;
    if projected_savings > (1.0 + alpha) * transfer {
        ReconfigDecision::Reconfigure {
            projected_savings,
            transfer_cost: transfer,
        }
    } else {
        ReconfigDecision::Stay {
            projected_savings,
            transfer_cost: transfer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostBreakdown;
    use legostore_cloud::CloudModel;
    use legostore_types::DcId;

    fn plan_with_cost(cost_per_hour: f64, cas: bool) -> Plan {
        let dcs: Vec<DcId> = (0..5).map(DcId::from).collect();
        let config = if cas {
            Configuration::cas_default(dcs, 3, 1)
        } else {
            Configuration::abd_majority(dcs[..3].to_vec(), 1)
        };
        Plan {
            config,
            cost: CostBreakdown {
                get_network: cost_per_hour,
                put_network: 0.0,
                storage: 0.0,
                vm: 0.0,
            },
            worst_get_latency_ms: 100.0,
            worst_put_latency_ms: 100.0,
        }
    }

    #[test]
    fn large_savings_justify_reconfiguration() {
        let model = CloudModel::gcp9();
        let existing = plan_with_cost(1.0, false);
        let candidate = plan_with_cost(0.5, true);
        let decision = should_reconfigure(
            &model,
            &existing,
            &candidate,
            1024,
            1,
            DcId(7),
            24.0, // stable for a day
            0.5,
        );
        assert!(decision.should_move(), "{decision:?}");
    }

    #[test]
    fn tiny_savings_do_not_justify_moving_huge_objects() {
        let model = CloudModel::gcp9();
        let existing = plan_with_cost(1.0, false);
        let candidate = plan_with_cost(0.999, true);
        let decision = should_reconfigure(
            &model,
            &existing,
            &candidate,
            10_000_000_000, // 10 GB to move
            1000,
            DcId(7),
            0.5, // only stable for 30 minutes
            0.5,
        );
        assert!(!decision.should_move(), "{decision:?}");
    }

    #[test]
    fn negative_savings_never_reconfigure() {
        let model = CloudModel::gcp9();
        let existing = plan_with_cost(0.5, false);
        let candidate = plan_with_cost(1.0, true);
        let decision =
            should_reconfigure(&model, &existing, &candidate, 1024, 1, DcId(0), 1000.0, 0.1);
        assert!(!decision.should_move());
    }

    #[test]
    fn transfer_cost_scales_with_object_and_code() {
        let model = CloudModel::gcp9();
        let abd = Configuration::abd_majority((0..3).map(DcId::from).collect(), 1);
        let cas = Configuration::cas_default((0..5).map(DcId::from).collect(), 3, 1);
        let small = transfer_cost(&model, &abd, &cas, 1024, DcId(8));
        let large = transfer_cost(&model, &abd, &cas, 1024 * 1024, DcId(8));
        assert!(large > small * 500.0);
        // Writing an ABD configuration ships more bytes than an equivalent CAS one.
        let to_abd = transfer_cost(&model, &cas, &abd, 1024 * 1024, DcId(8));
        let to_cas = transfer_cost(&model, &abd, &cas, 1024 * 1024, DcId(8));
        assert!(to_abd > to_cas * 0.9);
    }
}
