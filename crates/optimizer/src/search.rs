//! The configuration search (§3.2, Appendix C "Discussion").
//!
//! The search enumerates protocol, code parameters and quorum sizes exactly, and tames the
//! exponential placement space with the paper's heuristic: data centers are ranked by their
//! (traffic-weighted) network price toward the workload's client locations, and placements
//! are drawn only from a candidate pool — the best `n + 3` data centers by that ranking plus
//! each client location's 3 nearest. Per-client quorums are then filled greedily — by price
//! under the cost objective, falling back to a nearest-first fill when the cheap choice
//! violates the latency SLO.
//!
//! Candidates are priced from tables, not from a built [`Configuration`]:
//!
//! * once per search and code dimension, every (client location, data center) pair gets each
//!   phase's latency term (round trip plus both transfer times) and each byte flow's price,
//!   from the same per-member functions [`cost_of`](crate::cost::cost_of) and the latency
//!   model use;
//! * once per placement, each client's price order and RTT order over it are derived, by
//!   dropping non-members from the candidate pool's orders (sorted once per pool);
//! * per quorum-size combination, a phase's latency is the maximum of table entries over the
//!   quorum's prefix of the client's order, and a cost term their sum in the member order
//!   `cost_of` sums them in, so every figure matches `cost_of` and
//!   [`worst_latencies_ms`](crate::latency::worst_latencies_ms) bit for bit. Nothing is
//!   allocated; a [`Plan`] is built only for a candidate that beats the incumbent.
//!
//! Under the cost objective a placement whose storage term alone is at least the incumbent's
//! total is skipped unpriced. The cut is exact: the other three terms are non-negative and
//! floating-point addition is monotone, so no quorum choice over that placement can pass the
//! strict `<` that replaces the incumbent.

use crate::cost::{self, CostBreakdown, Flow};
use crate::latency::{self, Phase};
use crate::plan::Plan;
use legostore_cloud::CloudModel;
use legostore_types::{ConfigEpoch, Configuration, DcId, ProtocolKind, QuorumId, QuorumSpec};
use legostore_workload::WorkloadSpec;
use std::collections::BTreeMap;

/// How many data centers beyond `n` the ranked candidate pool keeps (the paper's heuristic
/// prunes the combinatorial placement space this way).
const CANDIDATE_POOL_EXTRA: usize = 3;

/// What the search minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Minimize $/hour subject to the latency SLOs (LEGOStore's optimizer).
    Cost,
    /// Minimize worst-case GET+PUT latency subject to the SLOs, ignoring cost (the
    /// `ABD Nearest` / `CAS Nearest` baselines).
    Latency,
}

/// Which protocols the search may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolFilter {
    /// Consider both ABD and CAS (LEGOStore's optimizer).
    Any,
    /// Replication only (`ABD Only Optimal`).
    AbdOnly,
    /// Erasure coding only (`CAS Only Optimal`).
    CasOnly,
}

/// Tunables of the search.
#[derive(Debug, Clone)]
pub struct SearchOptions {
    /// Objective to minimize.
    pub objective: Objective,
    /// Data centers that must not be used (e.g. ones suspected to have failed, §3.4/§4.5).
    pub excluded_dcs: Vec<DcId>,
    /// Restrict CAS candidates to this code dimension (used by the K-sweep of Figure 3).
    pub fixed_k: Option<usize>,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            objective: Objective::Cost,
            excluded_dcs: Vec::new(),
            fixed_k: None,
        }
    }
}

/// LEGOStore's per-key optimizer.
#[derive(Debug, Clone)]
pub struct Optimizer {
    model: CloudModel,
    options: SearchOptions,
}

impl Optimizer {
    /// Creates an optimizer over `model` with default options (cost objective).
    pub fn new(model: CloudModel) -> Self {
        Optimizer {
            model,
            options: SearchOptions::default(),
        }
    }

    /// Creates an optimizer with explicit options.
    pub fn with_options(model: CloudModel, options: SearchOptions) -> Self {
        Optimizer { model, options }
    }

    /// The cloud model the optimizer plans against.
    pub fn model(&self) -> &CloudModel {
        &self.model
    }

    /// The search options.
    pub fn options(&self) -> &SearchOptions {
        &self.options
    }

    /// Finds the cheapest feasible configuration using either protocol.
    pub fn optimize(&self, spec: &WorkloadSpec) -> Option<Plan> {
        self.optimize_filtered(spec, ProtocolFilter::Any)
    }

    /// Finds the best feasible configuration restricted to `filter`.
    ///
    /// Every feasible candidate is folded into one incumbent as it is priced (the search only
    /// ever needs the winner): ABD by growing `n`, then CAS by `k` and `n`, each over the
    /// candidate pool's placements in order and the quorum-size combinations in order; a tie
    /// keeps the earlier candidate.
    pub fn optimize_filtered(&self, spec: &WorkloadSpec, filter: ProtocolFilter) -> Option<Plan> {
        let f = spec.fault_tolerance;
        let ranked = self.ranked_candidates(spec);
        let d = ranked.len();
        let mut best: Option<Plan> = None;
        if matches!(filter, ProtocolFilter::Any | ProtocolFilter::AbdOnly) {
            let tables = Tables::new(self, spec, ProtocolKind::Abd, 1);
            for n in (f + 1).max(2)..=d {
                let pool = self.candidate_pool(spec, &ranked, n);
                let quorums = quorum_combinations(ProtocolKind::Abd, n, 1, f);
                tables.search(&pool, &combinations(&pool, n), &quorums, &mut best);
            }
        }
        if matches!(filter, ProtocolFilter::Any | ProtocolFilter::CasOnly) {
            for k in 1..=d.saturating_sub(2 * f) {
                if self.options.fixed_k.is_some_and(|fixed| k != fixed) {
                    continue;
                }
                let tables = Tables::new(self, spec, ProtocolKind::Cas, k);
                for n in (k + 2 * f)..=d {
                    let pool = self.candidate_pool(spec, &ranked, n);
                    let quorums = quorum_combinations(ProtocolKind::Cas, n, k, f);
                    tables.search(&pool, &combinations(&pool, n), &quorums, &mut best);
                }
            }
        }
        best
    }

    /// Evaluates a specific protocol / `n` / `k` over a fixed placement (used by the
    /// `ABD Fixed` / `CAS Fixed` baselines): quorum sizes and per-client quorums are still
    /// chosen by the search, but the hosting data centers are given.
    pub fn evaluate_placement(
        &self,
        spec: &WorkloadSpec,
        protocol: ProtocolKind,
        k: usize,
        placement: Vec<DcId>,
    ) -> Option<Plan> {
        let f = spec.fault_tolerance;
        let quorums = quorum_combinations(protocol, placement.len(), k, f);
        // Every combination over a valid placement is valid (`quorum_combinations_are_valid`),
        // so checking the caller's placement and parameters once stands for all of them.
        let first = Configuration {
            protocol,
            n: placement.len(),
            k,
            quorums: *quorums.first()?,
            dcs: placement,
            f,
            epoch: ConfigEpoch::INITIAL,
            preferred_quorums: Default::default(),
        };
        first.validate().ok()?;
        let mut best = None;
        let placement = first.dcs;
        let tables = Tables::new(self, spec, protocol, k);
        tables.search(
            &placement,
            std::slice::from_ref(&placement),
            &quorums,
            &mut best,
        );
        best
    }

    fn available_dcs(&self) -> Vec<DcId> {
        self.model
            .dc_ids()
            .into_iter()
            .filter(|d| !self.options.excluded_dcs.contains(d))
            .collect()
    }

    /// Ranks the available data centers by the paper's heuristic score: traffic-weighted
    /// network price to/from the client locations, with RTT as a tie-break.
    fn ranked_candidates(&self, spec: &WorkloadSpec) -> Vec<DcId> {
        let mut dcs = self.available_dcs();
        let score = |j: DcId| -> (f64, f64) {
            let mut price = 0.0;
            let mut rtt = 0.0;
            for (i, frac) in &spec.client_distribution {
                if *frac <= 0.0 {
                    continue;
                }
                price += frac
                    * (self.model.net_price_gb(j, *i) + self.model.net_price_gb(*i, j))
                    / 2.0;
                rtt += frac * self.model.rtt_ms(*i, j);
            }
            (price, rtt)
        };
        dcs.sort_by(|a, b| {
            let (pa, ra) = score(*a);
            let (pb, rb) = score(*b);
            match self.options.objective {
                Objective::Cost => pa
                    .partial_cmp(&pb)
                    .unwrap()
                    .then(ra.partial_cmp(&rb).unwrap()),
                Objective::Latency => ra
                    .partial_cmp(&rb)
                    .unwrap()
                    .then(pa.partial_cmp(&pb).unwrap()),
            }
        });
        dcs
    }

    /// The candidate pool for code length `n`: the best `n + CANDIDATE_POOL_EXTRA` data
    /// centers by the heuristic ranking, widened with each client location's nearest data
    /// centers so that a latency-critical host (e.g. the only DC within SLO reach of a remote
    /// client) is never pruned away by the price ranking.
    fn candidate_pool(&self, spec: &WorkloadSpec, ranked: &[DcId], n: usize) -> Vec<DcId> {
        let pool_size = (n + CANDIDATE_POOL_EXTRA).min(ranked.len());
        let mut pool: Vec<DcId> = ranked[..pool_size].to_vec();
        for (client, frac) in &spec.client_distribution {
            if *frac <= 0.0 {
                continue;
            }
            for near in self
                .model
                .nearest_dcs(*client)
                .into_iter()
                .filter(|d| ranked.contains(d))
                .take(3)
            {
                if !pool.contains(&near) {
                    pool.push(near);
                }
            }
        }
        pool
    }

    /// True if a candidate with `cost` and worst latencies `(get_ms, put_ms)` replaces
    /// `incumbent` under `objective`.
    fn beats(
        objective: Objective,
        incumbent: Option<&Plan>,
        cost: &CostBreakdown,
        get_ms: f64,
        put_ms: f64,
    ) -> bool {
        let Some(b) = incumbent else { return true };
        match objective {
            Objective::Cost => cost.total() < b.total_cost(),
            Objective::Latency => {
                let cl = get_ms + put_ms;
                let bl = b.worst_get_latency_ms + b.worst_put_latency_ms;
                cl < bl || ((cl - bl).abs() < 1e-9 && cost.total() < b.total_cost())
            }
        }
    }
}

/// The fill orders a client's quorums are drawn from, tried in turn until one meets the SLOs:
/// cheapest-first then nearest-first under the cost objective, nearest-first under the
/// latency objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fill {
    ByPrice,
    ByRtt,
}

/// Each client's fill orders over the current placement, flattened
/// `[client][fill][position]`, and the fill each client settled on.
struct ClientOrders {
    orders: Vec<DcId>,
    fills: usize,
    n: usize,
    chosen: Vec<usize>,
}

impl ClientOrders {
    fn order(&self, c: usize, fill: usize) -> &[DcId] {
        &self.orders[(c * self.fills + fill) * self.n..][..self.n]
    }

    fn chosen_order(&self, c: usize) -> &[DcId] {
        self.order(c, self.chosen[c])
    }
}

/// One phase's latency term or one flow's price, per (client, DC).
struct Term {
    quorum: QuorumId,
    per_member: Vec<Vec<f64>>,
}

impl Term {
    /// The slowest of `members` for client `c` (a phase's latency).
    fn max_over(&self, c: usize, members: &[DcId]) -> f64 {
        let row = &self.per_member[c];
        members.iter().map(|j| row[j.index()]).fold(0.0, f64::max)
    }

    /// The sum over `members`, in order, for client `c` (a flow's price).
    fn sum_over(&self, c: usize, members: &[DcId]) -> f64 {
        let row = &self.per_member[c];
        members.iter().map(|j| row[j.index()]).sum()
    }
}

/// Tabulates `term(client, dc)` for every client location in `clients` and every DC, indexed
/// `[client][dc.index()]`.
fn per_pair(
    model: &CloudModel,
    clients: &[(DcId, f64)],
    term: impl Fn(DcId, DcId) -> f64,
) -> Vec<Vec<f64>> {
    let dcs = model.dc_ids();
    clients
        .iter()
        .map(|(client, _)| dcs.iter().map(|j| term(*client, *j)).collect())
        .collect()
}

/// Everything one search prices the candidates of one protocol and code dimension with.
/// Per-(client, DC) tables are indexed `[client][dc.index()]`, where `client` counts only
/// the locations with traffic, in `spec` order.
struct Tables<'a> {
    spec: &'a WorkloadSpec,
    objective: Objective,
    protocol: ProtocolKind,
    k: usize,
    fills: &'static [Fill],
    /// The client locations with traffic, with their fractions.
    clients: Vec<(DcId, f64)>,
    dc_count: usize,
    /// Network price both ways ($/GB), the cheapest-first fill's key.
    price: Vec<Vec<f64>>,
    /// Round-trip time (ms), the nearest-first fill's key and the price fill's tie-break.
    rtt: Vec<Vec<f64>>,
    get_phases: Vec<Term>,
    put_phases: Vec<Term>,
    get_flows: Vec<Term>,
    put_flows: Vec<Term>,
    /// Storage $/hour per hosting DC.
    storage: Vec<f64>,
    /// Requests/second each client location sends to each quorum.
    request_rate: Vec<f64>,
    /// VM $/hour per request/second, per DC.
    vm_price: Vec<f64>,
}

impl<'a> Tables<'a> {
    fn new(
        optimizer: &Optimizer,
        spec: &'a WorkloadSpec,
        protocol: ProtocolKind,
        k: usize,
    ) -> Self {
        let model = &optimizer.model;
        let objective = optimizer.options.objective;
        let clients: Vec<(DcId, f64)> = spec
            .client_distribution
            .iter()
            .copied()
            .filter(|(_, frac)| *frac > 0.0)
            .collect();
        let phase_terms = |phases: Vec<Phase>| -> Vec<Term> {
            phases
                .iter()
                .map(|phase| Term {
                    quorum: phase.quorum,
                    per_member: per_pair(model, &clients, |c, j| phase.member_ms(model, c, j)),
                })
                .collect()
        };
        let flow_terms = |flows: Vec<Flow>| -> Vec<Term> {
            flows
                .iter()
                .map(|flow| Term {
                    quorum: flow.quorum(),
                    per_member: per_pair(model, &clients, |c, j| flow.member_cost(model, c, j)),
                })
                .collect()
        };
        let per_dc = |term: &dyn Fn(DcId) -> f64| model.dc_ids().into_iter().map(term).collect();
        Tables {
            spec,
            objective,
            protocol,
            k,
            fills: match objective {
                Objective::Cost => &[Fill::ByPrice, Fill::ByRtt],
                Objective::Latency => &[Fill::ByRtt],
            },
            dc_count: model.num_dcs(),
            price: per_pair(model, &clients, |c, j| {
                model.net_price_gb(j, c) + model.net_price_gb(c, j)
            }),
            rtt: per_pair(model, &clients, |c, j| model.rtt_ms(c, j)),
            get_phases: phase_terms(latency::get_phases(spec, protocol, k)),
            put_phases: phase_terms(latency::put_phases(spec, protocol, k)),
            get_flows: flow_terms(cost::get_flows(spec, protocol, k)),
            put_flows: flow_terms(cost::put_flows(spec, protocol, k)),
            storage: per_dc(&|j| cost::host_storage_cost(model, spec, protocol, k, j)),
            request_rate: clients
                .iter()
                .map(|(_, frac)| cost::client_request_rate(spec, *frac))
                .collect(),
            vm_price: per_dc(&|j| cost::vm_price_per_request_rate(model, j)),
            clients,
        }
    }

    /// `pool` in each client's fill orders, flattened `[client][fill][pool position]`. The
    /// sorts are stable, so a placement drawn from `pool` in pool order, sorted the same way,
    /// is this order with the non-members dropped.
    fn pool_orders(&self, pool: &[DcId]) -> Vec<DcId> {
        let mut orders = Vec::with_capacity(self.clients.len() * self.fills.len() * pool.len());
        for c in 0..self.clients.len() {
            let (price, rtt) = (&self.price[c], &self.rtt[c]);
            for fill in self.fills {
                let mut order = pool.to_vec();
                match fill {
                    Fill::ByPrice => order.sort_by(|a, b| {
                        let (a, b) = (a.index(), b.index());
                        price[a]
                            .partial_cmp(&price[b])
                            .unwrap()
                            .then(rtt[a].partial_cmp(&rtt[b]).unwrap())
                    }),
                    Fill::ByRtt => {
                        order.sort_by(|a, b| rtt[a.index()].partial_cmp(&rtt[b.index()]).unwrap())
                    }
                }
                orders.extend(order);
            }
        }
        orders
    }

    /// Prices every quorum-size combination in `quorums` over every placement of
    /// `placements` (each a subsequence of `pool`), folding the feasible ones into `best`.
    fn search(
        &self,
        pool: &[DcId],
        placements: &[Vec<DcId>],
        quorums: &[QuorumSpec],
        best: &mut Option<Plan>,
    ) {
        let Some(n) = placements.first().map(Vec::len) else {
            return;
        };
        let pool_orders = self.pool_orders(pool);
        let mut fill = ClientOrders {
            orders: vec![DcId(0); self.clients.len() * self.fills.len() * n],
            fills: self.fills.len(),
            n,
            chosen: vec![0; self.clients.len()],
        };
        let mut hosted = vec![false; self.dc_count];
        let mut rate_at = vec![0.0; self.dc_count];
        for placement in placements {
            let storage: f64 = placement.iter().map(|j| self.storage[j.index()]).sum();
            if self.objective == Objective::Cost
                && best.as_ref().is_some_and(|b| storage >= b.total_cost())
            {
                continue;
            }
            for j in placement {
                hosted[j.index()] = true;
            }
            for (order, pool_order) in fill
                .orders
                .chunks_mut(n)
                .zip(pool_orders.chunks(pool.len()))
            {
                let members = pool_order.iter().filter(|j| hosted[j.index()]);
                for (slot, j) in order.iter_mut().zip(members) {
                    *slot = *j;
                }
            }
            for j in placement {
                hosted[j.index()] = false;
            }
            for quorum_spec in quorums {
                let sizes = &quorum_spec.sizes()[..self.protocol.quorum_count()];
                let Some((get_ms, put_ms)) = self.fill_quorums(&mut fill, sizes) else {
                    continue;
                };
                let network = |rate, flows| self.network_cost(rate, flows, &fill, sizes);
                let cost = CostBreakdown {
                    get_network: network(self.spec.get_rate(), &self.get_flows),
                    put_network: network(self.spec.put_rate(), &self.put_flows),
                    storage,
                    vm: self.vm_cost(placement, &fill, sizes, &mut rate_at),
                };
                if !Optimizer::beats(self.objective, best.as_ref(), &cost, get_ms, put_ms) {
                    continue;
                }
                let preferred_quorums = self
                    .clients
                    .iter()
                    .enumerate()
                    .map(|(c, (client, _))| {
                        let order = fill.chosen_order(c);
                        let quorums = (0..4)
                            .map(|qi| match sizes.get(qi) {
                                Some(size) => order[..*size].to_vec(),
                                None => Vec::new(),
                            })
                            .collect();
                        (*client, quorums)
                    })
                    .collect::<BTreeMap<_, _>>();
                *best = Some(Plan {
                    config: Configuration {
                        protocol: self.protocol,
                        n,
                        k: self.k,
                        quorums: *quorum_spec,
                        dcs: placement.clone(),
                        f: self.spec.fault_tolerance,
                        epoch: ConfigEpoch::INITIAL,
                        preferred_quorums: preferred_quorums.into(),
                    },
                    cost,
                    worst_get_latency_ms: get_ms,
                    worst_put_latency_ms: put_ms,
                });
            }
        }
    }

    /// Settles each client on the first fill order whose quorums (prefixes of `sizes`) meet
    /// the SLOs, and returns the worst (GET, PUT) latencies; `None` if some client meets
    /// them with none.
    fn fill_quorums(&self, fill: &mut ClientOrders, sizes: &[usize]) -> Option<(f64, f64)> {
        let mut worst_get: f64 = 0.0;
        let mut worst_put: f64 = 0.0;
        for c in 0..self.clients.len() {
            let (choice, g, p) = (0..fill.fills).find_map(|choice| {
                let order = fill.order(c, choice);
                let g = self.latency_ms(&self.get_phases, c, order, sizes);
                let p = self.latency_ms(&self.put_phases, c, order, sizes);
                (g <= self.spec.slo_get_ms && p <= self.spec.slo_put_ms).then_some((choice, g, p))
            })?;
            fill.chosen[c] = choice;
            worst_get = worst_get.max(g);
            worst_put = worst_put.max(p);
        }
        Some((worst_get, worst_put))
    }

    /// Worst-case latency of `phases` for client `c` whose quorums are prefixes of `order`:
    /// each phase lasts as long as its slowest member, and phases add.
    fn latency_ms(&self, phases: &[Term], c: usize, order: &[DcId], sizes: &[usize]) -> f64 {
        phases
            .iter()
            .map(|phase| phase.max_over(c, &order[..sizes[phase.quorum.index()]]))
            .sum()
    }

    /// Network $/hour of `flows` at `rate` requests/second, each client on its chosen fill.
    fn network_cost(&self, rate: f64, flows: &[Term], fill: &ClientOrders, sizes: &[usize]) -> f64 {
        let per_client = self.clients.iter().enumerate().map(|(c, (_, frac))| {
            let order = fill.chosen_order(c);
            let per_request: f64 = flows
                .iter()
                .map(|flow| flow.sum_over(c, &order[..sizes[flow.quorum.index()]]))
                .sum();
            (*frac, per_request)
        });
        cost::network_cost_per_hour(rate, per_client)
    }

    /// VM $/hour of `placement`, each client on its chosen fill. `rate_at` is scratch space
    /// indexed by DC: the request rate each host receives, summed in client order.
    fn vm_cost(
        &self,
        placement: &[DcId],
        fill: &ClientOrders,
        sizes: &[usize],
        rate_at: &mut [f64],
    ) -> f64 {
        for j in placement {
            rate_at[j.index()] = 0.0;
        }
        for (c, rate) in self.request_rate.iter().enumerate() {
            for (position, j) in fill.chosen_order(c).iter().enumerate() {
                let phases = sizes.iter().filter(|size| position < **size).count();
                rate_at[j.index()] += rate * phases as f64;
            }
        }
        let mut vm = 0.0;
        for j in placement {
            vm += self.vm_price[j.index()] * rate_at[j.index()];
        }
        vm
    }
}

/// All quorum-size combinations worth considering for the given protocol / parameters.
///
/// Quorums are kept as small as the safety constraints allow: for ABD, `q2 = n + 1 - q1`;
/// for CAS, `q3 = n + 1 - q1` and `q2 = n + k - q4`, enumerating the `(q1, q4)` trade-off.
fn quorum_combinations(protocol: ProtocolKind, n: usize, k: usize, f: usize) -> Vec<QuorumSpec> {
    let mut out = Vec::new();
    if n <= f {
        return out;
    }
    let cap = n - f;
    match protocol {
        ProtocolKind::Abd => {
            for q1 in 1..=cap {
                let q2 = n + 1 - q1;
                if q2 >= 1 && q2 <= cap {
                    out.push(QuorumSpec::abd(q1, q2));
                }
            }
        }
        ProtocolKind::Cas => {
            if n < k + 2 * f {
                return out;
            }
            for q1 in 1..=cap {
                let q3 = n + 1 - q1;
                if q3 > cap {
                    continue;
                }
                let q4_min = (n + 1 - q1).max(k + f).max(k);
                for q4 in q4_min..=cap {
                    let q2 = (n + k).saturating_sub(q4).max(1);
                    if q2 > cap {
                        continue;
                    }
                    out.push(QuorumSpec::cas(q1, q2, q3, q4));
                }
            }
        }
    }
    out
}

/// All `size`-subsets of `items`, preserving order.
fn combinations(items: &[DcId], size: usize) -> Vec<Vec<DcId>> {
    let mut out = Vec::new();
    if size == 0 || size > items.len() {
        return out;
    }
    let mut idx: Vec<usize> = (0..size).collect();
    loop {
        out.push(idx.iter().map(|&i| items[i]).collect());
        // Advance the index vector.
        let mut i = size;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if idx[i] != i + items.len() - size {
                idx[i] += 1;
                for j in i + 1..size {
                    idx[j] = idx[j - 1] + 1;
                }
                break;
            }
        }
    }
}

/// The search as it priced candidates before the tables: each candidate is built as a
/// [`Configuration`], validated, given per-client quorums through `get_latency_ms` /
/// `put_latency_ms` and billed by `cost_of`. The differential test holds the table-driven
/// search to it.
#[cfg(test)]
mod oracle {
    use super::*;
    use crate::cost::cost_of;
    use crate::latency::{get_latency_ms, put_latency_ms};
    use std::sync::Arc;

    impl Optimizer {
        /// [`Optimizer::optimize_filtered`], candidate by candidate.
        pub(super) fn oracle_optimize_filtered(
            &self,
            spec: &WorkloadSpec,
            filter: ProtocolFilter,
        ) -> Option<Plan> {
            let f = spec.fault_tolerance;
            let ranked = self.ranked_candidates(spec);
            let d = ranked.len();
            let mut best: Option<Plan> = None;
            let mut fold = |protocol, k, n| {
                let pool = self.candidate_pool(spec, &ranked, n);
                for placement in combinations(&pool, n) {
                    for quorums in quorum_combinations(protocol, n, k, f) {
                        if let Some(plan) =
                            self.evaluate_candidate(spec, protocol, k, &placement, quorums)
                        {
                            best = Self::better(self.options.objective, best.take(), plan);
                        }
                    }
                }
            };
            if matches!(filter, ProtocolFilter::Any | ProtocolFilter::AbdOnly) {
                for n in (f + 1).max(2)..=d {
                    fold(ProtocolKind::Abd, 1, n);
                }
            }
            if matches!(filter, ProtocolFilter::Any | ProtocolFilter::CasOnly) {
                for k in 1..=d.saturating_sub(2 * f) {
                    if self.options.fixed_k.is_some_and(|fixed| k != fixed) {
                        continue;
                    }
                    for n in (k + 2 * f)..=d {
                        fold(ProtocolKind::Cas, k, n);
                    }
                }
            }
            best
        }

        /// [`Optimizer::evaluate_placement`], candidate by candidate.
        pub(super) fn oracle_evaluate_placement(
            &self,
            spec: &WorkloadSpec,
            protocol: ProtocolKind,
            k: usize,
            placement: Vec<DcId>,
        ) -> Option<Plan> {
            let n = placement.len();
            let mut best: Option<Plan> = None;
            for quorums in quorum_combinations(protocol, n, k, spec.fault_tolerance) {
                if let Some(plan) = self.evaluate_candidate(spec, protocol, k, &placement, quorums)
                {
                    best = Self::better(self.options.objective, best, plan);
                }
            }
            best
        }

        fn better(objective: Objective, best: Option<Plan>, candidate: Plan) -> Option<Plan> {
            match best {
                None => Some(candidate),
                Some(b) => {
                    let better = match objective {
                        Objective::Cost => candidate.total_cost() < b.total_cost(),
                        Objective::Latency => {
                            let cl =
                                candidate.worst_get_latency_ms + candidate.worst_put_latency_ms;
                            let bl = b.worst_get_latency_ms + b.worst_put_latency_ms;
                            cl < bl
                                || ((cl - bl).abs() < 1e-9
                                    && candidate.total_cost() < b.total_cost())
                        }
                    };
                    Some(if better { candidate } else { b })
                }
            }
        }

        /// Evaluates one fully parameterized candidate, filling per-client quorums greedily
        /// and rejecting it if any client location cannot meet the SLOs.
        fn evaluate_candidate(
            &self,
            spec: &WorkloadSpec,
            protocol: ProtocolKind,
            k: usize,
            placement: &[DcId],
            quorums: QuorumSpec,
        ) -> Option<Plan> {
            let n = placement.len();
            let mut config = Configuration {
                protocol,
                n,
                k,
                quorums,
                dcs: placement.to_vec(),
                f: spec.fault_tolerance,
                epoch: ConfigEpoch::INITIAL,
                preferred_quorums: Default::default(),
            };
            if config.validate().is_err() {
                return None;
            }
            let quorum_count = protocol.quorum_count();
            let mut worst_get: f64 = 0.0;
            let mut worst_put: f64 = 0.0;
            for (client, frac) in &spec.client_distribution {
                if *frac <= 0.0 {
                    continue;
                }
                let (g, p) =
                    self.fill_quorums_for_client(spec, &mut config, *client, quorum_count)?;
                worst_get = worst_get.max(g);
                worst_put = worst_put.max(p);
            }
            let cost: CostBreakdown = cost_of(&self.model, spec, &config);
            Some(Plan {
                config,
                cost,
                worst_get_latency_ms: worst_get,
                worst_put_latency_ms: worst_put,
            })
        }

        /// Chooses, for one client location, the members of each quorum: cheapest-first
        /// under the cost objective (retrying nearest-first if that breaks the SLO),
        /// nearest-first under the latency objective. On success the winning choice is left
        /// installed in `config.preferred_quorums` and the client's (GET, PUT) worst-case
        /// latencies are returned; `None` means even the nearest-first choice misses the SLO.
        fn fill_quorums_for_client(
            &self,
            spec: &WorkloadSpec,
            config: &mut Configuration,
            client: DcId,
            quorum_count: usize,
        ) -> Option<(f64, f64)> {
            let by_price = {
                let mut v = config.dcs.clone();
                v.sort_by(|a, b| {
                    let pa =
                        self.model.net_price_gb(*a, client) + self.model.net_price_gb(client, *a);
                    let pb =
                        self.model.net_price_gb(*b, client) + self.model.net_price_gb(client, *b);
                    pa.partial_cmp(&pb).unwrap().then(
                        self.model
                            .rtt_ms(client, *a)
                            .partial_cmp(&self.model.rtt_ms(client, *b))
                            .unwrap(),
                    )
                });
                v
            };
            let by_rtt = {
                let mut v = config.dcs.clone();
                v.sort_by(|a, b| {
                    self.model
                        .rtt_ms(client, *a)
                        .partial_cmp(&self.model.rtt_ms(client, *b))
                        .unwrap()
                });
                v
            };
            let build = |order: &[DcId]| -> Vec<Vec<DcId>> {
                (0..4)
                    .map(|qi| {
                        if qi >= quorum_count {
                            return Vec::new();
                        }
                        let q = QuorumId::from_index(qi).expect("in range");
                        let size = config.quorums.size(q);
                        order[..size.min(order.len())].to_vec()
                    })
                    .collect()
            };
            let candidates: Vec<Vec<Vec<DcId>>> = match self.options.objective {
                Objective::Cost => vec![build(&by_price), build(&by_rtt)],
                Objective::Latency => vec![build(&by_rtt)],
            };
            for chosen in candidates {
                Arc::make_mut(&mut config.preferred_quorums).insert(client, chosen);
                let g = get_latency_ms(&self.model, spec, config, client);
                let p = put_latency_ms(&self.model, spec, config, client);
                if g <= spec.slo_get_ms && p <= spec.slo_put_ms {
                    return Some((g, p));
                }
            }
            Arc::make_mut(&mut config.preferred_quorums).remove(&client);
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legostore_cloud::{CloudModel, CloudModelBuilder, GcpLocation};
    use legostore_workload::{client_distribution, ClientDistribution, WorkloadSpec};

    fn gcp_spec(dist: ClientDistribution, slo_ms: f64, rho: f64) -> (CloudModel, WorkloadSpec) {
        let model = CloudModel::gcp9();
        let mut spec = WorkloadSpec::example();
        spec.client_distribution = client_distribution(dist, &model);
        spec.slo_get_ms = slo_ms;
        spec.slo_put_ms = slo_ms;
        spec.read_ratio = rho;
        (model, spec)
    }

    #[test]
    fn combinations_counts() {
        let items: Vec<DcId> = (0..5).map(DcId::from).collect();
        assert_eq!(combinations(&items, 2).len(), 10);
        assert_eq!(combinations(&items, 5).len(), 1);
        assert_eq!(combinations(&items, 0).len(), 0);
        assert_eq!(combinations(&items, 6).len(), 0);
        // Every combination has distinct members.
        for c in combinations(&items, 3) {
            let set: std::collections::BTreeSet<_> = c.iter().collect();
            assert_eq!(set.len(), 3);
        }
    }

    #[test]
    fn quorum_combinations_are_valid() {
        for n in 2..=9usize {
            for f in 0..=2usize {
                if n <= f {
                    continue;
                }
                for q in quorum_combinations(ProtocolKind::Abd, n, 1, f) {
                    let c = Configuration {
                        protocol: ProtocolKind::Abd,
                        n,
                        k: 1,
                        quorums: q,
                        dcs: (0..n).map(DcId::from).collect(),
                        f,
                        epoch: ConfigEpoch::INITIAL,
                        preferred_quorums: Default::default(),
                    };
                    c.validate().unwrap();
                }
                for k in 1..=n.saturating_sub(2 * f) {
                    for q in quorum_combinations(ProtocolKind::Cas, n, k, f) {
                        let c = Configuration {
                            protocol: ProtocolKind::Cas,
                            n,
                            k,
                            quorums: q,
                            dcs: (0..n).map(DcId::from).collect(),
                            f,
                            epoch: ConfigEpoch::INITIAL,
                            preferred_quorums: Default::default(),
                        };
                        c.validate().unwrap();
                    }
                }
            }
        }
    }

    #[test]
    fn relaxed_slo_single_site_finds_a_plan() {
        let (model, spec) = gcp_spec(ClientDistribution::Tokyo, 1000.0, 0.5);
        let optimizer = Optimizer::new(model);
        let plan = optimizer.optimize(&spec).expect("feasible");
        plan.config.validate().unwrap();
        assert!(plan.total_cost() > 0.0);
        assert!(plan.worst_get_latency_ms <= 1000.0);
        assert!(plan.worst_put_latency_ms <= 1000.0);
    }

    #[test]
    fn optimizer_is_at_least_as_good_as_each_restriction() {
        let (model, spec) = gcp_spec(ClientDistribution::SydneyTokyo, 1000.0, 0.5);
        let optimizer = Optimizer::new(model);
        let any = optimizer.optimize(&spec).expect("feasible");
        let abd = optimizer
            .optimize_filtered(&spec, ProtocolFilter::AbdOnly)
            .expect("feasible");
        let cas = optimizer
            .optimize_filtered(&spec, ProtocolFilter::CasOnly)
            .expect("feasible");
        assert!(any.total_cost() <= abd.total_cost() + 1e-9);
        assert!(any.total_cost() <= cas.total_cost() + 1e-9);
        assert!((any.total_cost() - abd.total_cost().min(cas.total_cost())).abs() < 1e-9);
    }

    #[test]
    fn stringent_slo_forbids_cas_for_spread_out_users() {
        // With a 200 ms SLO and users split between Sydney and Tokyo (115 ms RTT), the
        // 3-phase CAS PUT cannot fit, but ABD can.
        let (model, spec) = gcp_spec(ClientDistribution::SydneyTokyo, 200.0, 0.5);
        let optimizer = Optimizer::new(model);
        let cas = optimizer.optimize_filtered(&spec, ProtocolFilter::CasOnly);
        assert!(cas.is_none(), "CAS should be infeasible at 200 ms: {cas:?}");
        let abd = optimizer.optimize_filtered(&spec, ProtocolFilter::AbdOnly);
        assert!(abd.is_some(), "ABD should fit at 200 ms");
    }

    #[test]
    fn relaxed_slo_prefers_cas_for_read_heavy_workloads() {
        // §4.2.1: with a 1 s SLO, EC saves cost; the optimizer should not pick plain ABD for
        // a read-heavy single-site workload.
        let (model, mut spec) = gcp_spec(ClientDistribution::Tokyo, 1000.0, 30.0 / 31.0);
        spec.total_data_bytes = 1 << 40;
        let optimizer = Optimizer::new(model);
        let plan = optimizer.optimize(&spec).expect("feasible");
        assert_eq!(plan.config.protocol, ProtocolKind::Cas);
    }

    #[test]
    fn latency_objective_prefers_nearby_dcs() {
        let (model, spec) = gcp_spec(ClientDistribution::Tokyo, 1000.0, 0.5);
        let tokyo = GcpLocation::Tokyo.dc();
        let opt = Optimizer::with_options(
            model,
            SearchOptions {
                objective: Objective::Latency,
                ..Default::default()
            },
        );
        let plan = opt.optimize_filtered(&spec, ProtocolFilter::AbdOnly).expect("feasible");
        // The latency-optimal ABD placement for Tokyo-only clients must include Tokyo itself.
        assert!(plan.config.dcs.contains(&tokyo));
        // And its latency must be no worse than the cost-optimal plan's.
        let cost_opt = Optimizer::new(CloudModel::gcp9());
        let cost_plan = cost_opt
            .optimize_filtered(&spec, ProtocolFilter::AbdOnly)
            .expect("feasible");
        assert!(
            plan.worst_get_latency_ms <= cost_plan.worst_get_latency_ms + 1e-9
                && plan.worst_put_latency_ms <= cost_plan.worst_put_latency_ms + 1e-9
        );
    }

    #[test]
    fn excluded_dcs_are_never_used() {
        let (model, spec) = gcp_spec(ClientDistribution::Tokyo, 1000.0, 0.5);
        let tokyo = GcpLocation::Tokyo.dc();
        let singapore = GcpLocation::Singapore.dc();
        let opt = Optimizer::with_options(
            model,
            SearchOptions {
                excluded_dcs: vec![tokyo, singapore],
                ..Default::default()
            },
        );
        let plan = opt.optimize(&spec).expect("still feasible without Tokyo");
        assert!(!plan.config.dcs.contains(&tokyo));
        assert!(!plan.config.dcs.contains(&singapore));
    }

    #[test]
    fn infeasible_slo_returns_none() {
        // 20 ms SLO cannot be met by any multi-DC quorum from Sydney.
        let (model, spec) = gcp_spec(ClientDistribution::Sydney, 20.0, 0.5);
        let optimizer = Optimizer::new(model);
        assert!(optimizer.optimize(&spec).is_none());
    }

    #[test]
    fn evaluate_placement_respects_given_dcs() {
        let (model, spec) = gcp_spec(ClientDistribution::Tokyo, 1000.0, 0.5);
        let placement: Vec<DcId> = vec![
            GcpLocation::Virginia.dc(),
            GcpLocation::Oregon.dc(),
            GcpLocation::LosAngeles.dc(),
        ];
        let optimizer = Optimizer::new(model);
        let plan = optimizer
            .evaluate_placement(&spec, ProtocolKind::Abd, 1, placement.clone())
            .expect("feasible");
        assert_eq!(plan.config.dcs, placement);
        assert_eq!(plan.config.protocol, ProtocolKind::Abd);
    }

    #[test]
    fn fault_tolerance_two_needs_more_replicas() {
        let (model, mut spec) = gcp_spec(ClientDistribution::Tokyo, 1000.0, 0.5);
        spec.fault_tolerance = 2;
        let optimizer = Optimizer::new(model);
        let plan = optimizer
            .optimize_filtered(&spec, ProtocolFilter::AbdOnly)
            .expect("feasible");
        assert!(plan.config.n >= 3);
        plan.config.validate().unwrap();
        let cas = optimizer
            .optimize_filtered(&spec, ProtocolFilter::CasOnly)
            .expect("feasible");
        assert!(cas.config.n >= cas.config.k + 4);
    }

    /// SplitMix64, so the differential cases need no RNG crate.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<T: Copy>(&mut self, items: &[T]) -> T {
            items[self.below(items.len())]
        }

        /// A uniform draw from `[lo, hi)`.
        fn range(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// `count` distinct data centers out of `dcs`, in draw order.
        fn distinct(&mut self, dcs: usize, count: usize) -> Vec<DcId> {
            let mut all: Vec<DcId> = (0..dcs).map(DcId::from).collect();
            for i in 0..count {
                let j = i + self.below(dcs - i);
                all.swap(i, j);
            }
            all.truncate(count);
            all
        }
    }

    /// Either the paper's nine GCP data centers or a random 4–7 DC topology whose RTTs and
    /// prices come from small sets, so fill orders see ties.
    fn random_model(rng: &mut Rng) -> CloudModel {
        if rng.below(2) == 0 {
            return CloudModel::gcp9();
        }
        let d = 4 + rng.below(4);
        let mut b = CloudModelBuilder::uniform(d).theta_v(rng.pick(&[0.0, 0.001, 0.02]));
        for i in 0..d {
            b = b
                .storage_price(i, rng.pick(&[0.02, 0.026, 0.04]))
                .vm_price(i, rng.pick(&[0.0, 0.02, 0.05]));
            for j in 0..d {
                if i != j {
                    b = b.net_price(i, j, rng.pick(&[0.01, 0.08, 0.08, 0.12, 0.15]));
                }
                if i < j {
                    b = b.rtt(i, j, rng.pick(&[20.0, 60.0, 60.0, 110.0, 180.0, 250.0]));
                }
            }
        }
        b.build()
    }

    /// A random workload over 1–4 client locations (one may carry no traffic), with an SLO
    /// between 150 and 1000 ms and `f` of 1 or 2.
    fn random_spec(rng: &mut Rng, model: &CloudModel) -> WorkloadSpec {
        let mut spec = WorkloadSpec::example();
        let locations = 1 + rng.below(4);
        spec.client_distribution = rng
            .distinct(model.num_dcs(), locations)
            .into_iter()
            .map(|dc| (dc, rng.pick(&[0.0, 0.1, 0.25, 0.5, 1.0])))
            .collect();
        if spec
            .client_distribution
            .iter()
            .all(|(_, frac)| *frac <= 0.0)
        {
            spec.client_distribution[0].1 = 1.0;
        }
        spec.object_size = rng.pick(&[1 << 10, 10 << 10, 100 << 10, 1 << 20]);
        spec.read_ratio = rng.pick(&[0.0, 0.5, 30.0 / 31.0, 1.0]);
        spec.arrival_rate = rng.pick(&[0.0, 50.0, 500.0]);
        spec.total_data_bytes = rng.pick(&[1 << 30, 1 << 40, 10 << 40]);
        spec.slo_get_ms = rng.range(150.0, 1000.0);
        let other_slo = rng.range(150.0, 1000.0);
        spec.slo_put_ms = rng.pick(&[spec.slo_get_ms, other_slo]);
        spec.fault_tolerance = 1 + rng.below(2);
        spec
    }

    fn random_options(rng: &mut Rng, model: &CloudModel) -> SearchOptions {
        let excluded = rng.below(3);
        SearchOptions {
            objective: rng.pick(&[Objective::Cost, Objective::Latency]),
            excluded_dcs: rng.distinct(model.num_dcs(), excluded),
            fixed_k: rng.pick(&[None, None, Some(1), Some(2), Some(3)]),
        }
    }

    /// A returned plan is valid and carries exactly what `cost_of` and
    /// `worst_latencies_ms` say of its configuration.
    fn assert_consistent(model: &CloudModel, spec: &WorkloadSpec, plan: &Plan, case: u64) {
        plan.config.validate().unwrap();
        let cost = crate::cost::cost_of(model, spec, &plan.config);
        let bits =
            |c: &CostBreakdown| [c.get_network, c.put_network, c.storage, c.vm].map(f64::to_bits);
        assert_eq!(
            bits(&plan.cost),
            bits(&cost),
            "case {case}: cost differs from cost_of"
        );
        let (g, p) = crate::latency::worst_latencies_ms(model, spec, &plan.config);
        assert_eq!(
            (
                plan.worst_get_latency_ms.to_bits(),
                plan.worst_put_latency_ms.to_bits()
            ),
            (g.to_bits(), p.to_bits()),
            "case {case}: latencies differ from worst_latencies_ms"
        );
    }

    #[test]
    fn table_driven_search_matches_the_candidate_by_candidate_oracle() {
        let mut rng = Rng(0x1e60_5707e);
        let mut feasible = 0;
        for case in 0..600u64 {
            let model = random_model(&mut rng);
            let spec = random_spec(&mut rng, &model);
            let options = random_options(&mut rng, &model);
            let filter = rng.pick(&[
                ProtocolFilter::Any,
                ProtocolFilter::AbdOnly,
                ProtocolFilter::CasOnly,
            ]);
            let optimizer = Optimizer::with_options(model.clone(), options);
            let got = optimizer.optimize_filtered(&spec, filter);
            let want = optimizer.oracle_optimize_filtered(&spec, filter);
            assert_eq!(
                got,
                want,
                "case {case}: {spec:?} {:?} {filter:?}",
                optimizer.options()
            );
            if let Some(plan) = &got {
                assert_consistent(&model, &spec, plan, case);
                feasible += 1;
            }
        }
        // The cases must exercise the search, not only its infeasible exits.
        assert!(
            feasible >= 300,
            "only {feasible} of 600 cases were feasible"
        );
    }

    #[test]
    fn table_driven_placement_matches_the_candidate_by_candidate_oracle() {
        let mut rng = Rng(0x91ace);
        let mut feasible = 0;
        for case in 0..1000u64 {
            let model = random_model(&mut rng);
            let spec = random_spec(&mut rng, &model);
            let options = random_options(&mut rng, &model);
            let protocol = rng.pick(&[ProtocolKind::Abd, ProtocolKind::Cas]);
            let n = 1 + rng.below(model.num_dcs());
            // Out-of-range dimensions and repeated DCs must be rejected the same way.
            let k = match protocol {
                ProtocolKind::Abd => rng.pick(&[1, 1, 1, 2]),
                ProtocolKind::Cas => rng.below(n + 1),
            };
            let mut placement = rng.distinct(model.num_dcs(), n);
            if rng.below(10) == 0 {
                placement.push(placement[0]);
            }
            let optimizer = Optimizer::with_options(model.clone(), options);
            let got = optimizer.evaluate_placement(&spec, protocol, k, placement.clone());
            let want = optimizer.oracle_evaluate_placement(&spec, protocol, k, placement);
            assert_eq!(got, want, "case {case}");
            if let Some(plan) = &got {
                assert_consistent(&model, &spec, plan, case);
                feasible += 1;
            }
        }
        assert!(
            feasible >= 200,
            "only {feasible} of 1000 cases were feasible"
        );
    }
}
