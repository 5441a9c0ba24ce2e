//! Allocations per simulated operation, counted by a global allocator around one seeded
//! `Simulation::run`.
//!
//! The run is a fixed, hand-built open-loop schedule on gcp9: an ABD and a CAS key, each
//! with a preferred quorum for every client DC (as the optimizer installs them), history
//! recording on, and clients in all nine DCs. Only the run is counted, not the set-up.
//! Every `alloc`, `alloc_zeroed` and `realloc` call on the running thread counts as one
//! allocation.
//!
//! The budget guards the per-operation path against copying what it only reads: a
//! configuration clone that deep-copies the preferred-quorum map, a key clone that copies
//! the key's text, or a second reply `Vec` per served request each cost several
//! allocations per operation.

use legostore_cloud::CloudModel;
use legostore_sim::Simulation;
use legostore_types::{Configuration, DcId, OpKind, QuorumId, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

/// Measured at 17.2 allocations per operation (x86-64 Linux, debug and release alike);
/// the budget leaves 16 % of headroom. Deep-copying each configuration and key string,
/// and building a second reply `Vec` per request, cost 112 on this schedule.
const ALLOCS_PER_OP_BUDGET: f64 = 20.0;

const OPS: u32 = 3_000;
const OBJECT_BYTES: u64 = 1024;

struct Counting;

thread_local! {
    /// Allocator calls on this thread since counting started; `None` while not counting.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count_one() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get().map(|n| n + 1)));
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `config` with a preferred quorum for every DC of `model`: each quorum is the
/// quorum-sized prefix of the placement ordered by round-trip time from the client.
fn with_preferred_quorums(mut config: Configuration, model: &CloudModel) -> Configuration {
    let mut preferred = BTreeMap::new();
    for client in model.dc_ids() {
        let mut order = config.dcs.clone();
        order.sort_by(|a, b| model.rtt_ms(client, *a).total_cmp(&model.rtt_ms(client, *b)));
        let quorums = QuorumId::ALL[..config.protocol.quorum_count()]
            .iter()
            .map(|q| order[..config.quorums.size(*q)].to_vec())
            .collect();
        preferred.insert(client, quorums);
    }
    config.preferred_quorums = preferred.into();
    config.validate().expect("preferred quorums fit the placement");
    config
}

fn sim() -> Simulation {
    let model = CloudModel::gcp9();
    let dcs = model.dc_ids();
    let abd = with_preferred_quorums(Configuration::abd_majority(vec![dcs[0], dcs[4], dcs[7]], 1), &model);
    let cas = with_preferred_quorums(Configuration::cas_default(vec![dcs[1], dcs[2], dcs[5], dcs[7], dcs[8]], 3, 1), &model);
    let mut sim = Simulation::new(model);
    sim.enable_history_recording();
    let initial = Value::filler(OBJECT_BYTES as usize);
    sim.create_key("abd", abd, &initial);
    sim.create_key("cas", cas, &initial);
    // One request every 3 ms, so a few hundred are in flight at once; origins cycle
    // through all nine DCs, and a third of the requests are PUTs.
    for i in 0..OPS {
        let key = if i % 2 == 0 { "abd" } else { "cas" };
        let kind = if i % 3 == 0 { OpKind::Put } else { OpKind::Get };
        let origin = DcId((i % 9) as u16);
        sim.schedule_request(f64::from(i * 3), origin, kind, key, OBJECT_BYTES);
    }
    sim
}

#[test]
fn a_simulated_operation_stays_within_its_allocation_budget() {
    let sim = sim();
    ALLOCS.with(|n| n.set(Some(0)));
    let report = sim.run();
    let allocs = ALLOCS.with(|n| n.replace(None)).expect("counting");
    assert_eq!(report.operations.len(), OPS as usize);
    assert_eq!(report.failures(), 0, "{:?}", report.operations);
    let per_op = allocs as f64 / f64::from(OPS);
    println!("{per_op:.1} allocations per simulated operation ({allocs} in {OPS})");
    assert!(
        per_op <= ALLOCS_PER_OP_BUDGET,
        "{per_op:.1} allocations per operation, over the budget of {ALLOCS_PER_OP_BUDGET}"
    );
}
