//! Single-register histories and the linearizability decision procedure.

use std::collections::HashMap;

/// What an operation did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperationKind {
    /// A read that returned `value`.
    Read {
        /// Value observed by the read.
        value: u64,
    },
    /// A write of `value`.
    Write {
        /// Value installed by the write.
        value: u64,
    },
}

/// One operation in a history.
///
/// Times are arbitrary monotonically comparable integers (the recorder uses nanoseconds for
/// the threaded runtime and virtual microseconds for the simulator). `invoke <= ret` must
/// hold for every operation. A write whose outcome is unknown (a failed PUT) has
/// `ret = u64::MAX`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Operation {
    /// Identifier of the client that issued the operation (informational).
    pub client: u32,
    /// Operation kind and value.
    pub kind: OperationKind,
    /// Invocation timestamp.
    pub invoke: u64,
    /// Response timestamp.
    pub ret: u64,
}

impl Operation {
    /// Convenience constructor for a read.
    pub fn read(client: u32, value: u64, invoke: u64, ret: u64) -> Self {
        Operation {
            client,
            kind: OperationKind::Read { value },
            invoke,
            ret,
        }
    }

    /// Convenience constructor for a write.
    pub fn write(client: u32, value: u64, invoke: u64, ret: u64) -> Self {
        Operation {
            client,
            kind: OperationKind::Write { value },
            invoke,
            ret,
        }
    }
}

/// Outcome of a linearizability check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckOutcome {
    /// A linearization exists.
    Linearizable,
    /// No linearization exists.
    NotLinearizable,
    /// The history was malformed: an operation returned before it was invoked, or a write
    /// repeated the initial value or an earlier write's value.
    Malformed { index: usize },
}

impl CheckOutcome {
    /// True when the history is linearizable.
    pub fn is_ok(&self) -> bool {
        matches!(self, CheckOutcome::Linearizable)
    }
}

/// A history of operations over one register.
#[derive(Debug, Clone, Default)]
pub struct History {
    /// The register's value before any write in the history (LEGOStore's CREATE installs an
    /// initial value; reads may legitimately observe it).
    pub initial_value: u64,
    /// The operations, in any order.
    pub operations: Vec<Operation>,
}

/// A write and the reads of its value, reduced to the two instants that bound where the
/// cluster can be linearized. Times are shifted up by one, so the initial value's write
/// sits at 0, strictly before every recorded operation.
struct Cluster {
    /// When the write was invoked: no read of its value may return strictly before this.
    write_invoke: u128,
    /// The earliest response in the cluster: the write takes effect no later than this.
    min_ret: u128,
    /// The latest invocation in the cluster: its last read takes effect no earlier.
    max_invoke: u128,
}

impl Cluster {
    /// A cluster whose earliest response precedes its latest invocation must occupy the
    /// whole *forward zone* `[min_ret, max_invoke]`. Otherwise its *backward zone*
    /// `[max_invoke, min_ret]` holds an instant at which every member can take effect.
    fn is_forward(&self) -> bool {
        self.min_ret < self.max_invoke
    }
}

impl History {
    /// Creates an empty history with the given initial register value.
    pub fn new(initial_value: u64) -> Self {
        History {
            initial_value,
            operations: Vec::new(),
        }
    }

    /// Appends an operation.
    pub fn push(&mut self, op: Operation) {
        self.operations.push(op);
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.operations.len()
    }

    /// True if the history has no operations.
    pub fn is_empty(&self) -> bool {
        self.operations.is_empty()
    }

    /// Decides linearizability of the history in O(n log n).
    ///
    /// Every written value must be distinct from the initial value and from every other
    /// write's; a repeat makes the history [`CheckOutcome::Malformed`]. Under distinct
    /// values each read names the one write it observed, so the history splits into
    /// *clusters*: a write plus the reads of its value, with the initial value as a write
    /// that precedes everything. A linearization places each cluster as one contiguous
    /// run, and the history is linearizable iff (Gibbons & Korach, SIAM J. Comput. 1997;
    /// the zone form is Golab, Li & Shah, PODC 2011):
    /// - no read returns a value that nothing wrote;
    /// - no read returns strictly before its write is invoked;
    /// - no two forward zones overlap;
    /// - no backward zone lies inside a forward zone.
    ///
    /// Operation A precedes B iff `A.ret < B.invoke`, so equal timestamps are concurrent
    /// and zones that only touch do not overlap. A write with `ret = u64::MAX` is a failed
    /// PUT that may take effect at any point after its invocation, or never; if nobody
    /// read its value, its backward zone is unbounded and constrains nothing.
    pub fn check(&self) -> CheckOutcome {
        let shift = |t: u64| u128::from(t) + 1;
        let mut cluster_of: HashMap<u64, usize> = HashMap::from([(self.initial_value, 0)]);
        let mut clusters = vec![Cluster {
            write_invoke: 0,
            min_ret: 0,
            max_invoke: 0,
        }];
        for (index, op) in self.operations.iter().enumerate() {
            if op.ret < op.invoke {
                return CheckOutcome::Malformed { index };
            }
            if let OperationKind::Write { value } = op.kind {
                if cluster_of.insert(value, clusters.len()).is_some() {
                    return CheckOutcome::Malformed { index };
                }
                clusters.push(Cluster {
                    write_invoke: shift(op.invoke),
                    min_ret: shift(op.ret),
                    max_invoke: shift(op.invoke),
                });
            }
        }
        for op in &self.operations {
            let OperationKind::Read { value } = op.kind else {
                continue;
            };
            let Some(&c) = cluster_of.get(&value) else {
                return CheckOutcome::NotLinearizable;
            };
            let cluster = &mut clusters[c];
            if shift(op.ret) < cluster.write_invoke {
                return CheckOutcome::NotLinearizable;
            }
            cluster.min_ret = cluster.min_ret.min(shift(op.ret));
            cluster.max_invoke = cluster.max_invoke.max(shift(op.invoke));
        }

        let (mut forward, backward): (Vec<Cluster>, Vec<Cluster>) =
            clusters.into_iter().partition(Cluster::is_forward);
        forward.sort_unstable_by_key(|f| f.min_ret);
        if forward.windows(2).any(|w| w[1].min_ret < w[0].max_invoke) {
            return CheckOutcome::NotLinearizable;
        }
        // Forward zones are now disjoint, so the only one that can hold a backward zone
        // is the last to start strictly before it.
        for b in &backward {
            let i = forward.partition_point(|f| f.min_ret < b.max_invoke);
            if i > 0 && b.min_ret < forward[i - 1].max_invoke {
                return CheckOutcome::NotLinearizable;
            }
        }
        CheckOutcome::Linearizable
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_history_is_linearizable() {
        assert!(History::new(0).check().is_ok());
    }

    #[test]
    fn sequential_history_is_linearizable() {
        let mut h = History::new(0);
        h.push(Operation::write(1, 10, 0, 1));
        h.push(Operation::read(2, 10, 2, 3));
        h.push(Operation::write(1, 20, 4, 5));
        h.push(Operation::read(2, 20, 6, 7));
        assert!(h.check().is_ok());
    }

    #[test]
    fn read_of_initial_value_is_linearizable() {
        let mut h = History::new(42);
        h.push(Operation::read(1, 42, 0, 1));
        assert!(h.check().is_ok());
    }

    #[test]
    fn stale_read_after_write_completes_is_rejected() {
        let mut h = History::new(0);
        h.push(Operation::write(1, 5, 0, 1));
        // Read starts strictly after the write finished but returns the old value.
        h.push(Operation::read(2, 0, 2, 3));
        assert_eq!(h.check(), CheckOutcome::NotLinearizable);
    }

    #[test]
    fn concurrent_read_may_return_old_or_new_value() {
        // Write [0, 10]; read overlapping it may return either 0 or 7.
        for read_value in [0u64, 7] {
            let mut h = History::new(0);
            h.push(Operation::write(1, 7, 0, 10));
            h.push(Operation::read(2, read_value, 5, 6));
            assert!(h.check().is_ok(), "read {read_value} should be allowed");
        }
        // But a value never written is not allowed.
        let mut h = History::new(0);
        h.push(Operation::write(1, 7, 0, 10));
        h.push(Operation::read(2, 99, 5, 6));
        assert_eq!(h.check(), CheckOutcome::NotLinearizable);
    }

    #[test]
    fn new_old_inversion_is_rejected() {
        // Two sequential reads around concurrent writes must not observe values in an order
        // contradicting real time: r1 sees the newer write, then r2 (strictly later) sees
        // the older one.
        let mut h = History::new(0);
        h.push(Operation::write(1, 1, 0, 100)); // w1, concurrent with everything
        h.push(Operation::write(2, 2, 0, 100)); // w2, concurrent with everything
        h.push(Operation::read(3, 2, 10, 20)); // r1 sees 2
        h.push(Operation::read(3, 1, 30, 40)); // r2 (after r1) sees 1 -> would need w1 after w2
        // This IS linearizable: w2, r1, w1, r2. Check that the checker finds it.
        assert!(h.check().is_ok());

        // Now pin the writes sequentially: w1 finishes before w2 starts; then r1 sees 2 and
        // a later r2 sees 1 — that is a new/old inversion and must be rejected.
        let mut h = History::new(0);
        h.push(Operation::write(1, 1, 0, 5));
        h.push(Operation::write(2, 2, 10, 15));
        h.push(Operation::read(3, 2, 20, 25));
        h.push(Operation::read(3, 1, 30, 35));
        assert_eq!(h.check(), CheckOutcome::NotLinearizable);
    }

    #[test]
    fn malformed_history_detected() {
        let mut h = History::new(0);
        h.push(Operation::write(1, 1, 10, 5));
        assert!(matches!(h.check(), CheckOutcome::Malformed { index: 0 }));
    }

    #[test]
    fn concurrent_writes_with_reads_on_both_sides() {
        // Classic example: two concurrent writes, one reader sees A then B, another sees B
        // only. Linearizable iff a single order of writes explains both.
        let mut h = History::new(0);
        h.push(Operation::write(1, 1, 0, 50));
        h.push(Operation::write(2, 2, 0, 50));
        h.push(Operation::read(3, 1, 60, 61));
        h.push(Operation::read(4, 1, 62, 63));
        assert!(h.check().is_ok());

        // Readers disagreeing on the final state after both writes completed: impossible.
        let mut h = History::new(0);
        h.push(Operation::write(1, 1, 0, 50));
        h.push(Operation::write(2, 2, 0, 50));
        h.push(Operation::read(3, 1, 60, 61));
        h.push(Operation::read(4, 2, 62, 63));
        h.push(Operation::read(5, 1, 64, 65));
        assert_eq!(h.check(), CheckOutcome::NotLinearizable);
    }

    #[test]
    fn repeated_values_are_handled() {
        // A read of a repeated value names no single write, so the history is malformed.
        let mut h = History::new(0);
        h.push(Operation::write(1, 5, 0, 1));
        h.push(Operation::write(2, 5, 2, 3));
        h.push(Operation::read(3, 5, 4, 5));
        assert_eq!(h.check(), CheckOutcome::Malformed { index: 1 });
        // Rewriting the initial value counts as a repeat too.
        let mut h = History::new(0);
        h.push(Operation::read(1, 0, 0, 1));
        h.push(Operation::write(2, 0, 2, 3));
        assert_eq!(h.check(), CheckOutcome::Malformed { index: 1 });
    }

    #[test]
    fn larger_concurrent_history_is_checked_quickly() {
        // A broad but linearizable history: 8 writers write distinct values concurrently,
        // then 8 readers all agree on one of them.
        let mut h = History::new(0);
        for c in 0..8u32 {
            h.push(Operation::write(c, 100 + c as u64, 0, 100));
        }
        for c in 0..8u32 {
            h.push(Operation::read(100 + c, 103, 200, 201));
        }
        assert!(h.check().is_ok());
    }

    #[test]
    fn read_between_two_writes_pins_their_order() {
        // w(1) [0,10], r->1 [20,30], w(2) [15,40]: linearizable (w1, r, w2).
        let mut h = History::new(0);
        h.push(Operation::write(1, 1, 0, 10));
        h.push(Operation::read(2, 1, 20, 30));
        h.push(Operation::write(3, 2, 15, 40));
        assert!(h.check().is_ok());

        // But if a later read (after w2 completes) still sees 1 while an even later read
        // sees 2 that's fine; seeing 2 then 1 afterwards is not.
        let mut h2 = h.clone();
        h2.push(Operation::read(4, 2, 50, 55));
        h2.push(Operation::read(5, 1, 60, 65));
        assert_eq!(h2.check(), CheckOutcome::NotLinearizable);
    }

    /// A failed PUT (`ret = u64::MAX`) may take effect at any point after its
    /// invocation, or never.
    #[test]
    fn failed_puts_take_effect_after_invocation_or_never() {
        let failed = |value, invoke| Operation::write(1, value, invoke, u64::MAX);
        let rows = [
            // Nobody read it: it never took effect.
            (
                vec![
                    Operation::write(1, 1, 0, 5),
                    failed(2, 10),
                    Operation::read(3, 1, 20, 25),
                ],
                CheckOutcome::Linearizable,
            ),
            // Read once, then a strictly later read sees the older value.
            (
                vec![
                    Operation::write(1, 1, 0, 5),
                    failed(2, 10),
                    Operation::read(3, 2, 20, 25),
                    Operation::read(3, 1, 30, 35),
                ],
                CheckOutcome::NotLinearizable,
            ),
            // Read once, then overwritten by a completed PUT.
            (
                vec![
                    failed(1, 0),
                    Operation::read(2, 1, 10, 15),
                    Operation::write(3, 2, 20, 25),
                    Operation::read(2, 2, 30, 35),
                ],
                CheckOutcome::Linearizable,
            ),
        ];
        for (row, (operations, expected)) in rows.into_iter().enumerate() {
            let h = History {
                initial_value: 0,
                operations,
            };
            assert_eq!(h.check(), expected, "row {row}");
        }
    }

    /// 24 concurrent writes, then two strictly ordered reads that disagree: the search the
    /// zone checker replaced tries every order of the writes before giving up.
    #[test]
    fn wide_concurrent_writes_with_disagreeing_reads_are_rejected() {
        let mut h = History::new(0);
        for c in 0..24u32 {
            h.push(Operation::write(c, 100 + u64::from(c), 0, 100));
        }
        h.push(Operation::read(100, 105, 200, 201));
        h.push(Operation::read(101, 117, 300, 301));
        assert_eq!(h.check(), CheckOutcome::NotLinearizable);
    }

    /// The memoized Wing & Gong search that `History::check` replaced, kept as the
    /// reference the zone checker is tested against. Exponential in per-register
    /// concurrency; takes well-formed histories only.
    fn dfs_linearizable(history: &History) -> bool {
        let mut ops = history.operations.clone();
        ops.sort_by_key(|o| (o.invoke, o.ret));
        let n = ops.len();
        let mut linearized = vec![false; n];
        let mut order: Vec<usize> = Vec::with_capacity(n);
        let mut memo: std::collections::HashSet<(Vec<bool>, u64)> = Default::default();
        // Each frame is (register value before it, next candidate index to try).
        let mut stack: Vec<(u64, usize)> = vec![(history.initial_value, 0)];
        while let Some(&(value, start)) = stack.last() {
            if order.len() == n {
                return true;
            }
            // Candidates must be invoked no later than the earliest pending response.
            let min_ret = (0..n)
                .filter(|&i| !linearized[i])
                .map(|i| ops[i].ret)
                .min()
                .unwrap_or(u64::MAX);
            let pending = (0..n).filter(|&i| !linearized[i] && ops[i].invoke <= min_ret);
            // A candidate read of the current value is a forced move: linearizing it now
            // discards no witness, so its frame has no alternatives to resume.
            let forced = (start == 0)
                .then(|| {
                    pending
                        .clone()
                        .find(|&i| ops[i].kind == OperationKind::Read { value })
                })
                .flatten();
            let candidate = forced.map(|i| (i, value)).or_else(|| {
                pending.filter(|&i| i >= start).find_map(|i| match ops[i].kind {
                    OperationKind::Read { value: v } => (v == value).then_some((i, value)),
                    OperationKind::Write { value: v } => Some((i, v)),
                })
            });
            match candidate {
                Some((i, new_value)) => {
                    stack.last_mut().unwrap().1 = if forced.is_some() { n } else { i + 1 };
                    linearized[i] = true;
                    if memo.contains(&(linearized.clone(), new_value)) {
                        linearized[i] = false;
                        continue;
                    }
                    order.push(i);
                    stack.push((new_value, 0));
                }
                None => {
                    memo.insert((linearized.clone(), value));
                    stack.pop();
                    if let Some(last) = order.pop() {
                        linearized[last] = false;
                    }
                }
            }
        }
        false
    }

    /// SplitMix64: a seeded stream for the differential test, without a dependency.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Random histories of up to 10 operations with timestamps in `0..12`, so ties are
    /// common. Writes carry distinct values; a fifth of them failed (`ret = u64::MAX`).
    /// Reads return the initial value, any write's value, or a value nobody wrote.
    fn random_history(state: &mut u64) -> History {
        let mut h = History::new(0);
        let n = next(state) % 11;
        let writes = if n == 0 { 0 } else { next(state) % (n + 1) };
        for i in 0..n {
            let invoke = next(state) % 12;
            let span = next(state) % (12 - invoke);
            let op = if i < writes {
                let ret = if next(state) % 5 == 0 { u64::MAX } else { invoke + span };
                Operation::write(i as u32, 1 + i, invoke, ret)
            } else {
                // 0 is the initial value, 1..=writes were written, writes + 1 was not.
                let value = next(state) % (writes + 2);
                Operation::read(i as u32, value, invoke, invoke + span)
            };
            h.push(op);
        }
        let len = h.operations.len();
        for i in (1..len).rev() {
            h.operations.swap(i, (next(state) % (i as u64 + 1)) as usize);
        }
        h
    }

    #[test]
    fn zone_checker_agrees_with_the_search_on_random_histories() {
        let mut state = 0x4c45_474f;
        let (mut yes, mut no) = (0, 0);
        for case in 0..20_000 {
            let h = random_history(&mut state);
            let expected = dfs_linearizable(&h);
            assert_eq!(h.check().is_ok(), expected, "case {case}: {h:?}");
            assert_ne!(h.check(), CheckOutcome::Malformed { index: 0 });
            if expected {
                yes += 1;
            } else {
                no += 1;
            }
        }
        // Both verdicts are common, so neither side of the agreement is vacuous.
        assert!(yes > 4_000 && no > 4_000, "{yes} linearizable, {no} not");
    }
}
