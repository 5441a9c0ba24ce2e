//! The delayed inbox an [`Endpoint`](crate::transport::Endpoint) holds its replies in until
//! their modeled arrival.
//!
//! Servers answer instantly (their processing time is negligible in the paper's
//! setting too); what dominates real deployments is the inter-DC round trip. The inbox
//! re-creates that on the receiving side: each reply is tagged with the clock instant it
//! would arrive given the cloud model's RTT and transfer time, and
//! [`DelayedInbox::pop_ready`] releases replies in arrival order once the deployment
//! [`Clock`](crate::clock::Clock) reaches each one. The endpoint does its clock wait in
//! a deadline-bounded channel receive, where replies that cross the channel keep being
//! buffered.

use std::collections::BinaryHeap;
use std::time::Duration;

/// A reply waiting for its modeled arrival time.
struct Delayed<T> {
    /// Clock timestamp (nanoseconds, [`Clock::now_ns`](crate::clock::Clock::now_ns) domain) at which the item arrives.
    available_at_ns: u64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Delayed<T> {
    fn eq(&self, other: &Self) -> bool {
        self.available_at_ns == other.available_at_ns && self.seq == other.seq
    }
}
impl<T> Eq for Delayed<T> {}
impl<T> PartialOrd for Delayed<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Delayed<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse ordering: BinaryHeap is a max-heap, we want the earliest time on top.
        other
            .available_at_ns
            .cmp(&self.available_at_ns)
            .then(other.seq.cmp(&self.seq))
    }
}

/// Orders arbitrary items by their modeled arrival instant (a
/// [`Clock::now_ns`](crate::clock::Clock::now_ns) timestamp).
pub(crate) struct DelayedInbox<T> {
    heap: BinaryHeap<Delayed<T>>,
    seq: u64,
}

impl<T> Default for DelayedInbox<T> {
    fn default() -> Self {
        DelayedInbox {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<T> DelayedInbox<T> {
    /// Adds an item that becomes visible `delay` after the clock timestamp `sent_at_ns`.
    pub(crate) fn push(&mut self, sent_at_ns: u64, delay: Duration, item: T) {
        self.seq += 1;
        self.heap.push(Delayed {
            available_at_ns: sent_at_ns.saturating_add(delay.as_nanos() as u64),
            seq: self.seq,
            item,
        });
    }

    /// Clock timestamp at which the earliest buffered item becomes available.
    pub(crate) fn next_available_at(&self) -> Option<u64> {
        self.heap.peek().map(|d| d.available_at_ns)
    }

    /// Returns the earliest item if it has already arrived by the clock timestamp
    /// `now_ns`, without waiting.
    pub(crate) fn pop_ready(&mut self, now_ns: u64) -> Option<T> {
        let available_at = self.heap.peek()?.available_at_ns;
        if available_at > now_ns {
            return None;
        }
        Some(self.heap.pop().expect("peeked").item)
    }
}
