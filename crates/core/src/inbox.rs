//! Client-side delayed inbox: delivers server replies only after the modeled network delay
//! has elapsed.
//!
//! Servers answer instantly (their processing time is negligible in the paper's
//! setting too); what dominates real deployments is the inter-DC round trip. The inbox
//! re-creates that on the receiving side: each reply is tagged with the clock instant it
//! would arrive given the cloud model's RTT and transfer time, and
//! [`DelayedInbox::pop_ready`] releases replies in arrival order once the deployment
//! [`Clock`](crate::clock::Clock) reaches each one. The deployment's loops interleave
//! `pop_ready` polls with deadline-bounded channel waits, so the clock wait (a true sleep
//! under a real clock; a logical jump once the deployment is quiescent under
//! [`Clock::virtual_time`](crate::clock::Clock::virtual_time)) happens in the channel
//! receive, where arriving messages keep being drained.

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
pub struct DelayedInbox<T> {
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
    /// Creates an empty inbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an item that becomes visible `delay` after the clock timestamp `sent_at_ns`.
    pub fn push(&mut self, sent_at_ns: u64, delay: Duration, item: T) {
        self.seq += 1;
        self.heap.push(Delayed {
            available_at_ns: sent_at_ns.saturating_add(delay.as_nanos() as u64),
            seq: self.seq,
            item,
        });
    }

    /// Number of buffered items (ready or not).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no items are buffered.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Clock timestamp at which the earliest buffered item becomes available.
    pub fn next_available_at(&self) -> Option<u64> {
        self.heap.peek().map(|d| d.available_at_ns)
    }

    /// Returns the earliest item if it has already arrived by the clock timestamp
    /// `now_ns`, without waiting.
    ///
    /// The deployment's client loops call this between deadline-bounded channel waits
    /// rather than parking in a bare clock sleep: a thread asleep on the clock stops
    /// draining its reply channel, and a virtual clock will not advance past
    /// undelivered messages.
    pub fn pop_ready(&mut self, now_ns: u64) -> Option<T> {
        let available_at = self.heap.peek()?.available_at_ns;
        if available_at > now_ns {
            return None;
        }
        Some(self.heap.pop().expect("peeked").item)
    }

    /// Returns the earliest item, waiting on `clock` until its modeled arrival time if
    /// needed, but never waiting past `deadline_ns`. Returns `None` if the inbox is empty
    /// or the earliest item would arrive after the deadline.
    ///
    /// Test-only on purpose: this parks the calling thread without polling anything
    /// else, so a caller that also receives from a channel would stop draining it (and
    /// could wedge a virtual clock behind the undelivered messages). The deployment's
    /// loops wait on their channel with a deadline and use [`DelayedInbox::pop_ready`]
    /// instead.
    #[cfg(test)]
    pub(crate) fn next_ready(&mut self, clock: &crate::clock::Clock, deadline_ns: u64) -> Option<T> {
        let available_at = self.heap.peek()?.available_at_ns;
        if available_at > deadline_ns {
            return None;
        }
        clock.sleep_until_ns(available_at);
        Some(self.heap.pop().expect("peeked").item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;
    use std::time::Instant;

    #[test]
    fn items_come_out_in_arrival_order() {
        let clock = Clock::virtual_time();
        let mut inbox = DelayedInbox::new();
        let t0 = clock.now_ns();
        inbox.push(t0, Duration::from_millis(30), "slow");
        inbox.push(t0, Duration::from_millis(1), "fast");
        inbox.push(t0, Duration::from_millis(10), "medium");
        let deadline = t0 + 1_000_000_000;
        assert_eq!(inbox.next_ready(&clock, deadline), Some("fast"));
        assert_eq!(inbox.next_ready(&clock, deadline), Some("medium"));
        assert_eq!(inbox.next_ready(&clock, deadline), Some("slow"));
        assert_eq!(inbox.next_ready(&clock, deadline), None);
        assert!(inbox.is_empty());
        assert_eq!(clock.now_ns(), t0 + 30_000_000, "advanced to the last arrival");
    }

    #[test]
    fn deadline_prevents_waiting_for_far_future_items() {
        let clock = Clock::virtual_time();
        let mut inbox = DelayedInbox::new();
        let t0 = clock.now_ns();
        inbox.push(t0, Duration::from_secs(60), "later");
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox.next_ready(&clock, t0 + 5_000_000), None);
        assert_eq!(inbox.len(), 1, "item must stay buffered");
        assert_eq!(clock.now_ns(), t0, "a deadline miss must not advance the clock");
        assert!(inbox.next_available_at().unwrap() > t0 + 59_000_000_000);
    }

    #[test]
    fn waits_until_items_become_available_on_a_real_clock() {
        let clock = Clock::real();
        let mut inbox = DelayedInbox::new();
        let wall = Instant::now();
        let t0 = clock.now_ns();
        inbox.push(t0, Duration::from_millis(20), 42);
        let got = inbox.next_ready(&clock, t0 + 1_000_000_000);
        assert_eq!(got, Some(42));
        assert!(wall.elapsed() >= Duration::from_millis(19));
    }
}
