//! Recording histories from a running store.
//!
//! The threaded runtime and the simulator call [`HistoryRecorder::record_get`] /
//! [`HistoryRecorder::record_put`] around every completed user operation. Histories are kept
//! per key (linearizability is compositional, so each key is checked independently) and
//! values are reduced to 64-bit [`fingerprint`]s. Any given pair of distinct values
//! collides with probability about 2⁻⁶⁴. A collision makes two values look equal to the
//! checker, so it can only hide a violation, never invent one; that is why the benchmark
//! also checks a per-GET value stamp against the value the GET returned.

use crate::history::{CheckOutcome, History, Operation};
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

/// The absorb step's two odd multipliers (the golden-ratio constant and xxHash64's
/// second prime).
const K1: u64 = 0x9e37_79b9_7f4a_7c15;
const K2: u64 = 0xc2b2_ae3d_27d4_eb4f;

/// Starting state of the four lanes: any distinct non-zero values.
const SEEDS: [u64; 4] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];

/// Word-at-a-time fingerprint of a byte string, used to map stored values to the `u64`
/// domain the checker works over.
///
/// Four independent lanes each absorb one little-endian `u64` of every 32-byte block; a
/// tail under 32 bytes is zero-padded into one more block. Absorbing `word` into `lane`
/// is `rotl((lane ^ word) * K1, 31) * K2` with both multipliers odd. For a fixed word the
/// step is a bijection of the lane, and for a fixed lane a bijection of the word, so two
/// inputs of equal length that differ in one word always end in different lanes.
///
/// The rotate carries the first product's high bits down into the second multiply. A
/// product's top bit depends on no other input bit, so without that, a flip of a word's
/// bit 63 would change only one state bit, and one more flip in the lane's next word
/// would cancel it: plain word-at-a-time FNV-1a collides on two bit-63 flips, and with a
/// single multiply and a rotate, bit 63 of one word pairs with bit 30 of the next.
///
/// The length and the four lanes are then folded with the same step and finished with
/// murmur3's `fmix64` avalanche. This is not a keyed or cryptographic hash.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    let mut lanes = SEEDS;
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        absorb(&mut lanes, block);
    }
    let tail = blocks.remainder();
    if !tail.is_empty() {
        let mut padded = [0u8; 32];
        padded[..tail.len()].copy_from_slice(tail);
        absorb(&mut lanes, &padded);
    }
    fmix64(lanes.iter().fold(bytes.len() as u64, |h, &lane| step(h, lane)))
}

/// Absorbs one 32-byte block, one word per lane.
#[inline(always)]
fn absorb(lanes: &mut [u64; 4], block: &[u8]) {
    for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
        *lane = step(*lane, u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
    }
}

#[inline(always)]
fn step(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(K1).rotate_left(31).wrapping_mul(K2)
}

/// murmur3's 64-bit finalizer: every input bit affects every output bit.
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Thread-safe, per-key history collector.
///
/// Contract: every PUT to a key writes a value distinct from the key's initial value and
/// from every other PUT to that key. The checker relies on it to tell which write each
/// GET observed; a repeated value makes the key's history [`CheckOutcome::Malformed`],
/// which [`HistoryRecorder::check_all`] reports as a failure. The simulator stamps each PUT
/// with its op token, and the benchmark stamps each value with its writer and counter.
#[derive(Debug, Default)]
pub struct HistoryRecorder {
    inner: Mutex<HashMap<String, History>>,
}

impl HistoryRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        HistoryRecorder {
            inner: Mutex::new(HashMap::new()),
        }
    }

    /// Declares a key and the fingerprint of its initial value (CREATE).
    pub fn register_key(&self, key: &str, initial_value: u64) {
        let mut map = self.lock();
        if !map.contains_key(key) {
            map.insert(key.to_string(), History::new(initial_value));
        }
    }

    /// Records a completed GET that observed `value_fp`.
    pub fn record_get(&self, key: &str, client: u32, value_fp: u64, invoke: u64, ret: u64) {
        self.push(key, Operation::read(client, value_fp, invoke, ret));
    }

    /// Records a completed PUT of `value_fp`.
    pub fn record_put(&self, key: &str, client: u32, value_fp: u64, invoke: u64, ret: u64) {
        self.push(key, Operation::write(client, value_fp, invoke, ret));
    }

    /// Appends `op` to `key`'s history; the key's `String` is allocated only the first
    /// time the key is seen, not on every operation.
    fn push(&self, key: &str, op: Operation) {
        let mut map = self.lock();
        match map.get_mut(key) {
            Some(history) => history.push(op),
            None => {
                let mut history = History::new(0);
                history.push(op);
                map.insert(key.to_string(), history);
            }
        }
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<String, History>> {
        self.inner.lock().expect("a thread panicked while recording a history")
    }

    /// Number of operations recorded for `key`.
    pub fn len(&self, key: &str) -> usize {
        self.lock().get(key).map(|h| h.len()).unwrap_or(0)
    }

    /// True if nothing has been recorded for `key`.
    pub fn is_empty(&self, key: &str) -> bool {
        self.len(key) == 0
    }

    /// Returns a snapshot of the history for `key`, if any.
    pub fn history(&self, key: &str) -> Option<History> {
        self.lock().get(key).cloned()
    }

    /// Keys with at least one recorded operation or registration.
    pub fn keys(&self) -> Vec<String> {
        let mut ks: Vec<String> = self.lock().keys().cloned().collect();
        ks.sort();
        ks
    }

    /// Checks every recorded key and returns the keys that failed (empty ⇒ all
    /// linearizable), sorted by key so the result does not depend on map order.
    pub fn check_all(&self) -> Vec<(String, CheckOutcome)> {
        let map = self.lock();
        let mut failures: Vec<(String, CheckOutcome)> = map
            .iter()
            .filter_map(|(key, history)| {
                let outcome = history.check();
                (!outcome.is_ok()).then(|| (key.clone(), outcome))
            })
            .collect();
        failures.sort_by(|a, b| a.0.cmp(&b.0));
        failures
    }

    /// [`HistoryRecorder::check_all`], plus an always-empty list of undecided keys. The
    /// checker decides every history, so the argument is ignored; this remains only for
    /// the benchmark package's caller, and a change to the benchmark deletes it.
    pub fn check_all_within(
        &self,
        _max_steps_per_key: u64,
    ) -> (Vec<(String, CheckOutcome)>, Vec<String>) {
        (self.check_all(), Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_distinguishes_values() {
        assert_ne!(fingerprint(b"a"), fingerprint(b"b"));
        assert_eq!(fingerprint(b"hello"), fingerprint(b"hello"));
        assert_ne!(fingerprint(b""), fingerprint(b"\0"));
    }

    fn patterned(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 + 7) as u8).collect()
    }

    /// Lengths 0..=72 cross the 8-byte word and 32-byte block edges; there every flip
    /// and the unflipped value are pairwise distinct. The long lengths check each flip
    /// against the unflipped value.
    #[test]
    fn every_single_bit_flip_changes_the_fingerprint() {
        for len in 0..=72 {
            let mut bytes = patterned(len);
            let mut seen = std::collections::HashSet::from([fingerprint(&bytes)]);
            for i in 0..len * 8 {
                bytes[i / 8] ^= 1 << (i % 8);
                assert!(seen.insert(fingerprint(&bytes)), "len {len}, bit {i}");
                bytes[i / 8] ^= 1 << (i % 8);
            }
        }
        for len in [4095, 4096, 4097, 100 * 1024] {
            let mut bytes = patterned(len);
            let unflipped = fingerprint(&bytes);
            for i in 0..len * 8 {
                bytes[i / 8] ^= 1 << (i % 8);
                assert_ne!(fingerprint(&bytes), unflipped, "len {len}, bit {i}");
                bytes[i / 8] ^= 1 << (i % 8);
            }
        }
    }

    #[test]
    fn zero_runs_of_adjacent_lengths_differ() {
        for n in 0..=72 {
            assert_ne!(fingerprint(&vec![0u8; n]), fingerprint(&vec![0u8; n + 1]), "n {n}");
        }
    }

    /// Plain word-at-a-time FNV-1a: a flip of bit 63 flips only bit 63 of the state
    /// (the multiplier is odd), so two such flips cancel. `fingerprint` keeps that pair,
    /// and every other pair of bit flips in two 32-byte blocks, apart.
    #[test]
    fn two_bit_flips_never_collide_where_word_fnv_does() {
        fn word_fnv(bytes: &[u8]) -> u64 {
            bytes.chunks_exact(8).fold(0xcbf2_9ce4_8422_2325, |h, w| {
                (h ^ u64::from_le_bytes(w.try_into().unwrap())).wrapping_mul(0x100_0000_01b3)
            })
        }
        let base = patterned(64);
        let mut pair = base.clone();
        // Bit 63 of words 0 and 4: lane 0 of the first and of the second block.
        pair[7] ^= 0x80;
        pair[39] ^= 0x80;
        assert_eq!(word_fnv(&base), word_fnv(&pair));
        assert_ne!(fingerprint(&base), fingerprint(&pair));

        let mut bytes = base;
        let mut seen = std::collections::HashSet::from([fingerprint(&bytes)]);
        for i in 0..64 * 8 {
            for j in i + 1..64 * 8 {
                bytes[i / 8] ^= 1 << (i % 8);
                bytes[j / 8] ^= 1 << (j % 8);
                assert!(seen.insert(fingerprint(&bytes)), "bits {i} and {j}");
                bytes[i / 8] ^= 1 << (i % 8);
                bytes[j / 8] ^= 1 << (j % 8);
            }
        }
    }

    #[test]
    fn get_of_a_value_differing_in_one_deep_byte_is_not_linearizable() {
        let a = vec![0x5a; 100 * 1024];
        let mut b = a.clone();
        b[70_000] ^= 1;
        let rec = HistoryRecorder::new();
        rec.register_key("k", fingerprint(b"init"));
        rec.record_put("k", 1, fingerprint(&a), 0, 1);
        rec.record_get("k", 2, fingerprint(&b), 2, 3);
        let failures = rec.check_all();
        assert_eq!(failures.len(), 1);
        assert!(!failures[0].1.is_ok());
    }

    #[test]
    fn recorder_partitions_by_key_and_checks() {
        let rec = HistoryRecorder::new();
        rec.register_key("x", fingerprint(b"init"));
        rec.record_put("x", 1, 10, 0, 5);
        rec.record_get("x", 2, 10, 6, 8);
        rec.record_put("y", 1, 99, 0, 1);
        rec.record_get("y", 2, 99, 2, 3);
        assert_eq!(rec.len("x"), 2);
        assert_eq!(rec.len("y"), 2);
        assert!(rec.is_empty("z"));
        assert_eq!(rec.keys(), vec!["x".to_string(), "y".to_string()]);
        assert!(rec.check_all().is_empty());
    }

    #[test]
    fn recorder_flags_non_linearizable_key() {
        let rec = HistoryRecorder::new();
        rec.record_put("bad", 1, 1, 0, 1);
        rec.record_get("bad", 2, 0, 5, 6); // stale read of the default 0 after put(1) finished
        rec.record_put("good", 1, 1, 0, 1);
        rec.record_get("good", 2, 1, 5, 6);
        let failures = rec.check_all();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, "bad");
        assert!(!failures[0].1.is_ok());
    }

    #[test]
    fn budgeted_sweep_ignores_its_budget() {
        let rec = HistoryRecorder::new();
        for c in 0..8u32 {
            rec.record_put("wide", c, 100 + u64::from(c), 0, 100);
        }
        rec.record_get("wide", 9, 103, 200, 201);
        rec.record_put("bad", 1, 1, 0, 1);
        rec.record_get("bad", 2, 0, 5, 6);
        let (failures, undecided) = rec.check_all_within(1);
        assert!(undecided.is_empty());
        assert_eq!(failures, rec.check_all());
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, "bad");
    }

    #[test]
    fn history_snapshot_is_a_copy() {
        let rec = HistoryRecorder::new();
        rec.record_put("k", 1, 7, 0, 1);
        let snap = rec.history("k").unwrap();
        rec.record_get("k", 2, 7, 2, 3);
        assert_eq!(snap.len(), 1);
        assert_eq!(rec.history("k").unwrap().len(), 2);
        assert!(rec.history("missing").is_none());
    }
}
