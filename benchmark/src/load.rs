//! Pieces every load generator shares: stamped values, the post-run output checks, and
//! process-level measurements.

use legostore_lincheck::HistoryRecorder;
use legostore_types::Value;

/// Bytes of the unique stamp at the head of every value: writer id then counter, both
/// little-endian `u64`s. The rest of the value is [`Value::filler`]'s pattern.
pub const STAMP_BYTES: usize = 16;

/// Writer id stamped into the value every key is installed with; its counter is the
/// key's index.
pub const INITIAL_WRITER: u64 = u64::MAX;

/// Search steps the linearizability checker may spend on one key before the key counts
/// as skipped — which the gate treats as a failure, so the budget is generous: a
/// history decided without backtracking needs two steps per operation.
pub const LINCHECK_STEPS_PER_KEY: u64 = 50_000_000;

/// A modelled or measured latency above this misses the SLO on the `tcp-*` workloads
/// (the tighter of the two SLOs the `geo-*` key groups are planned for).
pub const TCP_SLO_MS: f64 = 300.0;

/// Builds values of one size that differ only in their stamp.
pub struct ValueFactory {
    template: Vec<u8>,
}

impl ValueFactory {
    /// A factory for values of up to `max_bytes` bytes (at least the stamp).
    pub fn new(max_bytes: usize) -> Self {
        let len = max_bytes.max(STAMP_BYTES);
        ValueFactory {
            template: Value::filler(len).as_bytes().to_vec(),
        }
    }

    /// The `size`-byte value stamped `(writer, counter)`.
    pub fn make(&self, size: usize, writer: u64, counter: u64) -> Value {
        let size = size.clamp(STAMP_BYTES, self.template.len());
        let mut bytes = self.template[..size].to_vec();
        bytes[..8].copy_from_slice(&writer.to_le_bytes());
        bytes[8..16].copy_from_slice(&counter.to_le_bytes());
        Value::from(bytes)
    }

    /// Reads the stamp back and spot-checks the filler (first, middle and last byte
    /// after the stamp; the client's own fingerprint already hashed every byte).
    pub fn read_stamp(&self, value: &Value) -> Option<(u64, u64)> {
        let b = value.as_bytes();
        if b.len() < STAMP_BYTES || b.len() > self.template.len() {
            return None;
        }
        for i in [STAMP_BYTES, (STAMP_BYTES + b.len()) / 2, b.len() - 1] {
            if i >= STAMP_BYTES && i < b.len() && b[i] != self.template[i] {
                return None;
            }
        }
        let writer = u64::from_le_bytes(b[..8].try_into().expect("8 bytes"));
        let counter = u64::from_le_bytes(b[8..16].try_into().expect("8 bytes"));
        Some((writer, counter))
    }
}

/// What a GET returned, for the post-run stamp check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadObservation {
    /// Index of the key read.
    pub key: u32,
    /// Stamp found in the value (`None` if the value was malformed).
    pub stamp: Option<(u64, u64)>,
    /// Length of the value returned.
    pub len: u32,
}

/// One writer's log: `writes[counter]` is `(key index, value length)` of the PUT it
/// stamped with `counter`.
pub type WriteLog = Vec<(u32, u32)>;

/// Checks that every GET returned a value that some PUT to *that key* wrote (or the
/// key's initial value). `writers[w]` is the log of writer id `w`; `initial_len` gives a
/// key's installed length. Returns one message per kind of violation.
pub fn check_stamps(
    reads: &[ReadObservation],
    writers: &[WriteLog],
    initial_len: impl Fn(u32) -> u32,
) -> Vec<String> {
    let mut bad = 0u64;
    let mut first = None;
    for r in reads {
        let ok = match r.stamp {
            Some((INITIAL_WRITER, counter)) => {
                counter == u64::from(r.key) && r.len == initial_len(r.key)
            }
            Some((writer, counter)) => writers
                .get(writer as usize)
                .and_then(|log| log.get(counter as usize))
                .is_some_and(|&(key, len)| key == r.key && len == r.len),
            None => false,
        };
        if !ok {
            bad += 1;
            first.get_or_insert(*r);
        }
    }
    match first {
        Some(r) => vec![format!(
            "{bad} of {} GETs returned a value never written to their key (first: {r:?})",
            reads.len()
        )],
        None => Vec::new(),
    }
}

/// Runs the linearizability checker over every recorded key. A key whose search runs
/// out of budget is reported exactly like a non-linearizable one: "undecided" must
/// never read as "passed". Returns `(problems, operations checked, seconds spent)`.
pub fn check_histories(recorder: &HistoryRecorder) -> (Vec<String>, u64, f64) {
    let started = std::time::Instant::now();
    let (failures, skipped) = recorder.check_all_within(LINCHECK_STEPS_PER_KEY);
    let secs = started.elapsed().as_secs_f64();
    let ops: u64 = recorder.keys().iter().map(|k| recorder.len(k) as u64).sum();
    let mut problems = Vec::new();
    if !failures.is_empty() {
        let names: Vec<&str> = failures.iter().take(5).map(|(k, _)| k.as_str()).collect();
        problems.push(format!(
            "{} keys are not linearizable (e.g. {names:?})",
            failures.len()
        ));
    }
    if !skipped.is_empty() {
        problems.push(format!(
            "linearizability of {} keys was not decided within {LINCHECK_STEPS_PER_KEY} steps (e.g. {:?})",
            skipped.len(),
            &skipped[..skipped.len().min(5)]
        ));
    }
    (problems, ops, secs)
}

/// Sets up `reps` times, tearing each deployment but the last down before the next is
/// built, and returns the last one with the seconds every set-up took. The first
/// repetition is timed from `process_start`, so `setup_s` covers process start too.
pub fn set_up_repeatedly<T>(
    reps: usize,
    process_start: std::time::Instant,
    mut build: impl FnMut() -> T,
    mut tear_down: impl FnMut(T),
) -> (T, Vec<f64>) {
    let mut setup_s = Vec::with_capacity(reps);
    let mut built = None;
    for rep in 0..reps.max(1) {
        if let Some(previous) = built.take() {
            tear_down(previous);
        }
        let started = if rep == 0 {
            process_start
        } else {
            std::time::Instant::now()
        };
        built = Some(build());
        setup_s.push(started.elapsed().as_secs_f64());
    }
    (built.expect("at least one set-up"), setup_s)
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_round_trip_and_values_differ_only_there() {
        let f = ValueFactory::new(1024);
        let a = f.make(1024, 1, 7);
        let b = f.make(1024, 1, 8);
        assert_eq!(a.len(), 1024);
        assert_eq!(f.read_stamp(&a), Some((1, 7)));
        assert_eq!(f.read_stamp(&b), Some((1, 8)));
        assert_eq!(a.as_bytes()[STAMP_BYTES..], b.as_bytes()[STAMP_BYTES..]);
        assert_ne!(a, b);
        // Sizes are clamped so the stamp always fits.
        assert_eq!(f.make(3, 0, 0).len(), STAMP_BYTES);
        // A corrupted filler or a truncated value has no readable stamp.
        let mut bytes = a.as_bytes().to_vec();
        *bytes.last_mut().unwrap() ^= 0xFF;
        assert_eq!(f.read_stamp(&Value::from(bytes)), None);
        assert_eq!(f.read_stamp(&Value::from(&a.as_bytes()[..8])), None);
    }

    #[test]
    fn stamp_check_accepts_written_and_initial_values_only() {
        let writers: Vec<WriteLog> = vec![vec![(3, 100), (4, 100)], vec![(3, 120)]];
        let read = |key, stamp, len| ReadObservation { key, stamp, len };
        let ok = [
            read(3, Some((0, 0)), 100),
            read(4, Some((0, 1)), 100),
            read(3, Some((1, 0)), 120),
            read(9, Some((INITIAL_WRITER, 9)), 64),
        ];
        assert!(check_stamps(&ok, &writers, |_| 64).is_empty());
        let bad = [
            read(4, Some((0, 0)), 100),             // written, but to another key
            read(3, Some((0, 5)), 100),             // counter never issued
            read(3, Some((7, 0)), 100),             // unknown writer
            read(3, Some((0, 0)), 99),              // right stamp, wrong length
            read(9, Some((INITIAL_WRITER, 8)), 64), // another key's initial value
            read(3, None, 100),                     // malformed
        ];
        for r in bad {
            let problems = check_stamps(&[r], &writers, |_| 64);
            assert_eq!(problems.len(), 1, "{r:?}");
            assert!(problems[0].starts_with("1 of 1 GETs"), "{problems:?}");
        }
    }

    #[test]
    fn history_gate_fails_on_stale_reads_and_reports_counts() {
        let rec = HistoryRecorder::new();
        rec.record_put("good", 1, 1, 0, 1);
        rec.record_get("good", 2, 1, 5, 6);
        let (problems, ops, _) = check_histories(&rec);
        assert!(problems.is_empty());
        assert_eq!(ops, 2);
        rec.record_put("bad", 1, 1, 0, 1);
        rec.record_get("bad", 2, 0, 5, 6);
        let (problems, ops, _) = check_histories(&rec);
        assert_eq!(ops, 4);
        assert_eq!(problems.len(), 1);
        assert!(
            problems[0].contains("1 keys are not linearizable"),
            "{problems:?}"
        );
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().expect("VmHWM present") > 1.0);
        }
    }
}
