//! Wire-format pinning tests.
//!
//! Two layers of protection for the TCP wire format, mirroring the erasure codec's golden
//! fingerprints:
//!
//! 1. **Golden FNV-1a fingerprints** over the encoded bytes of a catalog covering every
//!    `ProtoMsg`, `ProtoReply`, `ControlMsg` and `StoreError` variant (plus zero-length and
//!    frame-cap-sized `Bytes` payloads). Any byte-level change to the encoding fails here
//!    and must be made deliberately — it is a wire-format break between mixed-version
//!    processes.
//! 2. **Seeded round-trip property tests**: pseudo-random frames drawn from the full
//!    message space must decode back to exactly the value that was encoded.
//! 3. **No-panic property tests**: mutated catalog frames and arbitrary byte strings are
//!    decoded or rejected with a `WireError`, never a panic.

use bytes::Bytes;
use legostore_proto::msg::{ProtoMsg, ProtoReply, ReconfigPayload};
use legostore_proto::server::{ControlMsg, Inbound};
use legostore_proto::wire::{Frame, WireError, MAX_FRAME_BYTES};
use legostore_obs::{HistogramSnapshot, MetricsSnapshot};
use legostore_types::{
    ClientId, ConfigEpoch, Configuration, DcId, Key, StoreError, Tag, Value,
};
use proptest::prelude::*;
use std::sync::Arc;

/// FNV-1a 64 over the full encoded frame (length prefix included), pinned here so the
/// goldens never move with any other crate's hash.
fn fingerprint(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn filler(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 31 + 7) % 256) as u8).collect()
}

fn sample_config() -> Configuration {
    let mut c = Configuration::cas_default(vec![DcId(0), DcId(3), DcId(5), DcId(7), DcId(8)], 3, 1);
    c.epoch = ConfigEpoch(9);
    let preferred = Arc::make_mut(&mut c.preferred_quorums);
    preferred.insert(DcId(0), vec![vec![DcId(0), DcId(3), DcId(5)], vec![DcId(0), DcId(7)]]);
    preferred.insert(DcId(7), vec![vec![DcId(7), DcId(8), DcId(0)]]);
    c
}

fn abd_config() -> Configuration {
    let mut c = Configuration::abd_majority(vec![DcId(1), DcId(2), DcId(4)], 1);
    c.epoch = ConfigEpoch(3);
    c
}

fn request(msg: ProtoMsg) -> Frame {
    Frame::Request(Inbound {
        from: 0x1122_3344_5566_7788,
        msg_id: 42,
        phase: 2,
        key: Key::from("user:42"),
        epoch: ConfigEpoch(7),
        msg,
    })
}

fn reply(body: ProtoReply) -> Frame {
    Frame::Reply {
        endpoint: 0x8877_6655_4433_2211,
        from: DcId(5),
        sent_at_ns: 987_654_321,
        service_ns: 55_000,
        phase: 3,
        epoch: ConfigEpoch(7),
        reply: body,
    }
}

fn sample_snapshot() -> MetricsSnapshot {
    let mut s = MetricsSnapshot::default();
    s.counters.insert("server.requests".into(), 12);
    s.counters.insert("server.replies".into(), 12);
    s.gauges.insert("server.keys".into(), 3);
    s.histograms.insert(
        "server.dispatch_ns.phase1".into(),
        HistogramSnapshot { count: 5, sum: 1_234, buckets: vec![(7, 3), (8, 2)] },
    );
    s
}

/// One frame per variant of every wire enum, with fixed field values. Order matters: the
/// golden table below is index-aligned with this catalog.
fn catalog() -> Vec<(&'static str, Frame)> {
    let tag = Tag::new(11, ClientId(4));
    vec![
        ("req/AbdReadQuery", request(ProtoMsg::AbdReadQuery)),
        ("req/AbdWriteQuery", request(ProtoMsg::AbdWriteQuery)),
        (
            "req/AbdWrite",
            request(ProtoMsg::AbdWrite { tag, value: Value::new(filler(317)) }),
        ),
        ("req/AbdWrite/empty", request(ProtoMsg::AbdWrite { tag, value: Value::empty() })),
        ("req/CasQuery", request(ProtoMsg::CasQuery)),
        (
            "req/CasPreWrite",
            request(ProtoMsg::CasPreWrite { tag, shard: Bytes::from(filler(129)) }),
        ),
        (
            "req/CasPreWrite/empty",
            request(ProtoMsg::CasPreWrite { tag, shard: Bytes::new() }),
        ),
        ("req/CasFinalizeWrite", request(ProtoMsg::CasFinalizeWrite { tag })),
        ("req/CasFinalizeRead", request(ProtoMsg::CasFinalizeRead { tag })),
        (
            "req/ReconfigQuery",
            request(ProtoMsg::ReconfigQuery { new_config: Box::new(sample_config()) }),
        ),
        ("req/ReconfigGet", request(ProtoMsg::ReconfigGet { tag })),
        (
            "req/ReconfigWrite/value",
            request(ProtoMsg::ReconfigWrite {
                tag,
                data: ReconfigPayload::Value(Value::new(filler(64))),
                config: Box::new(abd_config()),
            }),
        ),
        (
            "req/ReconfigWrite/shard",
            request(ProtoMsg::ReconfigWrite {
                tag,
                data: ReconfigPayload::Shard(Bytes::from(filler(48))),
                config: Box::new(sample_config()),
            }),
        ),
        (
            "req/FinishReconfig",
            request(ProtoMsg::FinishReconfig {
                highest_tag: tag,
                new_config: Box::new(sample_config()),
            }),
        ),
        (
            "rep/AbdTagValue",
            reply(ProtoReply::AbdTagValue { tag, value: Value::new(filler(317)) }),
        ),
        ("rep/TagOnly", reply(ProtoReply::TagOnly { tag })),
        ("rep/Ack", reply(ProtoReply::Ack)),
        (
            "rep/CasShard/some",
            reply(ProtoReply::CasShard { tag, shard: Some(Bytes::from(filler(129))) }),
        ),
        (
            "rep/CasShard/empty",
            reply(ProtoReply::CasShard { tag, shard: Some(Bytes::new()) }),
        ),
        ("rep/CasShard/none", reply(ProtoReply::CasShard { tag, shard: None })),
        (
            "rep/OperationFail",
            reply(ProtoReply::OperationFail { new_config: Box::new(sample_config()) }),
        ),
        (
            "rep/Error/KeyAlreadyExists",
            reply(ProtoReply::Error(StoreError::KeyAlreadyExists(Key::from("k")))),
        ),
        (
            "rep/Error/KeyNotFound",
            reply(ProtoReply::Error(StoreError::KeyNotFound(Key::from("k")))),
        ),
        (
            "rep/Error/QuorumTimeout",
            reply(ProtoReply::Error(StoreError::QuorumTimeout { needed: 3, received: 1 })),
        ),
        (
            "rep/Error/QuorumUnreachable",
            reply(ProtoReply::Error(StoreError::QuorumUnreachable {
                attempts: 4,
                last: Box::new(StoreError::QuorumTimeout { needed: 2, received: 0 }),
            })),
        ),
        (
            "rep/Error/TooManyFailures",
            reply(ProtoReply::Error(StoreError::TooManyFailures { failed: 2, tolerated: 1 })),
        ),
        (
            "rep/Error/StaleConfiguration",
            reply(ProtoReply::Error(StoreError::StaleConfiguration {
                observed: ConfigEpoch(1),
                current: ConfigEpoch(2),
            })),
        ),
        (
            "rep/Error/OperationFailedByReconfig",
            reply(ProtoReply::Error(StoreError::OperationFailedByReconfig {
                new_epoch: ConfigEpoch(5),
            })),
        ),
        (
            "rep/Error/InvalidConfiguration",
            reply(ProtoReply::Error(StoreError::InvalidConfiguration("bad".into()))),
        ),
        (
            "rep/Error/DecodeFailed",
            reply(ProtoReply::Error(StoreError::DecodeFailed { have: 1, need: 3 })),
        ),
        (
            "rep/Error/NotAHost",
            reply(ProtoReply::Error(StoreError::NotAHost { dc: DcId(6), key: Key::from("k") })),
        ),
        (
            "rep/Error/MetadataUnavailable",
            reply(ProtoReply::Error(StoreError::MetadataUnavailable(Key::from("k")))),
        ),
        (
            "rep/Error/Transport",
            reply(ProtoReply::Error(StoreError::Transport("conn reset".into()))),
        ),
        (
            "rep/Error/ReconfigStalled",
            reply(ProtoReply::Error(StoreError::ReconfigStalled {
                epoch: ConfigEpoch(6),
                round: 2,
            })),
        ),
        ("rep/Error/Internal", reply(ProtoReply::Error(StoreError::Internal("bug".into())))),
        (
            "ctl/InstallKey",
            Frame::Control(ControlMsg::InstallKey {
                key: Key::from("user:42"),
                config: sample_config(),
                tag: Tag::INITIAL,
                payload: ReconfigPayload::Shard(Bytes::from(filler(33))),
            }),
        ),
        ("ctl/RemoveKey", Frame::Control(ControlMsg::RemoveKey(Key::from("user:42")))),
        ("ctl/SetFailed", Frame::Control(ControlMsg::SetFailed(true))),
        ("ctl/GarbageCollect", Frame::Control(ControlMsg::GarbageCollect(2))),
        ("shutdown", Frame::Shutdown),
        ("stats/Request", Frame::StatsRequest { token: 0x0123_4567_89AB_CDEF }),
        (
            "stats/Reply/empty",
            Frame::StatsReply { token: 1, dc: DcId(2), snapshot: MetricsSnapshot::default() },
        ),
        (
            "stats/Reply/populated",
            Frame::StatsReply { token: 2, dc: DcId(8), snapshot: sample_snapshot() },
        ),
    ]
}

/// Golden fingerprints, index-aligned with [`catalog`]. Recorded from the first
/// implementation of the codec and regenerated (a deliberate wire-format break) when
/// replies gained `service_ns`, when the stats-scrape frames were added, and when
/// replies gained the `epoch` stamp / `ReconfigQuery` grew a full configuration for the
/// epoch-lease failover; a mismatch means the wire format changed.
#[rustfmt::skip]
const GOLDEN: &[u64] = &[
    0xf74c910f7cbfc6f7, // req/AbdReadQuery
    0xf74c900f7cbfc544, // req/AbdWriteQuery
    0x1e3298567a3aa953, // req/AbdWrite
    0x4d8d7c4494eb1562, // req/AbdWrite/empty
    0xf74c920f7cbfc8aa, // req/CasQuery
    0x160b85f428cafd5d, // req/CasPreWrite
    0x305fc59a12ffbeb4, // req/CasPreWrite/empty
    0xc5f4635b9fd6a453, // req/CasFinalizeWrite
    0xdf79a58f7c5cbc4a, // req/CasFinalizeRead
    0x56ae640a40f53f8a, // req/ReconfigQuery
    0xd5eb723faec2dc84, // req/ReconfigGet
    0x3ef02130a0f04fdf, // req/ReconfigWrite/value
    0xf822cadd652110fb, // req/ReconfigWrite/shard
    0xb7063d0110ee92ea, // req/FinishReconfig
    0x8a639c4e85609fa0, // rep/AbdTagValue
    0x006ff4757743c9c6, // rep/TagOnly
    0xbb63134d70339964, // rep/Ack
    0x0a9e29f9cd1dc841, // rep/CasShard/some
    0x991aa95626ab322c, // rep/CasShard/empty
    0x5d3c33ee7cc30f8b, // rep/CasShard/none
    0x484a22069327e15a, // rep/OperationFail
    0x9039e2bc07815109, // rep/Error/KeyAlreadyExists
    0xcd00cede142d9714, // rep/Error/KeyNotFound
    0x6d6d99202c79985c, // rep/Error/QuorumTimeout
    0x72374b7b328b1460, // rep/Error/QuorumUnreachable
    0x360bf07b5547e247, // rep/Error/TooManyFailures
    0x3af89e006812f194, // rep/Error/StaleConfiguration
    0x4fcede4b5c8628d7, // rep/Error/OperationFailedByReconfig
    0x7a50a542c5bc379c, // rep/Error/InvalidConfiguration
    0x34f6ab0e28103ca2, // rep/Error/DecodeFailed
    0xea1917b5065024b4, // rep/Error/NotAHost
    0xbbc077ed9b2c5c53, // rep/Error/MetadataUnavailable
    0xbd6bfd5f7e33b1a4, // rep/Error/Transport
    0x328182e11b914d96, // rep/Error/ReconfigStalled
    0x5a092bd911eb701e, // rep/Error/Internal
    0xa7d92f4b2918d366, // ctl/InstallKey
    0xd62b7f6cf3295d78, // ctl/RemoveKey
    0x342d4d9f036d76d2, // ctl/SetFailed
    0x4aa78613ba8593f7, // ctl/GarbageCollect
    0xd80d68aea7dc7820, // shutdown
    0x63f811af8e753eeb, // stats/Request
    0x405d125d272b9f07, // stats/Reply/empty
    0x20c02002d0444a18, // stats/Reply/populated
];

#[test]
fn golden_frame_fingerprints_unchanged() {
    let catalog = catalog();
    if std::env::var("LEGOSTORE_PRINT_GOLDENS").is_ok() {
        for (name, frame) in &catalog {
            println!("0x{:016x}, // {name}", fingerprint(&frame.encode()));
        }
        return;
    }
    assert_eq!(GOLDEN.len(), catalog.len(), "golden table out of sync with catalog");
    for (i, (name, frame)) in catalog.iter().enumerate() {
        assert_eq!(
            fingerprint(&frame.encode()),
            GOLDEN[i],
            "wire fingerprint changed for {name} — this is a wire-format break"
        );
    }
}

#[test]
fn every_catalog_frame_roundtrips() {
    for (name, frame) in catalog() {
        let encoded = frame.encode();
        let payload = Bytes::from(encoded[4..].to_vec());
        let decoded = Frame::decode(payload).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(decoded, frame, "{name}");
    }
}

#[test]
fn largest_admissible_frame_roundtrips_and_oversized_is_rejected() {
    // The biggest payload an AbdWrite request can carry while the whole frame stays at the
    // cap: everything except the value bytes is fixed-size overhead for this message.
    let empty = request(ProtoMsg::AbdWrite { tag: Tag::INITIAL, value: Value::empty() });
    let overhead = empty.encode().len() - 4;
    let max_value = MAX_FRAME_BYTES - overhead;
    let frame = request(ProtoMsg::AbdWrite {
        tag: Tag::INITIAL,
        value: Value::new(vec![0xABu8; max_value]),
    });
    let encoded = frame.encode();
    assert_eq!(encoded.len() - 4, MAX_FRAME_BYTES, "frame sits exactly at the cap");
    let mut cursor = std::io::Cursor::new(encoded);
    let decoded = Frame::read_from(&mut cursor).unwrap().unwrap();
    assert_eq!(decoded, frame);

    // One byte more and the stream reader rejects the length prefix before allocating.
    let over = request(ProtoMsg::AbdWrite {
        tag: Tag::INITIAL,
        value: Value::new(vec![0xABu8; max_value + 1]),
    });
    let mut cursor = std::io::Cursor::new(over.encode());
    let err = Frame::read_from(&mut cursor).unwrap_err();
    assert!(matches!(err, WireError::FrameTooLarge { .. }), "{err}");
}

// ---------------------------------------------------------------------------
// Seeded round-trip property tests
// ---------------------------------------------------------------------------

/// SplitMix64: deterministic pseudo-random stream from one seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn bytes(&mut self, max_len: u64) -> Bytes {
        let len = self.below(max_len + 1) as usize;
        Bytes::from((0..len).map(|_| self.next() as u8).collect::<Vec<u8>>())
    }

    fn string(&mut self, max_len: u64) -> String {
        let len = self.below(max_len + 1) as usize;
        (0..len).map(|_| char::from(b'a' + (self.next() % 26) as u8)).collect()
    }

    fn tag(&mut self) -> Tag {
        Tag::new(self.next(), ClientId(self.next() as u32))
    }

    fn config(&mut self) -> Configuration {
        let n = 3 + self.below(5) as usize;
        let dcs: Vec<DcId> = (0..n).map(|i| DcId(i as u16 * 2)).collect();
        let mut c = if self.below(2) == 0 {
            Configuration::abd_majority(dcs, 1)
        } else {
            let k = 1 + self.below(n as u64 - 2) as usize;
            Configuration::cas_default(dcs, k, 1)
        };
        c.epoch = ConfigEpoch(self.below(1000));
        c
    }

    fn error(&mut self, depth: u32) -> StoreError {
        match self.below(if depth == 0 { 13 } else { 14 }) {
            0 => StoreError::KeyAlreadyExists(Key::new(self.string(12))),
            1 => StoreError::KeyNotFound(Key::new(self.string(12))),
            2 => StoreError::QuorumTimeout {
                needed: self.below(10) as usize,
                received: self.below(10) as usize,
            },
            3 => StoreError::TooManyFailures {
                failed: self.below(10) as usize,
                tolerated: self.below(10) as usize,
            },
            4 => StoreError::StaleConfiguration {
                observed: ConfigEpoch(self.next()),
                current: ConfigEpoch(self.next()),
            },
            5 => StoreError::OperationFailedByReconfig { new_epoch: ConfigEpoch(self.next()) },
            6 => StoreError::InvalidConfiguration(self.string(20)),
            7 => StoreError::DecodeFailed {
                have: self.below(10) as usize,
                need: self.below(10) as usize,
            },
            8 => StoreError::NotAHost { dc: DcId(self.next() as u16), key: Key::new(self.string(8)) },
            9 => StoreError::MetadataUnavailable(Key::new(self.string(8))),
            10 => StoreError::Transport(self.string(20)),
            11 => StoreError::Internal(self.string(20)),
            12 => StoreError::ReconfigStalled {
                epoch: ConfigEpoch(self.next()),
                round: self.next() as u8,
            },
            _ => StoreError::QuorumUnreachable {
                attempts: self.next() as u32,
                last: Box::new(self.error(depth - 1)),
            },
        }
    }

    fn msg(&mut self) -> ProtoMsg {
        match self.below(11) {
            0 => ProtoMsg::AbdReadQuery,
            1 => ProtoMsg::AbdWriteQuery,
            2 => ProtoMsg::AbdWrite { tag: self.tag(), value: Value::new(self.bytes(2048)) },
            3 => ProtoMsg::CasQuery,
            4 => ProtoMsg::CasPreWrite { tag: self.tag(), shard: self.bytes(2048) },
            5 => ProtoMsg::CasFinalizeWrite { tag: self.tag() },
            6 => ProtoMsg::CasFinalizeRead { tag: self.tag() },
            7 => ProtoMsg::ReconfigQuery { new_config: Box::new(self.config()) },
            8 => ProtoMsg::ReconfigGet { tag: self.tag() },
            9 => {
                let data = if self.below(2) == 0 {
                    ReconfigPayload::Value(Value::new(self.bytes(512)))
                } else {
                    ReconfigPayload::Shard(self.bytes(512))
                };
                ProtoMsg::ReconfigWrite { tag: self.tag(), data, config: Box::new(self.config()) }
            }
            _ => ProtoMsg::FinishReconfig {
                highest_tag: self.tag(),
                new_config: Box::new(self.config()),
            },
        }
    }

    fn reply(&mut self) -> ProtoReply {
        match self.below(6) {
            0 => ProtoReply::AbdTagValue { tag: self.tag(), value: Value::new(self.bytes(2048)) },
            1 => ProtoReply::TagOnly { tag: self.tag() },
            2 => ProtoReply::Ack,
            3 => {
                let tag = self.tag();
                let shard = (self.below(2) == 0).then(|| self.bytes(2048));
                ProtoReply::CasShard { tag, shard }
            }
            4 => ProtoReply::OperationFail { new_config: Box::new(self.config()) },
            _ => ProtoReply::Error(self.error(2)),
        }
    }

    fn control(&mut self) -> ControlMsg {
        match self.below(4) {
            0 => {
                let payload = if self.below(2) == 0 {
                    ReconfigPayload::Value(Value::new(self.bytes(512)))
                } else {
                    ReconfigPayload::Shard(self.bytes(512))
                };
                ControlMsg::InstallKey {
                    key: Key::new(self.string(16)),
                    config: self.config(),
                    tag: self.tag(),
                    payload,
                }
            }
            1 => ControlMsg::RemoveKey(Key::new(self.string(16))),
            2 => ControlMsg::SetFailed(self.below(2) == 0),
            _ => ControlMsg::GarbageCollect(self.below(100) as usize),
        }
    }

    fn frame(&mut self) -> Frame {
        match self.below(6) {
            0 => Frame::Request(Inbound {
                from: self.next(),
                msg_id: self.next(),
                phase: self.next() as u8,
                key: Key::new(self.string(16)),
                epoch: ConfigEpoch(self.below(1000)),
                msg: self.msg(),
            }),
            1 => Frame::Reply {
                endpoint: self.next(),
                from: DcId(self.next() as u16),
                sent_at_ns: self.next(),
                service_ns: self.next(),
                phase: self.next() as u8,
                epoch: ConfigEpoch(self.below(1000)),
                reply: self.reply(),
            },
            2 => Frame::Control(self.control()),
            3 => Frame::StatsRequest { token: self.next() },
            4 => Frame::StatsReply {
                token: self.next(),
                dc: DcId(self.next() as u16),
                snapshot: self.snapshot(),
            },
            _ => Frame::Shutdown,
        }
    }

    fn snapshot(&mut self) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::default();
        for _ in 0..self.below(4) {
            s.counters.insert(self.string(12), self.next());
        }
        for _ in 0..self.below(3) {
            s.gauges.insert(self.string(12), self.next());
        }
        for _ in 0..self.below(3) {
            let buckets = (0..self.below(5)).map(|_| ((self.next() % 64) as u8, self.next())).collect();
            s.histograms.insert(
                self.string(12),
                HistogramSnapshot { count: self.next(), sum: self.next(), buckets },
            );
        }
        s
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary frames drawn from the full message space round-trip exactly, both through
    /// `decode` and through the stream reader.
    #[test]
    fn arbitrary_frames_roundtrip(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let mut wire = Vec::new();
        let frames: Vec<Frame> = (0..8).map(|_| rng.frame()).collect();
        for frame in &frames {
            let encoded = frame.encode();
            let decoded = Frame::decode(Bytes::from(encoded[4..].to_vec())).unwrap();
            prop_assert_eq!(&decoded, frame);
            wire.extend_from_slice(&encoded);
        }
        // The same frames back-to-back on one stream (as a socket delivers them).
        let mut cursor = std::io::Cursor::new(wire);
        for frame in &frames {
            let decoded = Frame::read_from(&mut cursor).unwrap().unwrap();
            prop_assert_eq!(&decoded, frame);
        }
        prop_assert!(Frame::read_from(&mut cursor).unwrap().is_none());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every catalog frame, truncated at every offset, with random bytes flipped, or with
    /// a random suffix, is decoded or rejected — never a panic — both through `decode`
    /// and through the stream reader.
    #[test]
    fn mutated_frames_never_panic(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        for (_, frame) in catalog() {
            let encoded = frame.encode();
            let mut mutants: Vec<Vec<u8>> =
                (0..encoded.len()).map(|n| encoded[..n].to_vec()).collect();
            for _ in 0..8 {
                let mut flipped = encoded.clone();
                for _ in 0..=rng.below(3) {
                    let i = rng.below(flipped.len() as u64) as usize;
                    flipped[i] ^= 1 + rng.below(255) as u8;
                }
                mutants.push(flipped);
            }
            let mut suffixed = encoded.clone();
            suffixed.extend_from_slice(&rng.bytes(64));
            mutants.push(suffixed);
            for bytes in mutants {
                let _ = Frame::decode(Bytes::from(bytes[bytes.len().min(4)..].to_vec()));
                let _ = Frame::read_from(&mut std::io::Cursor::new(bytes));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random byte strings of 0–2 KiB are decoded or rejected — never a panic — through
    /// `decode`, and through the stream reader both bare (the first four bytes read as a
    /// length prefix) and behind a length prefix that matches them. Every other string
    /// starts with a valid frame tag, so decoding gets past the first byte.
    #[test]
    fn arbitrary_bytes_never_panic(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        for tagged in [false, true] {
            let mut bytes = rng.bytes(2048).to_vec();
            if tagged && !bytes.is_empty() {
                bytes[0] = 1 + rng.below(6) as u8;
            }
            let _ = Frame::decode(Bytes::from(bytes.clone()));
            let _ = Frame::read_from(&mut std::io::Cursor::new(bytes.clone()));
            let mut prefixed = (bytes.len() as u32).to_le_bytes().to_vec();
            prefixed.extend_from_slice(&bytes);
            let _ = Frame::read_from(&mut std::io::Cursor::new(prefixed));
        }
    }
}
