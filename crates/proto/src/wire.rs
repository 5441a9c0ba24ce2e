//! Length-prefixed binary wire codec for the protocol messages.
//!
//! This is the byte-level contract of the TCP transport (see ARCHITECTURE.md,
//! "Transport"). The format is deliberately boring so it can be implemented from the spec
//! alone:
//!
//! * A **frame** on the wire is `u32` little-endian payload length followed by that many
//!   payload bytes. The length covers the payload only (not itself) and is capped at
//!   [`MAX_FRAME_BYTES`].
//! * The payload is one [`Frame`], encoded by the two rules below.
//! * A **struct** is its fields, in the order its `wire!` description lists them, with
//!   nothing in between. An **enum** is a one-byte discriminant (the number its
//!   description gives the variant) followed by that variant's fields the same way.
//! * All integers are fixed-width little-endian. Booleans are one byte (0/1). There are no
//!   floats anywhere in the message types.
//! * Byte strings and UTF-8 strings are `u32` length-prefixed. `usize` fields travel as
//!   `u64` so the format is identical across platforms.
//! * `Option<T>` is a presence byte (0/1) followed by `T` when present. `Box<T>` and
//!   `Arc<T>` are `T`.
//! * Sequences are a `u64` element count followed by the elements; maps are a `u64` entry
//!   count followed by `key, value` pairs in ascending key order. The one exception is the
//!   stats snapshot ([`MetricsSnapshot`]), whose three maps and per-histogram bucket lists
//!   carry `u32` counts.
//!
//! Decoding is **zero-copy for payloads**: every `Bytes` field (ABD values, CAS codeword
//! symbols) comes back as a [`Bytes::slice`] window into the single frame buffer, so a
//! decoded 1 MiB shard shares the frame's allocation instead of being copied out
//! (`shims/bytes` frame reuse). Everything else (keys, configurations) is small and owned.
//! Decoding never trusts the bytes: boxed values may nest at most 16 deep (a
//! `StoreError::QuorumUnreachable` chain is the only recursive shape), so a hostile frame
//! cannot exhaust the decoding thread's stack.
//!
//! The golden-fingerprint tests in `crates/proto/tests/wire_goldens.rs` pin the encoding of
//! every variant: any byte-level change is a wire-format break and must be made
//! deliberately.

use crate::msg::{ProtoMsg, ProtoReply, ReconfigPayload};
use crate::server::{ControlMsg, Inbound};
use bytes::Bytes;
use legostore_obs::{HistogramSnapshot, MetricsSnapshot};
use legostore_types::{
    ClientId, ConfigEpoch, Configuration, DcId, Key, ProtocolKind, QuorumSpec, StoreError, Tag,
    Value,
};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::sync::Arc;

/// Upper bound on a frame's payload length. Large enough for the biggest modeled object
/// (the paper's workloads top out at 10 MB values) with generous headroom; small enough
/// that a corrupt or hostile length prefix cannot trigger a huge allocation.
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// The first allocation [`Frame::read_from_counted`] makes for a payload; it doubles
/// from there only as bytes actually arrive.
const READ_CHUNK: usize = 64 * 1024;

/// Deepest chain of `Box`es a frame may carry. Legitimate frames nest at most once (a
/// client's `QuorumUnreachable` wrapping its last attempt's error); the cap bounds the
/// decoder's recursion so a hostile frame cannot overflow its stack.
const MAX_NESTING: usize = 16;

/// Errors produced while encoding to or decoding from the wire.
#[derive(Debug)]
pub enum WireError {
    /// The frame ended before the field being decoded.
    Truncated {
        /// Bytes the field needed.
        need: usize,
        /// Bytes remaining in the frame.
        have: usize,
    },
    /// An enum discriminant byte had no corresponding variant.
    UnknownTag {
        /// The type being decoded.
        what: &'static str,
        /// The offending discriminant.
        tag: u8,
    },
    /// The frame decoded cleanly but bytes were left over.
    TrailingBytes {
        /// Number of undecoded bytes at the end of the frame.
        extra: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    FrameTooLarge {
        /// The advertised payload length.
        len: usize,
    },
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// Boxed values nest more than 16 deep.
    TooDeep,
    /// The underlying socket or stream failed.
    Io(io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { need, have } => {
                write!(f, "truncated frame: field needs {need} bytes, {have} remain")
            }
            WireError::UnknownTag { what, tag } => {
                write!(f, "unknown discriminant {tag} while decoding {what}")
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after a complete frame")
            }
            WireError::FrameTooLarge { len } => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap")
            }
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::TooDeep => write!(f, "values nest deeper than {MAX_NESTING} levels"),
            WireError::Io(e) => write!(f, "wire I/O error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Result alias for wire operations.
pub type WireResult<T> = Result<T, WireError>;

/// Everything that travels on a transport connection, as one tagged union.
///
/// Requests flow client → server, replies flow server → client, controls flow
/// driver → server, `Shutdown` asks the receiving server process to exit cleanly, and
/// `StatsRequest`/`StatsReply` scrape a server's telemetry over the same connection.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A protocol request; `Inbound::from` is the reply-routing endpoint id.
    Request(Inbound),
    /// A protocol reply routed back to an endpoint.
    Reply {
        /// Endpoint (operation attempt) the reply is addressed to.
        endpoint: u64,
        /// Server data center that produced the reply.
        from: DcId,
        /// Sender-side clock reading when the reply was emitted. Clocks are not
        /// synchronized across processes, so receivers restamp on arrival; the field is
        /// carried for diagnostics only.
        sent_at_ns: u64,
        /// How long the server spent processing the request that produced this reply,
        /// in the server's clock nanoseconds. Durations (unlike instants) are
        /// meaningful across processes, so client-side spans subtract this from the
        /// observed round trip to split service time from network time.
        service_ns: u64,
        /// Echoed protocol phase.
        phase: u8,
        /// Configuration epoch the request carried (echoed back). Clients use this to
        /// discard stragglers from an epoch they have already abandoned after a
        /// reconfiguration redirect — attempt ids alone cannot distinguish "slow reply
        /// from this attempt" from "reply minted under a retired configuration".
        epoch: ConfigEpoch,
        /// Reply body.
        reply: ProtoReply,
    },
    /// An out-of-band server administration command.
    Control(ControlMsg),
    /// Asks the receiving server to shut down cleanly.
    Shutdown,
    /// Asks the receiving server for a snapshot of its telemetry; `token` is echoed in
    /// the [`Frame::StatsReply`] so concurrent scrapes can be demultiplexed.
    StatsRequest {
        /// Caller-chosen correlation token.
        token: u64,
    },
    /// A server's metrics snapshot, answering a [`Frame::StatsRequest`].
    StatsReply {
        /// Token echoed from the request.
        token: u64,
        /// Data center of the answering server.
        dc: DcId,
        /// The frozen metrics.
        snapshot: MetricsSnapshot,
    },
}

impl Frame {
    /// Encodes the frame, including its 4-byte length prefix, into a fresh buffer.
    ///
    /// The buffer is written to a socket with a single `write_all`, which keeps concurrent
    /// senders on a shared connection frame-atomic (serialize writers externally).
    pub fn encode(&self) -> Vec<u8> {
        // The first four bytes are reserved for the length prefix, backfilled below.
        let mut w = vec![0u8; 4];
        self.put(&mut w);
        let len = (w.len() - 4) as u32;
        w[..4].copy_from_slice(&len.to_le_bytes());
        w
    }

    /// Decodes one frame from its payload bytes (the length prefix already stripped).
    ///
    /// Every `Bytes` payload in the result is a zero-copy window into `payload`.
    pub fn decode(payload: Bytes) -> WireResult<Frame> {
        let mut r = Reader { frame: payload, pos: 0, depth: 0 };
        let frame = Frame::get(&mut r)?;
        match r.frame.len() - r.pos {
            0 => Ok(frame),
            extra => Err(WireError::TrailingBytes { extra }),
        }
    }

    /// Reads one length-prefixed frame from a stream.
    ///
    /// Returns `Ok(None)` on a clean end-of-stream (EOF at a frame boundary), which is how
    /// an orderly connection close appears to readers.
    pub fn read_from(stream: &mut impl Read) -> WireResult<Option<Frame>> {
        Ok(Frame::read_from_counted(stream)?.map(|(frame, _)| frame))
    }

    /// Like [`Frame::read_from`], additionally returning the frame's full size on the
    /// wire (length prefix included) — transports use it to meter bytes received
    /// without re-encoding the frame.
    pub fn read_from_counted(stream: &mut impl Read) -> WireResult<Option<(Frame, u64)>> {
        let mut len_buf = [0u8; 4];
        // A clean close may surface as EOF on the first header byte.
        match stream.read(&mut len_buf[..1]) {
            Ok(0) => return Ok(None),
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                return Frame::read_from_counted(stream);
            }
            Err(e) => return Err(WireError::Io(e)),
        }
        stream.read_exact(&mut len_buf[1..])?;
        let len = u32::from_le_bytes(len_buf) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(WireError::FrameTooLarge { len });
        }
        // Memory follows the bytes received, not the untrusted prefix: the buffer grows by
        // what has already arrived (at least `READ_CHUNK`), so a frame of up to 64 KiB is
        // one allocation and one `read_exact`, and a lying prefix pins one chunk.
        let mut payload = Vec::new();
        while payload.len() < len {
            let start = payload.len();
            let end = len.min(start + start.max(READ_CHUNK));
            payload.reserve_exact(end - start);
            payload.resize(end, 0);
            stream.read_exact(&mut payload[start..])?;
        }
        Frame::decode(Bytes::from(payload)).map(|f| Some((f, 4 + len as u64)))
    }

    /// Encodes the frame and writes it to a stream with a single `write_all`.
    pub fn write_to(&self, stream: &mut impl Write) -> io::Result<()> {
        stream.write_all(&self.encode())
    }
}

// ---------------------------------------------------------------------------
// The codec: one trait, hand impls for primitives and containers
// ---------------------------------------------------------------------------

/// A type with a wire encoding: `put` appends it, `get` reads it back.
trait Wire: Sized {
    fn put(&self, w: &mut Vec<u8>);
    fn get(r: &mut Reader) -> WireResult<Self>;
}

/// Decoding cursor over one frame's payload.
struct Reader {
    frame: Bytes,
    pos: usize,
    /// `Box`es currently being decoded (see [`MAX_NESTING`]).
    depth: usize,
}

impl Reader {
    #[inline]
    fn take(&mut self, n: usize) -> WireResult<&[u8]> {
        let have = self.frame.len() - self.pos;
        if n > have {
            return Err(WireError::Truncated { need: n, have });
        }
        let out = &self.frame[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            #[inline]
            fn put(&self, w: &mut Vec<u8>) {
                w.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn get(r: &mut Reader) -> WireResult<Self> {
                const N: usize = std::mem::size_of::<$t>();
                let mut le = [0u8; N];
                le.copy_from_slice(r.take(N)?);
                Ok(<$t>::from_le_bytes(le))
            }
        }
    )*};
}

wire_int!(u8, u16, u32, u64);

impl Wire for usize {
    #[inline]
    fn put(&self, w: &mut Vec<u8>) {
        (*self as u64).put(w);
    }
    #[inline]
    fn get(r: &mut Reader) -> WireResult<Self> {
        Ok(u64::get(r)? as usize)
    }
}

impl Wire for bool {
    #[inline]
    fn put(&self, w: &mut Vec<u8>) {
        w.push(*self as u8);
    }
    #[inline]
    fn get(r: &mut Reader) -> WireResult<Self> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::UnknownTag { what: "bool", tag }),
        }
    }
}

impl Wire for Bytes {
    #[inline]
    fn put(&self, w: &mut Vec<u8>) {
        (self.len() as u32).put(w);
        w.extend_from_slice(self);
    }
    /// Zero-copy: the returned `Bytes` is a window into the frame buffer.
    #[inline]
    fn get(r: &mut Reader) -> WireResult<Self> {
        let n = u32::get(r)? as usize;
        let start = r.pos;
        r.take(n)?;
        Ok(r.frame.slice(start..r.pos))
    }
}

impl Wire for String {
    #[inline]
    fn put(&self, w: &mut Vec<u8>) {
        (self.len() as u32).put(w);
        w.extend_from_slice(self.as_bytes());
    }
    #[inline]
    fn get(r: &mut Reader) -> WireResult<Self> {
        let n = u32::get(r)? as usize;
        String::from_utf8(r.take(n)?.to_vec()).map_err(|_| WireError::BadUtf8)
    }
}

/// The same bytes as a `String`; decoding copies the text once, into the key's shared
/// allocation.
impl Wire for Key {
    #[inline]
    fn put(&self, w: &mut Vec<u8>) {
        (self.as_str().len() as u32).put(w);
        w.extend_from_slice(self.as_str().as_bytes());
    }
    #[inline]
    fn get(r: &mut Reader) -> WireResult<Self> {
        let n = u32::get(r)? as usize;
        std::str::from_utf8(r.take(n)?).map(Key::from).map_err(|_| WireError::BadUtf8)
    }
}

impl<T: Wire> Wire for Box<T> {
    #[inline]
    fn put(&self, w: &mut Vec<u8>) {
        (**self).put(w);
    }
    /// The only recursive indirection in the message types, so the one place nesting is
    /// bounded.
    #[inline]
    fn get(r: &mut Reader) -> WireResult<Self> {
        if r.depth == MAX_NESTING {
            return Err(WireError::TooDeep);
        }
        r.depth += 1;
        let inner = T::get(r);
        r.depth -= 1;
        Ok(Box::new(inner?))
    }
}

/// `T`, as for `Box<T>`.
impl<T: Wire> Wire for Arc<T> {
    #[inline]
    fn put(&self, w: &mut Vec<u8>) {
        (**self).put(w);
    }
    #[inline]
    fn get(r: &mut Reader) -> WireResult<Self> {
        T::get(r).map(Arc::new)
    }
}

impl<T: Wire> Wire for Option<T> {
    #[inline]
    fn put(&self, w: &mut Vec<u8>) {
        self.is_some().put(w);
        if let Some(v) = self {
            v.put(w);
        }
    }
    #[inline]
    fn get(r: &mut Reader) -> WireResult<Self> {
        Ok(if bool::get(r)? { Some(T::get(r)?) } else { None })
    }
}

impl<T: Wire> Wire for Vec<T> {
    #[inline]
    fn put(&self, w: &mut Vec<u8>) {
        self.len().put(w);
        for v in self {
            v.put(w);
        }
    }
    #[inline]
    fn get(r: &mut Reader) -> WireResult<Self> {
        let n = usize::get(r)?;
        // The count is untrusted: reserve a bounded amount and let truncation end the loop.
        let mut out = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            out.push(T::get(r)?);
        }
        Ok(out)
    }
}

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    #[inline]
    fn put(&self, w: &mut Vec<u8>) {
        self.len().put(w);
        for (k, v) in self {
            k.put(w);
            v.put(w);
        }
    }
    #[inline]
    fn get(r: &mut Reader) -> WireResult<Self> {
        let mut out = BTreeMap::new();
        for _ in 0..usize::get(r)? {
            out.insert(K::get(r)?, V::get(r)?);
        }
        Ok(out)
    }
}

/// The four quorum sizes; the field is private to `legostore-types`.
impl Wire for QuorumSpec {
    #[inline]
    fn put(&self, w: &mut Vec<u8>) {
        for q in self.sizes() {
            q.put(w);
        }
    }
    #[inline]
    fn get(r: &mut Reader) -> WireResult<Self> {
        Ok(QuorumSpec::cas(usize::get(r)?, usize::get(r)?, usize::get(r)?, usize::get(r)?))
    }
}

/// Counts in `u32`, unlike every other sequence and map (see the module docs).
impl Wire for MetricsSnapshot {
    fn put(&self, w: &mut Vec<u8>) {
        for map in [&self.counters, &self.gauges] {
            (map.len() as u32).put(w);
            for (name, v) in map {
                name.put(w);
                v.put(w);
            }
        }
        (self.histograms.len() as u32).put(w);
        for (name, h) in &self.histograms {
            name.put(w);
            h.count.put(w);
            h.sum.put(w);
            (h.buckets.len() as u32).put(w);
            for (idx, n) in &h.buckets {
                idx.put(w);
                n.put(w);
            }
        }
    }
    fn get(r: &mut Reader) -> WireResult<Self> {
        let mut s = MetricsSnapshot::default();
        for map in [&mut s.counters, &mut s.gauges] {
            for _ in 0..u32::get(r)? {
                map.insert(String::get(r)?, u64::get(r)?);
            }
        }
        for _ in 0..u32::get(r)? {
            let (name, count, sum) = (String::get(r)?, u64::get(r)?, u64::get(r)?);
            let n = u32::get(r)? as usize;
            let mut buckets = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                buckets.push((u8::get(r)?, u64::get(r)?));
            }
            s.histograms.insert(name, HistogramSnapshot { count, sum, buckets });
        }
        Ok(s)
    }
}

// ---------------------------------------------------------------------------
// Message types: one field list each, driving both directions
// ---------------------------------------------------------------------------

/// Implements [`Wire`] for each described type from its field list. A struct is written
/// `struct T(a, b);` or `struct T { a, b };` and encodes its fields in the listed order;
/// an enum is written `enum E { 0 => V(a), 1 => W { b }, 2 => U {} }` and encodes the
/// variant's number as one byte, then its fields. The list doubles as the destructuring
/// pattern and the constructor, so a field missing from it does not compile.
macro_rules! wire {
    () => {};
    (struct $t:ident $fields:tt; $($rest:tt)*) => {
        impl Wire for $t {
            #[inline]
            fn put(&self, w: &mut Vec<u8>) {
                let $t $fields = self;
                wire!(@put w $fields);
            }
            #[inline]
            fn get(r: &mut Reader) -> WireResult<Self> {
                wire!(@get r $fields);
                Ok($t $fields)
            }
        }
        wire!($($rest)*);
    };
    (enum $e:ident { $($tag:literal => $v:ident $fields:tt),* $(,)? } $($rest:tt)*) => {
        impl Wire for $e {
            #[inline]
            fn put(&self, w: &mut Vec<u8>) {
                match self {
                    $($e::$v $fields => {
                        w.push($tag);
                        wire!(@put w $fields);
                    })*
                }
            }
            #[inline]
            fn get(r: &mut Reader) -> WireResult<Self> {
                Ok(match u8::get(r)? {
                    $($tag => {
                        wire!(@get r $fields);
                        $e::$v $fields
                    })*
                    tag => return Err(WireError::UnknownTag { what: stringify!($e), tag }),
                })
            }
        }
        wire!($($rest)*);
    };
    (@put $w:ident ($($f:ident),*)) => { $($f.put($w);)* };
    (@put $w:ident {$($f:ident),*}) => { $($f.put($w);)* };
    (@get $r:ident ($($f:ident),*)) => { $(let $f = Wire::get($r)?;)* };
    (@get $r:ident {$($f:ident),*}) => { $(let $f = Wire::get($r)?;)* };
}

wire! {
    struct DcId(id);
    struct ClientId(id);
    struct ConfigEpoch(e);
    struct Value(bytes);
    struct Tag { seq, client };
    struct Configuration { protocol, n, k, quorums, dcs, f, epoch, preferred_quorums };
    struct Inbound { from, msg_id, phase, key, epoch, msg };

    enum ProtocolKind { 0 => Abd {}, 1 => Cas {} }

    enum ReconfigPayload { 0 => Value(v), 1 => Shard(s) }

    enum ProtoMsg {
        0 => AbdReadQuery {},
        1 => AbdWriteQuery {},
        2 => AbdWrite { tag, value },
        3 => CasQuery {},
        4 => CasPreWrite { tag, shard },
        5 => CasFinalizeWrite { tag },
        6 => CasFinalizeRead { tag },
        7 => ReconfigQuery { new_config },
        8 => ReconfigGet { tag },
        9 => ReconfigWrite { tag, data, config },
        10 => FinishReconfig { highest_tag, new_config },
    }

    enum ProtoReply {
        0 => AbdTagValue { tag, value },
        1 => TagOnly { tag },
        2 => Ack {},
        3 => CasShard { tag, shard },
        4 => OperationFail { new_config },
        5 => Error(e),
    }

    enum StoreError {
        0 => KeyAlreadyExists(key),
        1 => KeyNotFound(key),
        2 => QuorumTimeout { needed, received },
        3 => QuorumUnreachable { attempts, last },
        4 => TooManyFailures { failed, tolerated },
        5 => StaleConfiguration { observed, current },
        6 => OperationFailedByReconfig { new_epoch },
        7 => InvalidConfiguration(msg),
        8 => DecodeFailed { have, need },
        9 => NotAHost { dc, key },
        10 => MetadataUnavailable(key),
        11 => Transport(msg),
        12 => Internal(msg),
        13 => ReconfigStalled { epoch, round },
    }

    enum ControlMsg {
        0 => InstallKey { key, config, tag, payload },
        1 => RemoveKey(key),
        2 => SetFailed(failed),
        3 => GarbageCollect(keep),
    }

    enum Frame {
        1 => Request(inbound),
        2 => Reply { endpoint, from, sent_at_ns, service_ns, phase, epoch, reply },
        3 => Control(ctrl),
        4 => Shutdown {},
        5 => StatsRequest { token },
        6 => StatsReply { token, dc, snapshot },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) -> Frame {
        let encoded = frame.encode();
        let len = u32::from_le_bytes(encoded[..4].try_into().unwrap()) as usize;
        assert_eq!(len, encoded.len() - 4, "length prefix covers the payload exactly");
        let decoded = Frame::decode(Bytes::from(encoded[4..].to_vec())).expect("decodes");
        assert_eq!(decoded, frame);
        decoded
    }

    fn sample_config() -> Configuration {
        let mut c = Configuration::cas_default(
            vec![DcId(0), DcId(3), DcId(5), DcId(7), DcId(8)],
            3,
            1,
        );
        c.epoch = ConfigEpoch(9);
        Arc::make_mut(&mut c.preferred_quorums)
            .insert(DcId(0), vec![vec![DcId(0), DcId(3), DcId(5)], vec![DcId(0)]]);
        c
    }

    #[test]
    fn request_roundtrip_preserves_every_field() {
        roundtrip(Frame::Request(Inbound {
            from: 0xDEAD_BEEF_0000_0001,
            msg_id: 7,
            phase: 3,
            key: Key::from("user:42"),
            epoch: ConfigEpoch(2),
            msg: ProtoMsg::AbdWrite {
                tag: Tag::new(11, ClientId(4)),
                value: Value::from("hello"),
            },
        }));
    }

    #[test]
    fn reply_roundtrip_with_nested_error() {
        roundtrip(Frame::Reply {
            endpoint: 99,
            from: DcId(6),
            sent_at_ns: 123_456_789,
            service_ns: 42_000,
            phase: 2,
            epoch: ConfigEpoch(7),
            reply: ProtoReply::Error(StoreError::QuorumUnreachable {
                attempts: 4,
                last: Box::new(StoreError::QuorumTimeout { needed: 3, received: 1 }),
            }),
        });
    }

    #[test]
    fn control_and_shutdown_roundtrip() {
        roundtrip(Frame::Control(ControlMsg::InstallKey {
            key: Key::from("k"),
            config: sample_config(),
            tag: Tag::INITIAL,
            payload: ReconfigPayload::Shard(Bytes::from(vec![9u8; 33])),
        }));
        roundtrip(Frame::Control(ControlMsg::SetFailed(true)));
        roundtrip(Frame::Control(ControlMsg::GarbageCollect(5)));
        roundtrip(Frame::Shutdown);
    }

    #[test]
    fn decoded_payloads_are_zero_copy_windows_into_the_frame() {
        let shard = Bytes::from(vec![0xABu8; 4096]);
        let frame = Frame::Request(Inbound {
            from: 1,
            msg_id: 2,
            phase: 1,
            key: Key::from("z"),
            epoch: ConfigEpoch(0),
            msg: ProtoMsg::CasPreWrite { tag: Tag::INITIAL, shard },
        });
        let encoded = frame.encode();
        let payload = Bytes::from(encoded[4..].to_vec());
        let payload_range = payload.as_ptr() as usize..payload.as_ptr() as usize + payload.len();
        let Frame::Request(inbound) = Frame::decode(payload.clone()).unwrap() else {
            panic!()
        };
        let ProtoMsg::CasPreWrite { shard, .. } = inbound.msg else { panic!() };
        let p = shard.as_ptr() as usize;
        assert!(
            payload_range.contains(&p) && payload_range.contains(&(p + shard.len() - 1)),
            "decoded shard must alias the frame buffer, not copy out of it"
        );
    }

    #[test]
    fn zero_length_and_empty_payloads_roundtrip() {
        roundtrip(Frame::Request(Inbound {
            from: 0,
            msg_id: 0,
            phase: 0,
            key: Key::from(""),
            epoch: ConfigEpoch(0),
            msg: ProtoMsg::AbdWrite { tag: Tag::INITIAL, value: Value::empty() },
        }));
        roundtrip(Frame::Reply {
            endpoint: 0,
            from: DcId(0),
            sent_at_ns: 0,
            service_ns: 0,
            phase: 0,
            epoch: ConfigEpoch(0),
            reply: ProtoReply::CasShard { tag: Tag::INITIAL, shard: Some(Bytes::new()) },
        });
    }

    #[test]
    fn stats_frames_roundtrip() {
        roundtrip(Frame::StatsRequest { token: 0xFEED_F00D });
        roundtrip(Frame::StatsReply {
            token: 7,
            dc: DcId(4),
            snapshot: MetricsSnapshot::default(),
        });
        let mut snapshot = MetricsSnapshot::default();
        snapshot.counters.insert("server.requests".into(), 12);
        snapshot.counters.insert("server.replies".into(), 12);
        snapshot.gauges.insert("server.keys".into(), 3);
        snapshot.histograms.insert(
            "server.dispatch_ns.phase1".into(),
            HistogramSnapshot { count: 5, sum: 1_234, buckets: vec![(7, 3), (8, 2)] },
        );
        roundtrip(Frame::StatsReply { token: u64::MAX, dc: DcId(8), snapshot });
    }

    #[test]
    fn stream_read_write_and_clean_eof() {
        let frames = vec![
            Frame::Request(Inbound {
                from: 5,
                msg_id: 6,
                phase: 1,
                key: Key::from("s"),
                epoch: ConfigEpoch(1),
                msg: ProtoMsg::CasQuery,
            }),
            Frame::Shutdown,
        ];
        let mut wire = Vec::new();
        for f in &frames {
            f.write_to(&mut wire).unwrap();
        }
        let mut cursor = io::Cursor::new(wire);
        for f in &frames {
            assert_eq!(&Frame::read_from(&mut cursor).unwrap().unwrap(), f);
        }
        assert!(Frame::read_from(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn corrupt_input_is_rejected_not_trusted() {
        // Unknown frame kind.
        let err = Frame::decode(Bytes::from(vec![0xFFu8])).unwrap_err();
        assert!(matches!(err, WireError::UnknownTag { what: "Frame", .. }), "{err}");
        // Truncated field (kind 2 is a reply).
        let err = Frame::decode(Bytes::from(vec![2u8, 1, 2])).unwrap_err();
        assert!(matches!(err, WireError::Truncated { .. }), "{err}");
        // Trailing garbage after a complete frame.
        let mut shutdown = Frame::Shutdown.encode()[4..].to_vec();
        shutdown.push(0);
        let err = Frame::decode(Bytes::from(shutdown)).unwrap_err();
        assert!(matches!(err, WireError::TrailingBytes { extra: 1 }), "{err}");
        // A hostile length prefix larger than the cap is rejected before allocating.
        let mut stream = io::Cursor::new(u32::MAX.to_le_bytes().to_vec());
        let err = Frame::read_from(&mut stream).unwrap_err();
        assert!(matches!(err, WireError::FrameTooLarge { .. }), "{err}");
        // Truncated stream mid-frame is an I/O error, not a hang or a panic.
        let mut stream = io::Cursor::new(vec![10u8, 0, 0, 0, 1, 2]);
        let err = Frame::read_from(&mut stream).unwrap_err();
        assert!(matches!(err, WireError::Io(_)), "{err}");
    }

    /// A lying length prefix pins memory for the bytes that arrived, not for the prefix:
    /// a `MAX_FRAME_BYTES` prefix followed by 10 bytes and EOF fails as a short read
    /// without the reader ever being asked to fill more than one 64 KiB chunk.
    #[test]
    fn lying_length_prefix_allocates_by_bytes_received() {
        struct Recording {
            inner: io::Cursor<Vec<u8>>,
            largest: usize,
        }
        impl Read for Recording {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.largest = self.largest.max(buf.len());
                self.inner.read(buf)
            }
        }
        let mut bytes = (MAX_FRAME_BYTES as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[7; 10]);
        let mut stream = Recording { inner: io::Cursor::new(bytes), largest: 0 };
        let err = Frame::read_from_counted(&mut stream).unwrap_err();
        assert!(
            matches!(&err, WireError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof),
            "{err}"
        );
        assert!(stream.largest <= 64 * 1024, "asked to fill {} bytes", stream.largest);
    }

    /// The payload of a zeroed reply frame whose body is `depth` nested
    /// `QuorumUnreachable`s around a `QuorumTimeout`, built byte by byte: a value nested
    /// that deep cannot be built, encoded or dropped without recursing as deep itself.
    fn nested_error_reply(depth: usize) -> Bytes {
        let mut p = vec![2u8]; // kind: Reply
        p.extend_from_slice(&[0; 8 + 2 + 8 + 8 + 1 + 8]); // endpoint .. epoch
        p.push(5); // ProtoReply::Error
        for _ in 0..depth {
            p.push(3); // QuorumUnreachable
            p.extend_from_slice(&4u32.to_le_bytes()); // attempts
        }
        p.push(2); // QuorumTimeout
        p.extend_from_slice(&[0; 16]);
        Bytes::from(p)
    }

    #[test]
    fn hostile_nesting_is_rejected_without_exhausting_the_stack() {
        let mut expected = StoreError::QuorumTimeout { needed: 0, received: 0 };
        for _ in 0..MAX_NESTING {
            expected = StoreError::QuorumUnreachable { attempts: 4, last: Box::new(expected) };
        }
        let expected = Frame::Reply {
            endpoint: 0,
            from: DcId(0),
            sent_at_ns: 0,
            service_ns: 0,
            phase: 0,
            epoch: ConfigEpoch(0),
            reply: ProtoReply::Error(expected),
        };
        assert_eq!(nested_error_reply(MAX_NESTING), expected.encode()[4..]);
        // A spawned thread has the default stack a server connection thread gets.
        std::thread::spawn(move || {
            assert_eq!(Frame::decode(nested_error_reply(MAX_NESTING)).unwrap(), expected);
            for depth in [20_000, MAX_NESTING + 1] {
                let err = Frame::decode(nested_error_reply(depth)).unwrap_err();
                assert!(matches!(err, WireError::TooDeep), "depth {depth}: {err}");
            }
        })
        .join()
        .expect("decoding stays within the thread's stack");
    }
}
