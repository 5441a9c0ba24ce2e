//! Wire messages exchanged between clients, servers and the reconfiguration controller.
//!
//! Every request/reply also knows how many bytes it would occupy on the wire
//! ([`ProtoMsg::wire_size`] / [`ProtoReply::wire_size`]); the simulator uses this to meter
//! network cost exactly as the paper's cost model does (metadata-only messages count
//! `o_m` bytes, value-carrying messages additionally count the value or codeword-symbol
//! size).

use bytes::Bytes;
use legostore_types::{ConfigEpoch, Configuration, DcId, Key, StoreError, Tag, Value};

/// A request sent to a server, addressed to one key and one configuration epoch.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtoMsg {
    // ---- ABD ----
    /// ABD GET phase 1: ask for the locally stored `(tag, value)`.
    AbdReadQuery,
    /// ABD PUT phase 1: ask for the locally stored tag only.
    AbdWriteQuery,
    /// ABD PUT phase 2 (write-value) or GET phase 2 (read-writeback).
    AbdWrite {
        /// Tag of the propagated version.
        tag: Tag,
        /// Full value (ABD always ships whole values).
        value: Value,
    },

    // ---- CAS ----
    /// CAS phase 1 (both GET and PUT): ask for the highest tag labeled `fin`.
    CasQuery,
    /// CAS PUT phase 2: store a codeword symbol with label `pre`.
    CasPreWrite {
        /// Tag of the new version.
        tag: Tag,
        /// This server's codeword symbol (shared handle — fanning one encode out to `n`
        /// servers clones refcounts, not bytes).
        shard: Bytes,
    },
    /// CAS PUT phase 3: upgrade the label of `tag` to `fin`.
    CasFinalizeWrite {
        /// Tag being finalized.
        tag: Tag,
    },
    /// CAS GET phase 2: request the codeword symbol stored for `tag` (and finalize it).
    CasFinalizeRead {
        /// Tag whose symbol is requested.
        tag: Tag,
    },

    // ---- Reconfiguration (controller → old/new configuration servers) ----
    /// Signals a reconfiguration and doubles as the controller's internal read request.
    ///
    /// Carries the full target configuration (not just its epoch) so a server that
    /// blocks on this query can still fail its deferred clients over to the new
    /// placement if the controller crashes before `FinishReconfig` arrives — the
    /// epoch-lease expiry path needs a concrete configuration to hand out.
    ReconfigQuery {
        /// The configuration being installed.
        new_config: Box<Configuration>,
    },
    /// CAS-only: ask for the codeword symbol of `tag` (controller collection phase).
    ReconfigGet {
        /// Tag selected by the controller.
        tag: Tag,
    },
    /// Install `(tag, data)` at a server of the new configuration (also used by CREATE to
    /// seed a fresh key).
    ReconfigWrite {
        /// Tag carried over from the old configuration.
        tag: Tag,
        /// Replica value (ABD) or this server's codeword symbol (CAS).
        data: ReconfigPayload,
        /// The configuration being installed at the receiving server.
        config: Box<Configuration>,
    },
    /// Tells old-configuration servers that the transfer is complete.
    FinishReconfig {
        /// Highest tag read by the controller; operations at or below it may complete in the
        /// old configuration.
        highest_tag: Tag,
        /// The new configuration clients should retry against.
        new_config: Box<Configuration>,
    },
}

/// Payload installed into the new configuration by a reconfiguration.
#[derive(Debug, Clone, PartialEq)]
pub enum ReconfigPayload {
    /// Full value (new configuration runs ABD).
    Value(Value),
    /// One codeword symbol (new configuration runs CAS).
    Shard(Bytes),
}

/// A reply from a server.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtoReply {
    /// ABD: the locally stored `(tag, value)` pair.
    AbdTagValue {
        /// Stored tag.
        tag: Tag,
        /// Stored value.
        value: Value,
    },
    /// ABD/CAS: a bare tag (ABD write-query response, CAS query response).
    TagOnly {
        /// The requested tag.
        tag: Tag,
    },
    /// Generic acknowledgement.
    Ack,
    /// CAS finalize-read response carrying the codeword symbol if the server has it.
    CasShard {
        /// Tag the symbol belongs to.
        tag: Tag,
        /// The stored symbol, or `None` if the server only has the metadata.
        shard: Option<Bytes>,
    },
    /// The key was reconfigured; the client must retry against the attached configuration.
    OperationFail {
        /// The configuration to retry against.
        new_config: Box<Configuration>,
    },
    /// The server rejected the request (unknown key, not a host, internal error).
    Error(StoreError),
}

/// A message the client-side state machines want the runtime to deliver.
#[derive(Debug, Clone, PartialEq)]
pub struct Outbound {
    /// Destination data center.
    pub to: DcId,
    /// Which protocol phase this message belongs to (echoed back with the reply so the
    /// client can discard stale replies from earlier phases).
    pub phase: u8,
    /// Key the message concerns.
    pub key: Key,
    /// Configuration epoch the sender believes is current.
    pub epoch: ConfigEpoch,
    /// The request body.
    pub msg: ProtoMsg,
}

/// Progress report from feeding one reply into a client-side state machine.
#[derive(Debug, Clone, PartialEq)]
pub enum OpProgress {
    /// Keep waiting for more replies.
    Pending,
    /// Send these additional messages (next phase) and keep waiting.
    Send(Vec<Outbound>),
    /// The operation finished.
    Done(OpOutcome),
}

/// Final result of a client operation.
#[derive(Debug, Clone, PartialEq)]
pub enum OpOutcome {
    /// PUT committed with this tag.
    PutOk {
        /// Tag assigned to the written version.
        tag: Tag,
    },
    /// GET returned this value.
    GetOk {
        /// Tag of the returned version.
        tag: Tag,
        /// The value read.
        value: Value,
        /// True if the GET completed in one phase (the "optimized GET" fast path).
        one_phase: bool,
    },
    /// The key was reconfigured; retry against the new configuration.
    Reconfigured {
        /// Configuration to retry against.
        new_config: Box<Configuration>,
    },
    /// The operation failed.
    Failed(StoreError),
}

/// Snake-case names for every [`ProtoMsg`] variant, index-aligned with
/// [`ProtoMsg::kind_index`]. Servers use these to label per-message-kind metrics
/// without the telemetry crate depending on this one.
pub const MSG_KIND_NAMES: [&str; 11] = [
    "abd_read_query",
    "abd_write_query",
    "abd_write",
    "cas_query",
    "cas_pre_write",
    "cas_finalize_write",
    "cas_finalize_read",
    "reconfig_query",
    "reconfig_get",
    "reconfig_write",
    "finish_reconfig",
];

impl ProtoMsg {
    /// Position of this variant in [`MSG_KIND_NAMES`] (and in the wire encoding's
    /// kind-byte ordering).
    pub fn kind_index(&self) -> usize {
        match self {
            ProtoMsg::AbdReadQuery => 0,
            ProtoMsg::AbdWriteQuery => 1,
            ProtoMsg::AbdWrite { .. } => 2,
            ProtoMsg::CasQuery => 3,
            ProtoMsg::CasPreWrite { .. } => 4,
            ProtoMsg::CasFinalizeWrite { .. } => 5,
            ProtoMsg::CasFinalizeRead { .. } => 6,
            ProtoMsg::ReconfigQuery { .. } => 7,
            ProtoMsg::ReconfigGet { .. } => 8,
            ProtoMsg::ReconfigWrite { .. } => 9,
            ProtoMsg::FinishReconfig { .. } => 10,
        }
    }

    /// Approximate number of bytes this request occupies on the wire: the metadata size
    /// `o_m` plus any value / codeword-symbol payload. This mirrors how the paper's cost
    /// model charges network traffic.
    pub fn wire_size(&self, metadata_bytes: u64) -> u64 {
        match self {
            ProtoMsg::AbdReadQuery
            | ProtoMsg::AbdWriteQuery
            | ProtoMsg::CasQuery
            | ProtoMsg::CasFinalizeWrite { .. }
            | ProtoMsg::CasFinalizeRead { .. }
            | ProtoMsg::ReconfigQuery { .. }
            | ProtoMsg::ReconfigGet { .. } => metadata_bytes,
            ProtoMsg::AbdWrite { value, .. } => metadata_bytes + value.len() as u64,
            ProtoMsg::CasPreWrite { shard, .. } => metadata_bytes + shard.len() as u64,
            ProtoMsg::ReconfigWrite { data, .. } => {
                // The configuration descriptor itself is metadata-sized.
                metadata_bytes
                    + match data {
                        ReconfigPayload::Value(v) => v.len() as u64,
                        ReconfigPayload::Shard(s) => s.len() as u64,
                    }
            }
            ProtoMsg::FinishReconfig { .. } => metadata_bytes,
        }
    }
}

impl ProtoReply {
    /// Approximate number of bytes this reply occupies on the wire.
    pub fn wire_size(&self, metadata_bytes: u64) -> u64 {
        match self {
            ProtoReply::AbdTagValue { value, .. } => metadata_bytes + value.len() as u64,
            ProtoReply::TagOnly { .. } | ProtoReply::Ack | ProtoReply::Error(_) => metadata_bytes,
            ProtoReply::CasShard { shard, .. } => {
                metadata_bytes + shard.as_ref().map(|s| s.len() as u64).unwrap_or(0)
            }
            ProtoReply::OperationFail { .. } => metadata_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legostore_types::ClientId;

    #[test]
    fn metadata_only_messages_cost_metadata() {
        let m = ProtoMsg::CasQuery;
        assert_eq!(m.wire_size(100), 100);
        let m = ProtoMsg::CasFinalizeWrite { tag: Tag::INITIAL };
        assert_eq!(m.wire_size(100), 100);
        let m = ProtoMsg::ReconfigQuery {
            new_config: Box::new(Configuration::abd_majority(
                vec![DcId(0), DcId(1), DcId(2)],
                1,
            )),
        };
        assert_eq!(m.wire_size(64), 64);
    }

    #[test]
    fn value_messages_add_payload() {
        let v = Value::filler(1024);
        let m = ProtoMsg::AbdWrite { tag: Tag::INITIAL, value: v.clone() };
        assert_eq!(m.wire_size(100), 1124);
        let m = ProtoMsg::CasPreWrite { tag: Tag::INITIAL, shard: vec![0u8; 344].into() };
        assert_eq!(m.wire_size(100), 444);
        let config = Configuration::abd_majority(vec![DcId(0), DcId(1), DcId(2)], 1);
        let m = ProtoMsg::ReconfigWrite {
            tag: Tag::INITIAL,
            data: ReconfigPayload::Value(v),
            config: Box::new(config.clone()),
        };
        assert_eq!(m.wire_size(100), 1124);
        let m = ProtoMsg::ReconfigWrite {
            tag: Tag::INITIAL,
            data: ReconfigPayload::Shard(vec![0u8; 10].into()),
            config: Box::new(config),
        };
        assert_eq!(m.wire_size(100), 110);
    }

    #[test]
    fn kind_names_align_with_variant_order() {
        assert_eq!(ProtoMsg::AbdReadQuery.kind_index(), 0);
        assert_eq!(MSG_KIND_NAMES[ProtoMsg::AbdReadQuery.kind_index()], "abd_read_query");
        assert_eq!(MSG_KIND_NAMES[ProtoMsg::CasQuery.kind_index()], "cas_query");
        let m = ProtoMsg::FinishReconfig {
            highest_tag: Tag::INITIAL,
            new_config: Box::new(Configuration::abd_majority(
                vec![DcId(0), DcId(1), DcId(2)],
                1,
            )),
        };
        assert_eq!(m.kind_index(), MSG_KIND_NAMES.len() - 1);
        assert_eq!(MSG_KIND_NAMES[m.kind_index()], "finish_reconfig");
    }

    #[test]
    fn reply_sizes() {
        let v = Value::filler(500);
        assert_eq!(ProtoReply::AbdTagValue { tag: Tag::INITIAL, value: v }.wire_size(100), 600);
        assert_eq!(ProtoReply::TagOnly { tag: Tag::new(3, ClientId(1)) }.wire_size(100), 100);
        assert_eq!(ProtoReply::Ack.wire_size(100), 100);
        assert_eq!(
            ProtoReply::CasShard { tag: Tag::INITIAL, shard: Some(vec![0u8; 50].into()) }.wire_size(100),
            150
        );
        assert_eq!(ProtoReply::CasShard { tag: Tag::INITIAL, shard: None }.wire_size(100), 100);
    }
}
