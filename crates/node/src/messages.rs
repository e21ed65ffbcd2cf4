//! Wire messages between clients and anchor nodes.
//!
//! This is the message vocabulary of the paper's prototype (§V, client-
//! server over CORBA), carried here over the deterministic simulator.

use seldel_chain::{Block, BlockNumber, Entry, EntryId};
use seldel_codec::DataRecord;
use seldel_core::{CompiledPolicy, DeletionPlan};
use seldel_crypto::{Digest32, VerifyingKey};

/// A node's advertised view of the chain (the "status quo" clients obtain
/// from anchor nodes, §V-B4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatusQuo {
    /// The shifting genesis marker m.
    pub marker: BlockNumber,
    /// The tip block number.
    pub tip: BlockNumber,
    /// The tip block hash.
    pub tip_hash: Digest32,
}

/// Messages exchanged in the simulated deployment.
#[derive(Debug, Clone)]
pub enum NodeMessage {
    /// Client/driver → anchor: submit a signed entry (data or deletion).
    Submit(Entry),
    /// Leader anchor → replicas: a sealed normal/empty block. Summary
    /// blocks are **never** sent — every node derives them locally (§IV-B).
    NewBlock(Block),
    /// Anchor → anchors: summary-hash synchronisation check ("this
    /// information can be used to check synchronisation by comparing the
    /// hash of its summary block", §IV-B).
    SyncCheck {
        /// Summary block number.
        number: BlockNumber,
        /// Hash of the sender's locally derived summary block.
        summary_hash: Digest32,
        /// Payload commitment of that block — diverging record/tombstone
        /// sets are reported as such even when (hypothetically) the block
        /// hashes already differ for header-level reasons.
        payload_root: Digest32,
    },
    /// Anchor → anchor: request live blocks starting at `from`.
    SyncRequest {
        /// First wanted block number.
        from: BlockNumber,
    },
    /// Anchor → anchor: live blocks for adoption.
    SyncResponse {
        /// Contiguous live blocks, oldest first.
        blocks: Vec<Block>,
    },
    /// Client → anchor: ask for the current status quo.
    StatusQuoRequest,
    /// Anchor → client: status quo reply.
    StatusQuoReply(StatusQuo),
    /// Client → anchor: look up a data set.
    Query {
        /// The data set id.
        id: EntryId,
    },
    /// Anchor → client: lookup result.
    QueryReply {
        /// The queried id.
        id: EntryId,
        /// The record, when physically present.
        record: Option<DataRecord>,
        /// Whether the record is live (present and not deletion-marked).
        live: bool,
    },
    /// Client → anchor: dry-run a deletion policy — evaluate the selector
    /// and the full per-id authorisation ladder as `requester`, applying
    /// nothing. Any anchor can serve this (it is a pure read); the reply
    /// reports what a bulk erasure *would* do.
    PolicyPlanRequest {
        /// Whose authority the per-id validation ladder runs under.
        requester: VerifyingKey,
        /// The compiled policy to evaluate.
        policy: CompiledPolicy,
    },
    /// Anchor → client: the dry-run audit report.
    PolicyPlanReply {
        /// Matched ids, bytes, per-tenant rollups and blocked hits.
        plan: DeletionPlan,
    },
    /// Driver → client: forward an entry to the client's anchors.
    ClientSubmit(Entry),
    /// Driver → client: consult all configured anchors for a status quo.
    ClientCheckStatus,
    /// Driver → client: query a record through the client's first anchor.
    ClientQuery {
        /// The data set id.
        id: EntryId,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_cloneable_and_debuggable() {
        let msg = NodeMessage::SyncRequest {
            from: BlockNumber(4),
        };
        let cloned = msg.clone();
        assert!(format!("{cloned:?}").contains("SyncRequest"));
    }
}
