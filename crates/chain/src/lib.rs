//! Chain data model for the selective-deletion blockchain.
//!
//! This crate defines everything the paper's §IV concept operates *on*:
//!
//! * [`types`] — block numbers α, timestamps τ, entry ids, expiry markers;
//! * [`entry`] — signed entries (`D`/`K`/`S`) and deletion requests;
//! * [`block`] — the four block kinds (genesis, normal, **summary**, empty);
//! * [`summary`] — carried-forward summary records (Fig. 4) and Fig. 9
//!   anchors;
//! * [`chain`] — the live chain β with its shifting genesis marker `m`;
//! * [`store`] — pluggable block storage ([`BlockStore`], the in-memory
//!   [`MemStore`]) with per-block sealed-hash caching;
//! * [`fstore`] — the durable file-backed segment log ([`FileStore`]):
//!   crash recovery on open, physical on-disk deletion on prune;
//! * [`index`] — the maintained `EntryId → Location` index backing O(log n)
//!   lookups;
//! * [`shard`] — the sharded query & intake subsystem: stable
//!   [`ShardMap`] routing, the partitioned [`ShardedIndex`] and the
//!   author-sharded [`ShardedMempool`] (per-shard dedup, fair round-robin
//!   drain), all at the fixed [`DEFAULT_SHARD_COUNT`];
//! * [`proof`] — O(log n) membership/absence proofs over the header
//!   commitments, verifiable from a bare [`HeaderChain`];
//! * [`validate`] — status-quo-anchored validation (§V-B3), full and
//!   incremental (cached-commitment) passes;
//! * [`baseline`] — the conventional ever-growing chain used as the
//!   experimental comparator;
//! * [`render`] — the paper's console listing format (Figs. 6–8).
//!
//! The *behaviour* — building summary blocks, pruning, deletion workflow —
//! lives in `seldel-core`, which drives these types.
//!
//! # Example
//!
//! ```
//! use seldel_chain::block::Block;
//! use seldel_chain::chain::Blockchain;
//! use seldel_chain::types::Timestamp;
//!
//! let chain = Blockchain::new(Block::genesis("my-chain", Timestamp(0)));
//! assert_eq!(chain.len(), 1);
//! assert_eq!(chain.first().header().prev_hash.short(), "DEADB");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod block;
#[allow(clippy::module_inception)]
pub mod chain;
pub mod entry;
pub mod error;
pub mod fstore;
pub mod index;
pub mod proof;
pub mod render;
pub mod shard;
pub mod store;
pub mod summary;
pub mod testutil;
pub mod types;
pub mod validate;

pub use baseline::BaselineChain;
pub use block::{Block, BlockBody, BlockHeader, BlockKind, GENESIS_PREV_HASH};
pub use chain::{Blockchain, Located};
pub use entry::{CoSignature, DeleteRequest, Entry, EntryPayload};
pub use error::ChainError;
pub use fstore::{segment_frame_numbers, FileStore, FsyncPolicy, StoreError, FSYNC_POLICY_ENV};
pub use index::{EntryIndex, Location};
pub use proof::{
    prove_deleted, prove_live, verify_proof, EntryProof, HeaderChain, MerkleSpot, ProofError,
};
pub use shard::{ShardMap, ShardedIndex, ShardedMempool, DEFAULT_SHARD_COUNT};
pub use store::{BlockRef, BlockStore, MemStore, SealedBlock};
pub use summary::{Anchor, SummaryRecord};
pub use types::{BlockNumber, EntryId, EntryNumber, Expiry, Timestamp};
pub use validate::{
    build_anchor, validate_full, validate_incremental, validate_store_incremental, verify_anchor,
    IncrementalReport, ValidationReport,
};
