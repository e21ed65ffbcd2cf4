//! **selective-deletion** — a full Rust implementation of *"Selective
//! Deletion in a Blockchain"* (Hillmann, Knüpfer, Heiland, Karcher;
//! ICDCS 2020 / arXiv:2101.05495).
//!
//! The paper extends any blockchain's consensus behaviour with
//! deterministic **summary blocks**: every l-th block each node locally
//! derives a block Σ that, once the chain exceeds l_max, absorbs the data
//! of the oldest sequences (keeping original block/entry numbers and
//! timestamps), after which the **genesis marker shifts** and the old
//! blocks are physically cut. Data marked by signed, authorised **deletion
//! requests** — and expired **temporary entries** — are simply *not
//! copied*, which deletes them from the distributed ledger with bounded
//! delay while hash-chain trust is preserved.
//!
//! This facade re-exports the workspace crates:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`crypto`] | `seldel-crypto` | SHA-2, HMAC, Merkle trees, Ed25519 (from scratch) |
//! | [`codec`] | `seldel-codec` | canonical encoding, YAML-subset schemas, console rendering |
//! | [`chain`] | `seldel-chain` | blocks, entries, summary records, the live chain β, pluggable `BlockStore` backends + entry index |
//! | [`core`] | `seldel-core` | the paper's contribution: [`core::SelectiveLedger`] |
//! | [`network`] | `seldel-network` | deterministic simnet with fault injection |
//! | [`node`] | `seldel-node` | anchor/client nodes, Σ-hash sync checks |
//! | [`sim`] | `seldel-sim` | workloads + experiments reproducing the evaluation |
//! | [`telemetry`] | `seldel-telemetry` | counters/gauges/histograms registry, hot-path spans, snapshots |
//!
//! # Quickstart
//!
//! ```
//! use selective_deletion::prelude::*;
//!
//! let mut ledger = SelectiveLedger::new(ChainConfig::paper_evaluation());
//! let user = SigningKey::from_seed([1u8; 32]);
//!
//! ledger.submit_entry(Entry::sign_data(
//!     &user,
//!     DataRecord::new("login").with("user", "ALPHA"),
//! ))?;
//! ledger.seal_block(Timestamp(10))?;
//!
//! let target = EntryId::new(BlockNumber(1), EntryNumber(0));
//! ledger.request_deletion(&user, target, "GDPR Art. 17")?;
//! ledger.seal_block(Timestamp(20))?;
//! assert!(!ledger.is_live(target));
//! # Ok::<(), selective_deletion::core::CoreError>(())
//! ```
//!
//! See the `examples/` directory for runnable scenarios and
//! `EXPERIMENTS.md` for the paper-versus-implementation comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use seldel_chain as chain;
pub use seldel_codec as codec;
pub use seldel_core as core;
pub use seldel_crypto as crypto;
pub use seldel_network as network;
pub use seldel_node as node;
pub use seldel_sim as sim;
pub use seldel_telemetry as telemetry;

/// The most common imports in one place.
pub mod prelude {
    pub use seldel_chain::{
        Block, BlockKind, BlockNumber, BlockStore, Blockchain, DeleteRequest, Entry, EntryId,
        EntryNumber, Expiry, FsyncPolicy, MemStore, SegStore, ShardMap, ShardedIndex,
        ShardedMempool, Timestamp,
    };
    pub use seldel_codec::{DataRecord, Value};
    pub use seldel_core::{
        AnchorPolicy, ChainConfig, CompiledPolicy, CoreError, DeletionPlan, IdleFillPolicy,
        LedgerEvent, RetentionPolicy, RetireMode, Role, RoleTable, SelectiveLedger, Selector,
        TtlClass,
    };
    pub use seldel_crypto::{SigningKey, VerifyingKey};
}
