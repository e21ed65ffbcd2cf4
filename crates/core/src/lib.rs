//! **Selective deletion in a blockchain** — the primary contribution of
//! Hillmann et al. (ICDCS 2020), as a reusable Rust library.
//!
//! The concept extends any blockchain with:
//!
//! * **Summary blocks Σ** ([`summary`]) created deterministically by every
//!   node at each l-th slot (§IV-B);
//! * **Bounded chain length** ([`retention`]): once the live chain exceeds
//!   l_max, the oldest sequences are merged into the next summary block,
//!   the genesis marker shifts, and the old blocks are cut (§IV-C, Fig. 3);
//! * **Selective deletion on request** ([`deletion`], [`authz`],
//!   [`cohesion`]): signed deletion entries referencing `(block α, entry)`,
//!   authorised by signature match / role / quorum master signature,
//!   checked for semantic cohesion, and executed *with delay* by not
//!   copying the target into the merging summary block (§IV-D, Fig. 5);
//! * **Temporary entries** with τ/α expiry that clean themselves up
//!   (§IV-D4);
//! * **Idle filler blocks** bounding deletion latency (§IV-D3);
//! * **51 %-attack hampering** via middle-sequence Merkle anchors (Fig. 9).
//!
//! The central type is [`SelectiveLedger`]; everything else supports it.
//!
//! # Quickstart
//!
//! ```
//! use seldel_core::{ChainConfig, SelectiveLedger};
//! use seldel_chain::{Entry, EntryId, BlockNumber, EntryNumber, Timestamp};
//! use seldel_codec::DataRecord;
//! use seldel_crypto::SigningKey;
//!
//! let mut ledger = SelectiveLedger::new(ChainConfig::paper_evaluation());
//! let bravo = SigningKey::from_seed([2u8; 32]);
//!
//! // Write.
//! ledger.submit_entry(Entry::sign_data(
//!     &bravo,
//!     DataRecord::new("login").with("user", "BRAVO"),
//! ))?;
//! ledger.seal_block(Timestamp(10))?;
//!
//! // Request deletion of the entry just written (block 1, entry 0).
//! let target = EntryId::new(BlockNumber(1), EntryNumber(0));
//! ledger.request_deletion(&bravo, target, "GDPR Art. 17")?;
//! ledger.seal_block(Timestamp(20))?;
//!
//! // The mark is delayed deletion: the record vanishes physically once its
//! // sequence is merged into a summary block.
//! assert!(!ledger.is_live(target));
//! # Ok::<(), seldel_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod authz;
pub mod cohesion;
pub mod config;
pub mod deletion;
pub mod error;
pub mod events;
pub mod ledger;
pub mod offchain;
pub mod policy;
pub mod retention;
pub mod sequence;
pub mod summary;

pub use authz::{authorize_deletion, AuthzError, MasterKeySet, Role, RoleTable};
pub use cohesion::{
    BellLaPadula, BrewerNash, CohesionContext, CohesionPolicy, CohesionViolation, DependencyPolicy,
};
pub use config::{AnchorPolicy, ChainConfig, IdleFillPolicy, RetentionPolicy, RetireMode};
pub use deletion::{DeletionRecord, DeletionRegistry, DeletionStatus};
pub use error::CoreError;
pub use events::LedgerEvent;
pub use ledger::{LedgerStats, SelectiveLedger, SelectiveLedgerBuilder};
pub use offchain::{ContentStore, OffChainError, OFFCHAIN_SCHEMA, OFFCHAIN_SCHEMA_YAML};
pub use policy::{
    sweep_candidates, Candidate, CompiledPolicy, DeletionPlan, PolicyError, Selector, TenantSlice,
    TtlClass, MAX_SELECTOR_DEPTH,
};
pub use retention::{plan_retirement, RetirePlan};
pub use sequence::{live_sequences, middle_sequence, sequence_of, SequenceSpan};
pub use summary::{build_summary_block, summary_body, SummaryOutcome};
