//! The selective-deletion ledger: the paper's §IV concept as a library.
//!
//! [`SelectiveLedger`] owns a [`Blockchain`] and drives the full behaviour:
//! entry intake (schema- and signature-checked), block sealing, automatic
//! summary blocks at every l-th slot, retention-driven merging with marker
//! shift, the deletion workflow (authorisation → cohesion → delayed
//! execution), temporary-entry expiry and idle filling.
//!
//! # Example
//!
//! ```
//! use seldel_core::{ChainConfig, SelectiveLedger};
//! use seldel_chain::{Entry, Timestamp};
//! use seldel_codec::DataRecord;
//! use seldel_crypto::SigningKey;
//!
//! let mut ledger = SelectiveLedger::builder(ChainConfig::paper_evaluation()).build();
//! let alice = SigningKey::from_seed([1u8; 32]);
//! ledger
//!     .submit_entry(Entry::sign_data(
//!         &alice,
//!         DataRecord::new("login").with("user", "ALPHA"),
//!     ))
//!     .unwrap();
//! let sealed = ledger.seal_block(Timestamp(10)).unwrap();
//! assert_eq!(sealed.value(), 1);
//! ```

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::marker::PhantomData;
use std::sync::Arc;

use seldel_chain::{
    Block, BlockBody, BlockKind, BlockNumber, BlockStore, Blockchain, DeleteRequest, Entry,
    EntryId, EntryNumber, EntryPayload, Located, MemStore, ShardedMempool, Timestamp,
    DEFAULT_SHARD_COUNT,
};
use seldel_codec::schema::SchemaRegistry;
use seldel_codec::DataRecord;
use seldel_crypto::{SigningKey, VerifyingKey};

use crate::authz::{authorize_deletion, MasterKeySet, RoleTable};
use crate::cohesion::{CohesionContext, CohesionPolicy, DependencyPolicy};
use crate::config::ChainConfig;
use crate::deletion::{DeletionRecord, DeletionRegistry};
use crate::error::CoreError;
use crate::events::LedgerEvent;
use crate::policy::{self, Candidate, CompiledPolicy, DeletionPlan};
use crate::summary::build_summary_block;

/// Snapshot of ledger health, used by experiments and monitoring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerStats {
    /// The shifting genesis marker m.
    pub marker: BlockNumber,
    /// Tip block number.
    pub tip: BlockNumber,
    /// Live chain length lβ in blocks.
    pub live_blocks: u64,
    /// Total canonical byte size of the live chain.
    pub live_bytes: u64,
    /// Live data sets (entries + carried records).
    pub live_records: u64,
    /// Entries waiting in the mempool.
    pub pending_entries: usize,
    /// Deletions marked but not yet executed.
    pub pending_deletions: usize,
    /// Deletions physically executed since this ledger was built/opened
    /// (a monotonic ledger counter — executed registry records themselves
    /// are compacted away once their targets fall behind the marker).
    pub executed_deletions: usize,
    /// Temporary entries dropped so far.
    pub expired_records: u64,
    /// Summary blocks created so far.
    pub summaries_created: u64,
    /// Blocks ever appended (including later-pruned ones).
    pub blocks_appended: u64,
    /// Blocks physically cut off so far.
    pub retired_blocks: u64,
    /// Virtual time covered by the live chain.
    pub covered_timespan: u64,
}

/// Builder for [`SelectiveLedger`] (roles, master keys, schemas, policies,
/// storage backend).
pub struct SelectiveLedgerBuilder<S: BlockStore = MemStore> {
    config: ChainConfig,
    roles: RoleTable,
    master: Option<MasterKeySet>,
    schemas: SchemaRegistry,
    policies: Vec<Arc<dyn CohesionPolicy>>,
    genesis_time: Timestamp,
    _store: PhantomData<S>,
}

impl<S: BlockStore> SelectiveLedgerBuilder<S> {
    /// Switches the storage backend the built ledger will use, e.g.
    /// `.store_backend::<SegStore>()`. Backends change performance
    /// characteristics only; chain semantics and hashes are identical.
    pub fn store_backend<T: BlockStore>(self) -> SelectiveLedgerBuilder<T> {
        SelectiveLedgerBuilder {
            config: self.config,
            roles: self.roles,
            master: self.master,
            schemas: self.schemas,
            policies: self.policies,
            genesis_time: self.genesis_time,
            _store: PhantomData,
        }
    }

    /// Sets the role table (§IV-D1).
    pub fn roles(mut self, roles: RoleTable) -> Self {
        self.roles = roles;
        self
    }

    /// Sets the quorum master key set for administrative deletions.
    pub fn master_keys(mut self, master: MasterKeySet) -> Self {
        self.master = Some(master);
        self
    }

    /// Sets the schema registry; entries must then validate against their
    /// claimed schema (§V: "specified beforehand by a YAML schema").
    pub fn schemas(mut self, schemas: SchemaRegistry) -> Self {
        self.schemas = schemas;
        self
    }

    /// Stacks an additional automatic cohesion policy (§IV-D2 names
    /// Bell-LaPadula and Brewer-Nash) on top of the always-on dependency
    /// rule.
    pub fn cohesion_policy(mut self, policy: impl CohesionPolicy + 'static) -> Self {
        self.policies.push(Arc::new(policy));
        self
    }

    /// Sets the genesis timestamp (default τ0).
    pub fn genesis_time(mut self, t: Timestamp) -> Self {
        self.genesis_time = t;
        self
    }

    /// Builds the ledger.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is internally inconsistent (see
    /// [`ChainConfig::assert_valid`]).
    pub fn build(self) -> SelectiveLedger<S> {
        self.config.assert_valid();
        let chain = Blockchain::with_genesis(Block::genesis(
            self.config.chain_note.clone(),
            self.genesis_time,
        ));
        self.into_ledger(chain)
    }

    /// Opens a ledger over a caller-provided store — the durability entry
    /// point.
    ///
    /// An **empty** store behaves like [`build`](Self::build), except the
    /// genesis block lands in the given store (so a fresh
    /// [`FileStore`](seldel_chain::FileStore) directory starts persisting
    /// immediately). A **populated** store is the restart path: the chain
    /// is reconstructed ([`Blockchain::from_store`]) and fully validated,
    /// and every piece of derived Σ state — deletion marks, dependency
    /// edges, Chinese-wall history, statistics — is re-derived from the
    /// replayed blocks. A summary slot that fell due exactly at the crash
    /// point is re-derived too (Σ blocks are deterministic, §IV-B), so the
    /// recovered ledger continues exactly where the durable prefix ends.
    ///
    /// Some statistics cannot be recovered from blocks alone and restart
    /// conservatively (exactly like [`SelectiveLedger::adopt_chain`]):
    /// `executed_deletions` and `expired_records` reset to zero, and
    /// `summaries_created` restarts at the number of *live* Σ blocks —
    /// summary blocks that were themselves pruned are forgotten.
    ///
    /// # Errors
    ///
    /// Propagates reconstruction and validation failures; see
    /// [`CoreError`].
    ///
    /// # Panics
    ///
    /// Panics when the configuration is internally inconsistent (see
    /// [`ChainConfig::assert_valid`]).
    pub fn open_store(self, store: S) -> Result<SelectiveLedger<S>, CoreError> {
        self.config.assert_valid();
        if store.is_empty() {
            let genesis = Block::genesis(self.config.chain_note.clone(), self.genesis_time);
            let chain = Blockchain::with_genesis_in(store, genesis);
            return Ok(self.into_ledger(chain));
        }
        let chain = Blockchain::from_store(store)?;
        seldel_chain::validate_chain(&chain, &seldel_chain::ValidationOptions::default())?;
        let mut ledger = self.into_ledger(chain);
        ledger.recover_derived_state();
        Ok(ledger)
    }

    /// Wraps a ready chain with fresh ledger-side state.
    fn into_ledger(self, chain: Blockchain<S>) -> SelectiveLedger<S> {
        let blocks_appended = chain.tip().number().value() + 1;
        let retired_blocks = chain.marker().value();
        SelectiveLedger {
            chain,
            config: self.config,
            deletions: DeletionRegistry::new(),
            roles: self.roles,
            master: self.master,
            schemas: self.schemas,
            policies: self.policies,
            dependents: BTreeMap::new(),
            history: BTreeMap::new(),
            pending: ShardedMempool::new(DEFAULT_SHARD_COUNT),
            tenant_policies: BTreeMap::new(),
            events: VecDeque::new(),
            summaries_created: 0,
            blocks_appended,
            retired_blocks,
            expired_total: 0,
            executed_total: 0,
        }
    }
}

impl SelectiveLedgerBuilder<seldel_chain::FileStore> {
    /// Opens (or creates) a durable ledger rooted at `path` — shorthand
    /// for [`FileStore::open`](seldel_chain::FileStore::open) +
    /// [`open_store`](Self::open_store). Reopening a directory that
    /// already holds a chain is the crash/restart recovery path.
    ///
    /// # Errors
    ///
    /// Propagates store, reconstruction and validation failures.
    pub fn on_disk(
        self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<SelectiveLedger<seldel_chain::FileStore>, CoreError> {
        let store = seldel_chain::FileStore::open(path)?;
        self.open_store(store)
    }

    /// [`on_disk`](Self::on_disk) with an explicit segment capacity
    /// (applies only when the store is created; an existing store keeps
    /// its manifest's capacity).
    ///
    /// # Errors
    ///
    /// Propagates store, reconstruction and validation failures.
    pub fn on_disk_with_capacity(
        self,
        path: impl AsRef<std::path::Path>,
        segment_capacity: usize,
    ) -> Result<SelectiveLedger<seldel_chain::FileStore>, CoreError> {
        let store = seldel_chain::FileStore::open_with_capacity(path, segment_capacity)?;
        self.open_store(store)
    }
}

/// The selective-deletion ledger (single-node view; the node layer wraps it
/// for distributed operation), generic over the chain's storage backend.
#[derive(Clone)]
pub struct SelectiveLedger<S: BlockStore = MemStore> {
    chain: Blockchain<S>,
    config: ChainConfig,
    deletions: DeletionRegistry,
    roles: RoleTable,
    master: Option<MasterKeySet>,
    schemas: SchemaRegistry,
    policies: Vec<Arc<dyn CohesionPolicy>>,
    /// target -> (dependent id -> dependent author), live edges only.
    dependents: BTreeMap<EntryId, BTreeMap<EntryId, VerifyingKey>>,
    /// Sticky Chinese-wall history: author key -> schemas touched.
    history: BTreeMap<[u8; 32], BTreeSet<String>>,
    /// The author-sharded mempool (see `seldel_chain::shard`): per-shard
    /// dedup at intake, exact-FIFO drain when a whole batch seals, fair
    /// round-robin drain under `ChainConfig::max_block_entries`. Which
    /// pending entries a capped block takes is a leader-local scheduling
    /// choice; every choice seals a valid chain and I2 is untouched.
    pending: ShardedMempool,
    /// Registered per-tenant deletion policies, keyed by owner key bytes.
    /// Each is stored pre-scoped to the owner's own records
    /// ([`CompiledPolicy::scoped_to`]).
    tenant_policies: BTreeMap<[u8; 32], CompiledPolicy>,
    events: VecDeque<LedgerEvent>,
    summaries_created: u64,
    blocks_appended: u64,
    retired_blocks: u64,
    expired_total: u64,
    /// Monotonic count of executed deletions — kept ledger-side because
    /// the registry compacts executed records away (see
    /// [`DeletionRegistry::compact_executed`]).
    executed_total: u64,
}

impl<S: BlockStore> std::fmt::Debug for SelectiveLedger<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SelectiveLedger")
            .field("marker", &self.chain.marker())
            .field("tip", &self.chain.tip().number())
            .field("live_blocks", &self.chain.len())
            .field("pending", &self.pending.len())
            .finish_non_exhaustive()
    }
}

impl SelectiveLedger {
    /// Starts building a [`MemStore`]-backed ledger with the given
    /// configuration; use
    /// [`store_backend`](SelectiveLedgerBuilder::store_backend) to switch.
    pub fn builder(config: ChainConfig) -> SelectiveLedgerBuilder {
        SelectiveLedgerBuilder {
            config,
            roles: RoleTable::new(),
            master: None,
            schemas: SchemaRegistry::new(),
            policies: Vec::new(),
            genesis_time: Timestamp::ZERO,
            _store: PhantomData,
        }
    }

    /// Convenience constructor with defaults everywhere.
    pub fn new(config: ChainConfig) -> SelectiveLedger {
        SelectiveLedger::builder(config).build()
    }
}

impl<S: BlockStore> SelectiveLedger<S> {
    /// The live chain (read-only).
    pub fn chain(&self) -> &Blockchain<S> {
        &self.chain
    }

    /// The highest block number the storage backend guarantees to
    /// survive a crash ([`Blockchain::durable_tip`]). Equals the tip for
    /// in-memory backends; on a durable backend it lags the tip between
    /// fsync points (under `FsyncPolicy::OnFill`, until the segment
    /// fills or a barrier runs). The anchor node holds `NewBlock`
    /// broadcasts behind this watermark.
    pub fn durable_tip(&self) -> Option<BlockNumber> {
        self.chain.durable_tip()
    }

    /// Durability barrier: on return every sealed block would survive a
    /// crash and [`SelectiveLedger::durable_tip`] equals the tip. No-op
    /// for in-memory backends.
    pub fn commit_durable(&mut self) {
        self.chain.flush_durable();
    }

    /// The configuration.
    pub fn config(&self) -> &ChainConfig {
        &self.config
    }

    /// Accepts an entry into the mempool (routed to its author's shard).
    ///
    /// Data entries are checked for: a valid author signature, schema
    /// conformance (when a registry is configured), existing live
    /// dependencies, and the §IV-D3 rule that nothing may build on
    /// deletion-marked data. Deletion-request entries only need a valid
    /// signature here — their semantic validation happens at inclusion
    /// time, because "wrong request\[s\] of deletions can be included in the
    /// blockchain, but these have no further effects" (§V). A
    /// byte-identical entry already pending is refused
    /// ([`CoreError::DuplicatePending`]) — the sharded intake's dedup.
    ///
    /// # Errors
    ///
    /// See [`CoreError`].
    pub fn submit_entry(&mut self, entry: Entry) -> Result<(), CoreError> {
        entry.verify()?;
        if let EntryPayload::Data(record) = entry.payload() {
            if !self.schemas.is_empty() {
                self.schemas.validate(record)?;
            }
            for dep in entry.depends_on() {
                if self.deletions.is_marked(*dep) {
                    return Err(CoreError::DependsOnDeleted(*dep));
                }
                if self.chain.locate(*dep).is_none() {
                    return Err(CoreError::UnknownDependency(*dep));
                }
            }
        }
        self.enqueue(entry)
    }

    /// Routes a validated entry into the mempool, refusing pending
    /// duplicates.
    fn enqueue(&mut self, entry: Entry) -> Result<(), CoreError> {
        if self.pending.insert(entry) {
            Ok(())
        } else {
            Err(CoreError::DuplicatePending)
        }
    }

    /// Builds, validates and submits a deletion request in one step.
    ///
    /// Unlike raw [`SelectiveLedger::submit_entry`], this pre-validates the
    /// request (target exists, requester authorised, cohesion holds) so the
    /// caller gets immediate feedback instead of an ineffective on-chain
    /// request.
    ///
    /// # Errors
    ///
    /// See [`CoreError`]; authorisation and cohesion failures are reported
    /// before anything is enqueued.
    pub fn request_deletion(
        &mut self,
        requester: &SigningKey,
        target: EntryId,
        reason: impl Into<String>,
    ) -> Result<(), CoreError> {
        let request = DeleteRequest::new(target, reason);
        self.request_deletion_with(requester, request)
    }

    /// Like [`SelectiveLedger::request_deletion`] but accepts a prepared
    /// request (e.g. carrying dependent co-signatures or a master
    /// signature).
    ///
    /// # Errors
    ///
    /// See [`CoreError`].
    pub fn request_deletion_with(
        &mut self,
        requester: &SigningKey,
        request: DeleteRequest,
    ) -> Result<(), CoreError> {
        self.validate_deletion(&requester.verifying_key(), &request)?;
        let entry = Entry::sign_delete(requester, request);
        self.enqueue(entry)
    }

    /// Corrects a data set (§V-A "Corrections: Change information, which
    /// maybe submitted wrongly"): atomically enqueues an authorised
    /// deletion of `target` plus a fresh signed entry with the corrected
    /// record. The corrected entry gets its own new id; the old data
    /// disappears at the next merge like any other deletion.
    ///
    /// # Errors
    ///
    /// Fails like [`SelectiveLedger::request_deletion`]; on failure nothing
    /// is enqueued.
    pub fn correct_entry(
        &mut self,
        requester: &SigningKey,
        target: EntryId,
        corrected: DataRecord,
    ) -> Result<(), CoreError> {
        if !self.schemas.is_empty() {
            self.schemas.validate(&corrected)?;
        }
        let request = DeleteRequest::new(target, "correction");
        self.validate_deletion(&requester.verifying_key(), &request)?;
        // The pair is one atomic bundle end to end: dedup-checked and
        // enqueued together or not at all, and sealed into the same block
        // even under a capacity cap — a deletion executing without its
        // replacement on chain would be half a correction.
        let deletion = Entry::sign_delete(requester, request);
        let replacement = Entry::sign_data(requester, corrected);
        if self.pending.insert_atomic(vec![deletion, replacement]) {
            Ok(())
        } else {
            Err(CoreError::DuplicatePending)
        }
    }

    /// Seals the mempool into the next block at virtual time `now`.
    ///
    /// With an empty mempool an [`BlockKind::Empty`] filler block is sealed
    /// instead. Without a [`ChainConfig::max_block_entries`] cap the whole
    /// mempool seals in exact arrival order (the historical behaviour);
    /// with one, the drain is fair round-robin across author shards and
    /// the overflow waits for the next block. Any due summary slot is
    /// filled automatically afterwards, which may merge and cut old
    /// sequences. Returns the number of the sealed (non-summary) block.
    /// The sealed block is not crash-durable until
    /// [`SelectiveLedger::durable_tip`] reaches it (or
    /// [`SelectiveLedger::commit_durable`] is called); prune barriers
    /// inside `maybe_summarize` flush inline, preserving §IV-C.
    ///
    /// # Errors
    ///
    /// [`CoreError::TimestampTooOld`] when `now` is behind the tip;
    /// chain errors are propagated.
    pub fn seal_block(&mut self, now: Timestamp) -> Result<BlockNumber, CoreError> {
        let _span = seldel_telemetry::span!("ledger.seal");
        let tip_ts = self.chain.tip().timestamp();
        if now < tip_ts {
            return Err(CoreError::TimestampTooOld {
                given: now,
                tip: tip_ts,
            });
        }
        let number = self.chain.tip().number().next();
        debug_assert!(
            !self.config.is_summary_slot(number),
            "summary slots are filled automatically"
        );
        let entries: Vec<Entry> = self.pending.drain_fair(self.config.max_block_entries);
        let body = if entries.is_empty() {
            BlockBody::Empty
        } else {
            BlockBody::Normal { entries }
        };
        let prev = self.chain.tip_hash();
        let block = Block::new(number, now, prev, body);
        self.chain.push(block)?;
        self.blocks_appended += 1;
        let sealed_entries = self.chain.tip().entries().len();
        if sealed_entries > 0 {
            self.events.push_back(LedgerEvent::BlockSealed {
                number,
                entries: sealed_entries,
            });
        } else {
            self.events
                .push_back(LedgerEvent::EmptyBlockAdded { number });
        }
        self.post_include(number, now);
        self.maybe_summarize(now);
        Ok(number)
    }

    /// Applies a block sealed elsewhere (leader → replica flow in the node
    /// layer). Summary blocks are rejected: every node derives its own Σ
    /// locally (§IV-B: the summary block "do\[es\] not need to be propagated
    /// by itself").
    ///
    /// # Errors
    ///
    /// Chain linkage errors, plus [`CoreError::Chain`] with a payload
    /// mismatch for summary-kind blocks.
    pub fn apply_block(&mut self, block: Block) -> Result<(), CoreError> {
        if block.kind() == BlockKind::Summary || block.kind() == BlockKind::Genesis {
            return Err(CoreError::Chain(
                seldel_chain::ChainError::GenesisMisplaced {
                    number: block.number(),
                },
            ));
        }
        let number = block.number();
        let now = block.timestamp();
        self.chain.push(block)?;
        self.blocks_appended += 1;
        self.post_include(number, now);
        self.maybe_summarize(now);
        Ok(())
    }

    /// Advances virtual time, appending idle filler blocks per the
    /// configured policy (§IV-D3). Returns the number of blocks appended
    /// (including automatic summaries).
    pub fn tick(&mut self, now: Timestamp) -> usize {
        let Some(policy) = self.config.idle_fill else {
            return 0;
        };
        let mut appended = 0;
        while now.since(self.chain.tip().timestamp()) >= policy.max_idle_ms {
            let ts = self.chain.tip().timestamp() + policy.max_idle_ms;
            let number = self.chain.tip().number().next();
            let prev = self.chain.tip_hash();
            let block = Block::new(number, ts, prev, BlockBody::Empty);
            self.chain.push(block).expect("filler blocks always link");
            self.blocks_appended += 1;
            self.events
                .push_back(LedgerEvent::EmptyBlockAdded { number });
            appended += 1;
            let before = self.chain.tip().number();
            self.maybe_summarize(ts);
            appended += (self.chain.tip().number().value() - before.value()) as usize;
        }
        appended
    }

    /// Looks up a data record by id, wherever it lives (an owned clone —
    /// the holder block may be a transient page on disk-backed stores).
    pub fn record(&self, id: EntryId) -> Option<DataRecord> {
        self.chain.locate(id).and_then(|l| l.data().cloned())
    }

    /// Whether the data set is live (exists and is not deletion-marked).
    pub fn is_live(&self, id: EntryId) -> bool {
        !self.deletions.is_marked(id) && self.record(id).is_some()
    }

    /// Batched [`SelectiveLedger::locate`]: one answer per id, in input
    /// order (see [`Blockchain::locate_many`]). Duplicate ids in one batch
    /// are answered element-wise: every occurrence gets the same answer a
    /// lone query would.
    pub fn locate_many(&self, ids: &[EntryId]) -> Vec<Option<Located<'_>>> {
        self.chain.locate_many(ids)
    }

    /// Bulk deletion audit: for each id, whether the data set is live —
    /// physically present *and* not deletion-marked — element-wise equal
    /// to [`SelectiveLedger::is_live`] but resolved in one batched
    /// [`Blockchain::locate_many`] pass. This is the query a compliance
    /// sweep asks ("are all of these really gone / still here?") after
    /// deletions execute. Like [`SelectiveLedger::locate_many`], duplicate
    /// ids each get the element-wise answer.
    pub fn audit_live(&self, ids: &[EntryId]) -> Vec<bool> {
        self.chain
            .locate_many(ids)
            .into_iter()
            .zip(ids)
            .map(|(located, id)| {
                located.is_some_and(|l| l.data().is_some()) && !self.deletions.is_marked(*id)
            })
            .collect()
    }

    /// The deletion record for a target, if any.
    pub fn deletion_status(&self, target: EntryId) -> Option<&DeletionRecord> {
        self.deletions.get(target)
    }

    /// Evaluates a compiled policy against the live chain and reports what
    /// a bulk erasure *would* do — the dry-run audit mode. Nothing is
    /// enqueued or mutated.
    ///
    /// Candidates come from one hot-cache sweep
    /// ([`policy::sweep_candidates`] over [`Blockchain::iter_hot`], never a
    /// cold disk scan); liveness of the hits is then confirmed through the
    /// bulk [`SelectiveLedger::audit_live`] path, and every live hit runs
    /// the full [`SelectiveLedger::validate_deletion`] ladder as
    /// `requester`. Hits that fail validation (authorisation, cohesion,
    /// live dependents, …) are reported in [`DeletionPlan::blocked`]
    /// instead of matched — a plan never promises a deletion that apply
    /// mode would refuse.
    pub fn plan_policy(&self, requester: &VerifyingKey, policy: &CompiledPolicy) -> DeletionPlan {
        let _span = seldel_telemetry::span!("ledger.policy_plan");
        seldel_telemetry::count!("policy.plans");
        let candidates = policy::sweep_candidates(&self.chain);
        seldel_telemetry::count!("policy.candidates_scanned", candidates.len() as u64);

        // Canonical order: hits sorted by id ascending, so a plan (and the
        // delete entries apply mode derives from it) is deterministic
        // regardless of backend iteration quirks.
        let mut hits: Vec<&Candidate> = candidates
            .iter()
            .filter(|c| policy.matches(c) && !self.deletions.is_marked(c.id))
            .collect();
        hits.sort_by_key(|c| c.id);

        let ids: Vec<EntryId> = hits.iter().map(|c| c.id).collect();
        let live = self.audit_live(&ids);

        let mut plan = DeletionPlan::new(policy.name(), candidates.len());
        for (candidate, live) in hits.into_iter().zip(live) {
            if !live {
                continue;
            }
            let request = DeleteRequest::new(candidate.id, policy.reason());
            match self.validate_deletion(requester, &request) {
                Ok(()) => plan.admit(candidate),
                Err(err) => plan.block(candidate.id, err.to_string()),
            }
        }
        seldel_telemetry::count!("policy.matched", plan.len() as u64);
        plan
    }

    /// Applies a compiled policy: computes the same plan as
    /// [`SelectiveLedger::plan_policy`], then enqueues one signed deletion
    /// request per matched id — from here on the erasure follows the
    /// normal marked-deletion lifecycle exactly as if each request had
    /// been issued manually (mark → Σ tombstone → physical prune at
    /// merge). The returned plan is the applied plan; dry-run and apply
    /// agree by construction.
    ///
    /// Matched ids whose identical request is already pending in the
    /// mempool (e.g. the same policy applied twice before sealing) are
    /// skipped, not errors.
    ///
    /// # Errors
    ///
    /// Any non-duplicate enqueue failure is propagated; entries enqueued
    /// before the failure stay queued.
    pub fn apply_policy(
        &mut self,
        requester: &SigningKey,
        policy: &CompiledPolicy,
    ) -> Result<DeletionPlan, CoreError> {
        let _span = seldel_telemetry::span!("ledger.policy_apply");
        seldel_telemetry::count!("policy.applies");
        let plan = self.plan_policy(&requester.verifying_key(), policy);
        let mut enqueued = 0u64;
        for id in plan.matched() {
            let entry = Entry::sign_delete(requester, DeleteRequest::new(*id, policy.reason()));
            match self.enqueue(entry) {
                Ok(()) => enqueued += 1,
                Err(CoreError::DuplicatePending) => {}
                Err(err) => return Err(err),
            }
        }
        seldel_telemetry::count!("policy.requests_enqueued", enqueued);
        Ok(plan)
    }

    /// Registers a standing deletion policy for a tenant. The policy is
    /// stored scoped to the owner ([`CompiledPolicy::scoped_to`]): whatever
    /// the selector says, it can only ever match the owner's own entries.
    /// One policy per tenant; registering again replaces it.
    pub fn register_policy(&mut self, owner: &VerifyingKey, policy: CompiledPolicy) {
        self.tenant_policies
            .insert(owner.to_bytes(), policy.scoped_to(*owner));
    }

    /// The standing (owner-scoped) policy registered for a tenant, if any.
    pub fn registered_policy(&self, owner: &VerifyingKey) -> Option<&CompiledPolicy> {
        self.tenant_policies.get(&owner.to_bytes())
    }

    /// Dry-runs a tenant's registered policy. `None` when the tenant has
    /// no registered policy.
    pub fn plan_registered(&self, owner: &VerifyingKey) -> Option<DeletionPlan> {
        let policy = self.tenant_policies.get(&owner.to_bytes())?;
        Some(self.plan_policy(owner, policy))
    }

    /// Applies a tenant's registered policy (see
    /// [`SelectiveLedger::apply_policy`]). `None` when the tenant has no
    /// registered policy.
    pub fn apply_registered(
        &mut self,
        owner: &SigningKey,
    ) -> Option<Result<DeletionPlan, CoreError>> {
        let policy = self
            .tenant_policies
            .get(&owner.verifying_key().to_bytes())?
            .clone();
        Some(self.apply_policy(owner, &policy))
    }

    /// Drains accumulated events.
    pub fn drain_events(&mut self) -> Vec<LedgerEvent> {
        self.events.drain(..).collect()
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> LedgerStats {
        LedgerStats {
            marker: self.chain.marker(),
            tip: self.chain.tip().number(),
            live_blocks: self.chain.len(),
            live_bytes: self.chain.total_byte_size(),
            live_records: self.chain.record_count(),
            pending_entries: self.pending.len(),
            pending_deletions: self.deletions.pending_count(),
            executed_deletions: self.executed_total as usize,
            expired_records: self.expired_total,
            summaries_created: self.summaries_created,
            blocks_appended: self.blocks_appended,
            retired_blocks: self.retired_blocks,
            covered_timespan: self.chain.covered_timespan(),
        }
    }

    /// Validates a deletion request without submitting it.
    ///
    /// # Errors
    ///
    /// The same ladder applied at inclusion time: duplicate check, target
    /// lookup, role/ownership authorisation (§IV-D1), dependency cohesion
    /// plus stacked automatic policies (§IV-D2).
    pub fn validate_deletion(
        &self,
        requester: &VerifyingKey,
        request: &DeleteRequest,
    ) -> Result<(), CoreError> {
        let target = request.target();
        if self.deletions.is_marked(target) {
            return Err(CoreError::DuplicateDeletion(target));
        }
        let located = self
            .chain
            .locate(target)
            .ok_or(CoreError::TargetNotFound(target))?;
        let record = located.data().ok_or(CoreError::TargetNotFound(target))?;
        let owner = located.author();

        authorize_deletion(
            requester,
            &owner,
            &self.roles,
            self.master.as_ref(),
            request,
        )?;

        let live_dependents: Vec<(EntryId, VerifyingKey)> = self
            .dependents
            .get(&target)
            .map(|m| m.iter().map(|(id, key)| (*id, *key)).collect())
            .unwrap_or_default();
        let empty_history = BTreeSet::new();
        let history = self
            .history
            .get(&requester.to_bytes())
            .unwrap_or(&empty_history);
        let ctx = CohesionContext {
            request,
            requester: *requester,
            target_author: owner,
            target_schema: record.schema(),
            target_level: record.get("classification").and_then(|v| v.as_u64()),
            live_dependents: &live_dependents,
            requester_history: history,
        };
        DependencyPolicy.check(&ctx)?;
        for policy in &self.policies {
            policy.check(&ctx)?;
        }
        Ok(())
    }

    /// Post-inclusion processing of a sealed/applied block: index data
    /// entries, evaluate deletion requests.
    fn post_include(&mut self, number: BlockNumber, now: Timestamp) {
        let block = self.chain.get(number).expect("just pushed").clone();
        for (i, entry) in block.entries().iter().enumerate() {
            let id = EntryId::new(number, EntryNumber(i as u32));
            match entry.payload() {
                EntryPayload::Data(record) => {
                    for dep in entry.depends_on() {
                        self.dependents
                            .entry(*dep)
                            .or_default()
                            .insert(id, entry.author());
                    }
                    self.history
                        .entry(entry.author().to_bytes())
                        .or_default()
                        .insert(record.schema().to_string());
                }
                EntryPayload::Delete(request) => {
                    let _span = seldel_telemetry::span!("ledger.deletion_apply");
                    let requester = entry.author();
                    match self.validate_deletion(&requester, request) {
                        Ok(()) => {
                            self.deletions.mark(request.target(), requester, id, now);
                            seldel_telemetry::count!("ledger.deletions.marked");
                            self.events.push_back(LedgerEvent::DeletionMarked {
                                target: request.target(),
                                requester,
                            });
                        }
                        Err(err) => {
                            seldel_telemetry::count!("ledger.deletions.ineffective");
                            self.events.push_back(LedgerEvent::DeletionIneffective {
                                target: request.target(),
                                reason: err.to_string(),
                            });
                        }
                    }
                }
            }
        }
    }

    /// Fills a due summary slot, merging and cutting per retention policy.
    fn maybe_summarize(&mut self, now: Timestamp) {
        let next = self.chain.tip().number().next();
        if !self.config.is_summary_slot(next) {
            return;
        }
        let (block, outcome) = {
            let _span = seldel_telemetry::span!("ledger.sigma");
            build_summary_block(&self.chain, &self.config, &self.deletions, next)
        };
        self.chain.push(block).expect("summary blocks always link");
        self.blocks_appended += 1;
        self.summaries_created += 1;
        self.events.push_back(LedgerEvent::SummaryCreated {
            number: next,
            records: outcome.carried,
            anchored: outcome.anchored,
        });

        if let Some(plan) = &outcome.plan {
            let old_marker = self.chain.marker();
            self.chain
                .truncate_front(plan.new_marker())
                .expect("plan markers are live");
            self.retired_blocks += plan.retired_blocks();
            self.events.push_back(LedgerEvent::SequencesRetired {
                from: plan.first(),
                to: plan.last(),
                carried: outcome.carried,
            });
            self.events.push_back(LedgerEvent::MarkerShifted {
                old: old_marker,
                new: plan.new_marker(),
            });
        }

        seldel_telemetry::count!("ledger.deletions.executed", outcome.deleted.len() as u64);
        for id in &outcome.deleted {
            if self.deletions.execute(*id, now) {
                self.executed_total += 1;
            }
            self.events.push_back(LedgerEvent::DeletionExecuted {
                target: *id,
                at: now,
            });
        }
        // Executed registry records are evidence already carried on chain
        // (Σ tombstones); compacting them behind the (post-truncate) marker
        // bounds the registry by live-chain contents and keeps it
        // bit-identically re-derivable on reopen — recovery replays only
        // live blocks, where executed requests are ineffective.
        let compacted = self.deletions.compact_executed(self.chain.marker());
        seldel_telemetry::count!("ledger.deletions.compacted", compacted as u64);
        for id in &outcome.expired {
            self.expired_total += 1;
            self.events
                .push_back(LedgerEvent::RecordExpired { origin: *id });
        }

        if outcome.plan.is_some() {
            self.rebuild_dependency_index();
        }
    }

    /// Rebuilds the live dependency index from chain contents. Called after
    /// merges so edges from dropped entries disappear. Runs on every prune,
    /// so it reads through the hot cache (`iter_hot`) — a disk scan here
    /// would put the whole live window back on the seal path each merge.
    fn rebuild_dependency_index(&mut self) {
        let mut fresh: BTreeMap<EntryId, BTreeMap<EntryId, VerifyingKey>> = BTreeMap::new();
        for block in self.chain.iter_hot() {
            match block.kind() {
                BlockKind::Normal => {
                    for (i, entry) in block.entries().iter().enumerate() {
                        let id = EntryId::new(block.number(), EntryNumber(i as u32));
                        if entry.is_delete_request() {
                            continue;
                        }
                        for dep in entry.depends_on() {
                            fresh.entry(*dep).or_default().insert(id, entry.author());
                        }
                    }
                }
                BlockKind::Summary => {
                    for record in block.summary_records() {
                        for dep in record.depends_on() {
                            fresh
                                .entry(*dep)
                                .or_default()
                                .insert(record.origin(), record.author());
                        }
                    }
                }
                _ => {}
            }
        }
        self.dependents = fresh;
    }

    /// Direct read access to a located data set.
    pub fn locate(&self, id: EntryId) -> Option<Located<'_>> {
        self.chain.locate(id)
    }

    /// Adopts a replacement chain (fork recovery / bootstrap sync).
    ///
    /// §V-B3: nodes "only accept a blockchain which is traceable from its
    /// current status quo" — the adopted chain is validated structurally
    /// and cryptographically from its own marker, then replaces the local
    /// chain **in the existing store** (a durable backend keeps its
    /// directory; see [`Blockchain::replace_blocks`]). Ledger-side state
    /// (deletion marks, dependency index, history) is rebuilt
    /// deterministically from the adopted blocks. In honest histories this
    /// reproduces the incremental state exactly, because no valid entry
    /// may depend on deletion-marked data (§IV-D3), so re-validating old
    /// deletion requests against the full live chain reaches the same
    /// verdicts.
    ///
    /// # Errors
    ///
    /// Propagates validation failures; the ledger is unchanged on error.
    pub fn adopt_chain(&mut self, blocks: Vec<Block>) -> Result<(), CoreError> {
        // Stage and validate in memory first so a bad offer cannot disturb
        // the (possibly durable) local store.
        let staged: Blockchain<seldel_chain::MemStore> = Blockchain::assemble(blocks)?;
        seldel_chain::validate_chain(&staged, &seldel_chain::ValidationOptions::default())?;

        let old_marker = self.chain.marker();
        self.chain.replace_with(&staged);
        // The adoption's own marker jump, pushed *before* recovery: if the
        // adopted chain ends right at a due Σ slot, recovery's summarize
        // may prune further and emit its own (non-overlapping) shift.
        self.events.push_back(LedgerEvent::MarkerShifted {
            old: old_marker,
            new: self.chain.marker(),
        });
        self.recover_derived_state();
        Ok(())
    }

    /// Re-derives every piece of ledger state that is a function of the
    /// live blocks: deletion marks, dependency edges, history, statistics.
    /// Shared by [`SelectiveLedger::adopt_chain`] and the
    /// [`open_store`](SelectiveLedgerBuilder::open_store) recovery path.
    ///
    /// Ends by filling a summary slot that is exactly due: a crash (or an
    /// export) can leave the chain one block short of its next Σ, and
    /// summary blocks are deterministic (§IV-B), so re-deriving the
    /// missing Σ locally reproduces the lost block bit for bit.
    fn recover_derived_state(&mut self) {
        self.deletions = DeletionRegistry::new();
        self.dependents = BTreeMap::new();
        self.history = BTreeMap::new();
        self.pending.clear();
        self.expired_total = 0;
        self.executed_total = 0;
        self.blocks_appended = self.chain.tip().number().value() + 1;
        self.retired_blocks = self.chain.marker().value();
        self.summaries_created = self
            .chain
            .iter()
            .filter(|b| b.kind() == BlockKind::Summary)
            .count() as u64;

        // The replay below is bookkeeping, not news: park whatever events
        // the driver has not drained yet so the replay's noise can be
        // discarded without losing them.
        let undelivered = std::mem::take(&mut self.events);

        // Rebuild indexes and deletion marks in block order.
        let numbers: Vec<(BlockNumber, Timestamp)> = self
            .chain
            .iter()
            .map(|b| (b.number(), b.timestamp()))
            .collect();
        for (number, ts) in numbers {
            self.post_include(number, ts);
        }
        self.rebuild_dependency_index();
        self.events = undelivered;
        let tip_ts = self.chain.tip().timestamp();
        self.maybe_summarize(tip_ts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authz::{Role, RoleTable};
    use crate::config::{IdleFillPolicy, RetentionPolicy};
    use seldel_chain::Expiry;

    fn key(seed: u8) -> SigningKey {
        SigningKey::from_seed([seed; 32])
    }

    fn data(user: &str, n: u64) -> DataRecord {
        DataRecord::new("login").with("user", user).with("n", n)
    }

    fn paper_ledger() -> SelectiveLedger {
        SelectiveLedger::new(ChainConfig::paper_evaluation())
    }

    /// Grows the ledger: one data entry per user per block, `blocks` normal
    /// blocks.
    fn grow(ledger: &mut SelectiveLedger, blocks: u64, users: &[&SigningKey]) {
        for _ in 0..blocks {
            let next_ts = Timestamp((ledger.stats().blocks_appended + 1) * 10);
            for (u, k) in users.iter().enumerate() {
                let n = ledger.stats().blocks_appended * 10 + u as u64;
                ledger
                    .submit_entry(Entry::sign_data(k, data("U", n)))
                    .unwrap();
            }
            ledger.seal_block(next_ts).unwrap();
        }
    }

    #[test]
    fn summary_blocks_appear_automatically() {
        let mut ledger = paper_ledger();
        let alice = key(1);
        grow(&mut ledger, 2, &[&alice]);
        // l = 3: blocks 0,1 then Σ2, then 3, 4 then Σ5...
        let kinds: Vec<BlockKind> = ledger.chain().iter().map(|b| b.kind()).collect();
        assert_eq!(
            kinds,
            vec![
                BlockKind::Genesis,
                BlockKind::Normal,
                BlockKind::Summary,
                BlockKind::Normal,
            ]
        );
        assert_eq!(ledger.stats().summaries_created, 1);
    }

    #[test]
    fn chain_length_stays_bounded() {
        let mut ledger = paper_ledger(); // l_max = 6
        let alice = key(1);
        grow(&mut ledger, 40, &[&alice]);
        let stats = ledger.stats();
        assert!(stats.live_blocks <= 6 + 3, "live = {}", stats.live_blocks);
        assert!(stats.retired_blocks > 0);
        assert!(stats.marker > BlockNumber(0));
        // All records still reachable.
        assert_eq!(stats.live_records, 40);
        seldel_chain::validate_chain(ledger.chain(), &seldel_chain::ValidationOptions::default())
            .unwrap();
    }

    #[test]
    fn deletion_flow_end_to_end() {
        let mut ledger = paper_ledger();
        let alice = key(1);
        let bravo = key(2);
        // Block 1: entries 0 (alice), 1 (bravo).
        ledger
            .submit_entry(Entry::sign_data(&alice, data("ALPHA", 1)))
            .unwrap();
        ledger
            .submit_entry(Entry::sign_data(&bravo, data("BRAVO", 2)))
            .unwrap();
        ledger.seal_block(Timestamp(10)).unwrap();
        let target = EntryId::new(BlockNumber(1), EntryNumber(1));

        // Bravo requests deletion of their own entry.
        ledger.request_deletion(&bravo, target, "gdpr").unwrap();
        ledger.seal_block(Timestamp(30)).unwrap(); // block 3 (after Σ2)
        assert!(ledger.deletion_status(target).is_some());
        assert!(!ledger.is_live(target));
        // Data still physically present (delayed deletion).
        assert!(ledger.record(target).is_some());

        // Grow until the sequence holding block 1 is merged out.
        let mut executed = false;
        for i in 0..20u64 {
            ledger.seal_block(Timestamp(40 + i * 10)).unwrap();
            if ledger.drain_events().iter().any(
                |e| matches!(e, LedgerEvent::DeletionExecuted { target: t, .. } if *t == target),
            ) {
                executed = true;
                break;
            }
        }
        assert!(executed, "deletion was never executed");
        assert!(ledger.record(target).is_none(), "record must be gone");
        // Alice's neighbouring entry survived the merge.
        assert!(ledger
            .record(EntryId::new(BlockNumber(1), EntryNumber(0)))
            .is_some());
    }

    #[test]
    fn foreign_deletion_rejected_for_users() {
        let mut ledger = paper_ledger();
        let alice = key(1);
        let bravo = key(2);
        ledger
            .submit_entry(Entry::sign_data(&alice, data("ALPHA", 1)))
            .unwrap();
        ledger.seal_block(Timestamp(10)).unwrap();
        let target = EntryId::new(BlockNumber(1), EntryNumber(0));
        let err = ledger.request_deletion(&bravo, target, "").unwrap_err();
        assert!(matches!(err, CoreError::NotAuthorized(_)));
    }

    #[test]
    fn admin_may_delete_foreign_entries() {
        let admin = key(9);
        let alice = key(1);
        let roles = RoleTable::new().with(admin.verifying_key(), Role::Admin);
        let mut ledger = SelectiveLedger::builder(ChainConfig::paper_evaluation())
            .roles(roles)
            .build();
        ledger
            .submit_entry(Entry::sign_data(&alice, data("ALPHA", 1)))
            .unwrap();
        ledger.seal_block(Timestamp(10)).unwrap();
        ledger
            .request_deletion(
                &admin,
                EntryId::new(BlockNumber(1), EntryNumber(0)),
                "illegal content",
            )
            .unwrap();
    }

    #[test]
    fn ineffective_deletion_included_without_effect() {
        // Raw submission of an invalid delete request: included on chain,
        // no mark, DeletionIneffective event (paper §V).
        let mut ledger = paper_ledger();
        let alice = key(1);
        let bravo = key(2);
        ledger
            .submit_entry(Entry::sign_data(&alice, data("ALPHA", 1)))
            .unwrap();
        ledger.seal_block(Timestamp(10)).unwrap();
        let target = EntryId::new(BlockNumber(1), EntryNumber(0));
        // Bravo forges a raw delete entry bypassing request_deletion.
        let entry = Entry::sign_delete(&bravo, DeleteRequest::new(target, "not mine"));
        ledger.submit_entry(entry).unwrap();
        ledger.seal_block(Timestamp(20)).unwrap();
        assert!(ledger.deletion_status(target).is_none());
        assert!(ledger
            .drain_events()
            .iter()
            .any(|e| matches!(e, LedgerEvent::DeletionIneffective { .. })));
        assert!(ledger.is_live(target));
    }

    #[test]
    fn entries_on_marked_data_rejected() {
        let mut ledger = paper_ledger();
        let alice = key(1);
        ledger
            .submit_entry(Entry::sign_data(&alice, data("ALPHA", 1)))
            .unwrap();
        ledger.seal_block(Timestamp(10)).unwrap();
        let target = EntryId::new(BlockNumber(1), EntryNumber(0));
        ledger.request_deletion(&alice, target, "").unwrap();
        ledger.seal_block(Timestamp(20)).unwrap();
        // A new entry depending on the marked data must be refused.
        let dependent = Entry::sign_data_with(&alice, data("ALPHA", 2), None, vec![target]);
        assert!(matches!(
            ledger.submit_entry(dependent),
            Err(CoreError::DependsOnDeleted(_))
        ));
    }

    #[test]
    fn dependent_entries_block_foreign_deletion() {
        let mut ledger = paper_ledger();
        let alice = key(1);
        ledger
            .submit_entry(Entry::sign_data(&alice, data("ALPHA", 1)))
            .unwrap();
        ledger.seal_block(Timestamp(10)).unwrap();
        let base = EntryId::new(BlockNumber(1), EntryNumber(0));
        // Bravo builds on Alice's entry.
        let bravo = key(2);
        ledger
            .submit_entry(Entry::sign_data_with(
                &bravo,
                data("BRAVO", 2),
                None,
                vec![base],
            ))
            .unwrap();
        ledger.seal_block(Timestamp(20)).unwrap();
        // Alice deleting her own entry is blocked by Bravo's dependent.
        let err = ledger.request_deletion(&alice, base, "").unwrap_err();
        assert!(matches!(err, CoreError::Cohesion(_)));
        // With Bravo's co-signature it goes through.
        let mut request = DeleteRequest::new(base, "approved");
        let sig = bravo.sign(&request.cosign_message());
        request = request.with_cosignature(bravo.verifying_key(), sig);
        ledger.request_deletion_with(&alice, request).unwrap();
    }

    #[test]
    fn duplicate_deletion_rejected() {
        let mut ledger = paper_ledger();
        let alice = key(1);
        ledger
            .submit_entry(Entry::sign_data(&alice, data("ALPHA", 1)))
            .unwrap();
        ledger.seal_block(Timestamp(10)).unwrap();
        let target = EntryId::new(BlockNumber(1), EntryNumber(0));
        ledger.request_deletion(&alice, target, "").unwrap();
        ledger.seal_block(Timestamp(20)).unwrap();
        assert!(matches!(
            ledger.request_deletion(&alice, target, ""),
            Err(CoreError::DuplicateDeletion(_))
        ));
    }

    #[test]
    fn temporary_entries_expire() {
        let mut ledger = paper_ledger();
        let alice = key(1);
        let entry = Entry::sign_data_with(
            &alice,
            data("ALPHA", 1),
            Some(Expiry::AtTimestamp(Timestamp(25))),
            vec![],
        );
        ledger.submit_entry(entry).unwrap();
        ledger.seal_block(Timestamp(10)).unwrap();
        let id = EntryId::new(BlockNumber(1), EntryNumber(0));
        assert!(ledger.record(id).is_some());
        // Keep sealing until the merge drops the expired record.
        for i in 0..20u64 {
            ledger.seal_block(Timestamp(30 + i * 10)).unwrap();
            if ledger.record(id).is_none() {
                break;
            }
        }
        assert!(ledger.record(id).is_none(), "expired entry survived");
        assert!(ledger.stats().expired_records >= 1);
    }

    #[test]
    fn idle_filler_appends_blocks() {
        let mut config = ChainConfig::paper_evaluation();
        config.idle_fill = Some(IdleFillPolicy { max_idle_ms: 50 });
        let mut ledger = SelectiveLedger::builder(config).build();
        let appended = ledger.tick(Timestamp(220));
        assert!(appended >= 4, "appended {appended}");
        // Summaries were auto-inserted too.
        assert!(ledger.stats().summaries_created >= 1);
        // No filler without enough idle time.
        assert_eq!(ledger.tick(Timestamp(230)), 0);
    }

    #[test]
    fn schema_enforcement() {
        let mut schemas = SchemaRegistry::new();
        schemas
            .register_yaml("record: login\nfields:\n  user: str\n  n: u64\n")
            .unwrap();
        let mut ledger = SelectiveLedger::builder(ChainConfig::paper_evaluation())
            .schemas(schemas)
            .build();
        let alice = key(1);
        ledger
            .submit_entry(Entry::sign_data(&alice, data("ALPHA", 1)))
            .unwrap();
        let bad = Entry::sign_data(&alice, DataRecord::new("login").with("wrong", 1u64));
        assert!(matches!(
            ledger.submit_entry(bad),
            Err(CoreError::Schema(_))
        ));
        let unknown = Entry::sign_data(&alice, DataRecord::new("mystery").with("x", 1u64));
        assert!(matches!(
            ledger.submit_entry(unknown),
            Err(CoreError::Schema(_))
        ));
    }

    #[test]
    fn unknown_dependency_rejected() {
        let mut ledger = paper_ledger();
        let alice = key(1);
        let entry = Entry::sign_data_with(
            &alice,
            data("A", 1),
            None,
            vec![EntryId::new(BlockNumber(77), EntryNumber(0))],
        );
        assert!(matches!(
            ledger.submit_entry(entry),
            Err(CoreError::UnknownDependency(_))
        ));
    }

    #[test]
    fn timestamp_regression_rejected() {
        let mut ledger = paper_ledger();
        ledger.seal_block(Timestamp(100)).unwrap();
        assert!(matches!(
            ledger.seal_block(Timestamp(50)),
            Err(CoreError::TimestampTooOld { .. })
        ));
    }

    #[test]
    fn stats_are_consistent() {
        let mut ledger = paper_ledger();
        let alice = key(1);
        grow(&mut ledger, 10, &[&alice]);
        let stats = ledger.stats();
        assert_eq!(
            stats.blocks_appended,
            stats.live_blocks + stats.retired_blocks
        );
        assert_eq!(stats.tip.value() + 1, stats.blocks_appended);
    }

    #[test]
    fn external_blocks_apply_and_summaries_stay_local() {
        // Build a source ledger, replay its normal blocks into a replica;
        // both must derive identical summary blocks (I2).
        let mut source = paper_ledger();
        let alice = key(1);
        grow(&mut source, 8, &[&alice]);

        let replica = paper_ledger();
        // Collect source's non-summary blocks in order. Note: pruning may
        // have removed early blocks, so replay only works while the replica
        // tracks live history; use a fresh unpruned config for the test.
        let mut source2 = SelectiveLedger::builder(ChainConfig {
            retention: RetentionPolicy::keep_forever(),
            ..ChainConfig::paper_evaluation()
        })
        .build();
        let mut replica2 = SelectiveLedger::builder(ChainConfig {
            retention: RetentionPolicy::keep_forever(),
            ..ChainConfig::paper_evaluation()
        })
        .build();
        for i in 1..=8u64 {
            source2
                .submit_entry(Entry::sign_data(&alice, data("A", i)))
                .unwrap();
            source2.seal_block(Timestamp(i * 10)).unwrap();
        }
        for block in source2.chain().iter() {
            match block.kind() {
                BlockKind::Normal | BlockKind::Empty => {
                    replica2.apply_block(block.block().clone()).unwrap();
                }
                _ => {} // genesis pre-exists; summaries derived locally
            }
        }
        assert_eq!(
            source2.chain().tip().hash(),
            replica2.chain().tip().hash(),
            "replica derived different summary blocks"
        );
        let _ = replica; // silence unused
    }

    #[test]
    fn correct_entry_replaces_wrong_data() {
        let mut ledger = paper_ledger();
        let alice = key(1);
        ledger
            .submit_entry(Entry::sign_data(&alice, data("ALHPA", 1))) // typo
            .unwrap();
        ledger.seal_block(Timestamp(10)).unwrap();
        let wrong = EntryId::new(BlockNumber(1), EntryNumber(0));

        ledger
            .correct_entry(&alice, wrong, data("ALPHA", 1))
            .unwrap();
        let block = ledger.seal_block(Timestamp(20)).unwrap();

        // The correction block holds the delete request + the new entry.
        let sealed = ledger.chain().get(block).unwrap();
        assert_eq!(sealed.entries().len(), 2);
        assert!(sealed.entries()[0].is_delete_request());
        // Old data marked; new data live under its new id.
        assert!(!ledger.is_live(wrong));
        let corrected = EntryId::new(block, EntryNumber(1));
        assert_eq!(
            ledger
                .record(corrected)
                .unwrap()
                .get("user")
                .unwrap()
                .as_str(),
            Some("ALPHA")
        );
        // The wrong record physically disappears at a later merge.
        for i in 3..=14u64 {
            ledger.seal_block(Timestamp(i * 10)).unwrap();
        }
        assert!(ledger.record(wrong).is_none());
        assert!(ledger.record(corrected).is_some());
    }

    #[test]
    fn correct_entry_requires_authorisation() {
        let mut ledger = paper_ledger();
        let alice = key(1);
        let bravo = key(2);
        ledger
            .submit_entry(Entry::sign_data(&alice, data("ALPHA", 1)))
            .unwrap();
        ledger.seal_block(Timestamp(10)).unwrap();
        let target = EntryId::new(BlockNumber(1), EntryNumber(0));
        let err = ledger
            .correct_entry(&bravo, target, data("MALLORY", 1))
            .unwrap_err();
        assert!(matches!(err, CoreError::NotAuthorized(_)));
        // Nothing was enqueued.
        assert_eq!(ledger.stats().pending_entries, 0);
    }

    #[test]
    fn offchain_references_flow_through_ledger() {
        use crate::offchain::{ContentStore, OFFCHAIN_SCHEMA_YAML};

        let mut schemas = SchemaRegistry::new();
        schemas.register_yaml(OFFCHAIN_SCHEMA_YAML).unwrap();
        let mut ledger = SelectiveLedger::builder(ChainConfig::paper_evaluation())
            .schemas(schemas)
            .build();
        let alice = key(1);
        let mut store = ContentStore::new();

        // Large payload stays off-chain; only the reference is recorded.
        let reference = store.put("medical-report", vec![0x5A; 100_000]);
        ledger
            .submit_entry(Entry::sign_data(&alice, reference.clone()))
            .unwrap();
        ledger.seal_block(Timestamp(10)).unwrap();
        let id = EntryId::new(BlockNumber(1), EntryNumber(0));

        // Resolvable through the chain-stored reference.
        let stored_ref = ledger.record(id).unwrap().clone();
        assert_eq!(store.resolve(&stored_ref).unwrap().len(), 100_000);
        // The block is tiny compared to the payload.
        assert!(ledger.chain().get(BlockNumber(1)).unwrap().byte_size() < 1024);

        // Erasure: blob dropped immediately; reference deleted on-chain.
        let digest = ContentStore::reference_digest(&stored_ref).unwrap();
        assert!(store.erase(&digest));
        assert!(store.resolve(&stored_ref).is_err());
        ledger.request_deletion(&alice, id, "erasure").unwrap();
        ledger.seal_block(Timestamp(20)).unwrap();
        for i in 3..=14u64 {
            ledger.seal_block(Timestamp(i * 10)).unwrap();
        }
        assert!(ledger.record(id).is_none());
    }

    #[test]
    fn adopt_chain_rejects_tampered_input_and_stays_unchanged() {
        let alice = key(1);
        let mut source = paper_ledger();
        source
            .submit_entry(Entry::sign_data(&alice, data("A", 1)))
            .unwrap();
        source.seal_block(Timestamp(10)).unwrap();

        let mut joiner = paper_ledger();
        joiner
            .submit_entry(Entry::sign_data(&alice, data("B", 2)))
            .unwrap();
        joiner.seal_block(Timestamp(10)).unwrap();
        let before_tip = joiner.chain().tip().hash();

        // Tamper with a middle block: linkage breaks.
        let mut blocks = source.chain().export_blocks();
        blocks[1] = Block::new(
            blocks[1].number(),
            blocks[1].timestamp() + 1,
            blocks[1].header().prev_hash,
            blocks[1].body().clone(),
        );
        assert!(joiner.adopt_chain(blocks).is_err());
        // Ledger unchanged on failure.
        assert_eq!(joiner.chain().tip().hash(), before_tip);
    }

    #[test]
    fn sealing_empty_mempool_creates_empty_block() {
        let mut ledger = paper_ledger();
        let number = ledger.seal_block(Timestamp(10)).unwrap();
        assert_eq!(ledger.chain().get(number).unwrap().kind(), BlockKind::Empty);
    }

    #[test]
    fn events_report_the_block_lifecycle_in_order() {
        let mut ledger = paper_ledger();
        let alice = key(1);
        ledger
            .submit_entry(Entry::sign_data(&alice, data("A", 1)))
            .unwrap();
        ledger.seal_block(Timestamp(10)).unwrap();
        let events = ledger.drain_events();
        assert!(matches!(
            events[0],
            LedgerEvent::BlockSealed { entries: 1, .. }
        ));
        assert!(matches!(events[1], LedgerEvent::SummaryCreated { .. }));
        // Drained: second call yields nothing.
        assert!(ledger.drain_events().is_empty());
    }

    #[test]
    fn tick_without_idle_policy_is_noop() {
        let mut ledger = paper_ledger();
        assert_eq!(ledger.tick(Timestamp(10_000)), 0);
        assert_eq!(ledger.chain().len(), 1);
    }

    use seldel_chain::testutil::ScratchDir as Scratch;

    fn file_ledger(dir: &std::path::Path) -> SelectiveLedger<seldel_chain::FileStore> {
        SelectiveLedger::builder(ChainConfig::paper_evaluation())
            .store_backend::<seldel_chain::FileStore>()
            .on_disk_with_capacity(dir, 4)
            .unwrap()
    }

    /// Drives the same workload into any ledger (the typed `grow` helper
    /// above is MemStore-specific).
    fn grow_in<S: seldel_chain::BlockStore>(
        ledger: &mut SelectiveLedger<S>,
        blocks: u64,
        user: &SigningKey,
    ) {
        for _ in 0..blocks {
            let next_ts = Timestamp((ledger.stats().blocks_appended + 1) * 10);
            let n = ledger.stats().blocks_appended * 10;
            ledger
                .submit_entry(Entry::sign_data(user, data("U", n)))
                .unwrap();
            ledger.seal_block(next_ts).unwrap();
        }
    }

    #[test]
    fn on_disk_ledger_reopens_bit_identical_to_mem_store() {
        let scratch = Scratch::new("reopen");
        let alice = key(1);
        let mut mem = paper_ledger();
        let mut durable = file_ledger(scratch.path());
        grow_in(&mut mem, 25, &alice);
        grow_in(&mut durable, 25, &alice);
        assert_eq!(mem.chain().export_bytes(), durable.chain().export_bytes());
        drop(durable);

        let reopened = file_ledger(scratch.path());
        // The acceptance bar: bit-identical blocks, Σ summaries, entry
        // index and sealed hashes versus the never-closed MemStore chain.
        assert_eq!(mem.chain().export_bytes(), reopened.chain().export_bytes());
        assert_eq!(mem.chain().tip_hash(), reopened.chain().tip_hash());
        assert_eq!(
            mem.chain().entry_index().iter().collect::<Vec<_>>(),
            reopened.chain().entry_index().iter().collect::<Vec<_>>()
        );
        assert!(mem
            .chain()
            .iter_sealed()
            .map(|sealed| sealed.hash())
            .eq(reopened.chain().iter_sealed().map(|sealed| sealed.hash())));
        assert_eq!(mem.stats().marker, reopened.stats().marker);
        assert_eq!(mem.stats().live_records, reopened.stats().live_records);
        assert_eq!(
            mem.stats().blocks_appended,
            reopened.stats().blocks_appended
        );
        assert_eq!(mem.stats().retired_blocks, reopened.stats().retired_blocks);
    }

    #[test]
    fn recovery_rederives_pending_deletion_marks() {
        let scratch = Scratch::new("marks");
        let alice = key(1);
        let mut durable = file_ledger(scratch.path());
        durable
            .submit_entry(Entry::sign_data(&alice, data("ALPHA", 1)))
            .unwrap();
        durable.seal_block(Timestamp(10)).unwrap();
        let target = EntryId::new(BlockNumber(1), EntryNumber(0));
        durable.request_deletion(&alice, target, "gdpr").unwrap();
        durable.seal_block(Timestamp(30)).unwrap();
        assert!(durable.deletion_status(target).is_some());
        assert!(durable.record(target).is_some(), "delayed, not yet gone");
        drop(durable);

        // Restart: the mark must be re-derived from the on-chain request.
        let mut reopened = file_ledger(scratch.path());
        assert!(reopened.deletion_status(target).is_some());
        assert!(!reopened.is_live(target));
        // And the delayed deletion still executes physically.
        let mut executed = false;
        for i in 0..20u64 {
            reopened.seal_block(Timestamp(40 + i * 10)).unwrap();
            if reopened.record(target).is_none() {
                executed = true;
                break;
            }
        }
        assert!(executed, "recovered deletion never executed");
    }

    #[test]
    fn reopening_continues_the_chain_and_stays_durable() {
        let scratch = Scratch::new("resume");
        let alice = key(1);
        let mut mem = paper_ledger();
        // Two sessions on the same directory, one continuous MemStore run.
        let mut durable = file_ledger(scratch.path());
        grow_in(&mut mem, 10, &alice);
        grow_in(&mut durable, 10, &alice);
        drop(durable);
        let mut durable = file_ledger(scratch.path());
        grow_in(&mut mem, 10, &alice);
        grow_in(&mut durable, 10, &alice);
        drop(durable);
        let reopened = file_ledger(scratch.path());
        assert_eq!(mem.chain().export_bytes(), reopened.chain().export_bytes());
    }

    #[test]
    fn adopt_chain_keeps_the_durable_root() {
        let scratch = Scratch::new("adopt");
        let alice = key(1);
        let mut source = paper_ledger();
        grow_in(&mut source, 6, &alice);

        let mut joiner = file_ledger(scratch.path());
        joiner.adopt_chain(source.chain().export_blocks()).unwrap();
        assert_eq!(joiner.chain().tip_hash(), source.chain().tip_hash());
        drop(joiner);
        // The adopted chain lives in the same directory.
        let reopened = file_ledger(scratch.path());
        assert_eq!(
            reopened.chain().export_bytes(),
            source.chain().export_bytes()
        );
    }

    #[test]
    fn open_store_rejects_tampered_directories() {
        let scratch = Scratch::new("tamper");
        let alice = key(1);
        let mut durable = file_ledger(scratch.path());
        grow_in(&mut durable, 6, &alice);
        drop(durable);
        // Flip a byte inside the first segment file's frames: either the
        // frame decodes to a block failing validation, or decoding breaks.
        let seg = std::fs::read_dir(scratch.path())
            .unwrap()
            .filter_map(|e| {
                let p = e.unwrap().path();
                p.file_name()?.to_str()?.starts_with("seg-").then_some(p)
            })
            .min()
            .unwrap();
        let mut bytes = std::fs::read(&seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&seg, bytes).unwrap();
        let result = SelectiveLedger::builder(ChainConfig::paper_evaluation())
            .store_backend::<seldel_chain::FileStore>()
            .on_disk(scratch.path());
        assert!(result.is_err(), "tampered directory must be rejected");
    }

    #[test]
    fn duplicate_pending_entry_rejected_until_sealed() {
        let mut ledger = paper_ledger();
        let alice = key(1);
        let entry = Entry::sign_data(&alice, data("ALPHA", 1));
        ledger.submit_entry(entry.clone()).unwrap();
        assert!(matches!(
            ledger.submit_entry(entry.clone()),
            Err(CoreError::DuplicatePending)
        ));
        assert_eq!(ledger.stats().pending_entries, 1);
        ledger.seal_block(Timestamp(10)).unwrap();
        // No longer pending: the same bytes are accepted again.
        ledger.submit_entry(entry).unwrap();
    }

    #[test]
    fn capped_seal_drains_fairly_and_keeps_the_overflow() {
        use seldel_chain::testutil::distinct_shard_author_seeds;
        use seldel_chain::ShardMap;
        let mut ledger = SelectiveLedger::builder(ChainConfig {
            max_block_entries: Some(3),
            ..ChainConfig::paper_evaluation()
        })
        .build();

        // Two authors on distinct mempool shards; the first floods.
        let seeds = distinct_shard_author_seeds(ShardMap::new(DEFAULT_SHARD_COUNT), 2);
        let (hot, quiet) = (key(seeds[0]), key(seeds[1]));
        for n in 0..8u64 {
            ledger
                .submit_entry(Entry::sign_data(&hot, data("HOT", n)))
                .unwrap();
        }
        ledger
            .submit_entry(Entry::sign_data(&quiet, data("QUIET", 100)))
            .unwrap();

        let number = ledger.seal_block(Timestamp(10)).unwrap();
        let sealed = ledger.chain().get(number).unwrap();
        assert_eq!(sealed.entries().len(), 3);
        assert!(
            sealed
                .entries()
                .iter()
                .any(|e| e.author() == quiet.verifying_key()),
            "quiet author must get a slot in the capped block"
        );
        assert_eq!(ledger.stats().pending_entries, 6);
        // The overflow seals in later blocks; nothing is lost.
        let mut ts = 20;
        while ledger.stats().pending_entries > 0 {
            ledger.seal_block(Timestamp(ts)).unwrap();
            ts += 10;
        }
        assert_eq!(ledger.chain().record_count(), 9);
    }

    #[test]
    fn correction_refused_as_a_unit_when_the_replacement_is_pending() {
        // Regression guard: correct_entry enqueues a deletion + a
        // replacement. If the replacement is refused as a pending
        // duplicate, the deletion must not stay behind — half a
        // correction would delete the target without replacing it.
        let mut ledger = paper_ledger();
        let alice = key(1);
        ledger
            .submit_entry(Entry::sign_data(&alice, data("ALHPA", 1)))
            .unwrap();
        ledger.seal_block(Timestamp(10)).unwrap();
        let wrong = EntryId::new(BlockNumber(1), EntryNumber(0));

        // The replacement bytes are already waiting in the mempool.
        ledger
            .submit_entry(Entry::sign_data(&alice, data("ALPHA", 1)))
            .unwrap();
        assert!(matches!(
            ledger.correct_entry(&alice, wrong, data("ALPHA", 1)),
            Err(CoreError::DuplicatePending)
        ));
        assert_eq!(
            ledger.stats().pending_entries,
            1,
            "the correction's deletion half must not linger"
        );
        ledger.seal_block(Timestamp(20)).unwrap();
        assert!(ledger.is_live(wrong), "target must not be deletion-marked");
    }

    #[test]
    fn capped_seal_never_splits_a_correction_pair() {
        // The deletion + replacement bundle must land in ONE block even
        // when the capacity cap would otherwise cut between them — a
        // crash after sealing the deletion alone would leave a durable
        // half-correction.
        let mut ledger = SelectiveLedger::builder(ChainConfig {
            max_block_entries: Some(1),
            ..ChainConfig::paper_evaluation()
        })
        .build();
        let alice = key(1);
        ledger
            .submit_entry(Entry::sign_data(&alice, data("ALHPA", 1)))
            .unwrap();
        ledger.seal_block(Timestamp(10)).unwrap();
        let wrong = EntryId::new(BlockNumber(1), EntryNumber(0));

        ledger
            .correct_entry(&alice, wrong, data("ALPHA", 1))
            .unwrap();
        let number = ledger.seal_block(Timestamp(20)).unwrap();
        let sealed = ledger.chain().get(number).unwrap();
        assert_eq!(
            sealed.entries().len(),
            2,
            "the bundle may overshoot the cap but never split"
        );
        assert!(sealed.entries()[0].is_delete_request());
        assert!(!ledger.is_live(wrong));
        let corrected = EntryId::new(number, EntryNumber(1));
        assert!(ledger.is_live(corrected));
    }

    #[test]
    fn audit_live_matches_elementwise_is_live() {
        let mut ledger = paper_ledger();
        let alice = key(1);
        grow(&mut ledger, 6, &[&alice]);
        let target = EntryId::new(BlockNumber(1), EntryNumber(0));
        ledger.request_deletion(&alice, target, "gdpr").unwrap();
        ledger.seal_block(Timestamp(1_000)).unwrap();

        let mut ids: Vec<EntryId> = ledger
            .chain()
            .live_records()
            .iter()
            .map(|(id, _)| *id)
            .collect();
        ids.push(EntryId::new(BlockNumber(99), EntryNumber(0))); // ghost
        ids.push(target); // marked
        let audited = ledger.audit_live(&ids);
        assert_eq!(audited.len(), ids.len());
        for (id, live) in ids.iter().zip(&audited) {
            assert_eq!(*live, ledger.is_live(*id), "id {id}");
        }
        // locate_many agrees with element-wise locate.
        let located = ledger.locate_many(&ids);
        for (id, loc) in ids.iter().zip(&located) {
            assert_eq!(*loc, ledger.locate(*id), "id {id}");
        }
    }

    #[test]
    fn apply_block_rejects_summary_blocks() {
        let mut a = paper_ledger();
        let mut b = paper_ledger();
        let alice = key(1);
        grow(&mut a, 2, &[&alice]);
        let summary = a
            .chain()
            .iter()
            .find(|blk| blk.kind() == BlockKind::Summary)
            .unwrap()
            .block()
            .clone();
        // Force the replica to tip 1 so numbers could line up; it must be
        // rejected on kind grounds regardless.
        grow(&mut b, 1, &[&alice]);
        assert!(b.apply_block(summary).is_err());
    }

    use crate::policy::Selector;

    #[test]
    fn policy_dry_run_and_apply_agree_and_erase() {
        let admin = key(9);
        let alice = key(1);
        let bravo = key(2);
        let roles = RoleTable::new().with(admin.verifying_key(), Role::Admin);
        let mut ledger = SelectiveLedger::builder(ChainConfig::paper_evaluation())
            .roles(roles)
            .build();
        for i in 0..4u64 {
            ledger
                .submit_entry(Entry::sign_data(&alice, data("ALPHA", i)))
                .unwrap();
            ledger
                .submit_entry(Entry::sign_data(
                    &bravo,
                    DataRecord::new("audit").with("n", i),
                ))
                .unwrap();
            let ts = Timestamp((ledger.stats().blocks_appended + 1) * 10);
            ledger.seal_block(ts).unwrap();
        }
        let policy = Selector::And(vec![
            Selector::AuthorIs(alice.verifying_key()),
            Selector::SchemaIs("login".into()),
        ])
        .compile("purge-alice")
        .unwrap();

        let dry = ledger.plan_policy(&admin.verifying_key(), &policy);
        assert_eq!(dry.len(), 4);
        assert!(dry.blocked.is_empty());
        assert!(dry.matched_bytes > 0);
        assert_eq!(dry.per_tenant.len(), 1);
        let slice = dry.per_tenant[&alice.verifying_key().to_bytes()];
        assert_eq!(slice.count, 4);
        assert_eq!(slice.bytes, dry.matched_bytes);
        let mut sorted = dry.matched.clone();
        sorted.sort();
        assert_eq!(sorted, dry.matched, "matched ids are sorted");
        // Dry run mutates nothing.
        assert_eq!(ledger.stats().pending_entries, 0);
        assert_eq!(ledger.stats().pending_deletions, 0);

        let applied = ledger.apply_policy(&admin, &policy).unwrap();
        assert_eq!(applied, dry, "dry-run and apply agree exactly");
        assert_eq!(ledger.stats().pending_entries, dry.len());
        // Re-applying before sealing skips the pending duplicates.
        let again = ledger.apply_policy(&admin, &policy).unwrap();
        assert_eq!(again.matched, dry.matched);
        assert_eq!(ledger.stats().pending_entries, dry.len());

        // Drive to physical execution via the normal lifecycle.
        let mut ts = 1_000;
        for _ in 0..30 {
            ledger.seal_block(Timestamp(ts)).unwrap();
            ts += 10;
        }
        assert!(
            ledger.audit_live(&dry.matched).iter().all(|live| !live),
            "all matched ids must be erased"
        );
        for id in &dry.matched {
            assert!(ledger.record(*id).is_none(), "{id} must be physically gone");
        }
        // Bravo's records survived the sweep.
        let survivors = policy::sweep_candidates(ledger.chain());
        assert_eq!(
            survivors
                .iter()
                .filter(|c| c.author == bravo.verifying_key())
                .count(),
            4
        );
        assert!(!survivors.iter().any(|c| c.author == alice.verifying_key()));
    }

    #[test]
    fn policy_reports_blocked_hits_instead_of_dropping_them() {
        let admin = key(9);
        let alice = key(1);
        let bravo = key(2);
        let roles = RoleTable::new().with(admin.verifying_key(), Role::Admin);
        let mut ledger = SelectiveLedger::builder(ChainConfig::paper_evaluation())
            .roles(roles)
            .build();
        ledger
            .submit_entry(Entry::sign_data(&alice, data("ALPHA", 1)))
            .unwrap();
        ledger.seal_block(Timestamp(10)).unwrap();
        let anchor_id = EntryId::new(BlockNumber(1), EntryNumber(0));
        // A live foreign dependent blocks deletion of the anchor (§IV-D2).
        ledger
            .submit_entry(Entry::sign_data_with(
                &bravo,
                DataRecord::new("audit").with("ref", 1u64),
                None,
                vec![anchor_id],
            ))
            .unwrap();
        ledger.seal_block(Timestamp(20)).unwrap();

        let policy = Selector::AuthorIs(alice.verifying_key())
            .compile("purge-alice")
            .unwrap();
        let plan = ledger.plan_policy(&admin.verifying_key(), &policy);
        assert!(plan.is_empty());
        assert_eq!(plan.blocked.len(), 1);
        assert_eq!(plan.blocked[0].0, anchor_id);
        assert!(!plan.blocked[0].1.is_empty(), "refusal carries a reason");
        // Apply refuses the same id the same way — nothing enqueued.
        let applied = ledger.apply_policy(&admin, &policy).unwrap();
        assert_eq!(applied, plan);
        assert_eq!(ledger.stats().pending_entries, 0);
        assert!(ledger.is_live(anchor_id));
    }

    #[test]
    fn registered_policies_are_tenant_scoped() {
        let mut ledger = paper_ledger();
        let alice = key(1);
        let bravo = key(2);
        grow(&mut ledger, 3, &[&alice, &bravo]);
        // A deliberately over-broad selector: everything ever written.
        let broad = Selector::OlderThan(Timestamp(1_000_000))
            .compile("ttl-sweep")
            .unwrap();
        ledger.register_policy(&alice.verifying_key(), broad);
        assert!(ledger.registered_policy(&alice.verifying_key()).is_some());
        assert!(ledger.plan_registered(&bravo.verifying_key()).is_none());

        let plan = ledger.plan_registered(&alice.verifying_key()).unwrap();
        assert_eq!(plan.len(), 3, "alice's three entries, nobody else's");
        assert_eq!(plan.per_tenant.len(), 1);
        assert!(plan
            .per_tenant
            .contains_key(&alice.verifying_key().to_bytes()));

        let applied = ledger.apply_registered(&alice).unwrap().unwrap();
        assert_eq!(applied.matched(), plan.matched());
        // Bravo's entries are never touched by alice's registered sweep.
        let mut ts = 1_000;
        for _ in 0..30 {
            ledger.seal_block(Timestamp(ts)).unwrap();
            ts += 10;
        }
        let survivors = policy::sweep_candidates(ledger.chain());
        assert_eq!(
            survivors
                .iter()
                .filter(|c| c.author == bravo.verifying_key())
                .count(),
            3
        );
    }

    #[test]
    fn registry_compacts_executed_and_reopens_bit_identical() {
        let scratch = Scratch::new("registry-compaction");
        let alice = key(1);
        let mut durable = file_ledger(scratch.path());
        let mut requested = 0usize;
        for round in 0..40u64 {
            durable
                .submit_entry(Entry::sign_data(&alice, data("U", round)))
                .unwrap();
            let ts = Timestamp((durable.stats().blocks_appended + 1) * 10);
            let sealed = durable.seal_block(ts).unwrap();
            if round % 4 == 0 {
                let target = EntryId::new(sealed, EntryNumber(0));
                if durable.request_deletion(&alice, target, "cycle").is_ok() {
                    requested += 1;
                }
            }
        }
        let stats = durable.stats();
        assert!(requested >= 8);
        assert!(stats.executed_deletions > 0, "cycles must have executed");
        // Bounded: every executed record was compacted at its merge, so
        // the registry holds exactly the still-pending marks — its size is
        // a function of live-chain contents, not chain age.
        assert_eq!(durable.deletions.executed_count(), 0);
        assert_eq!(durable.deletions.len(), durable.deletions.pending_count());
        assert!(
            durable.deletions.len() < requested,
            "registry must not accumulate one record per historical request"
        );

        let before: Vec<DeletionRecord> = durable.deletions.iter().cloned().collect();
        drop(durable);
        // The acceptance bar: a close/reopen derives the registry from the
        // live blocks alone, bit-identical to the compacted long-runner.
        let reopened = file_ledger(scratch.path());
        let after: Vec<DeletionRecord> = reopened.deletions.iter().cloned().collect();
        assert_eq!(before, after);
        // The executed counter is per-session by design; the registry
        // contents are what must agree.
        assert_eq!(reopened.stats().executed_deletions, 0);
    }

    #[test]
    fn audit_live_answers_duplicates_elementwise() {
        let mut ledger = paper_ledger();
        let alice = key(1);
        grow(&mut ledger, 4, &[&alice]);
        let marked = EntryId::new(BlockNumber(1), EntryNumber(0));
        ledger.request_deletion(&alice, marked, "gdpr").unwrap();
        ledger.seal_block(Timestamp(1_000)).unwrap();
        let live = EntryId::new(BlockNumber(3), EntryNumber(0));
        let ghost = EntryId::new(BlockNumber(99), EntryNumber(0));

        // Each occurrence answers exactly like a lone query.
        let ids = vec![marked, live, marked, ghost, live, ghost, marked];
        let audited = ledger.audit_live(&ids);
        for (id, got) in ids.iter().zip(&audited) {
            assert_eq!(*got, ledger.is_live(*id), "id {id}");
        }
        let located = ledger.locate_many(&ids);
        for (id, loc) in ids.iter().zip(&located) {
            assert_eq!(*loc, ledger.locate(*id), "id {id}");
        }
    }
}
