//! The live blockchain β: a contiguous run of blocks starting at the
//! shifting genesis marker `m`.
//!
//! Block numbers never restart — after pruning, the front of the store is
//! simply a later number. "A Marker m is used to indicate the shifting
//! Genesis Block, holding the block number" (§IV-C); here the marker is the
//! number of the first retained block.
//!
//! Storage is pluggable ([`BlockStore`]; see [`crate::store`]) and the
//! chain maintains two derived structures incrementally:
//!
//! * a [`ShardedIndex`] (the [`EntryIndex`] partitioned by entry id; see
//!   [`crate::shard`]) mapping every live data set to its holder block, so
//!   [`Blockchain::locate`] is O(log n) instead of a full summary scan,
//!   and reopening a store rebuilds it during the one linkage walk;
//! * a cached digest per stored block ([`SealedBlock`]), computed once at
//!   push, so linkage checks, validation, summary derivation and Σ-hash
//!   sync checks never re-hash an immutable block.
//!
//! Both are derived state: rebuildable from the blocks, never hashed
//! (invariant I2 is untouched by indexes).

use seldel_codec::{Codec, DataRecord};

use crate::block::{Block, BlockKind};
use crate::entry::{Entry, EntryPayload};
use crate::error::ChainError;
use crate::index::{EntryIndex, Location};
use crate::shard::{ShardedIndex, DEFAULT_SHARD_COUNT};
use crate::store::{BlockRef, BlockStore, MemStore, SealedBlock};
use crate::summary::SummaryRecord;
use crate::types::{BlockNumber, EntryId, EntryNumber};

/// The slot inside the holder block a located data set occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LocatedSlot {
    /// Entry `i` of a live normal block.
    Entry(u32),
    /// Carried record `i` of a summary block.
    Record(u32),
}

/// Where a data set currently lives in the chain.
///
/// Holds a guard on the containing block ([`BlockRef`]) plus the slot the
/// data occupies, so paged backends can hand out cache-owned blocks
/// without copying the whole chain into memory. Accessors expose the
/// entry / record / data-record views the old enum variants carried.
#[derive(Debug, Clone)]
pub struct Located<'a> {
    holder: BlockRef<'a>,
    slot: LocatedSlot,
}

impl<'a> Located<'a> {
    fn in_block(holder: BlockRef<'a>, entry: u32) -> Located<'a> {
        Located {
            holder,
            slot: LocatedSlot::Entry(entry),
        }
    }

    fn in_summary(holder: BlockRef<'a>, record: u32) -> Located<'a> {
        Located {
            holder,
            slot: LocatedSlot::Record(record),
        }
    }

    /// Whether the data set is still inside its original (live) block.
    pub fn is_in_block(&self) -> bool {
        matches!(self.slot, LocatedSlot::Entry(_))
    }

    /// Whether the data set was carried forward into a summary block.
    pub fn is_in_summary(&self) -> bool {
        matches!(self.slot, LocatedSlot::Record(_))
    }

    /// The original entry, when the data set is still in its live block.
    pub fn entry(&self) -> Option<&Entry> {
        match self.slot {
            LocatedSlot::Entry(i) => self.holder.entries().get(i as usize),
            LocatedSlot::Record(_) => None,
        }
    }

    /// The carried record, when the data set lives in a summary block.
    pub fn record(&self) -> Option<&SummaryRecord> {
        match self.slot {
            LocatedSlot::Entry(_) => None,
            LocatedSlot::Record(i) => self.holder.summary_records().get(i as usize),
        }
    }

    /// The data record, regardless of where it lives (deletion-request
    /// entries have no data record).
    pub fn data(&self) -> Option<&DataRecord> {
        match self.slot {
            LocatedSlot::Entry(_) => self.entry()?.payload().as_data(),
            LocatedSlot::Record(_) => Some(self.record()?.record()),
        }
    }

    /// The author key of the located data set.
    pub fn author(&self) -> seldel_crypto::VerifyingKey {
        match self.slot {
            LocatedSlot::Entry(_) => self.entry().expect("slot in range").author(),
            LocatedSlot::Record(_) => self.record().expect("slot in range").author(),
        }
    }

    /// The block currently holding the data.
    pub fn holder(&self) -> &Block {
        self.holder.block()
    }

    /// The holder block with its cached digest, as a guard.
    pub fn holder_sealed(&self) -> &SealedBlock {
        &self.holder
    }
}

impl PartialEq for Located<'_> {
    fn eq(&self, other: &Self) -> bool {
        // The cached digest identifies the holder block; the slot pins the
        // position inside it. Cheaper than deep block comparison and
        // stable across backends.
        self.holder.hash() == other.holder.hash() && self.slot == other.slot
    }
}

impl Eq for Located<'_> {}

/// The linkage rules for a sealed block extending `prev` — shared by the
/// live append path ([`Blockchain::push`]) and the recovery path
/// ([`Blockchain::from_store`]), so a rule added to one can never be
/// missed by the other. Both sides are sealed: the payload-consistency
/// check compares the cached root against the header commitment instead of
/// re-hashing the body.
fn check_link(prev: &SealedBlock, sealed: &SealedBlock) -> Result<(), ChainError> {
    let block = sealed.block();
    let number = block.number();
    if number != prev.block().number().next() {
        return Err(ChainError::NonContiguousNumber {
            expected: prev.block().number().next(),
            found: number,
        });
    }
    if block.header().prev_hash != prev.hash() {
        return Err(ChainError::PrevHashMismatch { number });
    }
    match block.kind() {
        BlockKind::Summary => {
            if block.timestamp() != prev.block().timestamp() {
                return Err(ChainError::SummaryTimestampMismatch { number });
            }
        }
        BlockKind::Genesis => {
            return Err(ChainError::GenesisMisplaced { number });
        }
        _ => {
            if block.timestamp() < prev.block().timestamp() {
                return Err(ChainError::TimestampRegression { number });
            }
        }
    }
    if !sealed.is_payload_consistent() {
        return Err(ChainError::PayloadMismatch { number });
    }
    if !block.tombstones_sorted() {
        return Err(ChainError::TombstonesUnsorted { number });
    }
    Ok(())
}

/// The live chain, generic over its storage backend.
///
/// The default parameter keeps the historical spelling working: a plain
/// `Blockchain` is a [`MemStore`]-backed chain. Use
/// [`Blockchain::with_genesis`] / [`Blockchain::assemble`] with an explicit
/// type to pick another backend, e.g.
/// `Blockchain::<SegStore>::with_genesis(...)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Blockchain<S: BlockStore = MemStore> {
    store: S,
    index: ShardedIndex,
}

impl Blockchain {
    /// Starts a [`MemStore`]-backed chain from its first block (usually
    /// [`Block::genesis`]).
    pub fn new(first: Block) -> Blockchain {
        Blockchain::with_genesis(first)
    }

    /// Reconstructs a [`MemStore`]-backed chain from contiguous blocks
    /// (e.g. a sync response).
    ///
    /// # Errors
    ///
    /// Returns the first linkage violation found; `blocks` must be
    /// non-empty.
    pub fn from_blocks(blocks: Vec<Block>) -> Result<Blockchain, ChainError> {
        Blockchain::assemble(blocks)
    }
}

impl<S: BlockStore> Blockchain<S> {
    /// Starts a chain from its first block in an empty store of type `S`.
    pub fn with_genesis(first: Block) -> Blockchain<S> {
        Blockchain::with_genesis_in(S::default(), first)
    }

    /// Starts a chain from its first block in a caller-provided **empty**
    /// store — the way to root a chain in a durable backend (e.g. a
    /// [`FileStore`](crate::fstore::FileStore) opened on a fresh
    /// directory).
    ///
    /// # Panics
    ///
    /// Panics when `store` is not empty; reconstructing a chain from a
    /// pre-filled store is [`Blockchain::from_store`]'s job.
    pub fn with_genesis_in(mut store: S, first: Block) -> Blockchain<S> {
        assert!(
            store.is_empty(),
            "with_genesis_in requires an empty store; use from_store to reopen"
        );
        let mut index = ShardedIndex::new(DEFAULT_SHARD_COUNT);
        index.index_block(&first);
        store.push(SealedBlock::seal(first));
        Blockchain { store, index }
    }

    /// Reconstructs a chain from a store that already holds blocks — the
    /// recovery path for durable backends: a
    /// [`FileStore`](crate::fstore::FileStore) replays its segments on
    /// open, and this constructor turns the replayed blocks back into a
    /// chain, re-checking linkage and rebuilding the entry index (the
    /// sealed-hash cache was rebuilt by the store itself). Both happen in
    /// one streamed pass: each block is indexed as the linkage walk
    /// reaches it, so no block is read twice.
    ///
    /// # Errors
    ///
    /// [`ChainError::EmptyChain`] for an empty store, otherwise the first
    /// linkage/consistency violation found (same rules as
    /// [`Blockchain::push`]).
    pub fn from_store(store: S) -> Result<Blockchain<S>, ChainError> {
        let mut index = ShardedIndex::new(DEFAULT_SHARD_COUNT);
        {
            // Guards, not store borrows: a paged backend materialises each
            // block as the iterator reaches it, and the previous guard
            // keeps exactly one predecessor alive for the linkage check.
            let mut prev: Option<BlockRef<'_>> = None;
            for sealed in store.iter() {
                if let Some(prev) = &prev {
                    // The same rules `push` applies when appending live.
                    check_link(prev, &sealed)?;
                } else {
                    let block = sealed.block();
                    if block.kind() == BlockKind::Genesis && block.number() != BlockNumber::GENESIS
                    {
                        return Err(ChainError::GenesisMisplaced {
                            number: block.number(),
                        });
                    }
                    if !sealed.is_payload_consistent() {
                        return Err(ChainError::PayloadMismatch {
                            number: block.number(),
                        });
                    }
                    if !block.tombstones_sorted() {
                        return Err(ChainError::TombstonesUnsorted {
                            number: block.number(),
                        });
                    }
                }
                index.index_block(sealed.block());
                prev = Some(sealed);
            }
            if prev.is_none() {
                return Err(ChainError::EmptyChain);
            }
        }
        Ok(Blockchain { store, index })
    }

    /// Replaces this chain's contents with `blocks`, **reusing the
    /// existing store** — for rooted stores (e.g.
    /// [`FileStore`](crate::fstore::FileStore)) the adopted chain lands in
    /// the same directory instead of silently migrating to a fresh default
    /// store. The blocks are linked and validated exactly like
    /// [`Blockchain::assemble`]; on error the chain is unchanged.
    ///
    /// # Errors
    ///
    /// The first linkage violation found; `blocks` must be non-empty.
    pub fn replace_blocks(&mut self, blocks: Vec<Block>) -> Result<(), ChainError> {
        let staged: Blockchain<MemStore> = Blockchain::assemble(blocks)?;
        self.replace_with(&staged);
        Ok(())
    }

    /// Like [`Blockchain::replace_blocks`] but takes an already-assembled
    /// chain, so callers that staged (and validated) one — e.g. ledger
    /// adoption — do not pay a second assembly pass re-hashing every
    /// block.
    pub fn replace_with<S2: BlockStore>(&mut self, source: &Blockchain<S2>) {
        self.store.reset();
        self.index = ShardedIndex::new(DEFAULT_SHARD_COUNT);
        for sealed in source.store.iter() {
            self.index.index_block(sealed.block());
            // Unwrapping the guard keeps the cached digest: no re-hash.
            self.store.push(sealed.into_sealed());
        }
    }

    /// Reconstructs a chain from contiguous blocks into a store of type
    /// `S`, rebuilding the entry index and hash cache along the way.
    ///
    /// # Errors
    ///
    /// Returns the first linkage violation found; `blocks` must be
    /// non-empty.
    pub fn assemble(blocks: Vec<Block>) -> Result<Blockchain<S>, ChainError> {
        let mut iter = blocks.into_iter();
        let first = iter.next().ok_or(ChainError::EmptyChain)?;
        let mut chain = Blockchain::with_genesis(first);
        for block in iter {
            chain.push(block)?;
        }
        Ok(chain)
    }

    /// Appends a block after checking linkage rules. The block is hashed
    /// exactly once here; all later reads use the cached digest.
    ///
    /// # Errors
    ///
    /// * [`ChainError::NonContiguousNumber`] — number must be tip + 1.
    /// * [`ChainError::PrevHashMismatch`] — must link to the tip hash.
    /// * [`ChainError::TimestampRegression`] — timestamps are monotone.
    /// * [`ChainError::SummaryTimestampMismatch`] — Σ blocks repeat the
    ///   predecessor timestamp (§IV-B).
    /// * [`ChainError::PayloadMismatch`] — header must commit to the body.
    /// * [`ChainError::GenesisMisplaced`] — genesis kind only at block 0.
    /// * [`ChainError::TombstonesUnsorted`] — Σ tombstones must be
    ///   strictly sorted.
    pub fn push(&mut self, block: Block) -> Result<(), ChainError> {
        let _span = seldel_telemetry::span!("chain.seal");
        // Hash first: the linkage check then compares the cached payload
        // root against the header commitment, and the root stays cached in
        // the store for every later validation pass.
        let sealed = SealedBlock::seal(block);
        let tip = self.store.last().expect("chain is never empty");
        check_link(&tip, &sealed)?;
        self.index.index_block(sealed.block());
        self.store.push(sealed);
        Ok(())
    }

    /// The shifting genesis marker `m`: number of the first live block.
    pub fn marker(&self) -> BlockNumber {
        // `first_number`, not `first`: on a paged store the latter would
        // materialise the oldest block on every by-number lookup.
        self.store.first_number().expect("chain is never empty")
    }

    /// The newest block (as a guard; reads like a `&Block` through the
    /// sealed wrapper's accessors).
    pub fn tip(&self) -> BlockRef<'_> {
        self.store.last().expect("chain is never empty")
    }

    /// The cached digest of the newest block.
    pub fn tip_hash(&self) -> seldel_crypto::Digest32 {
        let len = self.store.len();
        self.store.hash_at(len - 1).expect("chain is never empty")
    }

    /// The oldest live block (the block the marker points at).
    pub fn first(&self) -> BlockRef<'_> {
        self.store.first().expect("chain is never empty")
    }

    /// Live length lβ in blocks.
    pub fn len(&self) -> u64 {
        self.store.len() as u64
    }

    /// A chain is never empty; provided for API completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Virtual time covered by the live chain (tip τ − first τ).
    pub fn covered_timespan(&self) -> u64 {
        self.tip().timestamp().since(self.first().timestamp())
    }

    /// Looks up a live block by number.
    pub fn get(&self, number: BlockNumber) -> Option<BlockRef<'_>> {
        self.sealed(number)
    }

    /// Looks up a live block with its cached digest by number.
    pub fn sealed(&self, number: BlockNumber) -> Option<BlockRef<'_>> {
        let marker = self.marker();
        if number < marker {
            return None;
        }
        let index = (number.value() - marker.value()) as usize;
        self.store.get(index)
    }

    /// The cached digest of a live block.
    ///
    /// Served through [`BlockStore::hash_at`], so paged backends answer
    /// from their frame table without touching the block bytes.
    pub fn hash_of(&self, number: BlockNumber) -> Option<seldel_crypto::Digest32> {
        let marker = self.marker();
        if number < marker {
            return None;
        }
        let index = (number.value() - marker.value()) as usize;
        self.store.hash_at(index)
    }

    /// Iterates live blocks from marker to tip.
    pub fn iter(&self) -> impl Iterator<Item = BlockRef<'_>> {
        self.store.iter()
    }

    /// Iterates live blocks with their cached digests. Alias of
    /// [`Blockchain::iter`] kept for the historical spelling — items carry
    /// the digest either way now that they are sealed guards.
    pub fn iter_sealed(&self) -> impl Iterator<Item = BlockRef<'_>> {
        self.store.iter()
    }

    /// Iterates live blocks through the store's random-access read path.
    ///
    /// On a paged store this serves from the hot cache, while
    /// [`Blockchain::iter`] streams every frame from disk (with a decode
    /// and checksum verification each) on purpose — right for one-shot
    /// cold scans and audits, ruinous for derived-state rebuilds that run
    /// on every prune over a mostly-hot live window.
    pub fn iter_hot(&self) -> impl Iterator<Item = BlockRef<'_>> {
        (0..self.store.len()).filter_map(|i| self.store.get(i))
    }

    /// The maintained (sharded) entry index — derived state; see
    /// [`crate::shard`]. Compares equal to the monolithic
    /// [`EntryIndex`] oracle ([`Blockchain::rebuilt_index`]) whenever both
    /// hold the same pairs.
    pub fn entry_index(&self) -> &ShardedIndex {
        &self.index
    }

    /// The storage backend (read-only) — mutation goes through the chain.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// The highest block number the backend guarantees to survive a
    /// crash ([`BlockStore::durable_tip`]). In-memory backends report
    /// the tip; a durable backend's watermark lags it while fsyncs are
    /// pending. The node layer holds `NewBlock` broadcasts behind this.
    pub fn durable_tip(&self) -> Option<BlockNumber> {
        self.store.durable_tip()
    }

    /// Durability barrier ([`BlockStore::flush_durable`]): on return,
    /// every sealed block would survive a crash and
    /// [`Blockchain::durable_tip`] equals the tip. No-op for in-memory
    /// backends.
    pub fn flush_durable(&mut self) {
        self.store.flush_durable();
    }

    /// Rebuilds the monolithic entry index from a full block scan.
    ///
    /// The maintained sharded index must always equal this rebuild — the
    /// property tests pin that (`tests/properties.rs`, citing I1/I3).
    pub fn rebuilt_index(&self) -> EntryIndex {
        let mut fresh = EntryIndex::new();
        for block in self.iter() {
            fresh.index_block(block.block());
        }
        fresh
    }

    /// Whether every cached digest matches a from-scratch recomputation.
    ///
    /// Always true for immutable blocks; exposed for the property tests.
    pub fn verify_cached_hashes(&self) -> bool {
        self.iter_sealed().all(|s| s.hash() == s.block().hash())
    }

    /// Finds where the data set `id` currently lives.
    ///
    /// Checks the original block first (O(1) by number); if that block was
    /// pruned, the maintained [`EntryIndex`] resolves the carrying summary
    /// block in O(log n) — no chain scan on any path.
    pub fn locate(&self, id: EntryId) -> Option<Located<'_>> {
        // A counter, not a span: indexed lookups run in tens of
        // nanoseconds, where even reading the clock would distort them.
        seldel_telemetry::count!("chain.locate");
        if let Some(block) = self.get(id.block) {
            if (id.entry.value() as usize) < block.entries().len() {
                return Some(Located::in_block(block, id.entry.value()));
            }
            // The id may address a record *inside* a summary block.
            if let Some(slot) = block
                .summary_records()
                .iter()
                .position(|r| r.origin() == id)
            {
                return Some(Located::in_summary(block, slot as u32));
            }
        }
        match self.index.get(id)? {
            Location::InSummary { holder, slot } => {
                let block = self.get(holder)?;
                let record = block.summary_records().get(slot as usize)?;
                debug_assert_eq!(record.origin(), id, "index slot must match origin");
                Some(Located::in_summary(block, slot))
            }
            // An InBlock entry would have been found by the direct lookup
            // above; reaching this arm means the id is not live.
            Location::InBlock => None,
        }
    }

    /// Batched [`Blockchain::locate`]: one answer per input id, in input
    /// order — the bulk deletion-audit / query-serving path.
    ///
    /// **Duplicate ids are answered element-wise**: every occurrence in
    /// the batch gets the same answer a lone query would, at its own
    /// position. Callers may therefore pass unsanitised id lists — a
    /// compliance sweep repeating an id gets consistent rows, never a
    /// hole.
    pub fn locate_many(&self, ids: &[EntryId]) -> Vec<Option<Located<'_>>> {
        let _span = seldel_telemetry::span!("chain.locate_many");
        seldel_telemetry::count!("chain.locate_many.ids", ids.len() as u64);
        ids.iter().map(|id| self.locate(*id)).collect()
    }

    /// Reference implementation of [`Blockchain::locate`] by full scan.
    ///
    /// Kept as the oracle the index-backed path is benchmarked and
    /// property-tested against. Note the scan skips the block already
    /// checked by the direct lookup (historically it was re-visited).
    pub fn locate_scan(&self, id: EntryId) -> Option<Located<'_>> {
        if let Some(block) = self.get(id.block) {
            if (id.entry.value() as usize) < block.entries().len() {
                return Some(Located::in_block(block, id.entry.value()));
            }
            if let Some(slot) = block
                .summary_records()
                .iter()
                .position(|r| r.origin() == id)
            {
                return Some(Located::in_summary(block, slot as u32));
            }
        }
        for i in (0..self.store.len()).rev() {
            let block = self.store.get(i).expect("index in range");
            if block.kind() != BlockKind::Summary || block.number() == id.block {
                continue;
            }
            if let Some(slot) = block
                .summary_records()
                .iter()
                .position(|r| r.origin() == id)
            {
                return Some(Located::in_summary(block, slot as u32));
            }
        }
        None
    }

    /// All live data sets as `(id, record)` pairs: data entries still in
    /// their original blocks plus carried summary records. Deletion-request
    /// entries are excluded (they are transport, not data). Records are
    /// owned clones — on a paged backend the holder blocks are transient,
    /// so references into them cannot outlive the scan.
    pub fn live_records(&self) -> Vec<(EntryId, DataRecord)> {
        let mut out = Vec::with_capacity(self.index.len());
        for block in self.iter() {
            match block.kind() {
                BlockKind::Normal => {
                    for (i, entry) in block.entries().iter().enumerate() {
                        if let EntryPayload::Data(record) = entry.payload() {
                            out.push((
                                EntryId::new(block.number(), EntryNumber(i as u32)),
                                record.clone(),
                            ));
                        }
                    }
                }
                BlockKind::Summary => {
                    for record in block.summary_records() {
                        out.push((record.origin(), record.record().clone()));
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// Cuts off all blocks before `new_marker` and returns them oldest-first.
    ///
    /// This is the physical deletion step of §IV-C, executed *after* the
    /// carried-forward summary block is already part of the chain. The
    /// entry index retires the ids whose holder blocks were cut.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::BadMarker`] when `new_marker` is not a live
    /// block number, or would empty the chain.
    pub fn truncate_front(&mut self, new_marker: BlockNumber) -> Result<Vec<Block>, ChainError> {
        let live_start = self.marker();
        let live_end = self.tip().number();
        if new_marker <= live_start || new_marker > live_end {
            if new_marker == live_start {
                return Ok(Vec::new()); // nothing to cut
            }
            return Err(ChainError::BadMarker {
                requested: new_marker,
                live_start,
                live_end,
            });
        }
        let _span = seldel_telemetry::span!("chain.prune");
        let cut = (new_marker.value() - live_start.value()) as usize;
        let removed: Vec<Block> = self
            .store
            .drain_front(cut)
            .into_iter()
            .map(SealedBlock::into_block)
            .collect();
        self.index.retire_before(new_marker);
        seldel_telemetry::count!("chain.prune.blocks", removed.len() as u64);
        Ok(removed)
    }

    /// Total canonical byte size of all live blocks.
    pub fn total_byte_size(&self) -> u64 {
        self.iter().map(|b| b.byte_size() as u64).sum()
    }

    /// Counts live data sets (entries + summary records) from the
    /// maintained index — O(1), no chain scan.
    pub fn record_count(&self) -> u64 {
        self.index.len() as u64
    }

    /// Block hashes for a live range (used to build / verify anchors).
    /// Served from the per-block digest cache.
    pub fn block_hashes(
        &self,
        start: BlockNumber,
        end: BlockNumber,
    ) -> Option<Vec<seldel_crypto::Digest32>> {
        if start > end {
            return None;
        }
        let mut out = Vec::with_capacity((end.value() - start.value() + 1) as usize);
        let mut n = start;
        while n <= end {
            out.push(self.hash_of(n)?);
            n = n.next();
        }
        Some(out)
    }

    /// Serialises all live blocks (sync responses, persistence).
    pub fn export_blocks(&self) -> Vec<Block> {
        self.iter()
            .map(|sealed| sealed.into_sealed().into_block())
            .collect()
    }

    /// Canonical encoding of the whole live chain.
    pub fn export_bytes(&self) -> Vec<u8> {
        let mut enc = seldel_codec::Encoder::new();
        enc.put_len(self.store.len());
        for block in self.iter() {
            block.block().encode(&mut enc);
        }
        enc.into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockBody;
    use crate::fstore::FileStore;
    use crate::store::SegStore;
    use crate::types::Timestamp;
    use seldel_crypto::SigningKey;

    fn key(seed: u8) -> SigningKey {
        SigningKey::from_seed([seed; 32])
    }

    fn entry(user: &str, seed: u8) -> Entry {
        Entry::sign_data(&key(seed), DataRecord::new("login").with("user", user))
    }

    /// Appends blocks 1..=n, two entries each, after the genesis block.
    fn push_blocks<S: BlockStore>(chain: &mut Blockchain<S>, n: u64) {
        for i in 1..=n {
            let prev = chain.tip_hash();
            chain
                .push(Block::new(
                    BlockNumber(i),
                    Timestamp(i * 10),
                    prev,
                    BlockBody::Normal {
                        entries: vec![entry("ALPHA", 1), entry("BRAVO", 2)],
                    },
                ))
                .unwrap();
        }
    }

    fn chain_with_blocks_in<S: BlockStore>(n: u64) -> Blockchain<S> {
        let mut chain = Blockchain::with_genesis(Block::genesis("test", Timestamp(0)));
        push_blocks(&mut chain, n);
        chain
    }

    fn chain_with_blocks(n: u64) -> Blockchain {
        chain_with_blocks_in::<MemStore>(n)
    }

    #[test]
    fn push_and_lookup() {
        let chain = chain_with_blocks(5);
        assert_eq!(chain.len(), 6);
        assert_eq!(chain.marker(), BlockNumber(0));
        assert_eq!(chain.tip().number(), BlockNumber(5));
        assert!(chain.get(BlockNumber(3)).is_some());
        assert!(chain.get(BlockNumber(6)).is_none());
        assert_eq!(chain.covered_timespan(), 50);
    }

    #[test]
    fn push_rejects_bad_number() {
        let mut chain = chain_with_blocks(1);
        let prev = chain.tip_hash();
        let block = Block::new(BlockNumber(5), Timestamp(100), prev, BlockBody::Empty);
        assert!(matches!(
            chain.push(block),
            Err(ChainError::NonContiguousNumber { .. })
        ));
    }

    #[test]
    fn push_rejects_bad_prev_hash() {
        let mut chain = chain_with_blocks(1);
        let block = Block::new(
            BlockNumber(2),
            Timestamp(100),
            seldel_crypto::sha256(b"wrong"),
            BlockBody::Empty,
        );
        assert!(matches!(
            chain.push(block),
            Err(ChainError::PrevHashMismatch { .. })
        ));
    }

    #[test]
    fn push_rejects_timestamp_regression() {
        let mut chain = chain_with_blocks(2);
        let prev = chain.tip_hash();
        let block = Block::new(
            BlockNumber(3),
            Timestamp(5), // earlier than block 2's 20
            prev,
            BlockBody::Empty,
        );
        assert!(matches!(
            chain.push(block),
            Err(ChainError::TimestampRegression { .. })
        ));
    }

    #[test]
    fn push_enforces_summary_timestamp_rule() {
        let mut chain = chain_with_blocks(2);
        let prev = chain.tip_hash();
        // Wrong: summary with a newer timestamp.
        let bad = Block::new(
            BlockNumber(3),
            Timestamp(25),
            prev,
            BlockBody::Summary {
                records: vec![],
                deletions: vec![],
                anchor: None,
            },
        );
        assert!(matches!(
            chain.push(bad),
            Err(ChainError::SummaryTimestampMismatch { .. })
        ));
        // Right: same timestamp as predecessor.
        let good = Block::new(
            BlockNumber(3),
            Timestamp(20),
            prev,
            BlockBody::Summary {
                records: vec![],
                deletions: vec![],
                anchor: None,
            },
        );
        chain.push(good).unwrap();
    }

    #[test]
    fn push_rejects_second_genesis() {
        let mut chain = chain_with_blocks(1);
        let prev = chain.tip_hash();
        let bad = Block::from_parts(
            crate::block::BlockHeader {
                number: BlockNumber(2),
                timestamp: Timestamp(100),
                prev_hash: prev,
                payload_hash: BlockBody::Genesis {
                    note: "again".into(),
                }
                .payload_hash(),
                kind: BlockKind::Genesis,
            },
            BlockBody::Genesis {
                note: "again".into(),
            },
        );
        assert!(matches!(
            chain.push(bad),
            Err(ChainError::GenesisMisplaced { .. })
        ));
    }

    #[test]
    fn locate_finds_live_entry() {
        let chain = chain_with_blocks(3);
        let id = EntryId::new(BlockNumber(2), EntryNumber(1));
        let located = chain.locate(id).expect("entry exists");
        assert_eq!(
            located.data().unwrap().get("user").unwrap().as_str(),
            Some("BRAVO")
        );
        assert_eq!(located.holder().number(), BlockNumber(2));
    }

    #[test]
    fn locate_missing_returns_none() {
        let chain = chain_with_blocks(2);
        assert!(chain
            .locate(EntryId::new(BlockNumber(9), EntryNumber(0)))
            .is_none());
        assert!(chain
            .locate(EntryId::new(BlockNumber(1), EntryNumber(9)))
            .is_none());
    }

    /// Builds a chain whose block 1 was carried into summary block 3 and
    /// then pruned, leaving the carried record reachable only through the
    /// summary block.
    fn pruned_with_summary() -> Blockchain {
        let mut chain = chain_with_blocks(2);
        let origin = EntryId::new(BlockNumber(1), EntryNumber(0));
        let record = SummaryRecord::from_entry(
            chain
                .locate(origin)
                .unwrap()
                .entry()
                .expect("entry is live"),
            origin,
            Timestamp(10),
        )
        .unwrap();
        let prev = chain.tip_hash();
        let ts = chain.tip().timestamp();
        chain
            .push(Block::new(
                BlockNumber(3),
                ts,
                prev,
                BlockBody::Summary {
                    records: vec![record],
                    deletions: vec![],
                    anchor: None,
                },
            ))
            .unwrap();
        chain.truncate_front(BlockNumber(2)).unwrap();
        chain
    }

    #[test]
    fn locate_resolves_carried_record_via_index() {
        let chain = pruned_with_summary();
        let origin = EntryId::new(BlockNumber(1), EntryNumber(0));
        let located = chain.locate(origin).expect("carried record is live");
        assert!(located.is_in_summary());
        assert_eq!(located.holder().number(), BlockNumber(3));
        assert_eq!(
            located.data().unwrap().get("user").unwrap().as_str(),
            Some("ALPHA")
        );
        // Entry 1:1 was not carried → gone on both paths.
        let gone = EntryId::new(BlockNumber(1), EntryNumber(1));
        assert!(chain.locate(gone).is_none());
        assert!(chain.locate_scan(gone).is_none());
    }

    /// Regression test for the historical `locate` double-scan: when the
    /// direct lookup already inspected `id.block`, the fallback sweep must
    /// not re-visit it. The indexed path and the (fixed) scan path must
    /// agree on every id, present or not.
    #[test]
    fn locate_agrees_with_scan_reference() {
        let chain = pruned_with_summary();
        let ids = [
            EntryId::new(BlockNumber(1), EntryNumber(0)), // carried
            EntryId::new(BlockNumber(1), EntryNumber(1)), // pruned, not carried
            EntryId::new(BlockNumber(2), EntryNumber(0)), // live in block
            EntryId::new(BlockNumber(3), EntryNumber(0)), // summary slot itself
            EntryId::new(BlockNumber(9), EntryNumber(0)), // never existed
        ];
        for id in ids {
            assert_eq!(chain.locate(id), chain.locate_scan(id), "id {id}");
        }
    }

    #[test]
    fn locate_many_answers_duplicates_elementwise_on_every_path() {
        // The pinned contract: duplicate ids in one batch each get the
        // answer a lone query would, at their own position.
        let chain = pruned_with_summary();
        let ids = [
            EntryId::new(BlockNumber(2), EntryNumber(0)), // live in block
            EntryId::new(BlockNumber(1), EntryNumber(0)), // carried in Σ
            EntryId::new(BlockNumber(2), EntryNumber(0)), // dup of live
            EntryId::new(BlockNumber(1), EntryNumber(1)), // pruned
            EntryId::new(BlockNumber(1), EntryNumber(0)), // dup of carried
            EntryId::new(BlockNumber(9), EntryNumber(0)), // ghost
            EntryId::new(BlockNumber(9), EntryNumber(0)), // dup of ghost
        ];
        let batch = chain.locate_many(&ids);
        assert_eq!(batch.len(), ids.len());
        for (id, got) in ids.iter().zip(&batch) {
            assert_eq!(*got, chain.locate(*id), "id {id}");
        }
        assert!(batch[0].is_some() && batch[0] == batch[2]);
        assert!(batch[1].is_some() && batch[1] == batch[4]);
        assert!(batch[3].is_none() && batch[5].is_none() && batch[6].is_none());
    }

    #[test]
    fn maintained_index_matches_rebuild_and_hash_cache_holds() {
        let mut chain = pruned_with_summary();
        let prev = chain.tip_hash();
        chain
            .push(Block::new(
                BlockNumber(4),
                Timestamp(40),
                prev,
                BlockBody::Normal {
                    entries: vec![entry("CHARLIE", 3)],
                },
            ))
            .unwrap();
        assert_eq!(chain.entry_index(), &chain.rebuilt_index());
        assert!(chain.verify_cached_hashes());
        assert_eq!(chain.record_count(), 4); // 1 carried + 2 in block 2 + 1 in block 4
    }

    #[test]
    fn truncate_front_shifts_marker() {
        let mut chain = chain_with_blocks(5);
        let removed = chain.truncate_front(BlockNumber(3)).unwrap();
        assert_eq!(removed.len(), 3);
        assert_eq!(chain.marker(), BlockNumber(3));
        assert_eq!(chain.len(), 3);
        // Old numbers no longer resolvable.
        assert!(chain.get(BlockNumber(2)).is_none());
        assert!(chain.get(BlockNumber(3)).is_some());
        // The index dropped the pruned ids with their blocks.
        assert!(!chain
            .entry_index()
            .contains(EntryId::new(BlockNumber(2), EntryNumber(0))));
        assert_eq!(chain.entry_index(), &chain.rebuilt_index());
    }

    #[test]
    fn truncate_front_noop_at_current_marker() {
        let mut chain = chain_with_blocks(3);
        let removed = chain.truncate_front(BlockNumber(0)).unwrap();
        assert!(removed.is_empty());
        assert_eq!(chain.len(), 4);
    }

    #[test]
    fn truncate_front_rejects_out_of_range() {
        let mut chain = chain_with_blocks(3);
        assert!(matches!(
            chain.truncate_front(BlockNumber(9)),
            Err(ChainError::BadMarker { .. })
        ));
    }

    #[test]
    fn live_records_counts_data_entries() {
        let chain = chain_with_blocks(3);
        // 3 blocks × 2 entries.
        assert_eq!(chain.record_count(), 6);
        let ids: Vec<EntryId> = chain.live_records().iter().map(|(id, _)| *id).collect();
        assert!(ids.contains(&EntryId::new(BlockNumber(1), EntryNumber(0))));
        assert!(ids.contains(&EntryId::new(BlockNumber(3), EntryNumber(1))));
    }

    #[test]
    fn from_blocks_round_trip() {
        let chain = chain_with_blocks(4);
        let rebuilt = Blockchain::from_blocks(chain.export_blocks()).unwrap();
        assert_eq!(rebuilt, chain);
    }

    #[test]
    fn from_blocks_rejects_gap() {
        let chain = chain_with_blocks(4);
        let mut blocks = chain.export_blocks();
        blocks.remove(2);
        assert!(Blockchain::from_blocks(blocks).is_err());
    }

    #[test]
    fn seg_store_backend_behaves_identically() {
        let mem = chain_with_blocks(40);
        let mut seg = chain_with_blocks_in::<SegStore>(40);
        assert_eq!(mem.export_bytes(), seg.export_bytes());
        assert_eq!(mem.tip_hash(), seg.tip_hash());
        assert_eq!(mem.record_count(), seg.record_count());

        seg.truncate_front(BlockNumber(17)).unwrap();
        let mut mem2 = mem.clone();
        mem2.truncate_front(BlockNumber(17)).unwrap();
        assert_eq!(mem2.export_bytes(), seg.export_bytes());
        assert_eq!(seg.entry_index(), &seg.rebuilt_index());

        // Cross-backend reassembly keeps the canonical bytes stable.
        let crossed: Blockchain<SegStore> = Blockchain::assemble(mem2.export_blocks()).unwrap();
        assert_eq!(crossed.export_bytes(), mem2.export_bytes());
    }

    #[test]
    fn from_store_rebuilds_chain_and_index() {
        let chain = chain_with_blocks_in::<SegStore>(12);
        // Hand the populated store to from_store: identical chain.
        let rebuilt = Blockchain::from_store(chain.store.clone()).unwrap();
        assert_eq!(rebuilt, chain);
        assert_eq!(rebuilt.entry_index(), &rebuilt.rebuilt_index());
        assert!(rebuilt.verify_cached_hashes());
    }

    #[test]
    fn from_store_reopens_in_one_pass_without_touching_the_cache() {
        let scratch = crate::testutil::ScratchDir::new("one-pass-reopen");
        {
            let store = FileStore::open_with_capacity(scratch.path(), 8)
                .unwrap()
                .with_hot_cache_capacity(16);
            let mut chain = Blockchain::with_genesis_in(store, Block::genesis("t", Timestamp(0)));
            push_blocks(&mut chain, 199);
            assert_eq!(chain.len(), 200);
        }
        let store = FileStore::open(scratch.path())
            .unwrap()
            .with_hot_cache_capacity(16);
        let chain = Blockchain::from_store(store).unwrap();
        assert_eq!(chain.len(), 200);
        // The linkage walk streams every frame once and indexes as it
        // goes: no block is paged in through the cache a second time.
        assert_eq!(chain.store().hot_cache_misses(), 0);
        assert_eq!(chain.store().hot_cache_len(), 0);
        assert_eq!(chain.entry_index(), &chain.rebuilt_index());
    }

    #[test]
    fn from_store_rejects_tampered_and_empty_stores() {
        assert!(matches!(
            Blockchain::<MemStore>::from_store(MemStore::default()),
            Err(ChainError::EmptyChain)
        ));
        let chain = chain_with_blocks(4);
        let mut store = MemStore::default();
        for (i, sealed) in chain.iter_sealed().enumerate() {
            if i == 2 {
                continue; // drop a middle block: linkage breaks
            }
            store.push(sealed.into_sealed());
        }
        assert!(matches!(
            Blockchain::<MemStore>::from_store(store),
            Err(ChainError::NonContiguousNumber { .. })
        ));
    }

    #[test]
    fn with_genesis_in_uses_the_given_store_and_rejects_populated_ones() {
        let chain: Blockchain<SegStore> =
            Blockchain::with_genesis_in(SegStore::default(), Block::genesis("x", Timestamp(0)));
        assert_eq!(chain.len(), 1);
        let populated = chain_with_blocks_in::<SegStore>(2);
        let result = std::panic::catch_unwind(|| {
            Blockchain::with_genesis_in(populated.store.clone(), Block::genesis("y", Timestamp(0)))
        });
        assert!(result.is_err(), "populated store must be rejected");
    }

    #[test]
    fn replace_blocks_swaps_content_in_place() {
        let source = chain_with_blocks(6);
        let mut target = chain_with_blocks_in::<SegStore>(2);
        target.replace_blocks(source.export_blocks()).unwrap();
        assert_eq!(target.export_bytes(), source.export_bytes());
        assert_eq!(target.entry_index(), &target.rebuilt_index());
        // Invalid input leaves the chain untouched.
        let mut bad = source.export_blocks();
        bad.remove(3);
        let before = target.export_bytes();
        assert!(target.replace_blocks(bad).is_err());
        assert_eq!(target.export_bytes(), before);
    }

    #[test]
    fn block_hashes_for_anchor_range() {
        let chain = chain_with_blocks(5);
        let hashes = chain.block_hashes(BlockNumber(1), BlockNumber(3)).unwrap();
        assert_eq!(hashes.len(), 3);
        assert_eq!(hashes[0], chain.get(BlockNumber(1)).unwrap().hash());
        assert!(chain.block_hashes(BlockNumber(4), BlockNumber(9)).is_none());
        assert!(chain.block_hashes(BlockNumber(3), BlockNumber(1)).is_none());
    }

    #[test]
    fn byte_size_grows_with_blocks() {
        let small = chain_with_blocks(1).total_byte_size();
        let large = chain_with_blocks(10).total_byte_size();
        assert!(large > small);
    }
}
