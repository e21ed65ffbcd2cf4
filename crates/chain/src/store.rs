//! Pluggable block storage for the live chain β.
//!
//! [`Blockchain`](crate::chain::Blockchain) is generic over a
//! [`BlockStore`]: the ordered container holding the live blocks between
//! the shifting genesis marker `m` and the tip. Two backends ship with the
//! crate:
//!
//! * [`MemStore`] — a plain `VecDeque`, the historical behaviour and the
//!   default type parameter;
//! * [`SegStore`] — an append-only segmented store. Blocks are written
//!   into fixed-size segments that are never mutated after being filled;
//!   pruning the front (the §IV-C physical deletion step) advances a
//!   cursor and drops whole retired segments. This is the in-memory shape
//!   of a file-backed log (one segment per file) and the stepping stone to
//!   durable storage.
//!
//! Stores hold [`SealedBlock`]s, not raw [`Block`]s: a sealed block pairs
//! the immutable block with its digest, computed **once** when the block
//! enters the store. Every later consumer — validation, summary
//! derivation, Σ-hash sync checks, anchor building — reads the cached
//! digest instead of re-encoding and re-hashing the block.

use std::collections::VecDeque;
use std::ops::Deref;
use std::sync::Arc;

use seldel_crypto::Digest32;

use crate::block::{Block, BlockHeader, BlockKind};
use crate::entry::Entry;
use crate::summary::SummaryRecord;
use crate::types::{BlockNumber, EntryId, Timestamp};

/// A block plus its digest and payload Merkle root, computed once when the
/// block was stored.
///
/// Blocks are immutable after sealing (the chain never mutates a stored
/// block; it only appends and prunes), so the cached digests can never go
/// stale. Equality compares the block only — the digests are derived
/// state.
///
/// The cached payload root is what makes
/// [`validate_incremental`](crate::validate::validate_incremental) cheap:
/// the body was hashed when it entered the store (live push or durable
/// replay), so later validation passes compare the cached root against the
/// header commitment instead of re-hashing every entry. The root is an
/// `Option` because sealed blocks can come from sources that never hashed
/// the body ([`SealedBlock::seal_header_only`], legacy stores); those fall
/// back to a full re-hash when checked.
#[derive(Debug, Clone)]
pub struct SealedBlock {
    block: Block,
    hash: Digest32,
    payload_root: Option<Digest32>,
}

impl SealedBlock {
    /// Seals a block, computing its header digest and payload root exactly
    /// once.
    pub fn seal(block: Block) -> SealedBlock {
        let hash = block.hash();
        let payload_root = Some(block.body().payload_hash());
        SealedBlock {
            block,
            hash,
            payload_root,
        }
    }

    /// Seals a block without hashing its body — the shape of a sealed
    /// block recovered from a store predating payload-root caching. Checks
    /// against such a block re-derive the root from the body.
    pub fn seal_header_only(block: Block) -> SealedBlock {
        let hash = block.hash();
        SealedBlock {
            block,
            hash,
            payload_root: None,
        }
    }

    /// Reassembles a sealed block from digests computed earlier — the
    /// paged [`FileStore`](crate::fstore::FileStore) read path, which
    /// stores the digests in its frame table and must not re-hash a block
    /// every time it is materialised from disk. The caller vouches that
    /// `hash`/`payload_root` were derived from exactly this block (the
    /// durable store covers them with a per-frame checksum).
    pub(crate) fn from_parts(
        block: Block,
        hash: Digest32,
        payload_root: Option<Digest32>,
    ) -> SealedBlock {
        SealedBlock {
            block,
            hash,
            payload_root,
        }
    }

    /// The block.
    pub fn block(&self) -> &Block {
        &self.block
    }

    /// The cached block digest.
    pub fn hash(&self) -> Digest32 {
        self.hash
    }

    /// The cached payload Merkle root, when the body was hashed at seal
    /// time.
    pub fn payload_root(&self) -> Option<Digest32> {
        self.payload_root
    }

    /// Whether the header's payload commitment and kind match the body —
    /// [`Block::is_payload_consistent`] served from the cached root when
    /// one exists, re-deriving it from the body otherwise.
    pub fn is_payload_consistent(&self) -> bool {
        match self.payload_root {
            Some(root) => {
                self.block.header().kind == self.block.body().kind()
                    && self.block.header().payload_hash == root
            }
            None => self.block.is_payload_consistent(),
        }
    }

    /// Unwraps the block, discarding the cached digests.
    pub fn into_block(self) -> Block {
        self.block
    }

    // Block accessors delegated onto the sealed wrapper, so code holding a
    // [`BlockRef`] (or a `&SealedBlock`) reads like code holding a
    // `&Block`. `hash()` intentionally shadows [`Block::hash`] with the
    // cached digest — same value, no re-hash.

    /// Block number α ([`Block::number`]).
    pub fn number(&self) -> BlockNumber {
        self.block.number()
    }

    /// Timestamp τ ([`Block::timestamp`]).
    pub fn timestamp(&self) -> Timestamp {
        self.block.timestamp()
    }

    /// Block kind ([`Block::kind`]).
    pub fn kind(&self) -> BlockKind {
        self.block.kind()
    }

    /// The header ([`Block::header`]).
    pub fn header(&self) -> &BlockHeader {
        self.block.header()
    }

    /// The body ([`Block::body`]).
    pub fn body(&self) -> &crate::block::BlockBody {
        self.block.body()
    }

    /// Entries of a normal block ([`Block::entries`]).
    pub fn entries(&self) -> &[Entry] {
        self.block.entries()
    }

    /// The embedded Merkle anchor, if any ([`Block::anchor`]).
    pub fn anchor(&self) -> Option<&crate::summary::Anchor> {
        self.block.anchor()
    }

    /// Carried records of a summary block ([`Block::summary_records`]).
    pub fn summary_records(&self) -> &[SummaryRecord] {
        self.block.summary_records()
    }

    /// Deletion tombstones of a summary block ([`Block::deletions`]).
    pub fn deletions(&self) -> &[EntryId] {
        self.block.deletions()
    }

    /// Canonical encoded size ([`Block::byte_size`]).
    pub fn byte_size(&self) -> usize {
        self.block.byte_size()
    }
}

impl PartialEq for SealedBlock {
    fn eq(&self, other: &Self) -> bool {
        // The digest is a pure function of the block; comparing it again
        // would be redundant.
        self.block == other.block
    }
}

impl Eq for SealedBlock {}

/// A guarded reference to a stored block — what [`BlockStore::get`] and
/// [`BlockStore::iter`] hand out.
///
/// Fully resident backends ([`MemStore`], [`SegStore`], unrooted
/// `FileStore`) lend plain borrows; the paged, disk-rooted
/// [`FileStore`](crate::fstore::FileStore) materialises cold blocks from
/// its segment files and hands out shared ownership of the cached copy
/// instead — a `&SealedBlock` into the store would require the block to
/// be resident for the store's whole lifetime, which is exactly what
/// paging exists to avoid. `Deref` makes both shapes read as a
/// `&SealedBlock` (and, through the sealed wrapper's delegates, mostly
/// like a `&Block`).
#[derive(Debug, Clone)]
pub enum BlockRef<'a> {
    /// Borrowed straight out of a resident store.
    Borrowed(&'a SealedBlock),
    /// Shared ownership of a block materialised by a paged backend.
    Shared(Arc<SealedBlock>),
}

impl Deref for BlockRef<'_> {
    type Target = SealedBlock;

    fn deref(&self) -> &SealedBlock {
        match self {
            BlockRef::Borrowed(sealed) => sealed,
            BlockRef::Shared(sealed) => sealed,
        }
    }
}

impl BlockRef<'_> {
    /// Converts the guard into an owned [`SealedBlock`], cloning only when
    /// the underlying block is still shared.
    pub fn into_sealed(self) -> SealedBlock {
        match self {
            BlockRef::Borrowed(sealed) => sealed.clone(),
            BlockRef::Shared(sealed) => {
                Arc::try_unwrap(sealed).unwrap_or_else(|shared| (*shared).clone())
            }
        }
    }
}

impl PartialEq for BlockRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for BlockRef<'_> {}

/// Ordered storage for the live blocks of a chain.
///
/// Index 0 is the oldest live block (the marker block); `len() - 1` is the
/// tip. Implementations must behave like a deque of [`SealedBlock`]s:
/// `push` appends at the back, `drain_front` removes from the front.
/// Logical equality (same blocks in the same order) must hold regardless
/// of internal layout, because [`Blockchain`](crate::chain::Blockchain)
/// derives its own `PartialEq` from the store's.
///
/// The chain layer is single-threaded, so stores need not be `Send` or
/// `Sync`: a paged backend may keep its read cache behind a `RefCell`
/// and fill it from `&self`. Mutation of the blocks stays exclusive
/// (`&mut self`).
pub trait BlockStore: Default + Clone + PartialEq + Eq + std::fmt::Debug + 'static {
    /// Iterator over stored blocks, oldest first. Items are guards, not
    /// borrows: a paged backend materialises each block as the iterator
    /// reaches it, so consumers that need the predecessor (linkage walks)
    /// hold on to the previous guard instead of a store borrow.
    type Iter<'a>: Iterator<Item = BlockRef<'a>> + 'a
    where
        Self: 'a;

    /// Appends a sealed block at the back.
    fn push(&mut self, block: SealedBlock);

    /// The block at `index` (0 = oldest live).
    fn get(&self, index: usize) -> Option<BlockRef<'_>>;

    /// Number of stored blocks.
    fn len(&self) -> usize;

    /// Removes the first `count` blocks and returns them oldest-first.
    ///
    /// `count` is **clamped** to [`BlockStore::len`]: asking for more
    /// blocks than the store holds empties it and returns everything,
    /// never panics. This is part of the trait contract (it used to be
    /// backend-defined) and every backend pins it with a unit test.
    fn drain_front(&mut self, count: usize) -> Vec<SealedBlock>;

    /// Iterates stored blocks oldest-first.
    fn iter(&self) -> Self::Iter<'_>;

    /// Empties the store, keeping its identity (for file-backed stores:
    /// the root directory) so it can be refilled in place. The default
    /// simply swaps in `Self::default()`; stores with external state
    /// override this.
    fn reset(&mut self) {
        *self = Self::default();
    }

    /// Whether the store holds no blocks.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The oldest stored block.
    fn first(&self) -> Option<BlockRef<'_>> {
        self.get(0)
    }

    /// The newest stored block.
    fn last(&self) -> Option<BlockRef<'_>> {
        self.len().checked_sub(1).and_then(|i| self.get(i))
    }

    /// The cached digest of the block at `index`.
    ///
    /// The default reads the whole block; paged backends override this to
    /// serve the digest straight from their frame table, so hash-only
    /// consumers (anchor ranges, Σ-hash sync checks) never pull a cold
    /// block off disk.
    fn hash_at(&self, index: usize) -> Option<Digest32> {
        self.get(index).map(|sealed| sealed.hash())
    }

    /// The block number of the oldest stored block.
    ///
    /// The chain's shifting marker `m` asks for this on **every**
    /// by-number lookup, so the default (materialise the first block) is
    /// overridden by paged backends to answer from their offset table —
    /// otherwise each `locate` would drag a cold genesis read through the
    /// hot cache and evict a block the workload actually wants.
    fn first_number(&self) -> Option<crate::types::BlockNumber> {
        self.first().map(|sealed| sealed.number())
    }

    /// Approximate bytes of live-block data resident in memory: the whole
    /// chain for in-memory backends, the hot-cache contents for paged
    /// ones. Diagnostics only — the default walks and re-encodes every
    /// block, so call it per measurement, not per operation.
    fn resident_bytes(&self) -> u64 {
        self.iter().map(|sealed| sealed.byte_size() as u64).sum()
    }

    /// The highest block number guaranteed to survive a process crash,
    /// or `None` when nothing is (an empty store).
    ///
    /// In-memory backends have no durability lag — whatever they hold is
    /// as safe as it gets — so the default reports the tip. Durable
    /// backends override this with their real fsync watermark
    /// ([`FileStore::durable_up_to`](crate::fstore::FileStore::durable_up_to)),
    /// which lags the tip while fsyncs are pending. The node layer holds
    /// `NewBlock` broadcasts behind this watermark so replicas never see
    /// a block the leader could lose.
    fn durable_tip(&self) -> Option<crate::types::BlockNumber> {
        self.last().map(|sealed| sealed.number())
    }

    /// Durability barrier: returns only once every stored block would
    /// survive a crash, after which [`BlockStore::durable_tip`] equals
    /// the tip. No-op for in-memory backends. Durable backends that
    /// cannot reach the disk panic, matching their `push` contract.
    fn flush_durable(&mut self) {}
}

/// The default in-memory store: a `VecDeque` of sealed blocks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemStore {
    blocks: VecDeque<SealedBlock>,
}

impl BlockStore for MemStore {
    type Iter<'a> = std::iter::Map<
        std::collections::vec_deque::Iter<'a, SealedBlock>,
        fn(&'a SealedBlock) -> BlockRef<'a>,
    >;

    fn push(&mut self, block: SealedBlock) {
        self.blocks.push_back(block);
    }

    fn get(&self, index: usize) -> Option<BlockRef<'_>> {
        self.blocks.get(index).map(BlockRef::Borrowed)
    }

    fn len(&self) -> usize {
        self.blocks.len()
    }

    fn drain_front(&mut self, count: usize) -> Vec<SealedBlock> {
        let count = count.min(self.blocks.len());
        self.blocks.drain(..count).collect()
    }

    fn iter(&self) -> Self::Iter<'_> {
        self.blocks.iter().map(BlockRef::Borrowed)
    }
}

/// Number of blocks per [`SegStore`] segment.
///
/// Segments mirror the paper's sequences ω: retirement always cuts whole
/// sequence prefixes, so moderately sized segments retire cleanly without
/// long partial-segment tails.
pub const SEGMENT_CAPACITY: usize = 64;

/// An append-only segmented store.
///
/// Blocks are appended into fixed-capacity segments; the append path never
/// rewrites a filled segment. Pruning moves retired blocks *out* of their
/// slots (physical deletion — the pruned data must not linger in memory,
/// §IV-C), advances `front_skip`, and drops whole exhausted segments, so
/// the store appends at the back and releases at the front — exactly the
/// access pattern of the marker-shift rule (DESIGN.md §Marker-shift
/// rules), and the shape a file-backed segment log would have.
#[derive(Debug, Clone, Default)]
pub struct SegStore {
    /// All live segments; every segment except the last holds exactly
    /// [`SEGMENT_CAPACITY`] slots, so logical index arithmetic stays O(1).
    /// Slots below `front_skip` in the first segment are `None`: their
    /// blocks were handed out by `drain_front` and are physically gone.
    segments: VecDeque<Vec<Option<SealedBlock>>>,
    /// Slots of the front segment already pruned (always < the front
    /// segment's length while the store is non-empty).
    front_skip: usize,
    /// Logical number of live blocks.
    len: usize,
}

impl SegStore {
    /// Physical position of logical `index`: `(segment, offset)`.
    fn position(&self, index: usize) -> (usize, usize) {
        let absolute = self.front_skip + index;
        (absolute / SEGMENT_CAPACITY, absolute % SEGMENT_CAPACITY)
    }

    /// Number of retained segments (diagnostics / tests).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }
}

impl PartialEq for SegStore {
    fn eq(&self, other: &Self) -> bool {
        // Logical equality: same blocks in the same order, regardless of
        // how pruning left the segment layout.
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for SegStore {}

impl BlockStore for SegStore {
    type Iter<'a> = SegIter<'a>;

    fn push(&mut self, block: SealedBlock) {
        match self.segments.back_mut() {
            Some(segment) if segment.len() < SEGMENT_CAPACITY => segment.push(Some(block)),
            _ => {
                let mut segment = Vec::with_capacity(SEGMENT_CAPACITY);
                segment.push(Some(block));
                self.segments.push_back(segment);
            }
        }
        self.len += 1;
    }

    fn get(&self, index: usize) -> Option<BlockRef<'_>> {
        if index >= self.len {
            return None;
        }
        let (segment, offset) = self.position(index);
        self.segments
            .get(segment)?
            .get(offset)?
            .as_ref()
            .map(BlockRef::Borrowed)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn drain_front(&mut self, count: usize) -> Vec<SealedBlock> {
        let count = count.min(self.len);
        // Physical deletion: the blocks are *moved* out of their slots (the
        // slot becomes None immediately), then the cursor advances and
        // exhausted front segments are dropped whole.
        let removed: Vec<SealedBlock> = (0..count)
            .map(|i| {
                let (segment, offset) = self.position(i);
                self.segments[segment][offset]
                    .take()
                    .expect("live slots hold blocks")
            })
            .collect();
        self.front_skip += count;
        self.len -= count;
        if self.len == 0 {
            self.segments.clear();
            self.front_skip = 0;
        } else {
            while self.front_skip >= SEGMENT_CAPACITY {
                self.segments.pop_front();
                self.front_skip -= SEGMENT_CAPACITY;
            }
        }
        removed
    }

    fn iter(&self) -> Self::Iter<'_> {
        SegIter {
            store: self,
            next: 0,
        }
    }
}

/// Oldest-first iterator over a [`SegStore`].
#[derive(Debug)]
pub struct SegIter<'a> {
    store: &'a SegStore,
    next: usize,
}

impl<'a> Iterator for SegIter<'a> {
    type Item = BlockRef<'a>;

    fn next(&mut self) -> Option<BlockRef<'a>> {
        let item = self.store.get(self.next)?;
        self.next += 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.store.len.saturating_sub(self.next);
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for SegIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockBody;
    use crate::types::{BlockNumber, Timestamp};

    fn sealed(n: u64) -> SealedBlock {
        SealedBlock::seal(Block::new(
            BlockNumber(n),
            Timestamp(n * 10),
            seldel_crypto::sha256(n.to_le_bytes()),
            BlockBody::Empty,
        ))
    }

    fn drive<S: BlockStore>(pushes: u64, drains: &[usize]) -> S {
        let mut store = S::default();
        let mut drains = drains.iter();
        for next in 0..pushes {
            store.push(sealed(next));
            if let Some(&n) = drains.next() {
                store.drain_front(n.min(store.len().saturating_sub(1)));
            }
        }
        store
    }

    #[test]
    fn sealed_block_caches_the_digest() {
        let s = sealed(7);
        assert_eq!(s.hash(), s.block().hash());
        assert_eq!(s.clone(), s);
    }

    #[test]
    fn mem_and_seg_stores_agree() {
        let mem: MemStore = drive(200, &[3, 10, 0, 60, 7]);
        let seg: SegStore = drive(200, &[3, 10, 0, 60, 7]);
        assert_eq!(mem.len(), seg.len());
        assert!(mem.iter().eq(seg.iter()));
        for i in 0..mem.len() {
            assert_eq!(mem.get(i), seg.get(i));
        }
        assert_eq!(mem.first(), seg.first());
        assert_eq!(mem.last(), seg.last());
    }

    #[test]
    fn seg_store_drops_exhausted_segments() {
        let mut store = SegStore::default();
        for n in 0..(3 * SEGMENT_CAPACITY as u64) {
            store.push(sealed(n));
        }
        assert_eq!(store.segment_count(), 3);
        let removed = store.drain_front(2 * SEGMENT_CAPACITY + 5);
        assert_eq!(removed.len(), 2 * SEGMENT_CAPACITY + 5);
        assert_eq!(removed[0].block().number(), BlockNumber(0));
        assert_eq!(store.segment_count(), 1);
        assert_eq!(store.len(), SEGMENT_CAPACITY - 5);
        assert_eq!(
            store.first().unwrap().block().number(),
            BlockNumber(2 * SEGMENT_CAPACITY as u64 + 5)
        );
    }

    #[test]
    fn drained_slots_are_physically_cleared() {
        // §IV-C physical deletion: pruned blocks must not linger in the
        // store's memory behind the cursor.
        let mut store = SegStore::default();
        for n in 0..10 {
            store.push(sealed(n));
        }
        let removed = store.drain_front(4);
        assert_eq!(removed.len(), 4);
        assert!(store.segments[0][..4].iter().all(Option::is_none));
        assert_eq!(store.get(0).unwrap().block().number(), BlockNumber(4));
    }

    #[test]
    fn seg_store_logical_equality_ignores_layout() {
        // Same logical content, different pruning history.
        let mut a = SegStore::default();
        let mut b = SegStore::default();
        for n in 0..10 {
            a.push(sealed(n));
        }
        a.drain_front(4);
        for n in 4..10 {
            b.push(sealed(n));
        }
        assert_eq!(a, b);
        b.push(sealed(10));
        assert_ne!(a, b);
    }

    /// Pins the clamped `drain_front` contract on one backend: draining
    /// more than `len()` empties the store and returns everything.
    fn assert_drain_clamps<S: BlockStore>() {
        let mut store = S::default();
        for n in 0..7 {
            store.push(sealed(n));
        }
        let removed = store.drain_front(1_000);
        assert_eq!(removed.len(), 7);
        assert_eq!(removed[0].block().number(), BlockNumber(0));
        assert_eq!(removed[6].block().number(), BlockNumber(6));
        assert!(store.is_empty());
        // And a drained-empty store accepts new blocks.
        store.push(sealed(7));
        assert_eq!(store.len(), 1);
        assert!(store.drain_front(0).is_empty());
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn mem_store_drain_front_clamps() {
        assert_drain_clamps::<MemStore>();
    }

    #[test]
    fn seg_store_drain_front_clamps() {
        assert_drain_clamps::<SegStore>();
    }

    #[test]
    fn file_store_drain_front_clamps() {
        // Unrooted variant here; the rooted variant (with on-disk effects)
        // is pinned in `fstore::tests::drain_front_clamps_beyond_len`.
        assert_drain_clamps::<crate::fstore::FileStore>();
    }

    #[test]
    fn drain_to_empty_resets_cursor() {
        let mut store = SegStore::default();
        for n in 0..5 {
            store.push(sealed(n));
        }
        let removed = store.drain_front(9);
        assert_eq!(removed.len(), 5);
        assert!(store.is_empty());
        store.push(sealed(5));
        assert_eq!(store.get(0).unwrap().block().number(), BlockNumber(5));
        assert_eq!(store.iter().count(), 1);
    }
}
