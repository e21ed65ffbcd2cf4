//! Pluggable block storage for the live chain β.
//!
//! [`Blockchain`](crate::chain::Blockchain) is generic over a
//! [`BlockStore`]: the ordered container holding the live blocks between
//! the shifting genesis marker `m` and the tip. Two backends ship with the
//! crate:
//!
//! * [`MemStore`] — a plain `VecDeque`, the historical behaviour and the
//!   default type parameter;
//! * [`FileStore`](crate::fstore::FileStore) — the append-only segment
//!   log: durable and paged when rooted in a directory, fully resident
//!   when unrooted.
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
/// header commitment instead of re-hashing every entry. Where the root
/// comes from depends on who made the block: a block this node built is
/// sealed from the root [`Block::new`] derived for its header
/// ([`Blockchain::push_new`](crate::chain::Blockchain::push_new)), while a
/// block from outside — a peer, a sync response, an adopted chain — is
/// re-hashed by [`SealedBlock::seal`]. The root is an
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
    /// Seals a block, computing its header digest and re-deriving its
    /// payload root from the body — the path for blocks made elsewhere,
    /// whose header commitment is unchecked until then.
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
    /// every time it is materialised from disk, and
    /// [`Blockchain::push_new`](crate::chain::Blockchain::push_new), which
    /// has just built the block's header from its body. The caller vouches
    /// that `hash`/`payload_root` were derived from exactly this block (the
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
/// Fully resident backends ([`MemStore`], unrooted `FileStore`) lend
/// plain borrows; the paged, disk-rooted
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockBody;
    use crate::fstore::FileStore;
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
    fn mem_and_file_stores_agree() {
        // Drains land on both sides of the 64-block segment boundaries.
        let mem: MemStore = drive(200, &[3, 10, 0, 60, 7]);
        let file: FileStore = drive(200, &[3, 10, 0, 60, 7]);
        assert_eq!(mem.len(), file.len());
        assert!(mem.iter().eq(file.iter()));
        for i in 0..mem.len() {
            assert_eq!(mem.get(i), file.get(i));
        }
        assert_eq!(mem.first(), file.first());
        assert_eq!(mem.last(), file.last());
    }

    #[test]
    fn file_store_logical_equality_ignores_layout() {
        // Same logical content, different pruning history.
        let mut a = FileStore::default();
        let mut b = FileStore::default();
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
    fn file_store_drain_front_clamps() {
        // Unrooted variant here; the rooted variant (with on-disk effects)
        // is pinned in `fstore::tests::drain_front_clamps_beyond_len`.
        assert_drain_clamps::<FileStore>();
    }
}
