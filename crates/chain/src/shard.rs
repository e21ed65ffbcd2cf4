//! The sharded query & intake subsystem: partitioned entry index and
//! sharded mempool.
//!
//! "Where does data set X live now" is the hot query of the whole system
//! (§V: every validation, deletion and sync check resolves entries against
//! the live chain). PR 2's maintained [`EntryIndex`] made that O(log n).
//! This module partitions it and the leader's intake queue:
//!
//! * [`ShardMap`] — a stable key → shard-id mapping (power-of-two shard
//!   count, FNV-1a over canonical bytes). **Stability rule:** the route is
//!   a pure function of the key's canonical bytes and the shard count,
//!   never of process state (no randomized hashers), so two nodes — or
//!   one node across restarts — route every key identically.
//! * [`ShardedIndex`] — the [`EntryIndex`] partitioned by *entry id*
//!   (the only key a lookup holds), behind the same
//!   `get`/`contains`/`index_block`/`retire_before` API. The monolithic
//!   [`EntryIndex`] stays as the oracle the property tests compare
//!   against.
//! * [`ShardedMempool`] — the leader's intake queue partitioned by
//!   *author key*, with per-shard dedup (a byte-identical entry already
//!   pending is refused) and a fair round-robin drain at seal time, so a
//!   single hot author can no longer occupy every slot of a sealed block.
//!
//! Chains and ledgers always use [`DEFAULT_SHARD_COUNT`]; the count is a
//! constant, not a tuning knob. Everything here is **derived state**:
//! shards never enter a hash or a canonical encoding, so invariant I2
//! (bit-identical summary blocks across nodes) cannot see them — the same
//! separation that lets redactable-chain designs keep mutable bookkeeping
//! outside consensus.

use std::collections::{BTreeSet, VecDeque};

use seldel_crypto::{sha256, Digest32, VerifyingKey};

use crate::block::Block;
use crate::entry::Entry;
use crate::index::{block_index_pairs, EntryIndex, Location};
use crate::types::{BlockNumber, EntryId};

/// The shard count every chain index and ledger mempool uses.
///
/// Any power of two gives bit-identical query results (property-tested);
/// only the capped mempool drain order depends on it.
pub const DEFAULT_SHARD_COUNT: usize = 4;

/// 64-bit FNV-1a — tiny, dependency-free, and stable across platforms and
/// process runs (unlike `std`'s randomized `DefaultHasher`).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A stable key → shard-id mapping over a power-of-two shard count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    shards: u32,
}

impl ShardMap {
    /// Creates a map over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics unless `shards` is a power of two in `1..=65536` — the
    /// power-of-two constraint keeps routing a single mask instead of a
    /// modulo, and makes doubling/halving the count an even split.
    pub fn new(shards: usize) -> ShardMap {
        assert!(
            (1..=1 << 16).contains(&shards),
            "shard count {shards} outside 1..=65536"
        );
        assert!(
            shards.is_power_of_two(),
            "shard count {shards} is not a power of two"
        );
        ShardMap {
            shards: shards as u32,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards as usize
    }

    /// Routes an arbitrary canonical byte string.
    pub fn shard_of_bytes(&self, bytes: &[u8]) -> usize {
        (fnv1a64(bytes) & u64::from(self.shards - 1)) as usize
    }

    /// Routes an author key — the mempool partition.
    pub fn shard_of_author(&self, author: &VerifyingKey) -> usize {
        self.shard_of_bytes(author.as_bytes())
    }

    /// Routes an entry id — the index partition. Lookups only hold the id
    /// (not the author), so the index must shard by something derivable
    /// from the id alone.
    pub fn shard_of_entry(&self, id: EntryId) -> usize {
        let mut bytes = [0u8; 12];
        bytes[..8].copy_from_slice(&id.block.value().to_le_bytes());
        bytes[8..].copy_from_slice(&id.entry.value().to_le_bytes());
        self.shard_of_bytes(&bytes)
    }
}

impl Default for ShardMap {
    fn default() -> ShardMap {
        ShardMap::new(DEFAULT_SHARD_COUNT)
    }
}

/// The [`EntryIndex`] partitioned by entry id.
///
/// Exposes the monolithic index's query API and must answer every query
/// bit-identically to it (the property tests pin this against the
/// [`EntryIndex`] oracle). Routing an id is a pure function of the id and
/// the shard count, so an id's entire location history — insert,
/// newest-carrier overwrite, retire — plays out inside one shard, which is
/// why per-shard state needs no cross-shard coordination.
#[derive(Debug, Clone)]
pub struct ShardedIndex {
    map: ShardMap,
    shards: Vec<EntryIndex>,
}

impl Default for ShardedIndex {
    fn default() -> ShardedIndex {
        ShardedIndex::new(DEFAULT_SHARD_COUNT)
    }
}

impl ShardedIndex {
    /// An empty index over `shards` shards (see [`ShardMap::new`]).
    pub fn new(shards: usize) -> ShardedIndex {
        let map = ShardMap::new(shards);
        ShardedIndex {
            map,
            shards: vec![EntryIndex::new(); map.shards()],
        }
    }

    /// The location of `id`, if indexed.
    pub fn get(&self, id: EntryId) -> Option<Location> {
        self.shards[self.map.shard_of_entry(id)].get(id)
    }

    /// Whether `id` is indexed (the data set is physically live).
    pub fn contains(&self, id: EntryId) -> bool {
        self.shards[self.map.shard_of_entry(id)].contains(id)
    }

    /// Total number of indexed data sets across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(EntryIndex::len).sum()
    }

    /// Whether no shard holds anything.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(EntryIndex::is_empty)
    }

    /// Iterates `(id, location)` pairs in global id order — a k-way merge
    /// of the per-shard (already ordered) iterators.
    pub fn iter(&self) -> impl Iterator<Item = (EntryId, Location)> + '_ {
        MergedIter {
            shards: self
                .shards
                .iter()
                .map(|s| (Box::new(s.iter()) as ShardIter<'_>).peekable())
                .collect(),
        }
    }

    /// Indexes a freshly appended block, routing each contributed pair to
    /// its shard (same inputs as [`EntryIndex::index_block`]).
    pub fn index_block(&mut self, block: &Block) {
        for (id, location) in block_index_pairs(block) {
            self.shards[self.map.shard_of_entry(id)].insert(id, location);
        }
    }

    /// Drops every entry whose holder block lies before `marker`, shard by
    /// shard (same semantics as [`EntryIndex::retire_before`]).
    pub fn retire_before(&mut self, marker: BlockNumber) {
        for shard in &mut self.shards {
            shard.retire_before(marker);
        }
    }
}

/// Logical equality: same `(id, location)` pairs, regardless of shard
/// count or layout, like stores only differing in pruning history do.
impl PartialEq for ShardedIndex {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for ShardedIndex {}

/// Equality against the monolithic oracle, so existing
/// `assert_eq!(chain.entry_index(), &chain.rebuilt_index())` checks keep
/// comparing maintained state to a full-scan rebuild.
impl PartialEq<EntryIndex> for ShardedIndex {
    fn eq(&self, other: &EntryIndex) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

/// One shard's ordered pair stream, boxed for the merge.
type ShardIter<'a> = Box<dyn Iterator<Item = (EntryId, Location)> + 'a>;

/// K-way merge over per-shard ordered iterators.
struct MergedIter<'a> {
    shards: Vec<std::iter::Peekable<ShardIter<'a>>>,
}

impl Iterator for MergedIter<'_> {
    type Item = (EntryId, Location);

    fn next(&mut self) -> Option<(EntryId, Location)> {
        let mut best: Option<(usize, EntryId)> = None;
        for (i, iter) in self.shards.iter_mut().enumerate() {
            if let Some((id, _)) = iter.peek() {
                if best.is_none_or(|(_, best_id)| *id < best_id) {
                    best = Some((i, *id));
                }
            }
        }
        let (winner, _) = best?;
        self.shards[winner].next()
    }
}

/// One queued mempool entry.
#[derive(Debug, Clone)]
struct QueuedEntry {
    /// Global arrival sequence (drives the uncapped exact-FIFO drain).
    seq: u64,
    /// Digest of the canonical bytes (the dedup key).
    digest: Digest32,
    /// The entry itself.
    entry: Entry,
    /// Glued to the entry queued right behind it in the same shard: the
    /// two must seal in the same block (atomic bundles, e.g. a
    /// correction's deletion + replacement).
    glued_to_next: bool,
}

/// The leader's intake queue, partitioned by author key.
///
/// Entries wait per author shard in arrival order; a global arrival
/// sequence number preserves exact first-in-first-out sealing when no
/// block capacity is configured. Under a capacity limit
/// ([`ShardedMempool::drain_fair`] with `Some(cap)`), the drain turns
/// round-robin across shards so one flooding author cannot occupy every
/// slot of a sealed block — the entries a round leaves behind stay queued
/// for the next block (atomic bundles always travel whole; see
/// [`ShardedMempool::insert_atomic`]).
///
/// **Per-shard dedup:** inserting an entry whose canonical bytes are
/// already pending is refused. Identical entries always route to the same
/// shard (same author), so per-shard dedup is global dedup at per-shard
/// cost.
#[derive(Debug, Clone)]
pub struct ShardedMempool {
    map: ShardMap,
    /// Queued entries per shard, arrival order.
    shards: Vec<VecDeque<QueuedEntry>>,
    /// Digests of pending entries, per shard (the dedup filter).
    pending: Vec<BTreeSet<Digest32>>,
    /// Where the next capped drain's round-robin starts. Persisted across
    /// drains: without it every block would restart at shard 0, handing
    /// low-index shards a standing advantage and starving high-index
    /// shards under caps smaller than the number of active shards.
    cursor: usize,
    next_seq: u64,
    len: usize,
}

impl Default for ShardedMempool {
    fn default() -> ShardedMempool {
        ShardedMempool::new(DEFAULT_SHARD_COUNT)
    }
}

impl ShardedMempool {
    /// An empty mempool over `shards` author shards.
    pub fn new(shards: usize) -> ShardedMempool {
        let map = ShardMap::new(shards);
        ShardedMempool {
            map,
            shards: vec![VecDeque::new(); map.shards()],
            pending: vec![BTreeSet::new(); map.shards()],
            cursor: 0,
            next_seq: 0,
            len: 0,
        }
    }

    /// Total pending entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether a byte-identical entry is already pending (what
    /// [`ShardedMempool::insert`] would refuse) — lets callers staging a
    /// multi-entry submission check the whole batch before enqueuing any
    /// of it.
    pub fn contains(&self, entry: &Entry) -> bool {
        use seldel_codec::Codec;
        let digest = sha256(entry.to_canonical_bytes());
        self.pending[self.map.shard_of_author(&entry.author())].contains(&digest)
    }

    /// Enqueues an entry into its author's shard. Returns `false` — and
    /// enqueues nothing — when a byte-identical entry is already pending.
    pub fn insert(&mut self, entry: Entry) -> bool {
        self.insert_atomic(vec![entry])
    }

    /// Enqueues several entries **atomically**: either all are accepted,
    /// or (if any is a pending duplicate, or the entries span more than
    /// one author shard) none is — and once accepted, the bundle also
    /// *seals* atomically: a capped drain never splits it across blocks.
    /// This is the primitive behind corrections, whose deletion +
    /// replacement must land together (same author, hence same shard).
    pub fn insert_atomic(&mut self, entries: Vec<Entry>) -> bool {
        use seldel_codec::Codec;
        let Some(first) = entries.first() else {
            return true;
        };
        let shard = self.map.shard_of_author(&first.author());
        let digests: Vec<Digest32> = entries
            .iter()
            .map(|e| sha256(e.to_canonical_bytes()))
            .collect();
        // All-or-nothing: every check before any mutation.
        let same_shard = entries
            .iter()
            .all(|e| self.map.shard_of_author(&e.author()) == shard);
        let mut staged = BTreeSet::new();
        let all_fresh = digests
            .iter()
            .all(|d| !self.pending[shard].contains(d) && staged.insert(*d));
        if !same_shard || !all_fresh {
            return false;
        }
        let last = entries.len() - 1;
        for (i, (entry, digest)) in entries.into_iter().zip(digests).enumerate() {
            self.pending[shard].insert(digest);
            self.shards[shard].push_back(QueuedEntry {
                seq: self.next_seq,
                digest,
                entry,
                glued_to_next: i < last,
            });
            self.next_seq += 1;
            self.len += 1;
        }
        true
    }

    /// Drains entries for the next block.
    ///
    /// With no capacity (or when everything fits) the drain is the exact
    /// global arrival order — byte-identical blocks to the historical
    /// single-queue mempool. When `cap` bites, the drain takes the oldest
    /// entry of each non-empty shard, round after round, until `cap`
    /// entries are out: every author shard with pending work gets a slot
    /// before any shard gets a second one. Rounds start at a cursor
    /// **persisted across drains** (just past the last shard served), so
    /// low-index shards hold no standing advantage block after block —
    /// even a cap of 1 rotates through every active shard over
    /// consecutive blocks. Atomic bundles
    /// ([`ShardedMempool::insert_atomic`]) always drain whole; a block
    /// may exceed the cap by a bundle tail rather than split one.
    pub fn drain_fair(&mut self, cap: Option<usize>) -> Vec<Entry> {
        let take = cap.map_or(self.len, |c| c.min(self.len));
        if take == 0 {
            return Vec::new();
        }
        if take == self.len {
            // Everything goes: merge by arrival sequence (exact FIFO).
            let mut all: Vec<(u64, Entry)> = Vec::with_capacity(self.len);
            for shard in &mut self.shards {
                all.extend(shard.drain(..).map(|q| (q.seq, q.entry)));
            }
            for pending in &mut self.pending {
                pending.clear();
            }
            self.len = 0;
            all.sort_unstable_by_key(|(seq, _)| *seq);
            return all.into_iter().map(|(_, entry)| entry).collect();
        }
        let shard_count = self.shards.len();
        let mut out = Vec::with_capacity(take);
        'rounds: while out.len() < take {
            let mut progressed = false;
            for step in 0..shard_count {
                let shard = (self.cursor + step) % shard_count;
                // Pop the head — and, if it opens a glued bundle, the
                // whole bundle: atomic pairs never split across blocks,
                // even when that overshoots the cap by a bundle tail.
                let mut glued = true;
                let mut popped = false;
                while glued {
                    let Some(queued) = self.shards[shard].pop_front() else {
                        break;
                    };
                    self.pending[shard].remove(&queued.digest);
                    glued = queued.glued_to_next;
                    out.push(queued.entry);
                    popped = true;
                }
                if popped {
                    progressed = true;
                    if out.len() >= take {
                        self.cursor = (shard + 1) % shard_count;
                        break 'rounds;
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        self.len -= out.len();
        out
    }

    /// Drops everything pending.
    pub fn clear(&mut self) {
        for shard in &mut self.shards {
            shard.clear();
        }
        for pending in &mut self.pending {
            pending.clear();
        }
        self.cursor = 0;
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockBody;
    use crate::summary::SummaryRecord;
    use crate::types::{EntryNumber, Timestamp};
    use seldel_codec::DataRecord;
    use seldel_crypto::SigningKey;

    fn key(seed: u8) -> SigningKey {
        SigningKey::from_seed([seed; 32])
    }

    fn data_entry(seed: u8, n: u64) -> Entry {
        Entry::sign_data(&key(seed), DataRecord::new("log").with("n", n))
    }

    fn normal_block(number: u64, entries: Vec<Entry>) -> Block {
        Block::new(
            BlockNumber(number),
            Timestamp(number * 10),
            seldel_crypto::Digest32::ZERO,
            BlockBody::Normal { entries },
        )
    }

    fn summary_block(number: u64, records: Vec<SummaryRecord>) -> Block {
        Block::new(
            BlockNumber(number),
            Timestamp(number * 10),
            seldel_crypto::Digest32::ZERO,
            BlockBody::Summary {
                records,
                deletions: vec![],
                anchor: None,
            },
        )
    }

    #[test]
    fn shard_map_routes_are_stable_and_in_range() {
        let map = ShardMap::new(8);
        let id = EntryId::new(BlockNumber(17), EntryNumber(3));
        let route = map.shard_of_entry(id);
        assert!(route < 8);
        // Stability: same inputs, same route, every time and across maps.
        assert_eq!(route, map.shard_of_entry(id));
        assert_eq!(route, ShardMap::new(8).shard_of_entry(id));
        let author = key(1).verifying_key();
        assert_eq!(map.shard_of_author(&author), map.shard_of_author(&author));
        // Halving the count is a strict coarsening of the same hash.
        let coarse = ShardMap::new(4);
        assert_eq!(coarse.shard_of_entry(id), route & 3);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn shard_map_rejects_non_power_of_two() {
        ShardMap::new(3);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn shard_map_rejects_zero() {
        ShardMap::new(0);
    }

    #[test]
    fn sharded_index_matches_monolithic_on_blocks() {
        for shards in [1usize, 2, 8] {
            let mut sharded = ShardedIndex::new(shards);
            let mut oracle = EntryIndex::new();
            let block1 = normal_block(1, vec![data_entry(1, 1), data_entry(2, 2)]);
            let block2 = normal_block(2, vec![data_entry(3, 3)]);
            let carried = EntryId::new(BlockNumber(1), EntryNumber(0));
            let record = SummaryRecord::from_entry(&block1.entries()[0], carried, Timestamp(10))
                .expect("data entry");
            let sigma = summary_block(3, vec![record]);
            for block in [&block1, &block2, &sigma] {
                sharded.index_block(block);
                oracle.index_block(block);
            }
            assert_eq!(sharded.len(), oracle.len());
            assert!(sharded.iter().eq(oracle.iter()), "shards = {shards}");
            assert_eq!(&sharded, &oracle);
            for (id, _) in oracle.iter() {
                assert_eq!(sharded.get(id), oracle.get(id));
                assert!(sharded.contains(id));
            }

            // Retire: both drop the same ids.
            sharded.retire_before(BlockNumber(2));
            oracle.retire_before(BlockNumber(2));
            assert_eq!(&sharded, &oracle);
            assert_eq!(sharded.get(carried), oracle.get(carried));
        }
    }

    #[test]
    fn sharded_index_logical_equality_ignores_shard_count() {
        let block = normal_block(1, vec![data_entry(1, 1), data_entry(2, 2)]);
        let mut one = ShardedIndex::new(1);
        let mut eight = ShardedIndex::new(8);
        one.index_block(&block);
        eight.index_block(&block);
        assert_eq!(one, eight);
        eight.retire_before(BlockNumber(2));
        assert_ne!(one, eight);
    }

    #[test]
    fn capped_drain_cursor_rotates_across_blocks() {
        // Regression guard: the round-robin cursor must persist across
        // drains. Restarting at shard 0 every block would hand low-index
        // shards a standing advantage — with cap = 1 a quiet author on a
        // high-index shard would never be served at all.
        let mut pool = ShardedMempool::new(4);
        let seeds = distinct_shard_author_seeds(ShardMap::new(4), 2);
        for n in 0..6 {
            assert!(pool.insert(data_entry(seeds[0], n)));
        }
        assert!(pool.insert(data_entry(seeds[1], 100)));
        let quiet_key = key(seeds[1]).verifying_key();
        let mut served_quiet = false;
        for _ in 0..4 {
            let block = pool.drain_fair(Some(1));
            assert_eq!(block.len(), 1);
            served_quiet |= block[0].author() == quiet_key;
        }
        assert!(
            served_quiet,
            "four cap-1 drains over 4 shards never reached the quiet shard"
        );
    }

    #[test]
    fn mempool_preserves_fifo_without_cap() {
        let mut pool = ShardedMempool::new(8);
        let entries: Vec<Entry> = (0..10).map(|n| data_entry((n % 3) as u8 + 1, n)).collect();
        for entry in &entries {
            assert!(pool.insert(entry.clone()));
        }
        assert_eq!(pool.len(), 10);
        let drained = pool.drain_fair(None);
        assert_eq!(drained, entries, "uncapped drain must be exact FIFO");
        assert!(pool.is_empty());
    }

    use crate::testutil::distinct_shard_author_seeds;

    #[test]
    fn mempool_capped_drain_is_fair_round_robin() {
        let mut pool = ShardedMempool::new(4);
        let seeds = distinct_shard_author_seeds(ShardMap::new(4), 3);
        // The first author floods; the other two each submit one entry
        // after the flood is already queued.
        for n in 0..12 {
            assert!(pool.insert(data_entry(seeds[0], n)));
        }
        assert!(pool.insert(data_entry(seeds[1], 100)));
        assert!(pool.insert(data_entry(seeds[2], 200)));

        let block = pool.drain_fair(Some(4));
        assert_eq!(block.len(), 4);
        let authors: BTreeSet<[u8; 32]> = block.iter().map(|e| e.author().to_bytes()).collect();
        for late in &seeds[1..] {
            assert!(
                authors.contains(&key(*late).verifying_key().to_bytes()),
                "author {late} starved out of the block"
            );
        }
        // Leftovers stay queued and drain in arrival order next time.
        assert_eq!(pool.len(), 10);
        let rest = pool.drain_fair(None);
        assert_eq!(rest.len(), 10);
        assert!(pool.is_empty());
    }

    #[test]
    fn mempool_rejects_duplicate_pending_entries() {
        let mut pool = ShardedMempool::new(4);
        let entry = data_entry(1, 7);
        assert!(pool.insert(entry.clone()));
        assert!(!pool.insert(entry.clone()), "duplicate must be refused");
        assert_eq!(pool.len(), 1);
        // Once drained, the same bytes may be submitted again.
        assert_eq!(pool.drain_fair(None).len(), 1);
        assert!(pool.insert(entry));
    }

    #[test]
    fn mempool_clear_resets_dedup() {
        let mut pool = ShardedMempool::new(2);
        let entry = data_entry(1, 1);
        assert!(pool.insert(entry.clone()));
        pool.clear();
        assert!(pool.is_empty());
        assert!(pool.insert(entry), "cleared digests must not linger");
    }
}
