//! The maintained entry index: `EntryId → Location` for every live data
//! set.
//!
//! `Blockchain::locate` historically scanned all summary blocks
//! newest-first to find a carried record — O(live chain) per lookup. The
//! [`EntryIndex`] replaces the scan with an O(log n) `BTreeMap` lookup.
//! The chain maintains it incrementally: every pushed block is indexed,
//! every marker shift retires the entries whose holder block was cut.
//!
//! The index is **derived state**: it is rebuildable from the blocks alone
//! (see [`EntryIndex`] vs `Blockchain::rebuilt_index` in the property
//! tests) and never enters any hash or canonical encoding, so invariant I2
//! (bit-identical summary blocks across nodes) is untouched by its
//! existence.

use std::collections::BTreeMap;

use crate::block::{Block, BlockKind};
use crate::types::{BlockNumber, EntryId};

/// Where an indexed data set currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Location {
    /// Still a data entry inside its original block (`id.block`).
    InBlock,
    /// Carried as record `slot` of summary block `holder`.
    InSummary {
        /// The summary block holding the carried record.
        holder: BlockNumber,
        /// Index of the record within the summary body.
        slot: u32,
    },
}

impl Location {
    /// The block physically holding the data set with id `id`.
    pub fn holder(&self, id: EntryId) -> BlockNumber {
        match self {
            Location::InBlock => id.block,
            Location::InSummary { holder, .. } => *holder,
        }
    }
}

/// An ordered index over every live data set (data entries in normal
/// blocks plus carried summary records). Deletion-request entries are
/// transport, not data, and are not indexed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EntryIndex {
    map: BTreeMap<EntryId, Location>,
}

impl EntryIndex {
    /// An empty index.
    pub fn new() -> EntryIndex {
        EntryIndex::default()
    }

    /// The location of `id`, if indexed.
    pub fn get(&self, id: EntryId) -> Option<Location> {
        self.map.get(&id).copied()
    }

    /// Whether `id` is indexed (the data set is physically live).
    pub fn contains(&self, id: EntryId) -> bool {
        self.map.contains_key(&id)
    }

    /// Number of indexed data sets.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates `(id, location)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (EntryId, Location)> + '_ {
        self.map.iter().map(|(id, loc)| (*id, *loc))
    }

    /// Inserts (or overwrites) a single location — the low-level primitive
    /// [`EntryIndex::index_block`] and the sharded index build on. Callers
    /// must apply insertions in block order so the newest-carrier-wins rule
    /// holds.
    pub fn insert(&mut self, id: EntryId, location: Location) {
        self.map.insert(id, location);
    }

    /// Indexes a block that was just appended to the chain.
    ///
    /// Data entries of normal blocks map to [`Location::InBlock`]; records
    /// of summary blocks map to [`Location::InSummary`], overwriting any
    /// older location. The overwrite mirrors the historical newest-first
    /// summary scan: the newest carrier wins, and when the older holder is
    /// pruned the entry is already pointing at the survivor.
    pub fn index_block(&mut self, block: &Block) {
        for (id, location) in block_index_pairs(block) {
            self.map.insert(id, location);
        }
    }

    /// Drops every entry whose holder block lies before `marker`.
    ///
    /// Called by `truncate_front`: data sets whose holder was cut and that
    /// were *not* re-indexed by a newer summary carrier are physically gone
    /// (deleted, expired, or simply never carried).
    pub fn retire_before(&mut self, marker: BlockNumber) {
        self.map.retain(|id, loc| loc.holder(*id) >= marker);
    }
}

/// The `(id, location)` pairs indexing `block` contributes, in entry order.
///
/// This is the single definition of "what a block adds to the index",
/// shared by [`EntryIndex::index_block`] and the sharded index
/// ([`crate::shard::ShardedIndex`]) so the two can never disagree on
/// routing inputs: data entries of normal blocks (deletion requests are
/// transport, not data), and carried records of summary blocks.
pub fn block_index_pairs(block: &Block) -> Vec<(EntryId, Location)> {
    let mut pairs = Vec::new();
    match block.kind() {
        BlockKind::Normal => {
            for (i, entry) in block.entries().iter().enumerate() {
                if entry.is_delete_request() {
                    continue;
                }
                let id = EntryId::new(block.number(), crate::types::EntryNumber(i as u32));
                pairs.push((id, Location::InBlock));
            }
        }
        BlockKind::Summary => {
            for (slot, record) in block.summary_records().iter().enumerate() {
                pairs.push((
                    record.origin(),
                    Location::InSummary {
                        holder: block.number(),
                        slot: slot as u32,
                    },
                ));
            }
        }
        BlockKind::Genesis | BlockKind::Empty => {}
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockBody;
    use crate::entry::{DeleteRequest, Entry};
    use crate::summary::SummaryRecord;
    use crate::types::{EntryNumber, Timestamp};
    use seldel_codec::DataRecord;
    use seldel_crypto::SigningKey;

    fn key() -> SigningKey {
        SigningKey::from_seed([3u8; 32])
    }

    fn data_entry(n: u64) -> Entry {
        Entry::sign_data(&key(), DataRecord::new("x").with("n", n))
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
    fn indexes_data_entries_but_not_delete_requests() {
        let mut index = EntryIndex::new();
        let entries = vec![
            data_entry(1),
            Entry::sign_delete(
                &key(),
                DeleteRequest::new(EntryId::new(BlockNumber(1), EntryNumber(0)), ""),
            ),
            data_entry(2),
        ];
        index.index_block(&normal_block(1, entries));
        assert_eq!(index.len(), 2);
        assert_eq!(
            index.get(EntryId::new(BlockNumber(1), EntryNumber(0))),
            Some(Location::InBlock)
        );
        assert!(!index.contains(EntryId::new(BlockNumber(1), EntryNumber(1))));
        assert!(index.contains(EntryId::new(BlockNumber(1), EntryNumber(2))));
    }

    #[test]
    fn summary_records_overwrite_and_newest_wins() {
        let mut index = EntryIndex::new();
        let id = EntryId::new(BlockNumber(1), EntryNumber(0));
        index.index_block(&normal_block(1, vec![data_entry(1)]));

        let record = SummaryRecord::from_entry(&data_entry(1), id, Timestamp(10)).unwrap();
        index.index_block(&summary_block(2, vec![record.clone()]));
        assert_eq!(
            index.get(id),
            Some(Location::InSummary {
                holder: BlockNumber(2),
                slot: 0
            })
        );

        // A later re-carry moves the pointer to the newest holder.
        index.index_block(&summary_block(5, vec![record]));
        assert_eq!(
            index.get(id).unwrap().holder(id),
            BlockNumber(5),
            "newest carrier must win"
        );
    }

    #[test]
    fn retire_drops_pruned_holders_only() {
        let mut index = EntryIndex::new();
        let carried = EntryId::new(BlockNumber(1), EntryNumber(0));
        let gone = EntryId::new(BlockNumber(2), EntryNumber(0));
        index.index_block(&normal_block(1, vec![data_entry(1)]));
        index.index_block(&normal_block(2, vec![data_entry(2)]));
        let record = SummaryRecord::from_entry(&data_entry(1), carried, Timestamp(10)).unwrap();
        index.index_block(&summary_block(5, vec![record]));
        index.index_block(&normal_block(6, vec![data_entry(3)]));

        // Prune everything below 5: entry 2:0 was never carried → gone;
        // 1:0 survives via its summary holder; 6:0 untouched.
        index.retire_before(BlockNumber(5));
        assert!(!index.contains(gone));
        assert_eq!(index.get(carried).unwrap().holder(carried), BlockNumber(5));
        assert!(index.contains(EntryId::new(BlockNumber(6), EntryNumber(0))));
        assert_eq!(index.len(), 2);
        assert_eq!(index.iter().count(), 2);
    }
}
