//! The baseline comparator: a conventional append-only blockchain without
//! summary blocks, pruning or deletion.
//!
//! The paper motivates selective deletion with the unbounded growth of
//! ordinary chains ("Bitcoin … has almost reached a blockchain size of
//! 300 GB", §I). The growth and validation experiments (E1, E5 in
//! DESIGN.md) compare against this baseline.

use seldel_codec::DataRecord;

use crate::block::{Block, BlockBody};
use crate::chain::Blockchain;
use crate::entry::Entry;
use crate::error::ChainError;
use crate::types::{BlockNumber, EntryId, EntryNumber, Timestamp};
use crate::validate::{validate_full, ValidationReport};

/// A plain, ever-growing blockchain.
#[derive(Debug, Clone)]
pub struct BaselineChain {
    chain: Blockchain,
}

impl BaselineChain {
    /// Starts a baseline chain with a genesis block.
    pub fn new(note: impl Into<String>, timestamp: Timestamp) -> BaselineChain {
        BaselineChain {
            chain: Blockchain::new(Block::genesis(note, timestamp)),
        }
    }

    /// Appends a block of entries; returns its number.
    ///
    /// # Errors
    ///
    /// Propagates [`ChainError`] from the underlying push (e.g. timestamp
    /// regression).
    pub fn append(
        &mut self,
        timestamp: Timestamp,
        entries: Vec<Entry>,
    ) -> Result<BlockNumber, ChainError> {
        let number = self.chain.tip().number().next();
        self.chain
            .push_new(timestamp, BlockBody::Normal { entries })?;
        Ok(number)
    }

    /// The underlying chain (read-only).
    pub fn chain(&self) -> &Blockchain {
        &self.chain
    }

    /// Chain length in blocks (including genesis).
    pub fn len(&self) -> u64 {
        self.chain.len()
    }

    /// Baseline chains are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Total byte size of the chain.
    pub fn total_byte_size(&self) -> u64 {
        self.chain.total_byte_size()
    }

    /// Looks up a data record by id (an owned clone — the holder block may
    /// be a transient page on disk-backed stores).
    pub fn get_record(&self, id: EntryId) -> Option<DataRecord> {
        self.chain.locate(id).and_then(|l| l.data().cloned())
    }

    /// Validates the whole chain.
    ///
    /// # Errors
    ///
    /// Returns the first violation as a [`ChainError`].
    pub fn validate(&self) -> Result<ValidationReport, ChainError> {
        validate_full(&self.chain)
    }

    /// Ids of all data entries, in chain order.
    pub fn record_ids(&self) -> Vec<EntryId> {
        self.chain
            .live_records()
            .into_iter()
            .map(|(id, _)| id)
            .collect()
    }

    /// Convenience: id of entry `entry` in block `block`.
    pub fn id(block: u64, entry: u32) -> EntryId {
        EntryId::new(BlockNumber(block), EntryNumber(entry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seldel_crypto::SigningKey;

    fn entry(n: u64) -> Entry {
        let key = SigningKey::from_seed([7u8; 32]);
        Entry::sign_data(&key, DataRecord::new("x").with("n", n))
    }

    #[test]
    fn append_and_lookup() {
        let mut base = BaselineChain::new("base", Timestamp(0));
        let b1 = base
            .append(Timestamp(10), vec![entry(1), entry(2)])
            .unwrap();
        assert_eq!(b1, BlockNumber(1));
        assert_eq!(base.len(), 2);
        let rec = base.get_record(BaselineChain::id(1, 1)).unwrap();
        assert_eq!(rec.get("n").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn grows_without_bound() {
        let mut base = BaselineChain::new("base", Timestamp(0));
        for i in 1..=50 {
            base.append(Timestamp(i * 10), vec![entry(i)]).unwrap();
        }
        assert_eq!(base.len(), 51);
        assert_eq!(base.record_ids().len(), 50);
        base.validate().unwrap();
    }

    #[test]
    fn validates_clean() {
        let mut base = BaselineChain::new("base", Timestamp(0));
        base.append(Timestamp(5), vec![entry(1)]).unwrap();
        let report = base.validate().unwrap();
        assert_eq!(report.blocks_checked, 2);
        assert_eq!(report.entries_verified, 1);
    }
}
