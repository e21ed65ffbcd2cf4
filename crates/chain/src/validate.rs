//! Structural and cryptographic chain validation.
//!
//! §V-B3 of the paper: nodes "only accept a blockchain which is traceable
//! from its current status quo" — validation therefore starts at the live
//! marker, never at the original block 0 (which may be long pruned). The
//! first live block's `prev_hash` is the quorum-attested trust anchor and
//! is not checked against anything.

use seldel_crypto::MerkleTree;

use crate::block::BlockKind;
use crate::chain::Blockchain;
use crate::error::ChainError;
use crate::store::{BlockRef, BlockStore};
use crate::summary::Anchor;
use crate::types::BlockNumber;

/// What to verify beyond pure structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValidationOptions {
    /// Verify every entry's author signature.
    pub verify_entry_signatures: bool,
    /// Verify the carried signatures inside summary records.
    pub verify_summary_records: bool,
    /// Verify Fig. 9 anchors whose ranges are still live.
    pub verify_anchors: bool,
}

impl Default for ValidationOptions {
    fn default() -> Self {
        ValidationOptions {
            verify_entry_signatures: true,
            verify_summary_records: true,
            verify_anchors: true,
        }
    }
}

impl ValidationOptions {
    /// Structure-only validation (hash links, numbering, timestamps).
    pub fn structural() -> ValidationOptions {
        ValidationOptions {
            verify_entry_signatures: false,
            verify_summary_records: false,
            verify_anchors: false,
        }
    }
}

/// Counters describing a completed validation pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ValidationReport {
    /// Blocks checked.
    pub blocks_checked: u64,
    /// Entry signatures verified.
    pub entries_verified: u64,
    /// Summary-record signatures verified.
    pub records_verified: u64,
    /// Anchors verified against live history.
    pub anchors_verified: u64,
}

/// Counters describing a completed [`validate_incremental`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IncrementalReport {
    /// Blocks checked.
    pub blocks_checked: u64,
    /// Blocks whose payload commitment was checked against the cached
    /// seal-time root (no body re-hash).
    pub roots_cached: u64,
    /// Blocks whose root was absent from the seal cache (legacy stores)
    /// and had to be re-derived from the body.
    pub roots_recomputed: u64,
}

/// Validates the live chain from the marker to the tip.
///
/// Hash-link checks read the per-block digest cache (computed once when
/// each block entered the store); payload commitments are still re-derived
/// from the bodies, so tampering with a stored body is caught regardless.
///
/// # Errors
///
/// Returns the first violation found, as a [`ChainError`].
pub fn validate_chain<S: BlockStore>(
    chain: &Blockchain<S>,
    opts: &ValidationOptions,
) -> Result<ValidationReport, ChainError> {
    let mut report = ValidationReport::default();
    let mut prev: Option<BlockRef<'_>> = None;

    for sealed in chain.iter_sealed() {
        let block = sealed.block();
        let number = block.number();

        if !block.is_payload_consistent() {
            return Err(ChainError::PayloadMismatch { number });
        }
        if block.kind() == BlockKind::Genesis && number != BlockNumber::GENESIS {
            return Err(ChainError::GenesisMisplaced { number });
        }
        if !block.tombstones_sorted() {
            return Err(ChainError::TombstonesUnsorted { number });
        }

        if let Some(prev_sealed) = &prev {
            let prev_block = prev_sealed.block();
            if number != prev_block.number().next() {
                return Err(ChainError::NonContiguousNumber {
                    expected: prev_block.number().next(),
                    found: number,
                });
            }
            if block.header().prev_hash != prev_sealed.hash() {
                return Err(ChainError::PrevHashMismatch { number });
            }
            match block.kind() {
                BlockKind::Summary => {
                    if block.timestamp() != prev_block.timestamp() {
                        return Err(ChainError::SummaryTimestampMismatch { number });
                    }
                }
                _ => {
                    if block.timestamp() < prev_block.timestamp() {
                        return Err(ChainError::TimestampRegression { number });
                    }
                }
            }
        }

        if opts.verify_entry_signatures {
            for (i, entry) in block.entries().iter().enumerate() {
                entry
                    .verify()
                    .map_err(|source| ChainError::EntrySignatureInvalid {
                        block: number,
                        entry: i as u32,
                        source,
                    })?;
                report.entries_verified += 1;
            }
        }
        if opts.verify_summary_records {
            for record in block.summary_records() {
                record
                    .verify()
                    .map_err(|source| ChainError::RecordSignatureInvalid {
                        block: number,
                        origin: record.origin(),
                        source,
                    })?;
                report.records_verified += 1;
            }
        }
        if opts.verify_anchors {
            if let Some(anchor) = block.anchor() {
                // Anchors over pruned ranges cannot be re-derived; only
                // check those still fully live.
                if chain.get(anchor.start).is_some() && chain.get(anchor.end).is_some() {
                    if !verify_anchor(chain, anchor) {
                        return Err(ChainError::AnchorMismatch { block: number });
                    }
                    report.anchors_verified += 1;
                }
            }
        }

        report.blocks_checked += 1;
        prev = Some(sealed);
    }

    Ok(report)
}

/// Full validation with the default options — the expensive auditor pass
/// (`validate_chain` re-hashing every payload and verifying every
/// signature) the incremental pass is benchmarked against.
///
/// # Errors
///
/// Same as [`validate_chain`].
pub fn validate_full<S: BlockStore>(chain: &Blockchain<S>) -> Result<ValidationReport, ChainError> {
    validate_chain(chain, &ValidationOptions::default())
}

/// Incremental validation over the cached seal-time commitments.
///
/// Where [`validate_chain`] re-derives every payload root from the body
/// (hashing every entry and record again), this pass compares each sealed
/// block's **cached** payload root — computed once when the block entered
/// the store, whether by live push or durable replay — against the header
/// commitment, and checks linkage through the cached header digests. Only
/// blocks whose root is absent from the cache (legacy stores,
/// [`crate::store::SealedBlock::seal_header_only`]) fall back to a full
/// body re-hash,
/// counted in [`IncrementalReport::roots_recomputed`].
///
/// This is sound because the cached root is derived from the bytes the
/// store actually holds: a durable backend re-hashes what it *decoded*
/// from disk on replay, so a tampered stored body yields a root that no
/// longer matches the header and the offending block is flagged exactly.
/// Signatures and anchors are **not** re-verified — they were checked when
/// the chain was built; this is the cheap always-on structural audit
/// (§V-B3's joining-node check made sublinear in payload size).
///
/// # Errors
///
/// Returns the first violation found, as a [`ChainError`] naming the
/// offending block.
pub fn validate_incremental<S: BlockStore>(
    chain: &Blockchain<S>,
) -> Result<IncrementalReport, ChainError> {
    validate_store_incremental(chain.store())
}

/// [`validate_incremental`] over a raw store — the form tamper audits use
/// when the store may be too damaged for chain reconstruction to accept.
///
/// # Errors
///
/// Same as [`validate_incremental`].
pub fn validate_store_incremental<S: BlockStore>(
    store: &S,
) -> Result<IncrementalReport, ChainError> {
    let _span = seldel_telemetry::span!("chain.validate_incremental");
    let mut report = IncrementalReport::default();
    let mut prev: Option<BlockRef<'_>> = None;

    for sealed in store.iter() {
        let block = sealed.block();
        let number = block.number();

        if sealed.payload_root().is_some() {
            report.roots_cached += 1;
        } else {
            report.roots_recomputed += 1;
        }
        if !sealed.is_payload_consistent() {
            return Err(ChainError::PayloadMismatch { number });
        }
        if block.kind() == BlockKind::Genesis && number != BlockNumber::GENESIS {
            return Err(ChainError::GenesisMisplaced { number });
        }
        if !block.tombstones_sorted() {
            return Err(ChainError::TombstonesUnsorted { number });
        }

        if let Some(prev_sealed) = &prev {
            let prev_block = prev_sealed.block();
            if number != prev_block.number().next() {
                return Err(ChainError::NonContiguousNumber {
                    expected: prev_block.number().next(),
                    found: number,
                });
            }
            if block.header().prev_hash != prev_sealed.hash() {
                return Err(ChainError::PrevHashMismatch { number });
            }
            match block.kind() {
                BlockKind::Summary => {
                    if block.timestamp() != prev_block.timestamp() {
                        return Err(ChainError::SummaryTimestampMismatch { number });
                    }
                }
                _ => {
                    if block.timestamp() < prev_block.timestamp() {
                        return Err(ChainError::TimestampRegression { number });
                    }
                }
            }
        }

        report.blocks_checked += 1;
        prev = Some(sealed);
    }

    if report.blocks_checked == 0 {
        return Err(ChainError::EmptyChain);
    }
    Ok(report)
}

/// Recomputes an anchor's Merkle root from live block hashes.
///
/// Returns `false` when the range is not live or the root mismatches.
pub fn verify_anchor<S: BlockStore>(chain: &Blockchain<S>, anchor: &Anchor) -> bool {
    let Some(hashes) = chain.block_hashes(anchor.start, anchor.end) else {
        return false;
    };
    let tree = MerkleTree::from_leaf_hashes(hashes);
    tree.root() == anchor.merkle_root
}

/// Builds a Fig. 9 anchor over a live block range.
///
/// Returns `None` when the range is not fully live.
pub fn build_anchor<S: BlockStore>(
    chain: &Blockchain<S>,
    start: BlockNumber,
    end: BlockNumber,
) -> Option<Anchor> {
    let hashes = chain.block_hashes(start, end)?;
    let tree = MerkleTree::from_leaf_hashes(hashes);
    Some(Anchor::new(start, end, tree.root()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Block, BlockBody};
    use crate::entry::Entry;
    use crate::types::{EntryId, EntryNumber, Timestamp};
    use seldel_codec::DataRecord;
    use seldel_crypto::SigningKey;

    fn chain(n: u64) -> Blockchain {
        let key = SigningKey::from_seed([1u8; 32]);
        let mut chain = Blockchain::new(Block::genesis("t", Timestamp(0)));
        for i in 1..=n {
            let prev = chain.tip().hash();
            chain
                .push(Block::new(
                    BlockNumber(i),
                    Timestamp(i * 10),
                    prev,
                    BlockBody::Normal {
                        entries: vec![Entry::sign_data(&key, DataRecord::new("x").with("n", i))],
                    },
                ))
                .unwrap();
        }
        chain
    }

    #[test]
    fn valid_chain_passes_full_validation() {
        let c = chain(6);
        let report = validate_chain(&c, &ValidationOptions::default()).unwrap();
        assert_eq!(report.blocks_checked, 7);
        assert_eq!(report.entries_verified, 6);
    }

    #[test]
    fn structural_only_skips_signatures() {
        let c = chain(3);
        let report = validate_chain(&c, &ValidationOptions::structural()).unwrap();
        assert_eq!(report.blocks_checked, 4);
        assert_eq!(report.entries_verified, 0);
    }

    #[test]
    fn validation_starts_at_marker_after_pruning() {
        let mut c = chain(6);
        c.truncate_front(BlockNumber(3)).unwrap();
        // First live block's prev_hash points at a pruned block — validation
        // must still pass (trust anchor semantics).
        let report = validate_chain(&c, &ValidationOptions::default()).unwrap();
        assert_eq!(report.blocks_checked, 4);
    }

    #[test]
    fn anchor_build_and_verify() {
        let c = chain(8);
        let anchor = build_anchor(&c, BlockNumber(2), BlockNumber(5)).unwrap();
        assert!(verify_anchor(&c, &anchor));
        // Tamper with the root.
        let bad = Anchor::new(anchor.start, anchor.end, seldel_crypto::sha256(b"bad"));
        assert!(!verify_anchor(&c, &bad));
        // Range not live.
        assert!(build_anchor(&c, BlockNumber(7), BlockNumber(12)).is_none());
    }

    #[test]
    fn anchored_summary_block_validates() {
        let mut c = chain(6);
        let anchor = build_anchor(&c, BlockNumber(2), BlockNumber(4)).unwrap();
        let prev = c.tip().hash();
        let ts = c.tip().timestamp();
        c.push(Block::new(
            BlockNumber(7),
            ts,
            prev,
            BlockBody::Summary {
                records: vec![],
                deletions: vec![],
                anchor: Some(anchor),
            },
        ))
        .unwrap();
        let report = validate_chain(&c, &ValidationOptions::default()).unwrap();
        assert_eq!(report.anchors_verified, 1);
    }

    #[test]
    fn incremental_uses_cached_roots_only() {
        let c = chain(6);
        let report = validate_incremental(&c).unwrap();
        assert_eq!(report.blocks_checked, 7);
        assert_eq!(report.roots_cached, 7);
        assert_eq!(report.roots_recomputed, 0);
    }

    #[test]
    fn incremental_matches_full_verdict_after_pruning() {
        let mut c = chain(6);
        c.truncate_front(BlockNumber(3)).unwrap();
        let report = validate_incremental(&c).unwrap();
        assert_eq!(report.blocks_checked, 4);
        assert!(validate_full(&c).is_ok());
    }

    #[test]
    fn incremental_recomputes_rootless_legacy_blocks() {
        // A store populated through seal_header_only has no cached roots
        // (the legacy pre-commitment-cache layout): the incremental pass
        // must fall back to a body re-hash and still accept the chain.
        let c = chain(3);
        let mut store = crate::store::MemStore::default();
        for sealed in c.iter_sealed() {
            store.push(crate::store::SealedBlock::seal_header_only(
                sealed.block().clone(),
            ));
        }
        let report = validate_store_incremental(&store).unwrap();
        assert_eq!(report.blocks_checked, 4);
        assert_eq!(report.roots_cached, 0);
        assert_eq!(report.roots_recomputed, 4);
    }

    #[test]
    fn incremental_flags_exact_tampered_block() {
        // Swap block 2's body while keeping its header: the cached root
        // (derived from the bytes the store holds) no longer matches the
        // header commitment, and the report names block 2 — not a later
        // casualty of the broken linkage.
        let c = chain(4);
        let key = SigningKey::from_seed([9u8; 32]);
        let mut store = crate::store::MemStore::default();
        for sealed in c.iter_sealed() {
            if sealed.block().number() == BlockNumber(2) {
                let forged = Block::from_parts(
                    sealed.block().header().clone(),
                    BlockBody::Normal {
                        entries: vec![Entry::sign_data(&key, DataRecord::new("forged"))],
                    },
                );
                store.push(crate::store::SealedBlock::seal(forged));
            } else {
                store.push(sealed.into_sealed());
            }
        }
        assert_eq!(
            validate_store_incremental(&store),
            Err(ChainError::PayloadMismatch {
                number: BlockNumber(2)
            })
        );
    }

    #[test]
    fn incremental_rejects_unsorted_tombstones() {
        let c = chain(2);
        let prev = c.tip().hash();
        let ts = c.tip().timestamp();
        // Block::new derives a (valid) commitment over the unsorted list,
        // so only the canonical-order rule can reject it.
        let rogue = Block::new(
            BlockNumber(3),
            ts,
            prev,
            BlockBody::Summary {
                records: vec![],
                deletions: vec![
                    EntryId::new(BlockNumber(2), EntryNumber(0)),
                    EntryId::new(BlockNumber(1), EntryNumber(0)),
                ],
                anchor: None,
            },
        );
        let mut store: crate::store::MemStore = c.store().clone();
        store.push(crate::store::SealedBlock::seal(rogue));
        assert_eq!(
            validate_store_incremental(&store),
            Err(ChainError::TombstonesUnsorted {
                number: BlockNumber(3)
            })
        );
    }

    #[test]
    fn corrupted_anchor_fails_validation() {
        let mut c = chain(6);
        let anchor = Anchor::new(BlockNumber(2), BlockNumber(4), seldel_crypto::sha256(b"no"));
        let prev = c.tip().hash();
        let ts = c.tip().timestamp();
        c.push(Block::new(
            BlockNumber(7),
            ts,
            prev,
            BlockBody::Summary {
                records: vec![],
                deletions: vec![],
                anchor: Some(anchor),
            },
        ))
        .unwrap();
        assert!(matches!(
            validate_chain(&c, &ValidationOptions::default()),
            Err(ChainError::AnchorMismatch { .. })
        ));
    }
}
