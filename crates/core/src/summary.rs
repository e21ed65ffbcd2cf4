//! Deterministic summary-block construction (§IV-B, §IV-C, Fig. 5).
//!
//! Every anchor node builds summary blocks **locally** from its agreed copy
//! of the chain — they are never propagated. [`build_summary_block`] is
//! therefore a pure function of `(chain, config, deletion registry)`; two
//! nodes with identical inputs produce bit-identical blocks (invariant I2
//! in DESIGN.md), which is exactly what the paper's synchronisation check
//! compares.

use seldel_chain::{
    Block, BlockBody, BlockKind, BlockNumber, BlockStore, EntryId, EntryNumber, SummaryRecord,
};

use crate::config::{AnchorPolicy, ChainConfig};
use crate::deletion::DeletionRegistry;
use crate::retention::{plan_retirement, RetirePlan};
use crate::sequence::live_sequences;

/// What happened while building a summary block.
#[derive(Debug, Clone, Default)]
pub struct SummaryOutcome {
    /// Marked data sets dropped by this merge (deletions executed).
    pub deleted: Vec<EntryId>,
    /// Temporary entries dropped because their expiry passed (§IV-D4).
    pub expired: Vec<EntryId>,
    /// Deletion-request entries not carried ("deletion requests … will
    /// never be copied into a summary block").
    pub requests_dropped: usize,
    /// Records carried forward.
    pub carried: usize,
    /// The retirement plan merged into this block, if any.
    pub plan: Option<RetirePlan>,
    /// Whether a Fig. 9 anchor was embedded.
    pub anchored: bool,
}

/// Builds the summary block for slot `number` (which must be
/// `chain.tip().number() + 1` and a summary slot of `config`).
///
/// The block:
/// * carries the predecessor's timestamp (§IV-B);
/// * absorbs all sequences the retention policy retires, copying their
///   data records with original block number / entry number / timestamp
///   (Fig. 4) while dropping deletion-marked data (Fig. 5), expired
///   temporary entries (§IV-D4) and deletion-request entries (§IV-D3);
/// * embeds the middle-sequence anchor when configured (Fig. 9).
///
/// # Panics
///
/// Panics when `number` is not the next block number or not a summary slot
/// — both indicate a driver bug, not runtime input.
pub fn build_summary_block<S: BlockStore>(
    chain: &seldel_chain::Blockchain<S>,
    config: &ChainConfig,
    deletions: &DeletionRegistry,
    number: BlockNumber,
) -> (Block, SummaryOutcome) {
    assert_eq!(
        number,
        chain.tip().number().next(),
        "summary slot must extend the tip"
    );
    assert!(
        config.is_summary_slot(number),
        "block {number} is not a summary slot for l = {}",
        config.sequence_length
    );

    let tip = chain.tip();
    let now_ts = tip.timestamp();
    let mut outcome = SummaryOutcome::default();
    let mut records: Vec<SummaryRecord> = Vec::new();
    let mut tombstones: Vec<EntryId> = Vec::new();

    let plan = plan_retirement(chain, config);

    if let Some(plan) = &plan {
        for span in plan.spans() {
            let mut n = span.start;
            while n <= span.end {
                let block = chain.get(n).expect("retired span is live");
                match block.kind() {
                    BlockKind::Normal => {
                        for (i, entry) in block.entries().iter().enumerate() {
                            let id = EntryId::new(n, EntryNumber(i as u32));
                            if entry.is_delete_request() {
                                outcome.requests_dropped += 1;
                                continue;
                            }
                            if deletions.is_marked(id) {
                                outcome.deleted.push(id);
                                continue;
                            }
                            if let Some(expiry) = entry.expiry() {
                                if expiry.is_expired(number, now_ts) {
                                    outcome.expired.push(id);
                                    continue;
                                }
                            }
                            let record = SummaryRecord::from_entry(entry, id, block.timestamp())
                                .expect("non-delete entries yield records");
                            records.push(record);
                        }
                    }
                    BlockKind::Summary => {
                        // An absorbed Σ's tombstones are carried forward in
                        // full: deletion evidence must outlive any number of
                        // merges so absence stays provable (O(log n) via the
                        // payload commitment) after the original Σ is pruned.
                        tombstones.extend_from_slice(block.deletions());
                        for record in block.summary_records() {
                            let id = record.origin();
                            if deletions.is_marked(id) {
                                outcome.deleted.push(id);
                                continue;
                            }
                            if let Some(expiry) = record.expiry() {
                                if expiry.is_expired(number, now_ts) {
                                    outcome.expired.push(id);
                                    continue;
                                }
                            }
                            records.push(record.clone());
                        }
                    }
                    // Genesis notes and empty filler carry no data sets.
                    BlockKind::Genesis | BlockKind::Empty => {}
                }
                n = n.next();
            }
        }
    }

    let anchor = match (config.anchoring, &plan) {
        (AnchorPolicy::MiddleSequence, Some(plan)) => {
            // Middle of the *surviving* chain: closed sequences at or after
            // the new marker.
            let surviving: Vec<_> = live_sequences(chain)
                .into_iter()
                .filter(|s| s.closed && s.start >= plan.new_marker())
                .collect();
            if surviving.is_empty() {
                // Full compaction retires every closed sequence; anchor the
                // surviving open span (the sequence this Σ is closing) so
                // merged records still gain its confirmations.
                seldel_chain::build_anchor(chain, plan.new_marker(), chain.tip().number())
            } else {
                let mid = &surviving[surviving.len() / 2];
                seldel_chain::build_anchor(chain, mid.start, mid.end)
            }
        }
        _ => None,
    };

    outcome.carried = records.len();
    outcome.anchored = anchor.is_some();
    outcome.plan = plan;

    // Tombstone every deletion this merge executed, plus everything the
    // absorbed summaries already tombstoned. Expired temporaries are NOT
    // tombstoned — expiry is derivable from the (committed) expiry field,
    // only explicit deletions need standalone absence evidence. Strictly
    // sorted so the commitment is canonical (validation enforces this).
    tombstones.extend_from_slice(&outcome.deleted);
    tombstones.sort_unstable();
    tombstones.dedup();

    let block = Block::new(
        number,
        now_ts,
        chain.tip_hash(), // cached sealed-block digest, no re-hash
        BlockBody::Summary {
            records,
            deletions: tombstones,
            anchor,
        },
    );
    (block, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RetentionPolicy;
    use seldel_chain::{Blockchain, DeleteRequest, Entry, Expiry, Timestamp};
    use seldel_codec::DataRecord;
    use seldel_crypto::SigningKey;

    fn key(seed: u8) -> SigningKey {
        SigningKey::from_seed([seed; 32])
    }

    fn data_entry(seed: u8, n: u64) -> Entry {
        Entry::sign_data(&key(seed), DataRecord::new("x").with("n", n))
    }

    fn config_l3(l_max: u64) -> ChainConfig {
        ChainConfig {
            sequence_length: 3,
            retention: RetentionPolicy {
                max_live_blocks: Some(l_max),
                min_live_blocks: 3,
                min_live_summaries: 0,
                min_timespan: None,
                mode: crate::config::RetireMode::MinimumNeeded,
            },
            ..Default::default()
        }
    }

    /// Builds a real l=3 chain by driving build_summary_block at slots,
    /// with two data entries per normal block.
    fn grow_chain(blocks: u64, cfg: &ChainConfig, deletions: &DeletionRegistry) -> Blockchain {
        let mut chain = Blockchain::new(Block::genesis("t", Timestamp(0)));
        while chain.tip().number().value() < blocks {
            let next = chain.tip().number().next();
            if cfg.is_summary_slot(next) {
                let (block, outcome) = build_summary_block(&chain, cfg, deletions, next);
                chain.push(block).unwrap();
                if let Some(plan) = outcome.plan {
                    chain.truncate_front(plan.new_marker()).unwrap();
                }
            } else {
                let ts = Timestamp(next.value() * 10);
                let prev = chain.tip().hash();
                chain
                    .push(Block::new(
                        next,
                        ts,
                        prev,
                        BlockBody::Normal {
                            entries: vec![
                                data_entry(1, next.value() * 10),
                                data_entry(2, next.value() * 10 + 1),
                            ],
                        },
                    ))
                    .unwrap();
            }
        }
        chain
    }

    #[test]
    fn summary_carries_predecessor_timestamp_and_hash() {
        let cfg = config_l3(100);
        let deletions = DeletionRegistry::new();
        let chain = grow_chain(1, &cfg, &deletions);
        let (block, outcome) = build_summary_block(&chain, &cfg, &deletions, BlockNumber(2));
        assert_eq!(block.timestamp(), chain.tip().timestamp());
        assert_eq!(block.header().prev_hash, chain.tip().hash());
        assert_eq!(block.kind(), BlockKind::Summary);
        assert_eq!(outcome.carried, 0); // nothing retired yet
        assert!(outcome.plan.is_none());
    }

    #[test]
    fn determinism_two_nodes_same_block() {
        let cfg = config_l3(6);
        let deletions = DeletionRegistry::new();
        let chain_a = grow_chain(7, &cfg, &deletions);
        let chain_b = grow_chain(7, &cfg, &deletions);
        let (a, _) = build_summary_block(&chain_a, &cfg, &deletions, BlockNumber(8));
        let (b, _) = build_summary_block(&chain_b, &cfg, &deletions, BlockNumber(8));
        assert_eq!(a.hash(), b.hash());
        assert_eq!(
            seldel_codec::Codec::to_canonical_bytes(&a),
            seldel_codec::Codec::to_canonical_bytes(&b)
        );
    }

    #[test]
    fn merge_copies_records_with_original_ids() {
        let cfg = config_l3(6);
        let deletions = DeletionRegistry::new();
        // Grow to block 7; summary slot 8 projects 9 > 6 → retire ω1 [0..2].
        let chain = grow_chain(7, &cfg, &deletions);
        let (block, outcome) = build_summary_block(&chain, &cfg, &deletions, BlockNumber(8));
        let plan = outcome.plan.as_ref().unwrap();
        assert_eq!(plan.new_marker(), BlockNumber(3));
        // ω1 = blocks 0 (genesis), 1 (2 entries), 2 (empty summary).
        assert_eq!(outcome.carried, 2);
        let records = block.summary_records();
        assert_eq!(records.len(), 2);
        assert_eq!(
            records[0].origin(),
            EntryId::new(BlockNumber(1), EntryNumber(0))
        );
        assert_eq!(records[0].origin_timestamp(), Timestamp(10));
        assert_eq!(
            records[1].origin(),
            EntryId::new(BlockNumber(1), EntryNumber(1))
        );
        // Carried signatures still verify.
        records.iter().for_each(|r| r.verify().unwrap());
    }

    #[test]
    fn marked_records_not_copied() {
        let cfg = config_l3(6);
        let mut deletions = DeletionRegistry::new();
        let chain = grow_chain(7, &cfg, &deletions);
        let target = EntryId::new(BlockNumber(1), EntryNumber(0));
        deletions.mark(
            target,
            key(1).verifying_key(),
            EntryId::new(BlockNumber(4), EntryNumber(0)),
            Timestamp(40),
        );
        let (block, outcome) = build_summary_block(&chain, &cfg, &deletions, BlockNumber(8));
        assert_eq!(outcome.deleted, vec![target]);
        assert_eq!(outcome.carried, 1);
        assert!(block.summary_records().iter().all(|r| r.origin() != target));
    }

    #[test]
    fn expired_records_not_copied() {
        let cfg = config_l3(6);
        let deletions = DeletionRegistry::new();
        let mut chain = Blockchain::new(Block::genesis("t", Timestamp(0)));
        // Block 1 with one permanent and one temporary entry (expires τ15).
        let prev = chain.tip().hash();
        chain
            .push(Block::new(
                BlockNumber(1),
                Timestamp(10),
                prev,
                BlockBody::Normal {
                    entries: vec![
                        data_entry(1, 1),
                        Entry::sign_data_with(
                            &key(2),
                            DataRecord::new("x").with("n", 2u64),
                            Some(Expiry::AtTimestamp(Timestamp(15))),
                            vec![],
                        ),
                    ],
                },
            ))
            .unwrap();
        // Fill to block 7 with empties + summaries.
        while chain.tip().number().value() < 7 {
            let next = chain.tip().number().next();
            let prev = chain.tip().hash();
            if cfg.is_summary_slot(next) {
                let (b, _) = build_summary_block(&chain, &cfg, &deletions, next);
                chain.push(b).unwrap();
            } else {
                chain
                    .push(Block::new(
                        next,
                        Timestamp(next.value() * 10),
                        prev,
                        BlockBody::Empty,
                    ))
                    .unwrap();
            }
        }
        let (block, outcome) = build_summary_block(&chain, &cfg, &deletions, BlockNumber(8));
        // τ at merge = 70 > 15 → the temporary entry expired.
        assert_eq!(
            outcome.expired,
            vec![EntryId::new(BlockNumber(1), EntryNumber(1))]
        );
        assert_eq!(block.summary_records().len(), 1);
    }

    #[test]
    fn delete_requests_never_carried() {
        let cfg = config_l3(6);
        let deletions = DeletionRegistry::new();
        let mut chain = Blockchain::new(Block::genesis("t", Timestamp(0)));
        let prev = chain.tip().hash();
        chain
            .push(Block::new(
                BlockNumber(1),
                Timestamp(10),
                prev,
                BlockBody::Normal {
                    entries: vec![
                        data_entry(1, 1),
                        Entry::sign_delete(
                            &key(1),
                            DeleteRequest::new(EntryId::new(BlockNumber(1), EntryNumber(0)), ""),
                        ),
                    ],
                },
            ))
            .unwrap();
        while chain.tip().number().value() < 7 {
            let next = chain.tip().number().next();
            let prev = chain.tip().hash();
            if cfg.is_summary_slot(next) {
                let (b, _) = build_summary_block(&chain, &cfg, &deletions, next);
                chain.push(b).unwrap();
            } else {
                chain
                    .push(Block::new(
                        next,
                        Timestamp(next.value() * 10),
                        prev,
                        BlockBody::Empty,
                    ))
                    .unwrap();
            }
        }
        let (_, outcome) = build_summary_block(&chain, &cfg, &deletions, BlockNumber(8));
        assert_eq!(outcome.requests_dropped, 1);
        assert_eq!(outcome.carried, 1);
    }

    #[test]
    fn second_merge_carries_summary_records_forward() {
        // Records merged once must survive a second merge with ids intact.
        let cfg = config_l3(6);
        let deletions = DeletionRegistry::new();
        let mut chain = grow_chain(7, &cfg, &deletions);
        // Apply summary 8 with merge of ω1.
        let (b8, o8) = build_summary_block(&chain, &cfg, &deletions, BlockNumber(8));
        chain.push(b8).unwrap();
        chain
            .truncate_front(o8.plan.as_ref().unwrap().new_marker())
            .unwrap();
        // Grow to block 10, summary 11 retires [3..5].
        for n in 9..=10u64 {
            let prev = chain.tip().hash();
            chain
                .push(Block::new(
                    BlockNumber(n),
                    Timestamp(n * 10),
                    prev,
                    BlockBody::Normal {
                        entries: vec![data_entry(3, n)],
                    },
                ))
                .unwrap();
        }
        let (b11, o11) = build_summary_block(&chain, &cfg, &deletions, BlockNumber(11));
        // ω [3..5] has blocks 3,4 (2 entries each) and summary 5 (empty);
        // block 8's records (from block 1) are NOT in [3..5], so they are
        // not re-carried yet — they live in summary 8 which stays live.
        assert_eq!(o11.plan.as_ref().unwrap().new_marker(), BlockNumber(6));
        assert_eq!(o11.carried, 4);
        chain.push(b11).unwrap();
        chain.truncate_front(BlockNumber(6)).unwrap();
        // One more cycle retires [6..8] including summary 8 → block 1's
        // records must now be carried forward again, ids intact.
        for n in 12..=13u64 {
            let prev = chain.tip().hash();
            chain
                .push(Block::new(
                    BlockNumber(n),
                    Timestamp(n * 10),
                    prev,
                    BlockBody::Empty,
                ))
                .unwrap();
        }
        let (b14, o14) = build_summary_block(&chain, &cfg, &deletions, BlockNumber(14));
        assert!(o14
            .plan
            .as_ref()
            .unwrap()
            .spans()
            .iter()
            .any(|s| s.contains(BlockNumber(8))));
        let origins: Vec<EntryId> = b14.summary_records().iter().map(|r| r.origin()).collect();
        assert!(origins.contains(&EntryId::new(BlockNumber(1), EntryNumber(0))));
        assert!(origins.contains(&EntryId::new(BlockNumber(1), EntryNumber(1))));
    }

    #[test]
    fn anchor_embedded_when_configured() {
        let mut cfg = config_l3(6);
        cfg.anchoring = AnchorPolicy::MiddleSequence;
        let deletions = DeletionRegistry::new();
        let chain = grow_chain(7, &cfg, &deletions);
        let (block, outcome) = build_summary_block(&chain, &cfg, &deletions, BlockNumber(8));
        assert!(outcome.anchored);
        let anchor = block.anchor().unwrap();
        // Anchor must cover surviving blocks only (≥ marker 3).
        assert!(anchor.start >= BlockNumber(3));
        assert!(seldel_chain::verify_anchor(&chain, anchor));
    }

    #[test]
    #[should_panic(expected = "not a summary slot")]
    fn wrong_slot_panics() {
        let cfg = config_l3(6);
        let deletions = DeletionRegistry::new();
        let chain = grow_chain(1, &cfg, &deletions);
        // Block 2 is the slot; asking for 3 after tip 1 panics (wrong slot
        // is checked after contiguity, so use tip+1 = 2 with l=4 config).
        let cfg_l4 = ChainConfig {
            sequence_length: 4,
            ..cfg
        };
        let _ = build_summary_block(&chain, &cfg_l4, &deletions, BlockNumber(2));
    }
}
