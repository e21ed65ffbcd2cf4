//! Exhaustive on-disk tamper matrix for the durable `FileStore`.
//!
//! A single flipped bit anywhere in a segment file must be caught on the
//! next open-and-audit cycle through one of four channels:
//!
//! 1. **open rejected** — the frame (or a neighbour) no longer decodes in
//!    a non-tail position, so `FileStore::open` reports corruption;
//! 2. **block flagged** — the store opens but
//!    `validate_store_incremental` pins the damage to the tampered block
//!    (or its immediate successor, whose `prev_hash` seals the header);
//! 3. **tail shortfall** — damage in the newest segment is torn-tail
//!    equivalent, so replay silently truncates and the recovered tip
//!    falls short of the recorded one;
//! 4. **tip divergence** — a flip in the *tip block's* header passes
//!    every local structural rule (no successor pins the tip) and is only
//!    caught by comparing against the quorum-attested tip hash recorded
//!    before the damage (the paper's §V-B status-quo attestation).
//!
//! The matrix flips one bit in every byte of every segment file and
//! asserts no flip is silently absorbed.

use std::fs;
use std::path::{Path, PathBuf};

use seldel_chain::testutil::ScratchDir;
use seldel_chain::{
    validate_store_incremental, Block, BlockBody, BlockNumber, BlockStore, Blockchain, ChainError,
    DeleteRequest, Entry, EntryId, EntryNumber, FileStore, SummaryRecord, Timestamp,
};
use seldel_codec::{Codec, DataRecord};
use seldel_crypto::{Digest32, SigningKey};

/// Builds a durable chain mixing normal blocks, a delete request and a Σ
/// with records + tombstones, then closes it.
fn build_durable_chain(dir: &Path, blocks: u64) -> (BlockNumber, Digest32) {
    let key = SigningKey::from_seed([0x51; 32]);
    let store = FileStore::open_with_capacity(dir, 3).expect("store opens");
    let mut chain: Blockchain<FileStore> =
        Blockchain::with_genesis_in(store, Block::genesis("tamper-matrix", Timestamp(0)));
    for b in 1..=blocks {
        let prev = chain.tip().hash();
        let block = if b == 5 {
            let origin = chain.get(BlockNumber(3)).expect("block 3 live");
            let records = vec![SummaryRecord::from_entry(
                &origin.entries()[0],
                EntryId::new(BlockNumber(3), EntryNumber(0)),
                origin.timestamp(),
            )
            .expect("data entry")];
            let deletions = vec![EntryId::new(BlockNumber(3), EntryNumber(1))];
            Block::new(
                BlockNumber(b),
                chain.tip().timestamp(),
                prev,
                BlockBody::Summary {
                    records,
                    deletions,
                    anchor: None,
                },
            )
        } else {
            let mut entries = vec![
                Entry::sign_data(&key, DataRecord::new("evt").with("n", b)),
                Entry::sign_data(&key, DataRecord::new("evt").with("n", b + 100)),
            ];
            if b == 7 {
                entries.push(Entry::sign_delete(
                    &key,
                    DeleteRequest::new(EntryId::new(BlockNumber(6), EntryNumber(0)), "matrix"),
                ));
            }
            Block::new(
                BlockNumber(b),
                Timestamp(b * 10),
                prev,
                BlockBody::Normal { entries },
            )
        };
        chain.push(block).expect("valid link");
    }
    (chain.tip().number(), chain.tip().hash())
}

/// Segment files in deterministic order, with their bytes.
fn segments(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut out: Vec<(PathBuf, Vec<u8>)> = fs::read_dir(dir)
        .expect("dir readable")
        .filter_map(|e| {
            let path = e.expect("entry").path();
            let name = path.file_name()?.to_str()?.to_owned();
            (name.starts_with("seg-") && name.ends_with(".seg"))
                .then(|| (path.clone(), fs::read(&path).expect("segment readable")))
        })
        .collect();
    out.sort();
    out
}

/// Maps every byte offset of a segment to the block number whose frame
/// (length prefix included) covers it.
fn frame_owners(bytes: &[u8]) -> Vec<u64> {
    // v3 frame layout: u32 len | flags (1) | header hash (32) |
    // payload root (32) | checksum (32) | block bytes.
    const FRAME_HEADER_LEN: usize = 97;
    let mut owners = vec![u64::MAX; bytes.len()];
    let mut at = 0;
    while at + 4 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let end = at + 4 + len;
        let block = Block::from_canonical_bytes(&bytes[at + 4 + FRAME_HEADER_LEN..end])
            .expect("frame decodes");
        for owner in owners.iter_mut().take(end).skip(at) {
            *owner = block.number().value();
        }
        at = end;
    }
    assert_eq!(at, bytes.len(), "segment fully framed");
    owners
}

/// The block number a `ChainError` attributes damage to.
fn flagged(err: &ChainError) -> Vec<u64> {
    match err {
        ChainError::PayloadMismatch { number }
        | ChainError::PrevHashMismatch { number }
        | ChainError::TimestampRegression { number }
        | ChainError::SummaryTimestampMismatch { number }
        | ChainError::GenesisMisplaced { number }
        | ChainError::TombstonesUnsorted { number } => vec![number.value()],
        ChainError::NonContiguousNumber { expected, found } => {
            vec![expected.value(), found.value()]
        }
        other => panic!("audit reported an unexpected error class: {other}"),
    }
}

#[test]
fn every_single_byte_corruption_is_detected() {
    let dir = ScratchDir::new("tamper-matrix");
    let (expected_tip, expected_tip_hash) = build_durable_chain(dir.path(), 9);

    let originals = segments(dir.path());
    assert!(originals.len() >= 3, "want a multi-segment store");
    let tail_segment = originals.last().expect("non-empty").0.clone();

    let mut audited = 0u64;
    for (path, bytes) in &originals {
        let owners = frame_owners(bytes);
        for offset in 0..bytes.len() {
            let mut tampered = bytes.clone();
            tampered[offset] ^= 1 << (offset % 8);
            fs::write(path, &tampered).expect("write tampered segment");
            let owner = owners[offset];
            audited += 1;

            let context = || format!("{} offset {offset} (block {owner})", path.display());
            match FileStore::open(dir.path()) {
                Err(_) => {} // channel 1: rejected at open
                Ok(store) => match validate_store_incremental(&store) {
                    Err(err) => {
                        // Channel 2: the audit names the tampered block or
                        // the successor whose prev_hash seals its header.
                        let blamed = flagged(&err);
                        assert!(
                            blamed.iter().any(|b| *b == owner || *b == owner + 1),
                            "{}: audit blamed {blamed:?}: {err}",
                            context()
                        );
                    }
                    Ok(_) => {
                        let tip = store.last().expect("non-empty store");
                        if tip.block().number() < BlockNumber(expected_tip.value()) {
                            // Channel 3: torn-tail truncation — only the
                            // newest segment can be silently shortened.
                            assert_eq!(
                                path,
                                &tail_segment,
                                "{}: non-tail segment silently truncated",
                                context()
                            );
                        } else {
                            // Channel 4: locally invisible tip-header flip;
                            // the recorded status-quo tip hash must differ.
                            assert_eq!(
                                owner,
                                expected_tip.value(),
                                "{}: clean audit for a non-tip block",
                                context()
                            );
                            assert_ne!(
                                tip.hash(),
                                expected_tip_hash,
                                "{}: corruption went completely undetected",
                                context()
                            );
                        }
                    }
                },
            }
            fs::write(path, bytes).expect("restore segment");
        }
    }
    assert!(audited > 1_000, "matrix too small to be meaningful");
}
