//! O(log n) membership and absence proofs over the block commitments.
//!
//! Every entry-bearing block commits to its payload through a Merkle root
//! in the header ([`crate::block::BlockBody::payload_leaves`]), so a prover
//! holding the chain can hand a light verifier — who keeps only the
//! **header chain** — a logarithmic-size certificate of where a data set
//! lives, or that it was deleted:
//!
//! * [`prove_live`] shows the data set is still in the chain, either at its
//!   original position ([`EntryProof::LiveInBlock`]) or carried forward
//!   inside a summary block ([`EntryProof::LiveInSummary`]).
//! * [`prove_deleted`] shows the data set is gone: a deletion **tombstone**
//!   inside a summary block proves a deletion request was executed
//!   ([`EntryProof::DeletionExecuted`]); failing that, a still-pending
//!   deletion-request entry yields [`EntryProof::DeletionRequested`].
//!
//! [`verify_proof`] needs nothing but a linkage-checked [`HeaderChain`]:
//! it re-walks the audit path against the holder header's payload
//! commitment, decodes the leaf, and checks the leaf actually names the
//! claimed data set. Proofs are [`Codec`]-serialisable so they can travel
//! between nodes — and so the adversarial tests can mutate their bytes.

use std::fmt;

use seldel_codec::{Codec, DecodeError, Decoder, Encoder};
use seldel_crypto::{Digest32, MerkleProof, Side, SignatureError};

use crate::block::{
    BlockHeader, BlockKind, SUMMARY_LEAF_ANCHOR, SUMMARY_LEAF_RECORD, SUMMARY_LEAF_TOMBSTONE,
};
use crate::chain::Blockchain;
use crate::entry::Entry;
use crate::error::ChainError;
use crate::store::BlockStore;
use crate::summary::SummaryRecord;
use crate::types::{BlockNumber, EntryId};

/// One committed leaf position: which block holds it, the raw leaf bytes,
/// and the audit path from the leaf to that block's payload commitment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleSpot {
    /// The block whose payload tree contains the leaf.
    pub holder: BlockNumber,
    /// The leaf payload exactly as committed (including any population
    /// prefix for summary leaves).
    pub leaf: Vec<u8>,
    /// The audit path from the leaf to `holder`'s `payload_hash`.
    pub path: MerkleProof,
}

impl MerkleSpot {
    /// Whether the audit path connects the leaf to the given root.
    pub fn connects_to(&self, root: &Digest32) -> bool {
        self.path.verify(&self.leaf, root)
    }
}

impl Codec for MerkleSpot {
    fn encode(&self, enc: &mut Encoder) {
        self.holder.encode(enc);
        enc.put_bytes(&self.leaf);
        enc.put_len(self.path.index());
        enc.put_len(self.path.path_len());
        for (side, digest) in self.path.path() {
            enc.put_u8(match side {
                Side::Left => 0,
                Side::Right => 1,
            });
            enc.put_raw(digest.as_bytes());
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let holder = BlockNumber::decode(dec)?;
        let leaf = dec.take_bytes()?;
        let index = dec.take_len()?;
        let path_len = dec.take_len()?;
        let mut path = Vec::with_capacity(path_len);
        for _ in 0..path_len {
            let side = match dec.take_u8()? {
                0 => Side::Left,
                1 => Side::Right,
                tag => {
                    return Err(DecodeError::InvalidTag {
                        what: "MerkleSpot.side",
                        tag,
                    })
                }
            };
            let digest: [u8; 32] = dec.take_array()?;
            path.push((side, Digest32::from(digest)));
        }
        Ok(MerkleSpot {
            holder,
            leaf,
            path: MerkleProof::from_parts(index, path),
        })
    }
}

/// A verifiable certificate about one data set's fate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryProof {
    /// The entry is live at its original position: the leaf is the entry's
    /// canonical bytes inside the normal block it was integrated into.
    LiveInBlock(MerkleSpot),
    /// The data set is live as a carried record: the leaf is a
    /// [`SUMMARY_LEAF_RECORD`]-prefixed [`SummaryRecord`] whose origin id
    /// is the proven entry.
    LiveInSummary(MerkleSpot),
    /// Deletion was requested but not yet executed: the leaf is a live
    /// deletion-request entry targeting the proven id.
    DeletionRequested(MerkleSpot),
    /// Deletion was executed: the leaf is a [`SUMMARY_LEAF_TOMBSTONE`]
    /// carried by a summary block, naming the proven id.
    DeletionExecuted(MerkleSpot),
}

impl EntryProof {
    /// The committed leaf position this proof rests on.
    pub fn spot(&self) -> &MerkleSpot {
        match self {
            EntryProof::LiveInBlock(spot)
            | EntryProof::LiveInSummary(spot)
            | EntryProof::DeletionRequested(spot)
            | EntryProof::DeletionExecuted(spot) => spot,
        }
    }

    /// Whether this proof claims the data set is still readable.
    pub fn is_live(&self) -> bool {
        matches!(
            self,
            EntryProof::LiveInBlock(_) | EntryProof::LiveInSummary(_)
        )
    }

    const fn tag(&self) -> u8 {
        match self {
            EntryProof::LiveInBlock(_) => 0,
            EntryProof::LiveInSummary(_) => 1,
            EntryProof::DeletionRequested(_) => 2,
            EntryProof::DeletionExecuted(_) => 3,
        }
    }
}

impl Codec for EntryProof {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(self.tag());
        self.spot().encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let tag = dec.take_u8()?;
        let spot = MerkleSpot::decode(dec)?;
        match tag {
            0 => Ok(EntryProof::LiveInBlock(spot)),
            1 => Ok(EntryProof::LiveInSummary(spot)),
            2 => Ok(EntryProof::DeletionRequested(spot)),
            3 => Ok(EntryProof::DeletionExecuted(spot)),
            tag => Err(DecodeError::InvalidTag {
                what: "EntryProof",
                tag,
            }),
        }
    }
}

impl fmt::Display for EntryProof {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self {
            EntryProof::LiveInBlock(_) => "live-in-block",
            EntryProof::LiveInSummary(_) => "live-in-summary",
            EntryProof::DeletionRequested(_) => "deletion-requested",
            EntryProof::DeletionExecuted(_) => "deletion-executed",
        };
        write!(
            f,
            "{what} @ block {} ({} path steps)",
            self.spot().holder,
            self.spot().path.path_len()
        )
    }
}

/// Why a proof was rejected or could not be produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofError {
    /// [`prove_live`]: the data set is not live anywhere in the chain.
    NotLive(EntryId),
    /// [`prove_deleted`]: no tombstone and no pending request names the id.
    NotDeleted(EntryId),
    /// The proof's holder block is outside the verifier's header chain.
    UnknownHolder(BlockNumber),
    /// The holder block's kind cannot carry this proof variant.
    KindMismatch {
        /// The holder block.
        number: BlockNumber,
        /// The kind the variant requires.
        expected: BlockKind,
        /// The kind the header chain records.
        found: BlockKind,
    },
    /// The audit path does not connect the leaf to the header commitment.
    PathMismatch {
        /// The holder block whose commitment the path failed to reach.
        number: BlockNumber,
    },
    /// The leaf bytes do not decode as the population the variant claims.
    LeafUndecodable {
        /// The holder block.
        number: BlockNumber,
    },
    /// The leaf decodes but names a different data set (or sits at the
    /// wrong position) than the one being proven.
    WrongSubject {
        /// The id the verifier asked about.
        expected: EntryId,
    },
    /// The carried author signature inside the leaf failed verification.
    BadSignature(SignatureError),
}

impl fmt::Display for ProofError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProofError::NotLive(id) => write!(f, "data set {id} is not live"),
            ProofError::NotDeleted(id) => {
                write!(f, "no tombstone or pending request for data set {id}")
            }
            ProofError::UnknownHolder(number) => {
                write!(f, "holder block {number} is not in the header chain")
            }
            ProofError::KindMismatch {
                number,
                expected,
                found,
            } => write!(
                f,
                "holder block {number} is {found}, proof variant requires {expected}"
            ),
            ProofError::PathMismatch { number } => {
                write!(f, "audit path does not reach block {number}'s commitment")
            }
            ProofError::LeafUndecodable { number } => {
                write!(f, "leaf bytes from block {number} do not decode")
            }
            ProofError::WrongSubject { expected } => {
                write!(f, "proof leaf does not name data set {expected}")
            }
            ProofError::BadSignature(err) => {
                write!(f, "carried signature invalid: {err}")
            }
        }
    }
}

impl std::error::Error for ProofError {}

/// The verifier's view: live block headers with their linkage checked.
///
/// A header chain is all a light client keeps (§V-B3's joining node before
/// it fetches bodies): 32-byte commitments instead of payloads. Building
/// one via [`HeaderChain::new`] re-checks contiguity, hash links and the
/// summary-timestamp rule, so a forged header cannot be smuggled in and
/// then "verified" against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeaderChain {
    headers: Vec<BlockHeader>,
}

impl HeaderChain {
    /// Builds a header chain from raw headers, checking linkage.
    ///
    /// # Errors
    ///
    /// [`ChainError::EmptyChain`] for no headers, otherwise the first
    /// linkage violation found ([`ChainError::NonContiguousNumber`],
    /// [`ChainError::PrevHashMismatch`],
    /// [`ChainError::SummaryTimestampMismatch`],
    /// [`ChainError::TimestampRegression`] or
    /// [`ChainError::GenesisMisplaced`]).
    pub fn new(headers: Vec<BlockHeader>) -> Result<HeaderChain, ChainError> {
        if headers.is_empty() {
            return Err(ChainError::EmptyChain);
        }
        for pair in headers.windows(2) {
            let (prev, next) = (&pair[0], &pair[1]);
            let number = next.number;
            if number != prev.number.next() {
                return Err(ChainError::NonContiguousNumber {
                    expected: prev.number.next(),
                    found: number,
                });
            }
            if next.prev_hash != prev.hash() {
                return Err(ChainError::PrevHashMismatch { number });
            }
            match next.kind {
                BlockKind::Summary => {
                    if next.timestamp != prev.timestamp {
                        return Err(ChainError::SummaryTimestampMismatch { number });
                    }
                }
                _ => {
                    if next.timestamp < prev.timestamp {
                        return Err(ChainError::TimestampRegression { number });
                    }
                }
            }
            if next.kind == BlockKind::Genesis {
                return Err(ChainError::GenesisMisplaced { number });
            }
        }
        Ok(HeaderChain { headers })
    }

    /// Extracts the live header chain from a full chain.
    ///
    /// The blocks were linkage-checked when they entered the chain, so no
    /// re-validation happens here.
    pub fn from_chain<S: BlockStore>(chain: &Blockchain<S>) -> HeaderChain {
        HeaderChain {
            headers: chain.iter().map(|b| b.header().clone()).collect(),
        }
    }

    /// The header of block `number`, if it is in the live range.
    pub fn header_of(&self, number: BlockNumber) -> Option<&BlockHeader> {
        let first = self.headers.first()?.number;
        let offset = usize::try_from(number.value().checked_sub(first.value())?).ok()?;
        let header = self.headers.get(offset)?;
        debug_assert_eq!(header.number, number, "headers are contiguous");
        Some(header)
    }

    /// Number of live headers.
    pub fn len(&self) -> usize {
        self.headers.len()
    }

    /// Whether the chain holds no headers (only constructible via
    /// [`HeaderChain::from_chain`] on an impossible empty chain).
    pub fn is_empty(&self) -> bool {
        self.headers.is_empty()
    }
}

/// Proves that data set `id` is live, at its original position or carried
/// inside a summary block.
///
/// The lookup is O(log n) through the maintained entry index and the audit
/// path is logarithmic in the holder block's leaf count.
///
/// # Errors
///
/// [`ProofError::NotLive`] when the id resolves nowhere.
pub fn prove_live<S: BlockStore>(
    chain: &Blockchain<S>,
    id: EntryId,
) -> Result<EntryProof, ProofError> {
    match chain.locate(id) {
        Some(located) if located.is_in_block() => {
            let block = located.holder();
            let index = id.entry.value() as usize;
            let tree = block
                .body()
                .payload_tree()
                .expect("normal blocks have a payload tree");
            let path = tree.prove(index).expect("located entry is in bounds");
            Ok(EntryProof::LiveInBlock(MerkleSpot {
                holder: block.number(),
                leaf: located.entry().expect("slot in range").to_canonical_bytes(),
                path,
            }))
        }
        Some(located) => {
            let block = located.holder();
            let index = block
                .summary_records()
                .iter()
                .position(|r| r.origin() == id)
                .expect("located record is present");
            let tree = block
                .body()
                .payload_tree()
                .expect("summary blocks have a payload tree");
            let path = tree.prove(index).expect("record index is in bounds");
            let mut leaf = vec![SUMMARY_LEAF_RECORD];
            leaf.extend_from_slice(
                &located
                    .record()
                    .expect("slot in range")
                    .to_canonical_bytes(),
            );
            Ok(EntryProof::LiveInSummary(MerkleSpot {
                holder: block.number(),
                leaf,
                path,
            }))
        }
        None => Err(ProofError::NotLive(id)),
    }
}

/// Proves that data set `id` was deleted (tombstone in a summary block) —
/// or, failing that, that a deletion request for it is pending.
///
/// Tombstone lookup binary-searches each live summary block's sorted
/// deletion list; the resulting audit path is logarithmic in the holder's
/// leaf count.
///
/// # Errors
///
/// [`ProofError::NotDeleted`] when no summary block tombstones the id and
/// no live deletion-request entry targets it.
pub fn prove_deleted<S: BlockStore>(
    chain: &Blockchain<S>,
    id: EntryId,
) -> Result<EntryProof, ProofError> {
    // Executed deletion: a tombstone in any live Σ. Later summaries carry
    // the union of their predecessors' tombstones, so scanning from the tip
    // finds the most durable witness first.
    for block in chain.iter().collect::<Vec<_>>().into_iter().rev() {
        if block.kind() != BlockKind::Summary {
            continue;
        }
        if let Ok(pos) = block.deletions().binary_search(&id) {
            let index = block.summary_records().len() + pos;
            let tree = block
                .body()
                .payload_tree()
                .expect("summary blocks have a payload tree");
            let path = tree.prove(index).expect("tombstone index is in bounds");
            let mut leaf = vec![SUMMARY_LEAF_TOMBSTONE];
            leaf.extend_from_slice(&id.to_canonical_bytes());
            return Ok(EntryProof::DeletionExecuted(MerkleSpot {
                holder: block.number(),
                leaf,
                path,
            }));
        }
    }
    // Pending deletion: a live delete-request entry targeting the id.
    for block in chain.iter() {
        for (pos, entry) in block.entries().iter().enumerate() {
            let targets_id = entry
                .payload()
                .as_delete()
                .is_some_and(|req| req.target() == id);
            if !targets_id {
                continue;
            }
            let tree = block
                .body()
                .payload_tree()
                .expect("normal blocks have a payload tree");
            let path = tree.prove(pos).expect("entry index is in bounds");
            return Ok(EntryProof::DeletionRequested(MerkleSpot {
                holder: block.number(),
                leaf: entry.to_canonical_bytes(),
                path,
            }));
        }
    }
    Err(ProofError::NotDeleted(id))
}

/// Verifies an [`EntryProof`] about `id` against a header chain alone.
///
/// Checks, in order: the holder block exists in the header chain and has
/// the kind the variant requires; the audit path connects the leaf bytes to
/// the holder's payload commitment; the leaf decodes as the claimed
/// population; and the decoded leaf actually names `id` (for
/// [`EntryProof::LiveInBlock`], the leaf position itself must equal the
/// id's entry number — entry leaves do not repeat their position). Live
/// and requested variants additionally verify the carried author
/// signature, so a committed-but-forged entry cannot be presented.
///
/// # Errors
///
/// The first [`ProofError`] encountered; `Ok(())` means the proof is sound
/// relative to the header chain.
pub fn verify_proof(
    proof: &EntryProof,
    id: EntryId,
    headers: &HeaderChain,
) -> Result<(), ProofError> {
    let spot = proof.spot();
    let header = headers
        .header_of(spot.holder)
        .ok_or(ProofError::UnknownHolder(spot.holder))?;

    let expected_kind = match proof {
        EntryProof::LiveInBlock(_) | EntryProof::DeletionRequested(_) => BlockKind::Normal,
        EntryProof::LiveInSummary(_) | EntryProof::DeletionExecuted(_) => BlockKind::Summary,
    };
    if header.kind != expected_kind {
        return Err(ProofError::KindMismatch {
            number: spot.holder,
            expected: expected_kind,
            found: header.kind,
        });
    }
    if !spot.connects_to(&header.payload_hash) {
        return Err(ProofError::PathMismatch {
            number: spot.holder,
        });
    }

    match proof {
        EntryProof::LiveInBlock(spot) => {
            let entry = Entry::from_canonical_bytes(&spot.leaf).map_err(|_| {
                ProofError::LeafUndecodable {
                    number: spot.holder,
                }
            })?;
            if spot.holder != id.block || spot.path.index() != id.entry.value() as usize {
                return Err(ProofError::WrongSubject { expected: id });
            }
            entry.verify().map_err(ProofError::BadSignature)?;
        }
        EntryProof::LiveInSummary(spot) => {
            let record = decode_prefixed::<SummaryRecord>(&spot.leaf, SUMMARY_LEAF_RECORD).ok_or(
                ProofError::LeafUndecodable {
                    number: spot.holder,
                },
            )?;
            if record.origin() != id {
                return Err(ProofError::WrongSubject { expected: id });
            }
            record.verify().map_err(ProofError::BadSignature)?;
        }
        EntryProof::DeletionRequested(spot) => {
            let entry = Entry::from_canonical_bytes(&spot.leaf).map_err(|_| {
                ProofError::LeafUndecodable {
                    number: spot.holder,
                }
            })?;
            let targets_id = entry
                .payload()
                .as_delete()
                .is_some_and(|req| req.target() == id);
            if !targets_id {
                return Err(ProofError::WrongSubject { expected: id });
            }
            entry.verify().map_err(ProofError::BadSignature)?;
        }
        EntryProof::DeletionExecuted(spot) => {
            let tombstone = decode_prefixed::<EntryId>(&spot.leaf, SUMMARY_LEAF_TOMBSTONE).ok_or(
                ProofError::LeafUndecodable {
                    number: spot.holder,
                },
            )?;
            if tombstone != id {
                return Err(ProofError::WrongSubject { expected: id });
            }
        }
    }
    Ok(())
}

/// Decodes a population-prefixed summary leaf; `None` on any mismatch.
fn decode_prefixed<T: Codec>(leaf: &[u8], prefix: u8) -> Option<T> {
    debug_assert!([
        SUMMARY_LEAF_RECORD,
        SUMMARY_LEAF_TOMBSTONE,
        SUMMARY_LEAF_ANCHOR
    ]
    .contains(&prefix));
    let (first, rest) = leaf.split_first()?;
    if *first != prefix {
        return None;
    }
    T::from_canonical_bytes(rest).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Block, BlockBody};
    use crate::entry::DeleteRequest;
    use crate::types::{EntryNumber, Timestamp};
    use seldel_codec::DataRecord;
    use seldel_crypto::SigningKey;

    fn key(seed: u8) -> SigningKey {
        SigningKey::from_seed([seed; 32])
    }

    /// Chain fixture exercising every proof variant:
    /// * blocks 1–2: two data entries each;
    /// * block 3: a delete request targeting 1:0;
    /// * block 4: Σ carrying 1:1 as a record, tombstoning 1:0.
    fn fixture() -> Blockchain {
        let mut chain = Blockchain::new(Block::genesis("proof", Timestamp(0)));
        for b in 1..=2u64 {
            let prev = chain.tip().hash();
            let entries: Vec<Entry> = (0..2)
                .map(|i| {
                    Entry::sign_data(
                        &key(b as u8),
                        DataRecord::new("x").with("n", b * 10 + i as u64),
                    )
                })
                .collect();
            chain
                .push(Block::new(
                    BlockNumber(b),
                    Timestamp(b * 10),
                    prev,
                    BlockBody::Normal { entries },
                ))
                .unwrap();
        }
        let target = EntryId::new(BlockNumber(1), EntryNumber(0));
        let prev = chain.tip().hash();
        chain
            .push(Block::new(
                BlockNumber(3),
                Timestamp(30),
                prev,
                BlockBody::Normal {
                    entries: vec![Entry::sign_delete(
                        &key(9),
                        DeleteRequest::new(target, "gdpr"),
                    )],
                },
            ))
            .unwrap();
        let carried = EntryId::new(BlockNumber(1), EntryNumber(1));
        let record = SummaryRecord::from_entry(
            chain.get(BlockNumber(1)).unwrap().entries().get(1).unwrap(),
            carried,
            Timestamp(10),
        )
        .unwrap();
        let prev = chain.tip().hash();
        let ts = chain.tip().timestamp();
        chain
            .push(Block::new(
                BlockNumber(4),
                ts,
                prev,
                BlockBody::Summary {
                    records: vec![record],
                    deletions: vec![target],
                    anchor: None,
                },
            ))
            .unwrap();
        chain
    }

    #[test]
    fn live_in_block_round_trips() {
        let chain = fixture();
        let headers = HeaderChain::from_chain(&chain);
        let id = EntryId::new(BlockNumber(2), EntryNumber(1));
        let proof = prove_live(&chain, id).unwrap();
        assert!(matches!(proof, EntryProof::LiveInBlock(_)));
        assert!(proof.is_live());
        verify_proof(&proof, id, &headers).unwrap();
    }

    #[test]
    fn live_in_summary_round_trips() {
        let chain = fixture();
        let headers = HeaderChain::from_chain(&chain);
        let id = EntryId::new(BlockNumber(1), EntryNumber(1));
        // The record is carried by Σ4 — prune the origin so the index
        // resolves through the summary.
        let mut chain = chain;
        chain.truncate_front(BlockNumber(2)).unwrap();
        let proof = prove_live(&chain, id).unwrap();
        assert!(matches!(proof, EntryProof::LiveInSummary(_)));
        assert_eq!(proof.spot().holder, BlockNumber(4));
        // The verifier's headers may predate the prune — commitments are
        // position-stable, so the proof still verifies.
        verify_proof(&proof, id, &headers).unwrap();
        verify_proof(&proof, id, &HeaderChain::from_chain(&chain)).unwrap();
    }

    #[test]
    fn deletion_executed_round_trips() {
        let chain = fixture();
        let headers = HeaderChain::from_chain(&chain);
        let id = EntryId::new(BlockNumber(1), EntryNumber(0));
        let proof = prove_deleted(&chain, id).unwrap();
        assert!(matches!(proof, EntryProof::DeletionExecuted(_)));
        assert!(!proof.is_live());
        verify_proof(&proof, id, &headers).unwrap();
    }

    #[test]
    fn deletion_requested_round_trips() {
        let chain = fixture();
        let headers = HeaderChain::from_chain(&chain);
        // 2:0 has a pending request? No — only 1:0 does, and it is already
        // tombstoned (executed wins). Ask about an id with only a request:
        // build one more request for 2:0.
        let mut chain = chain;
        let target = EntryId::new(BlockNumber(2), EntryNumber(0));
        let prev = chain.tip().hash();
        chain
            .push(Block::new(
                BlockNumber(5),
                Timestamp(50),
                prev,
                BlockBody::Normal {
                    entries: vec![Entry::sign_delete(&key(9), DeleteRequest::new(target, ""))],
                },
            ))
            .unwrap();
        let proof = prove_deleted(&chain, target).unwrap();
        assert!(matches!(proof, EntryProof::DeletionRequested(_)));
        // Stale headers lack block 5.
        assert_eq!(
            verify_proof(&proof, target, &headers),
            Err(ProofError::UnknownHolder(BlockNumber(5)))
        );
        verify_proof(&proof, target, &HeaderChain::from_chain(&chain)).unwrap();
    }

    #[test]
    fn proofs_bind_to_the_claimed_id() {
        let chain = fixture();
        let headers = HeaderChain::from_chain(&chain);
        let id = EntryId::new(BlockNumber(2), EntryNumber(1));
        let other = EntryId::new(BlockNumber(2), EntryNumber(0));
        let proof = prove_live(&chain, id).unwrap();
        assert_eq!(
            verify_proof(&proof, other, &headers),
            Err(ProofError::WrongSubject { expected: other })
        );
        let tombstoned = EntryId::new(BlockNumber(1), EntryNumber(0));
        let del = prove_deleted(&chain, tombstoned).unwrap();
        assert_eq!(
            verify_proof(&del, other, &headers),
            Err(ProofError::WrongSubject { expected: other })
        );
    }

    #[test]
    fn variant_swap_is_rejected_by_kind() {
        let chain = fixture();
        let headers = HeaderChain::from_chain(&chain);
        let id = EntryId::new(BlockNumber(1), EntryNumber(0));
        let proof = prove_deleted(&chain, id).unwrap();
        // Re-label the executed deletion as a live-in-summary claim: same
        // spot, same holder kind — the leaf population prefix must veto it.
        let forged = EntryProof::LiveInSummary(proof.spot().clone());
        assert_eq!(
            verify_proof(&forged, id, &headers),
            Err(ProofError::LeafUndecodable {
                number: BlockNumber(4)
            })
        );
        // And as a live-in-block claim: the holder kind vetoes it first.
        let forged = EntryProof::LiveInBlock(proof.spot().clone());
        assert_eq!(
            verify_proof(&forged, id, &headers),
            Err(ProofError::KindMismatch {
                number: BlockNumber(4),
                expected: BlockKind::Normal,
                found: BlockKind::Summary
            })
        );
    }

    #[test]
    fn proof_codec_round_trips() {
        let chain = fixture();
        for id in [
            EntryId::new(BlockNumber(2), EntryNumber(0)),
            EntryId::new(BlockNumber(1), EntryNumber(1)),
        ] {
            let proof = prove_live(&chain, id).unwrap();
            let bytes = proof.to_canonical_bytes();
            let decoded = EntryProof::from_canonical_bytes(&bytes).unwrap();
            assert_eq!(decoded, proof);
        }
        let deleted = prove_deleted(&chain, EntryId::new(BlockNumber(1), EntryNumber(0))).unwrap();
        let decoded = EntryProof::from_canonical_bytes(&deleted.to_canonical_bytes()).unwrap();
        assert_eq!(decoded, deleted);
    }

    #[test]
    fn prove_errors_on_absent_subjects() {
        let mut chain = fixture();
        // Execute the prune that accompanies Σ4's merge — before it, the
        // tombstoned entry is transitionally still readable in block 1.
        chain.truncate_front(BlockNumber(2)).unwrap();
        let ghost = EntryId::new(BlockNumber(7), EntryNumber(3));
        assert_eq!(prove_live(&chain, ghost), Err(ProofError::NotLive(ghost)));
        assert_eq!(
            prove_deleted(&chain, ghost),
            Err(ProofError::NotDeleted(ghost))
        );
        // The tombstoned entry is not live; the live entry is not deleted.
        let gone = EntryId::new(BlockNumber(1), EntryNumber(0));
        assert_eq!(prove_live(&chain, gone), Err(ProofError::NotLive(gone)));
        let live = EntryId::new(BlockNumber(2), EntryNumber(1));
        assert_eq!(
            prove_deleted(&chain, live),
            Err(ProofError::NotDeleted(live))
        );
    }

    #[test]
    fn header_chain_rejects_forgeries() {
        let chain = fixture();
        let headers: Vec<BlockHeader> = chain.iter().map(|b| b.header().clone()).collect();
        HeaderChain::new(headers.clone()).unwrap();
        assert_eq!(HeaderChain::new(vec![]), Err(ChainError::EmptyChain));
        // Gap in numbering.
        let mut gapped = headers.clone();
        gapped.remove(2);
        assert!(matches!(
            HeaderChain::new(gapped),
            Err(ChainError::NonContiguousNumber { .. })
        ));
        // Nudged timestamp breaks the hash link to the successor.
        let mut nudged = headers.clone();
        nudged[1].timestamp = Timestamp(999);
        assert!(matches!(
            HeaderChain::new(nudged),
            Err(ChainError::PrevHashMismatch { .. })
        ));
    }

    #[test]
    fn header_of_respects_pruned_offsets() {
        let mut chain = fixture();
        chain.truncate_front(BlockNumber(3)).unwrap();
        let headers = HeaderChain::from_chain(&chain);
        assert_eq!(headers.len(), 2);
        assert!(headers.header_of(BlockNumber(2)).is_none());
        assert_eq!(
            headers.header_of(BlockNumber(4)).unwrap().number,
            BlockNumber(4)
        );
        assert!(headers.header_of(BlockNumber(5)).is_none());
    }
}
