//! Blocks and headers.
//!
//! Four block kinds exist in the selective-deletion design:
//!
//! * **Genesis** — the original first block (Fig. 6 shows it with
//!   predecessor hash `DEADB`).
//! * **Normal** — carries signed entries.
//! * **Summary (Σ)** — the special deterministic block type of §IV-B. It
//!   consists "of deterministic information only", carries the same
//!   timestamp τ as its predecessor, and is created locally by every node.
//! * **Empty** — idle filler blocks (§IV-D3) bounding deletion latency.
//!
//! The paper's concept is independent of the consensus algorithm, and
//! here that independence is structural: a block carries no consensus
//! seal. Every node derives Σ locally and the anchor cluster pins the
//! sealing leader, so nothing in a block records who sealed it or how.
//! The canonical header ends in a reserved seal byte that is always `0`:
//! it is part of on-disk format v3, so dropping it would change every
//! block hash and stored frame.

use std::fmt;

use seldel_codec::{decode_seq, encode_seq, Codec, DecodeError, Decoder, Encoder};
use seldel_crypto::{Digest32, MerkleTree};

use crate::entry::Entry;
use crate::summary::{Anchor, SummaryRecord};
use crate::types::{BlockNumber, EntryId, Timestamp};

/// Domain separation tag for block hashes.
const BLOCK_HASH_DOMAIN: &[u8] = b"seldel/block/v1";

/// First byte of a carried-record leaf in a summary block's payload tree.
pub const SUMMARY_LEAF_RECORD: u8 = b'R';
/// First byte of a deletion-tombstone leaf in a summary block's payload tree.
pub const SUMMARY_LEAF_TOMBSTONE: u8 = b'T';
/// First byte of the anchor leaf in a summary block's payload tree.
pub const SUMMARY_LEAF_ANCHOR: u8 = b'A';

/// The conventional predecessor hash of the original genesis block.
///
/// The paper's Fig. 6 shows the genesis block with previous hash `DEADB`;
/// this constant renders exactly that via [`Digest32::short`].
pub const GENESIS_PREV_HASH: Digest32 = Digest32::from_bytes([
    0xde, 0xad, 0xb0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
]);

/// Block kinds (discriminants are part of the wire format).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockKind {
    /// The original first block.
    Genesis,
    /// An ordinary entry-carrying block.
    Normal,
    /// A summary block Σ.
    Summary,
    /// An idle filler block.
    Empty,
}

impl BlockKind {
    const fn tag(self) -> u8 {
        match self {
            BlockKind::Genesis => 0,
            BlockKind::Normal => 1,
            BlockKind::Summary => 2,
            BlockKind::Empty => 3,
        }
    }
}

impl fmt::Display for BlockKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            BlockKind::Genesis => "genesis",
            BlockKind::Normal => "normal",
            BlockKind::Summary => "summary",
            BlockKind::Empty => "empty",
        };
        f.write_str(name)
    }
}

impl Codec for BlockKind {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(self.tag());
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.take_u8()? {
            0 => Ok(BlockKind::Genesis),
            1 => Ok(BlockKind::Normal),
            2 => Ok(BlockKind::Summary),
            3 => Ok(BlockKind::Empty),
            tag => Err(DecodeError::InvalidTag {
                what: "BlockKind",
                tag,
            }),
        }
    }
}

/// The header's reserved last byte (see the module docs): always `0`, and
/// decoding rejects any other value.
const SEAL_BYTE: u8 = 0;

/// A block header.
///
/// The paper's console format (§V): "block number; timestamp; previous
/// block hash; own block hash; optional data entry". The "own block hash"
/// is derived, not stored: [`BlockHeader::hash`].
///
/// Canonical layout (82 bytes): `u64 number · u64 τ · [32] prev_hash ·
/// [32] payload_hash · u8 kind · u8 seal`, where the seal byte is reserved
/// and always `0`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockHeader {
    /// Block number α.
    pub number: BlockNumber,
    /// Timestamp τ. For summary blocks this equals the predecessor's
    /// timestamp (§IV-B), which is what lets every node derive Σ locally.
    pub timestamp: Timestamp,
    /// Hash of the predecessor block.
    pub prev_hash: Digest32,
    /// Commitment to the block body (Merkle root over entries/records).
    pub payload_hash: Digest32,
    /// Block kind.
    pub kind: BlockKind,
}

impl BlockHeader {
    /// The block hash: SHA-256 over the domain-tagged canonical header.
    pub fn hash(&self) -> Digest32 {
        let mut enc = Encoder::new();
        enc.put_raw(BLOCK_HASH_DOMAIN);
        self.encode(&mut enc);
        seldel_crypto::sha256(enc.into_bytes())
    }
}

impl Codec for BlockHeader {
    fn encode(&self, enc: &mut Encoder) {
        self.number.encode(enc);
        self.timestamp.encode(enc);
        enc.put_raw(self.prev_hash.as_bytes());
        enc.put_raw(self.payload_hash.as_bytes());
        self.kind.encode(enc);
        enc.put_u8(SEAL_BYTE);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let header = BlockHeader {
            number: BlockNumber::decode(dec)?,
            timestamp: Timestamp::decode(dec)?,
            prev_hash: Digest32::from_bytes(dec.take_array()?),
            payload_hash: Digest32::from_bytes(dec.take_array()?),
            kind: BlockKind::decode(dec)?,
        };
        match dec.take_u8()? {
            SEAL_BYTE => Ok(header),
            tag => Err(DecodeError::InvalidTag {
                what: "BlockHeader.seal",
                tag,
            }),
        }
    }
}

/// A block body, one variant per [`BlockKind`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockBody {
    /// Genesis payload: a free-text chain identity note.
    Genesis {
        /// Chain identity / bootstrap note.
        note: String,
    },
    /// Entries of a normal block.
    Normal {
        /// The signed entries, in consensus order.
        entries: Vec<Entry>,
    },
    /// Summary payload: carried-forward records plus optional anchor.
    Summary {
        /// Records copied forward from pruned sequences (possibly empty —
        /// "at the beginning of the blockchain … empty summary blocks").
        records: Vec<SummaryRecord>,
        /// Tombstones of the deletions this Σ (and every Σ it absorbed)
        /// executed: the entry ids whose data was dropped during merging.
        /// Only the id survives — never the payload — so the list is
        /// GDPR-compatible, and its Merkle commitment is what makes
        /// "entry X was deleted" provable after the original block and the
        /// delete request itself were pruned. Strictly sorted (no
        /// duplicates) so the commitment is canonical; carried forward in
        /// full across merges.
        deletions: Vec<EntryId>,
        /// Fig. 9 anchor over a middle sequence, present when the summary
        /// absorbed pruned history and anchoring is enabled.
        anchor: Option<Anchor>,
    },
    /// Idle filler block (no payload).
    Empty,
}

impl BlockBody {
    /// The kind this body corresponds to.
    pub fn kind(&self) -> BlockKind {
        match self {
            BlockBody::Genesis { .. } => BlockKind::Genesis,
            BlockBody::Normal { .. } => BlockKind::Normal,
            BlockBody::Summary { .. } => BlockKind::Summary,
            BlockBody::Empty => BlockKind::Empty,
        }
    }

    /// The payload commitment stored in the header: a Merkle root over
    /// [`BlockBody::payload_leaves`] for entry/record-bearing bodies, or a
    /// domain hash for genesis/empty bodies.
    pub fn payload_hash(&self) -> Digest32 {
        match self {
            BlockBody::Genesis { note } => {
                seldel_crypto::sha256([b"seldel/genesis/v1".as_slice(), note.as_bytes()].concat())
            }
            BlockBody::Empty => seldel_crypto::sha256(b"seldel/empty/v1"),
            _ => self
                .payload_tree()
                .expect("normal/summary bodies have a payload tree")
                .root(),
        }
    }

    /// The leaf payloads of the body's Merkle commitment, in tree order —
    /// `None` for genesis/empty bodies (they commit via a domain hash, not
    /// a tree).
    ///
    /// * **Normal**: one leaf per entry, the entry's canonical bytes.
    /// * **Summary**: the carried records (each prefixed
    ///   [`SUMMARY_LEAF_RECORD`]), then the deletion tombstones (each the
    ///   [`SUMMARY_LEAF_TOMBSTONE`]-prefixed canonical entry id), then the
    ///   anchor (prefixed [`SUMMARY_LEAF_ANCHOR`]) when present. The
    ///   prefixes keep the three leaf populations in disjoint domains, so
    ///   a proof leaf decodes unambiguously without the body at hand.
    pub fn payload_leaves(&self) -> Option<Vec<Vec<u8>>> {
        match self {
            BlockBody::Normal { entries } => {
                Some(entries.iter().map(|e| e.to_canonical_bytes()).collect())
            }
            BlockBody::Summary {
                records,
                deletions,
                anchor,
            } => {
                let mut leaves: Vec<Vec<u8>> =
                    Vec::with_capacity(records.len() + deletions.len() + 1);
                for record in records {
                    let mut leaf = vec![SUMMARY_LEAF_RECORD];
                    leaf.extend_from_slice(&record.to_canonical_bytes());
                    leaves.push(leaf);
                }
                for id in deletions {
                    let mut leaf = vec![SUMMARY_LEAF_TOMBSTONE];
                    leaf.extend_from_slice(&id.to_canonical_bytes());
                    leaves.push(leaf);
                }
                if let Some(anchor) = anchor {
                    let mut leaf = vec![SUMMARY_LEAF_ANCHOR];
                    leaf.extend_from_slice(&anchor.to_canonical_bytes());
                    leaves.push(leaf);
                }
                Some(leaves)
            }
            BlockBody::Genesis { .. } | BlockBody::Empty => None,
        }
    }

    /// The Merkle tree the header's payload commitment is the root of —
    /// `None` for genesis/empty bodies. This is what membership proofs
    /// ([`crate::proof`]) extract audit paths from.
    pub fn payload_tree(&self) -> Option<MerkleTree> {
        self.payload_leaves().map(MerkleTree::from_leaves)
    }

    /// Number of entries/records carried.
    pub fn item_count(&self) -> usize {
        match self {
            BlockBody::Normal { entries } => entries.len(),
            BlockBody::Summary { records, .. } => records.len(),
            _ => 0,
        }
    }
}

impl Codec for BlockBody {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            BlockBody::Genesis { note } => {
                enc.put_u8(0);
                enc.put_str(note);
            }
            BlockBody::Normal { entries } => {
                enc.put_u8(1);
                encode_seq(entries, enc);
            }
            BlockBody::Summary {
                records,
                deletions,
                anchor,
            } => {
                enc.put_u8(2);
                encode_seq(records, enc);
                encode_seq(deletions, enc);
                anchor.encode(enc);
            }
            BlockBody::Empty => enc.put_u8(3),
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.take_u8()? {
            0 => Ok(BlockBody::Genesis {
                note: dec.take_str()?,
            }),
            1 => Ok(BlockBody::Normal {
                entries: decode_seq(dec)?,
            }),
            2 => Ok(BlockBody::Summary {
                records: decode_seq(dec)?,
                deletions: decode_seq(dec)?,
                anchor: Option::<Anchor>::decode(dec)?,
            }),
            3 => Ok(BlockBody::Empty),
            tag => Err(DecodeError::InvalidTag {
                what: "BlockBody",
                tag,
            }),
        }
    }
}

/// A complete block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    header: BlockHeader,
    body: BlockBody,
}

impl Block {
    /// Assembles a block, deriving `kind` and `payload_hash` from the body.
    pub fn new(
        number: BlockNumber,
        timestamp: Timestamp,
        prev_hash: Digest32,
        body: BlockBody,
    ) -> Block {
        let header = BlockHeader {
            number,
            timestamp,
            prev_hash,
            payload_hash: body.payload_hash(),
            kind: body.kind(),
        };
        Block { header, body }
    }

    /// Builds the original genesis block.
    pub fn genesis(note: impl Into<String>, timestamp: Timestamp) -> Block {
        Block::new(
            BlockNumber::GENESIS,
            timestamp,
            GENESIS_PREV_HASH,
            BlockBody::Genesis { note: note.into() },
        )
    }

    /// Reassembles a block from parts (used by decode and the validator).
    ///
    /// Unlike [`Block::new`], the header is taken as-is; use
    /// [`Block::is_payload_consistent`] to check it against the body.
    pub fn from_parts(header: BlockHeader, body: BlockBody) -> Block {
        Block { header, body }
    }

    /// The header.
    pub fn header(&self) -> &BlockHeader {
        &self.header
    }

    /// The body.
    pub fn body(&self) -> &BlockBody {
        &self.body
    }

    /// Block number α.
    pub fn number(&self) -> BlockNumber {
        self.header.number
    }

    /// Timestamp τ.
    pub fn timestamp(&self) -> Timestamp {
        self.header.timestamp
    }

    /// Block kind.
    pub fn kind(&self) -> BlockKind {
        self.header.kind
    }

    /// The block hash (derived from the header).
    pub fn hash(&self) -> Digest32 {
        self.header.hash()
    }

    /// Whether the header's payload commitment and kind match the body.
    pub fn is_payload_consistent(&self) -> bool {
        self.header.kind == self.body.kind() && self.header.payload_hash == self.body.payload_hash()
    }

    /// Entries of a normal block (empty slice otherwise).
    pub fn entries(&self) -> &[Entry] {
        match &self.body {
            BlockBody::Normal { entries } => entries,
            _ => &[],
        }
    }

    /// Records of a summary block (empty slice otherwise).
    pub fn summary_records(&self) -> &[SummaryRecord] {
        match &self.body {
            BlockBody::Summary { records, .. } => records,
            _ => &[],
        }
    }

    /// Deletion tombstones of a summary block (empty slice otherwise):
    /// the ids of every entry this Σ and its absorbed predecessors dropped
    /// by executed deletion request.
    pub fn deletions(&self) -> &[EntryId] {
        match &self.body {
            BlockBody::Summary { deletions, .. } => deletions,
            _ => &[],
        }
    }

    /// Whether the tombstone list is strictly sorted (and therefore free
    /// of duplicates) — the canonical-commitment invariant every honest Σ
    /// satisfies by construction and validation enforces.
    pub fn tombstones_sorted(&self) -> bool {
        self.deletions().windows(2).all(|w| w[0] < w[1])
    }

    /// The Fig. 9 anchor of a summary block, if present.
    pub fn anchor(&self) -> Option<&Anchor> {
        match &self.body {
            BlockBody::Summary { anchor, .. } => anchor.as_ref(),
            _ => None,
        }
    }

    /// Canonical encoded size in bytes (header + body).
    pub fn byte_size(&self) -> usize {
        self.to_canonical_bytes().len()
    }
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}; {}; {}; {}",
            if self.kind() == BlockKind::Summary {
                "S"
            } else {
                ""
            },
            self.number(),
            self.timestamp(),
            self.header.prev_hash.short(),
            self.hash().short(),
        )
    }
}

impl Codec for Block {
    fn encode(&self, enc: &mut Encoder) {
        self.header.encode(enc);
        self.body.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Block {
            header: BlockHeader::decode(dec)?,
            body: BlockBody::decode(dec)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seldel_codec::DataRecord;
    use seldel_crypto::SigningKey;

    fn key(seed: u8) -> SigningKey {
        SigningKey::from_seed([seed; 32])
    }

    fn sample_entry(seed: u8) -> Entry {
        Entry::sign_data(&key(seed), DataRecord::new("login").with("user", "A"))
    }

    fn normal_block(number: u64, prev: Digest32) -> Block {
        Block::new(
            BlockNumber(number),
            Timestamp(number * 10),
            prev,
            BlockBody::Normal {
                entries: vec![sample_entry(1), sample_entry(2)],
            },
        )
    }

    #[test]
    fn genesis_has_paper_prev_hash() {
        let g = Block::genesis("chain-1", Timestamp(0));
        assert_eq!(g.header().prev_hash.short(), "DEADB");
        assert_eq!(g.kind(), BlockKind::Genesis);
        assert_eq!(g.number(), BlockNumber::GENESIS);
        assert!(g.is_payload_consistent());
    }

    #[test]
    fn block_hash_changes_with_content() {
        let g1 = Block::genesis("chain-1", Timestamp(0));
        let g2 = Block::genesis("chain-2", Timestamp(0));
        let g3 = Block::genesis("chain-1", Timestamp(1));
        assert_ne!(g1.hash(), g2.hash());
        assert_ne!(g1.hash(), g3.hash());
        assert_eq!(g1.hash(), Block::genesis("chain-1", Timestamp(0)).hash());
    }

    #[test]
    fn payload_consistency_detects_tampering() {
        let b = normal_block(1, seldel_crypto::sha256(b"prev"));
        assert!(b.is_payload_consistent());
        // Swap in a different body while keeping the header.
        let tampered = Block::from_parts(
            b.header().clone(),
            BlockBody::Normal {
                entries: vec![sample_entry(9)],
            },
        );
        assert!(!tampered.is_payload_consistent());
    }

    #[test]
    fn entries_accessor() {
        let b = normal_block(1, Digest32::ZERO);
        assert_eq!(b.entries().len(), 2);
        assert!(b.summary_records().is_empty());
        assert!(b.anchor().is_none());
        assert_eq!(b.body().item_count(), 2);
    }

    #[test]
    fn summary_block_round_trip() {
        let entry = sample_entry(3);
        let rec = SummaryRecord::from_entry(
            &entry,
            crate::types::EntryId::new(BlockNumber(1), crate::types::EntryNumber(0)),
            Timestamp(10),
        )
        .unwrap();
        let anchor = Anchor::new(BlockNumber(4), BlockNumber(6), seldel_crypto::sha256(b"x"));
        let b = Block::new(
            BlockNumber(9),
            Timestamp(80),
            seldel_crypto::sha256(b"prev"),
            BlockBody::Summary {
                records: vec![rec],
                deletions: vec![crate::types::EntryId::new(
                    BlockNumber(2),
                    crate::types::EntryNumber(1),
                )],
                anchor: Some(anchor),
            },
        );
        let decoded = Block::from_canonical_bytes(&b.to_canonical_bytes()).unwrap();
        assert_eq!(decoded, b);
        assert_eq!(decoded.summary_records().len(), 1);
        assert_eq!(decoded.deletions(), b.deletions());
        assert_eq!(decoded.anchor(), Some(&anchor));
        assert!(decoded.is_payload_consistent());
    }

    #[test]
    fn empty_block_round_trip() {
        let b = Block::new(
            BlockNumber(5),
            Timestamp(50),
            Digest32::ZERO,
            BlockBody::Empty,
        );
        let decoded = Block::from_canonical_bytes(&b.to_canonical_bytes()).unwrap();
        assert_eq!(decoded, b);
        assert_eq!(decoded.kind(), BlockKind::Empty);
    }

    /// Canonical header bytes and block hashes of one block of each kind,
    /// pinned so any change to the header format shows up here.
    #[test]
    fn golden_header_vectors() {
        use crate::types::EntryNumber;
        let genesis = Block::genesis("golden", Timestamp(0));
        let empty = Block::new(
            BlockNumber(1),
            Timestamp(10),
            genesis.hash(),
            BlockBody::Empty,
        );
        let entry = Entry::sign_data(
            &SigningKey::from_seed([7; 32]),
            DataRecord::new("login").with("user", "A"),
        );
        let normal = Block::new(
            BlockNumber(2),
            Timestamp(20),
            empty.hash(),
            BlockBody::Normal {
                entries: vec![entry.clone()],
            },
        );
        let id = EntryId::new(BlockNumber(2), EntryNumber(0));
        let summary = Block::new(
            BlockNumber(3),
            Timestamp(20),
            normal.hash(),
            BlockBody::Summary {
                records: vec![SummaryRecord::from_entry(&entry, id, Timestamp(20)).unwrap()],
                deletions: vec![EntryId::new(BlockNumber(1), EntryNumber(0))],
                anchor: Some(Anchor::new(BlockNumber(0), BlockNumber(1), empty.hash())),
            },
        );
        let vectors = [
            (
                &genesis,
                "00000000000000000000000000000000deadb00000000000000000000000000000000000000000000000000000000000\
                 76c3721f7e8300528bd73f70227119b9be67062a6537fedc79417dd1cb19ff040000",
                "e1bb8703a682c03dd00db37354d437770f7a7e96195e431de78b4492b5fedeab",
            ),
            (
                &empty,
                "01000000000000000a00000000000000e1bb8703a682c03dd00db37354d437770f7a7e96195e431de78b4492b5fedeab\
                 550c9f013130df3401141a32d51a8b7468b618ffbda1421a25bcf0473d203df70300",
                "a0a305fb14bd8a9b8cde3f6a2b70871e48f4c5e28f9565948d140484b424622a",
            ),
            (
                &normal,
                "02000000000000001400000000000000a0a305fb14bd8a9b8cde3f6a2b70871e48f4c5e28f9565948d140484b424622a\
                 34cfb8bb646203b44f0bca6f65d8aa28dea3b73858c82a0f854c70297373ca8a0100",
                "eb1b006089336cf41a8aeed0b5bceb0272400f7041a096c3ab0adab933b32a55",
            ),
            (
                &summary,
                "03000000000000001400000000000000eb1b006089336cf41a8aeed0b5bceb0272400f7041a096c3ab0adab933b32a55\
                 f35b66fa155f5dcdd1a54c9b27845fd4794a9d1d1e348681e157533e264933930200",
                "bdf0b80529cd90de3884c60c4eecf971199f2e908aee347117c21329f9d8d0b3",
            ),
        ];
        for (block, header_hex, hash_hex) in vectors {
            assert_eq!(
                seldel_crypto::hex::encode(block.header().to_canonical_bytes()),
                header_hex,
                "{}",
                block.kind()
            );
            assert_eq!(block.hash().to_hex(), hash_hex, "{}", block.kind());
            assert_eq!(
                Block::from_canonical_bytes(&block.to_canonical_bytes()).unwrap(),
                *block
            );
        }
    }

    /// Headers whose reserved seal byte is not `0` — including the old
    /// proof-of-work (`1` + nonce) and proof-of-authority (`2` + key +
    /// signature) encodings — do not decode.
    #[test]
    fn nonzero_seal_byte_rejected() {
        let block = Block::new(
            BlockNumber(5),
            Timestamp(50),
            Digest32::ZERO,
            BlockBody::Empty,
        );
        let bytes = block.to_canonical_bytes();
        let (header, body) = bytes.split_at(82);
        let (fields, seal) = header.split_at(81);
        assert_eq!(seal, [0]);
        let auth = key(4);
        let authority = [
            auth.verifying_key().as_bytes().as_slice(),
            auth.sign(b"header").to_bytes().as_slice(),
        ]
        .concat();
        let cases: [(u8, Vec<u8>); 3] = [
            (1, 0xdead_beef_u64.to_le_bytes().to_vec()),
            (2, authority),
            (0xFF, Vec::new()),
        ];
        for (tag, payload) in cases {
            let forged = [fields, &[tag], &payload, body].concat();
            assert_eq!(
                Block::from_canonical_bytes(&forged),
                Err(DecodeError::InvalidTag {
                    what: "BlockHeader.seal",
                    tag
                })
            );
        }
    }

    #[test]
    fn display_matches_console_format() {
        let g = Block::genesis("c", Timestamp(0));
        let line = g.to_string();
        assert!(line.starts_with("0; 0; DEADB; "), "{line}");
        let s = Block::new(
            BlockNumber(3),
            Timestamp(20),
            g.hash(),
            BlockBody::Summary {
                records: vec![],
                deletions: vec![],
                anchor: None,
            },
        );
        assert!(s.to_string().starts_with("S3; 20; "), "{s}");
    }

    #[test]
    fn summary_payload_hash_covers_anchor() {
        let body_no_anchor = BlockBody::Summary {
            records: vec![],
            deletions: vec![],
            anchor: None,
        };
        let body_with_anchor = BlockBody::Summary {
            records: vec![],
            deletions: vec![],
            anchor: Some(Anchor::new(
                BlockNumber(1),
                BlockNumber(2),
                seldel_crypto::sha256(b"r"),
            )),
        };
        assert_ne!(
            body_no_anchor.payload_hash(),
            body_with_anchor.payload_hash()
        );
    }

    #[test]
    fn summary_payload_hash_covers_tombstones() {
        use crate::types::{EntryId, EntryNumber};
        let empty = BlockBody::Summary {
            records: vec![],
            deletions: vec![],
            anchor: None,
        };
        let with_tombstone = BlockBody::Summary {
            records: vec![],
            deletions: vec![EntryId::new(BlockNumber(1), EntryNumber(0))],
            anchor: None,
        };
        let with_other_tombstone = BlockBody::Summary {
            records: vec![],
            deletions: vec![EntryId::new(BlockNumber(1), EntryNumber(1))],
            anchor: None,
        };
        assert_ne!(empty.payload_hash(), with_tombstone.payload_hash());
        assert_ne!(
            with_tombstone.payload_hash(),
            with_other_tombstone.payload_hash()
        );
    }

    #[test]
    fn payload_tree_root_matches_payload_hash() {
        use crate::types::{EntryId, EntryNumber};
        let normal = BlockBody::Normal {
            entries: vec![sample_entry(1), sample_entry(2)],
        };
        let summary = BlockBody::Summary {
            records: vec![],
            deletions: vec![EntryId::new(BlockNumber(1), EntryNumber(0))],
            anchor: Some(Anchor::new(
                BlockNumber(1),
                BlockNumber(2),
                seldel_crypto::sha256(b"r"),
            )),
        };
        for body in [normal, summary] {
            assert_eq!(body.payload_tree().unwrap().root(), body.payload_hash());
        }
        assert!(BlockBody::Empty.payload_tree().is_none());
        assert!(BlockBody::Genesis { note: "g".into() }
            .payload_tree()
            .is_none());
    }

    #[test]
    fn tombstone_order_invariant() {
        use crate::types::{EntryId, EntryNumber};
        let sorted = Block::new(
            BlockNumber(3),
            Timestamp(20),
            Digest32::ZERO,
            BlockBody::Summary {
                records: vec![],
                deletions: vec![
                    EntryId::new(BlockNumber(1), EntryNumber(0)),
                    EntryId::new(BlockNumber(1), EntryNumber(1)),
                ],
                anchor: None,
            },
        );
        assert!(sorted.tombstones_sorted());
        let unsorted = Block::new(
            BlockNumber(3),
            Timestamp(20),
            Digest32::ZERO,
            BlockBody::Summary {
                records: vec![],
                deletions: vec![
                    EntryId::new(BlockNumber(1), EntryNumber(1)),
                    EntryId::new(BlockNumber(1), EntryNumber(0)),
                ],
                anchor: None,
            },
        );
        assert!(!unsorted.tombstones_sorted());
        // Duplicates violate *strict* sortedness too.
        let duplicated = Block::new(
            BlockNumber(3),
            Timestamp(20),
            Digest32::ZERO,
            BlockBody::Summary {
                records: vec![],
                deletions: vec![
                    EntryId::new(BlockNumber(1), EntryNumber(0)),
                    EntryId::new(BlockNumber(1), EntryNumber(0)),
                ],
                anchor: None,
            },
        );
        assert!(!duplicated.tombstones_sorted());
        // Non-summary blocks trivially satisfy the invariant.
        assert!(Block::genesis("g", Timestamp(0)).tombstones_sorted());
    }

    #[test]
    fn kind_display() {
        assert_eq!(BlockKind::Summary.to_string(), "summary");
        assert_eq!(BlockKind::Genesis.to_string(), "genesis");
    }
}
