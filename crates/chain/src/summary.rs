//! Summary-block contents: carried-forward records (Fig. 4) and the
//! mid-chain Merkle anchor used to hamper 51 % attacks (Fig. 9).

use std::fmt;

use seldel_codec::{Codec, DataRecord, DecodeError, Decoder, Encoder};
use seldel_crypto::{Digest32, Signature, SignatureError, VerifyingKey};

use crate::entry::{Entry, EntryPayload};
use crate::types::{BlockNumber, EntryId, Expiry, Timestamp};

/// A data record carried forward into a summary block.
///
/// Per the paper's Fig. 4, the copied information keeps the **original**
/// block number, entry number and timestamp ("the block number, the
/// timestamp and the entry number are keeped the same as initially
/// integrated"); nonce and previous hash of the source block are dropped.
/// The author key and signature travel with the record so authorship stays
/// verifiable after any number of merges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SummaryRecord {
    origin: EntryId,
    origin_timestamp: Timestamp,
    record: DataRecord,
    author: VerifyingKey,
    signature: Signature,
    expiry: Option<Expiry>,
    depends_on: Vec<EntryId>,
}

impl SummaryRecord {
    /// Builds a summary record from a live entry at a known position.
    ///
    /// Returns `None` for deletion-request entries: "deletion requests …
    /// will never be copied into a summary block" (§IV-D3).
    pub fn from_entry(
        entry: &Entry,
        origin: EntryId,
        timestamp: Timestamp,
    ) -> Option<SummaryRecord> {
        match entry.payload() {
            EntryPayload::Data(record) => Some(SummaryRecord {
                origin,
                origin_timestamp: timestamp,
                record: record.clone(),
                author: entry.author(),
                signature: *entry.signature(),
                expiry: entry.expiry(),
                depends_on: entry.depends_on().to_vec(),
            }),
            EntryPayload::Delete(_) => None,
        }
    }

    /// The original position (block α, entry number) — stable forever.
    pub const fn origin(&self) -> EntryId {
        self.origin
    }

    /// The original block timestamp.
    pub const fn origin_timestamp(&self) -> Timestamp {
        self.origin_timestamp
    }

    /// The carried data record.
    pub fn record(&self) -> &DataRecord {
        &self.record
    }

    /// The original author key.
    pub const fn author(&self) -> VerifyingKey {
        self.author
    }

    /// The original entry signature.
    pub const fn signature(&self) -> &Signature {
        &self.signature
    }

    /// The original expiry, if the entry was temporary.
    pub const fn expiry(&self) -> Option<Expiry> {
        self.expiry
    }

    /// The original dependency edges.
    pub fn depends_on(&self) -> &[EntryId] {
        &self.depends_on
    }

    /// Verifies the carried author signature still matches the payload.
    ///
    /// # Errors
    ///
    /// Propagates [`SignatureError`] when the signature is invalid — e.g.
    /// when a record was altered during a (buggy or malicious) merge.
    pub fn verify(&self) -> Result<(), SignatureError> {
        let message = Entry::data_signing_message(&self.record, &self.expiry, &self.depends_on);
        self.author.verify(&message, &self.signature)
    }

    /// Canonical encoded size in bytes.
    pub fn byte_size(&self) -> usize {
        self.to_canonical_bytes().len()
    }
}

impl fmt::Display for SummaryRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}@τ{}: D {}",
            self.origin, self.origin_timestamp, self.record
        )
    }
}

impl Codec for SummaryRecord {
    fn encode(&self, enc: &mut Encoder) {
        self.origin.encode(enc);
        self.origin_timestamp.encode(enc);
        self.record.encode(enc);
        enc.put_raw(self.author.as_bytes());
        enc.put_raw(&self.signature.to_bytes());
        self.expiry.encode(enc);
        enc.put_len(self.depends_on.len());
        for dep in &self.depends_on {
            dep.encode(enc);
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let origin = EntryId::decode(dec)?;
        let origin_timestamp = Timestamp::decode(dec)?;
        let record = DataRecord::decode(dec)?;
        let key_bytes: [u8; 32] = dec.take_array()?;
        let author = VerifyingKey::from_bytes(&key_bytes).map_err(|_| DecodeError::InvalidTag {
            what: "SummaryRecord.author",
            tag: key_bytes[0],
        })?;
        let sig_bytes: [u8; 64] = dec.take_array()?;
        let signature = Signature::from_bytes(&sig_bytes);
        let expiry = Option::<Expiry>::decode(dec)?;
        let dep_len = dec.take_len()?;
        let mut depends_on = Vec::with_capacity(dep_len.min(1024));
        for _ in 0..dep_len {
            depends_on.push(EntryId::decode(dec)?);
        }
        Ok(SummaryRecord {
            origin,
            origin_timestamp,
            record,
            author,
            signature,
            expiry,
            depends_on,
        })
    }
}

/// The 51 %-attack hampering anchor of Fig. 9.
///
/// When a summary block absorbs pruned history, it additionally stores "the
/// reference to a middle sequence, for example ω_{lβ/2}" — here the Merkle
/// root over the block hashes of that sequence. Every record older than
/// lβ/2 therefore keeps at least lβ/2 confirmations even after its original
/// blocks are cut off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Anchor {
    /// First block of the anchored middle sequence.
    pub start: BlockNumber,
    /// Last block of the anchored middle sequence (inclusive).
    pub end: BlockNumber,
    /// Merkle root over the block hashes `start..=end`.
    pub merkle_root: Digest32,
}

impl Anchor {
    /// Creates an anchor.
    pub const fn new(start: BlockNumber, end: BlockNumber, merkle_root: Digest32) -> Anchor {
        Anchor {
            start,
            end,
            merkle_root,
        }
    }

    /// Number of blocks covered.
    pub const fn span(&self) -> u64 {
        self.end.value() - self.start.value() + 1
    }
}

impl fmt::Display for Anchor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "anchor ω[{}..={}] root {}",
            self.start,
            self.end,
            self.merkle_root.short()
        )
    }
}

impl Codec for Anchor {
    fn encode(&self, enc: &mut Encoder) {
        self.start.encode(enc);
        self.end.encode(enc);
        enc.put_raw(self.merkle_root.as_bytes());
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Anchor {
            start: BlockNumber::decode(dec)?,
            end: BlockNumber::decode(dec)?,
            merkle_root: Digest32::from_bytes(dec.take_array()?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::DeleteRequest;
    use crate::types::EntryNumber;
    use seldel_codec::DataRecord;
    use seldel_crypto::SigningKey;

    fn key(seed: u8) -> SigningKey {
        SigningKey::from_seed([seed; 32])
    }

    fn entry(seed: u8) -> Entry {
        Entry::sign_data(&key(seed), DataRecord::new("login").with("user", "ALPHA"))
    }

    fn origin() -> EntryId {
        EntryId::new(BlockNumber(3), EntryNumber(1))
    }

    #[test]
    fn from_entry_preserves_origin_fields() {
        let e = entry(1);
        let rec = SummaryRecord::from_entry(&e, origin(), Timestamp(500)).unwrap();
        assert_eq!(rec.origin(), origin());
        assert_eq!(rec.origin_timestamp(), Timestamp(500));
        assert_eq!(rec.author(), e.author());
        rec.verify().unwrap();
    }

    #[test]
    fn delete_requests_never_become_summary_records() {
        let e = Entry::sign_delete(&key(2), DeleteRequest::new(origin(), ""));
        assert!(SummaryRecord::from_entry(&e, origin(), Timestamp(0)).is_none());
    }

    #[test]
    fn round_trip() {
        let rec = SummaryRecord::from_entry(&entry(3), origin(), Timestamp(42)).unwrap();
        let decoded = SummaryRecord::from_canonical_bytes(&rec.to_canonical_bytes()).unwrap();
        assert_eq!(decoded, rec);
        decoded.verify().unwrap();
    }

    #[test]
    fn tampered_record_fails_signature() {
        let rec = SummaryRecord::from_entry(&entry(4), origin(), Timestamp(42)).unwrap();
        let mut tampered = rec.clone();
        tampered.record = DataRecord::new("login").with("user", "MALLORY");
        assert!(tampered.verify().is_err());
    }

    #[test]
    fn verify_signs_the_entry_signing_message() {
        let record = DataRecord::new("login").with("user", "ALPHA");
        let deps = [EntryId::new(BlockNumber(1), EntryNumber(0))];
        for expiry in [None, Some(Expiry::AtBlock(BlockNumber(9)))] {
            for depends_on in [&[][..], &deps[..]] {
                assert_eq!(
                    Entry::data_signing_message(&record, &expiry, depends_on),
                    Entry::signing_message(
                        &EntryPayload::Data(record.clone()),
                        &expiry,
                        depends_on
                    ),
                    "expiry {expiry:?}, {} deps",
                    depends_on.len()
                );
            }
        }
        let expiry = Some(Expiry::AtBlock(BlockNumber(9)));
        let e = Entry::sign_data_with(&key(6), record, expiry, deps.to_vec());
        let rec = SummaryRecord::from_entry(&e, origin(), Timestamp(7)).unwrap();
        rec.verify().unwrap();
    }

    #[test]
    fn display_shows_origin() {
        let rec = SummaryRecord::from_entry(&entry(5), origin(), Timestamp(42)).unwrap();
        let text = rec.to_string();
        assert!(text.starts_with("3:1@τ42"), "{text}");
    }

    #[test]
    fn anchor_span_and_round_trip() {
        let a = Anchor::new(
            BlockNumber(8),
            BlockNumber(11),
            seldel_crypto::sha256(b"root"),
        );
        assert_eq!(a.span(), 4);
        let decoded = Anchor::from_canonical_bytes(&a.to_canonical_bytes()).unwrap();
        assert_eq!(decoded, a);
        assert!(a.to_string().contains("ω[8..=11]"));
    }
}
