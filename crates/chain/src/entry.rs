//! Blockchain entries: the `D` (data record), `K` (author key) and `S`
//! (signature) triple of the paper's prototype, plus deletion requests.

use std::fmt;

use seldel_codec::{decode_seq, encode_seq, Codec, DataRecord, DecodeError, Decoder, Encoder};
use seldel_crypto::{Signature, SignatureError, SigningKey, VerifyingKey};

use crate::types::{EntryId, Expiry};

/// Domain separation tag for entry signatures. Versioned so future layout
/// changes cannot collide with old signatures.
const ENTRY_SIGN_DOMAIN: &[u8] = b"seldel/entry/v1";

/// A request to delete the data set at `target` (§IV-D).
///
/// The request is submitted "in form of a deletion entry … following the
/// same procedure as normal entries", signed by the requesting client. For
/// entries other clients depend on, [`DeleteRequest::cosignatures`] carries
/// the approvals of all dependent parties (§IV-D2, semantic cohesion).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeleteRequest {
    target: EntryId,
    reason: String,
    cosignatures: Vec<CoSignature>,
}

/// An approval signature from the author of a dependent entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoSignature {
    /// The co-signing party.
    pub signer: VerifyingKey,
    /// Signature over the same message as the main request signature.
    pub signature: Signature,
}

impl Codec for CoSignature {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_raw(self.signer.as_bytes());
        enc.put_raw(&self.signature.to_bytes());
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let key_bytes: [u8; 32] = dec.take_array()?;
        let signer = VerifyingKey::from_bytes(&key_bytes).map_err(|_| DecodeError::InvalidTag {
            what: "CoSignature.signer",
            tag: key_bytes[0],
        })?;
        let sig_bytes: [u8; 64] = dec.take_array()?;
        Ok(CoSignature {
            signer,
            signature: Signature::from_bytes(&sig_bytes),
        })
    }
}

impl DeleteRequest {
    /// Creates a deletion request for `target`.
    pub fn new(target: EntryId, reason: impl Into<String>) -> DeleteRequest {
        DeleteRequest {
            target,
            reason: reason.into(),
            cosignatures: Vec::new(),
        }
    }

    /// Adds a dependent party's approval (builder style).
    pub fn with_cosignature(mut self, signer: VerifyingKey, signature: Signature) -> Self {
        self.cosignatures.push(CoSignature { signer, signature });
        self
    }

    /// The entry this request wants removed.
    pub const fn target(&self) -> EntryId {
        self.target
    }

    /// Free-text justification (audit trail).
    pub fn reason(&self) -> &str {
        &self.reason
    }

    /// Approvals from dependent entry authors.
    pub fn cosignatures(&self) -> &[CoSignature] {
        &self.cosignatures
    }

    /// The message co-signers sign: the target id plus reason, domain
    /// separated from entry signatures.
    pub fn cosign_message(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_raw(b"seldel/cosign/v1");
        self.target.encode(&mut enc);
        enc.put_str(&self.reason);
        enc.into_bytes()
    }
}

impl Codec for DeleteRequest {
    fn encode(&self, enc: &mut Encoder) {
        self.target.encode(enc);
        enc.put_str(&self.reason);
        encode_seq(&self.cosignatures, enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(DeleteRequest {
            target: EntryId::decode(dec)?,
            reason: dec.take_str()?,
            cosignatures: decode_seq(dec)?,
        })
    }
}

impl fmt::Display for DeleteRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "delete {}", self.target)?;
        if !self.reason.is_empty() {
            write!(f, " ({})", self.reason)?;
        }
        Ok(())
    }
}

/// What an entry carries: application data or a deletion request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryPayload {
    /// A data record (`D` in the paper's console format).
    Data(DataRecord),
    /// A deletion request; never copied into summary blocks.
    Delete(DeleteRequest),
}

impl EntryPayload {
    /// Borrows the data record, if this is a data entry.
    pub fn as_data(&self) -> Option<&DataRecord> {
        match self {
            EntryPayload::Data(r) => Some(r),
            _ => None,
        }
    }

    /// Borrows the deletion request, if this is one.
    pub fn as_delete(&self) -> Option<&DeleteRequest> {
        match self {
            EntryPayload::Delete(d) => Some(d),
            _ => None,
        }
    }

    /// Whether this is a deletion request.
    pub fn is_delete(&self) -> bool {
        matches!(self, EntryPayload::Delete(_))
    }
}

impl Codec for EntryPayload {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            EntryPayload::Data(record) => encode_data_payload(record, enc),
            EntryPayload::Delete(req) => {
                enc.put_u8(1);
                req.encode(enc);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.take_u8()? {
            0 => Ok(EntryPayload::Data(DataRecord::decode(dec)?)),
            1 => Ok(EntryPayload::Delete(DeleteRequest::decode(dec)?)),
            tag => Err(DecodeError::InvalidTag {
                what: "EntryPayload",
                tag,
            }),
        }
    }
}

/// Encodes `EntryPayload::Data(record)` without owning the record.
fn encode_data_payload(record: &DataRecord, enc: &mut Encoder) {
    enc.put_u8(0);
    record.encode(enc);
}

/// A signed blockchain entry.
///
/// Layout follows the paper's console format: `D` (payload), `K` (author
/// public key), `S` (signature), extended with the optional expiry of
/// temporary entries (§IV-D4) and explicit dependency edges used by the
/// semantic-cohesion check (§IV-D2).
///
/// The signature covers payload, expiry and dependencies — but **not** the
/// entry's eventual position, because the author signs before the anchor
/// nodes place the entry in a block. Positions are protected by the block
/// hash chain instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    payload: EntryPayload,
    author: VerifyingKey,
    signature: Signature,
    expiry: Option<Expiry>,
    depends_on: Vec<EntryId>,
}

impl Entry {
    /// Signs and creates a data entry.
    pub fn sign_data(key: &SigningKey, record: DataRecord) -> Entry {
        Entry::sign_parts(key, EntryPayload::Data(record), None, Vec::new())
    }

    /// Signs and creates a data entry with expiry and/or dependencies.
    pub fn sign_data_with(
        key: &SigningKey,
        record: DataRecord,
        expiry: Option<Expiry>,
        depends_on: Vec<EntryId>,
    ) -> Entry {
        Entry::sign_parts(key, EntryPayload::Data(record), expiry, depends_on)
    }

    /// Signs and creates a deletion-request entry.
    pub fn sign_delete(key: &SigningKey, request: DeleteRequest) -> Entry {
        Entry::sign_parts(key, EntryPayload::Delete(request), None, Vec::new())
    }

    fn sign_parts(
        key: &SigningKey,
        payload: EntryPayload,
        expiry: Option<Expiry>,
        depends_on: Vec<EntryId>,
    ) -> Entry {
        let message = Entry::signing_message(&payload, &expiry, &depends_on);
        Entry {
            signature: key.sign(&message),
            author: key.verifying_key(),
            payload,
            expiry,
            depends_on,
        }
    }

    /// The canonical byte string an entry signature covers.
    pub fn signing_message(
        payload: &EntryPayload,
        expiry: &Option<Expiry>,
        depends_on: &[EntryId],
    ) -> Vec<u8> {
        Entry::signing_message_with(|enc| payload.encode(enc), expiry, depends_on)
    }

    /// [`Entry::signing_message`] of a data payload, from a borrowed record.
    pub(crate) fn data_signing_message(
        record: &DataRecord,
        expiry: &Option<Expiry>,
        depends_on: &[EntryId],
    ) -> Vec<u8> {
        Entry::signing_message_with(|enc| encode_data_payload(record, enc), expiry, depends_on)
    }

    fn signing_message_with(
        encode_payload: impl FnOnce(&mut Encoder),
        expiry: &Option<Expiry>,
        depends_on: &[EntryId],
    ) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_raw(ENTRY_SIGN_DOMAIN);
        encode_payload(&mut enc);
        expiry.encode(&mut enc);
        enc.put_len(depends_on.len());
        for dep in depends_on {
            dep.encode(&mut enc);
        }
        enc.into_bytes()
    }

    /// Verifies the author signature.
    ///
    /// # Errors
    ///
    /// Propagates [`SignatureError`] from the Ed25519 verifier.
    pub fn verify(&self) -> Result<(), SignatureError> {
        let message = Entry::signing_message(&self.payload, &self.expiry, &self.depends_on);
        self.author.verify(&message, &self.signature)
    }

    /// The payload.
    pub fn payload(&self) -> &EntryPayload {
        &self.payload
    }

    /// The author public key (`K`).
    pub const fn author(&self) -> VerifyingKey {
        self.author
    }

    /// The signature (`S`).
    pub const fn signature(&self) -> &Signature {
        &self.signature
    }

    /// Optional expiry of a temporary entry.
    pub const fn expiry(&self) -> Option<Expiry> {
        self.expiry
    }

    /// Entries this entry semantically depends on.
    pub fn depends_on(&self) -> &[EntryId] {
        &self.depends_on
    }

    /// Whether this entry is a deletion request.
    pub fn is_delete_request(&self) -> bool {
        self.payload.is_delete()
    }

    /// Canonical encoded size in bytes.
    pub fn byte_size(&self) -> usize {
        self.to_canonical_bytes().len()
    }
}

impl Codec for Entry {
    fn encode(&self, enc: &mut Encoder) {
        self.payload.encode(enc);
        enc.put_raw(self.author.as_bytes());
        enc.put_raw(&self.signature.to_bytes());
        self.expiry.encode(enc);
        enc.put_len(self.depends_on.len());
        for dep in &self.depends_on {
            dep.encode(enc);
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let payload = EntryPayload::decode(dec)?;
        let key_bytes: [u8; 32] = dec.take_array()?;
        let author = VerifyingKey::from_bytes(&key_bytes).map_err(|_| DecodeError::InvalidTag {
            what: "Entry.author",
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
        Ok(Entry {
            payload,
            author,
            signature,
            expiry,
            depends_on,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{BlockNumber, EntryNumber, Timestamp};

    fn key(seed: u8) -> SigningKey {
        SigningKey::from_seed([seed; 32])
    }

    fn record() -> DataRecord {
        DataRecord::new("login")
            .with("user", "ALPHA")
            .with("terminal", 1u64)
    }

    #[test]
    fn sign_and_verify_data_entry() {
        let entry = Entry::sign_data(&key(1), record());
        entry.verify().unwrap();
        assert!(!entry.is_delete_request());
        assert_eq!(entry.payload().as_data().unwrap().schema(), "login");
    }

    #[test]
    fn sign_and_verify_delete_entry() {
        let target = EntryId::new(BlockNumber(3), EntryNumber(1));
        let entry = Entry::sign_delete(&key(2), DeleteRequest::new(target, "gdpr art. 17"));
        entry.verify().unwrap();
        assert!(entry.is_delete_request());
        assert_eq!(entry.payload().as_delete().unwrap().target(), target);
    }

    #[test]
    fn tampered_payload_fails_verification() {
        let entry = Entry::sign_data(&key(3), record());
        let mut bytes = entry.to_canonical_bytes();
        // Flip a byte inside the record portion.
        bytes[10] ^= 0x01;
        if let Ok(tampered) = Entry::from_canonical_bytes(&bytes) {
            assert!(tampered.verify().is_err());
        }
    }

    #[test]
    fn entry_with_expiry_and_deps_round_trips() {
        let deps = vec![
            EntryId::new(BlockNumber(1), EntryNumber(0)),
            EntryId::new(BlockNumber(2), EntryNumber(3)),
        ];
        let entry = Entry::sign_data_with(
            &key(4),
            record(),
            Some(Expiry::AtTimestamp(Timestamp(8888))),
            deps.clone(),
        );
        entry.verify().unwrap();
        let decoded = Entry::from_canonical_bytes(&entry.to_canonical_bytes()).unwrap();
        assert_eq!(decoded, entry);
        assert_eq!(decoded.depends_on(), deps.as_slice());
        assert_eq!(decoded.expiry(), Some(Expiry::AtTimestamp(Timestamp(8888))));
        decoded.verify().unwrap();
    }

    #[test]
    fn signature_covers_expiry() {
        // Same payload, different expiry => different signing messages.
        let m1 = Entry::signing_message(&EntryPayload::Data(record()), &None, &[]);
        let m2 = Entry::signing_message(
            &EntryPayload::Data(record()),
            &Some(Expiry::AtBlock(BlockNumber(9))),
            &[],
        );
        assert_ne!(m1, m2);
    }

    #[test]
    fn signature_covers_dependencies() {
        let dep = EntryId::new(BlockNumber(1), EntryNumber(1));
        let m1 = Entry::signing_message(&EntryPayload::Data(record()), &None, &[]);
        let m2 = Entry::signing_message(&EntryPayload::Data(record()), &None, &[dep]);
        assert_ne!(m1, m2);
    }

    #[test]
    fn delete_request_cosignatures_round_trip() {
        let target = EntryId::new(BlockNumber(5), EntryNumber(0));
        let req = DeleteRequest::new(target, "cleanup");
        let co_key = key(7);
        let co_sig = co_key.sign(&req.cosign_message());
        let req = req.with_cosignature(co_key.verifying_key(), co_sig);

        let entry = Entry::sign_delete(&key(6), req.clone());
        let decoded = Entry::from_canonical_bytes(&entry.to_canonical_bytes()).unwrap();
        let decoded_req = decoded.payload().as_delete().unwrap();
        assert_eq!(decoded_req.cosignatures().len(), 1);
        // The cosignature itself must verify.
        decoded_req.cosignatures()[0]
            .signer
            .verify(
                &decoded_req.cosign_message(),
                &decoded_req.cosignatures()[0].signature,
            )
            .unwrap();
    }

    #[test]
    fn delete_request_display() {
        let req = DeleteRequest::new(EntryId::new(BlockNumber(3), EntryNumber(1)), "why");
        assert_eq!(req.to_string(), "delete 3:1 (why)");
        let bare = DeleteRequest::new(EntryId::new(BlockNumber(3), EntryNumber(1)), "");
        assert_eq!(bare.to_string(), "delete 3:1");
    }

    #[test]
    fn entry_byte_size_reasonable() {
        let entry = Entry::sign_data(&key(8), record());
        // key (32) + sig (64) + payload must dominate.
        assert!(entry.byte_size() > 96);
        assert!(entry.byte_size() < 4096);
    }

    #[test]
    fn decode_rejects_invalid_author_key() {
        let entry = Entry::sign_data(&key(9), record());
        let mut bytes = entry.to_canonical_bytes();
        // The author key starts right after the payload; find it by
        // re-encoding the payload to learn its length.
        let payload_len = {
            let mut enc = Encoder::new();
            entry.payload().encode(&mut enc);
            enc.into_bytes().len()
        };
        // Overwrite the key with a non-canonical y >= p encoding.
        for (i, b) in bytes[payload_len..payload_len + 32].iter_mut().enumerate() {
            *b = if i == 0 { 0xed } else { 0xff };
        }
        bytes[payload_len + 31] = 0x7f;
        assert!(Entry::from_canonical_bytes(&bytes).is_err());
    }
}
