//! Ed25519 signatures (RFC 8032), implemented from scratch.
//!
//! Every blockchain entry carries the author's public key `K` and a
//! signature `S`; the selective-deletion authorisation rule ("a user is only
//! allowed to submit delete requests for his own transactions", §IV-D1 of
//! the paper) compares these keys and verifies the deletion request's
//! signature. The quorum's master signatures use the same scheme.
//!
//! # Implementation
//!
//! Verification checks the cofactorless equation `[s]B = R + [k]A` as
//! `[k](−A) + [s]B = R` in one Straus pass over width-5 (for `A`) and
//! width-8 (for `B`) non-adjacent forms, with `B`'s 64 odd multiples
//! precomputed once per process. Inversion and the decompression square
//! root use the ref10 addition chain.
//!
//! Public keys are validated once per thread. A private thread-local table
//! maps the 32 compressed key bytes to the eight odd multiples of `−A` that
//! the Straus pass indexes. [`VerifyingKey::from_bytes`] and
//! [`VerifyingKey::verify`] both look the key up there. On a miss the key is
//! decompressed with every check (canonical `y`, square `x²`, no negative
//! zero), the table for `−A` is built, and it is inserted; a key that fails
//! to decompress is never inserted, so every rejection runs the full check.
//! The table holds at most 1 024 keys (about 1.3 MB) and is cleared when
//! full. It is a memo of a pure function of public bytes: verdicts, the
//! error order and every decode path are the same as without it. Only `R`
//! is still decompressed per signature.
//!
//! Signing and key derivation use the same base-point table, indexed by the
//! digits of the secret nonce and the secret scalar: like the rest of this
//! crate, that is variable-time and leaks through timing and cache access
//! (see the crate-level security note).
//!
//! # Example
//!
//! ```
//! use seldel_crypto::ed25519::SigningKey;
//!
//! let key = SigningKey::from_seed([42u8; 32]);
//! let msg = b"login user=ALPHA terminal=7";
//! let sig = key.sign(msg);
//! key.verifying_key().verify(msg, &sig).expect("fresh signature verifies");
//! assert!(key.verifying_key().verify(b"tampered", &sig).is_err());
//! ```

mod field;
mod point;
mod scalar;

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;

use crate::hex;
use crate::sha512::Sha512;
use point::{EdwardsPoint, VarTable};
use scalar::Scalar;

/// Most validated keys the table of one thread holds before it is cleared.
const KEY_TABLE_CAPACITY: usize = 1024;

thread_local! {
    /// Compressed key bytes → odd multiples of `−A`, for every key that
    /// decompressed on this thread since the table was last cleared.
    static KEY_TABLE: RefCell<HashMap<[u8; 32], Box<VarTable>>> = RefCell::new(HashMap::new());
}

/// Runs `f` on the odd multiples of `−A` for the key `bytes` encodes,
/// decompressing it and inserting its table on first sight. Returns `None`,
/// and caches nothing, when `bytes` is not a valid point encoding.
fn with_neg_key_table<R>(bytes: &[u8; 32], f: impl FnOnce(&VarTable) -> R) -> Option<R> {
    KEY_TABLE.with(|table| {
        let mut table = table.borrow_mut();
        if let Some(neg_a) = table.get(bytes) {
            return Some(f(neg_a));
        }
        let a = EdwardsPoint::decompress(bytes)?;
        if table.len() >= KEY_TABLE_CAPACITY {
            table.clear();
        }
        Some(f(table
            .entry(*bytes)
            .or_insert_with(|| Box::new(a.neg().var_table()))))
    })
}

/// Empties this thread's key table, so the next use of any key is a miss.
#[cfg(test)]
fn clear_key_table() {
    KEY_TABLE.with(|table| table.borrow_mut().clear());
}

/// Keys in this thread's key table.
#[cfg(test)]
fn key_table_len() -> usize {
    KEY_TABLE.with(|table| table.borrow().len())
}

/// Errors arising from signature parsing or verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignatureError {
    /// The 32-byte public key is not a valid curve point encoding.
    InvalidPublicKey,
    /// The `R` component of the signature is not a valid curve point.
    InvalidSignaturePoint,
    /// The `s` component is not a canonical scalar (`s >= ℓ`), which RFC
    /// 8032 requires rejecting to prevent malleability.
    NonCanonicalScalar,
    /// The verification equation `[s]B = R + [k]A` does not hold.
    VerificationFailed,
}

impl fmt::Display for SignatureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignatureError::InvalidPublicKey => f.write_str("invalid public key encoding"),
            SignatureError::InvalidSignaturePoint => {
                f.write_str("invalid signature point encoding")
            }
            SignatureError::NonCanonicalScalar => f.write_str("signature scalar is not canonical"),
            SignatureError::VerificationFailed => f.write_str("signature verification failed"),
        }
    }
}

impl std::error::Error for SignatureError {}

/// A detached Ed25519 signature (`R ‖ s`, 64 bytes).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    r_bytes: [u8; 32],
    s_bytes: [u8; 32],
}

impl Signature {
    /// Builds a signature from its 64-byte wire encoding.
    ///
    /// No validation happens here; invalid signatures are rejected during
    /// [`VerifyingKey::verify`].
    pub fn from_bytes(bytes: &[u8; 64]) -> Signature {
        let mut r_bytes = [0u8; 32];
        let mut s_bytes = [0u8; 32];
        r_bytes.copy_from_slice(&bytes[..32]);
        s_bytes.copy_from_slice(&bytes[32..]);
        Signature { r_bytes, s_bytes }
    }

    /// The 64-byte wire encoding `R ‖ s`.
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&self.r_bytes);
        out[32..].copy_from_slice(&self.s_bytes);
        out
    }

    /// Lowercase hex of the wire encoding.
    pub fn to_hex(&self) -> String {
        hex::encode(self.to_bytes())
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Signature({})", self.to_hex())
    }
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// An Ed25519 public key — the `K` field of a blockchain entry.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VerifyingKey {
    compressed: [u8; 32],
}

impl VerifyingKey {
    /// Parses a compressed public key.
    ///
    /// # Errors
    ///
    /// Returns [`SignatureError::InvalidPublicKey`] if the bytes do not
    /// decode to a curve point.
    pub fn from_bytes(bytes: &[u8; 32]) -> Result<VerifyingKey, SignatureError> {
        with_neg_key_table(bytes, |_| VerifyingKey { compressed: *bytes })
            .ok_or(SignatureError::InvalidPublicKey)
    }

    /// The 32-byte compressed encoding.
    pub const fn to_bytes(&self) -> [u8; 32] {
        self.compressed
    }

    /// The 32-byte compressed encoding, borrowed.
    pub const fn as_bytes(&self) -> &[u8; 32] {
        &self.compressed
    }

    /// Lowercase hex of the compressed key.
    pub fn to_hex(&self) -> String {
        hex::encode(self.compressed)
    }

    /// Short uppercase prefix used by the console renderer (paper Figs 6–8
    /// abbreviate user identities).
    pub fn short(&self) -> String {
        hex::encode_upper(&self.compressed[..3])[..5].to_string()
    }

    /// Verifies `signature` over `message`.
    ///
    /// # Errors
    ///
    /// * [`SignatureError::InvalidPublicKey`] — the stored key fails to
    ///   decompress (cannot happen for keys built via `from_bytes`/signing).
    /// * [`SignatureError::InvalidSignaturePoint`] — `R` fails to decompress.
    /// * [`SignatureError::NonCanonicalScalar`] — `s >= ℓ`.
    /// * [`SignatureError::VerificationFailed`] — the equation does not hold.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), SignatureError> {
        with_neg_key_table(&self.compressed, |neg_a| {
            let r = EdwardsPoint::decompress(&signature.r_bytes)
                .ok_or(SignatureError::InvalidSignaturePoint)?;
            let s = Scalar::from_canonical_bytes(&signature.s_bytes)
                .ok_or(SignatureError::NonCanonicalScalar)?;

            let k = challenge_scalar(&signature.r_bytes, &self.compressed, message);

            // [s]B == R + [k]A, checked as [k](−A) + [s]B == R in one pass.
            let check = EdwardsPoint::double_scalar_mul_base(&k, neg_a, &s);
            if check == r {
                Ok(())
            } else {
                Err(SignatureError::VerificationFailed)
            }
        })
        .unwrap_or(Err(SignatureError::InvalidPublicKey))
    }
}

impl fmt::Debug for VerifyingKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VerifyingKey({})", self.to_hex())
    }
}

impl fmt::Display for VerifyingKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for VerifyingKey {
    fn as_ref(&self) -> &[u8] {
        &self.compressed
    }
}

/// An Ed25519 private key derived from a 32-byte seed.
#[derive(Clone)]
pub struct SigningKey {
    seed: [u8; 32],
    /// Clamped secret scalar `a` (little-endian, as an integer; not reduced
    /// mod ℓ — `mul_base` reduces it, which is exact because `B` has order
    /// ℓ).
    secret_scalar: [u8; 32],
    /// The `prefix` half of SHA-512(seed), used to derive nonces.
    prefix: [u8; 32],
    verifying: VerifyingKey,
}

impl SigningKey {
    /// Derives a key pair from a seed (RFC 8032 §5.1.5).
    pub fn from_seed(seed: [u8; 32]) -> SigningKey {
        let mut h = Sha512::new();
        h.update(seed);
        let digest = h.finalize().into_bytes();

        let mut secret_scalar = [0u8; 32];
        secret_scalar.copy_from_slice(&digest[..32]);
        secret_scalar[0] &= 248;
        secret_scalar[31] &= 127;
        secret_scalar[31] |= 64;

        let mut prefix = [0u8; 32];
        prefix.copy_from_slice(&digest[32..]);

        let public_point = EdwardsPoint::mul_base(&secret_scalar);
        let verifying = VerifyingKey {
            compressed: public_point.compress(),
        };

        SigningKey {
            seed,
            secret_scalar,
            prefix,
            verifying,
        }
    }

    /// The seed this key was derived from.
    pub const fn seed(&self) -> &[u8; 32] {
        &self.seed
    }

    /// The corresponding public key.
    pub const fn verifying_key(&self) -> VerifyingKey {
        self.verifying
    }

    /// Signs `message` (RFC 8032 §5.1.6, deterministic).
    pub fn sign(&self, message: &[u8]) -> Signature {
        let r = {
            let mut h = Sha512::new();
            h.update(self.prefix);
            h.update(message);
            Scalar::from_bytes_wide(h.finalize().as_bytes())
        };
        let r_point = EdwardsPoint::mul_base(&r.to_bytes());
        let r_bytes = r_point.compress();

        let k = challenge_scalar(&r_bytes, &self.verifying.compressed, message);
        let a = Scalar::from_bytes_mod_order(&self.secret_scalar);
        let s = k.mul_add(&a, &r);

        Signature {
            r_bytes,
            s_bytes: s.to_bytes(),
        }
    }
}

impl fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print secret material.
        write!(f, "SigningKey(public = {})", self.verifying.to_hex())
    }
}

/// `k = SHA-512(R ‖ A ‖ M) mod ℓ`.
fn challenge_scalar(r_bytes: &[u8; 32], a_bytes: &[u8; 32], message: &[u8]) -> Scalar {
    let mut h = Sha512::new();
    h.update(r_bytes);
    h.update(a_bytes);
    h.update(message);
    Scalar::from_bytes_wide(h.finalize().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use proptest::prelude::*;

    fn seed(hexstr: &str) -> [u8; 32] {
        hex::decode_array::<32>(hexstr).unwrap()
    }

    // RFC 8032 §7.1 TEST 1
    #[test]
    fn rfc8032_test_1_empty_message() {
        let key = SigningKey::from_seed(seed(
            "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
        ));
        assert_eq!(
            key.verifying_key().to_hex(),
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"
        );
        let sig = key.sign(b"");
        assert_eq!(
            sig.to_hex(),
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155\
5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
        );
        key.verifying_key().verify(b"", &sig).unwrap();
    }

    // RFC 8032 §7.1 TEST 2
    #[test]
    fn rfc8032_test_2_one_byte() {
        let key = SigningKey::from_seed(seed(
            "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
        ));
        assert_eq!(
            key.verifying_key().to_hex(),
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c"
        );
        let msg = [0x72u8];
        let sig = key.sign(&msg);
        assert_eq!(
            sig.to_hex(),
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da\
085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"
        );
        key.verifying_key().verify(&msg, &sig).unwrap();
    }

    // RFC 8032 §7.1 TEST 3
    #[test]
    fn rfc8032_test_3_two_bytes() {
        let key = SigningKey::from_seed(seed(
            "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
        ));
        assert_eq!(
            key.verifying_key().to_hex(),
            "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025"
        );
        let msg = [0xafu8, 0x82];
        let sig = key.sign(&msg);
        assert_eq!(
            sig.to_hex(),
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac\
18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"
        );
        key.verifying_key().verify(&msg, &sig).unwrap();
    }

    #[test]
    fn tampered_message_rejected() {
        let key = SigningKey::from_seed([9u8; 32]);
        let sig = key.sign(b"original");
        assert_eq!(
            key.verifying_key().verify(b"altered", &sig),
            Err(SignatureError::VerificationFailed)
        );
    }

    #[test]
    fn tampered_signature_rejected() {
        let key = SigningKey::from_seed([10u8; 32]);
        let sig = key.sign(b"message");
        let mut bytes = sig.to_bytes();
        bytes[0] ^= 0x01;
        let bad = Signature::from_bytes(&bytes);
        assert!(key.verifying_key().verify(b"message", &bad).is_err());
    }

    #[test]
    fn wrong_key_rejected() {
        let key1 = SigningKey::from_seed([11u8; 32]);
        let key2 = SigningKey::from_seed([12u8; 32]);
        let sig = key1.sign(b"message");
        assert!(key2.verifying_key().verify(b"message", &sig).is_err());
    }

    #[test]
    fn non_canonical_s_rejected() {
        let key = SigningKey::from_seed([13u8; 32]);
        let sig = key.sign(b"message");
        let mut bytes = sig.to_bytes();
        // Force s >= ℓ by setting the top byte to 0xff.
        bytes[63] = 0xff;
        let bad = Signature::from_bytes(&bytes);
        assert_eq!(
            key.verifying_key().verify(b"message", &bad),
            Err(SignatureError::NonCanonicalScalar)
        );
    }

    #[test]
    fn signatures_deterministic() {
        let key = SigningKey::from_seed([14u8; 32]);
        assert_eq!(key.sign(b"abc").to_bytes(), key.sign(b"abc").to_bytes());
    }

    #[test]
    fn different_seeds_different_keys() {
        let a = SigningKey::from_seed([1u8; 32]);
        let b = SigningKey::from_seed([2u8; 32]);
        assert_ne!(a.verifying_key(), b.verifying_key());
    }

    #[test]
    fn sign_verify_various_lengths() {
        let key = SigningKey::from_seed([21u8; 32]);
        for len in [0usize, 1, 31, 32, 33, 63, 64, 65, 127, 128, 300] {
            let msg: Vec<u8> = (0..len).map(|i| (i * 31 % 256) as u8).collect();
            let sig = key.sign(&msg);
            key.verifying_key()
                .verify(&msg, &sig)
                .unwrap_or_else(|e| panic!("len {len}: {e}"));
        }
    }

    #[test]
    fn debug_never_leaks_secret() {
        let key = SigningKey::from_seed([3u8; 32]);
        let rendered = format!("{key:?}");
        assert!(!rendered.contains(&hex::encode([3u8; 32])));
        assert!(rendered.contains(&key.verifying_key().to_hex()));
    }

    /// RFC 8032 §7.1 TEST 1 (empty message): `A`, `R` and `s`.
    const RFC1_A: &str = "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a";
    const RFC1_R: &str = "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155";
    const RFC1_S: &str = "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b";

    /// The eight small-order points: identity, order 2, two of order 4 and
    /// four of order 8.
    const SMALL_ORDER: [&str; 8] = [
        "0100000000000000000000000000000000000000000000000000000000000000",
        "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
        "0000000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000080",
        "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
        "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa",
        "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
        "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85",
    ];

    const ZERO_S: &str = "0000000000000000000000000000000000000000000000000000000000000000";

    #[test]
    fn small_order_encodings_are_the_eight_torsion_points() {
        let points: Vec<EdwardsPoint> = SMALL_ORDER
            .iter()
            .map(|h| EdwardsPoint::decompress(&hex::decode_array::<32>(h).unwrap()).unwrap())
            .collect();
        for (i, p) in points.iter().enumerate() {
            assert!(p.double().double().double().is_identity(), "{i}");
            assert!(points[..i].iter().all(|q| q != p), "{i} repeats");
        }
    }

    /// `verify` over raw `(A, R, s)` encodings, bypassing the key check in
    /// [`VerifyingKey::from_bytes`].
    fn verify_raw(a: &str, r: &str, s: &str, msg: &[u8]) -> Result<(), SignatureError> {
        let key = VerifyingKey {
            compressed: hex::decode_array::<32>(a).unwrap(),
        };
        let signature = Signature {
            r_bytes: hex::decode_array::<32>(r).unwrap(),
            s_bytes: hex::decode_array::<32>(s).unwrap(),
        };
        key.verify(msg, &signature)
    }

    /// Verdicts at the edges of the verification rule: small-order points
    /// as `A` and as `R`, non-canonical `y`, negative zero, `s` at and past
    /// ℓ, a negated key, and which error wins when several apply. The
    /// expected results were produced by the bit-at-a-time double-and-add
    /// implementation the wNAF path replaced. Every anchor must reach the
    /// same verdict on every input, or old and new nodes disagree on chain
    /// validity.
    #[test]
    fn verdict_table() {
        check_verdict_table("table");
    }

    /// Asserts every [`verdict_table`] row, and that `from_bytes` rejects
    /// exactly the rows whose key `verify` rejects. `pass` names the run.
    fn check_verdict_table(pass: &str) {
        use SignatureError::*;
        const MSG: &[u8] = b"selective deletion verdict";
        let y_p = "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f";
        let y_p1 = "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f";
        let neg_zero = "0100000000000000000000000000000000000000000000000000000000000080";
        let l_minus_1 = "ecd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010";
        let l = "edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010";
        let two_253 = "0000000000000000000000000000000000000000000000000000000000000020";
        let rfc1_a_negated = "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707519a";
        let [o1, o2, o4a, o4b, o8a, o8b, o8c, o8d] = SMALL_ORDER;

        type Case<'a> = (
            &'a str,
            &'a str,
            &'a str,
            &'a [u8],
            Result<(), SignatureError>,
        );
        let cases: [Case; 26] = [
            (RFC1_A, RFC1_R, RFC1_S, b"", Ok(())),
            (rfc1_a_negated, RFC1_R, RFC1_S, b"", Err(VerificationFailed)),
            (RFC1_A, RFC1_R, l_minus_1, b"", Err(VerificationFailed)),
            (RFC1_A, RFC1_R, l, b"", Err(NonCanonicalScalar)),
            (RFC1_A, RFC1_R, two_253, b"", Err(NonCanonicalScalar)),
            // Small-order A, identity R, s = 0: holds iff [k]A is the
            // identity (k is hashed over A, so it differs per row).
            (o1, o1, ZERO_S, MSG, Ok(())),
            (o2, o1, ZERO_S, MSG, Ok(())),
            (o4a, o1, ZERO_S, MSG, Ok(())),
            (o4b, o1, ZERO_S, MSG, Err(VerificationFailed)),
            (o8a, o1, ZERO_S, MSG, Err(VerificationFailed)),
            (o8b, o1, ZERO_S, MSG, Err(VerificationFailed)),
            (o8c, o1, ZERO_S, MSG, Err(VerificationFailed)),
            (o8d, o1, ZERO_S, MSG, Err(VerificationFailed)),
            // Order-8 A, small-order R, s = 0: holds iff R = −[k]A.
            (o8a, o2, ZERO_S, MSG, Err(VerificationFailed)),
            (o8a, o4a, ZERO_S, MSG, Err(VerificationFailed)),
            (o8a, o4b, ZERO_S, MSG, Err(VerificationFailed)),
            (o8a, o8a, ZERO_S, MSG, Err(VerificationFailed)),
            (o8a, o8b, ZERO_S, MSG, Err(VerificationFailed)),
            (o8a, o8c, ZERO_S, MSG, Err(VerificationFailed)),
            (o8a, o8d, ZERO_S, MSG, Err(VerificationFailed)),
            (y_p, RFC1_R, RFC1_S, b"", Err(InvalidPublicKey)),
            (RFC1_A, y_p1, RFC1_S, b"", Err(InvalidSignaturePoint)),
            (neg_zero, RFC1_R, RFC1_S, b"", Err(InvalidPublicKey)),
            (RFC1_A, neg_zero, RFC1_S, b"", Err(InvalidSignaturePoint)),
            (y_p, neg_zero, l, b"", Err(InvalidPublicKey)),
            (RFC1_A, neg_zero, l, b"", Err(InvalidSignaturePoint)),
        ];
        for (i, (a, r, s, msg, expected)) in cases.into_iter().enumerate() {
            assert_eq!(verify_raw(a, r, s, msg), expected, "{pass} case {i}");
            let a = VerifyingKey::from_bytes(&hex::decode_array::<32>(a).unwrap());
            assert_eq!(
                a.err() == Some(InvalidPublicKey),
                expected == Err(InvalidPublicKey),
                "{pass} case {i}: from_bytes"
            );
        }
    }

    /// RFC 8032 §7.1 TESTS 1–3: public key, message and signature.
    const RFC_VECTORS: [(&str, &[u8], &str); 3] = [
        (
            RFC1_A,
            b"",
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155\
             5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b",
        ),
        (
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
            &[0x72],
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da\
             085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00",
        ),
        (
            "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
            &[0xaf, 0x82],
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac\
             18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a",
        ),
    ];

    /// Asserts each RFC 8032 vector parses and verifies, and fails on a
    /// message one byte longer. `pass` names the run.
    fn check_rfc_vectors(pass: &str) {
        for (i, (a, msg, sig)) in RFC_VECTORS.into_iter().enumerate() {
            let key = VerifyingKey::from_bytes(&hex::decode_array::<32>(a).unwrap())
                .unwrap_or_else(|e| panic!("{pass} vector {i}: {e}"));
            let sig = Signature::from_bytes(&hex::decode_array::<64>(sig).unwrap());
            assert_eq!(key.verify(msg, &sig), Ok(()), "{pass} vector {i}");
            let longer = [msg, &[0]].concat();
            assert_eq!(
                key.verify(&longer, &sig),
                Err(SignatureError::VerificationFailed),
                "{pass} vector {i}: longer message"
            );
        }
    }

    /// The verdict table and the RFC 8032 vectors on an empty key table,
    /// again on the table the first pass filled, and once more after
    /// clearing it. The table is a memo: no verdict and no error changes.
    #[test]
    fn key_table_keeps_every_verdict_cold_warm_and_cleared() {
        clear_key_table();
        check_verdict_table("cold");
        check_rfc_vectors("cold");
        assert!(key_table_len() > 0);
        check_verdict_table("warm");
        check_rfc_vectors("warm");
        clear_key_table();
        check_verdict_table("cleared");
        check_rfc_vectors("cleared");
    }

    /// A key that fails to decompress is never inserted: every
    /// `from_bytes` and `verify` of it pays one full decompression again.
    #[test]
    fn invalid_key_is_never_cached() {
        clear_key_table();
        // A canonical `y` whose `x²` candidate is not a square, so the
        // rejection comes after the square root, not at the cheap checks.
        let bad = (2u8..)
            .map(|y| {
                let mut bytes = [0u8; 32];
                bytes[0] = y;
                bytes
            })
            .find(|bytes| EdwardsPoint::decompress(bytes).is_none())
            .unwrap();
        let (_, full) = field::count_field_ops(|| EdwardsPoint::decompress(&bad));
        assert!(full > 250, "{full} field ops to reject");
        let sig = Signature::from_bytes(&[0; 64]);
        for pass in 0..2 {
            let (result, ops) = field::count_field_ops(|| VerifyingKey::from_bytes(&bad));
            assert_eq!(result, Err(SignatureError::InvalidPublicKey));
            assert_eq!(ops, full, "pass {pass}: from_bytes");
            let key = VerifyingKey { compressed: bad };
            let (result, ops) = field::count_field_ops(|| key.verify(b"", &sig));
            assert_eq!(result, Err(SignatureError::InvalidPublicKey));
            assert_eq!(ops, full, "pass {pass}: verify");
        }
        assert_eq!(key_table_len(), 0);
    }

    /// Twice the capacity in distinct keys, with the verdict table run
    /// across the point where the table fills and is cleared.
    #[test]
    fn overflowing_the_key_table_keeps_every_verdict() {
        clear_key_table();
        let mut valid = 0;
        for y in 2u16.. {
            let mut bytes = [0u8; 32];
            bytes[..2].copy_from_slice(&y.to_le_bytes());
            if VerifyingKey::from_bytes(&bytes).is_ok() {
                valid += 1;
            }
            assert!(key_table_len() <= KEY_TABLE_CAPACITY);
            if valid == KEY_TABLE_CAPACITY - 3 {
                check_verdict_table("filling");
                check_rfc_vectors("filling");
                assert!(key_table_len() < KEY_TABLE_CAPACITY - 3, "never cleared");
            }
            if valid == 2 * KEY_TABLE_CAPACITY {
                break;
            }
        }
        check_verdict_table("overflowed");
        check_rfc_vectors("overflowed");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// `A = [x]B + T_i` and `R = [y]B + T_j` with small-order `T_i`,
        /// `T_j`, and `s = k·x + y`, so the prime-order parts always cancel
        /// and the verdict turns on the torsion alone. `verify` must agree
        /// with the two-multiplication equation `[s]B == R + [k]A`.
        #[test]
        fn verify_agrees_with_double_and_add_equation(
            x in any::<[u8; 64]>(),
            y in any::<[u8; 64]>(),
            torsion in (0usize..8, 0usize..8),
            msg in proptest::collection::vec(any::<u8>(), 0..32),
        ) {
            let small_order = |i: usize| {
                EdwardsPoint::decompress(&hex::decode_array::<32>(SMALL_ORDER[i]).unwrap()).unwrap()
            };
            let (x, y) = (Scalar::from_bytes_wide(&x), Scalar::from_bytes_wide(&y));
            let a = EdwardsPoint::mul_base(&x.to_bytes()).add(&small_order(torsion.0));
            let r = EdwardsPoint::mul_base(&y.to_bytes()).add(&small_order(torsion.1));
            let (a_bytes, r_bytes) = (a.compress(), r.compress());
            let k = challenge_scalar(&r_bytes, &a_bytes, &msg);
            let s = k.mul_add(&x, &y);

            let equation_holds = EdwardsPoint::basepoint().scalar_mul(&s.to_bytes())
                == EdwardsPoint::decompress(&r_bytes)
                    .unwrap()
                    .add(&EdwardsPoint::decompress(&a_bytes).unwrap().scalar_mul(&k.to_bytes()));
            let key = VerifyingKey { compressed: a_bytes };
            let signature = Signature { r_bytes, s_bytes: s.to_bytes() };
            let expected = if equation_holds { Ok(()) } else { Err(SignatureError::VerificationFailed) };
            prop_assert_eq!(key.verify(&msg, &signature), expected);
        }
    }

    /// Field multiplications and squarings in one `verify` of RFC 8032
    /// TEST 1, with `A` not yet in the key table (cold) and already in it
    /// (warm), and in a warm `from_bytes` of the same key.
    ///
    /// The bit-at-a-time double-and-add implementation that the wNAF path
    /// replaced counted 8 050 on the same input: two full scalar
    /// multiplications plus square-and-multiply exponentiations. A cold
    /// Straus/wNAF verify with addition-chain square roots counts 3 247
    /// (0.40×): two decompressions, the table for `−A` and the equation
    /// check. A warm verify skips `A`'s decompression and table build, and
    /// a warm `from_bytes` does no field arithmetic at all. The test pins
    /// the exact counts, so a decompression added back on the decode or
    /// verify path fails on any host however noisy.
    #[test]
    fn verify_field_op_count() {
        const DOUBLE_AND_ADD_FIELD_OPS: u64 = 8_050;
        const COLD_VERIFY_FIELD_OPS: u64 = 3_247;
        const WARM_VERIFY_FIELD_OPS: u64 = 2_901;
        let a_bytes = hex::decode_array::<32>(RFC1_A).unwrap();
        let key = VerifyingKey::from_bytes(&a_bytes).unwrap();
        let sig = hex::decode_array::<64>(&format!("{RFC1_R}{RFC1_S}")).unwrap();
        let sig = Signature::from_bytes(&sig);
        // Build the base-point table outside the counted calls.
        key.verify(b"", &sig).unwrap();
        clear_key_table();

        let (result, cold) = field::count_field_ops(|| key.verify(b"", &sig));
        result.unwrap();
        let (result, warm) = field::count_field_ops(|| key.verify(b"", &sig));
        result.unwrap();
        let (result, decode) = field::count_field_ops(|| VerifyingKey::from_bytes(&a_bytes));
        assert_eq!(result, Ok(key));
        assert!(
            cold * 100 <= DOUBLE_AND_ADD_FIELD_OPS * 45,
            "{cold} field ops per verify"
        );
        assert_eq!(cold, COLD_VERIFY_FIELD_OPS);
        assert_eq!(warm, WARM_VERIFY_FIELD_OPS);
        assert_eq!(decode, 0);
    }

    #[test]
    fn invalid_public_key_encoding_rejected() {
        // y = p (non-canonical) is rejected by decompression.
        let mut bytes = [0xffu8; 32];
        bytes[0] = 0xed;
        bytes[31] = 0x7f;
        assert_eq!(
            VerifyingKey::from_bytes(&bytes),
            Err(SignatureError::InvalidPublicKey)
        );
    }
}
