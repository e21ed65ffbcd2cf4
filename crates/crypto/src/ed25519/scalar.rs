//! Arithmetic modulo the Ed25519 group order
//! ℓ = 2^252 + 27742317777372353535851937790883648493.

use std::fmt;

use crate::bigint::{add_512, ge_512, mod_512, mul_256, U256, U512};

/// ℓ as little-endian bytes.
#[cfg(test)]
pub(crate) const L_BYTES: [u8; 32] = [
    0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10,
];

/// ℓ as little-endian `u64` limbs (low 4 limbs of a [`U512`]).
const L_LIMBS: U256 = [
    0x5812631a5cf5d3ed,
    0x14def9dea2f79cd6,
    0x0000000000000000,
    0x1000000000000000,
];

fn l_512() -> U512 {
    let mut out = [0u64; 8];
    out[..4].copy_from_slice(&L_LIMBS);
    out
}

/// A scalar reduced modulo ℓ.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct Scalar(pub(crate) U256);

impl fmt::Debug for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Scalar({})", crate::hex::encode(self.to_bytes()))
    }
}

impl Scalar {
    /// Reduces a 64-byte little-endian integer modulo ℓ (used for the SHA-512
    /// outputs `r` and `k` in RFC 8032).
    pub(crate) fn from_bytes_wide(bytes: &[u8; 64]) -> Scalar {
        let mut wide = [0u64; 8];
        for (i, chunk) in bytes.chunks_exact(8).enumerate() {
            let mut w = [0u8; 8];
            w.copy_from_slice(chunk);
            wide[i] = u64::from_le_bytes(w);
        }
        let reduced = mod_512(&wide, &l_512());
        Scalar([reduced[0], reduced[1], reduced[2], reduced[3]])
    }

    /// Parses a canonical 32-byte scalar; returns `None` when the value is
    /// `>= ℓ` (RFC 8032 requires rejecting such signatures).
    pub(crate) fn from_canonical_bytes(bytes: &[u8; 32]) -> Option<Scalar> {
        let mut limbs = [0u64; 4];
        for (i, chunk) in bytes.chunks_exact(8).enumerate() {
            let mut w = [0u8; 8];
            w.copy_from_slice(chunk);
            limbs[i] = u64::from_le_bytes(w);
        }
        let mut wide = [0u64; 8];
        wide[..4].copy_from_slice(&limbs);
        if ge_512(&wide, &l_512()) {
            return None;
        }
        Some(Scalar(limbs))
    }

    /// Reduces a 32-byte little-endian integer modulo ℓ (accepts
    /// non-canonical input, e.g. the clamped secret scalar).
    pub(crate) fn from_bytes_mod_order(bytes: &[u8; 32]) -> Scalar {
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(bytes);
        Scalar::from_bytes_wide(&wide)
    }

    /// Canonical little-endian encoding.
    pub(crate) fn to_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, limb) in self.0.iter().enumerate() {
            out[i * 8..i * 8 + 8].copy_from_slice(&limb.to_le_bytes());
        }
        out
    }

    /// `self * b + c (mod ℓ)` — the signing equation `s = k·a + r`.
    pub(crate) fn mul_add(&self, b: &Scalar, c: &Scalar) -> Scalar {
        let prod = mul_256(&self.0, &b.0);
        let mut c_wide = [0u64; 8];
        c_wide[..4].copy_from_slice(&c.0);
        let sum = add_512(&prod, &c_wide);
        let reduced = mod_512(&sum, &l_512());
        Scalar([reduced[0], reduced[1], reduced[2], reduced[3]])
    }

    #[cfg(test)]
    pub(crate) fn is_zero(&self) -> bool {
        self.0 == [0; 4]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar_from_u64(v: u64) -> Scalar {
        Scalar([v, 0, 0, 0])
    }

    #[test]
    fn l_reduces_to_zero() {
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(&L_BYTES);
        assert!(Scalar::from_bytes_wide(&wide).is_zero());
    }

    #[test]
    fn l_plus_one_reduces_to_one() {
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(&L_BYTES);
        wide[0] += 1;
        assert_eq!(Scalar::from_bytes_wide(&wide), scalar_from_u64(1));
    }

    #[test]
    fn l_minus_one_is_canonical() {
        let mut bytes = L_BYTES;
        bytes[0] -= 1;
        assert!(Scalar::from_canonical_bytes(&bytes).is_some());
        assert!(Scalar::from_canonical_bytes(&L_BYTES).is_none());
    }

    #[test]
    fn small_values_canonical() {
        let s = Scalar::from_canonical_bytes(&scalar_from_u64(42).to_bytes()).unwrap();
        assert_eq!(s, scalar_from_u64(42));
    }

    #[test]
    fn mul_add_small() {
        // 3 * 4 + 5 = 17
        let r = scalar_from_u64(3).mul_add(&scalar_from_u64(4), &scalar_from_u64(5));
        assert_eq!(r, scalar_from_u64(17));
    }

    #[test]
    fn mul_add_wraps_mod_l() {
        // (ℓ - 1) * 1 + 2 == 1 (mod ℓ)
        let mut bytes = L_BYTES;
        bytes[0] -= 1;
        let lm1 = Scalar::from_canonical_bytes(&bytes).unwrap();
        let r = lm1.mul_add(&scalar_from_u64(1), &scalar_from_u64(2));
        assert_eq!(r, scalar_from_u64(1));
    }

    #[test]
    fn max_wide_input_reduces() {
        let wide = [0xffu8; 64];
        let s = Scalar::from_bytes_wide(&wide);
        // Result must be canonical.
        assert!(Scalar::from_canonical_bytes(&s.to_bytes()).is_some());
    }

    #[test]
    fn round_trip_bytes() {
        let s = scalar_from_u64(0xdead_beef_cafe_f00d);
        assert_eq!(Scalar::from_canonical_bytes(&s.to_bytes()), Some(s));
    }

    #[test]
    fn from_bytes_mod_order_accepts_clamped_secrets() {
        // A clamped secret has bit 254 set, so it exceeds ℓ; reduction must
        // still produce a canonical scalar with the same value mod ℓ.
        let mut clamped = [0xffu8; 32];
        clamped[0] &= 248;
        clamped[31] &= 127;
        clamped[31] |= 64;
        let s = Scalar::from_bytes_mod_order(&clamped);
        assert!(Scalar::from_canonical_bytes(&s.to_bytes()).is_some());
    }
}
