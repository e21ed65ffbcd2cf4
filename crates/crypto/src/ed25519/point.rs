//! Twisted Edwards curve points for edwards25519 in extended homogeneous
//! coordinates `(X : Y : Z : T)` with `x = X/Z`, `y = Y/Z`, `xy = T/Z`.
//!
//! Scalar multiplication uses width-`w` non-adjacent forms (wNAF): a
//! caller-built [`VarTable`] of 8 odd multiples for a variable point
//! (`w = 5`) and a table of 64 odd multiples of `B` built once (`w = 8`).
//! `[a]P + [b]B` shares one doubling chain between both scalars (Straus
//! interleaving). Which table entries are read depends on the scalar's
//! digits, so every path here is variable-time.

use std::fmt;
use std::sync::OnceLock;

use super::field::FieldElement;
use super::scalar::Scalar;

/// Curve constant `d = -121665/121666 (mod p)`.
const D: FieldElement = FieldElement::from_bytes(&[
    0xa3, 0x78, 0x59, 0x13, 0xca, 0x4d, 0xeb, 0x75, 0xab, 0xd8, 0x41, 0x41, 0x4d, 0x0a, 0x70, 0x00,
    0x98, 0xe8, 0x79, 0x77, 0x79, 0x40, 0xc7, 0x8c, 0x73, 0xfe, 0x6f, 0x2b, 0xee, 0x6c, 0x03, 0x52,
]);

/// `2d (mod p)`.
const D2: FieldElement = FieldElement::from_bytes(&[
    0x59, 0xf1, 0xb2, 0x26, 0x94, 0x9b, 0xd6, 0xeb, 0x56, 0xb1, 0x83, 0x82, 0x9a, 0x14, 0xe0, 0x00,
    0x30, 0xd1, 0xf3, 0xee, 0xf2, 0x80, 0x8e, 0x19, 0xe7, 0xfc, 0xdf, 0x56, 0xdc, 0xd9, 0x06, 0x24,
]);

/// `sqrt(-1) (mod p)`.
const SQRT_M1: FieldElement = FieldElement::from_bytes(&[
    0xb0, 0xa0, 0x0e, 0x4a, 0x27, 0x1b, 0xee, 0xc4, 0x78, 0xe4, 0x2f, 0xad, 0x06, 0x18, 0x43, 0x2f,
    0xa7, 0xd7, 0xfb, 0x3d, 0x99, 0x00, 0x4d, 0x2b, 0x0b, 0xdf, 0xc1, 0x4f, 0x80, 0x24, 0x83, 0x2b,
]);

/// NAF width for a variable point: digits in ±{1, 3, …, 15}.
const VAR_WIDTH: u32 = 5;

/// NAF width for the base point: digits in ±{1, 3, …, 127}.
const BASE_WIDTH: u32 = 8;

/// Odd multiples a width-`w` digit can select: `2^(w−2)`.
const VAR_TABLE: usize = 1 << (VAR_WIDTH - 2);
const BASE_TABLE: usize = 1 << (BASE_WIDTH - 2);

/// Base point x coordinate.
const BX_BYTES: [u8; 32] = [
    0x1a, 0xd5, 0x25, 0x8f, 0x60, 0x2d, 0x56, 0xc9, 0xb2, 0xa7, 0x25, 0x95, 0x60, 0xc7, 0x2c, 0x69,
    0x5c, 0xdc, 0xd6, 0xfd, 0x31, 0xe2, 0xa4, 0xc0, 0xfe, 0x53, 0x6e, 0xcd, 0xd3, 0x36, 0x69, 0x21,
];

/// Base point y coordinate (`4/5 mod p`).
const BY_BYTES: [u8; 32] = [
    0x58, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66,
    0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66,
];

/// `[P, 3P, 5P, …, 15P]`: the odd multiples of a variable point `P` that
/// its width-5 digits index, from [`EdwardsPoint::var_table`].
pub(crate) type VarTable = [EdwardsPoint; VAR_TABLE];

/// A point on edwards25519.
#[derive(Clone, Copy)]
pub(crate) struct EdwardsPoint {
    x: FieldElement,
    y: FieldElement,
    z: FieldElement,
    t: FieldElement,
}

impl fmt::Debug for EdwardsPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "EdwardsPoint({})", crate::hex::encode(self.compress()))
    }
}

impl PartialEq for EdwardsPoint {
    fn eq(&self, other: &Self) -> bool {
        // (X1/Z1 == X2/Z2) && (Y1/Z1 == Y2/Z2) without divisions.
        let x_eq = self.x.mul(&other.z) == other.x.mul(&self.z);
        let y_eq = self.y.mul(&other.z) == other.y.mul(&self.z);
        x_eq && y_eq
    }
}

impl Eq for EdwardsPoint {}

impl EdwardsPoint {
    /// The neutral element (0, 1).
    pub(crate) fn identity() -> EdwardsPoint {
        EdwardsPoint {
            x: FieldElement::ZERO,
            y: FieldElement::ONE,
            z: FieldElement::ONE,
            t: FieldElement::ZERO,
        }
    }

    /// The standard base point `B`.
    pub(crate) fn basepoint() -> EdwardsPoint {
        let x = FieldElement::from_bytes(&BX_BYTES);
        let y = FieldElement::from_bytes(&BY_BYTES);
        EdwardsPoint {
            x,
            y,
            z: FieldElement::ONE,
            t: x.mul(&y),
        }
    }

    /// Point addition (add-2008-hwcd-3 for `a = -1`).
    pub(crate) fn add(&self, other: &EdwardsPoint) -> EdwardsPoint {
        let a = self.y.sub(&self.x).mul(&other.y.sub(&other.x));
        let b = self.y.add(&self.x).mul(&other.y.add(&other.x));
        let c = self.t.mul(&D2).mul(&other.t);
        let zz = self.z.mul(&other.z);
        let dd = zz.add(&zz);
        let e = b.sub(&a);
        let f = dd.sub(&c);
        let g = dd.add(&c);
        let h = b.add(&a);
        EdwardsPoint {
            x: e.mul(&f),
            y: g.mul(&h),
            t: e.mul(&h),
            z: f.mul(&g),
        }
    }

    /// Point doubling (dbl-2008-hwcd).
    pub(crate) fn double(&self) -> EdwardsPoint {
        let a = self.x.square();
        let b = self.y.square();
        let zz = self.z.square();
        let c = zz.add(&zz);
        let d = a.neg(); // a = -1 twist
        let e = self.x.add(&self.y).square().sub(&a).sub(&b);
        let g = d.add(&b);
        let f = g.sub(&c);
        let h = d.sub(&b);
        EdwardsPoint {
            x: e.mul(&f),
            y: g.mul(&h),
            t: e.mul(&h),
            z: f.mul(&g),
        }
    }

    /// Point negation `(−x, y)`.
    pub(crate) fn neg(&self) -> EdwardsPoint {
        EdwardsPoint {
            x: self.x.neg(),
            y: self.y,
            z: self.z,
            t: self.t.neg(),
        }
    }

    /// Bit-at-a-time double-and-add by a 256-bit little-endian integer:
    /// the oracle the wNAF paths are checked against.
    #[cfg(test)]
    pub(crate) fn scalar_mul(&self, scalar_le: &[u8; 32]) -> EdwardsPoint {
        let mut acc = EdwardsPoint::identity();
        for byte_idx in (0..32).rev() {
            for bit in (0..8).rev() {
                acc = acc.double();
                if (scalar_le[byte_idx] >> bit) & 1 == 1 {
                    acc = acc.add(self);
                }
            }
        }
        acc
    }

    /// `scalar * B` for the standard base point, for any 256-bit
    /// little-endian integer (e.g. an unreduced clamped secret). The scalar
    /// is reduced mod ℓ first, which `B`'s order ℓ makes exact.
    pub(crate) fn mul_base(scalar_le: &[u8; 32]) -> EdwardsPoint {
        let reduced = Scalar::from_bytes_mod_order(scalar_le);
        straus(&[(&naf(&reduced, BASE_WIDTH), basepoint_table())])
    }

    /// The odd multiples of `self` that
    /// [`EdwardsPoint::double_scalar_mul_base`] takes for `P`.
    pub(crate) fn var_table(&self) -> VarTable {
        odd_multiples(self)
    }

    /// `[a]P + [b]B` in one Straus pass over both scalars' wNAF digits,
    /// given `P`'s [`VarTable`].
    ///
    /// `a` multiplies `P` as an integer, so a point with a small-order
    /// component gets exactly `[a]P`, the same as double-and-add. Both
    /// scalars must be below 2^255, which every reduced [`Scalar`] is.
    pub(crate) fn double_scalar_mul_base(
        a: &Scalar,
        p_table: &VarTable,
        b: &Scalar,
    ) -> EdwardsPoint {
        straus(&[
            (&naf(a, VAR_WIDTH), p_table),
            (&naf(b, BASE_WIDTH), basepoint_table()),
        ])
    }

    /// Compresses to the 32-byte RFC 8032 encoding: the `y` coordinate with
    /// the sign of `x` in bit 255.
    pub(crate) fn compress(&self) -> [u8; 32] {
        let zinv = self.z.invert();
        let x = self.x.mul(&zinv);
        let y = self.y.mul(&zinv);
        let mut out = y.to_bytes();
        if x.is_negative() {
            out[31] |= 0x80;
        }
        out
    }

    /// Decompresses an RFC 8032 point encoding.
    ///
    /// Returns `None` for non-canonical `y`, a non-square `x²` candidate, or
    /// the invalid "negative zero" encoding.
    pub(crate) fn decompress(bytes: &[u8; 32]) -> Option<EdwardsPoint> {
        if !FieldElement::is_canonical_encoding(bytes) {
            return None;
        }
        let sign = (bytes[31] >> 7) & 1;
        let y = FieldElement::from_bytes(bytes); // bit 255 ignored by loader
        let yy = y.square();
        let u = yy.sub(&FieldElement::ONE);
        let v = D.mul(&yy).add(&FieldElement::ONE);

        // x = u v^3 (u v^7)^((p-5)/8)
        let v3 = v.square().mul(&v);
        let v7 = v3.square().mul(&v);
        let mut x = u.mul(&v3).mul(&u.mul(&v7).pow_p58());

        let vxx = v.mul(&x.square());
        if vxx == u {
            // ok
        } else if vxx == u.neg() {
            x = x.mul(&SQRT_M1);
        } else {
            return None;
        }

        if x.is_zero() && sign == 1 {
            return None;
        }
        if x.is_negative() != (sign == 1) {
            x = x.neg();
        }
        Some(EdwardsPoint {
            x,
            y,
            z: FieldElement::ONE,
            t: x.mul(&y),
        })
    }

    /// Whether the point satisfies the curve equation (test invariant)
    /// `-x² + y² = 1 + d·x²·y²` and the extended-coordinate invariant.
    #[cfg(test)]
    pub(crate) fn is_on_curve(&self) -> bool {
        let zinv = self.z.invert();
        let x = self.x.mul(&zinv);
        let y = self.y.mul(&zinv);
        let xx = x.square();
        let yy = y.square();
        let lhs = yy.sub(&xx);
        let rhs = FieldElement::ONE.add(&D.mul(&xx).mul(&yy));
        let t_ok = self.t.mul(&self.z) == self.x.mul(&self.y);
        lhs == rhs && t_ok
    }

    #[cfg(test)]
    pub(crate) fn is_identity(&self) -> bool {
        *self == EdwardsPoint::identity()
    }
}

/// `[P, 3P, 5P, …, (2N − 1)P]`, the points a wNAF digit indexes
/// (`|d| / 2`).
fn odd_multiples<const N: usize>(p: &EdwardsPoint) -> [EdwardsPoint; N] {
    let p2 = p.double();
    let mut table = [*p; N];
    for i in 1..N {
        table[i] = table[i - 1].add(&p2);
    }
    table
}

/// The odd multiples `B, 3B, …, 127B` for [`BASE_WIDTH`], built on first
/// use and shared by every thread.
fn basepoint_table() -> &'static [EdwardsPoint; BASE_TABLE] {
    static TABLE: OnceLock<[EdwardsPoint; BASE_TABLE]> = OnceLock::new();
    TABLE.get_or_init(|| odd_multiples(&EdwardsPoint::basepoint()))
}

/// Width-`w` non-adjacent form of a scalar below 2^255.
///
/// Digit `d_i` is zero or odd with `|d_i| < 2^(w−1)`, at least `w − 1`
/// zeros separate two nonzero digits, and `Σ d_i·2^i` is the scalar. Below
/// 2^255 the last carry lands at position 255 at the latest, so 256
/// digits always suffice.
fn naf(scalar: &Scalar, w: u32) -> [i8; 256] {
    debug_assert!((2..=8).contains(&w));
    debug_assert!(scalar.0[3] >> 63 == 0, "wNAF input must be below 2^255");
    // A spare zero word lets the window at the top read past bit 255.
    let mut words = [0u64; 5];
    words[..4].copy_from_slice(&scalar.0);
    let width = 1u64 << w;
    let w = w as usize;

    let mut digits = [0i8; 256];
    let mut carry = 0;
    let mut pos = 0;
    while pos < 256 {
        let (idx, bit) = (pos / 64, pos % 64);
        let mut bits = words[idx] >> bit;
        if bit + w > 64 {
            bits |= words[idx + 1] << (64 - bit);
        }
        let window = carry + (bits & (width - 1));
        if window & 1 == 0 {
            // An even window emits 0; a pending carry still propagates
            // (the bit here was 1, so 1 + 1 carries on to `pos + 1`).
            pos += 1;
            continue;
        }
        if window < width / 2 {
            carry = 0;
            digits[pos] = window as i8;
        } else {
            carry = 1;
            digits[pos] = (window as i64 - width as i64) as i8;
        }
        pos += w;
    }
    digits
}

/// `Σ [n_j]P_j` by Straus interleaving: one doubling chain shared by every
/// term, where a term is the wNAF digits of `n_j` and the odd multiples of
/// `P_j` they index. The chain starts at the highest nonzero digit.
fn straus(terms: &[(&[i8; 256], &[EdwardsPoint])]) -> EdwardsPoint {
    let mut acc = EdwardsPoint::identity();
    let top = terms
        .iter()
        .filter_map(|(digits, _)| digits.iter().rposition(|&d| d != 0))
        .max();
    let Some(top) = top else {
        return acc;
    };
    for pos in (0..=top).rev() {
        if pos != top {
            acc = acc.double();
        }
        for (digits, table) in terms {
            let d = digits[pos];
            if d > 0 {
                acc = acc.add(&table[d as usize / 2]);
            } else if d < 0 {
                acc = acc.add(&table[d.unsigned_abs() as usize / 2].neg());
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn scalar_le(n: u64) -> [u8; 32] {
        let mut out = [0u8; 32];
        out[..8].copy_from_slice(&n.to_le_bytes());
        out
    }

    #[test]
    fn basepoint_on_curve() {
        assert!(EdwardsPoint::basepoint().is_on_curve());
    }

    #[test]
    fn identity_on_curve() {
        assert!(EdwardsPoint::identity().is_on_curve());
        assert!(EdwardsPoint::identity().is_identity());
    }

    #[test]
    fn add_identity_is_noop() {
        let b = EdwardsPoint::basepoint();
        assert_eq!(b.add(&EdwardsPoint::identity()), b);
        assert_eq!(EdwardsPoint::identity().add(&b), b);
    }

    #[test]
    fn double_equals_add_self() {
        let b = EdwardsPoint::basepoint();
        assert_eq!(b.double(), b.add(&b));
        let b4 = b.double().double();
        assert_eq!(b4, b.add(&b).add(&b).add(&b));
        assert!(b4.is_on_curve());
    }

    #[test]
    fn add_commutative() {
        let b = EdwardsPoint::basepoint();
        let b2 = b.double();
        assert_eq!(b.add(&b2), b2.add(&b));
    }

    #[test]
    fn neg_cancels() {
        let b = EdwardsPoint::basepoint();
        assert!(b.add(&b.neg()).is_identity());
    }

    #[test]
    fn scalar_mul_small_values() {
        let b = EdwardsPoint::basepoint();
        assert!(b.scalar_mul(&scalar_le(0)).is_identity());
        assert_eq!(b.scalar_mul(&scalar_le(1)), b);
        assert_eq!(b.scalar_mul(&scalar_le(2)), b.double());
        assert_eq!(b.scalar_mul(&scalar_le(5)), b.double().double().add(&b));
    }

    #[test]
    fn scalar_mul_distributes() {
        // (3 + 4)B == 3B + 4B
        let b = EdwardsPoint::basepoint();
        let lhs = b.scalar_mul(&scalar_le(7));
        let rhs = b
            .scalar_mul(&scalar_le(3))
            .add(&b.scalar_mul(&scalar_le(4)));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn order_l_times_base_is_identity() {
        let l = super::super::scalar::L_BYTES;
        assert!(EdwardsPoint::mul_base(&l).is_identity());
    }

    #[test]
    fn compress_decompress_round_trip() {
        for n in [1u64, 2, 3, 42, 987654321] {
            let p = EdwardsPoint::mul_base(&scalar_le(n));
            let bytes = p.compress();
            let q = EdwardsPoint::decompress(&bytes).expect("valid encoding");
            assert_eq!(p, q);
            assert!(q.is_on_curve());
        }
    }

    #[test]
    fn basepoint_compresses_to_known_bytes() {
        // The standard encoding of B: y = 4/5, sign(x) = 0.
        let expected_hex = "5866666666666666666666666666666666666666666666666666666666666666";
        assert_eq!(
            crate::hex::encode(EdwardsPoint::basepoint().compress()),
            expected_hex
        );
    }

    #[test]
    fn decompress_rejects_non_canonical_y() {
        // y = p (non-canonical encoding of 0)
        let mut bytes = [0xffu8; 32];
        bytes[0] = 0xed;
        bytes[31] = 0x7f;
        assert!(EdwardsPoint::decompress(&bytes).is_none());
    }

    #[test]
    fn decompress_rejects_negative_zero() {
        // y = 1 => x = 0; sign bit set must be rejected.
        let mut bytes = [0u8; 32];
        bytes[0] = 1;
        bytes[31] = 0x80;
        assert!(EdwardsPoint::decompress(&bytes).is_none());
    }

    #[test]
    fn decompress_rejects_off_curve_y() {
        // y = 2 gives x^2 = (4-1)/(4d+1); check whether the implementation
        // accepts only actual squares. If it decompresses, the point must lie
        // on the curve; scan a few ys and assert consistency.
        let mut rejected = 0;
        for y in 2u8..20 {
            let mut bytes = [0u8; 32];
            bytes[0] = y;
            match EdwardsPoint::decompress(&bytes) {
                Some(p) => assert!(p.is_on_curve(), "y={y} decompressed off-curve"),
                None => rejected += 1,
            }
        }
        assert!(rejected > 0, "expected at least one non-square candidate");
    }

    /// A 256-bit little-endian integer as scalar limbs, without reduction.
    fn raw_scalar(bytes: &[u8; 32]) -> Scalar {
        Scalar(std::array::from_fn(|i| {
            u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().expect("8 bytes"))
        }))
    }

    fn clamped(mut bytes: [u8; 32]) -> [u8; 32] {
        bytes[0] &= 248;
        bytes[31] &= 127;
        bytes[31] |= 64;
        bytes
    }

    /// Scalars at the edges of the wNAF paths: 0, 1, ℓ − 1, ℓ, 2^255 − 1
    /// and a clamped secret (bit 254 set, above ℓ).
    fn edge_scalars() -> Vec<[u8; 32]> {
        let l = super::super::scalar::L_BYTES;
        let mut l_minus_1 = l;
        l_minus_1[0] -= 1;
        let mut max_255 = [0xff; 32];
        max_255[31] = 0x7f;
        vec![
            scalar_le(0),
            scalar_le(1),
            l_minus_1,
            l,
            max_255,
            clamped([0xff; 32]),
        ]
    }

    /// A curve point from arbitrary bytes: the decompressed point when they
    /// encode one (usually with a small-order component), else a multiple
    /// of `B`.
    fn point_from(bytes: &[u8; 32]) -> EdwardsPoint {
        EdwardsPoint::decompress(bytes)
            .unwrap_or_else(|| EdwardsPoint::basepoint().scalar_mul(bytes))
    }

    fn double_scalar_oracle(a: &Scalar, p: &EdwardsPoint, b: &Scalar) -> EdwardsPoint {
        p.scalar_mul(&a.to_bytes())
            .add(&EdwardsPoint::basepoint().scalar_mul(&b.to_bytes()))
    }

    /// Asserts the wNAF digit rules and that the digits reconstruct `scalar`.
    fn check_naf(scalar: &Scalar, w: u32) {
        use crate::bigint::{add_512, shl_512, sub_512};
        let digits = naf(scalar, w);
        let (mut pos, mut neg) = ([0u64; 8], [0u64; 8]);
        let mut last_nonzero: Option<usize> = None;
        for (i, &d) in digits.iter().enumerate().filter(|(_, d)| **d != 0) {
            assert_eq!(d.unsigned_abs() % 2, 1, "w={w}: even digit {d} at {i}");
            assert!(d.unsigned_abs() < 1 << (w - 1), "w={w}: digit {d} at {i}");
            if let Some(prev) = last_nonzero {
                assert!(i - prev >= w as usize, "w={w}: digits at {prev} and {i}");
            }
            last_nonzero = Some(i);
            let mut term = [0u64; 8];
            term[0] = u64::from(d.unsigned_abs());
            let term = shl_512(&term, i);
            if d > 0 {
                pos = add_512(&pos, &term);
            } else {
                neg = add_512(&neg, &term);
            }
        }
        let value = sub_512(&pos, &neg);
        assert_eq!(value[..4], scalar.0, "w={w}: digits do not reconstruct");
        assert_eq!(value[4..], [0; 4]);
    }

    #[test]
    fn naf_edge_scalars() {
        for bytes in edge_scalars() {
            for w in 2..=8 {
                check_naf(&raw_scalar(&bytes), w);
            }
        }
    }

    #[test]
    fn mul_base_matches_oracle_on_edge_scalars() {
        let mut scalars = edge_scalars();
        scalars.push([0xff; 32]); // 2^256 − 1: mul_base reduces first
        for bytes in scalars {
            assert_eq!(
                EdwardsPoint::mul_base(&bytes),
                EdwardsPoint::basepoint().scalar_mul(&bytes),
                "{}",
                crate::hex::encode(bytes)
            );
        }
    }

    #[test]
    fn double_scalar_mul_base_matches_oracle_on_edge_scalars() {
        let p = point_from(&[0x42; 32]);
        let p_table = p.var_table();
        for a in edge_scalars() {
            for b in edge_scalars() {
                let (a, b) = (raw_scalar(&a), raw_scalar(&b));
                assert_eq!(
                    EdwardsPoint::double_scalar_mul_base(&a, &p_table, &b),
                    double_scalar_oracle(&a, &p, &b),
                    "a={a:?} b={b:?}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn naf_properties(bytes in any::<[u8; 32]>(), w in 2u32..9) {
            let mut bytes = bytes;
            bytes[31] &= 0x7f;
            check_naf(&raw_scalar(&bytes), w);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn mul_base_matches_oracle(bytes in any::<[u8; 32]>()) {
            let oracle = EdwardsPoint::basepoint().scalar_mul(&bytes);
            prop_assert_eq!(EdwardsPoint::mul_base(&bytes), oracle);
            let secret = clamped(bytes);
            let oracle = EdwardsPoint::basepoint().scalar_mul(&secret);
            prop_assert_eq!(EdwardsPoint::mul_base(&secret), oracle);
        }

        #[test]
        fn double_scalar_mul_base_matches_oracle(
            point in any::<[u8; 32]>(),
            a in any::<[u8; 64]>(),
            b in any::<[u8; 64]>(),
        ) {
            let p = point_from(&point);
            let (a, b) = (Scalar::from_bytes_wide(&a), Scalar::from_bytes_wide(&b));
            prop_assert_eq!(
                EdwardsPoint::double_scalar_mul_base(&a, &p.var_table(), &b),
                double_scalar_oracle(&a, &p, &b)
            );
        }
    }
}
