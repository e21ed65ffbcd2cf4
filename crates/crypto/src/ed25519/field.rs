//! Arithmetic in GF(2^255 − 19) with radix-2^51 limbs.
//!
//! The representation follows the well-known "five 51-bit limbs in `u64`"
//! layout. Operations are variable-time (documented crate-wide); correctness
//! is what matters for the selective-deletion prototype, and it is enforced
//! by RFC 8032 vectors plus property tests.
//!
//! Every operation accepts *weakly reduced* limbs (each below 2^52) and
//! returns weakly reduced limbs; only [`FieldElement::to_bytes`] reduces
//! fully.

use std::fmt;

pub(crate) const MASK: u64 = (1u64 << 51) - 1;

/// `p − 2` as little-endian bytes, the inversion exponent.
#[cfg(test)]
const P_MINUS_2: [u8; 32] = [
    0xeb, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f,
];

/// `(p − 5) / 8` as little-endian bytes, the square-root exponent.
#[cfg(test)]
const P58: [u8; 32] = [
    0xfd, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f,
];

#[cfg(test)]
thread_local! {
    /// Field multiplications and squarings performed on this thread.
    static FIELD_OPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Runs `f` and returns its result with the number of field multiplications
/// and squarings it performed on this thread.
#[cfg(test)]
pub(crate) fn count_field_ops<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = FIELD_OPS.with(|c| c.get());
    let out = f();
    (out, FIELD_OPS.with(|c| c.get()) - before)
}

#[cfg(test)]
fn count_field_op() {
    FIELD_OPS.with(|c| c.set(c.get() + 1));
}

#[cfg(not(test))]
#[inline(always)]
fn count_field_op() {}

/// An element of GF(2^255 − 19).
#[derive(Clone, Copy)]
pub(crate) struct FieldElement(pub(crate) [u64; 5]);

impl fmt::Debug for FieldElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FieldElement({})", crate::hex::encode(self.to_bytes()))
    }
}

impl PartialEq for FieldElement {
    fn eq(&self, other: &Self) -> bool {
        self.to_bytes() == other.to_bytes()
    }
}

impl Eq for FieldElement {}

impl FieldElement {
    pub(crate) const ZERO: FieldElement = FieldElement([0; 5]);
    pub(crate) const ONE: FieldElement = FieldElement([1, 0, 0, 0, 0]);

    /// Loads 32 little-endian bytes; bit 255 is ignored (values are taken
    /// modulo 2^255, not modulo p — callers needing canonicality must check
    /// separately via [`FieldElement::is_canonical_encoding`]).
    pub(crate) const fn from_bytes(bytes: &[u8; 32]) -> FieldElement {
        const fn load8(b: &[u8; 32], i: usize) -> u64 {
            u64::from_le_bytes([
                b[i],
                b[i + 1],
                b[i + 2],
                b[i + 3],
                b[i + 4],
                b[i + 5],
                b[i + 6],
                b[i + 7],
            ])
        }
        FieldElement([
            load8(bytes, 0) & MASK,
            (load8(bytes, 6) >> 3) & MASK,
            (load8(bytes, 12) >> 6) & MASK,
            (load8(bytes, 19) >> 1) & MASK,
            (load8(bytes, 24) >> 12) & MASK,
        ])
    }

    /// Returns `true` when `bytes` (with bit 255 cleared) encodes a value
    /// `< p`, i.e. is the canonical encoding of the element it decodes to.
    pub(crate) fn is_canonical_encoding(bytes: &[u8; 32]) -> bool {
        let mut cleared = *bytes;
        cleared[31] &= 0x7f;
        FieldElement::from_bytes(&cleared).to_bytes() == cleared
    }

    /// Canonical 32-byte little-endian encoding (value fully reduced mod p).
    pub(crate) fn to_bytes(self) -> [u8; 32] {
        // Bring limbs below 2^52 first.
        let mut l = carry_once(self.0);
        l = carry_once(l);
        // q = 1 iff value >= p; uses the (value + 19) >> 255 trick.
        let mut q = (l[0].wrapping_add(19)) >> 51;
        q = (l[1] + q) >> 51;
        q = (l[2] + q) >> 51;
        q = (l[3] + q) >> 51;
        q = (l[4] + q) >> 51;
        l[0] += 19 * q;
        // Carry and discard bit 255, i.e. subtract q*p overall.
        let mut carry = l[0] >> 51;
        l[0] &= MASK;
        l[1] += carry;
        carry = l[1] >> 51;
        l[1] &= MASK;
        l[2] += carry;
        carry = l[2] >> 51;
        l[2] &= MASK;
        l[3] += carry;
        carry = l[3] >> 51;
        l[3] &= MASK;
        l[4] += carry;
        l[4] &= MASK;

        let mut out = [0u8; 32];
        let mut acc: u128 = 0;
        let mut acc_bits = 0u32;
        let mut idx = 0usize;
        for &limb in &l {
            acc |= (limb as u128) << acc_bits;
            acc_bits += 51;
            while acc_bits >= 8 {
                out[idx] = acc as u8;
                acc >>= 8;
                acc_bits -= 8;
                idx += 1;
            }
        }
        if idx < 32 {
            out[idx] = acc as u8;
        }
        out
    }

    pub(crate) fn add(&self, rhs: &FieldElement) -> FieldElement {
        let mut l = [0u64; 5];
        for (out, (a, b)) in l.iter_mut().zip(self.0.iter().zip(rhs.0.iter())) {
            *out = a + b;
        }
        FieldElement(carry_once(l))
    }

    pub(crate) fn sub(&self, rhs: &FieldElement) -> FieldElement {
        // Add 16p before subtracting so all limbs stay non-negative even for
        // weakly-reduced inputs (limbs < 2^52 < 16 * 2^51 - small). The sum
        // stays below 2^56, so one carry pass brings it back below 2^52.
        const SIXTEEN_P: [u64; 5] = [
            36028797018963664, // 16 * (2^51 - 19)
            36028797018963952, // 16 * (2^51 - 1)
            36028797018963952,
            36028797018963952,
            36028797018963952,
        ];
        let mut l = [0u64; 5];
        for (i, out) in l.iter_mut().enumerate() {
            *out = self.0[i] + SIXTEEN_P[i] - rhs.0[i];
        }
        FieldElement(carry_once(l))
    }

    pub(crate) fn neg(&self) -> FieldElement {
        FieldElement::ZERO.sub(self)
    }

    pub(crate) fn mul(&self, rhs: &FieldElement) -> FieldElement {
        count_field_op();
        let a = &self.0;
        let b = &rhs.0;
        // Limbs that wrap past 2^255 come back multiplied by 19; scaling
        // them before the products keeps every product a single u64 × u64.
        let b1_19 = 19 * b[1];
        let b2_19 = 19 * b[2];
        let b3_19 = 19 * b[3];
        let b4_19 = 19 * b[4];

        let r0 = m(a[0], b[0]) + m(a[1], b4_19) + m(a[2], b3_19) + m(a[3], b2_19) + m(a[4], b1_19);
        let r1 = m(a[0], b[1]) + m(a[1], b[0]) + m(a[2], b4_19) + m(a[3], b3_19) + m(a[4], b2_19);
        let r2 = m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]) + m(a[3], b4_19) + m(a[4], b3_19);
        let r3 = m(a[0], b[3]) + m(a[1], b[2]) + m(a[2], b[1]) + m(a[3], b[0]) + m(a[4], b4_19);
        let r4 = m(a[0], b[4]) + m(a[1], b[3]) + m(a[2], b[2]) + m(a[3], b[1]) + m(a[4], b[0]);

        reduce_wide([r0, r1, r2, r3, r4])
    }

    /// `self²` with 15 limb products instead of `mul`'s 25: the symmetric
    /// cross terms are computed once and doubled.
    pub(crate) fn square(&self) -> FieldElement {
        count_field_op();
        let a = &self.0;
        let a3_19 = 19 * a[3];
        let a4_19 = 19 * a[4];

        let r0 = m(a[0], a[0]) + 2 * (m(a[1], a4_19) + m(a[2], a3_19));
        let r1 = m(a[3], a3_19) + 2 * (m(a[0], a[1]) + m(a[2], a4_19));
        let r2 = m(a[1], a[1]) + 2 * (m(a[0], a[2]) + m(a[4], a3_19));
        let r3 = m(a[4], a4_19) + 2 * (m(a[0], a[3]) + m(a[1], a[2]));
        let r4 = m(a[2], a[2]) + 2 * (m(a[0], a[4]) + m(a[1], a[3]));

        reduce_wide([r0, r1, r2, r3, r4])
    }

    /// `self^(2^k)`: `k` successive squarings.
    pub(crate) fn pow2k(&self, k: u32) -> FieldElement {
        let mut out = *self;
        for _ in 0..k {
            out = out.square();
        }
        out
    }

    /// `(self^(2^250 − 1), self^11)`, the shared prefix of the addition
    /// chains for `p − 2` and `(p − 5)/8` (the ref10 chain: 249 squarings,
    /// 10 multiplications).
    fn pow22501(&self) -> (FieldElement, FieldElement) {
        let x2 = self.square();
        let x9 = self.mul(&x2.pow2k(2));
        let x11 = x2.mul(&x9);
        let e5 = x9.mul(&x11.square()); // 2^5 − 1
        let e10 = e5.pow2k(5).mul(&e5); // 2^10 − 1
        let e20 = e10.pow2k(10).mul(&e10); // 2^20 − 1
        let e40 = e20.pow2k(20).mul(&e20); // 2^40 − 1
        let e50 = e40.pow2k(10).mul(&e10); // 2^50 − 1
        let e100 = e50.pow2k(50).mul(&e50); // 2^100 − 1
        let e200 = e100.pow2k(100).mul(&e100); // 2^200 − 1
        let e250 = e200.pow2k(50).mul(&e50); // 2^250 − 1
        (e250, x11)
    }

    /// `self^exp` where `exp` is a little-endian byte string: the generic
    /// square-and-multiply oracle for the addition chains.
    #[cfg(test)]
    pub(crate) fn pow(&self, exp_le: &[u8]) -> FieldElement {
        let mut result = FieldElement::ONE;
        let mut started = false;
        for byte_idx in (0..exp_le.len()).rev() {
            for bit in (0..8).rev() {
                if started {
                    result = result.square();
                }
                if (exp_le[byte_idx] >> bit) & 1 == 1 {
                    if started {
                        result = result.mul(self);
                    } else {
                        result = *self;
                        started = true;
                    }
                }
            }
        }
        result
    }

    /// Multiplicative inverse `self^(p − 2)` (`0` maps to `0`): 254
    /// squarings and 11 multiplications.
    pub(crate) fn invert(&self) -> FieldElement {
        let (e250, x11) = self.pow22501();
        e250.pow2k(5).mul(&x11) // 2^255 − 32 + 11 = p − 2
    }

    /// `self^((p-5)/8)`, the core of the decompression square root: 251
    /// squarings and 11 multiplications.
    pub(crate) fn pow_p58(&self) -> FieldElement {
        let (e250, _) = self.pow22501();
        e250.pow2k(2).mul(self) // 2^252 − 4 + 1 = (p − 5)/8
    }

    pub(crate) fn is_zero(&self) -> bool {
        self.to_bytes() == [0u8; 32]
    }

    /// "Negative" in the RFC 8032 sense: the least significant bit of the
    /// canonical encoding.
    pub(crate) fn is_negative(&self) -> bool {
        self.to_bytes()[0] & 1 == 1
    }
}

/// One carry pass: brings limbs below 2^52 when inputs are below 2^63.
fn carry_once(mut l: [u64; 5]) -> [u64; 5] {
    let mut c;
    c = l[0] >> 51;
    l[0] &= MASK;
    l[1] += c;
    c = l[1] >> 51;
    l[1] &= MASK;
    l[2] += c;
    c = l[2] >> 51;
    l[2] &= MASK;
    l[3] += c;
    c = l[3] >> 51;
    l[3] &= MASK;
    l[4] += c;
    c = l[4] >> 51;
    l[4] &= MASK;
    l[0] += c * 19;
    l
}

#[inline(always)]
fn m(x: u64, y: u64) -> u128 {
    (x as u128) * (y as u128)
}

/// Reduces the wide (u128) limbs of a product to weakly reduced limbs in
/// one carry pass.
///
/// With input limbs below 2^52 every `r[i]` is below 2^112, so the carry
/// out of `r[4]` is below 2^61 and `19 ×` it still fits a `u128` sum with
/// limb 0; the final carry leaves limb 1 below 2^52.
fn reduce_wide(mut r: [u128; 5]) -> FieldElement {
    const WIDE_MASK: u128 = MASK as u128;
    let mut l = [0u64; 5];
    for i in 0..4 {
        r[i + 1] += r[i] >> 51;
        l[i] = (r[i] & WIDE_MASK) as u64;
    }
    l[4] = (r[4] & WIDE_MASK) as u64;
    let low = l[0] as u128 + 19 * (r[4] >> 51);
    l[0] = (low & WIDE_MASK) as u64;
    l[1] += (low >> 51) as u64;
    FieldElement(l)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fe(n: u64) -> FieldElement {
        FieldElement([n, 0, 0, 0, 0])
    }

    #[test]
    fn add_sub_inverse() {
        let a = fe(12345);
        let b = fe(67890);
        assert_eq!(a.add(&b).sub(&b), a);
    }

    #[test]
    fn sub_underflow_wraps_mod_p() {
        // 0 - 1 == p - 1
        let r = FieldElement::ZERO.sub(&FieldElement::ONE);
        let mut expected = [0xffu8; 32];
        expected[0] = 0xec; // p - 1 = 2^255 - 20
        expected[31] = 0x7f;
        assert_eq!(r.to_bytes(), expected);
    }

    #[test]
    fn mul_matches_small_integers() {
        assert_eq!(fe(7).mul(&fe(11)), fe(77));
        assert_eq!(fe(0).mul(&fe(11)), FieldElement::ZERO);
        assert_eq!(fe(1).mul(&fe(11)), fe(11));
    }

    #[test]
    fn mul_commutative_associative() {
        let a = FieldElement::from_bytes(&[17u8; 32]);
        let b = FieldElement::from_bytes(&[99u8; 32]);
        let c = FieldElement::from_bytes(&[201u8; 32]);
        assert_eq!(a.mul(&b), b.mul(&a));
        assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
    }

    #[test]
    fn distributive() {
        let a = FieldElement::from_bytes(&[3u8; 32]);
        let b = FieldElement::from_bytes(&[5u8; 32]);
        let c = FieldElement::from_bytes(&[7u8; 32]);
        assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    #[test]
    fn invert_round_trip() {
        let a = fe(987654321);
        assert_eq!(a.mul(&a.invert()), FieldElement::ONE);
    }

    #[test]
    fn invert_of_two() {
        // 2 * inv(2) == 1
        let two = fe(2);
        let half = two.invert();
        assert_eq!(two.mul(&half), FieldElement::ONE);
    }

    #[test]
    fn p_encodes_as_zero() {
        // p itself: 0xed, 0xff.., 0x7f
        let mut p_bytes = [0xffu8; 32];
        p_bytes[0] = 0xed;
        p_bytes[31] = 0x7f;
        let z = FieldElement::from_bytes(&p_bytes);
        assert!(z.is_zero());
        assert!(!FieldElement::is_canonical_encoding(&p_bytes));
        let one = [1u8; 1];
        let mut canonical = [0u8; 32];
        canonical[0] = one[0];
        assert!(FieldElement::is_canonical_encoding(&canonical));
    }

    #[test]
    fn bit_255_is_ignored_on_load() {
        let mut bytes = [0u8; 32];
        bytes[0] = 5;
        let plain = FieldElement::from_bytes(&bytes);
        bytes[31] |= 0x80;
        let with_sign = FieldElement::from_bytes(&bytes);
        assert_eq!(plain, with_sign);
    }

    #[test]
    fn to_from_bytes_round_trip() {
        let cases = [[0u8; 32], [1u8; 32], [0x55u8; 32], {
            let mut b = [0xffu8; 32];
            b[31] = 0x3f;
            b
        }];
        for bytes in cases {
            let fe = FieldElement::from_bytes(&bytes);
            let fe2 = FieldElement::from_bytes(&fe.to_bytes());
            assert_eq!(fe, fe2);
        }
    }

    #[test]
    fn sqrt_m1_squares_to_minus_one() {
        const SQRT_M1: [u8; 32] = [
            0xb0, 0xa0, 0x0e, 0x4a, 0x27, 0x1b, 0xee, 0xc4, 0x78, 0xe4, 0x2f, 0xad, 0x06, 0x18,
            0x43, 0x2f, 0xa7, 0xd7, 0xfb, 0x3d, 0x99, 0x00, 0x4d, 0x2b, 0x0b, 0xdf, 0xc1, 0x4f,
            0x80, 0x24, 0x83, 0x2b,
        ];
        let i = FieldElement::from_bytes(&SQRT_M1);
        let minus_one = FieldElement::ZERO.sub(&FieldElement::ONE);
        assert_eq!(i.square(), minus_one);
    }

    #[test]
    fn pow_small_exponents() {
        let a = fe(3);
        assert_eq!(a.pow(&[0]), FieldElement::ONE);
        assert_eq!(a.pow(&[1]), a);
        assert_eq!(a.pow(&[2]), fe(9));
        assert_eq!(a.pow(&[5]), fe(243));
        assert_eq!(a.pow(&[16]), fe(43046721));
    }

    /// The largest limbs any operation may be handed: every limb at
    /// 2^52 − 1.
    const WEAK_MAX: FieldElement = FieldElement([(1 << 52) - 1; 5]);

    #[test]
    fn square_matches_mul_on_edge_limbs() {
        let p_minus_1 = FieldElement::ZERO.sub(&FieldElement::ONE);
        for x in [FieldElement::ZERO, FieldElement::ONE, p_minus_1, WEAK_MAX] {
            assert_eq!(x.square(), x.mul(&x), "{x:?}");
        }
        assert_eq!(WEAK_MAX.pow2k(3), WEAK_MAX.mul(&WEAK_MAX).pow(&[4]));
    }

    #[test]
    fn addition_chains_match_pow_on_edge_values() {
        let p_minus_1 = FieldElement::ZERO.sub(&FieldElement::ONE);
        for x in [
            FieldElement::ZERO,
            FieldElement::ONE,
            fe(2),
            p_minus_1,
            WEAK_MAX,
        ] {
            assert_eq!(x.invert(), x.pow(&P_MINUS_2), "{x:?}");
            assert_eq!(x.pow_p58(), x.pow(&P58), "{x:?}");
        }
    }

    #[test]
    fn addition_chain_op_counts() {
        let x = FieldElement::from_bytes(&[0x5a; 32]);
        assert_eq!(count_field_ops(|| x.invert()).1, 254 + 11);
        assert_eq!(count_field_ops(|| x.pow_p58()).1, 251 + 11);
    }

    proptest! {
        #[test]
        fn square_matches_mul(bytes in any::<[u8; 32]>()) {
            let x = FieldElement::from_bytes(&bytes);
            prop_assert_eq!(x.square(), x.mul(&x));
        }

        #[test]
        fn square_matches_mul_on_weak_limbs(bytes in any::<[u8; 40]>()) {
            // Each limb in [2^51, 2^52): weakly reduced, just below the bound.
            let x = FieldElement(std::array::from_fn(|i| {
                let word = u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().expect("8 bytes"));
                (word & MASK) | (1 << 51)
            }));
            prop_assert_eq!(x.square(), x.mul(&x));
            prop_assert_eq!(x.mul(&WEAK_MAX), WEAK_MAX.mul(&x));
            prop_assert_eq!(x.sub(&WEAK_MAX).add(&WEAK_MAX), x);
            prop_assert_eq!(WEAK_MAX.sub(&x).add(&x), WEAK_MAX);
        }

        #[test]
        fn pow2k_matches_repeated_square(bytes in any::<[u8; 32]>(), k in 0u32..12) {
            let x = FieldElement::from_bytes(&bytes);
            let mut expected = x;
            for _ in 0..k {
                expected = expected.mul(&expected);
            }
            prop_assert_eq!(x.pow2k(k), expected);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn addition_chains_match_pow(bytes in any::<[u8; 32]>()) {
            let x = FieldElement::from_bytes(&bytes);
            prop_assert_eq!(x.invert(), x.pow(&P_MINUS_2));
            prop_assert_eq!(x.pow_p58(), x.pow(&P58));
        }
    }
}
