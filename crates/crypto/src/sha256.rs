//! SHA-256 (FIPS 180-4).
//!
//! Used for every block hash, entry hash and Merkle node in the workspace.
//! The streaming [`Sha256`] type follows the usual `update`/`finalize`
//! hasher shape; [`sha256`] is the one-shot convenience function.
//!
//! Each 64-byte block goes through one compression. On x86_64 CPUs with
//! the SHA extensions that is `compress_sha_ni`, chosen at run time by
//! `is_x86_feature_detected!`; elsewhere it is `compress_portable`, the
//! plain FIPS 180-4 round loop. Tests pin both to the same output: FIPS
//! vectors, golden digests at every padding boundary, and a seeded
//! differential run of the two compressions over random (state, block)
//! pairs. `finalize` writes the padding into the buffer at once and
//! compresses once, or twice when the length field does not fit.

use std::fmt;

use crate::hex;

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A 32-byte SHA-256 digest.
///
/// This is the hash type used for block hashes, previous-hash links, Merkle
/// roots and entry digests throughout the workspace.
///
/// # Example
///
/// ```
/// use seldel_crypto::sha256;
///
/// let d = sha256(b"abc");
/// assert_eq!(
///     d.to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Digest32([u8; 32]);

impl Digest32 {
    /// The all-zero digest, used as a sentinel (e.g. the payload hash of an
    /// empty block body before hashing).
    pub const ZERO: Digest32 = Digest32([0u8; 32]);

    /// Wraps raw digest bytes.
    pub const fn from_bytes(bytes: [u8; 32]) -> Self {
        Digest32(bytes)
    }

    /// Returns the digest bytes.
    pub const fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Consumes the digest and returns the bytes.
    pub const fn into_bytes(self) -> [u8; 32] {
        self.0
    }

    /// Lowercase hexadecimal rendering of the full digest.
    pub fn to_hex(&self) -> String {
        hex::encode(self.0)
    }

    /// Uppercase five-character prefix, the console style of the paper's
    /// Figs. 6–8 (e.g. genesis predecessor `DEADB`).
    pub fn short(&self) -> String {
        let full = hex::encode_upper(&self.0[..3]);
        full[..5].to_string()
    }

    /// Parses a digest from a 64-character hex string.
    ///
    /// # Errors
    ///
    /// Returns a [`hex::ParseHexError`] when the string is not exactly 64
    /// hexadecimal characters.
    pub fn parse_hex(s: &str) -> Result<Self, hex::ParseHexError> {
        hex::decode_array::<32>(s).map(Digest32)
    }
}

impl fmt::Debug for Digest32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest32({})", self.to_hex())
    }
}

impl fmt::Display for Digest32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest32 {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for Digest32 {
    fn from(bytes: [u8; 32]) -> Self {
        Digest32(bytes)
    }
}

/// Streaming SHA-256 hasher.
///
/// # Example
///
/// ```
/// use seldel_crypto::{sha256, Sha256};
///
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), sha256(b"abc"));
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length_bytes: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Sha256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sha256")
            .field("length_bytes", &self.length_bytes)
            .finish_non_exhaustive()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffered: 0,
            length_bytes: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: impl AsRef<[u8]>) -> &mut Self {
        let mut data = data.as_ref();
        self.length_bytes = self.length_bytes.wrapping_add(data.len() as u64);
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == 64 {
                compress(&mut self.state, &self.buffer);
                self.buffered = 0;
            }
        }
        while let Some((block, rest)) = data.split_first_chunk::<64>() {
            compress(&mut self.state, block);
            data = rest;
        }
        if !data.is_empty() {
            self.buffer[..data.len()].copy_from_slice(data);
            self.buffered = data.len();
        }
        self
    }

    /// Completes the hash and returns the digest.
    pub fn finalize(mut self) -> Digest32 {
        DIGESTS_FINALIZED.with(|count| count.set(count.get() + 1));
        let bit_len = self.length_bytes.wrapping_mul(8);
        // Padding: 0x80, zeros, 64-bit big-endian bit length. It spills
        // into a second block when fewer than 9 bytes are left in this one.
        let used = self.buffered;
        self.buffer[used] = 0x80;
        self.buffer[used + 1..].fill(0);
        if used >= 56 {
            compress(&mut self.state, &self.buffer);
            self.buffer[..56].fill(0);
        }
        self.buffer[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buffer);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest32(out)
    }
}

/// Whether [`compress`] takes the SHA-NI path on this host.
#[cfg(any(test, target_arch = "x86_64"))]
fn sha_ni_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        // std caches the CPUID probe, so each check is one atomic load.
        std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("sse2")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// One SHA-256 compression of `block` into `state`: the SHA-NI
/// instructions where the CPU has them, [`compress_portable`] otherwise.
/// Both compute the same function, so digests never depend on the host.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    #[cfg(target_arch = "x86_64")]
    if sha_ni_detected() {
        // SAFETY: `compress_sha_ni` is safe apart from its
        // `#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]`, and
        // `sha_ni_detected` has just confirmed at run time that this CPU
        // supports each of those four features.
        #[allow(unsafe_code)]
        unsafe {
            compress_sha_ni(state, block)
        };
        return;
    }
    compress_portable(state, block);
}

/// The FIPS 180-4 compression function in plain integer arithmetic: the
/// path on hosts without SHA-NI and the reference the hardware path is
/// tested against.
fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let temp1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// [`compress_portable`] on the x86 SHA extensions.
///
/// `sha256rnds2` runs two rounds on the state split as `(a, b, e, f)` and
/// `(c, d, g, h)`, taking `W[t] + K[t]` for both rounds from the low two
/// lanes of its third operand; `sha256msg1`/`sha256msg2` extend the
/// message schedule four words at a time. Words enter and leave through
/// `_mm_set_epi32`/`_mm_extract_epi32`, so no pointer is dereferenced.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_sha_ni(state: &mut [u32; 8], block: &[u8; 64]) {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    // Lane 0 holds the first of the four words.
    let quad = |w: [u32; 4]| _mm_set_epi32(w[3] as i32, w[2] as i32, w[1] as i32, w[0] as i32);
    let word = |i: usize| {
        u32::from_be_bytes([
            block[4 * i],
            block[4 * i + 1],
            block[4 * i + 2],
            block[4 * i + 3],
        ])
    };

    let [a, b, c, d, e, f, g, h] = *state;
    let mut abef = quad([f, e, b, a]);
    let mut cdgh = quad([h, g, d, c]);
    let (abef_in, cdgh_in) = (abef, cdgh);

    // `w[j]` holds W[4q + 4j..4q + 4j + 4] for the current quarter `q`.
    let mut w: [__m128i; 4] =
        std::array::from_fn(|j| quad(std::array::from_fn(|i| word(4 * j + i))));
    for quarter in 0..16 {
        let k = 4 * quarter;
        let wk = _mm_add_epi32(w[0], quad([K[k], K[k + 1], K[k + 2], K[k + 3]]));
        cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
        // After two rounds the old (a, b, e, f) is the new (c, d, g, h),
        // so the second call swaps the operands' roles and the next
        // quarter finds each register back in its own.
        abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
        if quarter < 12 {
            // W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16]: msg1
            // adds the σ0 terms, alignr picks W[t-7..t-3], msg2 adds σ1.
            let partial = _mm_add_epi32(
                _mm_sha256msg1_epu32(w[0], w[1]),
                _mm_alignr_epi8::<4>(w[3], w[2]),
            );
            w = [w[1], w[2], w[3], _mm_sha256msg2_epu32(partial, w[3])];
        } else {
            w = [w[1], w[2], w[3], w[0]];
        }
    }
    let abef = _mm_add_epi32(abef, abef_in);
    let cdgh = _mm_add_epi32(cdgh, cdgh_in);

    *state = [
        _mm_extract_epi32::<3>(abef) as u32,
        _mm_extract_epi32::<2>(abef) as u32,
        _mm_extract_epi32::<3>(cdgh) as u32,
        _mm_extract_epi32::<2>(cdgh) as u32,
        _mm_extract_epi32::<1>(abef) as u32,
        _mm_extract_epi32::<0>(abef) as u32,
        _mm_extract_epi32::<1>(cdgh) as u32,
        _mm_extract_epi32::<0>(cdgh) as u32,
    ];
}

std::thread_local! {
    /// SHA-256 digests finalized on this thread (see
    /// [`digests_finalized`]).
    static DIGESTS_FINALIZED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Number of SHA-256 digests finalized on the calling thread since it
/// started.
///
/// A diagnostics counter: replay-cost tests snapshot it around an
/// operation to pin how many hashes the operation may spend (e.g. the
/// paged store's streaming replay is bounded by one frame checksum per
/// block). Thread-local so concurrently running tests cannot pollute each
/// other's window.
pub fn digests_finalized() -> u64 {
    DIGESTS_FINALIZED.with(|count| count.get())
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: impl AsRef<[u8]>) -> Digest32 {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex_of(data: &[u8]) -> String {
        sha256(data).to_hex()
    }

    #[test]
    fn nist_vector_empty() {
        assert_eq!(
            hex_of(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_vector_abc() {
        assert_eq!(
            hex_of(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_vector_448_bits() {
        assert_eq!(
            hex_of(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_vector_896_bits() {
        let msg = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
        assert_eq!(
            hex_of(msg),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn million_a() {
        let msg = vec![b'a'; 1_000_000];
        assert_eq!(
            hex_of(&msg),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_equals_oneshot_at_all_boundaries() {
        let data: Vec<u8> = (0u32..300).map(|i| (i % 251) as u8).collect();
        for split in [0, 1, 55, 56, 63, 64, 65, 127, 128, 129, 200, 300] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");
        }
    }

    #[test]
    fn digest_short_is_five_uppercase_chars() {
        let d = sha256(b"x");
        let s = d.short();
        assert_eq!(s.len(), 5);
        assert!(s
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit()));
    }

    #[test]
    fn digest_parse_hex_round_trip() {
        let d = sha256(b"round trip");
        assert_eq!(Digest32::parse_hex(&d.to_hex()).unwrap(), d);
        assert!(Digest32::parse_hex("abcd").is_err());
    }

    /// `len` bytes of a fixed non-repeating pattern.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 7 + 3) as u8).collect()
    }

    /// Digests at and around the padding boundaries (55/56 bytes: the
    /// length field stops fitting; 64: a full block; 119/120 and 128: the
    /// same one block later), computed by the portable implementation
    /// before the padding was rewritten.
    #[test]
    fn golden_digests_at_padding_boundaries() {
        let lengths = [0, 1, 55, 56, 57, 63, 64, 65, 119, 120, 128];
        let golden = [
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "084fed08b978af4d7d196a7446a86b58009e636b611db16211b65a9aadff29c5",
            "e7313d333c272e639f790978283f9eb392e843d0f29b7016828bb1daa4aac70b",
            "4324d65f3c103567f5589c710bc08f8523f929a9272e3af36fc968e52abc6c27",
            "35df609437dcfea3279283ab79fd554e2bf78f8f7ae2de532d8ee300b09e8f73",
            "81c80242132f230c3bd41b3e63bbcff16107339549214a99614ff26664625055",
            "39e3d7b6b5d075d37d053ad89b24b41bef4f3c29760c84447cab3f3be1882241",
            "aacca6ff74fdbb296d165a45cecfa04e5127bc008770fbbdd48006f2d2fae95e",
            "9ce7368e4daf32341631b492e80359dc9f594b48453cd0dd5bf0b19279cc177e",
            "7836b787757e95e58b3ca5aec90b1b004e8deba1e50e9675af9cabf1a13a04b5",
            "d2742f1f4ac6bb7ca2b239ee18402ba8b3f9f8e652d2a72973c2b9ba11c08cf6",
        ];
        for (len, hex) in lengths.into_iter().zip(golden) {
            assert_eq!(hex_of(&pattern(len)), hex, "length {len}");
        }
    }

    #[test]
    fn streaming_split_at_every_offset_matches_oneshot() {
        let data = pattern(200);
        for len in 0..=data.len() {
            let whole = sha256(&data[..len]);
            for split in 0..=len {
                let mut h = Sha256::new();
                h.update(&data[..split]);
                h.update(&data[split..len]);
                assert_eq!(h.finalize(), whole, "length {len}, split at {split}");
            }
        }
    }

    /// The dispatched compression (SHA-NI where the CPU has it) against the
    /// portable reference on seeded random states and blocks.
    #[test]
    fn compress_matches_portable_on_random_inputs() {
        // SplitMix64: a fixed seed gives the same 12 000 pairs on every run.
        let mut seed = 0x5e1d_e1e7_u64;
        let mut next = move || {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for pair in 0..12_000 {
            let state: [u32; 8] = std::array::from_fn(|_| next() as u32);
            let mut block = [0u8; 64];
            for chunk in block.chunks_exact_mut(8) {
                chunk.copy_from_slice(&next().to_le_bytes());
            }
            let (mut fast, mut reference) = (state, state);
            compress(&mut fast, &block);
            compress_portable(&mut reference, &block);
            assert_eq!(fast, reference, "pair {pair}: state {state:08x?}");
        }
        if sha_ni_detected() {
            println!("compared the SHA-NI compression with the portable one on 12000 pairs");
        } else {
            println!("no SHA-NI on this host: compared the portable compression with itself");
        }
    }

    #[test]
    fn chunked_update_one_byte_at_a_time() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut h = Sha256::new();
        for b in data.iter() {
            h.update([*b]);
        }
        assert_eq!(h.finalize(), sha256(data));
    }
}
