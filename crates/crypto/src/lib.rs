//! Cryptographic substrate for the selective-deletion blockchain.
//!
//! The paper ("Selective Deletion in a Blockchain", Hillmann et al., ICDCS
//! 2020) requires three cryptographic facilities:
//!
//! * **Block and entry hashing** — blocks are chained by hash, and summary
//!   blocks must hash bit-identically on every anchor node
//!   ([`sha256()`], [`Digest32`]).
//! * **Entry signatures** — every data entry carries the author key `K` and a
//!   signature `S`; deletion requests are authorised by signature match
//!   ([`ed25519`], [`SigningKey`], [`VerifyingKey`]).
//! * **Merkle anchors** — the 51 %-attack hampering of Fig. 9 stores the
//!   Merkle root of a middle sequence inside the merging summary block
//!   ([`merkle::MerkleTree`]).
//!
//! Because this repository is fully self-contained, all primitives are
//! implemented from scratch (FIPS 180-4 SHA-2, RFC 2104 HMAC, RFC 8032
//! Ed25519) and validated against the official test vectors in this crate's
//! test suite.
//!
//! # Implementation
//!
//! SHA-256 has two compression functions. On x86_64 CPUs that report the
//! SHA extensions (SHA-NI) at run time, `sha256rnds2`/`sha256msg1`/
//! `sha256msg2` do the rounds; everywhere else, and as the reference in
//! tests, a portable integer implementation does. The choice is made per
//! call from std's cached CPUID probe — no Cargo feature, `RUSTFLAGS` or
//! `target-cpu` is involved. Both paths compute the same function, so
//! every digest, and with it every block hash and Σ hash (invariant I2),
//! is the same on every host.
//!
//! # Security note
//!
//! The field, scalar and point arithmetic is written for clarity and
//! determinism, not constant-time execution. This matches the research
//! prototype character of the paper; do not use this crate to protect
//! production secrets. In particular, signing and key derivation multiply
//! the base point through a precomputed table indexed by the digits of the
//! secret nonce and the secret scalar, so which entries are read, and
//! how many additions run, depend on secret data.
//!
//! The crate's one `unsafe` block is the call into the SHA-NI compression
//! in `sha256.rs`: that function is safe code compiled with
//! `#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]`, and the call is
//! made only after `is_x86_feature_detected!` confirmed all four features.
//! It reads and writes only its two array arguments. The lints
//! `unsafe_code` and `clippy::undocumented_unsafe_blocks` are denied, so
//! any further block needs an explicit allowance and a `// SAFETY:` note.
//! Neither SHA-256 path branches on or indexes by data.
//!
//! [`VerifyingKey`] memoises validated public keys in a thread-local
//! table bounded by a constant (1 024 keys, cleared when full). It is
//! keyed by the public key bytes only and holds nothing derived from a
//! secret, but whether a key hits it is visible in verification timing.
//!
//! # Example
//!
//! ```
//! use seldel_crypto::{sha256, SigningKey};
//!
//! let digest = sha256(b"block payload");
//! assert_eq!(digest.as_bytes().len(), 32);
//!
//! let key = SigningKey::from_seed([7u8; 32]);
//! let sig = key.sign(b"delete block 3 entry 1");
//! assert!(key.verifying_key().verify(b"delete block 3 entry 1", &sig).is_ok());
//! ```

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

mod bigint;
pub mod ed25519;
pub mod hex;
pub mod hmac;
pub mod merkle;
pub mod sha256;
pub mod sha512;

pub use ed25519::{Signature, SignatureError, SigningKey, VerifyingKey};
pub use merkle::{MerkleProof, MerkleTree, Side};
pub use sha256::{digests_finalized, sha256, Digest32, Sha256};
pub use sha512::{sha512, Digest64, Sha512};
