//! Canonical serialisation and record schemas.
//!
//! Summary blocks in the selective-deletion design are **derived locally by
//! every anchor node and never propagated** (paper §IV-B) — consistency is
//! checked by comparing hashes. That only works if every node serialises
//! blocks bit-identically, so this crate provides a small canonical binary
//! codec ([`Encoder`], [`Decoder`], [`Codec`]) with fixed little-endian
//! integer layout and length-prefixed containers.
//!
//! The paper additionally specifies that "the structure of a data entry is
//! specified beforehand by a YAML schema" (§V). The [`schema`] module
//! implements a typed record schema with a YAML-subset parser and a
//! validating [`schema::SchemaRegistry`].
//!
//! # Example
//!
//! ```
//! use seldel_codec::{Codec, DataRecord, Value};
//!
//! let record = DataRecord::new("login")
//!     .with("user", Value::from("ALPHA"))
//!     .with("terminal", Value::U64(7));
//! let bytes = record.to_canonical_bytes();
//! assert_eq!(DataRecord::from_canonical_bytes(&bytes).unwrap(), record);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod enc;
pub mod schema;
mod value;

pub use enc::{decode_seq, encode_seq, Codec, DecodeError, Decoder, Encoder};
pub use value::{DataRecord, Value, ValueKind};
