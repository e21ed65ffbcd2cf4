//! Console rendering of the chain in the paper's Figs. 6–8 format.
//!
//! "To visualize the blockchain, the entries are listed line by line. Each
//! block has the following header structure: block number; timestamp;
//! previous block hash; own block hash; optional data entry. An data entry
//! is structured as follows: D stores data record; K holds the user; S
//! poses as signature (here simplified). … blocks starting with S are the
//! summary blocks." (§V)

use seldel_crypto::VerifyingKey;

use crate::block::{Block, BlockBody, BlockKind};
use crate::chain::Blockchain;
use crate::entry::EntryPayload;

/// Resolves author keys to display names (the paper prints ALPHA/BRAVO/
/// CHARLIE instead of raw keys).
pub trait NameResolver {
    /// Returns the display name for a key, or `None` to fall back to the
    /// abbreviated key.
    fn resolve(&self, key: &VerifyingKey) -> Option<String>;
}

/// Resolver that always falls back to abbreviated keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoNames;

impl NameResolver for NoNames {
    fn resolve(&self, _key: &VerifyingKey) -> Option<String> {
        None
    }
}

impl<F> NameResolver for F
where
    F: Fn(&VerifyingKey) -> Option<String>,
{
    fn resolve(&self, key: &VerifyingKey) -> Option<String> {
        self(key)
    }
}

fn display_user(names: &impl NameResolver, key: &VerifyingKey) -> String {
    names.resolve(key).unwrap_or_else(|| key.short())
}

/// Renders one block in the console format.
pub fn render_block(block: &Block, names: &impl NameResolver) -> String {
    let mut out = String::new();
    let prefix = if block.kind() == BlockKind::Summary {
        "S"
    } else {
        ""
    };
    out.push_str(&format!(
        "{prefix}{}; {}; {}; {}",
        block.number(),
        block.timestamp(),
        block.header().prev_hash.short(),
        block.hash().short(),
    ));

    match block.body() {
        BlockBody::Genesis { note } => {
            out.push_str(&format!("; GENESIS {note}"));
        }
        BlockBody::Empty => {
            out.push_str("; (empty block)");
        }
        BlockBody::Normal { entries } => {
            if entries.is_empty() {
                out.push_str("; (no entries)");
            }
            for (i, entry) in entries.iter().enumerate() {
                let user = display_user(names, &entry.author());
                let sig = entry.signature().to_hex()[..5].to_uppercase();
                match entry.payload() {
                    EntryPayload::Data(record) => {
                        out.push_str(&format!("\n  {i}: D {record} K {user} S {sig}"));
                        if let Some(expiry) = entry.expiry() {
                            out.push_str(&format!(" T {expiry}"));
                        }
                    }
                    EntryPayload::Delete(req) => {
                        out.push_str(&format!("\n  {i}: DEL {} K {user} S {sig}", req.target()));
                    }
                }
            }
        }
        BlockBody::Summary {
            records,
            deletions,
            anchor,
        } => {
            if records.is_empty() {
                out.push_str("; (empty)");
            }
            for record in records {
                let user = display_user(names, &record.author());
                let sig = record.signature().to_hex()[..5].to_uppercase();
                out.push_str(&format!(
                    "\n  {}@τ{}: D {} K {user} S {sig}",
                    record.origin(),
                    record.origin_timestamp(),
                    record.record(),
                ));
                if let Some(expiry) = record.expiry() {
                    out.push_str(&format!(" T {expiry}"));
                }
            }
            if !deletions.is_empty() {
                let ids: Vec<String> = deletions.iter().map(|id| id.to_string()).collect();
                out.push_str(&format!("\n  deleted: {}", ids.join(", ")));
            }
            if let Some(anchor) = anchor {
                out.push_str(&format!("\n  {anchor}"));
            }
        }
    }
    out
}

/// Renders the whole live chain, one block per paragraph, with the marker
/// line on top (Fig. 7: "The maker for the Genesis Block is changed to
/// block number 6").
pub fn render_chain<S: crate::store::BlockStore>(
    chain: &Blockchain<S>,
    names: &impl NameResolver,
) -> String {
    let mut out = format!("marker m = {}\n", chain.marker());
    for block in chain.iter() {
        out.push_str(&render_block(block.block(), names));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{DeleteRequest, Entry};
    use crate::types::{BlockNumber, EntryId, EntryNumber, Expiry, Timestamp};
    use seldel_codec::DataRecord;
    use seldel_crypto::SigningKey;

    fn alpha() -> SigningKey {
        SigningKey::from_seed([0xA1; 32])
    }

    fn names(key: &VerifyingKey) -> Option<String> {
        if *key == alpha().verifying_key() {
            Some("ALPHA".to_string())
        } else {
            None
        }
    }

    fn demo_chain() -> Blockchain {
        let mut chain = Blockchain::new(Block::genesis("audit-chain", Timestamp(0)));
        let entries = vec![
            Entry::sign_data(&alpha(), DataRecord::new("login").with("user", "ALPHA")),
            Entry::sign_delete(
                &alpha(),
                DeleteRequest::new(EntryId::new(BlockNumber(1), EntryNumber(0)), ""),
            ),
            Entry::sign_data_with(
                &alpha(),
                DataRecord::new("log").with("msg", "tmp"),
                Some(Expiry::AtTimestamp(Timestamp(8888))),
                vec![],
            ),
        ];
        let prev = chain.tip().hash();
        chain
            .push(Block::new(
                BlockNumber(1),
                Timestamp(10),
                prev,
                crate::block::BlockBody::Normal { entries },
            ))
            .unwrap();
        let prev = chain.tip().hash();
        chain
            .push(Block::new(
                BlockNumber(2),
                Timestamp(10),
                prev,
                crate::block::BlockBody::Summary {
                    records: vec![],
                    deletions: vec![],
                    anchor: None,
                },
            ))
            .unwrap();
        chain
    }

    #[test]
    fn genesis_line_shows_deadb() {
        let chain = demo_chain();
        let rendered = render_chain(&chain, &names);
        assert!(rendered.contains("0; 0; DEADB; "), "{rendered}");
        assert!(rendered.starts_with("marker m = 0\n"));
    }

    #[test]
    fn entries_rendered_with_d_k_s() {
        let rendered = render_chain(&demo_chain(), &names);
        assert!(
            rendered.contains("0: D login{user=ALPHA} K ALPHA S "),
            "{rendered}"
        );
        assert!(rendered.contains("1: DEL 1:0 K ALPHA S "), "{rendered}");
        assert!(rendered.contains(" T τ8888"), "{rendered}");
    }

    #[test]
    fn summary_block_prefixed_with_s() {
        let rendered = render_chain(&demo_chain(), &names);
        assert!(rendered.contains("\nS2; 10; "), "{rendered}");
        assert!(rendered.contains("(empty)"), "{rendered}");
    }

    #[test]
    fn unknown_keys_fall_back_to_short_form() {
        let rendered = render_chain(&demo_chain(), &NoNames);
        assert!(!rendered.contains("ALPHA S"), "{rendered}");
    }
}
