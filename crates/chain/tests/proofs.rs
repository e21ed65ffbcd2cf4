//! Adversarial property tests for membership/absence proofs.
//!
//! The contract under attack: a proof produced by `prove_live` /
//! `prove_deleted` verifies against the header chain, and **no mutation of
//! its bytes or structure** — bit flips anywhere in the serialised proof,
//! swapped audit-path siblings, flipped sibling sides, truncated paths,
//! re-labelled variants — may verify for the same subject. Soundness here
//! is what makes tombstones GDPR-meaningful: a node cannot fake deletion
//! evidence (or liveness evidence) without breaking SHA-256.

use proptest::prelude::*;

use seldel_chain::proof::{prove_deleted, prove_live, verify_proof, EntryProof, HeaderChain};
use seldel_chain::{
    Block, BlockBody, BlockNumber, Blockchain, DeleteRequest, Entry, EntryId, EntryNumber,
    SummaryRecord, Timestamp,
};
use seldel_codec::{Codec, DataRecord};
use seldel_crypto::{MerkleProof, SigningKey};

/// A chain with every proof population present: normal entries, pending
/// delete requests, summary-carried records and executed tombstones.
/// Every 5th block is a Σ that carries the *even* entries of block b-2 and
/// tombstones the *odd* ones; afterwards the chain is pruned to `cut`.
fn build_deletion_chain(blocks: u64, entries_per_block: u8, cut: u64) -> Blockchain {
    let key = SigningKey::from_seed([0x3D; 32]);
    let mut chain = Blockchain::new(Block::genesis("proofprop", Timestamp(0)));
    for b in 1..=blocks {
        let prev = chain.tip().hash();
        let block = if b.is_multiple_of(5) && b >= 5 {
            let mut records = Vec::new();
            let mut deletions = Vec::new();
            if let Some(origin_block) = chain.get(BlockNumber(b - 2)) {
                for (i, entry) in origin_block.entries().iter().enumerate() {
                    let id = EntryId::new(BlockNumber(b - 2), EntryNumber(i as u32));
                    if entry.payload().is_delete() {
                        continue;
                    }
                    if i % 2 == 0 {
                        records.push(
                            SummaryRecord::from_entry(entry, id, origin_block.timestamp())
                                .expect("data entry"),
                        );
                    } else {
                        deletions.push(id);
                    }
                }
            }
            Block::new(
                BlockNumber(b),
                chain.tip().timestamp(),
                prev,
                BlockBody::Summary {
                    records,
                    deletions,
                    anchor: None,
                },
            )
        } else {
            let mut entries: Vec<Entry> = (0..entries_per_block)
                .map(|i| {
                    Entry::sign_data(&key, DataRecord::new("log").with("n", b * 100 + i as u64))
                })
                .collect();
            // Every 7th block also carries a pending delete request for the
            // first entry of the previous block.
            if b.is_multiple_of(7) && b >= 2 {
                entries.push(Entry::sign_delete(
                    &key,
                    DeleteRequest::new(
                        EntryId::new(BlockNumber(b - 1), EntryNumber(0)),
                        "prop cleanup",
                    ),
                ));
            }
            Block::new(
                BlockNumber(b),
                Timestamp(b * 10),
                prev,
                BlockBody::Normal { entries },
            )
        };
        chain.push(block).expect("valid link");
    }
    if cut > 0 {
        let cut = cut.min(blocks);
        chain.truncate_front(BlockNumber(cut)).expect("in range");
    }
    chain
}

/// All tombstoned ids still provable from the live chain.
fn tombstoned_ids(chain: &Blockchain) -> Vec<EntryId> {
    let mut out: Vec<EntryId> = chain.iter().flat_map(|b| b.deletions().to_vec()).collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Every id answerable by `prove_live`.
fn live_ids(chain: &Blockchain) -> Vec<EntryId> {
    chain.live_records().into_iter().map(|(id, _)| id).collect()
}

/// Asserts a mutated proof byte-string can never verify for `id`: it must
/// fail to decode, or decode and fail verification.
fn assert_rejected(bytes: &[u8], id: EntryId, headers: &HeaderChain, what: &str) {
    if let Ok(mutated) = EntryProof::from_canonical_bytes(bytes) {
        assert!(
            verify_proof(&mutated, id, headers).is_err(),
            "{what}: mutated proof for {id} still verifies"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Round trip: every live id and every tombstoned id yields a proof
    /// that verifies — including through a serialisation round trip.
    #[test]
    fn proofs_round_trip_for_every_subject(
        blocks in 6u64..30,
        entries in 1u8..4,
        cut in 0u64..12,
    ) {
        let chain = build_deletion_chain(blocks, entries, cut);
        let headers = HeaderChain::from_chain(&chain);

        for id in live_ids(&chain) {
            let proof = prove_live(&chain, id).expect("live id proves");
            verify_proof(&proof, id, &headers).expect("live proof verifies");
            let rehydrated =
                EntryProof::from_canonical_bytes(&proof.to_canonical_bytes()).expect("codec");
            prop_assert_eq!(&rehydrated, &proof);
            verify_proof(&rehydrated, id, &headers).expect("rehydrated proof verifies");
        }
        for id in tombstoned_ids(&chain) {
            let proof = prove_deleted(&chain, id).expect("tombstoned id proves");
            prop_assert!(!proof.is_live());
            verify_proof(&proof, id, &headers).expect("absence proof verifies");
        }
    }

    /// Bit flips: flipping any single bit of a serialised proof makes it
    /// undecodable or unverifiable. Positions are sampled, the proof and
    /// subject are random.
    #[test]
    fn any_single_bit_flip_is_rejected(
        blocks in 6u64..24,
        entries in 2u8..4,
        flip_positions in proptest::collection::vec(0usize..1 << 20, 24..32),
        bit in 0u8..8,
    ) {
        let chain = build_deletion_chain(blocks, entries, 0);
        let headers = HeaderChain::from_chain(&chain);
        let live = live_ids(&chain);
        let dead = tombstoned_ids(&chain);
        // blocks >= 6 guarantees a Σ at 5; entries >= 2 guarantees it
        // tombstones the odd-indexed sibling.
        assert!(!live.is_empty() && !dead.is_empty());

        let subjects = [
            (live[live.len() / 2], prove_live(&chain, live[live.len() / 2]).unwrap()),
            (dead[dead.len() / 2], prove_deleted(&chain, dead[dead.len() / 2]).unwrap()),
        ];
        for (id, proof) in &subjects {
            let bytes = proof.to_canonical_bytes();
            for pos in &flip_positions {
                let mut mutated = bytes.clone();
                let at = pos % mutated.len();
                mutated[at] ^= 1 << bit;
                assert_rejected(&mutated, *id, &headers, "bit flip");
            }
        }
    }

    /// Structural mutations: sibling swaps, sibling-side flips, path
    /// truncation, index nudges and variant re-labelling never verify.
    #[test]
    fn structural_mutations_are_rejected(
        blocks in 8u64..24,
        entries in 2u8..4,
        pick in 0usize..1 << 20,
    ) {
        let chain = build_deletion_chain(blocks, entries, 0);
        let headers = HeaderChain::from_chain(&chain);
        let live = live_ids(&chain);
        assert!(!live.is_empty());
        let id = live[pick % live.len()];
        let proof = prove_live(&chain, id).unwrap();
        verify_proof(&proof, id, &headers).expect("baseline verifies");

        let spot = proof.spot();
        let index = spot.path.index();
        let path: Vec<_> = spot.path.path().to_vec();

        let rebuild = |index: usize, path: Vec<_>| {
            let mut forged = spot.clone();
            forged.path = MerkleProof::from_parts(index, path);
            EntryProof::LiveInBlock(forged)
        };

        // Swap two adjacent path levels.
        if path.len() >= 2 {
            let mut swapped = path.clone();
            swapped.swap(0, 1);
            let forged = rebuild(index, swapped);
            prop_assert!(verify_proof(&forged, id, &headers).is_err(), "sibling swap verified");
        }
        // Flip one sibling's side.
        if !path.is_empty() {
            let mut flipped = path.clone();
            let (side, digest) = flipped[0];
            flipped[0] = (
                match side {
                    seldel_crypto::Side::Left => seldel_crypto::Side::Right,
                    seldel_crypto::Side::Right => seldel_crypto::Side::Left,
                },
                digest,
            );
            let forged = rebuild(index, flipped);
            prop_assert!(verify_proof(&forged, id, &headers).is_err(), "side flip verified");
        }
        // Truncate the path (claim a shallower tree).
        if !path.is_empty() {
            let mut short = path.clone();
            short.pop();
            let forged = rebuild(index, short);
            prop_assert!(verify_proof(&forged, id, &headers).is_err(), "truncated path verified");
            let forged = rebuild(index, vec![]);
            prop_assert!(verify_proof(&forged, id, &headers).is_err(), "emptied path verified");
        }
        // Nudge the claimed index: the position is part of the subject
        // binding for in-block proofs.
        let forged = rebuild(index + 1, path.clone());
        prop_assert!(verify_proof(&forged, id, &headers).is_err(), "index nudge verified");
        // Re-label the variant.
        let forged = EntryProof::LiveInSummary(spot.clone());
        prop_assert!(verify_proof(&forged, id, &headers).is_err(), "variant swap verified");
        let forged = EntryProof::DeletionExecuted(spot.clone());
        prop_assert!(verify_proof(&forged, id, &headers).is_err(), "live-as-deleted verified");
    }

    /// A proof for subject A never verifies for subject B, and absence
    /// proofs never verify as presence (and vice versa).
    #[test]
    fn proofs_do_not_transfer_between_subjects(
        blocks in 8u64..24,
        entries in 2u8..4,
    ) {
        let chain = build_deletion_chain(blocks, entries, 0);
        let headers = HeaderChain::from_chain(&chain);
        let live = live_ids(&chain);
        let dead = tombstoned_ids(&chain);
        assert!(live.len() >= 2 && !dead.is_empty());

        let a = live[0];
        let b = live[live.len() - 1];
        let proof_a = prove_live(&chain, a).unwrap();
        prop_assert!(verify_proof(&proof_a, b, &headers).is_err(), "proof transferred {a}->{b}");

        let gone = dead[0];
        let absence = prove_deleted(&chain, gone).unwrap();
        prop_assert!(verify_proof(&absence, a, &headers).is_err(), "absence proof transferred");
        // The same id cannot be proven live with a deletion proof's spot.
        let forged = EntryProof::LiveInSummary(absence.spot().clone());
        prop_assert!(verify_proof(&forged, gone, &headers).is_err(), "deleted proven live");
    }
}
