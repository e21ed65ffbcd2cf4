//! Property-based tests for the DESIGN.md invariants (I1–I10), spanning
//! all workspace crates.

use std::collections::BTreeMap;

use proptest::prelude::*;

use selective_deletion::chain::validate_full;
use selective_deletion::codec::{Codec, DataRecord, Value};
use selective_deletion::crypto::{MerkleTree, SigningKey};
use selective_deletion::prelude::*;

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<u64>().prop_map(Value::U64),
        any::<i64>().prop_map(Value::I64),
        any::<bool>().prop_map(Value::Bool),
        "[a-zA-Z0-9 _.-]{0,24}".prop_map(Value::Str),
        proptest::collection::vec(any::<u8>(), 0..48).prop_map(Value::Bytes),
    ]
}

fn record_strategy() -> impl Strategy<Value = DataRecord> {
    (
        "[a-z][a-z0-9_]{0,11}",
        proptest::collection::btree_map("[a-z][a-z0-9]{0,7}", value_strategy(), 0..6),
    )
        .prop_map(|(schema, fields)| {
            let mut record = DataRecord::new(schema);
            for (name, value) in fields {
                record.insert(name, value);
            }
            record
        })
}

/// One step of the random ledger workload.
#[derive(Debug, Clone)]
enum Op {
    /// Submit a data entry as user `user % USERS`, with optional TTL.
    Submit { user: u8, ttl: Option<u8> },
    /// Seals a block, advancing time.
    SealBlock,
    /// Request deletion of the `pick`-th previously submitted entry by its
    /// own author (always authorised; may still fail for other reasons).
    Delete { pick: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (any::<u8>(), proptest::option::of(1u8..20)).prop_map(|(user, ttl)| Op::Submit { user, ttl }),
        2 => Just(Op::SealBlock),
        1 => any::<u8>().prop_map(|pick| Op::Delete { pick }),
    ]
}

// ---------------------------------------------------------------------------
// I9: codec round-trips
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn i9_value_codec_round_trip(value in value_strategy()) {
        let bytes = value.to_canonical_bytes();
        let decoded = Value::from_canonical_bytes(&bytes).expect("round trip");
        prop_assert_eq!(decoded, value);
    }

    #[test]
    fn i9_record_codec_round_trip(record in record_strategy()) {
        let bytes = record.to_canonical_bytes();
        let decoded = DataRecord::from_canonical_bytes(&bytes).expect("round trip");
        prop_assert_eq!(decoded, record);
    }

    #[test]
    fn i9_encoding_is_deterministic(record in record_strategy()) {
        prop_assert_eq!(record.to_canonical_bytes(), record.to_canonical_bytes());
    }

    #[test]
    fn i9_truncated_input_never_panics(record in record_strategy(), cut in 0usize..64) {
        let bytes = record.to_canonical_bytes();
        let cut = cut.min(bytes.len());
        // Must error or produce a value, never panic.
        let _ = DataRecord::from_canonical_bytes(&bytes[..cut]);
    }
}

// ---------------------------------------------------------------------------
// I8: signatures
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn i8_sign_verify_round_trip(seed in any::<[u8; 32]>(), msg in proptest::collection::vec(any::<u8>(), 0..256)) {
        let key = SigningKey::from_seed(seed);
        let sig = key.sign(&msg);
        prop_assert!(key.verifying_key().verify(&msg, &sig).is_ok());
    }

    #[test]
    fn i8_bit_flip_rejected(seed in any::<[u8; 32]>(), msg in proptest::collection::vec(any::<u8>(), 1..128), flip in any::<u16>()) {
        let key = SigningKey::from_seed(seed);
        let sig = key.sign(&msg);
        let mut tampered = msg.clone();
        let idx = (flip as usize) % tampered.len();
        tampered[idx] ^= 1 << (flip % 8) as u8;
        if tampered != msg {
            prop_assert!(key.verifying_key().verify(&tampered, &sig).is_err());
        }
    }
}

// ---------------------------------------------------------------------------
// Merkle proofs
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn merkle_proofs_hold_for_every_leaf(
        leaves in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..32), 1..40)
    ) {
        let tree = MerkleTree::from_leaves(&leaves);
        for (i, leaf) in leaves.iter().enumerate() {
            let proof = tree.prove(i).expect("in bounds");
            prop_assert!(proof.verify(leaf, &tree.root()));
        }
    }

    #[test]
    fn merkle_rejects_cross_leaf_proofs(
        leaves in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..16), 2..20),
        a in any::<u16>(),
        b in any::<u16>(),
    ) {
        let tree = MerkleTree::from_leaves(&leaves);
        let a = (a as usize) % leaves.len();
        let b = (b as usize) % leaves.len();
        if leaves[a] != leaves[b] {
            let proof = tree.prove(a).expect("in bounds");
            prop_assert!(!proof.verify(&leaves[b], &tree.root()));
        }
    }
}

// ---------------------------------------------------------------------------
// I1–I6: ledger invariants under random workloads
// ---------------------------------------------------------------------------

fn users() -> Vec<SigningKey> {
    (1..=4u8).map(|i| SigningKey::from_seed([i; 32])).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ledger_invariants_under_random_workload(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let users = users();
        let config = ChainConfig {
            sequence_length: 3,
            retention: RetentionPolicy {
                max_live_blocks: Some(9),
                min_live_blocks: 3,
                min_live_summaries: 1,
                min_timespan: None,
                mode: RetireMode::MinimumNeeded,
            },
            ..Default::default()
        };
        let mut ledger = SelectiveLedger::new(config);
        let mut now = Timestamp(0);
        // (id, owner index, record) of every successfully placed data entry.
        let mut placed: Vec<(EntryId, usize, DataRecord)> = Vec::new();
        // Pending mempool slots in submission order; None = deletion
        // request (occupies an entry number but is not a data record).
        let mut pending_batch: Vec<Option<(usize, DataRecord)>> = Vec::new();
        let mut requested_deletions: Vec<EntryId> = Vec::new();
        let mut last_marker = BlockNumber(0);
        let mut submitted = 0u64;

        for op in ops {
            match op {
                Op::Submit { user, ttl } => {
                    let user = (user as usize) % users.len();
                    submitted += 1;
                    let record = DataRecord::new("log").with("n", submitted).with("u", user as u64);
                    let expiry = ttl.map(|t| Expiry::AtTimestamp(now + (t as u64) * 10));
                    let entry = Entry::sign_data_with(&users[user], record.clone(), expiry, vec![]);
                    ledger.submit_entry(entry).expect("valid entries accepted");
                    pending_batch.push(Some((user, record)));
                }
                Op::SealBlock => {
                    now += 10;
                    let number = ledger.seal_block(now).expect("monotone time");
                    for (i, slot) in pending_batch.drain(..).enumerate() {
                        if let Some((user, record)) = slot {
                            placed.push((EntryId::new(number, EntryNumber(i as u32)), user, record));
                        }
                    }
                }
                Op::Delete { pick } => {
                    if placed.is_empty() { continue; }
                    let (id, owner, _) = placed[(pick as usize) % placed.len()].clone();
                    // Owners delete their own entries; duplicates and gone
                    // targets are allowed to fail.
                    match ledger.request_deletion(&users[owner], id, "prop") {
                        Ok(()) => {
                            requested_deletions.push(id);
                            pending_batch.push(None);
                        }
                        // DuplicatePending: the sharded mempool dedups a
                        // byte-identical request already waiting.
                        Err(CoreError::DuplicatePending) |
                        Err(CoreError::DuplicateDeletion(_)) |
                        Err(CoreError::TargetNotFound(_)) => {}
                        Err(other) => panic!("unexpected rejection: {other}"),
                    }
                }
            }

            // I4: marker monotonicity + bounded length.
            let stats = ledger.stats();
            prop_assert!(stats.marker >= last_marker, "marker went backwards");
            last_marker = stats.marker;
            prop_assert!(
                stats.live_blocks <= 9 + 3,
                "live blocks {} exceed l_max + l", stats.live_blocks
            );
        }

        // Commit whatever is still in the mempool (with bookkeeping), then
        // flush pending deletions through enough merge cycles.
        if !pending_batch.is_empty() {
            now += 10;
            let number = ledger.seal_block(now).expect("monotone time");
            for (i, slot) in pending_batch.drain(..).enumerate() {
                if let Some((user, record)) = slot {
                    placed.push((EntryId::new(number, EntryNumber(i as u32)), user, record));
                }
            }
        }
        for _ in 0..12 {
            now += 10;
            ledger.seal_block(now).expect("monotone time");
        }

        // I1: the chain validates fully.
        validate_full(ledger.chain()).expect("valid chain");

        // I5: executed deletions never resurface.
        for id in &requested_deletions {
            prop_assert!(ledger.record(*id).is_none(), "deleted {id} still present");
        }

        // I3 (conservation) and I6 (stable origins): every placed entry is
        // either live with its original content, deleted on request, or
        // expired.
        let stats = ledger.stats();
        let live: BTreeMap<EntryId, DataRecord> = ledger
            .chain()
            .live_records()
            .into_iter()
            .map(|(id, r)| (id, r.clone()))
            .collect();
        let mut accounted = 0u64;
        for (id, _, original) in &placed {
            if let Some(found) = live.get(id) {
                prop_assert_eq!(found, original, "content of {} changed", id);
                accounted += 1;
            }
        }
        let vanished = placed.len() as u64 - accounted;
        prop_assert_eq!(
            vanished,
            stats.executed_deletions as u64 + stats.expired_records,
            "conservation violated: {} vanished, {} deleted, {} expired",
            vanished, stats.executed_deletions, stats.expired_records
        );
    }
}

// ---------------------------------------------------------------------------
// Storage layer: maintained entry index and sealed-hash cache.
//
// The EntryIndex and the per-block digest cache are *derived* state: they
// must stay exactly reconstructible from the blocks at all times, or the
// invariants they serve break silently — I1 (chain validity: every linkage
// check reads the cached digests, so a stale cache would let an invalid
// chain validate) and I3 (conservation: locate/is_live answer through the
// index, so a drifted index would lose or resurrect data sets).
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn index_and_hash_cache_agree_with_full_rebuild(
        ops in proptest::collection::vec(op_strategy(), 1..60)
    ) {
        use selective_deletion::chain::FileStore;

        let users = users();
        let config = || ChainConfig {
            sequence_length: 3,
            retention: RetentionPolicy {
                max_live_blocks: Some(9),
                min_live_blocks: 3,
                min_live_summaries: 1,
                min_timespan: None,
                mode: RetireMode::MinimumNeeded,
            },
            ..Default::default()
        };
        // The same random workload drives both storage backends.
        let mut mem = SelectiveLedger::builder(config()).build();
        let mut unrooted = SelectiveLedger::builder(config())
            .store_backend::<FileStore>()
            .build();
        let mut now = Timestamp(0);
        // Every id ever observed live, as (id, owner index) — deletion
        // candidates and, at the end, lookup-agreement probes.
        let mut seen: Vec<(EntryId, usize)> = Vec::new();
        let mut submitted = 0u64;

        for op in ops {
            match op {
                Op::Submit { user, ttl } => {
                    let user = (user as usize) % users.len();
                    submitted += 1;
                    let record = DataRecord::new("log").with("n", submitted);
                    let expiry = ttl.map(|t| Expiry::AtTimestamp(now + (t as u64) * 10));
                    let entry = Entry::sign_data_with(&users[user], record, expiry, vec![]);
                    mem.submit_entry(entry.clone()).expect("valid entries accepted");
                    unrooted.submit_entry(entry).expect("valid entries accepted");
                }
                Op::SealBlock => {
                    now += 10;
                    mem.seal_block(now).expect("monotone time");
                    unrooted.seal_block(now).expect("monotone time");
                    for (id, record) in mem.chain().live_records() {
                        if !seen.iter().any(|(s, _)| *s == id) {
                            let owner = record.get("n").and_then(|v| v.as_u64());
                            // Recover the owner from the author key.
                            let author = mem.chain().locate(id).expect("live").author();
                            let owner = users
                                .iter()
                                .position(|k| k.verifying_key() == author)
                                .unwrap_or_else(|| panic!("unknown author for n={owner:?}"));
                            seen.push((id, owner));
                        }
                    }

                    // After every chain mutation (seal, automatic Σ, merge,
                    // truncate) the maintained index must equal a fresh
                    // full-scan rebuild, and every cached digest must equal
                    // recomputation (I1).
                    let chain = mem.chain();
                    prop_assert_eq!(chain.entry_index(), &chain.rebuilt_index());
                    prop_assert!(chain.verify_cached_hashes());
                    prop_assert_eq!(
                        chain.record_count() as usize,
                        chain.live_records().len(),
                        "index cardinality drifted from the live data sets (I3)"
                    );
                }
                Op::Delete { pick } => {
                    if seen.is_empty() { continue; }
                    let (id, owner) = seen[(pick as usize) % seen.len()];
                    match mem.request_deletion(&users[owner], id, "prop") {
                        Ok(()) => {
                            // Identical state on both backends → same verdict.
                            unrooted.request_deletion(&users[owner], id, "prop")
                                .expect("backends agree on deletion verdicts");
                        }
                        // DuplicatePending: the sharded mempool dedups a
                        // byte-identical request already waiting.
                        Err(CoreError::DuplicatePending) |
                        Err(CoreError::DuplicateDeletion(_)) |
                        Err(CoreError::TargetNotFound(_)) => {}
                        Err(other) => panic!("unexpected rejection: {other}"),
                    }
                }
            }
        }
        now += 10;
        mem.seal_block(now).expect("monotone time");
        unrooted.seal_block(now).expect("monotone time");

        let chain = mem.chain();
        prop_assert_eq!(chain.entry_index(), &chain.rebuilt_index());
        prop_assert!(chain.verify_cached_hashes());

        // The indexed lookup and the reference full scan agree on every id
        // ever observed, live or since gone (I3: nothing extra, nothing
        // missing), plus a never-existing probe.
        for (id, _) in &seen {
            prop_assert_eq!(chain.locate(*id), chain.locate_scan(*id), "id {}", id);
        }
        let ghost = EntryId::new(BlockNumber(u64::MAX - 1), EntryNumber(0));
        prop_assert_eq!(chain.locate(ghost), chain.locate_scan(ghost));

        // Backends are an implementation detail: bit-identical live chains.
        prop_assert_eq!(chain.export_bytes(), unrooted.chain().export_bytes());
        prop_assert_eq!(chain.tip_hash(), unrooted.chain().tip_hash());
        prop_assert_eq!(
            unrooted.chain().entry_index(),
            &unrooted.chain().rebuilt_index()
        );
    }
}

// ---------------------------------------------------------------------------
// Durable storage: FileStore close/reopen round-trips and §IV-C physical
// on-disk deletion.
//
// The cross-backend bit-identity property above covers in-memory backends;
// these extend it through the filesystem: a chain built on a disk-rooted
// FileStore, closed and reopened must be bit-identical (blocks, Σ
// summaries, entry index, sealed hashes) to the never-closed MemStore
// chain — and after pruning, deleted entry payloads must be absent from
// the store directory's raw bytes.
// ---------------------------------------------------------------------------

/// The retention shape every durable-storage property runs under (short
/// sequences, tight l_max — merges and prunes fire constantly).
fn durable_prop_config() -> ChainConfig {
    ChainConfig {
        sequence_length: 3,
        retention: RetentionPolicy {
            max_live_blocks: Some(9),
            min_live_blocks: 3,
            min_live_summaries: 1,
            min_timespan: None,
            mode: RetireMode::MinimumNeeded,
        },
        ..Default::default()
    }
}

/// Raw bytes of every file in a directory, concatenated.
fn dir_bytes(dir: &std::path::Path) -> Vec<u8> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).expect("store dir readable") {
        let path = entry.expect("dir entry").path();
        if path.is_file() {
            out.extend(std::fs::read(&path).expect("file readable"));
        }
    }
    out
}

fn contains_subslice(haystack: &[u8], needle: &[u8]) -> bool {
    !needle.is_empty() && haystack.windows(needle.len()).any(|w| w == needle)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn file_store_reopen_is_bit_identical_to_mem_store(
        ops in proptest::collection::vec(op_strategy(), 1..50)
    ) {
        use selective_deletion::chain::FileStore;

        let scratch = selective_deletion::chain::testutil::ScratchDir::new("roundtrip");
        let dir = scratch.path().to_path_buf();
        let users = users();
        let config = durable_prop_config;
        let mut mem = SelectiveLedger::builder(config()).build();
        // A one-block hot cache forces the paged read path (page-ins and
        // evictions) throughout the whole workload, not just past 1024
        // blocks — bit-identity must hold on the paged path too.
        let mut file = SelectiveLedger::builder(config())
            .store_backend::<FileStore>()
            .open_store(
                FileStore::open_with_capacity(&dir, 4)
                    .expect("store opens")
                    .with_hot_cache_capacity(1),
            )
            .expect("fresh store");
        let mut now = Timestamp(0);
        let mut submitted = 0u64;
        let mut seen: Vec<(EntryId, usize)> = Vec::new();

        for op in ops {
            match op {
                Op::Submit { user, ttl } => {
                    let user = (user as usize) % users.len();
                    submitted += 1;
                    let record = DataRecord::new("log").with("n", submitted);
                    let expiry = ttl.map(|t| Expiry::AtTimestamp(now + (t as u64) * 10));
                    let entry = Entry::sign_data_with(&users[user], record, expiry, vec![]);
                    mem.submit_entry(entry.clone()).expect("valid");
                    file.submit_entry(entry).expect("valid");
                }
                Op::SealBlock => {
                    now += 10;
                    mem.seal_block(now).expect("monotone");
                    file.seal_block(now).expect("monotone");
                    for (id, _) in mem.chain().live_records() {
                        if !seen.iter().any(|(s, _)| *s == id) {
                            let author = mem.chain().locate(id).expect("live").author();
                            let owner = users
                                .iter()
                                .position(|k| k.verifying_key() == author)
                                .expect("workload author");
                            seen.push((id, owner));
                        }
                    }
                }
                Op::Delete { pick } => {
                    if seen.is_empty() { continue; }
                    let (id, owner) = seen[(pick as usize) % seen.len()];
                    match mem.request_deletion(&users[owner], id, "prop") {
                        Ok(()) => {
                            file.request_deletion(&users[owner], id, "prop")
                                .expect("backends agree on deletion verdicts");
                        }
                        // DuplicatePending: the sharded mempool dedups a
                        // byte-identical request already waiting.
                        Err(CoreError::DuplicatePending) |
                        Err(CoreError::DuplicateDeletion(_)) |
                        Err(CoreError::TargetNotFound(_)) => {}
                        Err(other) => panic!("unexpected rejection: {other}"),
                    }
                }
            }
        }
        now += 10;
        mem.seal_block(now).expect("monotone");
        file.seal_block(now).expect("monotone");
        prop_assert_eq!(mem.chain().export_bytes(), file.chain().export_bytes());

        // Close and reopen: the recovered ledger must be bit-identical to
        // the never-closed MemStore chain — blocks, Σ summaries, entry
        // index and sealed hashes.
        drop(file);
        let reopened = SelectiveLedger::builder(config())
            .store_backend::<FileStore>()
            .on_disk(&dir)
            .expect("recovery succeeds");
        prop_assert_eq!(mem.chain().export_bytes(), reopened.chain().export_bytes());
        prop_assert_eq!(mem.chain().tip_hash(), reopened.chain().tip_hash());
        prop_assert_eq!(
            mem.chain().entry_index().iter().collect::<Vec<_>>(),
            reopened.chain().entry_index().iter().collect::<Vec<_>>()
        );
        prop_assert!(mem
            .chain()
            .iter_sealed()
            .map(|sealed| sealed.hash())
            .eq(reopened
                .chain()
                .iter_sealed()
                .map(|sealed| sealed.hash())));
        prop_assert_eq!(reopened.chain().entry_index(), &reopened.chain().rebuilt_index());
        prop_assert!(reopened.chain().verify_cached_hashes());
        // Lookups agree on every id ever observed, live or gone.
        for (id, _) in &seen {
            prop_assert_eq!(reopened.chain().locate(*id), mem.chain().locate(*id), "id {}", id);
            prop_assert_eq!(reopened.chain().locate(*id), reopened.chain().locate_scan(*id));
        }
    }

    /// §IV-C physical deletion check: after the deletion of a
    /// sentinel-carrying entry executes, the sentinel bytes must not
    /// appear anywhere in the store directory — not in live segments, not
    /// in the manifest, not in any leftover file.
    #[test]
    fn file_store_physical_deletion_removes_sentinel_bytes(
        sentinel_seed in any::<[u8; 16]>(),
        filler in 1u8..4,
    ) {
        use selective_deletion::chain::FileStore;

        let scratch = selective_deletion::chain::testutil::ScratchDir::new("sentinel");
        let dir = scratch.path().to_path_buf();
        // High-entropy sentinel: false positives are ~impossible.
        let sentinel: String = sentinel_seed
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect::<String>() + "-SENTINEL";
        let users = users();
        let mut ledger = SelectiveLedger::builder(durable_prop_config())
            .store_backend::<FileStore>()
            .open_store(FileStore::open_with_capacity(&dir, 4).expect("store opens"))
            .expect("fresh store");

        // Block 1: the sentinel entry plus some filler.
        let owner = 0usize;
        ledger
            .submit_entry(Entry::sign_data(
                &users[owner],
                DataRecord::new("log").with("secret", sentinel.as_str()),
            ))
            .expect("valid");
        for f in 0..filler {
            ledger
                .submit_entry(Entry::sign_data(
                    &users[1],
                    DataRecord::new("log").with("n", f as u64),
                ))
                .expect("valid");
        }
        let mut now = Timestamp(10);
        ledger.seal_block(now).expect("monotone");
        let target = EntryId::new(BlockNumber(1), EntryNumber(0));
        prop_assert!(
            contains_subslice(&dir_bytes(&dir), sentinel.as_bytes()),
            "sentinel must be on disk while the entry lives"
        );

        // Delete it, then drive merges until the deletion executes.
        now += 10;
        ledger
            .request_deletion(&users[owner], target, "erase me")
            .expect("owner may delete");
        ledger.seal_block(now).expect("monotone");
        for _ in 0..30 {
            now += 10;
            ledger.seal_block(now).expect("monotone");
            if ledger.record(target).is_none() {
                break;
            }
        }
        prop_assert!(ledger.record(target).is_none(), "deletion never executed");
        prop_assert_eq!(ledger.stats().executed_deletions, 1);

        // The physical-deletion bar: zero occurrences in the raw bytes.
        prop_assert!(
            !contains_subslice(&dir_bytes(&dir), sentinel.as_bytes()),
            "sentinel bytes survived on disk after physical deletion"
        );

        // And the survivor chain still reopens cleanly.
        drop(ledger);
        let reopened = SelectiveLedger::builder(durable_prop_config())
            .store_backend::<FileStore>()
            .on_disk(&dir)
            .expect("recovery succeeds");
        prop_assert!(reopened.record(target).is_none());
    }
}

// ---------------------------------------------------------------------------
// Shard subsystem: the ShardedIndex must answer every query bit-identically
// to the monolithic EntryIndex oracle — across random workloads (inserts,
// deletions, TTL expiry), the marker shifts those trigger, every storage
// backend, and a close/reopen of the durable backend (whose recovery
// rebuilds the index during its linkage walk).
// ---------------------------------------------------------------------------

/// Asserts that a chain's sharded index, its locate paths and the batch
/// `locate_many` all agree with the monolithic oracle on every probe.
fn assert_probes_match_oracle<S: selective_deletion::chain::BlockStore>(
    chain: &selective_deletion::chain::Blockchain<S>,
    oracle: &selective_deletion::chain::EntryIndex,
    probes: &[EntryId],
) {
    for id in probes {
        assert_eq!(chain.entry_index().get(*id), oracle.get(*id), "id {id}");
        assert_eq!(chain.entry_index().contains(*id), oracle.get(*id).is_some());
        assert_eq!(chain.locate(*id), chain.locate_scan(*id), "id {id}");
    }
    // The batch path equals element-wise lookups.
    let batch = chain.locate_many(probes);
    for (id, got) in probes.iter().zip(&batch) {
        assert_eq!(*got, chain.locate(*id), "id {id}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn sharded_index_queries_match_the_monolithic_oracle(
        ops in proptest::collection::vec(op_strategy(), 1..50),
    ) {
        use selective_deletion::chain::FileStore;

        let scratch = selective_deletion::chain::testutil::ScratchDir::new("shardprop");
        let dir = scratch.path().to_path_buf();
        let users = users();
        let config = durable_prop_config;
        let mut mem = SelectiveLedger::builder(config()).build();
        let mut unrooted = SelectiveLedger::builder(config())
            .store_backend::<FileStore>()
            .build();
        let mut file = SelectiveLedger::builder(config())
            .store_backend::<FileStore>()
            .open_store(FileStore::open_with_capacity(&dir, 4).expect("store opens"))
            .expect("fresh store");
        let mut now = Timestamp(0);
        let mut submitted = 0u64;
        let mut seen: Vec<(EntryId, usize)> = Vec::new();

        for op in ops {
            match op {
                Op::Submit { user, ttl } => {
                    let user = (user as usize) % users.len();
                    submitted += 1;
                    let record = DataRecord::new("log").with("n", submitted);
                    let expiry = ttl.map(|t| Expiry::AtTimestamp(now + (t as u64) * 10));
                    let entry = Entry::sign_data_with(&users[user], record, expiry, vec![]);
                    mem.submit_entry(entry.clone()).expect("valid");
                    unrooted.submit_entry(entry.clone()).expect("valid");
                    file.submit_entry(entry).expect("valid");
                }
                Op::SealBlock => {
                    now += 10;
                    mem.seal_block(now).expect("monotone");
                    unrooted.seal_block(now).expect("monotone");
                    file.seal_block(now).expect("monotone");
                    for (id, _) in mem.chain().live_records() {
                        if !seen.iter().any(|(s, _)| *s == id) {
                            let author = mem.chain().locate(id).expect("live").author();
                            let owner = users
                                .iter()
                                .position(|k| k.verifying_key() == author)
                                .expect("workload author");
                            seen.push((id, owner));
                        }
                    }
                    // After every mutation (seal, Σ, merge, marker shift):
                    // sharded maintained state == monolithic rebuild.
                    prop_assert_eq!(mem.chain().entry_index(), &mem.chain().rebuilt_index());
                    prop_assert_eq!(unrooted.chain().entry_index(), &unrooted.chain().rebuilt_index());
                    prop_assert_eq!(file.chain().entry_index(), &file.chain().rebuilt_index());
                }
                Op::Delete { pick } => {
                    if seen.is_empty() { continue; }
                    let (id, owner) = seen[(pick as usize) % seen.len()];
                    match mem.request_deletion(&users[owner], id, "prop") {
                        Ok(()) => {
                            unrooted.request_deletion(&users[owner], id, "prop")
                                .expect("backends agree on deletion verdicts");
                            file.request_deletion(&users[owner], id, "prop")
                                .expect("backends agree on deletion verdicts");
                        }
                        Err(CoreError::DuplicatePending) |
                        Err(CoreError::DuplicateDeletion(_)) |
                        Err(CoreError::TargetNotFound(_)) => {}
                        Err(other) => panic!("unexpected rejection: {other}"),
                    }
                }
            }
        }
        now += 10;
        mem.seal_block(now).expect("monotone");
        unrooted.seal_block(now).expect("monotone");
        file.seal_block(now).expect("monotone");

        // Probe set: every id ever live, plus a ghost that never existed.
        let mut probes: Vec<EntryId> = seen.iter().map(|(id, _)| *id).collect();
        probes.push(EntryId::new(BlockNumber(u64::MAX - 1), EntryNumber(0)));

        for (label, chain) in [
            ("mem", mem.chain().export_bytes()),
            ("unrooted", unrooted.chain().export_bytes()),
            ("file", file.chain().export_bytes()),
        ] {
            prop_assert_eq!(&chain, &mem.chain().export_bytes(), "{} diverged", label);
        }
        // Probe-level equivalence on every backend (the helper is generic
        // over the store type).
        let oracle = mem.chain().rebuilt_index();
        assert_probes_match_oracle(mem.chain(), &oracle, &probes);
        assert_probes_match_oracle(unrooted.chain(), &oracle, &probes);
        assert_probes_match_oracle(file.chain(), &oracle, &probes);

        // Close/reopen the durable backend: recovery's index rebuild must
        // reproduce the same answers.
        drop(file);
        let reopened = SelectiveLedger::builder(config())
            .store_backend::<FileStore>()
            .on_disk(&dir)
            .expect("recovery succeeds");
        prop_assert_eq!(reopened.chain().entry_index(), &oracle);
        let batch = reopened.chain().locate_many(&probes);
        for (id, got) in probes.iter().zip(&batch) {
            prop_assert_eq!(*got, mem.chain().locate(*id), "id {}", id);
        }
        let audited = reopened.audit_live(&probes);
        for (id, live) in probes.iter().zip(&audited) {
            prop_assert_eq!(*live, reopened.is_live(*id), "id {}", id);
        }
    }
}

// ---------------------------------------------------------------------------
// I2: summary determinism
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn i2_identical_histories_identical_tips(blocks in 1u64..20) {
        let drive = || {
            let key = SigningKey::from_seed([9u8; 32]);
            let mut ledger = SelectiveLedger::new(ChainConfig::paper_evaluation());
            for i in 1..=blocks {
                ledger
                    .submit_entry(Entry::sign_data(
                        &key,
                        DataRecord::new("log").with("n", i),
                    ))
                    .expect("valid");
                ledger.seal_block(Timestamp(i * 10)).expect("monotone");
            }
            ledger
        };
        let a = drive();
        let b = drive();
        prop_assert_eq!(a.chain().tip().hash(), b.chain().tip().hash());
        prop_assert_eq!(a.chain().export_bytes(), b.chain().export_bytes());
    }
}
