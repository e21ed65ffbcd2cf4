//! Policy erasure ≡ sequential oracle: one bulk [`apply_policy`] and a
//! one-at-a-time [`request_deletion`] loop over the same plan must be
//! indistinguishable on-chain — the same blocks byte for byte, the same
//! Merkle payload roots, the same entry index and Σ records — on every
//! storage backend. The bulk path earns its existence
//! purely as an ergonomic/performance front door; the moment it could
//! produce a chain the sequential path could not, replicas replaying one
//! side would diverge from replicas replaying the other.
//!
//! [`apply_policy`]: seldel_core::SelectiveLedger::apply_policy
//! [`request_deletion`]: seldel_core::SelectiveLedger::request_deletion

use seldel_chain::testutil::ScratchDir;
use seldel_chain::{BlockStore, FileStore, MemStore, Timestamp};
use seldel_core::{CompiledPolicy, Role, RoleTable, SelectiveLedger, Selector};
use seldel_crypto::SigningKey;
use seldel_sim::{drive_multi_tenant, tenant_chain_config, TenantConfig};

/// The workload's tenant key derivation (rank ↦ deterministic seed),
/// mirrored so the policy can name authors the workload actually uses.
fn tenant_key(rank: usize) -> SigningKey {
    let mut seed = [0u8; 32];
    seed[..8].copy_from_slice(&(rank as u64 + 1).to_le_bytes());
    seed[31] = 0xA7;
    SigningKey::from_seed(seed)
}

/// The compliance officer allowed to erase foreign records.
fn admin_key() -> SigningKey {
    SigningKey::from_seed([0xAD; 32])
}

fn oracle_cfg() -> TenantConfig {
    TenantConfig {
        authors: 12,
        zipf_s: 1.0,
        blocks: 48,
        entries_per_block: 5,
        delete_every: 9,
        query_batch: 0,
        sequence_length: 4,
        l_max: 24,
        max_block_entries: None,
        seed: 0xBEEF,
    }
}

/// Erase the hot tenant and one mid-tail tenant, but only records old
/// enough to have been carried through at least one summary merge — so
/// the sweep exercises both normal and Σ blocks.
fn sweep_policy() -> CompiledPolicy {
    Selector::And(vec![
        Selector::AuthorIn(vec![
            tenant_key(0).verifying_key(),
            tenant_key(3).verifying_key(),
        ]),
        Selector::OlderThan(Timestamp(30 * 10)),
    ])
    .compile("oracle-sweep")
    .expect("well-formed selector")
}

fn build_ledger<S: BlockStore>(cfg: &TenantConfig) -> SelectiveLedger<S> {
    SelectiveLedger::builder(tenant_chain_config(cfg))
        .roles(RoleTable::new().with(admin_key().verifying_key(), Role::Admin))
        .store_backend::<S>()
        .build()
}

/// Drives the same workload into both ledgers, erases via the bulk policy
/// path on one and the sequential oracle on the other, runs both to
/// physical pruning on identical clocks, and asserts the chains are
/// bit-identical. Returns the final export for cross-combo comparison.
fn run_pair<A: BlockStore, B: BlockStore>(
    via_policy: SelectiveLedger<A>,
    via_oracle: SelectiveLedger<B>,
    cfg: &TenantConfig,
) -> Vec<u8> {
    let (mut via_policy, report_p) = drive_multi_tenant(via_policy, cfg);
    let (mut via_oracle, report_o) = drive_multi_tenant(via_oracle, cfg);
    assert_eq!(report_p, report_o, "workload itself diverged");

    let admin = admin_key();
    let policy = sweep_policy();

    let applied = via_policy
        .apply_policy(&admin, &policy)
        .expect("admin bulk erasure is authorised");
    assert!(
        applied.len() >= 2,
        "the policy must bite for the test to mean anything: {applied:?}"
    );

    // The oracle sees the identical plan, then issues each deletion the
    // pedestrian way, in the plan's (sorted) order and with the policy's
    // own reason string.
    let planned = via_oracle.plan_policy(&admin.verifying_key(), &policy);
    assert_eq!(
        applied, planned,
        "apply reported a different plan than dry-run"
    );
    for id in planned.matched() {
        via_oracle
            .request_deletion(&admin, *id, policy.reason())
            .expect("every planned id validates individually");
    }

    // Identical clocks through marking, execution at the merge, and
    // physical pruning of the retired sequences.
    let mut now = cfg.blocks * 10;
    for _ in 0..(cfg.l_max + 2 * cfg.sequence_length) {
        now += 10;
        via_policy
            .seal_block(Timestamp(now))
            .expect("monotone time");
        via_oracle
            .seal_block(Timestamp(now))
            .expect("monotone time");
    }

    // Both sides physically erased every matched record...
    assert!(via_policy.audit_live(applied.matched()).iter().all(|l| !l));
    assert!(via_oracle.audit_live(applied.matched()).iter().all(|l| !l));

    // ...and the chains are indistinguishable: bytes, tip, per-block
    // Merkle commitments, and a from-scratch index rebuild.
    let bytes_p = via_policy.chain().export_bytes();
    let bytes_o = via_oracle.chain().export_bytes();
    assert_eq!(
        bytes_p, bytes_o,
        "bulk apply and sequential oracle diverged"
    );
    assert_eq!(via_policy.chain().tip_hash(), via_oracle.chain().tip_hash());
    for (p, o) in via_policy.chain().iter().zip(via_oracle.chain().iter()) {
        assert_eq!(
            p.header().payload_hash,
            o.header().payload_hash,
            "Merkle roots diverge at block {}",
            p.number()
        );
    }
    assert_eq!(
        via_policy.chain().entry_index(),
        &via_policy.chain().rebuilt_index()
    );
    assert_eq!(
        via_oracle.chain().entry_index(),
        &via_oracle.chain().rebuilt_index()
    );
    bytes_p
}

#[test]
fn bulk_policy_apply_is_indistinguishable_from_a_sequential_oracle() {
    let cfg = oracle_cfg();
    let mut exports: Vec<(&str, Vec<u8>)> = Vec::new();

    let bytes = run_pair(
        build_ledger::<MemStore>(&cfg),
        build_ledger::<MemStore>(&cfg),
        &cfg,
    );
    exports.push(("mem", bytes));

    // Unrooted (resident) FileStore pair.
    let bytes = run_pair(
        build_ledger::<FileStore>(&cfg),
        build_ledger::<FileStore>(&cfg),
        &cfg,
    );
    exports.push(("unrooted", bytes));

    // Durable pair — and deliberately mixed backends: the FileStore bulk
    // side must match the MemStore oracle too.
    let scratch = ScratchDir::new("policy-oracle");
    let durable = SelectiveLedger::builder(tenant_chain_config(&cfg))
        .roles(RoleTable::new().with(admin_key().verifying_key(), Role::Admin))
        .store_backend::<FileStore>()
        .on_disk(scratch.path())
        .expect("fresh store opens");
    let bytes = run_pair(durable, build_ledger::<MemStore>(&cfg), &cfg);
    exports.push(("file", bytes));

    // Backends are invisible to the sealed chain, so every combination
    // must have produced the very same bytes.
    let (first_tag, first) = &exports[0];
    for (tag, bytes) in &exports[1..] {
        assert_eq!(bytes, first, "{tag} diverged from {first_tag}");
    }
}

/// The E13 policy sweep's correctness checks: every selector leaf and
/// combinator compiles, each policy bites on the multi-tenant workload,
/// the admin is authorised to apply it, and every matched record is
/// physically erased within 4·l_max sealed blocks of the apply (deletions
/// execute at the covering merge, E2).
#[test]
fn every_sweep_policy_erases_its_matches_within_four_l_max_blocks() {
    let cfg = TenantConfig {
        authors: 16,
        zipf_s: 1.05,
        blocks: 120,
        entries_per_block: 6,
        delete_every: 17,
        query_batch: 0,
        sequence_length: 5,
        l_max: 30,
        max_block_entries: None,
        ..TenantConfig::default()
    };
    let (base, _) = drive_multi_tenant(build_ledger::<MemStore>(&cfg), &cfg);
    let mid = Timestamp(cfg.blocks / 2 * 10);
    let early = Timestamp(cfg.blocks / 4 * 10);
    let sweep = [
        Selector::And(vec![
            Selector::AuthorIs(tenant_key(0).verifying_key()),
            Selector::OlderThan(mid),
        ])
        .compile("hot-tenant-aged"),
        Selector::AuthorIn((5..13).map(|r| tenant_key(r).verifying_key()).collect())
            .compile("tail-cohort"),
        Selector::And(vec![
            Selector::SchemaIs("tenant".to_string()),
            Selector::OlderThan(early),
        ])
        .compile("schema-aged"),
        Selector::And(vec![
            Selector::Ttl(seldel_core::TtlClass::Permanent),
            Selector::Or(vec![
                Selector::AuthorIs(tenant_key(1).verifying_key()),
                Selector::AuthorIs(tenant_key(2).verifying_key()),
            ]),
            Selector::OlderThan(mid),
        ])
        .compile("permanent-pair-aged"),
    ];

    let admin = admin_key();
    for policy in sweep {
        let policy = policy.expect("well-formed selector");
        let mut ledger = base.clone();
        let plan = ledger
            .apply_policy(&admin, &policy)
            .expect("admin bulk erasure is authorised");
        assert!(!plan.is_empty(), "policy {:?} matched nothing", plan.policy);
        let mut now = cfg.blocks * 10;
        let mut sealed = 0u64;
        while ledger.audit_live(plan.matched()).iter().any(|live| *live) {
            assert!(
                sealed < 4 * cfg.l_max,
                "erasure failed to converge for {:?}",
                plan.policy
            );
            now += 10;
            ledger.seal_block(Timestamp(now)).expect("monotone time");
            sealed += 1;
        }
    }
}
