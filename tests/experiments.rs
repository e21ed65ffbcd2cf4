//! Exact checks for the evaluation rows E3, E4c, E5 and E6a
//! (EXPERIMENTS.md). Every workload is seeded and untimed, so each value
//! below is a deterministic count or byte size, pinned exactly.

use selective_deletion::chain::validate_full;
use selective_deletion::network::{NetConfig, NodeId, SimNetwork};
use selective_deletion::node::{AnchorNode, NodeMessage};
use selective_deletion::prelude::*;
use selective_deletion::sim::growth::{growth_chain_config, GrowthConfig};

fn log_entry(key: &SigningKey, n: u64, payload_bytes: usize) -> Entry {
    Entry::sign_data(
        key,
        DataRecord::new("log")
            .with("n", n)
            .with("payload", "x".repeat(payload_bytes).as_str()),
    )
}

/// Sequence length `l`, pruning past `l_max` live blocks, minimum-needed
/// retirement, no anchoring.
fn retention(l: u64, l_max: u64) -> ChainConfig {
    growth_chain_config(&GrowthConfig {
        sequence_length: l,
        l_max,
        ..GrowthConfig::default()
    })
}

/// E3 (§V-B2): "summary blocks … become larger over time". The first merge
/// (Σ39 at l = 10, l_max = 20) carries the nine payload blocks of sequence
/// [10..19]; its size is a fixed header plus 194 bytes per carried record
/// (32-byte payloads), so it grows linearly with the entries per block.
#[test]
fn e3_sigma_size_is_linear_in_carried_records() {
    let key = SigningKey::from_seed([0xBE; 32]);
    let mut carried = Vec::new();
    for per_block in [2u64, 8, 32, 64] {
        let mut ledger = SelectiveLedger::new(retention(10, 20));
        let (mut n, mut b) = (0, 0);
        while ledger.chain().tip().number() < BlockNumber(39) {
            b += 1;
            for _ in 0..per_block {
                n += 1;
                ledger.submit_entry(log_entry(&key, n, 32)).unwrap();
            }
            ledger.seal_block(Timestamp(b * 10)).unwrap();
        }
        let sigma = ledger.chain().get(BlockNumber(39)).unwrap();
        assert_eq!(sigma.kind(), BlockKind::Summary);
        assert_eq!(ledger.chain().marker(), BlockNumber(20));
        let records = sigma.summary_records().len();
        assert_eq!(sigma.byte_size(), 92 + 194 * records);
        carried.push(records);
    }
    assert_eq!(carried, [18, 72, 288, 576]);
}

/// E3 (§V-B2): permanent records accumulate across merge cycles — each
/// Σ carrying records holds at least as many as the one before it.
#[test]
fn e3_sigma_records_never_decrease_across_merge_cycles() {
    let key = SigningKey::from_seed([0xBE; 32]);
    let mut ledger = SelectiveLedger::new(retention(5, 15));
    let mut rows = Vec::new();
    let mut b = 0u64;
    while rows.len() < 8 {
        b += 1;
        ledger.submit_entry(log_entry(&key, b, 64)).unwrap();
        ledger.seal_block(Timestamp(b * 10)).unwrap();
        let tip = ledger.chain().tip();
        if tip.kind() == BlockKind::Summary && !tip.summary_records().is_empty() {
            let records = tip.summary_records().len();
            assert_eq!(tip.byte_size(), 92 + 226 * records);
            rows.push((tip.number().value(), records));
        }
    }
    assert!(rows.windows(2).all(|w| w[0].1 <= w[1].1), "{rows:?}");
    assert_eq!(
        rows,
        [
            (19, 3),
            (24, 4),
            (29, 4),
            (34, 7),
            (39, 8),
            (44, 8),
            (49, 11),
            (54, 12)
        ]
    );
}

/// E4c (§IV-B): a summary-derivation difference "would result in a fork",
/// and comparing Σ hashes exposes it. A leader and one replica run the
/// paper's configuration (l = 3, l_max = 6); a second replica prunes past
/// l_max = 9 instead, so it derives different Σ blocks. It flags
/// mismatches against the leader's checks, the others flag its checks,
/// and it heals by re-adopting the leader's chain. (With equal retention
/// nothing mismatches; E4a's test in `seldel-node` holds that.)
#[test]
fn e4c_sigma_hash_check_detects_divergent_retention() {
    let mut net = SimNetwork::new(NetConfig::default());
    let leader = NodeId(0);
    let ids: Vec<NodeId> = [6, 6, 9]
        .into_iter()
        .map(|l_max| {
            let mut config = ChainConfig::paper_evaluation();
            config.retention.max_live_blocks = Some(l_max);
            net.add_node(Box::new(AnchorNode::new(
                SelectiveLedger::new(config),
                leader,
                100,
            )))
        })
        .collect();
    for id in &ids {
        net.schedule_tick(*id, 100);
    }
    let key = SigningKey::from_seed([0x31; 32]);
    for i in 0..20u64 {
        net.send_external(ids[0], NodeMessage::Submit(log_entry(&key, i, 0)));
        net.run_until(net.now() + 100);
    }
    net.run_until(net.now() + 500);
    let stats: Vec<_> = ids
        .iter()
        .map(|id| net.node_as::<AnchorNode>(*id).unwrap().stats())
        .collect();

    let outlier = stats[2];
    assert!(outlier.sync_mismatches >= 1);
    assert_eq!(outlier.sync_mismatches, 8);
    assert_eq!(outlier.blocks_rejected, 5);
    assert_eq!(outlier.chains_adopted, 5);
    for honest in &stats[..2] {
        assert_eq!(honest.sync_mismatches, 5);
        assert_eq!(honest.chains_adopted, 0);
    }
}

/// The §II audit-log workload: two entries per block, each expiring
/// 1000 virtual ms (100 blocks) after submission; `bounded` prunes past
/// l_max = 40 (l = 10), otherwise nothing is ever pruned.
fn ttl_ledger(appended: u64, bounded: bool) -> SelectiveLedger {
    let key = SigningKey::from_seed([0xBE; 32]);
    let config = if bounded {
        retention(10, 40)
    } else {
        ChainConfig {
            sequence_length: 10,
            retention: RetentionPolicy::keep_forever(),
            ..ChainConfig::default()
        }
    };
    let mut ledger = SelectiveLedger::new(config);
    let mut n = 0u64;
    for b in 1..=appended {
        let ts = Timestamp(b * 10);
        for _ in 0..2 {
            n += 1;
            ledger
                .submit_entry(Entry::sign_data_with(
                    &key,
                    DataRecord::new("log").with("n", n),
                    Some(Expiry::AtTimestamp(Timestamp(ts.millis() + 1000))),
                    vec![],
                ))
                .unwrap();
        }
        ledger.seal_block(ts).unwrap();
    }
    ledger
}

/// E5 (§V-B3): a joining node validates "from its current status quo".
/// Under a retention window the signatures one full validation verifies
/// (entries plus carried records) plateau; on the unbounded chain they
/// are every entry ever appended.
#[test]
fn e5_validation_work_plateaus_under_retention() {
    let mut verified = Vec::new();
    for appended in [100u64, 200, 400, 800] {
        let selective = ttl_ledger(appended, true);
        let report = validate_full(selective.chain()).unwrap();
        let count = report.entries_verified + report.records_verified;
        assert_eq!(count, selective.stats().live_records);
        verified.push(count);

        let unbounded = ttl_ledger(appended, false);
        let report = validate_full(unbounded.chain()).unwrap();
        assert_eq!(report.entries_verified, 2 * appended);
        assert_eq!(report.records_verified, 0);
    }
    assert_eq!(verified, [200, 222, 226, 216]);
}

/// E6a (§IV-D4): one permanent, one τ-expiring (τ = 120) and one
/// α-expiring (α = 12) entry per block under the paper's configuration.
/// Expired entries stay live until the first merge past their bound and
/// are then not copied; `(tip, live, expired)` every fourth block.
#[test]
fn e6a_expired_entries_vanish_at_the_next_merge() {
    let key = SigningKey::from_seed([0x41; 32]);
    let mut ledger = SelectiveLedger::new(ChainConfig::paper_evaluation());
    let mut rows = Vec::new();
    for b in 1..=24u64 {
        let entry = |kind: &str, expiry| {
            Entry::sign_data_with(
                &key,
                DataRecord::new("log").with("kind", kind).with("n", b),
                expiry,
                vec![],
            )
        };
        ledger.submit_entry(entry("permanent", None)).unwrap();
        let tau = Expiry::AtTimestamp(Timestamp(120));
        ledger.submit_entry(entry("tau", Some(tau))).unwrap();
        let alpha = Expiry::AtBlock(BlockNumber(12));
        ledger.submit_entry(entry("alpha", Some(alpha))).unwrap();
        ledger.seal_block(Timestamp(b * 10)).unwrap();
        if b % 4 == 0 {
            let stats = ledger.stats();
            rows.push((stats.tip.value(), stats.live_records, stats.expired_records));
        }
    }
    assert_eq!(
        rows,
        [
            (6, 12, 0),
            (12, 24, 0),
            (18, 29, 7),
            (24, 26, 22),
            (30, 30, 30),
            (36, 34, 38)
        ]
    );
}
