//! Shared fixtures for the benchmark suite and the experiment binaries.
//!
//! Every table and figure of the paper's evaluation has a regenerator in
//! this crate: criterion benches (`benches/`) measure the mechanisms,
//! `src/bin/exp_*.rs` print the experiment tables, and `src/bin/figures.rs`
//! replays the console outputs of Figs. 6–8. See EXPERIMENTS.md at the
//! workspace root for the index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use seldel_chain::{BlockStore, Entry, MemStore, Timestamp};
use seldel_codec::DataRecord;
use seldel_core::{ChainConfig, RetentionPolicy, RetireMode, SelectiveLedger};
use seldel_crypto::SigningKey;

pub mod paging;
pub mod report;

/// Deterministic workload key shared by fixtures.
pub fn workload_key() -> SigningKey {
    SigningKey::from_seed([0xBE; 32])
}

/// A signed log entry with `payload_bytes` of filler.
pub fn workload_entry(key: &SigningKey, n: u64, payload_bytes: usize) -> Entry {
    Entry::sign_data(
        key,
        DataRecord::new("log")
            .with("n", n)
            .with("payload", "x".repeat(payload_bytes).as_str()),
    )
}

/// A ledger configuration with sequence length `l` and limit `l_max`
/// (minimum-needed retirement, no anchoring).
pub fn bench_config(l: u64, l_max: u64) -> ChainConfig {
    ChainConfig {
        sequence_length: l,
        retention: RetentionPolicy {
            max_live_blocks: Some(l_max),
            min_live_blocks: l,
            min_live_summaries: 1,
            min_timespan: None,
            mode: RetireMode::MinimumNeeded,
        },
        ..Default::default()
    }
}

/// Builds a ledger and drives `blocks` payload blocks of `entries_per_block`
/// entries each through it.
pub fn build_ledger(
    l: u64,
    l_max: u64,
    blocks: u64,
    entries_per_block: usize,
    payload_bytes: usize,
) -> SelectiveLedger {
    build_ledger_in::<MemStore>(l, l_max, blocks, entries_per_block, payload_bytes)
}

/// [`build_ledger`] on an explicit storage backend.
pub fn build_ledger_in<S: BlockStore>(
    l: u64,
    l_max: u64,
    blocks: u64,
    entries_per_block: usize,
    payload_bytes: usize,
) -> SelectiveLedger<S> {
    let ledger = SelectiveLedger::builder(bench_config(l, l_max))
        .store_backend::<S>()
        .build();
    drive_ledger(ledger, blocks, entries_per_block, payload_bytes)
}

/// [`build_ledger`] over a caller-provided store instance — the way to
/// bench a **rooted** durable backend (e.g. a `FileStore` opened on a
/// scratch directory) instead of its in-memory default.
pub fn build_ledger_with_store<S: BlockStore>(
    store: S,
    l: u64,
    l_max: u64,
    blocks: u64,
    entries_per_block: usize,
    payload_bytes: usize,
) -> SelectiveLedger<S> {
    let ledger = SelectiveLedger::builder(bench_config(l, l_max))
        .store_backend::<S>()
        .open_store(store)
        .expect("bench stores open on fresh directories");
    drive_ledger(ledger, blocks, entries_per_block, payload_bytes)
}

fn drive_ledger<S: BlockStore>(
    mut ledger: SelectiveLedger<S>,
    blocks: u64,
    entries_per_block: usize,
    payload_bytes: usize,
) -> SelectiveLedger<S> {
    let key = workload_key();
    let mut counter = 0u64;
    for b in 1..=blocks {
        for _ in 0..entries_per_block {
            counter += 1;
            ledger
                .submit_entry(workload_entry(&key, counter, payload_bytes))
                .expect("workload entries are valid");
        }
        ledger.seal_block(Timestamp(b * 10)).expect("monotone time");
    }
    ledger
}

/// Like [`build_ledger`] but every entry expires `ttl_ms` of virtual time
/// after submission — the logging-with-retention workload the paper's §II
/// use case describes. Pass `bounded: false` for the unbounded comparator
/// (expired entries are never cleaned because no merges happen).
pub fn build_ttl_ledger(
    l: u64,
    l_max: u64,
    blocks: u64,
    entries_per_block: usize,
    ttl_ms: u64,
    bounded: bool,
) -> SelectiveLedger {
    let key = workload_key();
    let config = if bounded {
        bench_config(l, l_max)
    } else {
        ChainConfig {
            sequence_length: l,
            retention: RetentionPolicy::keep_forever(),
            ..Default::default()
        }
    };
    let mut ledger = SelectiveLedger::new(config);
    let mut counter = 0u64;
    for b in 1..=blocks {
        let ts = Timestamp(b * 10);
        for _ in 0..entries_per_block {
            counter += 1;
            let entry = Entry::sign_data_with(
                &key,
                DataRecord::new("log").with("n", counter),
                Some(seldel_chain::Expiry::AtTimestamp(Timestamp(
                    ts.millis() + ttl_ms,
                ))),
                vec![],
            );
            ledger
                .submit_entry(entry)
                .expect("workload entries are valid");
        }
        ledger.seal_block(ts).expect("monotone time");
    }
    ledger
}

/// An unbounded ledger (baseline-like retention) for validation benches.
pub fn build_unbounded_ledger(blocks: u64, entries_per_block: usize) -> SelectiveLedger {
    let key = workload_key();
    let mut ledger = SelectiveLedger::new(ChainConfig {
        sequence_length: 10,
        retention: RetentionPolicy::keep_forever(),
        ..Default::default()
    });
    let mut counter = 0u64;
    for b in 1..=blocks {
        for _ in 0..entries_per_block {
            counter += 1;
            ledger
                .submit_entry(workload_entry(&key, counter, 32))
                .expect("workload entries are valid");
        }
        ledger.seal_block(Timestamp(b * 10)).expect("monotone time");
    }
    ledger
}

/// Builds a chain **manually** under `config`, filling summary slots via
/// [`seldel_core::build_summary_block`] with an empty deletion registry,
/// and stops with the tip at `tip` — callers pick a `tip` such that
/// `tip + 1` is a summary slot to drive the next Σ themselves (the ledger
/// API fills slots eagerly, so this is the only way to observe slot
/// construction from outside).
pub fn manual_chain(
    config: ChainConfig,
    tip: u64,
    entries_per_block: usize,
) -> (seldel_chain::Blockchain, ChainConfig) {
    use seldel_chain::{Block, BlockBody};

    let key = workload_key();
    let registry = seldel_core::DeletionRegistry::new();
    let mut chain =
        seldel_chain::Blockchain::new(Block::genesis(config.chain_note.clone(), Timestamp(0)));
    while chain.tip().number().value() < tip {
        let next = chain.tip().number().next();
        if config.is_summary_slot(next) {
            let (block, outcome) =
                seldel_core::build_summary_block(&chain, &config, &registry, next);
            chain.push(block).expect("summary links");
            if let Some(plan) = outcome.plan {
                chain
                    .truncate_front(plan.new_marker())
                    .expect("plan is live");
            }
        } else {
            let prev = chain.tip().hash();
            let entries = (0..entries_per_block)
                .map(|i| workload_entry(&key, next.value() * 1000 + i as u64, 32))
                .collect();
            chain
                .push(Block::new(
                    next,
                    Timestamp(next.value() * 10),
                    prev,
                    BlockBody::Normal { entries },
                ))
                .expect("normal blocks link");
        }
    }
    (chain, config)
}

/// [`manual_chain`] with the paper's evaluation configuration and one
/// entry per block.
pub fn manual_paper_chain(tip: u64) -> (seldel_chain::Blockchain, ChainConfig) {
    manual_chain(ChainConfig::paper_evaluation(), tip, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let bounded = build_ledger(5, 20, 60, 2, 16);
        assert!(bounded.stats().live_blocks <= 25);
        assert_eq!(bounded.stats().live_records, 120);
        let unbounded = build_unbounded_ledger(30, 1);
        assert!(unbounded.stats().live_blocks > 30);
    }

    #[test]
    fn manual_chain_stops_before_slot() {
        let (chain, config) = manual_paper_chain(7);
        assert_eq!(chain.tip().number().value(), 7);
        assert!(config.is_summary_slot(chain.tip().number().next()));
    }
}
