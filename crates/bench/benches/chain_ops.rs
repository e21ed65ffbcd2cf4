//! Chain-operation benches: sealing throughput (selective vs baseline
//! append — the §V-B3 consensus-extension overhead) and new-node
//! validation cost (E5: §V-B3 "nodes only accept a blockchain which is
//! traceable from its current status quo").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use seldel_bench::{
    bench_config, build_ledger, build_unbounded_ledger, workload_entry, workload_key,
};
use seldel_chain::{validate_chain, BaselineChain, Timestamp, ValidationOptions};
use seldel_core::SelectiveLedger;

fn bench_seal_block(c: &mut Criterion) {
    let mut group = c.benchmark_group("seal_block");
    group.sample_size(20);
    let key = workload_key();

    group.bench_function("selective/8_entries", |b| {
        b.iter_batched(
            || {
                let entries: Vec<_> = (0..8).map(|i| workload_entry(&key, i, 32)).collect();
                (SelectiveLedger::new(bench_config(10, 40)), entries)
            },
            |(mut ledger, entries)| {
                for entry in entries {
                    ledger.submit_entry(entry).unwrap();
                }
                ledger.seal_block(Timestamp(10)).unwrap();
                black_box(ledger)
            },
            criterion::BatchSize::SmallInput,
        )
    });

    group.bench_function("baseline/8_entries", |b| {
        b.iter_batched(
            || {
                let entries: Vec<_> = (0..8).map(|i| workload_entry(&key, i, 32)).collect();
                (BaselineChain::new("b", Timestamp(0)), entries)
            },
            |(mut chain, entries)| {
                chain.append(Timestamp(10), entries).unwrap();
                black_box(chain)
            },
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_validation(c: &mut Criterion) {
    let mut group = c.benchmark_group("validate_chain");
    group.sample_size(10);
    for blocks in [64u64, 256] {
        // Pruned selective chain: bounded live length regardless of blocks.
        let selective = build_ledger(10, 40, blocks, 2, 32);
        group.throughput(Throughput::Elements(selective.stats().live_blocks));
        group.bench_function(BenchmarkId::new("selective_full", blocks), |b| {
            b.iter(|| {
                validate_chain(black_box(selective.chain()), &ValidationOptions::default()).unwrap()
            })
        });
        group.bench_function(BenchmarkId::new("selective_structural", blocks), |b| {
            b.iter(|| {
                validate_chain(
                    black_box(selective.chain()),
                    &ValidationOptions::structural(),
                )
                .unwrap()
            })
        });

        // Unbounded chain: validation cost grows with history.
        let unbounded = build_unbounded_ledger(blocks, 2);
        group.bench_function(BenchmarkId::new("unbounded_full", blocks), |b| {
            b.iter(|| {
                validate_chain(black_box(unbounded.chain()), &ValidationOptions::default()).unwrap()
            })
        });
    }
    group.finish();
}

fn bench_locate(c: &mut Criterion) {
    // Deletion targeting is "linear and very low as blocks are referenced
    // directly by number" (§IV-D); measure the id lookup on a live chain
    // and on a record carried into a summary block.
    let ledger = build_ledger(10, 40, 200, 4, 32);
    let live_id = ledger
        .chain()
        .live_records()
        .last()
        .map(|(id, _)| *id)
        .expect("records exist");
    let summarised_id = ledger
        .chain()
        .live_records()
        .first()
        .map(|(id, _)| *id)
        .expect("records exist");
    c.bench_function("locate/live_entry", |b| {
        b.iter(|| black_box(ledger.chain().locate(black_box(live_id))))
    });
    c.bench_function("locate/summarised_record", |b| {
        b.iter(|| black_box(ledger.chain().locate(black_box(summarised_id))))
    });
}

fn bench_locate_indexed_vs_scan(c: &mut Criterion) {
    // The maintained-index payoff: point lookups of the oldest summarised
    // record, indexed (O(log n)) vs the historical full scan (O(n)), at
    // growing live chain sizes.
    let mut group = c.benchmark_group("locate_indexed_vs_scan");
    group.sample_size(10);
    for live in [1_000u64, 10_000] {
        let ledger = build_ledger(10, live, live + 30, 1, 16);
        // Lowest origin id → carried into a summary block by the first
        // merge; the worst case for the historical newest-first scan.
        let oldest = ledger
            .chain()
            .live_records()
            .iter()
            .map(|(id, _)| *id)
            .min()
            .expect("records exist");
        assert!(ledger
            .chain()
            .locate(oldest)
            .is_some_and(|l| l.is_in_summary()));
        assert_eq!(
            ledger.chain().locate(oldest),
            ledger.chain().locate_scan(oldest),
            "paths must agree before comparing their cost"
        );
        group.bench_function(BenchmarkId::new("indexed", live), |b| {
            b.iter(|| black_box(ledger.chain().locate(black_box(oldest))))
        });
        group.bench_function(BenchmarkId::new("scan", live), |b| {
            b.iter(|| black_box(ledger.chain().locate_scan(black_box(oldest))))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
        .sample_size(20);
    targets = bench_seal_block, bench_validation, bench_locate,
        bench_locate_indexed_vs_scan
}
criterion_main!(benches);
