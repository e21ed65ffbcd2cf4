//! Telemetry integration: the sim harnesses assert on *internals* the
//! public APIs don't expose — how many frames a recovery replayed, whether
//! a paged workload actually exercised the hot cache — by reading the
//! process-wide telemetry registry around a run.
//!
//! Every test that flips the global enable switch or resets the global
//! registry holds [`seldel_telemetry::testing::serial`] for its whole
//! body; the pure histogram/percentile cross-check does not touch global
//! state and needs no lock.

use proptest::prelude::*;

use seldel_chain::testutil::ScratchDir;
use seldel_chain::{
    Block, BlockBody, BlockNumber, BlockStore, Entry, FileStore, SealedBlock, Timestamp,
};
use seldel_codec::DataRecord;
use seldel_crypto::SigningKey;
use seldel_sim::{percentile, run_crash_restart, CrashConfig, CrashPoint};
use seldel_telemetry::{json_is_well_formed, Histogram, Registry};

// `sim::percentile` and `Histogram::quantile` implement the same
// nearest-rank definition, so the exact sample the former picks must lie
// in the bucket the latter resolves: for the rank-`k` value `v`,
// `quantile_bucket(p) == bucket_index(v)`. (Cumulative counts through
// `bucket_index(v) - 1` cover only values `< v`, i.e. fewer than `k`
// samples, and through `bucket_index(v)` at least `k`.)
proptest! {
    #[test]
    fn percentile_agrees_with_histogram_quantile_bucket(
        raw in proptest::collection::vec(any::<u64>(), 1..64),
        p_pick in any::<u64>(),
    ) {
        // Keep samples f64-exact so percentile() loses nothing round-tripping.
        let values: Vec<u64> = raw.iter().map(|v| v % (1 << 53)).collect();
        let floats: Vec<f64> = values.iter().map(|&v| v as f64).collect();
        let hist = Histogram::new();
        for &v in &values {
            hist.record(v);
        }
        let ps = [0.0, 1.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0];
        let p = ps[(p_pick % ps.len() as u64) as usize];
        let exact = percentile(&floats, p) as u64;
        prop_assert_eq!(
            hist.quantile_bucket(p),
            Some(Histogram::bucket_index(exact)),
            "p={} exact={} n={}",
            p,
            exact,
            values.len()
        );
        // And the bucket-resolved quantile brackets the exact answer.
        let (lo, hi) = Histogram::bucket_range(Histogram::bucket_index(exact));
        prop_assert!(lo <= exact && exact <= hi);
        prop_assert!(hist.quantile(p) >= exact);
    }
}

/// A past-watermark crash recovery streams the surviving frames back at
/// reopen; the `fstore.replay.frames` counter makes that count visible to
/// the harness even though no public API reports it.
#[test]
fn deferred_commit_recovery_reports_replayed_frames() {
    let _serial = seldel_telemetry::testing::serial();
    seldel_telemetry::set_enabled(true);
    Registry::global().reset();

    let dir = ScratchDir::new("telemetry-past-watermark");
    let report = run_crash_restart(
        dir.path(),
        &CrashConfig {
            point: CrashPoint::PastWatermark,
            ..Default::default()
        },
    );
    let snap = Registry::global().snapshot();
    seldel_telemetry::set_enabled(false);

    // The phase-3 reopen replayed at least one surviving frame, and never
    // more frames than block numbers that existed at the recovered tip.
    let frames = snap
        .counter("fstore.replay.frames")
        .expect("replay counter registered");
    assert!(frames >= 1, "recovery replayed nothing: {snap:?}");
    assert!(
        frames <= report.recovered_tip + 1,
        "replayed {frames} frames but recovered tip is {}",
        report.recovered_tip
    );

    // Both opens (the pre-crash create and the recovery reopen) timed
    // their replay scans.
    let replay = snap
        .histogram("fstore.replay.ns")
        .expect("replay span registered");
    assert!(replay.count >= 2, "expected two timed opens: {replay:?}");

    // The whole snapshot renders as machine-readable JSON.
    let json = snap.render_json();
    assert!(json_is_well_formed(&json), "bad JSON: {json}");
}

fn sealed(n: u64, key: &SigningKey) -> SealedBlock {
    let entries = vec![Entry::sign_data(key, DataRecord::new("log").with("n", n))];
    SealedBlock::seal(Block::new(
        BlockNumber(n),
        Timestamp(n * 10),
        seldel_crypto::sha256(n.to_le_bytes()),
        BlockBody::Normal { entries },
    ))
}

/// A larger-than-cache scan both misses (cold page-ins) and hits (repeat
/// touches) the hot-block cache, and the churn evicts — all three visible
/// through the global registry.
#[test]
fn paged_workload_shows_cache_hits_misses_and_evictions() {
    let _serial = seldel_telemetry::testing::serial();
    seldel_telemetry::set_enabled(true);
    Registry::global().reset();

    let dir = ScratchDir::new("telemetry-paged");
    let key = SigningKey::from_seed([0x51; 32]);
    let mut store = FileStore::open_with_capacity(dir.path(), 4)
        .expect("store opens")
        .with_hot_cache_capacity(2);
    for n in 0..16 {
        store.push(sealed(n, &key));
    }
    // Sequential scan through a 2-block cache: mostly cold misses...
    for i in 0..16 {
        assert!(store.get(i).is_some());
    }
    // ...then repeat touches of the tail, which hit.
    for _ in 0..4 {
        assert!(store.get(15).is_some());
    }
    let snap = Registry::global().snapshot();
    seldel_telemetry::set_enabled(false);

    let hits = snap.counter("fstore.cache.hit").unwrap_or(0);
    let misses = snap.counter("fstore.cache.miss").unwrap_or(0);
    let evicts = snap.counter("fstore.cache.evict").unwrap_or(0);
    assert!(hits > 0, "no cache hits recorded: {snap:?}");
    assert!(misses > 0, "no cache misses recorded: {snap:?}");
    assert!(evicts > 0, "no evictions recorded: {snap:?}");
    // Telemetry agrees with the store's own introspection counters.
    assert_eq!(hits, store.hot_cache_hits());
    assert_eq!(misses, store.hot_cache_misses());
}
