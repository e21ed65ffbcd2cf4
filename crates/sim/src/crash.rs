//! Crash/restart scenario: kill a durable ledger mid-push or mid-prune,
//! reopen the directory, and check the recovered chain against a
//! never-closed [`MemStore`](seldel_chain::MemStore) oracle.
//!
//! A real crash cannot be scheduled from safe Rust, but its *observable
//! result* — the on-disk state it leaves behind — can be fabricated
//! precisely from the documented write ordering
//! (`seldel_chain::fstore`): appends are not fsynced between barriers, and
//! a prune runs `fsync tail → manifest → rewrite front → unlink retired`.
//! The scenario therefore drives two identical ledgers (a
//! [`MemStore`](seldel_chain::MemStore) oracle and a [`FileStore`]
//! under test), damages the store directory the
//! way an ill-timed power cut would, reopens it, and asserts the
//! backend-equivalence invariants:
//!
//! * **mid-push** — the newest frame is torn (truncated mid-write):
//!   recovery must drop exactly the torn suffix, and re-applying the lost
//!   blocks from the oracle must converge to bit-identity;
//! * **mid-prune** — the prune's manifest update is durable but the front
//!   rewrite and the unlinks are lost: recovery must finish the prune
//!   (delete stale segments, drop pruned frames) and come back
//!   bit-identical to the oracle with **zero** lost blocks;
//! * **past-watermark** — under `FsyncPolicy::OnFill` the appends between
//!   segment fills are not fsynced, so the durable watermark
//!   (`durable_up_to`) lags the tip: the power cut keeps exactly the
//!   prefix the watermark covered, and recovery must come back to
//!   **precisely** that watermark — the boundary the node layer gates its
//!   `NewBlock` broadcasts on.
//!
//! The driver asserts (panicking on violation, like every sim invariant
//! check) and also returns a [`CrashReport`] so tests can assert on the
//! outcome.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use seldel_chain::{
    validate_store_incremental, BlockKind, BlockStore, Entry, FileStore, FsyncPolicy, Timestamp,
};
use seldel_codec::DataRecord;
use seldel_core::{ChainConfig, RetentionPolicy, RetireMode, SelectiveLedger};
use seldel_crypto::SigningKey;

/// Which write the simulated power cut interrupts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Crash while appending a block frame: the tail frame is torn.
    MidPush,
    /// Crash inside the prune sequence, after the manifest became durable
    /// but before the front rewrite and the unlinks.
    MidPrune,
    /// Crash while blocks sit past the durable watermark (appended since
    /// the last fsync): every one of them is lost; recovery lands exactly
    /// on `durable_up_to`.
    PastWatermark,
    /// No damage at all — a clean close (the control run).
    CleanClose,
}

impl std::fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CrashPoint::MidPush => "mid-push",
            CrashPoint::MidPrune => "mid-prune",
            CrashPoint::PastWatermark => "past-watermark",
            CrashPoint::CleanClose => "clean-close",
        })
    }
}

/// Crash scenario parameters.
#[derive(Debug, Clone)]
pub struct CrashConfig {
    /// Payload blocks to drive before the crash window opens.
    pub blocks_before_crash: u64,
    /// Payload blocks to drive after recovery (resumed operation).
    pub blocks_after_recovery: u64,
    /// Entries per payload block.
    pub entries_per_block: usize,
    /// Segment capacity of the store under test (small values exercise
    /// whole-segment retirement frequently).
    pub segment_capacity: usize,
    /// The interrupted write.
    pub point: CrashPoint,
}

impl Default for CrashConfig {
    fn default() -> Self {
        CrashConfig {
            blocks_before_crash: 60,
            blocks_after_recovery: 30,
            entries_per_block: 2,
            segment_capacity: 8,
            point: CrashPoint::MidPush,
        }
    }
}

/// Step budget for opening the past-watermark crash window. Running out
/// means the watermark never lagged the tip — a broken premise, not a
/// slow run.
const PAST_WATERMARK_MAX_STEPS: u64 = 200;

/// Outcome of one crash/restart run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashReport {
    /// The interrupted write.
    pub point: CrashPoint,
    /// Oracle tip number at the moment of the crash.
    pub oracle_tip: u64,
    /// Tip number right after reopening the damaged directory.
    pub recovered_tip: u64,
    /// Blocks the crash destroyed (reopened behind the oracle).
    pub lost_blocks: u64,
    /// Blocks re-applied from the oracle (peers, in a real deployment) to
    /// converge; summary blocks re-derive locally and are not counted.
    pub reapplied_blocks: u64,
    /// Marker (shifting genesis) after full convergence.
    pub final_marker: u64,
    /// Live blocks after the post-recovery workload.
    pub final_live_blocks: u64,
}

/// The ledger configuration the crash scenario drives (short sequences, a
/// tight `l_max`, so merges and prunes fire often). Public so experiment
/// binaries can reopen a scenario directory under the same rules.
pub fn crash_chain_config() -> ChainConfig {
    ChainConfig {
        sequence_length: 5,
        retention: RetentionPolicy {
            max_live_blocks: Some(30),
            min_live_blocks: 5,
            min_live_summaries: 1,
            min_timespan: None,
            mode: RetireMode::MinimumNeeded,
        },
        ..Default::default()
    }
}

fn workload_entry(key: &SigningKey, n: u64) -> Entry {
    Entry::sign_data(
        key,
        DataRecord::new("log").with("n", n).with("payload", "crash"),
    )
}

/// Drives one payload block into both ledgers.
fn step<A: BlockStore, B: BlockStore>(
    oracle: &mut SelectiveLedger<A>,
    durable: &mut SelectiveLedger<B>,
    key: &SigningKey,
    block: u64,
    entries_per_block: usize,
    counter: &mut u64,
) {
    let ts = Timestamp(block * 10);
    for _ in 0..entries_per_block {
        *counter += 1;
        let entry = workload_entry(key, *counter);
        oracle.submit_entry(entry.clone()).expect("oracle accepts");
        durable.submit_entry(entry).expect("durable accepts");
    }
    oracle.seal_block(ts).expect("monotone time");
    durable.seal_block(ts).expect("monotone time");
}

/// Snapshot of every segment file in a store directory.
fn snapshot_segments(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in fs::read_dir(dir).expect("store dir readable") {
        let path = entry.expect("dir entry").path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name.starts_with("seg-") && name.ends_with(".seg") {
            out.insert(path.clone(), fs::read(&path).expect("segment readable"));
        }
    }
    out
}

/// Number of complete length-prefixed frames in a segment file's bytes.
fn frame_count(bytes: &[u8]) -> usize {
    let mut count = 0usize;
    let mut pos = 0usize;
    while bytes.len() - pos >= 4 {
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
            as usize;
        if bytes.len() - pos - 4 < len {
            break;
        }
        pos += 4 + len;
        count += 1;
    }
    count
}

/// Whether the newest segment file is still partially filled — i.e. its
/// latest frame was an *unsynced* append (a filled segment is fsynced by
/// the store, so tearing it would fabricate an impossible crash state).
fn tail_frame_is_unsynced(dir: &Path, segment_capacity: usize) -> bool {
    let files = snapshot_segments(dir);
    let Some(newest) = files.keys().max() else {
        return false;
    };
    let frames = frame_count(&files[newest]);
    frames >= 1 && frames < segment_capacity
}

/// Fabricates the mid-push crash state: the last frame of the newest
/// segment file is torn (the power cut hit `write_all`).
fn tear_tail_frame(dir: &Path) {
    let newest = snapshot_segments(dir)
        .into_keys()
        .max()
        .expect("at least one segment");
    let len = fs::metadata(&newest).expect("metadata").len();
    assert!(len > 3, "tail segment too small to tear");
    let file = fs::OpenOptions::new()
        .write(true)
        .open(&newest)
        .expect("open tail");
    file.set_len(len - 3).expect("truncate");
}

/// Fabricates the past-watermark crash state: every frame **above** the
/// captured durable watermark is discarded, newest segment first — the
/// power cut lost exactly the writes no fsync had covered yet. Frames at
/// or below the watermark were covered by a real fsync when the
/// watermark advanced, so they survive byte-for-byte.
fn truncate_past_watermark(dir: &Path, watermark: u64) {
    let files = snapshot_segments(dir);
    for (path, bytes) in files.iter().rev() {
        let frames = seldel_chain::segment_frame_numbers(bytes);
        match frames.iter().find(|&&(_, number)| number > watermark) {
            Some(&(0, _)) => {
                fs::remove_file(path).expect("unlink fully-deferred segment");
            }
            Some(&(offset, _)) => {
                let file = fs::OpenOptions::new()
                    .write(true)
                    .open(path)
                    .expect("open tail segment");
                file.set_len(offset).expect("truncate past watermark");
                break; // older files hold only lower numbers
            }
            None => break,
        }
    }
}

/// Fabricates the mid-prune crash state from a pre-prune snapshot: the
/// manifest (written first, fsynced) is kept, appends that happened since
/// the snapshot are kept (they were fsynced by the pre-manifest barrier),
/// but the front rewrite and the unlinks are rolled back.
fn undo_prune_file_ops(before: &BTreeMap<PathBuf, Vec<u8>>) {
    for (path, old_bytes) in before {
        match fs::read(path) {
            Ok(now_bytes) => {
                if !now_bytes.starts_with(old_bytes) {
                    // Not an append-extension of the old content: this file
                    // was rewritten by the prune. Roll it back.
                    fs::write(path, old_bytes).expect("restore rewritten segment");
                }
            }
            Err(_) => {
                // Unlinked by the prune: the crash happened before the
                // unlink, so the stale file is still there.
                fs::write(path, old_bytes).expect("restore unlinked segment");
            }
        }
    }
}

/// Asserts the full backend-equivalence bar between the oracle and the
/// recovered ledger: bit-identical blocks, sealed hashes, entry index,
/// and agreeing lookups.
fn assert_equivalent<A: BlockStore, B: BlockStore>(
    oracle: &SelectiveLedger<A>,
    recovered: &SelectiveLedger<B>,
    context: &str,
) {
    let a = oracle.chain();
    let b = recovered.chain();
    assert_eq!(
        a.export_bytes(),
        b.export_bytes(),
        "{context}: live chains are not bit-identical"
    );
    assert_eq!(a.tip_hash(), b.tip_hash(), "{context}: tip hash differs");
    assert!(
        a.iter_sealed()
            .map(|sealed| sealed.hash())
            .eq(b.iter_sealed().map(|sealed| sealed.hash())),
        "{context}: sealed-hash caches differ"
    );
    assert_eq!(
        a.entry_index().iter().collect::<Vec<_>>(),
        b.entry_index().iter().collect::<Vec<_>>(),
        "{context}: entry indexes differ"
    );
    assert_eq!(
        b.entry_index(),
        &b.rebuilt_index(),
        "{context}: recovered index drifted from a full rebuild"
    );
    assert!(
        b.verify_cached_hashes(),
        "{context}: recovered hash cache is stale"
    );
    for (id, _) in a.live_records() {
        assert_eq!(
            b.locate(id).is_some(),
            a.locate(id).is_some(),
            "{context}: lookup disagrees on {id}"
        );
        assert_eq!(
            b.locate(id),
            b.locate_scan(id),
            "{context}: indexed and scan lookups disagree on {id}"
        );
    }
}

/// Runs the crash/restart scenario in `dir` (which is wiped first).
///
/// Drives the oracle and the durable ledger together, fabricates the
/// configured crash state, reopens, re-applies whatever the crash
/// destroyed, asserts bit-identity, then keeps both ledgers running to
/// show the recovered node seals on.
///
/// # Panics
///
/// Panics when any backend-equivalence invariant is violated — this is a
/// test driver, not a production API.
pub fn run_crash_restart(dir: &Path, cfg: &CrashConfig) -> CrashReport {
    let _ = fs::remove_dir_all(dir);
    let key = SigningKey::from_seed([0x5C; 32]);
    let mut counter = 0u64;

    let mut oracle = SelectiveLedger::builder(crash_chain_config()).build();
    // The policy is pinned: every crash state below is fabricated from the
    // OnFill contract, and a SELDEL_FSYNC_POLICY override (e.g. `always`)
    // would keep the watermark at the tip.
    let store = FileStore::open_with_capacity(dir, cfg.segment_capacity)
        .expect("fresh store opens")
        .with_fsync_policy(FsyncPolicy::OnFill);
    let mut durable = SelectiveLedger::builder(crash_chain_config())
        .store_backend::<FileStore>()
        .open_store(store)
        .expect("fresh store opens");

    // Phase 1: identical workload up to the crash window.
    let mut block = 0u64;
    // Durable watermark captured at the crash, when the point pins one.
    let mut watermark: Option<u64> = None;
    for _ in 0..cfg.blocks_before_crash {
        block += 1;
        step(
            &mut oracle,
            &mut durable,
            &key,
            block,
            cfg.entries_per_block,
            &mut counter,
        );
    }

    // Phase 2: fabricate the crash state.
    match cfg.point {
        CrashPoint::MidPush => {
            // Find a step whose final frame is a *plain* block (no marker
            // shift in the same seal), so tearing it cannot touch a frame
            // the prune barrier had already fsynced.
            loop {
                let marker_before = durable.stats().marker;
                block += 1;
                step(
                    &mut oracle,
                    &mut durable,
                    &key,
                    block,
                    cfg.entries_per_block,
                    &mut counter,
                );
                // Only tear a frame the fsync contract allows to be lost:
                // a plain block (no marker shift whose barrier fsynced the
                // tail) that did not fill — and thereby fsync — a segment.
                if durable.stats().marker == marker_before
                    && durable.chain().tip().kind() == BlockKind::Normal
                    && tail_frame_is_unsynced(dir, cfg.segment_capacity)
                {
                    break;
                }
            }
            drop(durable);
            tear_tail_frame(dir);
        }
        CrashPoint::MidPrune => {
            // Step until a seal shifts the marker, snapshotting the files
            // beforehand; then roll back everything the prune did on disk
            // except the (first-written, fsynced) manifest.
            loop {
                let marker_before = durable.stats().marker;
                let files_before = snapshot_segments(dir);
                block += 1;
                step(
                    &mut oracle,
                    &mut durable,
                    &key,
                    block,
                    cfg.entries_per_block,
                    &mut counter,
                );
                if durable.stats().marker > marker_before {
                    drop(durable);
                    undo_prune_file_ops(&files_before);
                    break;
                }
            }
        }
        CrashPoint::PastWatermark => {
            // Keep sealing until the durable watermark W trails the tip by
            // ≥ 2 blocks. Under OnFill, W moves only at a segment fill or
            // at a prune's §IV-C barrier (both snap it to the tip), so a
            // gap opens within a segment's worth of steps.
            for _ in 0..PAST_WATERMARK_MAX_STEPS {
                block += 1;
                step(
                    &mut oracle,
                    &mut durable,
                    &key,
                    block,
                    cfg.entries_per_block,
                    &mut counter,
                );
                let tip = durable.chain().tip().number().value();
                let w = durable.chain().store().durable_up_to();
                if let Some(w) = w {
                    if tip >= w.value() + 2 {
                        watermark = Some(w.value());
                        break;
                    }
                }
            }
            let watermark = watermark.unwrap_or_else(|| {
                panic!(
                    "the durable watermark never trailed the tip by 2 blocks \
                     in {PAST_WATERMARK_MAX_STEPS} steps"
                )
            });
            // Dropping the ledger flushes nothing, but the frames past W
            // still sit in the files; rolling them back leaves the state
            // an actual power cut at capture time was allowed to leave.
            drop(durable);
            truncate_past_watermark(dir, watermark);
        }
        CrashPoint::CleanClose => {
            drop(durable);
        }
    }

    // Phase 3: restart — reopen the damaged directory.
    let mut recovered = SelectiveLedger::builder(crash_chain_config())
        .store_backend::<FileStore>()
        .on_disk(dir)
        .expect("recovery must succeed");

    let oracle_tip = oracle.chain().tip().number().value();
    let recovered_tip = recovered.chain().tip().number().value();
    assert!(
        recovered_tip <= oracle_tip,
        "recovery invented blocks: {recovered_tip} > {oracle_tip}"
    );
    let lost_blocks = oracle_tip - recovered_tip;
    if let Some(watermark) = watermark {
        // The durability boundary is exact in both directions: recovery
        // must reach the watermark (nothing durable may be dropped) and
        // must not pass it (nothing past it was fsynced).
        assert_eq!(
            recovered_tip, watermark,
            "recovery did not land exactly on the durable watermark"
        );
    }
    assert_eq!(
        recovered.chain().marker(),
        oracle.chain().marker(),
        "markers diverged: a durable prune was lost or invented"
    );

    // Every recovered block must be bit-identical to the oracle's copy.
    for recovered_block in recovered.chain().iter() {
        let oracle_block = oracle
            .chain()
            .get(recovered_block.number())
            .expect("oracle holds every live recovered block");
        assert_eq!(
            oracle_block,
            recovered_block,
            "recovered block {} differs from the oracle",
            recovered_block.number()
        );
    }

    // Phase 4: converge — re-apply what the crash destroyed (in a real
    // deployment the peers' sync responses provide these; summaries are
    // re-derived locally and must never come from the wire).
    let mut reapplied = 0u64;
    let mut next = recovered.chain().tip().number().next();
    while next.value() <= oracle_tip {
        let lost = oracle
            .chain()
            .get(next)
            .expect("lost tail blocks are still live on the oracle");
        // `next` can never be a summary block: recovery derives a due Σ at
        // open, and apply_block derives one after every applied block.
        assert_ne!(
            lost.kind(),
            BlockKind::Summary,
            "recovery left summary slot {next} unfilled"
        );
        recovered
            .apply_block(lost.block().clone())
            .expect("oracle blocks re-apply cleanly");
        reapplied += 1;
        next = recovered.chain().tip().number().next();
    }
    assert_equivalent(&oracle, &recovered, "after convergence");

    // Phase 5: resume — the recovered ledger seals on, staying identical.
    for _ in 0..cfg.blocks_after_recovery {
        block += 1;
        step(
            &mut oracle,
            &mut recovered,
            &key,
            block,
            cfg.entries_per_block,
            &mut counter,
        );
    }
    assert_equivalent(&oracle, &recovered, "after resumed workload");

    CrashReport {
        point: cfg.point,
        oracle_tip,
        recovered_tip,
        lost_blocks,
        reapplied_blocks: reapplied,
        final_marker: recovered.chain().marker().value(),
        final_live_blocks: recovered.chain().len(),
    }
}

/// How an injected payload corruption was caught.
///
/// The fault model differs from the crash points above: a crash loses
/// *suffixes* the fsync contract allows to be lost, while tampering flips
/// a byte inside **committed** data. Recovery must therefore not succeed
/// silently — every outcome below is a detection, and
/// [`run_tamper_payload`] panics if none of them fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TamperDetection {
    /// The store refused to open (frame undecodable / manifest corrupt).
    OpenRejected(String),
    /// The store opened but the incremental commitment audit flagged the
    /// block at this number (its decoded body no longer matches the
    /// header's payload root, or a link broke).
    BlockFlagged(u64),
    /// The flip hit a frame length prefix, which is indistinguishable from
    /// a torn tail: the store opened short of the expected tip.
    TailTruncated {
        /// Tip after reopening.
        recovered_tip: u64,
        /// Tip before the tamper.
        expected_tip: u64,
    },
    /// The flip hit the tip block's header in a field no local rule
    /// constrains (timestamp, seal — only the tip has no successor whose
    /// `prev_hash` pins it): caught by comparing against the
    /// quorum-attested status-quo tip hash (§V-B4).
    TipHashDiverged,
}

/// Outcome of one [`run_tamper_payload`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TamperReport {
    /// The segment file that was corrupted.
    pub segment: String,
    /// Byte offset of the flip within that file.
    pub offset: u64,
    /// How the corruption surfaced.
    pub detection: TamperDetection,
}

/// Tiny deterministic generator (xorshift64*) — the sim never reads OS
/// randomness; every run is reproducible from the seed.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// The `TamperPayload` fault: drives a durable ledger, closes it cleanly,
/// flips **one seed-chosen byte** inside a committed segment file, and
/// asserts the corruption cannot go unnoticed — the reopen fails, the
/// incremental commitment audit ([`validate_store_incremental`]) flags the
/// exact block, or (length-prefix hits only) the tail comes back short.
///
/// # Panics
///
/// Panics when the tampered store opens full-length and passes the audit —
/// silent undetected corruption, the one forbidden outcome.
pub fn run_tamper_payload(dir: &Path, cfg: &CrashConfig, seed: u64) -> TamperReport {
    let _ = fs::remove_dir_all(dir);
    let key = SigningKey::from_seed([0x7A; 32]);
    let mut counter = 0u64;

    let mut durable = SelectiveLedger::builder(crash_chain_config())
        .store_backend::<FileStore>()
        .on_disk_with_capacity(dir, cfg.segment_capacity)
        .expect("fresh store opens");
    for block in 1..=cfg.blocks_before_crash {
        let ts = Timestamp(block * 10);
        for _ in 0..cfg.entries_per_block {
            counter += 1;
            durable
                .submit_entry(workload_entry(&key, counter))
                .expect("durable accepts");
        }
        durable.seal_block(ts).expect("monotone time");
    }
    let expected_tip = durable.chain().tip().number().value();
    let expected_tip_hash = durable.chain().tip_hash();
    drop(durable);

    // Flip one byte, position drawn from the seed over all segment bytes.
    let files = snapshot_segments(dir);
    let total: u64 = files.values().map(|b| b.len() as u64).sum();
    assert!(total > 0, "workload produced no segment bytes");
    let mut state = seed | 1;
    let mut target = xorshift(&mut state) % total;
    let (path, offset) = files
        .iter()
        .find_map(|(path, bytes)| {
            if target < bytes.len() as u64 {
                Some((path.clone(), target))
            } else {
                target -= bytes.len() as u64;
                None
            }
        })
        .expect("target is within total");
    let mut bytes = files[&path].clone();
    bytes[offset as usize] ^= 1 << (xorshift(&mut state) % 8);
    fs::write(&path, &bytes).expect("write tampered segment");
    let segment = path
        .file_name()
        .and_then(|n| n.to_str())
        .expect("segment name")
        .to_string();

    // Reopen and audit: one of the three detections must fire.
    let detection = match FileStore::open(dir) {
        Err(err) => TamperDetection::OpenRejected(err.to_string()),
        Ok(store) => match validate_store_incremental(&store) {
            Err(err) => {
                let flagged = match err {
                    seldel_chain::ChainError::PayloadMismatch { number }
                    | seldel_chain::ChainError::PrevHashMismatch { number }
                    | seldel_chain::ChainError::TimestampRegression { number }
                    | seldel_chain::ChainError::SummaryTimestampMismatch { number }
                    | seldel_chain::ChainError::TombstonesUnsorted { number }
                    | seldel_chain::ChainError::GenesisMisplaced { number } => number.value(),
                    seldel_chain::ChainError::NonContiguousNumber { found, .. } => found.value(),
                    other => panic!("unexpected audit error after tamper: {other}"),
                };
                TamperDetection::BlockFlagged(flagged)
            }
            Ok(_) => {
                let tip = store.last().expect("audited store is non-empty");
                let recovered_tip = tip.block().number().value();
                if recovered_tip < expected_tip {
                    TamperDetection::TailTruncated {
                        recovered_tip,
                        expected_tip,
                    }
                } else {
                    assert!(
                        tip.hash() != expected_tip_hash,
                        "tampered byte {offset} of {segment} went completely undetected"
                    );
                    TamperDetection::TipHashDiverged
                }
            }
        },
    };
    TamperReport {
        segment,
        offset,
        detection,
    }
}

/// Runs every crash point in subdirectories of `base`, returning the
/// reports in order (mid-push, mid-prune, past-watermark, clean-close).
pub fn run_crash_matrix(base: &Path, cfg: &CrashConfig) -> Vec<CrashReport> {
    [
        CrashPoint::MidPush,
        CrashPoint::MidPrune,
        CrashPoint::PastWatermark,
        CrashPoint::CleanClose,
    ]
    .into_iter()
    .map(|point| {
        let mut cfg = cfg.clone();
        cfg.point = point;
        let dir = base.join(format!("{point}"));
        let report = run_crash_restart(&dir, &cfg);
        let _ = fs::remove_dir_all(&dir);
        report
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use seldel_chain::testutil::ScratchDir;

    /// A restarting node finds exactly the chain the scenario left behind.
    fn assert_final_state_reopens(dir: &Path, report: &CrashReport) {
        let reopened = SelectiveLedger::builder(crash_chain_config())
            .store_backend::<FileStore>()
            .on_disk(dir)
            .expect("final scenario state reopens");
        assert_eq!(reopened.chain().len(), report.final_live_blocks);
        assert_eq!(reopened.chain().marker().value(), report.final_marker);
    }

    #[test]
    fn crash_mid_push_recovers_to_oracle_identity() {
        let dir = ScratchDir::new("midpush");
        let report = run_crash_restart(
            dir.path(),
            &CrashConfig {
                point: CrashPoint::MidPush,
                ..Default::default()
            },
        );
        // The torn frame destroyed at least the final block.
        assert!(report.lost_blocks >= 1, "{report:?}");
        assert!(report.reapplied_blocks >= 1);
        assert_final_state_reopens(dir.path(), &report);
    }

    #[test]
    fn crash_mid_prune_loses_nothing() {
        let dir = ScratchDir::new("midprune");
        let report = run_crash_restart(
            dir.path(),
            &CrashConfig {
                point: CrashPoint::MidPrune,
                ..Default::default()
            },
        );
        // The Σ carrying the pruned records was fsynced before the
        // manifest, so a crash inside the prune destroys no blocks.
        assert_eq!(report.lost_blocks, 0, "{report:?}");
        assert_eq!(report.reapplied_blocks, 0);
        assert_final_state_reopens(dir.path(), &report);
    }

    #[test]
    fn crash_with_deferred_commits_recovers_exactly_to_the_watermark() {
        let dir = ScratchDir::new("past-watermark");
        let report = run_crash_restart(
            dir.path(),
            &CrashConfig {
                point: CrashPoint::PastWatermark,
                ..Default::default()
            },
        );
        // OnFill had deferred the fsync of ≥ 2 blocks at the cut, and the
        // in-driver assertion already pinned recovered_tip == watermark.
        assert!(report.lost_blocks >= 2, "{report:?}");
        assert!(report.reapplied_blocks >= 1);
        assert_final_state_reopens(dir.path(), &report);
    }

    #[test]
    fn tamper_payload_is_always_detected() {
        let dir = ScratchDir::new("tamper");
        for seed in [1u64, 2, 3, 0xDEAD_BEEF] {
            // run_tamper_payload panics on silent undetected corruption;
            // each seed picks a different byte to flip.
            let report = run_tamper_payload(dir.path(), &CrashConfig::default(), seed);
            assert!(!report.segment.is_empty(), "{report:?}");
        }
    }

    #[test]
    fn clean_close_is_lossless() {
        let dir = ScratchDir::new("clean");
        let report = run_crash_restart(
            dir.path(),
            &CrashConfig {
                point: CrashPoint::CleanClose,
                blocks_before_crash: 40,
                ..Default::default()
            },
        );
        assert_eq!(report.lost_blocks, 0, "{report:?}");
        assert_eq!(report.reapplied_blocks, 0);
        assert_final_state_reopens(dir.path(), &report);
    }
}
