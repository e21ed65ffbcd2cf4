//! The recover phase: a fabricated power cut, then reopen and join
//! rounds against the chain that never crashed.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use seldel_chain::{segment_frame_numbers, BlockKind, BlockNumber, FileStore, Timestamp};
use seldel_core::SelectiveLedger;

use super::{chain_config, copy_dir, open_ledger, Ledger, Run, WriteOut};
use crate::gen::BLOCK_INTERVAL_MS;
use crate::spec::Workload;

/// Cuts a store directory the way a power cut would: every frame above
/// the durable watermark is gone, except the first of them, which is
/// torn mid-write.
pub fn fabricate_power_cut(dir: &Path, watermark: u64) {
    let mut segments: Vec<PathBuf> = fs::read_dir(dir)
        .expect("store directory is readable")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .collect();
    segments.sort();
    let mut torn = false;
    for path in &segments {
        let bytes = fs::read(path).expect("segment is readable");
        let frames = segment_frame_numbers(&bytes);
        let Some(pos) = frames.iter().position(|&(_, number)| number > watermark) else {
            continue;
        };
        if torn {
            fs::remove_file(path).expect("unlink lost segment");
            continue;
        }
        // Keep half of the first lost frame: a write the cut interrupted.
        let start = frames[pos].0 as usize;
        let end = frames.get(pos + 1).map_or(bytes.len(), |f| f.0 as usize);
        let file = fs::OpenOptions::new()
            .write(true)
            .open(path)
            .expect("open segment");
        file.set_len((start + (end - start) / 2) as u64)
            .expect("truncate segment");
        torn = true;
    }
}

/// What the recover phase measured.
pub struct RecoverOut {
    pub busy_ns: u64,
    pub reopen_ns: Vec<u64>,
    pub join_ns: Vec<u64>,
    /// Blocks the reopened ledger holds / the joining node adopted.
    pub reopened_blocks: u64,
    pub joined_blocks: u64,
    pub lost_blocks: u64,
}

/// Crash → reopen → join rounds against the image taken after the write
/// phase. `reference` is the cleanly closed, complete chain.
pub fn recover_phase(
    w: &Workload,
    write: &WriteOut,
    reference: &Ledger,
    rounds: usize,
    scratch: &Path,
    crash_image: &Path,
    run: &mut Run<'_>,
) -> RecoverOut {
    let started = Instant::now();
    fabricate_power_cut(crash_image, write.watermark);
    let offered = reference.chain().export_blocks();
    run.setup_ns += started.elapsed().as_nanos() as u64;

    let config = chain_config(w);
    // A summary slot due right at the cut is re-derived by recovery.
    let mut expected_tip = write.watermark;
    if config.is_summary_slot(BlockNumber(expected_tip + 1)) {
        expected_tip += 1;
    }
    let busy_start = run.meter.busy_ns();
    let mut out = RecoverOut {
        busy_ns: 0,
        reopen_ns: Vec::new(),
        join_ns: Vec::new(),
        reopened_blocks: 0,
        joined_blocks: offered.len() as u64,
        lost_blocks: write.tip - write.watermark,
    };
    for round in 0..rounds {
        let started = Instant::now();
        let crashed = scratch.join(format!("crashed-{round}"));
        let joiner = scratch.join(format!("joiner-{round}"));
        copy_dir(crash_image, &crashed);
        let mut fresh = open_ledger(w, &joiner);
        let blocks = offered.clone();
        run.setup_ns += started.elapsed().as_nanos() as u64;

        let op = round as u64;
        run.meter.enter("recover.round", op);
        let (reopened, ns) = run.meter.call("ledger.on_disk", op, || {
            SelectiveLedger::builder(config.clone())
                .store_backend::<FileStore>()
                .on_disk(&crashed)
        });
        out.reopen_ns.push(ns);
        let (adopted, ns) = run
            .meter
            .call("ledger.adopt_chain", op, || fresh.adopt_chain(blocks));
        out.join_ns.push(ns);
        run.meter.exit();

        run.tally.op(adopted.is_ok(), || {
            format!("adopt_chain refused the chain: {adopted:?}")
        });
        run.tally.check(
            fresh.chain().tip_hash() == reference.chain().tip_hash(),
            || "joined node's tip differs from the reference".into(),
        );
        run.tally.op(reopened.is_ok(), || {
            format!("reopen after the cut failed: {:?}", reopened.as_ref().err())
        });
        let Ok(mut reopened) = reopened else { continue };
        let tip = reopened.chain().tip().number().value();
        run.tally.check(tip == expected_tip, || {
            format!("recovered tip {tip}, durable watermark {}", write.watermark)
        });
        out.reopened_blocks = reopened.chain().len();
        if round == 0 {
            // Re-applying what the cut destroyed must converge to
            // bit-identity with the chain that never crashed, and the
            // recovered ledger must seal again.
            let mut n = BlockNumber(tip + 1);
            while n <= reference.chain().tip().number() {
                let block = reference.chain().get(n).expect("reference block is live");
                if block.kind() != BlockKind::Summary {
                    let applied = reopened.apply_block(block.block().clone());
                    run.tally.check(applied.is_ok(), || {
                        format!("re-applying {n} failed: {applied:?}")
                    });
                }
                n = n.next();
            }
            run.tally.check(
                reopened.chain().export_bytes() == reference.chain().export_bytes(),
                || "recovered chain is not bit-identical after re-applying lost blocks".into(),
            );
            let sealed = reopened.seal_block(Timestamp(write.final_ts + BLOCK_INTERVAL_MS));
            run.tally.check(sealed.is_ok(), || {
                format!("recovered ledger cannot seal: {sealed:?}")
            });
        }
        drop(reopened);
        drop(fresh);
        let _ = fs::remove_dir_all(&crashed);
        let _ = fs::remove_dir_all(&joiner);
    }
    out.busy_ns = run.meter.busy_ns() - busy_start;
    out
}
