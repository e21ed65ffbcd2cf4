//! Experiment E7 — crash/restart recovery of the durable `FileStore`
//! backend (§IV-C physical deletion as a storage-layer obligation).
//!
//! Runs the `seldel-sim` crash matrix (mid-push torn frame, mid-prune
//! interrupted file operations, power cut with blocks past the durable
//! watermark, clean close) in a scratch directory,
//! timing the reopen+recovery path, plus the `TamperPayload` fault
//! (one flipped bit in a closed store, caught on reopen + incremental
//! audit), and writes the machine-readable outcome to
//! `BENCH_recovery.json` so CI archives it alongside
//! `BENCH_chain_ops.json`.
//!
//! Run with `cargo run -p seldel-bench --bin exp_recovery --release`.
//!
//! Pass `--baseline <path>` to compare the timed recovery path against a
//! previously committed `BENCH_recovery.json`; a slowdown beyond 25% on
//! any crash point prints a GitHub `::warning::` annotation and exits
//! non-zero.

use std::time::Instant;

use seldel_bench::report::{render_json_report, row_field_f64, row_field_str, JsonField, JsonRow};
use seldel_chain::FileStore;
use seldel_codec::render::TextTable;
use seldel_core::SelectiveLedger;
use seldel_sim::{
    crash_chain_config, run_crash_restart, run_tamper_payload, CrashConfig, CrashPoint,
    CrashReport, TamperDetection, TamperReport,
};

/// One measured crash/restart run.
struct Row {
    report: CrashReport,
    /// Whole scenario wall time (workload + damage + recovery + resume).
    scenario_ms: f64,
    /// A dedicated timed reopen of the final directory: segment replay,
    /// chain reconstruction + full validation, Σ-state re-derivation.
    recovery_ms: f64,
}

fn run_point(base: &std::path::Path, point: CrashPoint) -> Row {
    let dir = base.join(point.to_string());
    let cfg = CrashConfig {
        point,
        ..Default::default()
    };
    let start = Instant::now();
    let report = run_crash_restart(&dir, &cfg);
    let scenario_ms = start.elapsed().as_secs_f64() * 1e3;
    // The scenario leaves the recovered store behind: time a fresh open of
    // exactly the state a restarting node would find.
    let start = Instant::now();
    let reopened = SelectiveLedger::builder(crash_chain_config())
        .store_backend::<FileStore>()
        .on_disk(&dir)
        .expect("final scenario state reopens");
    let recovery_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        reopened.chain().len(),
        report.final_live_blocks,
        "timed reopen saw a different chain than the scenario left"
    );
    Row {
        report,
        scenario_ms,
        recovery_ms,
    }
}

/// One timed tamper-detection run.
struct TamperRow {
    seed: u64,
    report: TamperReport,
    /// Reopen + incremental audit wall time on the tampered store.
    detect_ms: f64,
}

/// Short channel label for tables and JSON.
fn detection_label(detection: &TamperDetection) -> &'static str {
    match detection {
        TamperDetection::OpenRejected(_) => "open_rejected",
        TamperDetection::BlockFlagged(_) => "block_flagged",
        TamperDetection::TailTruncated { .. } => "tail_truncated",
        TamperDetection::TipHashDiverged => "tip_hash_diverged",
    }
}

fn run_tamper(base: &std::path::Path, seed: u64) -> TamperRow {
    let dir = base.join(format!("tamper-{seed}"));
    let cfg = CrashConfig::default();
    let start = Instant::now();
    let report = run_tamper_payload(&dir, &cfg, seed);
    let detect_ms = start.elapsed().as_secs_f64() * 1e3;
    TamperRow {
        seed,
        report,
        detect_ms,
    }
}

fn to_json(rows: &[Row], tampers: &[TamperRow]) -> String {
    let scenario_rows: Vec<JsonRow> = rows
        .iter()
        .map(|row| {
            let r = &row.report;
            JsonRow::new()
                .field("crash_point", r.point.to_string().as_str())
                .field("oracle_tip", r.oracle_tip)
                .field("recovered_tip", r.recovered_tip)
                .field("lost_blocks", r.lost_blocks)
                .field("reapplied_blocks", r.reapplied_blocks)
                .field("final_marker", r.final_marker)
                .field("final_live_blocks", r.final_live_blocks)
                .field("scenario_ms", JsonField::f1(row.scenario_ms))
                .field("recovery_ms", JsonField::f1(row.recovery_ms))
        })
        .collect();
    let tamper_rows: Vec<JsonRow> = tampers
        .iter()
        .map(|t| {
            JsonRow::new()
                .field("seed", t.seed)
                .field("segment", t.report.segment.as_str())
                .field("offset", t.report.offset)
                .field("detection", detection_label(&t.report.detection))
                .field("detect_ms", JsonField::f1(t.detect_ms))
        })
        .collect();
    render_json_report(
        "recovery",
        &[],
        &[("scenarios", scenario_rows), ("tamper", tamper_rows)],
    )
}

/// Compares timed recovery against the committed baseline; returns
/// complaints.
fn regressions(baseline: &str, rows: &[Row]) -> Vec<String> {
    let mut complaints = Vec::new();
    for line in baseline.lines() {
        let (Some(point), Some(base_ms)) = (
            row_field_str(line, "crash_point"),
            row_field_f64(line, "recovery_ms"),
        ) else {
            continue;
        };
        let Some(now) = rows.iter().find(|r| r.report.point.to_string() == point) else {
            continue;
        };
        // 25% headroom plus a small absolute grace: sub-10ms reopens are
        // dominated by filesystem cache noise on CI runners.
        if now.recovery_ms > base_ms * 1.25 + 5.0 {
            complaints.push(format!(
                "{point}: reopen took {:.1} ms vs baseline {:.1} ms ({}% of baseline)",
                now.recovery_ms,
                base_ms,
                (100.0 * now.recovery_ms / base_ms).round()
            ));
        }
    }
    complaints
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let baseline_path = args
        .iter()
        .position(|a| a == "--baseline")
        .map(|i| args.get(i + 1).expect("--baseline needs a path").clone());
    // Read the baseline up front: this run overwrites BENCH_recovery.json.
    let baseline = baseline_path
        .as_deref()
        .map(|p| std::fs::read_to_string(p).unwrap_or_else(|e| panic!("read baseline {p}: {e}")));

    let scratch = seldel_chain::testutil::ScratchDir::new("exp-recovery");
    let base = scratch.path().to_path_buf();
    println!(
        "E7: crash/restart recovery — FileStore vs a never-closed MemStore\n\
         oracle (identical workload; every run asserts bit-identity of the\n\
         live chain, sealed hashes and entry index after recovery)."
    );

    let rows: Vec<Row> = [
        CrashPoint::MidPush,
        CrashPoint::MidPrune,
        CrashPoint::PastWatermark,
        CrashPoint::CleanClose,
    ]
    .into_iter()
    .map(|point| run_point(&base, point))
    .collect();

    let mut table = TextTable::new([
        "crash point",
        "oracle tip",
        "recovered tip",
        "lost",
        "re-applied",
        "final marker",
        "reopen (recovery)",
        "scenario total",
    ]);
    for row in &rows {
        let r = &row.report;
        table.row([
            r.point.to_string(),
            r.oracle_tip.to_string(),
            r.recovered_tip.to_string(),
            r.lost_blocks.to_string(),
            r.reapplied_blocks.to_string(),
            r.final_marker.to_string(),
            format!("{:.1} ms", row.recovery_ms),
            format!("{:.0} ms", row.scenario_ms),
        ]);
    }
    println!("{}", table.render());
    println!(
        "shape check: mid-prune and clean-close lose nothing (the Σ barrier\n\
         fsyncs carried records before the manifest); mid-push loses only\n\
         the torn tail frame; past-watermark loses exactly the blocks past\n\
         the durable watermark — both re-applied from peers."
    );

    println!(
        "\nTamperPayload fault: one flipped bit in a closed store, caught on\n\
         reopen + incremental audit (every run asserts detection):"
    );
    let tampers: Vec<TamperRow> = [11, 42, 0xFEED]
        .into_iter()
        .map(|seed| run_tamper(&base, seed))
        .collect();
    let mut tamper_table = TextTable::new(["seed", "segment", "offset", "detection", "caught in"]);
    for t in &tampers {
        tamper_table.row([
            t.seed.to_string(),
            t.report.segment.clone(),
            t.report.offset.to_string(),
            detection_label(&t.report.detection).to_string(),
            format!("{:.1} ms", t.detect_ms),
        ]);
    }
    println!("{}", tamper_table.render());

    std::fs::write("BENCH_recovery.json", to_json(&rows, &tampers))
        .expect("write BENCH_recovery.json");
    println!("wrote BENCH_recovery.json");

    if let Some(baseline) = baseline {
        let complaints = regressions(&baseline, &rows);
        if complaints.is_empty() {
            println!("baseline check: recovery timings within bounds of the committed run");
        } else {
            for c in &complaints {
                println!("::warning title=exp_recovery regression::{c}");
            }
            eprintln!(
                "recovery timings regressed vs the committed baseline on {} point(s)",
                complaints.len()
            );
            std::process::exit(1);
        }
    }
}
