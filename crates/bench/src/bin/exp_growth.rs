//! Experiment E1 — bounded chain growth (paper §I problem statement, §V-A
//! "Data Reduction").
//!
//! Prints the growth series of the selective-deletion chain against the
//! conventional baseline, plus an l_max sweep.
//!
//! Run with `cargo run -p seldel-bench --bin exp_growth --release`.

use seldel_codec::render::{human_bytes, ratio, TextTable};
use seldel_sim::{run_growth, sweep_l_max, GrowthConfig};

fn main() {
    let cfg = GrowthConfig {
        blocks: 600,
        entries_per_block: 4,
        sequence_length: 5,
        l_max: 30,
        sample_every: 60,
        payload_bytes: 64,
    };
    println!(
        "E1: growth under identical workload (l = {}, l_max = {}, {} entries/block)",
        cfg.sequence_length, cfg.l_max, cfg.entries_per_block
    );

    let samples = run_growth(&cfg);
    let mut table = TextTable::new([
        "appended",
        "selective blocks",
        "selective size",
        "baseline blocks",
        "baseline size",
        "size ratio",
    ]);
    for s in &samples {
        table.row([
            s.appended.to_string(),
            s.selective_blocks.to_string(),
            human_bytes(s.selective_bytes),
            s.baseline_blocks.to_string(),
            human_bytes(s.baseline_bytes),
            ratio(s.baseline_bytes as f64, s.selective_bytes as f64),
        ]);
    }
    println!("{}", table.render());

    println!("l_max sweep after 400 appended blocks:");
    let mut sweep = TextTable::new(["l_max", "live blocks", "live size"]);
    for (l_max, blocks, bytes) in sweep_l_max(400, &[10, 20, 40, 80, 160]) {
        sweep.row([l_max.to_string(), blocks.to_string(), human_bytes(bytes)]);
    }
    println!("{}", sweep.render());

    let last = samples.last().expect("samples exist");
    println!(
        "shape check: baseline grows without bound ({} blocks), selective stays\n\
         within l_max + l ({} blocks) while retaining {} live records.",
        last.baseline_blocks, last.selective_blocks, last.selective_records
    );
}
