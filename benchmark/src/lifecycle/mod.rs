//! The measured lifecycle every workload runs against the product
//! configuration (`AnchorNode<FileStore>` rooted on disk, every default):
//!
//! 1. **write** — pre-signed entries and owner deletion requests go to a
//!    leader anchor on a `SimNetwork`, one block cycle at a time, until
//!    the durable watermark covers the last timed entry;
//! 2. **read** — the closed store is reopened with a hot cache a quarter
//!    of the live chain and asked an interleaved mix of hot and cold
//!    lookups, audit batches and proofs;
//! 3. **recover** — a copy of the directory is cut at its last fsync with
//!    a torn frame after it, reopened, and a fresh node adopts the chain.
//!
//! Every output is checked against the generator's own bookkeeping and a
//! `MemStore` oracle; checks run off the clock.

mod read;
mod recover;
mod write;

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use seldel_chain::FileStore;
use seldel_core::{ChainConfig, RetentionPolicy, RetireMode, SelectiveLedger};

use crate::gen::{BlockInput, Generator};
use crate::spec::{Workload, BASE_SECONDS};
use crate::stats::{median, percentile_of};
use crate::trace::Meter;

pub use read::{fates, read_phase, Fate, ReadClass, ReadOut, AUDIT_BATCH, HOT_RUN};
pub use recover::{recover_phase, RecoverOut};
pub use write::{write_phase, WriteOut};

pub type Ledger = SelectiveLedger<FileStore>;

/// A scratch directory under `benchmark/out/`, removed on drop — also
/// when a check fails and the run unwinds.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> Scratch {
        let dir = Path::new("benchmark/out").join(format!("run-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch directory under benchmark/out");
        Scratch(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Operations the generator expected to succeed, and output checks.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold (first few, for the message).
    pub errors: Vec<String>,
}

impl Tally {
    /// Counts one operation; a refusal or wrong answer is a failure.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.check(false, what);
        }
    }

    /// Records an output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.errors.len() < 16 {
            self.errors.push(what());
        }
    }

    /// Adds another run's counts and failed checks to this one's.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }
}

/// What the phases of one run share: the busy clock, the tally of
/// operations and checks, and the set-up time booked so far.
pub struct Run<'m> {
    pub meter: &'m mut Meter,
    pub tally: Tally,
    pub setup_ns: u64,
}

/// Op counts of one run: the workload's base counts scaled by
/// `--seconds`, so program counts repeat exactly at a given length.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub warm_blocks: u64,
    pub timed_blocks: u64,
    pub read_slots: u64,
    pub recover_rounds: usize,
}

impl Sizes {
    pub fn of(w: &Workload, seconds: f64) -> Sizes {
        let f = seconds / BASE_SECONDS;
        let scale = |n: u64, floor: u64| ((n as f64 * f).round() as u64).max(floor);
        Sizes {
            warm_blocks: w.warm_blocks,
            // Long enough for requests made in the timed region to execute.
            timed_blocks: scale(w.timed_blocks, 200),
            read_slots: scale(w.read_slots, 400),
            recover_rounds: if f >= 0.5 { w.recover_rounds } else { 1 },
        }
    }
}

pub fn chain_config(w: &Workload) -> ChainConfig {
    ChainConfig {
        sequence_length: w.l,
        retention: RetentionPolicy {
            max_live_blocks: Some(w.l_max),
            min_live_blocks: w.l,
            min_live_summaries: 1,
            min_timespan: None,
            mode: RetireMode::MinimumNeeded,
        },
        ..Default::default()
    }
}

pub fn open_ledger(w: &Workload, dir: &Path) -> Ledger {
    SelectiveLedger::builder(chain_config(w))
        .store_backend::<FileStore>()
        .on_disk(dir)
        .expect("store directory opens")
}

/// Recursively copies a store directory (flat: MANIFEST + segments).
pub fn copy_dir(from: &Path, to: &Path) {
    let _ = fs::remove_dir_all(to);
    fs::create_dir_all(to).expect("create copy target");
    for entry in fs::read_dir(from).expect("store directory is readable") {
        let path = entry.expect("directory entry").path();
        if path.is_file() {
            fs::copy(&path, to.join(path.file_name().expect("file name"))).expect("copy file");
        }
    }
}

/// Bytes of every file in a store directory.
pub fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .expect("store directory is readable")
        .map(|e| {
            e.expect("directory entry")
                .metadata()
                .expect("metadata")
                .len()
        })
        .sum()
}

/// A finished lifecycle.
pub struct Outcome {
    pub sizes: Sizes,
    pub setup_ns: u64,
    pub write: WriteOut,
    pub read: ReadOut,
    pub recover: RecoverOut,
    pub tally: Tally,
}

/// The end-to-end metrics of a finished lifecycle, in `END_TO_END`
/// order, from the samples exactly as timed.
pub fn end_to_end(o: &Outcome) -> Vec<(&'static str, f64)> {
    let (w, r) = (&o.write, &o.read);
    let p = |ns: &[u64], rank: f64| percentile_of(ns, rank) as f64;
    let mid = |ns: &[u64]| median(&ns.iter().map(|&n| n as f64).collect::<Vec<_>>());
    let cycles = &w.cycle_ns[..w.timed_cycles];
    vec![
        ("setup_s", o.setup_ns as f64 / 1e9),
        (
            "durable_entries_per_s",
            w.durable_entries as f64 / (w.busy_ns as f64 / 1e9),
        ),
        ("commit_ms_p50", p(cycles, 50.0) / 1e6),
        ("commit_ms_p95", p(cycles, 95.0) / 1e6),
        ("erase_ms_p50", p(&w.erase_ns, 50.0) / 1e6),
        ("erase_ms_p90", p(&w.erase_ns, 90.0) / 1e6),
        (
            "hot_lookups_per_s",
            HOT_RUN as f64 / (p(&r.samples(ReadClass::Hot), 50.0) / 1e9),
        ),
        (
            "cold_lookup_us_p50",
            p(&r.samples(ReadClass::Cold), 50.0) / 1e3,
        ),
        ("proof_us_p50", p(&r.samples(ReadClass::Proof), 50.0) / 1e3),
        ("reopen_ms", mid(&o.recover.reopen_ns) / 1e6),
        (
            "join_blocks_per_s",
            o.recover.joined_blocks as f64 / (mid(&o.recover.join_ns) / 1e9),
        ),
        (
            "space_amp",
            r.store_bytes as f64 / r.live_record_bytes as f64,
        ),
    ]
}

/// Everything a traced run's layer probes need after the lifecycle.
pub struct Artefacts {
    pub scratch: Scratch,
    pub store_dir: PathBuf,
    pub gen: Generator,
    pub blocks: Vec<BlockInput>,
    pub fate: Vec<Fate>,
    pub reference: Ledger,
}

/// A run's generated inputs: everything is signed here, off the clock.
pub struct Inputs {
    pub sizes: Sizes,
    pub gen: Generator,
    pub blocks: Vec<BlockInput>,
    /// Wall time generating and signing took (part of set-up).
    pub gen_ns: u64,
}

pub fn generate(w: &Workload, seed: u64, seconds: f64) -> Inputs {
    let started = Instant::now();
    let sizes = Sizes::of(w, seconds);
    let mut gen = Generator::new(w, seed);
    let blocks = (0..sizes.warm_blocks + sizes.timed_blocks)
        .map(|_| gen.next_block())
        .collect();
    Inputs {
        sizes,
        gen,
        blocks,
        gen_ns: started.elapsed().as_nanos() as u64,
    }
}

/// Runs one workload's lifecycle. `seconds` scales the op counts.
pub fn run(w: &Workload, seed: u64, seconds: f64, meter: &mut Meter) -> (Outcome, Artefacts) {
    run_on(w, generate(w, seed, seconds), meter)
}

/// Runs the lifecycle on inputs generated earlier.
pub fn run_on(w: &Workload, inputs: Inputs, meter: &mut Meter) -> (Outcome, Artefacts) {
    let Inputs {
        sizes,
        gen,
        blocks,
        gen_ns,
    } = inputs;
    let scratch = Scratch::new(w.name);
    let store_dir = scratch.path().join("store");
    let crash_image = scratch.path().join("crash-image");
    let mut run = Run {
        meter,
        tally: Tally::default(),
        setup_ns: gen_ns,
    };

    let warm = sizes.warm_blocks as usize;
    let write = write_phase(w, &blocks, warm, &store_dir, &crash_image, &mut run);
    let fate = fates(&gen, &write);
    let (read, reference) = read_phase(w, &gen, &fate, sizes.read_slots, &store_dir, &mut run);
    run.tally
        .check(reference.chain().tip_hash() == write.tip_hash, || {
            "reopened tip differs from the tip the anchor closed on".into()
        });
    let rounds = sizes.recover_rounds;
    let recover = recover_phase(
        w,
        &write,
        &reference,
        rounds,
        scratch.path(),
        &crash_image,
        &mut run,
    );
    let outcome = Outcome {
        sizes,
        setup_ns: run.setup_ns,
        write,
        read,
        recover,
        tally: run.tally,
    };
    let artefacts = Artefacts {
        scratch,
        store_dir,
        gen,
        blocks,
        fate,
        reference,
    };
    (outcome, artefacts)
}
