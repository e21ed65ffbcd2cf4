//! The benchmark's contract as data: workloads, metrics, bounds — what
//! `BENCHMARK.json` is rendered from and the runner follows.

/// Data entries per payload block, on every workload.
pub const ENTRIES_PER_BLOCK: usize = 8;
/// Distinct authors; tenant choice is Zipf(1.1) over them.
pub const TENANTS: usize = 64;
/// Bytes of high-entropy payload per data entry (hex text, so the raw
/// store bytes can be searched for it after erasure).
pub const PAYLOAD_BYTES: usize = 96;
/// Default generator seed.
pub const DEFAULT_SEED: u64 = 0x5E1DE1;
/// `--seconds` the op counts below are calibrated for on this host.
pub const BASE_SECONDS: f64 = 20.0;

/// One workload: the same tenant lifecycle — write through the anchor,
/// read back through a cache a quarter of the live chain, crash, reopen,
/// join — under different input properties and with the measuring time
/// put where the workload's layer of interest is.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Sequence length `l`.
    pub l: u64,
    /// Retention limit `l_max`.
    pub l_max: u64,
    /// Data entries expire this many blocks after submission.
    pub ttl_blocks: Option<u64>,
    /// Owner deletion requests per 16 payload blocks.
    pub deletes_per_16: u64,
    /// Ids per `audit_live` batch run beside the writes after each seal.
    pub audit_beside: usize,
    /// Payload blocks driven in set-up, at every run length, until the
    /// chain is at its retention limit and the live set is stationary.
    pub warm_blocks: u64,
    /// Timed payload blocks at `BASE_SECONDS`.
    pub timed_blocks: u64,
    /// Read-phase schedule slots at `BASE_SECONDS` (per 100 slots: 70 hot
    /// runs of 64 lookups, 20 cold lookups, 9 proofs, 1 audit batch).
    pub read_slots: u64,
    /// Crash → reopen → join rounds.
    pub recover_rounds: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ingest",
        why: "Write-heavy: 2600 blocks onto a chain that fits the hot cache, a deletion every 4th block; entries expire before their block retires, so merges carry little; signature checks are ~85% of write time.",
        l: 10,
        l_max: 200,
        ttl_blocks: Some(150),
        deletes_per_16: 4,
        audit_beside: 0,
        warm_blocks: 230,
        timed_blocks: 2600,
        read_slots: 12000,
        recover_rounds: 4,
    },
    Workload {
        name: "churn",
        why: "The paper's mechanism under load: l_max 60, two owner deletions a block, expiry after 300 blocks, so each merge carries ~350 records; sigma, prune and erasure cost the most here.",
        l: 10,
        l_max: 60,
        ttl_blocks: Some(300),
        deletes_per_16: 32,
        audit_beside: 32,
        warm_blocks: 320,
        timed_blocks: 2600,
        read_slots: 6000,
        recover_rounds: 4,
    },
    Workload {
        name: "query",
        why: "Read-heavy: 40000 read slots on a live chain 4x its hot cache; a lookup checks no signature, so crypto work should not move it; exercises index, cache, page-in, decode and proofs.",
        l: 10,
        l_max: 256,
        ttl_blocks: Some(320),
        deletes_per_16: 32,
        audit_beside: 0,
        warm_blocks: 336,
        timed_blocks: 1600,
        read_slots: 40000,
        recover_rounds: 3,
    },
    Workload {
        name: "recover",
        why: "Crash-heavy: five power-cut, reopen and join rounds; replay, full validation, index rebuild and sigma re-derivation dominate, so a store-only gain barely shows in reopen_ms.",
        l: 10,
        l_max: 128,
        ttl_blocks: Some(192),
        deletes_per_16: 32,
        audit_beside: 0,
        warm_blocks: 224,
        timed_blocks: 1600,
        read_slots: 12000,
        recover_rounds: 5,
    },
];

impl Workload {
    /// Deletion requests target data entries this many payload blocks
    /// old: 20–120 where sequences retire that young (churn), otherwise
    /// the 100 blocks that are 40–140 blocks short of retiring — so a
    /// request executes 40–160 blocks later on every workload.
    pub fn delete_age(&self) -> (u64, u64) {
        let lo = self.l_max.saturating_sub(140).max(20);
        (lo, lo + 100)
    }
}

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a tenant or operator sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 12] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "durable_entries_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.2,
    },
    EndToEnd {
        name: "commit_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "commit_ms_p95",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "erase_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "erase_ms_p90",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "hot_lookups_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.2,
    },
    EndToEnd {
        name: "cold_lookup_us_p50",
        unit: "us",
        better: Better::Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "proof_us_p50",
        unit: "us",
        better: Better::Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "reopen_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "join_blocks_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "space_amp",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.02,
    },
];

/// A single layer's metric. Which end-to-end metric each should move, on
/// which workload, is the interaction table of `benchmark/README.md`.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// Checks that a metric or workload name fits the contract's alphabet.
#[cfg(test)]
pub fn name_is_valid(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}
