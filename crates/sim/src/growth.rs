//! Experiment E1 — bounded chain growth (the paper's core scalability
//! claim, §I "Growth of the blockchain" / §V-A "Data Reduction").
//!
//! Feeds an identical workload to a [`SelectiveLedger`] and a
//! [`BaselineChain`] and samples live size over time; also sweeps l_max.

use seldel_chain::{BaselineChain, BlockStore, Entry, Timestamp};
use seldel_codec::DataRecord;
use seldel_core::{ChainConfig, RetentionPolicy, RetireMode, SelectiveLedger};
use seldel_crypto::SigningKey;

/// Growth experiment parameters.
#[derive(Debug, Clone)]
pub struct GrowthConfig {
    /// Number of payload blocks to append.
    pub blocks: u64,
    /// Entries per payload block.
    pub entries_per_block: usize,
    /// Sequence length l.
    pub sequence_length: u64,
    /// Retention limit l_max.
    pub l_max: u64,
    /// Record a sample every this many payload blocks.
    pub sample_every: u64,
    /// Extra payload bytes per entry (realistic record sizes).
    pub payload_bytes: usize,
}

impl Default for GrowthConfig {
    fn default() -> Self {
        GrowthConfig {
            blocks: 300,
            entries_per_block: 4,
            sequence_length: 5,
            l_max: 30,
            sample_every: 10,
            payload_bytes: 64,
        }
    }
}

/// One sample of the growth series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrowthSample {
    /// Payload blocks appended so far.
    pub appended: u64,
    /// Selective chain: live blocks.
    pub selective_blocks: u64,
    /// Selective chain: live bytes.
    pub selective_bytes: u64,
    /// Selective chain: live data records.
    pub selective_records: u64,
    /// Baseline chain: blocks.
    pub baseline_blocks: u64,
    /// Baseline chain: bytes.
    pub baseline_bytes: u64,
}

fn workload_entry(key: &SigningKey, n: u64, payload_bytes: usize) -> Entry {
    let filler: String = "x".repeat(payload_bytes);
    Entry::sign_data(
        key,
        DataRecord::new("log")
            .with("n", n)
            .with("payload", filler.as_str()),
    )
}

/// Ledger configuration used by the growth run.
pub fn growth_chain_config(cfg: &GrowthConfig) -> ChainConfig {
    ChainConfig {
        sequence_length: cfg.sequence_length,
        retention: RetentionPolicy {
            max_live_blocks: Some(cfg.l_max),
            min_live_blocks: cfg.sequence_length,
            min_live_summaries: 1,
            min_timespan: None,
            mode: RetireMode::MinimumNeeded,
        },
        ..Default::default()
    }
}

/// Runs the growth experiment, returning the sampled series.
///
/// The selective ledger runs with TTL'd entries? No — plain permanent
/// entries: the bound comes from summarisation compacting *block overhead*,
/// while records are carried forward. To demonstrate deletion-driven
/// reduction the workload marks a slice of entries as temporary: every 4th
/// entry expires after `ttl_ms`.
pub fn run_growth(cfg: &GrowthConfig) -> Vec<GrowthSample> {
    run_growth_in::<seldel_chain::MemStore>(cfg).1
}

/// [`run_growth`] on an explicit storage backend, also returning the final
/// ledger so callers can compare backends (tip hashes, export bytes).
pub fn run_growth_in<S: BlockStore>(cfg: &GrowthConfig) -> (SelectiveLedger<S>, Vec<GrowthSample>) {
    let key = SigningKey::from_seed([0x61; 32]);
    let mut selective = SelectiveLedger::builder(growth_chain_config(cfg))
        .store_backend::<S>()
        .build();
    let mut baseline = BaselineChain::new("baseline", Timestamp(0));
    let mut samples = Vec::new();
    let mut counter = 0u64;

    for b in 1..=cfg.blocks {
        let ts = Timestamp(b * 10);
        let mut batch = Vec::with_capacity(cfg.entries_per_block);
        for _ in 0..cfg.entries_per_block {
            counter += 1;
            // Every 4th entry is temporary: expires two sequences later.
            let entry = if counter.is_multiple_of(4) {
                let expiry = seldel_chain::Expiry::AtTimestamp(Timestamp(
                    ts.millis() + cfg.sequence_length * 20,
                ));
                Entry::sign_data_with(
                    &key,
                    DataRecord::new("log")
                        .with("n", counter)
                        .with("payload", "t".repeat(cfg.payload_bytes).as_str()),
                    Some(expiry),
                    vec![],
                )
            } else {
                workload_entry(&key, counter, cfg.payload_bytes)
            };
            batch.push(entry);
        }
        for entry in &batch {
            selective
                .submit_entry(entry.clone())
                .expect("workload entries are valid");
        }
        selective.seal_block(ts).expect("monotone time");
        baseline.append(ts, batch).expect("monotone time");

        if b % cfg.sample_every == 0 || b == cfg.blocks {
            let stats = selective.stats();
            samples.push(GrowthSample {
                appended: b,
                selective_blocks: stats.live_blocks,
                selective_bytes: stats.live_bytes,
                selective_records: stats.live_records,
                baseline_blocks: baseline.len(),
                baseline_bytes: baseline.total_byte_size(),
            });
        }
    }
    (selective, samples)
}

/// Sweeps l_max, returning `(l_max, final live blocks, final live bytes)`.
pub fn sweep_l_max(blocks: u64, l_maxes: &[u64]) -> Vec<(u64, u64, u64)> {
    l_maxes
        .iter()
        .map(|&l_max| {
            let cfg = GrowthConfig {
                blocks,
                l_max,
                ..Default::default()
            };
            let last = *run_growth(&cfg).last().expect("at least one sample");
            (l_max, last.selective_blocks, last.selective_bytes)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selective_chain_stays_bounded_baseline_grows() {
        let cfg = GrowthConfig {
            blocks: 120,
            ..Default::default()
        };
        let samples = run_growth(&cfg);
        let last = samples.last().unwrap();
        // Baseline grows linearly with appended blocks.
        assert_eq!(last.baseline_blocks, cfg.blocks + 1);
        // Selective stays within l_max + one sequence of slack.
        assert!(
            last.selective_blocks <= cfg.l_max + cfg.sequence_length,
            "live = {}",
            last.selective_blocks
        );
        // And is much smaller than the baseline in blocks.
        assert!(last.selective_blocks * 2 < last.baseline_blocks);
    }

    #[test]
    fn temporary_entries_bound_record_growth() {
        let cfg = GrowthConfig {
            blocks: 150,
            ..Default::default()
        };
        let samples = run_growth(&cfg);
        let last = samples.last().unwrap();
        let appended_records = cfg.blocks * cfg.entries_per_block as u64;
        // A quarter of the records expire; live records must be below the
        // total appended count.
        assert!(last.selective_records < appended_records);
    }

    #[test]
    fn larger_l_max_keeps_more_blocks() {
        let sweep = sweep_l_max(150, &[20, 40, 80]);
        assert_eq!(sweep.len(), 3);
        assert!(sweep[0].1 <= sweep[1].1);
        assert!(sweep[1].1 <= sweep[2].1);
    }

    #[test]
    fn storage_backends_produce_identical_chains() {
        // I2 across backends: the same workload on MemStore and an
        // unrooted FileStore yields bit-identical live chains and identical
        // samples.
        use seldel_chain::{FileStore, MemStore};
        let cfg = GrowthConfig {
            blocks: 90,
            ..Default::default()
        };
        let (mem, mem_samples) = run_growth_in::<MemStore>(&cfg);
        let (file, file_samples) = run_growth_in::<FileStore>(&cfg);
        assert_eq!(mem_samples, file_samples);
        assert_eq!(mem.chain().tip_hash(), file.chain().tip_hash());
        assert_eq!(mem.chain().export_bytes(), file.chain().export_bytes());
        assert_eq!(
            mem.chain().entry_index().iter().collect::<Vec<_>>(),
            file.chain().entry_index().iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn samples_are_monotone_in_appended() {
        let samples = run_growth(&GrowthConfig {
            blocks: 60,
            ..Default::default()
        });
        for pair in samples.windows(2) {
            assert!(pair[0].appended < pair[1].appended);
        }
    }
}
