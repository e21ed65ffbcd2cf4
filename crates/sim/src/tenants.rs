//! Multi-tenant workload: Zipf-skewed authors driving a mixed
//! insert/delete/query stream.
//!
//! Real multi-user deployments are not uniform — a handful of hot tenants
//! dominate intake while a long tail of occasional authors still expects
//! fair treatment and fast lookups. This workload models exactly that:
//! `authors` signing keys whose submission rates follow a Zipf
//! distribution with skew `zipf_s`, mixed with owner-issued deletions and
//! batched liveness queries after every sealed block. It is the fixture
//! behind the fairness/equivalence tests of the sharded query & intake
//! subsystem.
//!
//! Everything is deterministic per seed (the vendored xoshiro `StdRng`),
//! so two runs — or the same run on different storage backends — produce
//! bit-identical chains. (With a `max_block_entries` cap, block
//! composition follows the leader's fair-drain schedule, which depends on
//! author routing.)

use rand::{rngs::StdRng, RngExt, SeedableRng};
use seldel_chain::{BlockStore, Entry, EntryId, Timestamp};
use seldel_codec::DataRecord;
use seldel_core::{ChainConfig, CoreError, RetentionPolicy, RetireMode, SelectiveLedger};
use seldel_crypto::SigningKey;

/// A discrete Zipf sampler over ranks `0..n` (rank 0 is the hottest).
///
/// Weights are `1 / (rank + 1)^s`, prenormalised into a CDF; sampling is
/// one uniform draw plus a binary search. `s = 0` degenerates to uniform.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds the sampler for `n` ranks with skew `s`.
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero or `s` is negative/non-finite.
    pub fn new(n: usize, s: f64) -> ZipfSampler {
        assert!(n > 0, "zipf needs at least one rank");
        assert!(
            s >= 0.0 && s.is_finite(),
            "zipf skew must be finite and >= 0"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for rank in 0..n {
            acc += 1.0 / ((rank + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        ZipfSampler { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u = rng.random_range(0.0..1.0);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Multi-tenant workload parameters.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// Number of distinct authors (tenants).
    pub authors: usize,
    /// Zipf skew of the author distribution (0 = uniform; ~1 realistic).
    pub zipf_s: f64,
    /// Payload blocks to seal.
    pub blocks: u64,
    /// Entries submitted per sealed block.
    pub entries_per_block: usize,
    /// Every n-th submission is followed by an owner deletion attempt
    /// against a random previously placed entry (0 disables deletions).
    pub delete_every: u64,
    /// Ids per batched liveness query issued after each seal (0 disables
    /// queries).
    pub query_batch: usize,
    /// Sequence length l.
    pub sequence_length: u64,
    /// Retention limit l_max.
    pub l_max: u64,
    /// Leader block capacity (None = seal everything, the default).
    pub max_block_entries: Option<usize>,
    /// Workload RNG seed.
    pub seed: u64,
}

impl Default for TenantConfig {
    fn default() -> TenantConfig {
        TenantConfig {
            authors: 32,
            zipf_s: 1.1,
            blocks: 240,
            entries_per_block: 6,
            delete_every: 11,
            query_batch: 32,
            sequence_length: 5,
            l_max: 60,
            max_block_entries: None,
            seed: 0x7E4A7,
        }
    }
}

/// What a multi-tenant run did and found.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Payload blocks sealed.
    pub sealed_blocks: u64,
    /// Live data sets at the end.
    pub live_records: u64,
    /// Owner deletion requests accepted on-chain.
    pub deletions_requested: u64,
    /// Deletion attempts refused (duplicate, already gone, pending twin).
    pub deletions_refused: u64,
    /// Batched liveness queries issued (ids, not batches).
    pub queries: u64,
    /// Queried ids found live.
    pub query_hits: u64,
    /// Entries submitted by the hottest author.
    pub hottest_author_entries: u64,
    /// Entries submitted in total.
    pub total_entries: u64,
}

/// The ledger configuration a tenant run uses.
pub fn tenant_chain_config(cfg: &TenantConfig) -> ChainConfig {
    ChainConfig {
        sequence_length: cfg.sequence_length,
        retention: RetentionPolicy {
            max_live_blocks: Some(cfg.l_max),
            min_live_blocks: cfg.sequence_length,
            min_live_summaries: 1,
            min_timespan: None,
            mode: RetireMode::MinimumNeeded,
        },
        max_block_entries: cfg.max_block_entries,
        ..Default::default()
    }
}

/// Runs the workload on the default [`seldel_chain::MemStore`] backend.
pub fn run_multi_tenant(cfg: &TenantConfig) -> (SelectiveLedger, TenantReport) {
    run_multi_tenant_in::<seldel_chain::MemStore>(cfg)
}

/// Runs the workload on an explicit storage backend, returning the final
/// ledger (for lookup benchmarking / cross-backend comparison) and the
/// run report.
pub fn run_multi_tenant_in<S: BlockStore>(
    cfg: &TenantConfig,
) -> (SelectiveLedger<S>, TenantReport) {
    let ledger = SelectiveLedger::builder(tenant_chain_config(cfg))
        .store_backend::<S>()
        .build();
    drive_multi_tenant(ledger, cfg)
}

/// Drives the workload into a caller-built ledger — the hook for rooted
/// durable backends (open a `FileStore` directory, then drive).
pub fn drive_multi_tenant<S: BlockStore>(
    mut ledger: SelectiveLedger<S>,
    cfg: &TenantConfig,
) -> (SelectiveLedger<S>, TenantReport) {
    let keys: Vec<SigningKey> = (0..cfg.authors)
        .map(|a| {
            let mut seed = [0u8; 32];
            seed[..8].copy_from_slice(&(a as u64 + 1).to_le_bytes());
            seed[31] = 0xA7;
            SigningKey::from_seed(seed)
        })
        .collect();
    let zipf = ZipfSampler::new(cfg.authors, cfg.zipf_s);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut report = TenantReport {
        sealed_blocks: 0,
        live_records: 0,
        deletions_requested: 0,
        deletions_refused: 0,
        queries: 0,
        query_hits: 0,
        hottest_author_entries: 0,
        total_entries: 0,
    };
    let mut per_author = vec![0u64; cfg.authors];
    // Every id ever placed, with its author rank — deletion targets and
    // query probes (live and long-gone alike).
    let mut placed: Vec<(EntryId, usize)> = Vec::new();
    let mut counter = 0u64;

    for b in 1..=cfg.blocks {
        let ts = Timestamp(b * 10);
        for _ in 0..cfg.entries_per_block {
            counter += 1;
            let author = zipf.sample(&mut rng);
            per_author[author] += 1;
            report.total_entries += 1;
            let record = DataRecord::new("tenant")
                .with("a", author as u64)
                .with("n", counter);
            ledger
                .submit_entry(Entry::sign_data(&keys[author], record))
                .expect("workload entries are unique and valid");

            if cfg.delete_every > 0
                && counter.is_multiple_of(cfg.delete_every)
                && !placed.is_empty()
            {
                let pick = rng.random_range(0..placed.len());
                let (target, owner) = placed[pick];
                match ledger.request_deletion(&keys[owner], target, "tenant-delete") {
                    Ok(()) => report.deletions_requested += 1,
                    Err(
                        CoreError::DuplicateDeletion(_)
                        | CoreError::TargetNotFound(_)
                        | CoreError::DuplicatePending,
                    ) => report.deletions_refused += 1,
                    Err(other) => panic!("unexpected deletion rejection: {other}"),
                }
            }
        }

        let sealed = ledger.seal_block(ts).expect("monotone time");
        report.sealed_blocks += 1;
        // Record what actually landed (the capped drain may have deferred
        // some submissions to a later block).
        let block = ledger.chain().get(sealed).expect("just sealed").clone();
        for (i, entry) in block.entries().iter().enumerate() {
            if entry.is_delete_request() {
                continue;
            }
            let author = entry
                .payload()
                .as_data()
                .and_then(|r| r.get("a"))
                .and_then(|v| v.as_u64())
                .expect("tenant entries carry their author rank") as usize;
            placed.push((
                EntryId::new(sealed, seldel_chain::EntryNumber(i as u32)),
                author,
            ));
        }

        if cfg.query_batch > 0 && !placed.is_empty() {
            let batch: Vec<EntryId> = (0..cfg.query_batch)
                .map(|_| placed[rng.random_range(0..placed.len())].0)
                .collect();
            let audited = ledger.audit_live(&batch);
            report.queries += batch.len() as u64;
            report.query_hits += audited.iter().filter(|live| **live).count() as u64;
        }
    }

    report.live_records = ledger.chain().record_count();
    report.hottest_author_entries = per_author.iter().copied().max().unwrap_or(0);
    (ledger, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seldel_chain::{FileStore, MemStore};

    fn small_cfg() -> TenantConfig {
        TenantConfig {
            authors: 16,
            blocks: 60,
            entries_per_block: 4,
            l_max: 30,
            sequence_length: 5,
            ..Default::default()
        }
    }

    #[test]
    fn zipf_sampler_is_skewed_and_in_range() {
        let zipf = ZipfSampler::new(10, 1.2);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0u64; 10];
        for _ in 0..5_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts.iter().sum::<u64>() == 5_000);
        assert!(
            counts[0] > counts[9] * 3,
            "rank 0 must dominate the tail: {counts:?}"
        );
        // Uniform degenerates: no rank dominates.
        let flat = ZipfSampler::new(10, 0.0);
        let mut counts = [0u64; 10];
        for _ in 0..5_000 {
            counts[flat.sample(&mut rng)] += 1;
        }
        assert!(*counts.iter().max().unwrap() < 2 * *counts.iter().min().unwrap());
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let cfg = small_cfg();
        let (a, ra) = run_multi_tenant(&cfg);
        let (b, rb) = run_multi_tenant(&cfg);
        assert_eq!(ra, rb);
        assert_eq!(a.chain().tip_hash(), b.chain().tip_hash());
        assert_eq!(a.chain().export_bytes(), b.chain().export_bytes());
        // A different seed diverges.
        let (_, rc) = run_multi_tenant(&TenantConfig {
            seed: 99,
            ..small_cfg()
        });
        assert_ne!(ra, rc);
    }

    #[test]
    fn workload_is_skewed_but_everyone_writes() {
        let (_, report) = run_multi_tenant(&small_cfg());
        let uniform_share = report.total_entries / 16;
        assert!(
            report.hottest_author_entries > uniform_share * 2,
            "hottest {} vs uniform {}",
            report.hottest_author_entries,
            uniform_share
        );
        assert!(report.deletions_requested > 0, "no deletions exercised");
        assert!(report.queries > 0 && report.query_hits > 0);
    }

    #[test]
    fn shard_count_and_backend_are_invisible_to_the_chain() {
        let cfg = small_cfg();
        let (mem, rm) = run_multi_tenant_in::<MemStore>(&cfg);
        let (file, rf) = run_multi_tenant_in::<FileStore>(&cfg);
        assert_eq!(rm, rf, "backend changed observable behaviour");
        assert_eq!(mem.chain().export_bytes(), file.chain().export_bytes());
        // The sharded index answers exactly like the monolithic one.
        assert_eq!(mem.chain().entry_index(), &mem.chain().rebuilt_index());
        assert_eq!(file.chain().entry_index(), &file.chain().rebuilt_index());
    }

    #[test]
    fn capped_blocks_respect_the_capacity_and_lose_nothing() {
        let cfg = TenantConfig {
            max_block_entries: Some(3),
            entries_per_block: 5,
            blocks: 40,
            delete_every: 0,
            ..small_cfg()
        };
        let (ledger, report) = run_multi_tenant(&cfg);
        for block in ledger.chain().iter() {
            assert!(
                block.entries().len() <= 3,
                "block {} oversize",
                block.number()
            );
        }
        // The backlog never drained fully (5 in, 3 out per block), but
        // everything sealed so far is intact.
        assert_eq!(report.total_entries, 200);
        assert!(ledger.stats().pending_entries > 0);
    }
}
