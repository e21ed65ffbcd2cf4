//! The read phase: the closed store reopened behind a cache a quarter
//! of the live chain, and an interleaved mix of hot and cold lookups,
//! audit batches and proofs from pre-generated id arrays.

use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::path::Path;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use seldel_chain::{
    prove_deleted, prove_live, verify_proof, BlockNumber, EntryId, FileStore, HeaderChain, Location,
};
use seldel_codec::DataRecord;
use seldel_core::SelectiveLedger;
use seldel_sim::ZipfSampler;

use super::{chain_config, dir_bytes, Ledger, Run, WriteOut};
use crate::gen::Generator;
use crate::spec::{Workload, ENTRIES_PER_BLOCK};

/// Lookups per timed hot run.
pub const HOT_RUN: usize = 64;
/// Ids per read-phase `audit_live` batch.
pub const AUDIT_BATCH: usize = 32;

/// What the generator is sure of about one data entry at the end of the
/// write phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Never targeted and not expired: must be found with its record.
    Live,
    /// Deletion executed: must be gone.
    Erased,
    /// Deletion requested but its merge has not happened yet.
    Marked,
    /// Past its expiry: dropped at some merge, or not yet.
    Unknown,
}

pub fn fates(gen: &Generator, write: &WriteOut) -> Vec<Fate> {
    gen.records
        .iter()
        .map(|r| {
            if write.executed.contains(&r.id) {
                Fate::Erased
            } else if r.delete_block.is_some() {
                Fate::Marked
            } else if r.expires_at.is_some_and(|t| t <= write.final_ts) {
                Fate::Unknown
            } else {
                Fate::Live
            }
        })
        .collect()
}

/// The four kinds of operation in the read mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadClass {
    /// A run of `HOT_RUN` lookups over recently written ids.
    Hot,
    /// One lookup on the LRU-adversarial sweep.
    Cold,
    /// One `audit_live` batch of `AUDIT_BATCH` ids.
    Audit,
    /// One `prove_live` plus `verify_proof`.
    Proof,
}

/// What the read phase measured.
pub struct ReadOut {
    pub busy_ns: u64,
    pub cache_blocks: usize,
    pub live_blocks: u64,
    /// Every timed slot of the mix, in the order it ran.
    pub slots: Vec<(ReadClass, u64)>,
    pub prove_deleted_ns: Vec<u64>,
    /// Cache misses taken by the cold class.
    pub cold_misses: u64,
    /// Cache hit ratio over the whole mix.
    pub hits: u64,
    pub misses: u64,
    pub store_bytes: u64,
    pub live_record_bytes: u64,
}

impl ReadOut {
    /// Wall ns of every slot of `class`, in the order they ran.
    pub fn samples(&self, class: ReadClass) -> Vec<u64> {
        let of_class = self.slots.iter().filter(|s| s.0 == class);
        of_class.map(|s| s.1).collect()
    }
}

/// Pre-generated id arrays of the read mix (indices into `gen.records`).
struct ReadPlan {
    hot: Vec<usize>,
    cold: Vec<usize>,
    audit: Vec<usize>,
    proofs: Vec<usize>,
}

fn plan_reads(
    gen: &Generator,
    fate: &[Fate],
    ledger: &Ledger,
    cache_blocks: usize,
    slots: u64,
    rng: &mut StdRng,
) -> ReadPlan {
    let slots = slots as usize;
    let (hot_runs, cold_n) = (slots * 70 / 100, slots * 20 / 100);
    let (audits, proofs_n) = (slots / 100, slots * 9 / 100);
    let live: Vec<usize> = (0..fate.len()).filter(|&i| fate[i] == Fate::Live).collect();
    assert!(!live.is_empty(), "no live record to read");

    // Hot: Zipf over the newest blocks that fit half the cache, uniform
    // inside a block.
    let payload_blocks = gen.records.len() / ENTRIES_PER_BLOCK;
    let span = (cache_blocks / 2).clamp(1, payload_blocks);
    let zipf = ZipfSampler::new(span, 1.1);
    let mut hot = Vec::with_capacity(hot_runs * HOT_RUN);
    while hot.len() < hot_runs * HOT_RUN {
        let block = payload_blocks - 1 - zipf.sample(rng);
        let r = block * ENTRIES_PER_BLOCK + rng.random_range(0..ENTRIES_PER_BLOCK);
        if fate[r] == Fate::Live {
            hot.push(r);
        }
    }

    // Cold: a cyclic sweep over every block behind the hot span that
    // holds live data (sigma blocks included), one id per block per pass
    // — with a cache a quarter of the chain, LRU has always just evicted
    // the next block.
    let index = ledger.chain().entry_index();
    let mut by_holder: BTreeMap<BlockNumber, Vec<usize>> = BTreeMap::new();
    for &r in live
        .iter()
        .filter(|&&r| r < (payload_blocks - span) * ENTRIES_PER_BLOCK)
    {
        let id = gen.records[r].id;
        if let Some(location) = index.get(id) {
            by_holder.entry(location.holder(id)).or_default().push(r);
        }
    }
    let holders: Vec<&Vec<usize>> = by_holder.values().collect();
    let cold = (0..cold_n)
        .map(|i| {
            let ids = holders[i % holders.len()];
            ids[(i / holders.len()) % ids.len()]
        })
        .collect();

    // Audit: uniform over everything whose answer is certain.
    let certain: Vec<usize> = (0..fate.len())
        .filter(|&i| fate[i] != Fate::Unknown)
        .collect();
    let audit = (0..audits * AUDIT_BATCH)
        .map(|_| certain[rng.random_range(0..certain.len())])
        .collect();
    // Proofs: uniform over the live records of the hot span — still in
    // their original block and in the cache, so a proof is a Merkle path
    // and a signature check, not a page-in (the cold class measures
    // that), and it does not load blocks into the cold sweep's way. (A
    // sigma-resident record's proof rebuilds the Merkle tree of a whole
    // summary block: ten times the cost, and a median over both kinds
    // would sit on the edge between them.)
    let in_block: Vec<usize> = live
        .iter()
        .copied()
        .filter(|&r| r >= (payload_blocks - span) * ENTRIES_PER_BLOCK)
        .filter(|&r| index.get(gen.records[r].id) == Some(Location::InBlock))
        .collect();
    assert!(!in_block.is_empty(), "no live record in the hot span");
    let proofs = (0..proofs_n)
        .map(|_| in_block[rng.random_range(0..in_block.len())])
        .collect();
    ReadPlan {
        hot,
        cold,
        audit,
        proofs,
    }
}

/// Reopens the closed store behind a cache a quarter of the live chain
/// (set-up) and runs the timed read mix. Returns the reopened ledger as
/// the reference copy for the recover phase.
pub fn read_phase(
    w: &Workload,
    gen: &Generator,
    fate: &[Fate],
    slots: u64,
    dir: &Path,
    run: &mut Run<'_>,
) -> (ReadOut, Ledger) {
    let started = Instant::now();
    let store_bytes = dir_bytes(dir);
    let probe = FileStore::open(dir).expect("closed store reopens");
    let live_blocks = seldel_chain::BlockStore::len(&probe) as u64;
    let cache_blocks = (live_blocks as usize / 4).max(4);
    let ledger = SelectiveLedger::builder(chain_config(w))
        .store_backend::<FileStore>()
        .open_store(probe.with_hot_cache_capacity(cache_blocks))
        .expect("closed store validates");
    let mut rng = StdRng::seed_from_u64(gen.seed ^ 0x0052_4541_4453);
    let plan = plan_reads(gen, fate, &ledger, cache_blocks, slots, &mut rng);
    let headers = HeaderChain::from_chain(ledger.chain());
    let live_record_bytes: u64 = ledger
        .chain()
        .live_records()
        .iter()
        .map(|(_, record)| record.byte_size() as u64)
        .sum();
    run.setup_ns += started.elapsed().as_nanos() as u64;

    let store = ledger.chain().store();
    let busy_start = run.meter.busy_ns();
    let (hits_start, misses_start) = (store.hot_cache_hits(), store.hot_cache_misses());
    let mut out = ReadOut {
        busy_ns: 0,
        cache_blocks,
        live_blocks,
        slots: Vec::with_capacity(slots as usize),
        prove_deleted_ns: Vec::new(),
        cold_misses: 0,
        hits: 0,
        misses: 0,
        store_bytes,
        live_record_bytes,
    };
    let (mut hot, mut cold, mut audit, mut proofs) = (
        plan.hot.chunks_exact(HOT_RUN),
        plan.cold.iter(),
        plan.audit.chunks_exact(AUDIT_BATCH),
        plan.proofs.iter(),
    );
    let mut found: Vec<Option<DataRecord>> = Vec::with_capacity(HOT_RUN);
    let mut ids: Vec<EntryId> = Vec::with_capacity(AUDIT_BATCH);
    for slot in 0..slots {
        // Hot and cold alternate in runs of 7 and 2; a proof — every
        // hundredth slot an audit — closes each ten.
        match slot % 100 {
            s if s % 10 < 7 => {
                let Some(wanted) = hot.next() else { continue };
                ids.clear();
                ids.extend(wanted.iter().map(|&r| gen.records[r].id));
                found.clear();
                let (_, ns) = run.meter.call("ledger.record.hot", slot, || {
                    for id in &ids {
                        found.push(ledger.record(*id));
                    }
                });
                out.slots.push((ReadClass::Hot, ns));
                for (&r, got) in wanted.iter().zip(&found) {
                    run.tally
                        .op(got.as_ref() == Some(&gen.records[r].record), || {
                            format!(
                                "hot lookup of {} returned a wrong record",
                                gen.records[r].id
                            )
                        });
                }
            }
            s if s % 10 < 9 => {
                let Some(&r) = cold.next() else { continue };
                let id = gen.records[r].id;
                let before = store.hot_cache_misses();
                let (got, ns) = run
                    .meter
                    .call("ledger.record.cold", slot, || ledger.record(id));
                out.cold_misses += store.hot_cache_misses() - before;
                out.slots.push((ReadClass::Cold, ns));
                run.tally
                    .op(got.as_ref() == Some(&gen.records[r].record), || {
                        format!("cold lookup of {id} returned a wrong record")
                    });
            }
            99 => {
                let Some(batch) = audit.next() else { continue };
                ids.clear();
                ids.extend(batch.iter().map(|&r| gen.records[r].id));
                let (live, ns) = run
                    .meter
                    .call("ledger.audit_live", slot, || ledger.audit_live(&ids));
                out.slots.push((ReadClass::Audit, ns));
                let agrees = batch
                    .iter()
                    .zip(&live)
                    .all(|(&r, &l)| l == (fate[r] == Fate::Live));
                run.tally.op(agrees, || {
                    format!("audit batch at slot {slot} disagrees with the generator")
                });
            }
            _ => {
                let Some(&r) = proofs.next() else { continue };
                let id = gen.records[r].id;
                run.meter.enter("proof", slot);
                let (proof, prove) = run
                    .meter
                    .call("chain.prove_live", slot, || prove_live(ledger.chain(), id));
                let (verdict, verify) = run.meter.call("chain.verify_proof", slot, || {
                    proof
                        .as_ref()
                        .map_err(Clone::clone)
                        .and_then(|p| verify_proof(p, id, &headers))
                });
                run.meter.exit();
                out.slots.push((ReadClass::Proof, prove + verify));
                run.tally.op(verdict.is_ok(), || {
                    format!("proof of {id} failed: {verdict:?}")
                });
            }
        }
    }
    out.busy_ns = run.meter.busy_ns() - busy_start;
    out.hits = store.hot_cache_hits() - hits_start;
    out.misses = store.hot_cache_misses() - misses_start;

    // Erased records: gone from the index, the audit and the raw bytes of
    // the directory; a sample of them proves deleted.
    let erased: Vec<usize> = (0..fate.len())
        .filter(|&i| fate[i] == Fate::Erased)
        .collect();
    for &r in &erased {
        let id = gen.records[r].id;
        run.tally.check(ledger.record(id).is_none(), || {
            format!("erased {id} is still served")
        });
    }
    let gone = ledger.audit_live(
        &erased
            .iter()
            .map(|&r| gen.records[r].id)
            .collect::<Vec<_>>(),
    );
    run.tally.check(gone.iter().all(|live| !live), || {
        "audit_live is true for an erased id".into()
    });
    let on_disk = sentinels_on_disk(
        dir,
        erased.iter().map(|&r| gen.records[r].sentinel.as_str()),
    );
    run.tally.check(on_disk == 0, || {
        format!("{on_disk} erased payloads are still on disk")
    });
    for &r in erased.iter().rev().step_by((erased.len() / 4).max(1)) {
        let id = gen.records[r].id;
        let (verdict, ns) = run.meter.call("chain.prove_deleted", r as u64, || {
            prove_deleted(ledger.chain(), id).and_then(|p| verify_proof(&p, id, &headers))
        });
        out.prove_deleted_ns.push(ns);
        run.tally.op(verdict.is_ok(), || {
            format!("prove_deleted of {id} failed: {verdict:?}")
        });
    }
    (out, ledger)
}

/// How many of `sentinels` occur anywhere in the raw bytes of the files
/// under `dir`. One pass per file: a set of 16-byte prefixes finds the
/// candidates, the full text confirms them.
pub fn sentinels_on_disk<'a>(dir: &Path, sentinels: impl Iterator<Item = &'a str>) -> usize {
    const PREFIX: usize = 16;
    let mut by_prefix: HashMap<&[u8], Vec<&[u8]>> = HashMap::new();
    for s in sentinels {
        by_prefix
            .entry(&s.as_bytes()[..PREFIX])
            .or_default()
            .push(s.as_bytes());
    }
    let mut found = 0;
    for entry in fs::read_dir(dir).expect("store directory is readable") {
        let bytes =
            fs::read(entry.expect("directory entry").path()).expect("store file is readable");
        for (at, window) in bytes.windows(PREFIX).enumerate() {
            if let Some(full) = by_prefix.get(window) {
                found += full.iter().filter(|f| bytes[at..].starts_with(f)).count();
            }
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentinel_search_finds_whole_payloads_only() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-sentinels");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let present = "0123456789abcdef0123456789abcdefXYZ";
        let absent = "0123456789abcdef0123456789abcdefQQQ";
        fs::write(dir.join("seg-a"), format!("....{present}....")).unwrap();
        // Shares the 16-byte prefix with both, but is neither.
        fs::write(dir.join("seg-b"), "0123456789abcdef0123456789abcdef").unwrap();
        assert_eq!(sentinels_on_disk(&dir, [present, absent].into_iter()), 1);
        assert_eq!(sentinels_on_disk(&dir, [absent].into_iter()), 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
