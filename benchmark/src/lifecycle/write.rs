//! The write phase: pre-signed blocks through a leader anchor on a
//! simulated network, one cycle at a time, with a `MemStore` oracle fed
//! off the clock.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::time::Instant;

use seldel_chain::{BlockKind, BlockNumber, EntryId, FileStore, MemStore};
use seldel_core::{LedgerEvent, LedgerStats, SelectiveLedger};
use seldel_crypto::Digest32;
use seldel_network::{NetConfig, NodeId, SimNetwork};
use seldel_node::{AnchorNode, AnchorStats, NodeMessage};

use super::{chain_config, copy_dir, open_ledger, Run, Tally};
use crate::gen::{BlockInput, BLOCK_INTERVAL_MS};
use crate::spec::{Workload, ENTRIES_PER_BLOCK};
use crate::trace::Meter;

/// Unsynced blocks sealed after the write phase so the crash image has a
/// suffix to lose.
const UNSYNCED_TAIL: u64 = 3;

type Anchor = AnchorNode<FileStore>;

/// What the write phase measured and left behind.
pub struct WriteOut {
    /// Busy time of the timed cycles (warm-up excluded), drain included.
    pub busy_ns: u64,
    /// Wall time of every cycle on the clock, in order: one per timed
    /// payload block, then the empty drain cycles.
    pub cycle_ns: Vec<u64>,
    /// How many of `cycle_ns` carried a payload block.
    pub timed_cycles: usize,
    /// Per deletion requested and executed in the timed region: busy time
    /// from the start of the cycle that carried its request to the end of
    /// the cycle whose seal erased the record.
    pub erase_ns: Vec<u64>,
    /// Payload blocks from request to execution.
    pub erase_blocks: Vec<u64>,
    /// Timed data entries, all at or below the durable watermark.
    pub durable_entries: u64,
    /// Every deletion the anchor reported executed, warm-up included.
    pub executed: HashSet<EntryId>,
    pub stats: LedgerStats,
    pub anchor: AnchorStats,
    /// Hot-cache hits and misses of the store during the timed cycles.
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub tail_fsyncs: u64,
    pub blocks_sealed_timed: u64,
    pub resident_bytes: u64,
    /// SHA-256 digests the program finalised during the timed cycles.
    pub digests: u64,
    /// Time the program's own spans recorded during the timed cycles
    /// (all zero unless `seldel-telemetry` is on).
    pub program: ProgramSpans,
    /// Durable watermark and tip when the crash image was taken.
    pub watermark: u64,
    pub tip: u64,
    pub tip_hash: Digest32,
    /// Virtual time of the last sealed block.
    pub final_ts: u64,
}

/// Sums of the program's own span histograms, in ns.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProgramSpans {
    /// `ledger.sigma.ns`: building summary blocks.
    pub sigma: u64,
    /// `chain.prune.ns`: cutting retired sequences off, its barrier included.
    pub prune: u64,
    /// `fstore.fsync.ns`.
    pub fsync: u64,
}

impl ProgramSpans {
    fn now() -> ProgramSpans {
        let snapshot = seldel_telemetry::Registry::global().snapshot();
        let sum = |name: &str| snapshot.histogram(name).map_or(0, |h| h.sum);
        ProgramSpans {
            sigma: sum("ledger.sigma.ns"),
            prune: sum("chain.prune.ns"),
            fsync: sum("fstore.fsync.ns"),
        }
    }

    fn since(self, start: ProgramSpans) -> ProgramSpans {
        ProgramSpans {
            sigma: self.sigma - start.sigma,
            prune: self.prune - start.prune,
            fsync: self.fsync - start.fsync,
        }
    }
}

struct Cluster {
    net: SimNetwork<NodeMessage>,
    leader: NodeId,
    oracle: SelectiveLedger<MemStore>,
    /// Deletion target → (timed cycle that carried the request, block index).
    requested: HashMap<EntryId, (usize, u64)>,
    executed: HashSet<EntryId>,
    submitted: u64,
}

impl Cluster {
    fn new(w: &Workload, dir: &Path) -> Cluster {
        // Fixed one-way latency: submits of one cycle arrive in the
        // order sent, so entry ids are known when requests are signed.
        let mut net = SimNetwork::new(NetConfig {
            min_latency_ms: 1,
            max_latency_ms: 1,
            ..NetConfig::default()
        });
        let leader = NodeId(0);
        let id = net.add_node(Box::new(Anchor::new(
            open_ledger(w, dir),
            leader,
            BLOCK_INTERVAL_MS,
        )));
        assert_eq!(id, leader);
        net.schedule_tick(leader, BLOCK_INTERVAL_MS);
        Cluster {
            net,
            leader,
            oracle: SelectiveLedger::builder(chain_config(w)).build(),
            requested: HashMap::new(),
            executed: HashSet::new(),
            submitted: 0,
        }
    }

    fn anchor(&self) -> &Anchor {
        self.net
            .node_as::<Anchor>(self.leader)
            .expect("leader is an anchor")
    }

    /// One block cycle on the clock: submit the block's entries, run the
    /// network until the leader's tick sealed them. Returns its wall ns.
    fn cycle(&mut self, meter: &mut Meter, op: u64, entries: Vec<seldel_chain::Entry>) -> u64 {
        self.submitted += entries.len() as u64;
        let (net, leader) = (&mut self.net, self.leader);
        meter.enter("cycle", op);
        let (_, sent) = meter.call("net.send_external", op, || {
            for entry in entries {
                net.send_external(leader, NodeMessage::Submit(entry));
            }
        });
        let until = net.now() + BLOCK_INTERVAL_MS;
        let (_, ran) = meter.call("net.run_until", op, || net.run_until(until));
        meter.exit();
        sent + ran
    }

    /// Off the clock: feeds the oracle the blocks the anchor sealed,
    /// drains the anchor's events, books executed deletions. Returns, per
    /// deletion this cycle executed, `(request cycle, blocks waited)`.
    fn settle(&mut self, index: u64, tally: &mut Tally) -> Vec<(usize, u64)> {
        let anchor = self
            .net
            .node_as::<Anchor>(self.leader)
            .expect("leader is an anchor");
        let chain = anchor.ledger().chain();
        let mut n = self.oracle.chain().tip().number().next();
        while n <= chain.tip().number() {
            let block = chain.get(n).expect("sealed block is live");
            if block.kind() != BlockKind::Summary {
                let applied = self.oracle.apply_block(block.block().clone());
                tally.check(applied.is_ok(), || {
                    format!("oracle refused block {n}: {applied:?}")
                });
            }
            n = n.next();
        }
        let events = self
            .net
            .with_node_as_mut(self.leader, |a: &mut Anchor| std::mem::take(&mut a.events));
        let mut done = Vec::new();
        for event in events {
            match event {
                LedgerEvent::DeletionExecuted { target, .. } => {
                    self.executed.insert(target);
                    if let Some((cycle_then, block_then)) = self.requested.remove(&target) {
                        done.push((cycle_then, index - block_then));
                    }
                }
                LedgerEvent::DeletionIneffective { target, reason } => {
                    tally.op(false, || {
                        format!("deletion of {target} ineffective: {reason}")
                    });
                }
                _ => {}
            }
        }
        done
    }

    /// Checks the sealed block holds exactly the generated entries, in
    /// submit order.
    fn check_block(&self, block: &BlockInput, tally: &mut Tally) {
        let chain = self.anchor().ledger().chain();
        let sealed = chain.get(BlockNumber(block.number));
        let same = sealed
            .as_ref()
            .is_some_and(|b| b.entries() == block.entries.as_slice());
        tally.check(same, || {
            format!("block {} does not hold the submitted entries", block.number)
        });
    }
}

/// Runs warm-up (off the clock) and the timed write phase.
pub fn write_phase(
    w: &Workload,
    blocks: &[BlockInput],
    warm: usize,
    dir: &Path,
    crash_image: &Path,
    run: &mut Run<'_>,
) -> WriteOut {
    let started = Instant::now();
    let mut cluster = Cluster::new(w, dir);
    let mut unclocked = Meter::new(false);
    for block in &blocks[..warm] {
        for target in &block.deletes {
            cluster.requested.insert(*target, (0, block.index));
        }
        cluster.cycle(&mut unclocked, block.number, block.entries.clone());
        cluster.check_block(block, &mut run.tally);
        cluster.settle(block.index, &mut run.tally);
    }
    // Warm-up requests still pending execute inside the timed region but
    // were submitted before it: they are not erase samples.
    cluster.requested.clear();
    run.setup_ns += started.elapsed().as_nanos() as u64;

    let busy_start = run.meter.busy_ns();
    let store = cluster.anchor().ledger().chain().store();
    let fsyncs_start = store.tail_fsyncs();
    let (hits_start, misses_start) = (store.hot_cache_hits(), store.hot_cache_misses());
    let sealed_start = cluster.anchor().stats().blocks_sealed;
    let digests_start = seldel_crypto::digests_finalized();
    let program_start = ProgramSpans::now();
    let timed = &blocks[warm..];
    let mut cycle_ns = Vec::with_capacity(timed.len() + 16);
    let mut audit_ns = Vec::with_capacity(timed.len() + 16);
    let mut erase_span = Vec::new();
    let mut erase_blocks = Vec::new();
    for block in timed {
        let this = cycle_ns.len();
        for target in &block.deletes {
            cluster.requested.insert(*target, (this, block.index));
        }
        let entries = block.entries.clone();
        cycle_ns.push(cluster.cycle(run.meter, block.number, entries));
        audit_ns.push(0);
        if !block.audit.is_empty() {
            let anchor = cluster.anchor();
            let (live, ns) = run.meter.call("ledger.audit_live", block.number, || {
                anchor.ledger().audit_live(&block.audit)
            });
            audit_ns[this] = ns;
            run.tally.op(live == block.audit_expect, || {
                format!(
                    "audit_live after block {} disagrees with the generator",
                    block.number
                )
            });
        }
        cluster.check_block(block, &mut run.tally);
        for (requested, blocks) in cluster.settle(block.index, &mut run.tally) {
            erase_span.push((requested, this));
            erase_blocks.push(blocks);
        }
    }
    // Entries count once they are durable: keep the leader ticking until
    // its watermark covers the last timed block (the announce bound
    // forces a barrier within a few empty blocks).
    let timed_cycles = cycle_ns.len();
    let last = timed.last().map_or(0, |b| b.number);
    let mut index = timed.last().map_or(0, |b| b.index);
    while cluster
        .anchor()
        .ledger()
        .durable_tip()
        .map_or(0, |n| n.value())
        < last
    {
        index += 1;
        let this = cycle_ns.len();
        cycle_ns.push(cluster.cycle(
            run.meter,
            last + 1 + (this - timed_cycles) as u64,
            Vec::new(),
        ));
        audit_ns.push(0);
        for (requested, blocks) in cluster.settle(index, &mut run.tally) {
            erase_span.push((requested, this));
            erase_blocks.push(blocks);
        }
        assert!(
            this - timed_cycles < 200,
            "durable watermark never reached block {last}"
        );
    }
    let busy_ns = run.meter.busy_ns() - busy_start;
    // busy_until[i]: write-phase busy time when cycle i starts.
    let mut busy_until = vec![0u64; cycle_ns.len() + 1];
    for i in 0..cycle_ns.len() {
        busy_until[i + 1] = busy_until[i] + cycle_ns[i] + audit_ns[i];
    }
    let erase_ns = erase_span
        .iter()
        .map(|&(requested, erased)| busy_until[erased + 1] - busy_until[requested])
        .collect();
    let digests = seldel_crypto::digests_finalized() - digests_start;
    let program = ProgramSpans::now().since(program_start);

    let anchor_stats = cluster.anchor().stats();
    let store = cluster.anchor().ledger().chain().store();
    let cache_hits = store.hot_cache_hits() - hits_start;
    let cache_misses = store.hot_cache_misses() - misses_start;
    let tail_fsyncs = store.tail_fsyncs() - fsyncs_start;
    let resident_bytes = seldel_chain::BlockStore::resident_bytes(store);
    run.tally.check(anchor_stats.entries_rejected == 0, || {
        format!(
            "{} entries rejected at intake",
            anchor_stats.entries_rejected
        )
    });
    run.tally
        .check(anchor_stats.entries_accepted == cluster.submitted, || {
            format!(
                "{} of {} entries accepted",
                anchor_stats.entries_accepted, cluster.submitted
            )
        });
    run.tally.attempted += cluster.submitted;
    run.tally.failed += cluster.submitted - anchor_stats.entries_accepted.min(cluster.submitted);

    // Off the clock: a few blocks the store has not fsynced yet, then the
    // crash image and the oracle comparison.
    let started = Instant::now();
    for _ in 0..UNSYNCED_TAIL {
        index += 1;
        cluster.cycle(&mut unclocked, 0, Vec::new());
        cluster.settle(index, &mut run.tally);
    }
    let ledger = cluster.anchor().ledger();
    let watermark = ledger.durable_tip().map_or(0, |n| n.value());
    let tip = ledger.chain().tip().number().value();
    copy_dir(dir, crash_image);
    run.setup_ns += started.elapsed().as_nanos() as u64;

    let stats = ledger.stats();
    let tip_hash = ledger.chain().tip_hash();
    let final_ts = ledger.chain().tip().timestamp().millis();
    let oracle = &cluster.oracle;
    run.tally.check(oracle.chain().tip_hash() == tip_hash, || {
        "tip hash differs from the MemStore oracle".to_string()
    });
    run.tally
        .check(oracle.stats().live_records == stats.live_records, || {
            format!(
                "live_records {} differs from the oracle's {}",
                stats.live_records,
                oracle.stats().live_records
            )
        });
    run.tally
        .check(oracle.chain().marker() == stats.marker, || {
            "marker differs from the oracle".into()
        });

    WriteOut {
        busy_ns,
        cycle_ns,
        timed_cycles,
        erase_ns,
        erase_blocks,
        durable_entries: (timed.len() * ENTRIES_PER_BLOCK) as u64,
        executed: std::mem::take(&mut cluster.executed),
        stats,
        anchor: anchor_stats,
        cache_hits,
        cache_misses,
        tail_fsyncs,
        blocks_sealed_timed: anchor_stats.blocks_sealed - sealed_start,
        resident_bytes,
        digests,
        program,
        watermark,
        tip,
        tip_hash,
        final_ts,
    }
    // `cluster` drops here: the anchor stops and the store closes.
}
