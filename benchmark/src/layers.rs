//! The traced run: the lifecycle again at a quarter length with
//! `seldel-telemetry` on and spans kept, then the same generated inputs
//! replayed through probes that time each layer's public functions from
//! outside. Unit costs are measured on the workload's own entries, blocks
//! and store, so a layer's share of a phase is count × unit ÷ busy time.

use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use seldel_chain::{
    prove_live, validate_full, validate_incremental, verify_proof, Block, BlockKind, BlockNumber,
    BlockStore, Blockchain, EntryId, FileStore, HeaderChain, SealedBlock, ShardedIndex, Timestamp,
    DEFAULT_SHARD_COUNT,
};
use seldel_codec::Codec;
use seldel_core::{LedgerEvent, SelectiveLedger, Selector};
use seldel_crypto::{sha256, MerkleTree};
use seldel_network::{Context, NetConfig, NodeId, SimNetwork, SimNode};
use seldel_node::NodeMessage;
use seldel_telemetry::Registry;

use crate::gen::BlockInput;
use crate::lifecycle::{
    self, chain_config, copy_dir, dir_bytes, Artefacts, Fate, Outcome, ReadClass, Run, Scratch,
    Tally, WriteOut, AUDIT_BATCH, HOT_RUN,
};
use crate::spec::{Better, PerLayer, Workload, ENTRIES_PER_BLOCK};
use crate::stats::{median, percentile_of};
use crate::trace::{render_trace, self_times, Meter};

/// The traced run measures a quarter of the untraced length.
pub const TRACE_SHARE: f64 = 0.25;

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 56] = [
    layer("crypto.verify_us", "us", Lower),
    layer("crypto.sign_us", "us", Lower),
    layer("crypto.verify_share", "ratio", Lower),
    layer("crypto.sha256_ns_64b", "ns", Lower),
    layer("crypto.sha256_mib_s", "MiB/s", Higher),
    layer("crypto.merkle_ns_per_leaf", "ns", Lower),
    layer("crypto.digests_per_block", "count", Lower),
    layer("codec.encode_block_us", "us", Lower),
    layer("codec.decode_block_us", "us", Lower),
    layer("codec.bytes_per_entry", "bytes", Lower),
    layer("chain.seal_block_us", "us", Lower),
    layer("chain.push_us", "us", Lower),
    layer("chain.index.get_ns", "ns", Lower),
    layer("chain.index.index_block_us", "us", Lower),
    layer("chain.index.retire_us", "us", Lower),
    layer("chain.locate_hot_ns", "ns", Lower),
    layer("chain.locate_many_ns_per_id", "ns", Lower),
    layer("chain.truncate_front_ms", "ms", Lower),
    layer("chain.validate_full_us_per_block", "us", Lower),
    layer("chain.validate_incremental_us_per_block", "us", Lower),
    layer("chain.prove_live_us", "us", Lower),
    layer("chain.verify_proof_us", "us", Lower),
    layer("chain.prove_deleted_ms", "ms", Lower),
    layer("fstore.append_us", "us", Lower),
    layer("fstore.fsync_ms_p50", "ms", Lower),
    layer("fstore.fsyncs_per_block", "ratio", Lower),
    layer("fstore.cold_lookup_us_p99", "us", Lower),
    layer("fstore.page_in_us", "us", Lower),
    layer("fstore.cache_hit_ratio", "ratio", Higher),
    layer("fstore.cold_miss_ratio", "ratio", Higher),
    layer("fstore.read_hit_ratio", "ratio", Higher),
    layer("fstore.open_ms", "ms", Lower),
    layer("fstore.drain_front_ms", "ms", Lower),
    layer("fstore.resident_bytes", "bytes", Lower),
    layer("fstore.disk_bytes", "bytes", Lower),
    layer("core.submit_entry_us", "us", Lower),
    layer("core.seal_plain_us", "us", Lower),
    layer("core.sigma_slot_ms_p50", "ms", Lower),
    layer("core.sigma_slot_ms_p99", "ms", Lower),
    layer("core.sigma_us_per_record", "us", Lower),
    layer("core.sigma_share", "ratio", Lower),
    layer("chain.prune_share", "ratio", Lower),
    layer("fstore.fsync_share", "ratio", Lower),
    layer("core.audit_live_us_per_id", "us", Lower),
    layer("core.erase_blocks_p50", "count", Lower),
    layer("core.open_store_ms", "ms", Lower),
    layer("core.policy.plan_ms", "ms", Lower),
    layer("core.policy.apply_us_per_id", "us", Lower),
    layer("core.seal_paged_ms", "ms", Lower),
    layer("node.overhead_us_per_entry", "us", Lower),
    layer("node.commit_ms_p99", "ms", Lower),
    layer("node.fsync_stalls", "count", Lower),
    layer("node.announce_queue_peak", "count", Lower),
    layer("network.dispatch_ns", "ns", Lower),
    layer("telemetry.overhead_share", "ratio", Lower),
    layer("ledger_coverage", "ratio", Higher),
];

/// Mean ns per call of `f` over `n` calls.
fn per_op(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let n = n.max(1);
    let start = Instant::now();
    for i in 0..n {
        f(i);
    }
    start.elapsed().as_nanos() as f64 / n as f64
}

fn time_ns<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as u64)
}

fn med(samples: &[u64]) -> f64 {
    median(&samples.iter().map(|&n| n as f64).collect::<Vec<_>>())
}

/// The same inputs straight into a rooted ledger, no node, no network:
/// every submit and every seal timed on its own.
struct Direct {
    /// Per entry: `Entry::verify` alone, then `submit_entry` (which
    /// verifies again) — the difference is intake's own time.
    verify_ns: Vec<u64>,
    submit_ns: Vec<u64>,
    /// Per payload block: its submits plus its seal call.
    block_ns: Vec<u64>,
    seal_plain_ns: Vec<u64>,
    /// Seal calls that crossed a summary slot.
    seal_sigma_ns: Vec<u64>,
    /// Records of retired sequences the sigma slots went through:
    /// carried forward, erased or expired.
    examined: u64,
}

fn direct_replay(w: &Workload, blocks: &[BlockInput], warm: usize, dir: &Path) -> Direct {
    let mut ledger = SelectiveLedger::builder(chain_config(w))
        .store_backend::<FileStore>()
        .on_disk(dir)
        .expect("fresh store directory opens");
    let mut out = Direct {
        verify_ns: Vec::new(),
        submit_ns: Vec::new(),
        block_ns: Vec::new(),
        seal_plain_ns: Vec::new(),
        seal_sigma_ns: Vec::new(),
        examined: 0,
    };
    for (i, block) in blocks.iter().enumerate() {
        let timed = i >= warm;
        let mut block_ns = 0;
        for entry in block.entries.iter().cloned() {
            let (verified, verify_ns) = time_ns(|| entry.verify());
            verified.expect("generated entries verify");
            let (accepted, ns) = time_ns(|| ledger.submit_entry(entry));
            accepted.expect("the direct ledger accepts what the anchor accepted");
            block_ns += ns;
            if timed {
                out.verify_ns.push(verify_ns);
                out.submit_ns.push(ns);
            }
        }
        let tip = ledger.chain().tip().number().value();
        let (sealed, ns) = time_ns(|| ledger.seal_block(Timestamp(block.sealed_at)));
        sealed.expect("virtual time is monotone");
        let examined: usize = ledger
            .drain_events()
            .iter()
            .map(|e| match e {
                LedgerEvent::SummaryCreated { records, .. } => *records,
                LedgerEvent::DeletionExecuted { .. } | LedgerEvent::RecordExpired { .. } => 1,
                _ => 0,
            })
            .sum();
        if timed {
            out.block_ns.push(block_ns + ns);
            if ledger.chain().tip().number().value() > tip + 1 {
                out.seal_sigma_ns.push(ns);
                out.examined += examined as u64;
            } else {
                out.seal_plain_ns.push(ns);
            }
        }
    }
    out
}

/// A node that does nothing, to price the simulator's own dispatch.
struct Idle;

impl SimNode<NodeMessage> for Idle {
    fn on_message(&mut self, _: NodeId, msg: NodeMessage, _: &mut Context<'_, NodeMessage>) {
        black_box(msg);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn dispatch_ns(blocks: &[BlockInput]) -> f64 {
    let mut net: SimNetwork<NodeMessage> = SimNetwork::new(NetConfig {
        min_latency_ms: 1,
        max_latency_ms: 1,
        ..NetConfig::default()
    });
    let id = net.add_node(Box::new(Idle));
    let mut messages = 0usize;
    let mut total = 0u64;
    for block in blocks.iter().take(200) {
        let entries = block.entries.clone();
        messages += entries.len();
        let (_, ns) = time_ns(|| {
            for entry in entries {
                net.send_external(id, NodeMessage::Submit(entry));
            }
            let until = net.now() + crate::gen::BLOCK_INTERVAL_MS;
            net.run_until(until);
        });
        total += ns;
    }
    total as f64 / messages.max(1) as f64
}

/// One traced run's result: the per-layer metrics in `PER_LAYER` order.
pub struct Traced {
    pub metrics: Vec<(&'static str, f64)>,
    /// Operations and checks of the traced lifecycle and of the untraced
    /// write phase beside it.
    pub tally: Tally,
    pub trace_path: String,
}

/// Runs the traced lifecycle and the layer probes for one workload.
pub fn run(w: &Workload, seed: u64, seconds: f64) -> Traced {
    let seconds = seconds * TRACE_SHARE;

    let inputs = lifecycle::generate(w, seed, seconds);

    // Untraced write phase on the same inputs: its busy time is the base
    // of the telemetry overhead and of the node overhead.
    let (plain, plain_tally) = {
        let scratch = Scratch::new(&format!("{}-plain", w.name));
        let mut run = Run {
            meter: &mut Meter::new(false),
            tally: Tally::default(),
            setup_ns: 0,
        };
        let out = lifecycle::write_phase(
            w,
            &inputs.blocks,
            inputs.sizes.warm_blocks as usize,
            &scratch.path().join("store"),
            &scratch.path().join("crash-image"),
            &mut run,
        );
        (out, run.tally)
    };

    seldel_telemetry::set_enabled(true);
    Registry::global().reset();
    let mut meter = Meter::new(true);
    let (mut outcome, artefacts) = lifecycle::run_on(w, inputs, &mut meter);
    outcome.tally.absorb(plain_tally);
    let registry = Registry::global().snapshot();
    seldel_telemetry::set_enabled(false);

    fs::create_dir_all("benchmark/out").expect("create benchmark/out");
    let trace_path = format!("benchmark/out/trace-{}.json", w.name);
    fs::write(
        &trace_path,
        render_trace(w.name, seed, meter.spans(), &registry.render_json()),
    )
    .expect("write the trace file");
    for (name, count, ns) in self_times(meter.spans()) {
        println!("span {name:24} n={count:<7} self={:.3} s", ns as f64 / 1e9);
    }

    let metrics = probe(w, &plain, &outcome, artefacts);
    Traced {
        metrics,
        tally: outcome.tally,
        trace_path,
    }
}

fn probe(w: &Workload, plain: &WriteOut, o: &Outcome, a: Artefacts) -> Vec<(&'static str, f64)> {
    let Artefacts {
        scratch,
        store_dir,
        gen,
        blocks,
        fate,
        mut reference,
    } = a;
    let warm = o.sizes.warm_blocks as usize;
    let timed = &blocks[warm..];
    let entries_timed: usize = timed.iter().map(|b| b.entries.len()).sum();

    // crypto (verify comes from the direct replay below, entry by entry)
    let sign_ns = gen.sign_ns as f64 / gen.signed.max(1) as f64;
    let block64 = [0x5Au8; 64];
    let sha_64 = per_op(20_000, |_| {
        black_box(sha256(black_box(&block64)));
    });
    let mib = vec![0xA5u8; 1 << 20];
    let sha_mib_s = 1e9
        / per_op(8, |_| {
            black_box(sha256(black_box(&mib)));
        });
    let leaves: Vec<Vec<u8>> = timed
        .iter()
        .flat_map(|b| &b.entries)
        .take(400)
        .map(|e| e.to_canonical_bytes())
        .collect();
    let merkle_leaf = per_op(20, |_| {
        black_box(MerkleTree::from_leaves(black_box(&leaves)).root());
    }) / leaves.len() as f64;

    // codec + chain, on the blocks the workload left live
    let live: Vec<Block> = reference.chain().export_blocks();
    let normal: Vec<&Block> = live
        .iter()
        .filter(|b| b.kind() == BlockKind::Normal)
        .collect();
    let sampled: Vec<&Block> = live.iter().step_by((live.len() / 96).max(1)).collect();
    let encode = per_op(sampled.len(), |i| {
        black_box(sampled[i].to_canonical_bytes());
    });
    let encoded: Vec<Vec<u8>> = sampled.iter().map(|b| b.to_canonical_bytes()).collect();
    let decode = per_op(encoded.len(), |i| {
        black_box(Block::from_canonical_bytes(&encoded[i])).expect("own encoding decodes");
    });
    let normal_entries: usize = normal.iter().map(|b| b.entries().len()).sum();
    let normal_bytes: usize = normal.iter().map(|b| b.byte_size()).sum();
    let mut clones: Vec<Block> = sampled.iter().map(|&b| b.clone()).collect();
    let seal = per_op(clones.len(), |_| {
        black_box(SealedBlock::seal(clones.pop().expect("one clone per call")));
    });
    let mut rest = live[1..].to_vec();
    rest.reverse();
    let mut mem = Blockchain::new(live[0].clone());
    let push = per_op(rest.len(), |_| {
        mem.push(rest.pop().expect("one block per call"))
            .expect("live chain links");
    });
    let mut index = ShardedIndex::new(DEFAULT_SHARD_COUNT);
    let index_block = per_op(live.len(), |i| index.index_block(&live[i]));
    let middle = live[live.len() / 2].number();
    let (_, retire) = time_ns(|| index.retire_before(middle));
    let cut = BlockNumber(live[0].number().value() + w.l);
    let (_, truncate) = time_ns(|| mem.truncate_front(cut).expect("cut is live"));

    let hot: Vec<EntryId> = (0..fate.len())
        .rev()
        .filter(|&i| fate[i] == Fate::Live)
        .take(o.read.cache_blocks / 2 * ENTRIES_PER_BLOCK)
        .map(|i| gen.records[i].id)
        .collect();
    let chain = reference.chain();
    for id in &hot {
        black_box(chain.locate(*id)); // page the hot span in
    }
    let rounds = 20_000 / hot.len().max(1) + 1;
    let index_get = per_op(rounds * hot.len(), |i| {
        black_box(chain.entry_index().get(hot[i % hot.len()]));
    });
    let locate_hot = per_op(rounds * hot.len(), |i| {
        black_box(chain.locate(hot[i % hot.len()]));
    });
    let batch = &hot[..hot.len().min(256)];
    let locate_many = per_op(50, |_| {
        black_box(chain.locate_many(batch));
    }) / batch.len() as f64;
    let headers = HeaderChain::from_chain(chain);
    let provable = &hot[..hot.len().min(64)];
    let proofs: Vec<_> = provable
        .iter()
        .map(|id| prove_live(chain, *id).expect("live"))
        .collect();
    let prove = per_op(provable.len(), |i| {
        black_box(prove_live(chain, provable[i])).expect("live id proves");
    });
    let verify_proof_ns = per_op(provable.len(), |i| {
        verify_proof(&proofs[i], provable[i], &headers).expect("proof verifies");
    });
    let (full, validate_full_ns) = time_ns(|| validate_full(chain));
    full.expect("reference chain validates");
    let (incremental, validate_inc_ns) = time_ns(|| validate_incremental(chain));
    incremental.expect("reference chain audits");
    let chain_len = chain.len() as f64;

    // fstore
    let append_dir = scratch.path().join("probe-append");
    let mut store = FileStore::open(&append_dir).expect("fresh probe store opens");
    let mut sealed: Vec<SealedBlock> = live.iter().rev().cloned().map(SealedBlock::seal).collect();
    let mut fsync_ns = Vec::new();
    let mut append_total = 0u64;
    for i in 0..live.len() {
        let block = sealed.pop().expect("one sealed block per push");
        append_total += time_ns(|| store.push(block)).1;
        if i % 8 == 7 && fsync_ns.len() < 24 {
            fsync_ns.push(time_ns(|| store.sync()).1);
        }
    }
    drop(store);
    let open_ns: Vec<u64> = (0..3)
        .map(|_| time_ns(|| FileStore::open(&store_dir).expect("store reopens")).1)
        .collect();
    let uncached = FileStore::open(&store_dir)
        .expect("store reopens")
        .with_hot_cache_capacity(0);
    let stored = uncached.len();
    let page_in = per_op(stored.min(256), |i| {
        black_box(uncached.get(i * 7 % stored));
    });
    drop(uncached);
    let drain_dir = scratch.path().join("probe-drain");
    copy_dir(&store_dir, &drain_dir);
    let mut draining = FileStore::open(&drain_dir).expect("copy reopens");
    let (_, drain) = time_ns(|| draining.drain_front(w.l as usize));
    drop(draining);

    // core: the direct-ledger replay of the same inputs
    let direct = direct_replay(w, &blocks, warm, &scratch.path().join("probe-direct"));
    let seal_plain = med(&direct.seal_plain_ns);
    let sigma_ns = &direct.seal_sigma_ns;
    let sigma_extra: f64 = sigma_ns
        .iter()
        .map(|&ns| (ns as f64 - seal_plain).max(0.0))
        .sum();
    let verify_ns = med(&direct.verify_ns);
    let submit = med(&direct.submit_ns);
    let intake_self: Vec<f64> = direct
        .submit_ns
        .iter()
        .zip(&direct.verify_ns)
        .map(|(&s, &v)| s as f64 - v as f64)
        .collect();
    let submit_self = median(&intake_self).max(0.0);
    let reopen = med(&o.recover.reopen_ns);
    let open_store_self = reopen - med(&open_ns) - validate_full_ns as f64;

    let tenant = 3;
    let policy = Selector::AuthorIs(gen.key(tenant).verifying_key())
        .compile("probe")
        .expect("a one-author selector compiles");
    let (plan, plan_ns) =
        time_ns(|| reference.plan_policy(&gen.key(tenant).verifying_key(), &policy));
    let (applied, apply_ns) = time_ns(|| reference.apply_policy(gen.key(tenant), &policy));
    let applied = applied.expect("the owner may erase its own records");
    black_box(plan);
    let mut paged = Vec::new();
    for i in 1..=32u64 {
        let ts = Timestamp(o.write.final_ts + i * crate::gen::BLOCK_INTERVAL_MS);
        let (sealed, ns) = time_ns(|| reference.seal_block(ts));
        sealed.expect("the reference ledger seals");
        paged.push(ns);
    }

    // node, network, telemetry
    let dispatch = dispatch_ns(timed);
    // Medians of whole block cycles: the same inputs through anchor and
    // network, through the ledger alone, and through the anchor with
    // telemetry on.
    let plain_cycles = &plain.cycle_ns[..plain.timed_cycles];
    let plain_p50 = percentile_of(plain_cycles, 50.0) as f64;
    let traced_p50 = percentile_of(&o.write.cycle_ns[..o.write.timed_cycles], 50.0) as f64;
    let entries_per_block = entries_timed as f64 / timed.len() as f64;
    let node_overhead =
        (plain_p50 - percentile_of(&direct.block_ns, 50.0) as f64) / entries_per_block;
    let overhead_share = 1.0 - plain_p50 / traced_p50;
    let verify_share = entries_timed as f64 * verify_ns / plain.busy_ns as f64;
    let traced_busy = o.write.busy_ns as f64;

    // How much of the lifecycle's busy time the unit costs above, times
    // the counts the run took, account for.
    let write_explained = entries_timed as f64 * submit
        + direct.seal_plain_ns.len() as f64 * seal_plain
        + sigma_ns.iter().sum::<u64>() as f64
        + (entries_timed + timed.len()) as f64 * dispatch;
    let write_busy = plain.busy_ns as f64;
    let hot_lookups = (o.read.samples(ReadClass::Hot).len() * HOT_RUN) as f64;
    let read_explained = hot_lookups * locate_hot
        + o.read.misses as f64 * page_in
        + o.read.samples(ReadClass::Proof).len() as f64 * (prove + verify_proof_ns);
    let per_round = med(&open_ns)
        + validate_full_ns as f64 * (1.0 + o.recover.joined_blocks as f64 / chain_len)
        + o.recover.joined_blocks as f64 * (append_total as f64 / live.len() as f64 + index_block);
    let recover_explained = o.recover.reopen_ns.len() as f64 * per_round;
    let busy = write_busy + (o.read.busy_ns + o.recover.busy_ns) as f64;
    let coverage = (write_explained + read_explained + recover_explained) / busy;

    let cold_ns = o.read.samples(ReadClass::Cold);
    let audit_ns = o.read.samples(ReadClass::Audit);
    let us = |ns: f64| ns / 1e3;
    let ms = |ns: f64| ns / 1e6;
    let ratio = |a: u64, b: u64| {
        if a + b == 0 {
            0.0
        } else {
            a as f64 / (a + b) as f64
        }
    };
    let values = vec![
        us(verify_ns),
        us(sign_ns),
        verify_share,
        sha_64,
        sha_mib_s,
        merkle_leaf,
        o.write.digests as f64 / o.write.blocks_sealed_timed.max(1) as f64,
        us(encode),
        us(decode),
        normal_bytes as f64 / normal_entries.max(1) as f64,
        us(seal),
        us(push),
        index_get,
        us(index_block),
        us(retire as f64),
        locate_hot,
        locate_many,
        ms(truncate as f64),
        us(validate_full_ns as f64 / chain_len),
        us(validate_inc_ns as f64 / chain_len),
        us(prove),
        us(verify_proof_ns),
        ms(med(&o.read.prove_deleted_ns)),
        us(append_total as f64 / live.len() as f64),
        ms(med(&fsync_ns)),
        o.write.tail_fsyncs as f64 / o.write.blocks_sealed_timed.max(1) as f64,
        us(percentile_of(&cold_ns, 99.0) as f64),
        us(page_in),
        ratio(o.write.cache_hits, o.write.cache_misses),
        o.read.cold_misses as f64 / cold_ns.len().max(1) as f64,
        ratio(o.read.hits, o.read.misses),
        ms(med(&open_ns)),
        ms(drain as f64),
        o.write.resident_bytes as f64,
        dir_bytes(&store_dir) as f64,
        us(submit_self),
        us(seal_plain),
        ms(percentile_of(sigma_ns, 50.0) as f64),
        ms(percentile_of(sigma_ns, 99.0) as f64),
        us(sigma_extra / direct.examined.max(1) as f64),
        o.write.program.sigma as f64 / traced_busy,
        o.write.program.prune as f64 / traced_busy,
        o.write.program.fsync as f64 / traced_busy,
        us(percentile_of(&audit_ns, 50.0) as f64 / AUDIT_BATCH as f64),
        percentile_of(&o.write.erase_blocks, 50.0) as f64,
        ms(open_store_self.max(0.0)),
        ms(plan_ns as f64),
        us(apply_ns as f64 / applied.len().max(1) as f64),
        ms(paged.iter().sum::<u64>() as f64 / paged.len() as f64),
        us(node_overhead),
        ms(percentile_of(plain_cycles, 99.0) as f64),
        o.write.anchor.fsync_stalls as f64,
        o.write.anchor.announce_queue_peak as f64,
        dispatch,
        overhead_share,
        coverage,
    ];
    assert_eq!(values.len(), PER_LAYER.len());
    PER_LAYER.iter().map(|m| m.name).zip(values).collect()
}
