//! Anchor nodes: the quorum members managing full chain copies (§IV-A).
//!
//! One anchor acts as the sealing leader (the concept is consensus-
//! agnostic, §IV-A — the simulation pins the leader for determinism, and
//! no block records how it was sealed). All anchors:
//!
//! * apply sealed blocks from the leader,
//! * derive summary blocks **locally** (never from the wire),
//! * broadcast summary-hash sync checks and heal divergence by adopting
//!   the quorum chain ("traceable from its current status quo", §V-B3).

use std::any::Any;
use std::collections::VecDeque;
use std::sync::Arc;

use seldel_chain::{BlockKind, BlockNumber, BlockStore, Entry, EntryId, MemStore};
use seldel_core::{LedgerEvent, SelectiveLedger};
use seldel_crypto::Digest32;
use seldel_network::{Context, NodeId, SimNode};
use seldel_telemetry::{Counter, Gauge, Registry, TelemetrySnapshot};

use crate::messages::{NodeMessage, StatusQuo};

/// Counters describing an anchor's distributed behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnchorStats {
    /// Blocks sealed as leader.
    pub blocks_sealed: u64,
    /// Blocks applied from the leader.
    pub blocks_applied: u64,
    /// Blocks rejected (linkage errors — out of sync).
    pub blocks_rejected: u64,
    /// Sync checks sent.
    pub sync_checks_sent: u64,
    /// Sync-check mismatches observed.
    pub sync_mismatches: u64,
    /// Chains adopted from peers.
    pub chains_adopted: u64,
    /// Entries accepted into the mempool (leader only).
    pub entries_accepted: u64,
    /// Entries rejected at intake.
    pub entries_rejected: u64,
    /// Sealed blocks currently awaiting the durable watermark before
    /// their broadcast (announce-queue depth, sampled at
    /// [`AnchorNode::stats`] time).
    pub announce_queue_depth: u64,
    /// High-water mark of the announce queue.
    pub announce_queue_peak: u64,
    /// Synchronous durability barriers the leader was forced into
    /// because the durable watermark lagged past the announce bound
    /// (backpressure stalls).
    pub fsync_stalls: u64,
}

/// The registry-backed counters behind [`AnchorStats`]: each anchor owns
/// a **private** [`Registry`] (a process may run many nodes — a shared
/// global registry would merge their counts), with the handles resolved
/// once at construction so bumping one is a single relaxed `fetch_add`.
/// These record unconditionally, independent of the global
/// `SELDEL_TELEMETRY` switch — [`AnchorNode::stats`] predates the
/// telemetry layer and its exact values are pinned by tests.
#[derive(Debug)]
struct AnchorMetrics {
    registry: Registry,
    blocks_sealed: Arc<Counter>,
    blocks_applied: Arc<Counter>,
    blocks_rejected: Arc<Counter>,
    sync_checks_sent: Arc<Counter>,
    sync_mismatches: Arc<Counter>,
    chains_adopted: Arc<Counter>,
    entries_accepted: Arc<Counter>,
    entries_rejected: Arc<Counter>,
    announce_queue_depth: Arc<Gauge>,
    announce_queue_peak: Arc<Gauge>,
    fsync_stalls: Arc<Counter>,
    /// Policy-engine counters live only in the private registry (visible
    /// via [`AnchorNode::telemetry`]): `AnchorStats` is a pinned shape.
    policy_plans_served: Arc<Counter>,
    policy_applies: Arc<Counter>,
    policy_requests_enqueued: Arc<Counter>,
}

impl AnchorMetrics {
    fn new() -> AnchorMetrics {
        let registry = Registry::new();
        AnchorMetrics {
            blocks_sealed: registry.counter("anchor.blocks_sealed"),
            blocks_applied: registry.counter("anchor.blocks_applied"),
            blocks_rejected: registry.counter("anchor.blocks_rejected"),
            sync_checks_sent: registry.counter("anchor.sync_checks_sent"),
            sync_mismatches: registry.counter("anchor.sync_mismatches"),
            chains_adopted: registry.counter("anchor.chains_adopted"),
            entries_accepted: registry.counter("anchor.entries_accepted"),
            entries_rejected: registry.counter("anchor.entries_rejected"),
            announce_queue_depth: registry.gauge("anchor.announce_queue.depth"),
            announce_queue_peak: registry.gauge("anchor.announce_queue.peak"),
            fsync_stalls: registry.counter("anchor.fsync_stalls"),
            policy_plans_served: registry.counter("anchor.policy.plans_served"),
            policy_applies: registry.counter("anchor.policy.applies"),
            policy_requests_enqueued: registry.counter("anchor.policy.requests_enqueued"),
            registry,
        }
    }
}

/// Default bound on the leader's sealed-but-unannounced queue. When more
/// blocks than this await the durable watermark, the leader runs a
/// synchronous durability barrier (backpressure) — the watermark may lag
/// the sealer, but never unboundedly.
pub const DEFAULT_ANNOUNCE_BOUND: usize = 8;

/// An anchor node wrapping a [`SelectiveLedger`], generic over the
/// ledger's storage backend (replicas can run [`MemStore`] or a
/// `FileStore` interchangeably — Σ hashes are backend-independent).
///
/// # Durable watermark
///
/// Intake fills the sharded mempool and the leader seals it into
/// blocks, but a sealed block is queued, not broadcast: `NewBlock` / Σ
/// `SyncCheck` messages go out only once the storage backend's *durable
/// watermark* ([`SelectiveLedger::durable_tip`]) reaches the block, so
/// **replicas never see a block the leader could still lose in a
/// crash**. On a durable backend the watermark advances when a segment
/// fills, at the §IV-C prune barrier, or at the backpressure stall: when
/// the announce queue outgrows its bound ([`DEFAULT_ANNOUNCE_BOUND`] /
/// [`AnchorNode::with_announce_bound`]) the leader stalls on one
/// synchronous barrier — bounded queue, explicit backpressure.
/// In-memory backends report no durability lag, so their broadcasts stay
/// immediate.
///
/// # Restart
///
/// An anchor backed by a durable store survives process restarts: reopen
/// the ledger with
/// [`SelectiveLedgerBuilder::on_disk`](seldel_core::SelectiveLedgerBuilder::on_disk)
/// and wrap it in a fresh `AnchorNode` — recovery re-derives all Σ state
/// from the replayed blocks, sealing resumes at the recovered tip, and
/// peers that ran ahead heal the gap through the ordinary
/// reject → sync-request → adopt path.
#[derive(Debug)]
pub struct AnchorNode<S: BlockStore = MemStore> {
    ledger: SelectiveLedger<S>,
    leader: NodeId,
    me: Option<NodeId>,
    block_interval_ms: u64,
    metrics: AnchorMetrics,
    /// Last summary (number, hash) derived locally.
    last_summary: Option<(BlockNumber, Digest32)>,
    /// Sealed-but-unannounced block numbers (leader only): broadcast of
    /// each waits for the durable watermark to reach it.
    announce_queue: VecDeque<BlockNumber>,
    /// Queue depth past which the leader runs a synchronous barrier.
    announce_bound: usize,
    /// Event log retained for inspection by drivers.
    pub events: Vec<LedgerEvent>,
}

impl<S: BlockStore> AnchorNode<S> {
    /// Creates an anchor. `leader` is the sealing anchor's node id;
    /// `block_interval_ms` is the leader's sealing cadence.
    pub fn new(
        ledger: SelectiveLedger<S>,
        leader: NodeId,
        block_interval_ms: u64,
    ) -> AnchorNode<S> {
        AnchorNode {
            ledger,
            leader,
            me: None,
            block_interval_ms,
            metrics: AnchorMetrics::new(),
            last_summary: None,
            announce_queue: VecDeque::new(),
            announce_bound: DEFAULT_ANNOUNCE_BOUND,
            events: Vec::new(),
        }
    }

    /// Sets the announce-queue bound (see [`DEFAULT_ANNOUNCE_BOUND`]).
    /// `0` disables deferred announcing entirely: every seal that leaves
    /// a block behind the watermark runs a synchronous durability barrier
    /// before broadcasting.
    #[must_use]
    pub fn with_announce_bound(mut self, bound: usize) -> AnchorNode<S> {
        self.announce_bound = bound;
        self
    }

    /// The wrapped ledger (read-only).
    pub fn ledger(&self) -> &SelectiveLedger<S> {
        &self.ledger
    }

    /// Distributed-behaviour counters, including the durability gauges
    /// (announce-queue depth/peak, fsync stalls).
    pub fn stats(&self) -> AnchorStats {
        AnchorStats {
            blocks_sealed: self.metrics.blocks_sealed.get(),
            blocks_applied: self.metrics.blocks_applied.get(),
            blocks_rejected: self.metrics.blocks_rejected.get(),
            sync_checks_sent: self.metrics.sync_checks_sent.get(),
            sync_mismatches: self.metrics.sync_mismatches.get(),
            chains_adopted: self.metrics.chains_adopted.get(),
            entries_accepted: self.metrics.entries_accepted.get(),
            entries_rejected: self.metrics.entries_rejected.get(),
            announce_queue_depth: self.announce_queue.len() as u64,
            announce_queue_peak: self.metrics.announce_queue_peak.get(),
            fsync_stalls: self.metrics.fsync_stalls.get(),
        }
    }

    /// A frozen snapshot of this node's private telemetry registry — the
    /// same counters [`AnchorNode::stats`] reads, in the snapshot format
    /// the rest of the stack renders (`anchor.*` names). The queue-depth
    /// gauge holds the depth as of the last seal, not the live queue
    /// length; `stats()` samples the latter.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.metrics.registry.snapshot()
    }

    /// This node's current status quo.
    pub fn status_quo(&self) -> StatusQuo {
        StatusQuo {
            marker: self.ledger.chain().marker(),
            tip: self.ledger.chain().tip().number(),
            tip_hash: self.ledger.chain().tip_hash(),
        }
    }

    fn am_leader(&self, ctx: &Context<'_, NodeMessage>) -> bool {
        ctx.me() == self.leader
    }

    /// Drains the mempool into the next block, queues every newly sealed
    /// block (Σ included) for announcement, and releases whatever the
    /// durable watermark already covers. Sealing does **not** force the
    /// block's fsync — the watermark advances when a segment fills or at
    /// the §IV-C prune barrier — unless the announce queue outgrows its
    /// bound, in which case the leader runs a synchronous barrier
    /// (backpressure).
    fn leader_seal(&mut self, ctx: &mut Context<'_, NodeMessage>) {
        let now = seldel_chain::Timestamp(ctx.now());
        let tip_before = self.ledger.chain().tip().number();
        match self.ledger.seal_block(now) {
            Ok(_) => {
                self.metrics.blocks_sealed.incr();
                self.events.extend(self.ledger.drain_events());
                let tip_now = self.ledger.chain().tip().number();
                let mut n = tip_before.next();
                while n <= tip_now {
                    self.announce_queue.push_back(n);
                    n = n.next();
                }
                let depth = self.announce_queue.len() as u64;
                self.metrics.announce_queue_depth.set(depth);
                self.metrics.announce_queue_peak.raise(depth);
                self.release_announcements(ctx);
                if self.announce_queue.len() > self.announce_bound {
                    // Backpressure: the watermark lags too far behind the
                    // sealer. Stall once on a synchronous durability
                    // barrier, then everything queued is releasable.
                    self.metrics.fsync_stalls.incr();
                    self.ledger.commit_durable();
                    self.release_announcements(ctx);
                }
            }
            Err(err) => {
                // Sealing only fails on timestamp regression, which cannot
                // happen under monotone virtual time; log defensively.
                self.events.push(LedgerEvent::DeletionIneffective {
                    target: EntryId::default(),
                    reason: format!("leader seal failed: {err}"),
                });
            }
        }
    }

    /// The announce stage: broadcasts every queued block the durable
    /// watermark has reached — data blocks as `NewBlock`, Σ blocks as
    /// their hash-only `SyncCheck` (§IV-B: summaries are derived
    /// locally, never propagated) — and stops at the first block the
    /// store could still lose.
    fn release_announcements(&mut self, ctx: &mut Context<'_, NodeMessage>) {
        let durable = self.ledger.durable_tip();
        while self
            .announce_queue
            .front()
            .is_some_and(|&n| Some(n) <= durable)
        {
            let n = self.announce_queue.pop_front().expect("front checked");
            let Some(sealed) = self.ledger.chain().sealed(n) else {
                // Pruned before its release (a Σ merge retired it while
                // the queue was backed up): peers that miss it heal via
                // the ordinary reject → sync-request → adopt path.
                continue;
            };
            if sealed.block().kind() == BlockKind::Summary {
                let check = (sealed.block().number(), sealed.hash());
                self.last_summary = Some(check);
                self.metrics.sync_checks_sent.incr();
                ctx.broadcast(NodeMessage::SyncCheck {
                    number: check.0,
                    summary_hash: check.1,
                    payload_root: sealed.block().header().payload_hash,
                });
            } else {
                let block = sealed.into_sealed().into_block();
                ctx.broadcast(NodeMessage::NewBlock(block));
            }
        }
    }

    /// Replica path: after the tip moved by *adopting* a block, collect
    /// events and, if a summary block was derived locally, broadcast its
    /// hash for the §IV-B synchronisation check. (The leader's own seal
    /// path instead stages announcements behind the durable watermark in
    /// [`Self::release_announcements`].)
    fn after_chain_advance(&mut self, tip_before: BlockNumber, ctx: &mut Context<'_, NodeMessage>) {
        self.events.extend(self.ledger.drain_events());
        let tip_now = self.ledger.chain().tip().number();
        let mut n = tip_before.next();
        while n <= tip_now {
            if let Some(sealed) = self.ledger.chain().sealed(n) {
                if sealed.block().kind() == BlockKind::Summary {
                    // The Σ-hash sync check reads the cached sealed digest
                    // and the header's payload commitment — no re-hash.
                    let check = (sealed.block().number(), sealed.hash());
                    self.last_summary = Some(check);
                    ctx.broadcast(NodeMessage::SyncCheck {
                        number: check.0,
                        summary_hash: check.1,
                        payload_root: sealed.block().header().payload_hash,
                    });
                    self.metrics.sync_checks_sent.incr();
                }
            }
            n = n.next();
        }
    }

    /// Leader-side bulk erasure: applies a compiled deletion policy to
    /// the wrapped ledger. Every matched id passes the exact authorisation
    /// ladder a manual request would ([`SelectiveLedger::apply_policy`]);
    /// the enqueued deletion requests seal, replicate and execute through
    /// the ordinary block flow — replicas re-derive the marks from the
    /// sealed request entries, nothing policy-specific travels the wire.
    /// Drivers invoke this on the leader; dry-run audits go over the wire
    /// as [`NodeMessage::PolicyPlanRequest`] instead.
    ///
    /// # Errors
    ///
    /// Propagated from [`SelectiveLedger::apply_policy`].
    pub fn apply_policy(
        &mut self,
        requester: &seldel_crypto::SigningKey,
        policy: &seldel_core::CompiledPolicy,
    ) -> Result<seldel_core::DeletionPlan, seldel_core::CoreError> {
        let plan = self.ledger.apply_policy(requester, policy)?;
        self.metrics.policy_applies.incr();
        self.metrics.policy_requests_enqueued.add(plan.len() as u64);
        Ok(plan)
    }

    fn handle_submit(&mut self, entry: Entry, ctx: &mut Context<'_, NodeMessage>) {
        if self.am_leader(ctx) {
            match self.ledger.submit_entry(entry) {
                Ok(()) => self.metrics.entries_accepted.incr(),
                Err(_) => self.metrics.entries_rejected.incr(),
            }
        } else {
            // Forward to the leader; replicas never build blocks.
            ctx.send(self.leader, NodeMessage::Submit(entry));
        }
    }

    fn handle_new_block(
        &mut self,
        block: seldel_chain::Block,
        from: NodeId,
        ctx: &mut Context<'_, NodeMessage>,
    ) {
        if self.am_leader(ctx) {
            return; // leaders ignore echoes
        }
        let tip_before = self.ledger.chain().tip().number();
        match self.ledger.apply_block(block) {
            Ok(()) => {
                self.metrics.blocks_applied.incr();
                self.after_chain_advance(tip_before, ctx);
            }
            Err(_) => {
                self.metrics.blocks_rejected.incr();
                // Out of sync: ask the sender for everything we might lack.
                ctx.send(
                    from,
                    NodeMessage::SyncRequest {
                        from: self.ledger.chain().marker(),
                    },
                );
            }
        }
    }

    fn handle_sync_check(
        &mut self,
        number: BlockNumber,
        summary_hash: Digest32,
        payload_root: Digest32,
        from: NodeId,
        ctx: &mut Context<'_, NodeMessage>,
    ) {
        // Checks for blocks we have not reached yet (in-flight NewBlock
        // racing the SyncCheck) or already pruned are not divergence —
        // catch-up is handled by the NewBlock rejection path. The local
        // digest comes from the sealed-hash cache, never a re-hash; the
        // payload commitment comparison pinpoints record/tombstone-set
        // divergence as opposed to header-level disagreement.
        let our_root = self
            .ledger
            .chain()
            .get(number)
            .map(|b| b.header().payload_hash);
        match self.ledger.chain().hash_of(number) {
            Some(hash) if hash == summary_hash && our_root == Some(payload_root) => {} // in sync
            Some(_) => {
                // Same height, different hash: a real fork (§IV-B warns a
                // summary-derivation failure "would result in a fork").
                self.metrics.sync_mismatches.incr();
                ctx.send(
                    from,
                    NodeMessage::SyncRequest {
                        from: self.ledger.chain().marker(),
                    },
                );
            }
            None => {}
        }
    }

    fn handle_sync_request(
        &mut self,
        _from_block: BlockNumber,
        requester: NodeId,
        ctx: &mut Context<'_, NodeMessage>,
    ) {
        // Answer with the full live chain: adoption validates from the
        // marker, and a requester asking from a pruned-away number needs
        // the whole status quo anyway.
        let blocks = self.ledger.chain().export_blocks();
        ctx.send(requester, NodeMessage::SyncResponse { blocks });
    }

    fn handle_sync_response(&mut self, blocks: Vec<seldel_chain::Block>) {
        // Adopt only if the offered chain is ahead of ours.
        let Some(last) = blocks.last() else { return };
        let our_tip = self.ledger.chain().tip().number();
        if last.number() <= our_tip {
            return;
        }
        if self.ledger.adopt_chain(blocks).is_ok() {
            self.metrics.chains_adopted.incr();
            self.events.extend(self.ledger.drain_events());
        }
    }
}

impl<S: BlockStore> SimNode<NodeMessage> for AnchorNode<S> {
    fn on_message(&mut self, from: NodeId, msg: NodeMessage, ctx: &mut Context<'_, NodeMessage>) {
        self.me = Some(ctx.me());
        match msg {
            NodeMessage::Submit(entry) => self.handle_submit(entry, ctx),
            NodeMessage::NewBlock(block) => self.handle_new_block(block, from, ctx),
            NodeMessage::SyncCheck {
                number,
                summary_hash,
                payload_root,
            } => self.handle_sync_check(number, summary_hash, payload_root, from, ctx),
            NodeMessage::SyncRequest { from: from_block } => {
                self.handle_sync_request(from_block, from, ctx)
            }
            NodeMessage::SyncResponse { blocks } => self.handle_sync_response(blocks),
            NodeMessage::StatusQuoRequest => {
                ctx.send(from, NodeMessage::StatusQuoReply(self.status_quo()));
            }
            NodeMessage::Query { id } => {
                let record = self.ledger.record(id);
                let live = self.ledger.is_live(id);
                ctx.send(from, NodeMessage::QueryReply { id, record, live });
            }
            NodeMessage::PolicyPlanRequest { requester, policy } => {
                // A pure read — any anchor serves it from its own view.
                self.metrics.policy_plans_served.incr();
                let plan = self.ledger.plan_policy(&requester, &policy);
                ctx.send(from, NodeMessage::PolicyPlanReply { plan });
            }
            // Client-bound messages: anchors never act on them.
            NodeMessage::StatusQuoReply(_)
            | NodeMessage::QueryReply { .. }
            | NodeMessage::PolicyPlanReply { .. }
            | NodeMessage::ClientSubmit(_)
            | NodeMessage::ClientCheckStatus
            | NodeMessage::ClientQuery { .. } => {}
        }
    }

    fn on_tick(&mut self, ctx: &mut Context<'_, NodeMessage>) {
        self.me = Some(ctx.me());
        if self.am_leader(ctx) {
            self.release_announcements(ctx);
            self.leader_seal(ctx);
        }
        ctx.schedule_tick(self.block_interval_ms);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seldel_codec::DataRecord;
    use seldel_core::ChainConfig;
    use seldel_crypto::SigningKey;
    use seldel_network::{NetConfig, SimNetwork};

    fn make_cluster(n: usize) -> (SimNetwork<NodeMessage>, Vec<NodeId>) {
        let mut net = SimNetwork::new(NetConfig::default());
        let leader = NodeId(0);
        let ids: Vec<NodeId> = (0..n)
            .map(|_| {
                let ledger = SelectiveLedger::new(ChainConfig::paper_evaluation());
                net.add_node(Box::new(AnchorNode::new(ledger, leader, 100)))
            })
            .collect();
        for id in &ids {
            net.schedule_tick(*id, 100);
        }
        (net, ids)
    }

    fn entry(seed: u8, n: u64) -> Entry {
        Entry::sign_data(
            &SigningKey::from_seed([seed; 32]),
            DataRecord::new("login").with("user", "A").with("n", n),
        )
    }

    /// Asserts every replica's chain is a consistent prefix of the
    /// leader's (replicas may lag by in-flight blocks, but never diverge).
    fn assert_prefix_consistent(
        net: &SimNetwork<NodeMessage>,
        leader: NodeId,
        replicas: &[NodeId],
    ) {
        let leader_node = net.node_as::<AnchorNode>(leader).unwrap();
        for id in replicas {
            let replica = net.node_as::<AnchorNode>(*id).unwrap();
            let tip = replica.ledger().chain().tip();
            let leader_same = leader_node
                .ledger()
                .chain()
                .get(tip.number())
                .unwrap_or_else(|| panic!("leader pruned past replica tip {}", tip.number()));
            assert_eq!(
                tip.hash(),
                leader_same.hash(),
                "replica {id} diverged at block {}",
                tip.number()
            );
        }
    }

    #[test]
    fn replicas_follow_leader_and_derive_identical_summaries() {
        let (mut net, ids) = make_cluster(3);
        for i in 0..10u64 {
            net.send_external(ids[0], NodeMessage::Submit(entry(1, i)));
            net.run_until(net.now() + 100);
        }
        net.run_until(net.now() + 500);
        assert_prefix_consistent(&net, ids[0], &ids[1..]);
        let a0 = net.node_as::<AnchorNode>(ids[0]).unwrap();
        assert!(a0.stats().blocks_sealed > 5);
        assert!(a0.ledger().stats().summaries_created >= 2);
        // Replicas derived summaries locally, close to the leader's count.
        for id in &ids[1..] {
            let node = net.node_as::<AnchorNode>(*id).unwrap();
            assert!(node.ledger().stats().summaries_created >= 2);
            assert_eq!(node.stats().sync_mismatches, 0);
        }
    }

    #[test]
    fn mixed_store_backends_stay_in_sync() {
        // A disk-rooted FileStore replica follows a MemStore leader:
        // summary blocks are derived locally on both backends and the
        // Σ-hash sync checks must never flag a mismatch (hashes are
        // storage-independent).
        use seldel_chain::testutil::ScratchDir;
        use seldel_chain::FileStore;
        let scratch = ScratchDir::new("anchor-mixed");
        let mut net = SimNetwork::new(NetConfig::default());
        let leader = NodeId(0);
        let mem_leader = net.add_node(Box::new(AnchorNode::new(
            SelectiveLedger::new(ChainConfig::paper_evaluation()),
            leader,
            100,
        )));
        let file_replica = net.add_node(Box::new(AnchorNode::new(
            SelectiveLedger::builder(ChainConfig::paper_evaluation())
                .store_backend::<FileStore>()
                .on_disk(scratch.path())
                .expect("fresh store opens"),
            leader,
            100,
        )));
        net.schedule_tick(mem_leader, 100);
        net.schedule_tick(file_replica, 100);
        for i in 0..12u64 {
            net.send_external(mem_leader, NodeMessage::Submit(entry(1, i)));
            net.run_until(net.now() + 100);
        }
        net.run_until(net.now() + 500);
        let l = net.node_as::<AnchorNode>(mem_leader).unwrap();
        let r = net.node_as::<AnchorNode<FileStore>>(file_replica).unwrap();
        assert!(l.ledger().stats().summaries_created >= 2);
        assert_eq!(r.stats().sync_mismatches, 0);
        let replica_tip = r.ledger().chain().tip().number();
        assert_eq!(
            l.ledger().chain().hash_of(replica_tip),
            r.ledger().chain().hash_of(replica_tip),
            "backends diverged at block {replica_tip}"
        );
    }

    #[test]
    fn file_store_anchor_restarts_and_resumes_sealing() {
        // An anchor with a durable ledger is stopped (cluster dropped),
        // reopened from its directory, and put back in front of a fresh
        // replica: it must resume sealing from the recovered tip, and the
        // Σ-hash sync checks must pass against the catching-up peer.
        use seldel_chain::testutil::ScratchDir;
        use seldel_chain::FileStore;
        let scratch = ScratchDir::new("anchor-restart");
        let dir = scratch.path().to_path_buf();
        let leader = NodeId(0);

        // Session 1: durable leader + in-memory replica.
        let tip_before = {
            let mut net = SimNetwork::new(NetConfig::default());
            let l = net.add_node(Box::new(AnchorNode::new(
                SelectiveLedger::builder(ChainConfig::paper_evaluation())
                    .store_backend::<FileStore>()
                    .on_disk_with_capacity(&dir, 4)
                    .unwrap(),
                leader,
                100,
            )));
            let r = net.add_node(Box::new(AnchorNode::new(
                SelectiveLedger::new(ChainConfig::paper_evaluation()),
                leader,
                100,
            )));
            net.schedule_tick(l, 100);
            net.schedule_tick(r, 100);
            for i in 0..10u64 {
                net.send_external(l, NodeMessage::Submit(entry(1, i)));
                net.run_until(net.now() + 100);
            }
            net.run_until(net.now() + 300);
            let node = net.node_as::<AnchorNode<FileStore>>(l).unwrap();
            assert!(node.stats().blocks_sealed >= 10);
            node.ledger().chain().tip().number()
            // net (and every node) dropped here: the anchor "stops".
        };

        // Session 2: reopen from disk; the close was clean, so recovery is
        // lossless and the anchor resumes exactly at its old tip.
        let reopened = SelectiveLedger::builder(ChainConfig::paper_evaluation())
            .store_backend::<FileStore>()
            .on_disk(&dir)
            .unwrap();
        assert_eq!(reopened.chain().tip().number(), tip_before);

        let mut net = SimNetwork::new(NetConfig::default());
        let l = net.add_node(Box::new(AnchorNode::new(reopened, leader, 100)));
        let r = net.add_node(Box::new(AnchorNode::new(
            SelectiveLedger::new(ChainConfig::paper_evaluation()),
            leader,
            100,
        )));
        net.schedule_tick(l, 100);
        net.schedule_tick(r, 100);
        // Virtual time restarts at zero; the leader refuses to seal until
        // `now` catches up with the recovered tip timestamp, then resumes.
        for i in 100..115u64 {
            net.send_external(l, NodeMessage::Submit(entry(1, i)));
            net.run_until(net.now() + 100);
        }
        net.run_until(net.now() + 2_000);

        let leader_node = net.node_as::<AnchorNode<FileStore>>(l).unwrap();
        let replica = net.node_as::<AnchorNode>(r).unwrap();
        let new_tip = leader_node.ledger().chain().tip().number();
        assert!(
            new_tip > tip_before,
            "restarted leader never resumed sealing (tip {new_tip})"
        );
        // The fresh replica caught up by adopting the recovered chain and
        // observed no Σ-hash divergence.
        assert!(replica.stats().chains_adopted >= 1, "no adoption");
        assert_eq!(replica.stats().sync_mismatches, 0);
        let replica_tip = replica.ledger().chain().tip();
        assert_eq!(
            leader_node
                .ledger()
                .chain()
                .hash_of(replica_tip.number())
                .expect("replica tip is live on the leader"),
            replica_tip.hash(),
            "replica diverged from the restarted leader"
        );
    }

    /// Starvation regression guard for the sharded mempool: with a block
    /// capacity configured, a single author flooding the leader cannot
    /// occupy every slot of a sealed block — late entries from other
    /// authors still make the very next block via the fair round-robin
    /// drain.
    #[test]
    fn flooding_author_cannot_starve_others_out_of_a_sealed_block() {
        use seldel_chain::testutil::distinct_shard_author_seeds;
        use seldel_chain::{ShardMap, DEFAULT_SHARD_COUNT};

        let mut net = SimNetwork::new(NetConfig::default());
        let leader = NodeId(0);
        let config = ChainConfig {
            max_block_entries: Some(4),
            ..ChainConfig::paper_evaluation()
        };
        let l = net.add_node(Box::new(AnchorNode::new(
            SelectiveLedger::builder(config).build(),
            leader,
            100,
        )));
        net.schedule_tick(l, 100);

        // Pick authors guaranteed to route to different mempool shards.
        let seeds = distinct_shard_author_seeds(ShardMap::new(DEFAULT_SHARD_COUNT), 2);
        let (hot, quiet) = (seeds[0], seeds[1]);

        // The hot author floods 16 entries, then the quiet author sends
        // one — all before the first seal tick fires.
        for i in 0..16u64 {
            net.send_external(l, NodeMessage::Submit(entry(hot, i)));
        }
        net.send_external(l, NodeMessage::Submit(entry(quiet, 1_000)));
        net.run_until(150); // first tick at 100 seals block 1

        let node = net.node_as::<AnchorNode>(l).unwrap();
        let sealed = node.ledger().chain().get(BlockNumber(1)).expect("sealed");
        assert_eq!(sealed.entries().len(), 4, "capacity must cap the block");
        let quiet_key = seldel_crypto::SigningKey::from_seed([quiet; 32]).verifying_key();
        assert!(
            sealed.entries().iter().any(|e| e.author() == quiet_key),
            "quiet author starved out of the first sealed block"
        );

        // Nothing is lost: the flood drains over the following blocks.
        net.run_until(net.now() + 1_000);
        let node = net.node_as::<AnchorNode>(l).unwrap();
        assert_eq!(node.stats().entries_accepted, 17);
        assert_eq!(node.ledger().chain().record_count(), 17);
        assert_eq!(node.ledger().stats().pending_entries, 0);
    }

    /// The sharded intake refuses byte-identical resubmissions while the
    /// original is still pending — counted as rejections, not accepted
    /// twice.
    #[test]
    fn duplicate_pending_submissions_are_rejected_at_intake() {
        let (mut net, ids) = make_cluster(1);
        let flood = entry(1, 7);
        net.send_external(ids[0], NodeMessage::Submit(flood.clone()));
        net.send_external(ids[0], NodeMessage::Submit(flood.clone()));
        net.send_external(ids[0], NodeMessage::Submit(flood.clone()));
        net.run_until(net.now() + 200);
        let node = net.node_as::<AnchorNode>(ids[0]).unwrap();
        assert_eq!(node.stats().entries_accepted, 1);
        assert_eq!(node.stats().entries_rejected, 2);
        // Once sealed, the same bytes may be submitted again.
        net.send_external(ids[0], NodeMessage::Submit(flood));
        net.run_until(net.now() + 200);
        let node = net.node_as::<AnchorNode>(ids[0]).unwrap();
        assert_eq!(node.stats().entries_accepted, 2);
    }

    /// The registry-backed telemetry view and the legacy `stats()` view
    /// must agree counter for counter — `AnchorStats` is now a snapshot
    /// of the node's private registry.
    #[test]
    fn telemetry_snapshot_mirrors_stats() {
        let (mut net, ids) = make_cluster(1);
        for i in 0..5u64 {
            net.send_external(ids[0], NodeMessage::Submit(entry(1, i)));
        }
        net.run_until(net.now() + 500);
        let node = net.node_as::<AnchorNode>(ids[0]).unwrap();
        let stats = node.stats();
        let snap = node.telemetry();
        assert_eq!(
            snap.counter("anchor.blocks_sealed"),
            Some(stats.blocks_sealed)
        );
        assert_eq!(
            snap.counter("anchor.entries_accepted"),
            Some(stats.entries_accepted)
        );
        assert_eq!(
            snap.counter("anchor.entries_rejected"),
            Some(stats.entries_rejected)
        );
        assert_eq!(
            snap.counter("anchor.sync_checks_sent"),
            Some(stats.sync_checks_sent)
        );
        assert_eq!(
            snap.gauge("anchor.announce_queue.peak"),
            Some(stats.announce_queue_peak)
        );
        assert!(stats.blocks_sealed > 0, "leader sealed nothing");
    }

    #[test]
    fn submissions_to_replicas_are_forwarded() {
        let (mut net, ids) = make_cluster(3);
        net.send_external(ids[2], NodeMessage::Submit(entry(1, 7)));
        net.run_until(net.now() + 1000);
        let leader = net.node_as::<AnchorNode>(ids[0]).unwrap();
        assert_eq!(leader.stats().entries_accepted, 1);
        // The entry made it into a sealed block on every node.
        for id in &ids {
            let node = net.node_as::<AnchorNode>(*id).unwrap();
            assert!(node.ledger().chain().record_count() >= 1);
        }
    }

    #[test]
    fn partitioned_replica_catches_up_via_sync() {
        let (mut net, ids) = make_cluster(3);
        // Cut replica 2 off.
        net.partition(vec![vec![ids[0], ids[1]], vec![ids[2]]]);
        for i in 0..6u64 {
            net.send_external(ids[0], NodeMessage::Submit(entry(1, i)));
            net.run_until(net.now() + 100);
        }
        // Replica 2 is behind.
        let behind = net
            .node_as::<AnchorNode>(ids[2])
            .unwrap()
            .ledger()
            .chain()
            .tip()
            .number();
        let ahead = net
            .node_as::<AnchorNode>(ids[0])
            .unwrap()
            .ledger()
            .chain()
            .tip()
            .number();
        assert!(behind < ahead);
        // Heal; subsequent blocks trigger rejection → sync → adoption.
        net.heal_partitions();
        for i in 6..12u64 {
            net.send_external(ids[0], NodeMessage::Submit(entry(1, i)));
            net.run_until(net.now() + 100);
        }
        net.run_until(net.now() + 1000);
        let n2 = net.node_as::<AnchorNode>(ids[2]).unwrap();
        assert!(n2.stats().chains_adopted >= 1, "no adoption happened");
        // After adoption the straggler's chain is a consistent prefix of
        // (or equal to) the leader's, and it caught up past its stale tip.
        assert!(n2.ledger().chain().tip().number() > behind);
        assert_prefix_consistent(&net, ids[0], &ids[2..]);
    }

    #[test]
    fn cluster_converges_over_lossy_network() {
        // 10% random loss: NewBlock messages get dropped, replicas fall
        // behind, and the reject→sync→adopt path must heal them.
        let mut net = SimNetwork::new(seldel_network::NetConfig {
            drop_probability: 0.10,
            seed: 0xBADD,
            ..Default::default()
        });
        let leader = NodeId(0);
        let ids: Vec<NodeId> = (0..3)
            .map(|_| {
                let ledger = SelectiveLedger::new(ChainConfig::paper_evaluation());
                net.add_node(Box::new(AnchorNode::new(ledger, leader, 100)))
            })
            .collect();
        for id in &ids {
            net.schedule_tick(*id, 100);
        }
        for i in 0..30u64 {
            net.send_external(ids[0], NodeMessage::Submit(entry(1, i)));
            net.run_until(net.now() + 100);
        }
        net.run_until(net.now() + 2_000);
        assert!(net.stats().dropped_random > 0, "no loss injected");
        // All replicas hold a consistent prefix of the leader's chain and
        // made progress past the first merge cycle.
        assert_prefix_consistent(&net, ids[0], &ids[1..]);
        for id in &ids[1..] {
            let node = net.node_as::<AnchorNode>(*id).unwrap();
            assert!(
                node.ledger().chain().tip().number().value() > 10,
                "replica {id} stalled at {}",
                node.ledger().chain().tip().number()
            );
        }
    }

    #[test]
    fn status_quo_and_query_replies() {
        #[derive(Default)]
        struct Probe {
            status: Option<StatusQuo>,
            query: Option<(EntryId, bool)>,
        }
        impl SimNode<NodeMessage> for Probe {
            fn on_message(
                &mut self,
                _from: NodeId,
                msg: NodeMessage,
                _ctx: &mut Context<'_, NodeMessage>,
            ) {
                match msg {
                    NodeMessage::StatusQuoReply(sq) => self.status = Some(sq),
                    NodeMessage::QueryReply { id, live, .. } => self.query = Some((id, live)),
                    _ => {}
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }

        let mut net = SimNetwork::new(NetConfig::default());
        let leader = NodeId(0);
        let ledger = SelectiveLedger::new(ChainConfig::paper_evaluation());
        let anchor = net.add_node(Box::new(AnchorNode::new(ledger, leader, 100)));
        let probe = net.add_node(Box::new(Probe::default()));
        net.schedule_tick(anchor, 100);

        net.send_external(anchor, NodeMessage::Submit(entry(1, 1)));
        net.run_until(300);

        // Ask for status and query the first record from the probe node.
        net.with_node_mut(probe, |_n| {});
        net.send_external(probe, NodeMessage::ClientSubmit(entry(2, 2)));
        // Probe is not a client; directly message the anchor instead.
        net.send_external(anchor, NodeMessage::StatusQuoRequest);
        net.run_until(net.now() + 100);
        // StatusQuoRequest from EXTERNAL cannot be answered (no address) —
        // route through the probe instead:
        let id = EntryId::new(BlockNumber(1), seldel_chain::EntryNumber(0));
        // Use probe → anchor messages via a tick-less manual send.
        // Simplest: anchor replies to probe when probe sends.
        // Inject by making the probe send in response to a driver message —
        // covered in the client tests; here just exercise Query directly.
        net.send_external(anchor, NodeMessage::Query { id });
        net.run_until(net.now() + 100);
        // Replies went to EXTERNAL (dropped); the point of this test is
        // that the anchor does not crash on driver-injected control
        // messages and keeps serving.
        assert!(
            net.node_as::<AnchorNode>(anchor)
                .unwrap()
                .ledger()
                .chain()
                .len()
                >= 2
        );
    }

    #[test]
    fn policy_plan_is_served_over_the_wire_and_apply_replicates() {
        use seldel_core::Selector;

        /// Forwards a prepared request to its anchor when the driver pokes
        /// it (replies to `EXTERNAL` are dropped, so the probe must be the
        /// on-net sender), then records the reply.
        struct PolicyProbe {
            anchor: NodeId,
            request: Option<NodeMessage>,
            plan: Option<seldel_core::DeletionPlan>,
        }
        impl SimNode<NodeMessage> for PolicyProbe {
            fn on_message(
                &mut self,
                _from: NodeId,
                msg: NodeMessage,
                ctx: &mut Context<'_, NodeMessage>,
            ) {
                match msg {
                    NodeMessage::ClientCheckStatus => {
                        if let Some(request) = self.request.take() {
                            ctx.send(self.anchor, request);
                        }
                    }
                    NodeMessage::PolicyPlanReply { plan } => self.plan = Some(plan),
                    _ => {}
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }

        let (mut net, ids) = make_cluster(2);
        let alice = SigningKey::from_seed([1u8; 32]);
        let policy = Selector::AuthorIs(alice.verifying_key())
            .compile("wire-purge")
            .unwrap();
        let probe = net.add_node(Box::new(PolicyProbe {
            anchor: ids[0],
            request: Some(NodeMessage::PolicyPlanRequest {
                requester: alice.verifying_key(),
                policy: policy.clone(),
            }),
            plan: None,
        }));
        for i in 0..6u64 {
            net.send_external(ids[0], NodeMessage::Submit(entry(1, i)));
            net.run_until(net.now() + 100);
        }
        net.run_until(net.now() + 300);

        // Dry run over the wire: poke the probe, which asks the leader.
        net.send_external(probe, NodeMessage::ClientCheckStatus);
        net.run_until(net.now() + 100);
        let wire_plan = net
            .node_as::<PolicyProbe>(probe)
            .unwrap()
            .plan
            .clone()
            .expect("no PolicyPlanReply received");
        assert!(!wire_plan.is_empty());
        let direct = net
            .node_as::<AnchorNode>(ids[0])
            .unwrap()
            .ledger()
            .plan_policy(&alice.verifying_key(), &policy);
        assert_eq!(wire_plan, direct, "wire dry-run must equal a local one");

        // Apply on the leader; the bulk requests seal and replicate
        // through the ordinary block flow.
        let applied = net.with_node_as_mut(ids[0], |node: &mut AnchorNode| {
            node.apply_policy(&alice, &policy).unwrap()
        });
        assert_eq!(applied.matched, wire_plan.matched);
        net.run_until(net.now() + 3_000);

        for id in &ids {
            let node = net.node_as::<AnchorNode>(*id).unwrap();
            for target in &applied.matched {
                assert!(
                    !node.ledger().is_live(*target),
                    "{target} still live on node {id}"
                );
            }
        }
        // The counters live in the private registry; AnchorStats' pinned
        // shape is untouched.
        let leader = net.node_as::<AnchorNode>(ids[0]).unwrap();
        let snap = leader.telemetry();
        assert_eq!(snap.counter("anchor.policy.plans_served"), Some(1));
        assert_eq!(snap.counter("anchor.policy.applies"), Some(1));
        assert_eq!(
            snap.counter("anchor.policy.requests_enqueued"),
            Some(applied.len() as u64)
        );
    }

    #[test]
    fn announcements_never_outrun_the_durable_watermark() {
        // Deterministic gating + backpressure check, no background worker:
        // an OnFill FileStore with an oversized segment never fsyncs on its
        // own, so the durable watermark only advances when the announce
        // queue exceeds its bound and the leader stalls on a barrier. At
        // every step, everything still queued must sit strictly above the
        // watermark — the "never announce a block the store could lose"
        // invariant. The policy is pinned explicitly: the premise breaks
        // under a SELDEL_FSYNC_POLICY=always override.
        use seldel_chain::testutil::ScratchDir;
        use seldel_chain::{FileStore, FsyncPolicy};
        let scratch = ScratchDir::new("anchor-watermark-gate");
        let leader = NodeId(0);

        let store = FileStore::open_with_capacity(scratch.path(), 64)
            .unwrap()
            .with_fsync_policy(FsyncPolicy::OnFill);
        let mut net = SimNetwork::new(NetConfig::default());
        let l = net.add_node(Box::new(
            AnchorNode::new(
                SelectiveLedger::builder(ChainConfig::paper_evaluation())
                    .store_backend::<FileStore>()
                    .open_store(store)
                    .unwrap(),
                leader,
                100,
            )
            .with_announce_bound(4),
        ));
        let r = net.add_node(Box::new(AnchorNode::new(
            SelectiveLedger::new(ChainConfig::paper_evaluation()),
            leader,
            100,
        )));
        net.schedule_tick(l, 100);
        net.schedule_tick(r, 100);

        let mut saw_seal_ahead_of_durability = false;
        for i in 0..14u64 {
            net.send_external(l, NodeMessage::Submit(entry(1, i)));
            net.run_until(net.now() + 100);
            let node = net.node_as::<AnchorNode<FileStore>>(l).unwrap();
            let durable = node.ledger().durable_tip();
            for &queued in &node.announce_queue {
                assert!(
                    Some(queued) > durable,
                    "block {queued} queued at or below the durable watermark {durable:?}"
                );
            }
            if !node.announce_queue.is_empty()
                && Some(node.ledger().chain().tip().number()) > durable
            {
                saw_seal_ahead_of_durability = true;
            }
        }
        net.run_until(net.now() + 500);

        let node = net.node_as::<AnchorNode<FileStore>>(l).unwrap();
        let stats = node.stats();
        assert!(
            saw_seal_ahead_of_durability,
            "sealing never ran ahead of durability — the gate was never exercised"
        );
        assert!(
            stats.fsync_stalls >= 1,
            "the bound-4 queue never forced a backpressure barrier"
        );
        assert!(
            stats.announce_queue_peak > 4,
            "queue never filled its bound"
        );
        assert!(stats.blocks_sealed >= 10);
        // Despite the staging, the replica converged on the released prefix.
        let replica = net.node_as::<AnchorNode>(r).unwrap();
        let tip = replica.ledger().chain().tip();
        assert!(tip.number() > BlockNumber(0));
        let same = node
            .ledger()
            .chain()
            .get(tip.number())
            .expect("leader pruned past replica tip");
        assert_eq!(tip.hash(), same.hash(), "replica diverged from the leader");
    }
}
