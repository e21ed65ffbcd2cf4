//! Deterministic virtual-time network simulator.
//!
//! The paper's prototype is a CORBA client-server system (§V); this crate
//! substitutes an in-process simulator that exercises the same message
//! flows — entry submission, block propagation, summary-hash
//! synchronisation checks, chain adoption — under **reproducible** scheduling: all latency,
//! loss and ordering decisions come from a seeded RNG and a totally ordered
//! event queue, so every run with the same seed is bit-identical.
//!
//! Fault injection covers the §V-B4 threat discussion: random loss,
//! network partitions, and per-node isolation (eclipse attacks).
//!
//! # Example
//!
//! ```
//! use seldel_network::{Context, NetConfig, NodeId, SimNetwork, SimNode};
//!
//! #[derive(Default)]
//! struct Echo {
//!     heard: Vec<String>,
//! }
//!
//! impl SimNode<String> for Echo {
//!     fn on_message(&mut self, _from: NodeId, msg: String, _ctx: &mut Context<'_, String>) {
//!         self.heard.push(msg);
//!     }
//!     fn as_any(&self) -> &dyn std::any::Any { self }
//!     fn as_any_mut(&mut self) -> &mut dyn std::any::Any { self }
//! }
//!
//! let mut net = SimNetwork::new(NetConfig::default());
//! let a = net.add_node(Box::new(Echo::default()));
//! let b = net.add_node(Box::new(Echo::default()));
//! net.send_external(a, "ping".to_string());
//! net.run_until_idle();
//! assert_eq!(net.node_as::<Echo>(a).unwrap().heard, vec!["ping"]);
//! assert!(net.node_as::<Echo>(b).unwrap().heard.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Identifies a node within one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The pseudo-sender used by [`SimNetwork::send_external`] (a client
    /// outside the simulated node set, e.g. the test driver).
    pub const EXTERNAL: NodeId = NodeId(u32::MAX);
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if *self == NodeId::EXTERNAL {
            f.write_str("ext")
        } else {
            write!(f, "n{}", self.0)
        }
    }
}

/// Network behaviour knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetConfig {
    /// Minimum one-way latency (virtual ms).
    pub min_latency_ms: u64,
    /// Maximum one-way latency (virtual ms).
    pub max_latency_ms: u64,
    /// Probability a message is silently dropped.
    pub drop_probability: f64,
    /// RNG seed; same seed ⇒ same run.
    pub seed: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            min_latency_ms: 1,
            max_latency_ms: 10,
            drop_probability: 0.0,
            seed: 0xC0FFEE,
        }
    }
}

/// A simulated node. Implementations keep their own state and react to
/// messages and ticks.
pub trait SimNode<M> {
    /// Handles a delivered message.
    fn on_message(&mut self, from: NodeId, msg: M, ctx: &mut Context<'_, M>);

    /// Handles a scheduled tick (no-op by default).
    fn on_tick(&mut self, ctx: &mut Context<'_, M>) {
        let _ = ctx;
    }

    /// Downcasting hook so drivers can inspect concrete node state.
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcasting hook so drivers can invoke concrete node APIs
    /// between simulation steps (e.g. leader-side administrative actions).
    /// Mirror [`SimNode::as_any`]: `fn as_any_mut(&mut self) -> &mut dyn Any { self }`.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Side-effect collector handed to node callbacks.
///
/// Sends and tick requests are buffered and applied by the network after
/// the callback returns, preserving determinism.
#[derive(Debug)]
pub struct Context<'a, M> {
    now: u64,
    me: NodeId,
    node_count: u32,
    outbox: &'a mut Vec<(NodeId, M)>,
    tick_requests: &'a mut Vec<u64>,
}

impl<'a, M: Clone> Context<'a, M> {
    /// Current virtual time (ms).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Sends a message to one peer.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.outbox.push((to, msg));
    }

    /// Sends a message to every other node.
    pub fn broadcast(&mut self, msg: M) {
        for i in 0..self.node_count {
            let peer = NodeId(i);
            if peer != self.me {
                self.outbox.push((peer, msg.clone()));
            }
        }
    }

    /// Requests a tick `delay_ms` from now.
    pub fn schedule_tick(&mut self, delay_ms: u64) {
        self.tick_requests.push(self.now + delay_ms);
    }
}

/// Delivery statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages submitted for delivery.
    pub sent: u64,
    /// Messages delivered to their destination.
    pub delivered: u64,
    /// Messages dropped by random loss.
    pub dropped_random: u64,
    /// Messages dropped by a partition.
    pub dropped_partition: u64,
    /// Messages dropped by per-node isolation (eclipse).
    pub dropped_isolation: u64,
    /// Ticks fired.
    pub ticks: u64,
}

#[derive(Debug)]
enum EventKind<M> {
    Deliver { from: NodeId, to: NodeId, msg: M },
    Tick { node: NodeId },
}

struct Scheduled<M> {
    at: u64,
    seq: u64,
    kind: EventKind<M>,
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The deterministic simulator.
pub struct SimNetwork<M> {
    config: NetConfig,
    nodes: Vec<Option<Box<dyn SimNode<M>>>>,
    queue: BinaryHeap<Reverse<Scheduled<M>>>,
    now: u64,
    seq: u64,
    rng: StdRng,
    stats: NetStats,
    /// Partition groups; when non-empty, cross-group traffic is dropped.
    partitions: Vec<BTreeSet<NodeId>>,
    /// Eclipse filters: node -> the only peers allowed to reach it or be
    /// reached by it.
    isolation: Vec<Option<BTreeSet<NodeId>>>,
}

impl<M> std::fmt::Debug for SimNetwork<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimNetwork")
            .field("now", &self.now)
            .field("nodes", &self.nodes.len())
            .field("queued", &self.queue.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl<M: Clone> SimNetwork<M> {
    /// Creates an empty network.
    pub fn new(config: NetConfig) -> SimNetwork<M> {
        SimNetwork {
            rng: StdRng::seed_from_u64(config.seed),
            config,
            nodes: Vec::new(),
            queue: BinaryHeap::new(),
            now: 0,
            seq: 0,
            stats: NetStats::default(),
            partitions: Vec::new(),
            isolation: Vec::new(),
        }
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self, node: Box<dyn SimNode<M>>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Some(node));
        self.isolation.push(None);
        id
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Current virtual time (ms).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Delivery statistics so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Injects a message from outside the node set, delivered with normal
    /// latency/loss semantics.
    pub fn send_external(&mut self, to: NodeId, msg: M) {
        self.enqueue_send(NodeId::EXTERNAL, to, msg);
    }

    /// Schedules a tick for `node` at `delay_ms` from now.
    pub fn schedule_tick(&mut self, node: NodeId, delay_ms: u64) {
        let at = self.now + delay_ms;
        self.push_event(at, EventKind::Tick { node });
    }

    /// Splits the network into partition groups; cross-group messages are
    /// dropped until [`SimNetwork::heal_partitions`].
    pub fn partition(&mut self, groups: Vec<Vec<NodeId>>) {
        self.partitions = groups
            .into_iter()
            .map(|g| g.into_iter().collect())
            .collect();
    }

    /// Removes all partitions.
    pub fn heal_partitions(&mut self) {
        self.partitions.clear();
    }

    /// Eclipses `target`: only `allowed` peers may exchange messages with
    /// it (§V-B4, eclipse/Sybil discussion).
    pub fn isolate(&mut self, target: NodeId, allowed: impl IntoIterator<Item = NodeId>) {
        self.isolation[target.0 as usize] = Some(allowed.into_iter().collect());
    }

    /// Lifts an eclipse.
    pub fn clear_isolation(&mut self, target: NodeId) {
        self.isolation[target.0 as usize] = None;
    }

    /// Runs all events scheduled up to and including virtual time `t`.
    pub fn run_until(&mut self, t: u64) {
        while let Some(Reverse(head)) = self.queue.peek() {
            if head.at > t {
                break;
            }
            let Reverse(event) = self.queue.pop().expect("peeked");
            self.now = event.at;
            self.dispatch(event.kind);
        }
        self.now = self.now.max(t);
    }

    /// Runs until no events remain.
    pub fn run_until_idle(&mut self) {
        while let Some(Reverse(event)) = self.queue.pop() {
            self.now = event.at;
            self.dispatch(event.kind);
        }
    }

    /// Immutable access to a node, downcast to its concrete type.
    pub fn node_as<T: 'static>(&self, id: NodeId) -> Option<&T> {
        self.nodes
            .get(id.0 as usize)?
            .as_ref()?
            .as_any()
            .downcast_ref::<T>()
    }

    /// Runs a closure with mutable access to the boxed node.
    ///
    /// # Panics
    ///
    /// Panics when the id is unknown or the node is mid-dispatch.
    pub fn with_node_mut<R>(&mut self, id: NodeId, f: impl FnOnce(&mut dyn SimNode<M>) -> R) -> R {
        let slot = self
            .nodes
            .get_mut(id.0 as usize)
            .expect("unknown node id")
            .as_mut()
            .expect("node is mid-dispatch");
        f(slot.as_mut())
    }

    /// Typed variant of [`SimNetwork::with_node_mut`]: downcasts the node
    /// to `T` before running the closure, so drivers can call concrete
    /// node APIs (e.g. leader-side administrative actions) directly.
    ///
    /// # Panics
    ///
    /// Panics when the id is unknown, the node is mid-dispatch, or the
    /// node is not a `T`.
    pub fn with_node_as_mut<T: 'static, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T) -> R,
    ) -> R {
        self.with_node_mut(id, |node| {
            f(node
                .as_any_mut()
                .downcast_mut::<T>()
                .expect("node type mismatch"))
        })
    }

    fn blocked(&self, from: NodeId, to: NodeId) -> Option<&'static str> {
        if !self.partitions.is_empty() && from != NodeId::EXTERNAL {
            let group_of = |id: NodeId| self.partitions.iter().position(|g| g.contains(&id));
            if group_of(from) != group_of(to) {
                return Some("partition");
            }
        }
        for (id, peer) in [(from, to), (to, from)] {
            if id == NodeId::EXTERNAL {
                continue;
            }
            if let Some(allowed) = &self.isolation[id.0 as usize] {
                if peer != NodeId::EXTERNAL && !allowed.contains(&peer) {
                    return Some("isolation");
                }
            }
        }
        None
    }

    fn enqueue_send(&mut self, from: NodeId, to: NodeId, msg: M) {
        self.stats.sent += 1;
        match self.blocked(from, to) {
            Some("partition") => {
                self.stats.dropped_partition += 1;
                return;
            }
            Some(_) => {
                self.stats.dropped_isolation += 1;
                return;
            }
            None => {}
        }
        if self.config.drop_probability > 0.0
            && self.rng.random_range(0.0..1.0) < self.config.drop_probability
        {
            self.stats.dropped_random += 1;
            return;
        }
        let latency = if self.config.max_latency_ms > self.config.min_latency_ms {
            self.rng
                .random_range(self.config.min_latency_ms..=self.config.max_latency_ms)
        } else {
            self.config.min_latency_ms
        };
        let at = self.now + latency;
        self.push_event(at, EventKind::Deliver { from, to, msg });
    }

    fn push_event(&mut self, at: u64, kind: EventKind<M>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Scheduled { at, seq, kind }));
    }

    fn dispatch(&mut self, kind: EventKind<M>) {
        let node_id = match &kind {
            EventKind::Deliver { to, .. } => *to,
            EventKind::Tick { node } => *node,
        };
        let index = node_id.0 as usize;
        let Some(slot) = self.nodes.get_mut(index) else {
            return; // message to unknown node: dropped silently
        };
        let Some(mut node) = slot.take() else {
            return; // re-entrant dispatch cannot happen; defensive
        };

        #[allow(clippy::type_complexity)]
        let action: Box<dyn FnOnce(&mut dyn SimNode<M>, &mut Context<'_, M>) + '_> = match kind {
            EventKind::Deliver { from, msg, .. } => {
                self.stats.delivered += 1;
                Box::new(move |node, ctx| node.on_message(from, msg, ctx))
            }
            EventKind::Tick { .. } => {
                self.stats.ticks += 1;
                Box::new(|node, ctx| node.on_tick(ctx))
            }
        };

        let mut outbox: Vec<(NodeId, M)> = Vec::new();
        let mut tick_requests: Vec<u64> = Vec::new();
        {
            let mut ctx = Context {
                now: self.now,
                me: node_id,
                node_count: self.nodes.len() as u32,
                outbox: &mut outbox,
                tick_requests: &mut tick_requests,
            };
            action(node.as_mut(), &mut ctx);
        }
        self.nodes[index] = Some(node);

        for (to, msg) in outbox {
            self.enqueue_send(node_id, to, msg);
        }
        for at in tick_requests {
            self.push_event(at, EventKind::Tick { node: node_id });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Node that records messages and can forward them once.
    #[derive(Default)]
    struct Relay {
        heard: Vec<(NodeId, u64, String)>,
        forward_to: Option<NodeId>,
        ticks: u64,
    }

    impl SimNode<String> for Relay {
        fn on_message(&mut self, from: NodeId, msg: String, ctx: &mut Context<'_, String>) {
            self.heard.push((from, ctx.now(), msg.clone()));
            if let Some(to) = self.forward_to {
                ctx.send(to, format!("fwd:{msg}"));
            }
        }
        fn on_tick(&mut self, ctx: &mut Context<'_, String>) {
            self.ticks += 1;
            if self.ticks < 3 {
                ctx.schedule_tick(10);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn net() -> SimNetwork<String> {
        SimNetwork::new(NetConfig::default())
    }

    #[test]
    fn delivers_with_latency() {
        let mut net = net();
        let a = net.add_node(Box::new(Relay::default()));
        net.send_external(a, "hello".into());
        net.run_until_idle();
        let node = net.node_as::<Relay>(a).unwrap();
        assert_eq!(node.heard.len(), 1);
        let (from, at, ref msg) = node.heard[0];
        assert_eq!(from, NodeId::EXTERNAL);
        assert!((1..=10).contains(&at), "latency out of range: {at}");
        assert_eq!(msg, "hello");
    }

    #[test]
    fn forwarding_chain() {
        let mut net = net();
        let a = net.add_node(Box::new(Relay::default()));
        let b = net.add_node(Box::new(Relay::default()));
        let relay = Relay {
            forward_to: Some(b),
            ..Default::default()
        };
        net.nodes[a.0 as usize] = Some(Box::new(relay));
        net.send_external(a, "x".into());
        net.run_until_idle();
        assert_eq!(net.node_as::<Relay>(b).unwrap().heard.len(), 1);
        assert!(net.node_as::<Relay>(b).unwrap().heard[0]
            .2
            .starts_with("fwd:"));
    }

    #[test]
    fn determinism_same_seed_same_timings() {
        let run = |seed: u64| -> Vec<u64> {
            let mut net: SimNetwork<String> = SimNetwork::new(NetConfig {
                seed,
                min_latency_ms: 1,
                max_latency_ms: 50,
                ..Default::default()
            });
            let a = net.add_node(Box::new(Relay::default()));
            for i in 0..10 {
                net.send_external(a, format!("m{i}"));
            }
            net.run_until_idle();
            net.node_as::<Relay>(a)
                .unwrap()
                .heard
                .iter()
                .map(|h| h.1)
                .collect()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn random_drops_counted() {
        let mut net: SimNetwork<String> = SimNetwork::new(NetConfig {
            drop_probability: 1.0,
            ..Default::default()
        });
        let a = net.add_node(Box::new(Relay::default()));
        net.send_external(a, "x".into());
        net.run_until_idle();
        assert_eq!(net.stats().dropped_random, 1);
        assert!(net.node_as::<Relay>(a).unwrap().heard.is_empty());
    }

    #[test]
    fn partitions_block_cross_group_traffic() {
        let mut net = net();
        let a = net.add_node(Box::new(Relay::default()));
        let b = net.add_node(Box::new(Relay::default()));
        let relay = Relay {
            forward_to: Some(b),
            ..Default::default()
        };
        net.nodes[a.0 as usize] = Some(Box::new(relay));
        net.partition(vec![vec![a], vec![b]]);
        net.send_external(a, "x".into()); // external reaches a
        net.run_until_idle();
        assert!(net.node_as::<Relay>(b).unwrap().heard.is_empty());
        assert_eq!(net.stats().dropped_partition, 1);
        // Healing restores traffic.
        net.heal_partitions();
        net.send_external(a, "y".into());
        net.run_until_idle();
        assert_eq!(net.node_as::<Relay>(b).unwrap().heard.len(), 1);
    }

    #[test]
    fn isolation_blocks_unlisted_peers() {
        let mut net = net();
        let a = net.add_node(Box::new(Relay::default()));
        let b = net.add_node(Box::new(Relay::default()));
        let c = net.add_node(Box::new(Relay::default()));
        let relay = Relay {
            forward_to: Some(c),
            ..Default::default()
        };
        net.nodes[a.0 as usize] = Some(Box::new(relay));
        // c only talks to b.
        net.isolate(c, [b]);
        net.send_external(a, "x".into());
        net.run_until_idle();
        assert!(net.node_as::<Relay>(c).unwrap().heard.is_empty());
        assert_eq!(net.stats().dropped_isolation, 1);
        net.clear_isolation(c);
        net.send_external(a, "y".into());
        net.run_until_idle();
        assert_eq!(net.node_as::<Relay>(c).unwrap().heard.len(), 1);
    }

    #[test]
    fn ticks_fire_and_reschedule() {
        let mut net = net();
        let a = net.add_node(Box::new(Relay::default()));
        net.schedule_tick(a, 5);
        net.run_until_idle();
        assert_eq!(net.node_as::<Relay>(a).unwrap().ticks, 3);
        assert_eq!(net.stats().ticks, 3);
    }

    #[test]
    fn run_until_respects_time_bound() {
        let mut net: SimNetwork<String> = SimNetwork::new(NetConfig {
            min_latency_ms: 100,
            max_latency_ms: 100,
            ..Default::default()
        });
        let a = net.add_node(Box::new(Relay::default()));
        net.send_external(a, "late".into());
        net.run_until(50);
        assert!(net.node_as::<Relay>(a).unwrap().heard.is_empty());
        assert_eq!(net.now(), 50);
        net.run_until(150);
        assert_eq!(net.node_as::<Relay>(a).unwrap().heard.len(), 1);
    }

    #[test]
    fn external_sender_unaffected_by_partitions() {
        let mut net = net();
        let a = net.add_node(Box::new(Relay::default()));
        net.partition(vec![vec![a]]);
        net.send_external(a, "x".into());
        net.run_until_idle();
        assert_eq!(net.node_as::<Relay>(a).unwrap().heard.len(), 1);
    }

    #[test]
    fn broadcast_reaches_all_but_self() {
        #[derive(Default)]
        struct Caster {
            heard: usize,
        }
        impl SimNode<String> for Caster {
            fn on_message(&mut self, _f: NodeId, msg: String, ctx: &mut Context<'_, String>) {
                self.heard += 1;
                if msg == "go" {
                    ctx.broadcast("wave".into());
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut net: SimNetwork<String> = SimNetwork::new(NetConfig::default());
        let ids: Vec<NodeId> = (0..4)
            .map(|_| net.add_node(Box::new(Caster::default())))
            .collect();
        net.send_external(ids[0], "go".into());
        net.run_until_idle();
        assert_eq!(net.node_as::<Caster>(ids[0]).unwrap().heard, 1); // only "go"
        for id in &ids[1..] {
            assert_eq!(net.node_as::<Caster>(*id).unwrap().heard, 1); // "wave"
        }
    }
}
