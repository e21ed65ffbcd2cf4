//! Quickstart: write, summarise, delete, verify.
//!
//! Run with `cargo run --example quickstart`.

use selective_deletion::prelude::*;

fn main() -> Result<(), CoreError> {
    // The paper's evaluation configuration: summary block every 3rd block,
    // l_max = 6, full compaction.
    let mut ledger = SelectiveLedger::new(ChainConfig::paper_evaluation());
    let alice = SigningKey::from_seed([1u8; 32]);

    // 1. Write some data.
    for i in 1..=3u64 {
        ledger.submit_entry(Entry::sign_data(
            &alice,
            DataRecord::new("note").with("text", format!("entry {i}").as_str()),
        ))?;
    }
    let block = ledger.seal_block(Timestamp(10))?;
    println!("sealed block {block} with 3 entries");
    println!(
        "summary block Σ2 was derived automatically: {:?}",
        ledger.chain().get(BlockNumber(2)).map(|b| b.kind())
    );

    // 2. Request deletion of the second entry (we own it).
    let target = EntryId::new(block, EntryNumber(1));
    ledger.request_deletion(&alice, target, "no longer needed")?;
    ledger.seal_block(Timestamp(20))?;
    println!(
        "deletion marked: target live = {}, physically present = {}",
        ledger.is_live(target),
        ledger.record(target).is_some()
    );

    // 3. Let the chain run; the merge drops the record and shifts the
    //    marker ("delayed deletion", §IV-D3).
    for i in 3..=12u64 {
        ledger.seal_block(Timestamp(i * 10))?;
    }
    println!(
        "after merges: marker m = {}, physically present = {}",
        ledger.chain().marker(),
        ledger.record(target).is_some()
    );

    // 4. The neighbouring entries survived with their original ids.
    let kept = EntryId::new(block, EntryNumber(0));
    println!(
        "entry {kept} still readable: {:?}",
        ledger.record(kept).map(|r| r.to_string())
    );

    // 5. And the chain still validates from its status quo.
    let report = seldel_chain::validate_full(ledger.chain()).expect("chain is valid");
    println!(
        "validated {} live blocks, {} entry signatures, {} carried records",
        report.blocks_checked, report.entries_verified, report.records_verified
    );
    Ok(())
}
