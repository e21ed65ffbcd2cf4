//! Retention planning: which old sequences to merge and cut when the chain
//! exceeds l_max (§IV-C, Fig. 3).
//!
//! "If the blockchain grows larger than the specified length l_max, the
//! oldest sequence will be merged into the next summary block. … multiple
//! sequences can also being combined in one summary block." Minimum-length
//! guards (§IV-D3) stop retirement before the chain gets too short.

use seldel_chain::{BlockKind, BlockNumber, BlockStore, Blockchain};

use crate::config::ChainConfig;
use crate::sequence::{live_sequences, SequenceSpan};

/// The outcome of retention planning: sequences to retire, oldest first.
///
/// Empty plans are unrepresentable: the only constructor,
/// [`RetirePlan::new`], refuses an empty span list, so every accessor is
/// total — there is no "plans are non-empty" panic path a pathological
/// configuration could reach.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetirePlan {
    /// Non-empty by construction.
    spans: Vec<SequenceSpan>,
    new_marker: BlockNumber,
}

impl RetirePlan {
    /// Builds a plan from the sequences to retire (oldest first) and the
    /// genesis marker after cutting. Returns `None` for an empty span
    /// list — "retire nothing" is expressed as the absence of a plan
    /// (exactly how [`plan_retirement`] reports it), never as a plan with
    /// no contents.
    pub fn new(spans: Vec<SequenceSpan>, new_marker: BlockNumber) -> Option<RetirePlan> {
        if spans.is_empty() {
            return None;
        }
        Some(RetirePlan { spans, new_marker })
    }

    /// The closed sequences to merge into the upcoming summary block,
    /// oldest first (never empty).
    pub fn spans(&self) -> &[SequenceSpan] {
        &self.spans
    }

    /// The genesis marker after cutting (first surviving block number).
    pub fn new_marker(&self) -> BlockNumber {
        self.new_marker
    }

    /// Total number of blocks being retired.
    pub fn retired_blocks(&self) -> u64 {
        self.spans.iter().map(SequenceSpan::len).sum()
    }

    /// First retired block number (total: spans are non-empty by
    /// construction).
    pub fn first(&self) -> BlockNumber {
        self.spans[0].start
    }

    /// Last retired block number (total: spans are non-empty by
    /// construction).
    pub fn last(&self) -> BlockNumber {
        self.spans[self.spans.len() - 1].end
    }
}

/// Plans retirement for the moment a new summary block is appended.
///
/// `chain` is the chain *before* the new summary block; the projection
/// accounts for the +1 block and +1 summary the new Σ adds. Returns `None`
/// when nothing needs to (or may) be retired.
pub fn plan_retirement<S: BlockStore>(
    chain: &Blockchain<S>,
    config: &ChainConfig,
) -> Option<RetirePlan> {
    let max = config.retention.max_live_blocks?;
    let min_blocks = config.retention.min_live_blocks;
    let min_summaries = config.retention.min_live_summaries;
    let mode = config.retention.mode;

    let projected_len = chain.len() + 1; // including the new Σ
    if projected_len <= max {
        return None;
    }

    let spans = live_sequences(chain);
    let closed: Vec<SequenceSpan> = spans.iter().copied().filter(|s| s.closed).collect();
    // Hot-cache reads, not a disk scan: this runs on every summary slot
    // once the chain is at capacity.
    let live_summaries = chain
        .iter_hot()
        .filter(|b| b.kind() == BlockKind::Summary)
        .count() as u64
        + 1; // including the new Σ
    let tip_ts = chain.tip().timestamp();

    let mut retired_blocks = 0u64;
    let mut retired_summaries = 0u64;
    let mut take = 0usize;

    #[allow(clippy::explicit_counter_loop)] // `take` and the counters advance together
    for span in &closed {
        let under_limit = projected_len - retired_blocks <= max;
        if under_limit && mode == crate::config::RetireMode::MinimumNeeded {
            break;
        }
        let span_blocks = span.len();
        let remaining_blocks = projected_len - retired_blocks - span_blocks;
        if remaining_blocks < min_blocks {
            break;
        }
        // The new Σ counts as a surviving summary block.
        if live_summaries - retired_summaries - 1 < min_summaries {
            break;
        }
        if let Some(min_span) = config.retention.min_timespan {
            // Timestamp of the first block that would remain.
            let first_remaining = span.end.next();
            let Some(first_block) = chain.get(first_remaining) else {
                break;
            };
            if tip_ts.since(first_block.timestamp()) < min_span {
                break;
            }
        }
        retired_blocks += span_blocks;
        retired_summaries += 1;
        take += 1;
    }

    if take == 0 {
        return None;
    }
    let retired: Vec<SequenceSpan> = closed[..take].to_vec();
    let new_marker = retired[take - 1].end.next();
    RetirePlan::new(retired, new_marker)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RetentionPolicy;
    use seldel_chain::{Block, BlockBody, Timestamp};

    /// Chain with l = 3 summaries (slots 2, 5, 8, …), `n` blocks total.
    fn chain_l3(n: u64) -> Blockchain {
        let mut chain = Blockchain::new(Block::genesis("t", Timestamp(0)));
        for i in 1..n {
            let prev = chain.tip().hash();
            let is_summary = (i + 1) % 3 == 0;
            let ts = if is_summary {
                chain.tip().timestamp()
            } else {
                Timestamp(i * 10)
            };
            let body = if is_summary {
                BlockBody::Summary {
                    records: vec![],
                    deletions: vec![],
                    anchor: None,
                }
            } else {
                BlockBody::Empty
            };
            chain
                .push(Block::new(BlockNumber(i), ts, prev, body))
                .unwrap();
        }
        chain
    }

    fn config_l3(l_max: u64) -> ChainConfig {
        ChainConfig {
            sequence_length: 3,
            retention: RetentionPolicy {
                max_live_blocks: Some(l_max),
                min_live_blocks: 3,
                min_live_summaries: 1,
                min_timespan: None,
                mode: crate::config::RetireMode::MinimumNeeded,
            },
            ..Default::default()
        }
    }

    #[test]
    fn no_plan_under_limit() {
        // 5 live + 1 new Σ = 6 ≤ 6.
        let chain = chain_l3(5);
        assert!(plan_retirement(&chain, &config_l3(6)).is_none());
    }

    #[test]
    fn retires_oldest_sequence_when_over() {
        // 8 live + 1 = 9 > 6 → retire ω1 [0..2] (3 blocks) → 6 ≤ 6.
        let chain = chain_l3(8);
        let plan = plan_retirement(&chain, &config_l3(6)).unwrap();
        assert_eq!(plan.spans().len(), 1);
        assert_eq!(plan.spans()[0].start, BlockNumber(0));
        assert_eq!(plan.spans()[0].end, BlockNumber(2));
        assert_eq!(plan.new_marker(), BlockNumber(3));
        assert_eq!(plan.retired_blocks(), 3);
        assert_eq!(plan.first(), BlockNumber(0));
        assert_eq!(plan.last(), BlockNumber(2));
    }

    #[test]
    fn merges_multiple_sequences_when_far_over() {
        // 14 live + 1 = 15 > 6 → retire ω1..ω3 (9 blocks) → 6.
        let chain = chain_l3(14);
        let plan = plan_retirement(&chain, &config_l3(6)).unwrap();
        assert_eq!(plan.spans().len(), 3);
        assert_eq!(plan.new_marker(), BlockNumber(9));
    }

    #[test]
    fn empty_plans_are_unrepresentable() {
        assert!(RetirePlan::new(vec![], BlockNumber(3)).is_none());
        let plan = RetirePlan::new(
            vec![SequenceSpan {
                start: BlockNumber(0),
                end: BlockNumber(2),
                closed: true,
            }],
            BlockNumber(3),
        )
        .unwrap();
        // first/last are total — no panic path left.
        assert_eq!(plan.first(), BlockNumber(0));
        assert_eq!(plan.last(), BlockNumber(2));
    }

    #[test]
    fn min_live_blocks_stops_retirement() {
        let mut cfg = config_l3(6);
        cfg.retention.min_live_blocks = 7; // would always be violated
        let chain = chain_l3(8);
        assert!(plan_retirement(&chain, &cfg).is_none());
    }

    #[test]
    fn min_summaries_stops_retirement() {
        // 8 live blocks have summaries at 2 and 5; with the new Σ, three
        // total. Requiring 3 minimum means none may be retired.
        let mut cfg = config_l3(6);
        cfg.retention.min_live_summaries = 3;
        let chain = chain_l3(8);
        assert!(plan_retirement(&chain, &cfg).is_none());
    }

    #[test]
    fn min_timespan_stops_retirement() {
        let mut cfg = config_l3(6);
        // Tip of chain_l3(8) is block 7 at τ70. First remaining after
        // retiring ω1 would be block 3 at τ30 → span 40 < 100 → blocked.
        cfg.retention.min_timespan = Some(100);
        let chain = chain_l3(8);
        assert!(plan_retirement(&chain, &cfg).is_none());
        // A permissive span allows it again.
        cfg.retention.min_timespan = Some(30);
        assert!(plan_retirement(&chain, &cfg).is_some());
    }

    #[test]
    fn unbounded_retention_never_plans() {
        let cfg = ChainConfig {
            sequence_length: 3,
            retention: RetentionPolicy::keep_forever(),
            ..Default::default()
        };
        let chain = chain_l3(50);
        assert!(plan_retirement(&chain, &cfg).is_none());
    }

    #[test]
    fn open_tail_never_retired() {
        // Chain ending mid-sequence: closed sequences only are candidates.
        let chain = chain_l3(7); // summaries at 2,5; block 6 open
        let plan = plan_retirement(&chain, &config_l3(4)).unwrap();
        assert!(plan.spans().iter().all(|s| s.closed));
        assert!(plan.last() <= BlockNumber(5));
    }
}
