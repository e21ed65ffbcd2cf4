//! Sequence (ω) bookkeeping.
//!
//! "A sequence ω is a series of blocks including the summary block at the
//! end of each sequence" (§IV-C). The live chain is partitioned into
//! sequences by its summary blocks; the newest blocks after the last
//! summary form the (open) tail.

use seldel_chain::{BlockKind, BlockNumber, BlockStore, Blockchain};

/// A contiguous block range `[start, end]`, where `end` is the closing
/// summary block for closed sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SequenceSpan {
    /// First block of the sequence.
    pub start: BlockNumber,
    /// Last block of the sequence (its summary block when closed).
    pub end: BlockNumber,
    /// Whether the span ends with a summary block.
    pub closed: bool,
}

impl SequenceSpan {
    /// Number of blocks in the span.
    pub const fn len(&self) -> u64 {
        self.end.value() - self.start.value() + 1
    }

    /// Spans are never empty.
    pub const fn is_empty(&self) -> bool {
        false
    }

    /// Whether `number` falls inside this span.
    pub const fn contains(&self, number: BlockNumber) -> bool {
        self.start.value() <= number.value() && number.value() <= self.end.value()
    }
}

/// Partitions the live chain into sequences.
///
/// Closed sequences end at summary blocks; if blocks follow the last
/// summary, they form one final open span.
pub fn live_sequences<S: BlockStore>(chain: &Blockchain<S>) -> Vec<SequenceSpan> {
    let mut spans = Vec::new();
    let mut start: Option<BlockNumber> = None;
    // Runs on every summary slot once the chain is at capacity: read
    // through the hot cache, not the scan iterator (which re-reads every
    // frame from disk on a paged store).
    for block in chain.iter_hot() {
        let number = block.number();
        if start.is_none() {
            start = Some(number);
        }
        if block.kind() == BlockKind::Summary {
            spans.push(SequenceSpan {
                start: start.take().expect("start set above"),
                end: number,
                closed: true,
            });
        }
    }
    if let Some(start) = start {
        spans.push(SequenceSpan {
            start,
            end: chain.tip().number(),
            closed: false,
        });
    }
    spans
}

/// The sequence containing `number`, if live.
pub fn sequence_of<S: BlockStore>(
    chain: &Blockchain<S>,
    number: BlockNumber,
) -> Option<SequenceSpan> {
    live_sequences(chain)
        .into_iter()
        .find(|s| s.contains(number))
}

/// The middle sequence ω_{lβ/2} used by the Fig. 9 anchor: the closed
/// sequence containing the live chain's midpoint block.
///
/// Returns `None` when there is no closed sequence at the midpoint (e.g.
/// a very short chain).
pub fn middle_sequence<S: BlockStore>(chain: &Blockchain<S>) -> Option<SequenceSpan> {
    let mid = BlockNumber(chain.marker().value() + chain.len() / 2);
    let span = sequence_of(chain, mid)?;
    if span.closed {
        Some(span)
    } else {
        // Fall back to the last closed sequence before the midpoint.
        live_sequences(chain)
            .into_iter()
            .rfind(|s| s.closed && s.end < mid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seldel_chain::{Block, BlockBody, Timestamp};

    /// Builds a chain with summary blocks at every 3rd slot (l = 3):
    /// numbers 2, 5, 8, … up to `n` blocks total.
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

    #[test]
    fn partitions_into_sequences() {
        let chain = chain_l3(9); // blocks 0..8, summaries at 2,5,8
        let spans = live_sequences(&chain);
        assert_eq!(spans.len(), 3);
        assert_eq!(
            spans[0],
            SequenceSpan {
                start: BlockNumber(0),
                end: BlockNumber(2),
                closed: true
            }
        );
        assert_eq!(
            spans[1],
            SequenceSpan {
                start: BlockNumber(3),
                end: BlockNumber(5),
                closed: true
            }
        );
        assert_eq!(
            spans[2],
            SequenceSpan {
                start: BlockNumber(6),
                end: BlockNumber(8),
                closed: true
            }
        );
        assert!(spans.iter().all(|s| s.len() == 3));
    }

    #[test]
    fn open_tail_span() {
        let chain = chain_l3(8); // summaries at 2,5; blocks 6,7 open
        let spans = live_sequences(&chain);
        assert_eq!(spans.len(), 3);
        assert!(!spans[2].closed);
        assert_eq!(spans[2].start, BlockNumber(6));
        assert_eq!(spans[2].end, BlockNumber(7));
    }

    #[test]
    fn sequence_lookup() {
        let chain = chain_l3(9);
        let span = sequence_of(&chain, BlockNumber(4)).unwrap();
        assert_eq!(span.start, BlockNumber(3));
        assert!(span.contains(BlockNumber(4)));
        assert!(!span.contains(BlockNumber(2)));
        assert!(sequence_of(&chain, BlockNumber(99)).is_none());
    }

    #[test]
    fn middle_sequence_is_closed() {
        let chain = chain_l3(12); // summaries at 2,5,8,11
        let mid = middle_sequence(&chain).unwrap();
        assert!(mid.closed);
        // Midpoint block = 0 + 12/2 = 6 → sequence [6..8].
        assert_eq!(mid.start, BlockNumber(6));
        assert_eq!(mid.end, BlockNumber(8));
    }

    #[test]
    fn middle_sequence_none_for_tiny_chain() {
        let chain = chain_l3(2); // no summary yet
        assert!(middle_sequence(&chain).is_none());
    }
}
