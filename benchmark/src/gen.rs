//! The seeded load generator. Everything the system is given comes from
//! here and is signed here, outside the clock: the program receives only
//! the generated inputs, and the same seed gives the same bytes.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use seldel_chain::{BlockNumber, DeleteRequest, Entry, EntryId, EntryNumber, Expiry, Timestamp};
use seldel_codec::{Codec, DataRecord};
use seldel_crypto::{Digest32, Sha256, SigningKey};
use seldel_sim::ZipfSampler;

use crate::spec::{Workload, ENTRIES_PER_BLOCK, PAYLOAD_BYTES, TENANTS};

/// Leader sealing cadence in virtual ms: one payload block per tick.
pub const BLOCK_INTERVAL_MS: u64 = 100;

/// Ids audited beside the writes are at most this many blocks old.
const AUDIT_AGE: u64 = 200;

/// One generated data entry, as the generator remembers it.
#[derive(Debug, Clone)]
pub struct GenRecord {
    pub id: EntryId,
    pub tenant: usize,
    pub record: DataRecord,
    /// The record's unique high-entropy payload text.
    pub sentinel: String,
    /// Virtual time after which the record may be dropped at a merge.
    pub expires_at: Option<u64>,
    /// Payload-block index whose block carries the deletion request.
    pub delete_block: Option<u64>,
}

/// The inputs of one block cycle.
#[derive(Debug, Clone)]
pub struct BlockInput {
    /// Payload-block index (0-based, warm-up included).
    pub index: u64,
    /// The block number the anchor will seal these entries into.
    pub number: u64,
    /// Virtual time of the sealing tick.
    pub sealed_at: u64,
    /// Data entries first, then deletion requests, in submit order.
    pub entries: Vec<Entry>,
    /// Targets of the deletion requests in `entries`.
    pub deletes: Vec<EntryId>,
    /// `audit_live` batch to run after the seal, with expected answers.
    pub audit: Vec<EntryId>,
    pub audit_expect: Vec<bool>,
}

pub struct Generator {
    pub seed: u64,
    rng: StdRng,
    keys: Vec<SigningKey>,
    zipf: ZipfSampler,
    l: u64,
    ttl_blocks: Option<u64>,
    delete_age: (u64, u64),
    deletes_per_16: u64,
    audit_beside: usize,
    next_index: u64,
    next_number: u64,
    counter: u64,
    /// Every data entry generated so far: record `8·k + i` is entry `i`
    /// of payload block `k`.
    pub records: Vec<GenRecord>,
    digest: Sha256,
    /// Time spent inside `sign` and entries signed (→ `crypto.sign_us`).
    pub sign_ns: u64,
    pub signed: u64,
}

impl Generator {
    pub fn new(w: &Workload, seed: u64) -> Generator {
        // The workload name is mixed in so two workloads on one seed do
        // not replay each other's stream.
        let tag = w
            .name
            .bytes()
            .fold(0u64, |h, b| h.wrapping_mul(131) ^ u64::from(b));
        let mut rng = StdRng::seed_from_u64(seed ^ tag.rotate_left(17));
        let keys = (0..TENANTS)
            .map(|_| {
                let mut s = [0u8; 32];
                for chunk in s.chunks_mut(8) {
                    chunk.copy_from_slice(&rng.random_range(0..=u64::MAX).to_le_bytes());
                }
                SigningKey::from_seed(s)
            })
            .collect();
        Generator {
            seed,
            rng,
            keys,
            zipf: ZipfSampler::new(TENANTS, 1.1),
            l: w.l,
            ttl_blocks: w.ttl_blocks,
            delete_age: w.delete_age(),
            deletes_per_16: w.deletes_per_16,
            audit_beside: w.audit_beside,
            next_index: 0,
            next_number: 1,
            counter: 0,
            records: Vec::new(),
            digest: Sha256::new(),
            sign_ns: 0,
            signed: 0,
        }
    }

    pub fn key(&self, tenant: usize) -> &SigningKey {
        &self.keys[tenant]
    }

    /// SHA-256 over the canonical bytes of every entry generated so far.
    pub fn digest(&self) -> Digest32 {
        self.digest.clone().finalize()
    }

    fn sentinel(&mut self) -> String {
        let mut s = String::with_capacity(PAYLOAD_BYTES);
        while s.len() < PAYLOAD_BYTES {
            s.push_str(&format!("{:016x}", self.rng.random_range(0..=u64::MAX)));
        }
        s.truncate(PAYLOAD_BYTES);
        s
    }

    fn sign(&mut self, make: impl FnOnce(&SigningKey) -> Entry, tenant: usize) -> Entry {
        let start = Instant::now();
        let entry = make(&self.keys[tenant]);
        self.sign_ns += start.elapsed().as_nanos() as u64;
        self.signed += 1;
        self.digest.update(entry.to_canonical_bytes());
        entry
    }

    /// Picks a not yet targeted data entry `delete_age` blocks old;
    /// `None` while the chain is younger than that.
    fn pick_delete_target(&mut self, index: u64) -> Option<usize> {
        let hi = index.checked_sub(self.delete_age.0)?;
        let lo = index.saturating_sub(self.delete_age.1);
        let per = ENTRIES_PER_BLOCK as u64;
        for _ in 0..64 {
            let r = self.rng.random_range(lo * per..(hi + 1) * per) as usize;
            if self.records[r].delete_block.is_none() {
                return Some(r);
            }
        }
        None
    }

    /// Generates and signs the next payload block's inputs.
    pub fn next_block(&mut self) -> BlockInput {
        let index = self.next_index;
        let number = self.next_number;
        self.next_index += 1;
        self.next_number += 1;
        if (self.next_number + 1).is_multiple_of(self.l) {
            self.next_number += 1; // the anchor fills the summary slot itself
        }
        let sealed_at = (index + 1) * BLOCK_INTERVAL_MS;
        let expires_at = self
            .ttl_blocks
            .map(|ttl| sealed_at + ttl * BLOCK_INTERVAL_MS);

        let mut entries = Vec::with_capacity(ENTRIES_PER_BLOCK + 2);
        for i in 0..ENTRIES_PER_BLOCK {
            let tenant = self.zipf.sample(&mut self.rng);
            let sentinel = self.sentinel();
            self.counter += 1;
            let record = DataRecord::new("log")
                .with("tenant", tenant as u64)
                .with("n", self.counter)
                .with("payload", sentinel.as_str());
            let expiry = expires_at.map(|t| Expiry::AtTimestamp(Timestamp(t)));
            let signed = record.clone();
            entries.push(self.sign(|k| Entry::sign_data_with(k, signed, expiry, vec![]), tenant));
            self.records.push(GenRecord {
                id: EntryId::new(BlockNumber(number), EntryNumber(i as u32)),
                tenant,
                record,
                sentinel,
                expires_at,
                delete_block: None,
            });
        }

        let due = (index + 1) * self.deletes_per_16 / 16 - index * self.deletes_per_16 / 16;
        let mut deletes = Vec::new();
        for _ in 0..due {
            let Some(r) = self.pick_delete_target(index) else {
                continue;
            };
            self.records[r].delete_block = Some(index);
            let (target, tenant) = (self.records[r].id, self.records[r].tenant);
            let request = DeleteRequest::new(target, "tenant request");
            entries.push(self.sign(|k| Entry::sign_delete(k, request), tenant));
            deletes.push(target);
        }

        let mut audit = Vec::with_capacity(self.audit_beside);
        let mut audit_expect = Vec::with_capacity(self.audit_beside);
        let oldest = index.saturating_sub(AUDIT_AGE) as usize * ENTRIES_PER_BLOCK;
        for _ in 0..self.audit_beside {
            let r = &self.records[self.rng.random_range(oldest..self.records.len())];
            audit.push(r.id);
            audit_expect.push(r.delete_block.is_none());
        }

        BlockInput {
            index,
            number,
            sealed_at,
            entries,
            deletes,
            audit,
            audit_expect,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    fn digest_of(seed: u64) -> Digest32 {
        let mut g = Generator::new(&WORKLOADS[1], seed);
        for _ in 0..40 {
            g.next_block();
        }
        g.digest()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(digest_of(7), digest_of(7));
        assert_ne!(digest_of(7), digest_of(8));
    }

    #[test]
    fn block_numbers_skip_summary_slots_and_deletes_are_fresh() {
        let w = &WORKLOADS[1];
        let mut g = Generator::new(w, 1);
        let mut targets = std::collections::BTreeSet::new();
        let mut dels = 0;
        for _ in 0..60 {
            let b = g.next_block();
            assert!(
                !(b.number + 1).is_multiple_of(w.l),
                "block {} is a slot",
                b.number
            );
            assert_eq!(b.entries.len(), ENTRIES_PER_BLOCK + b.deletes.len());
            for t in &b.deletes {
                assert!(targets.insert(*t), "{t} targeted twice");
                dels += 1;
            }
        }
        // 2 a block once entries are old enough to be targeted.
        assert_eq!(dels, 2 * (60 - w.delete_age().0));
    }
}
