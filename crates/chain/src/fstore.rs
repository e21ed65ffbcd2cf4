//! `FileStore` — the durable, file-backed segment log, **paged**: the
//! live chain can be several times larger than resident memory.
//!
//! The log appends at the back and releases whole segments at the front,
//! the access pattern of the marker-shift rule. A rooted [`FileStore`]
//! keeps the live chain in a directory:
//!
//! ```text
//! <root>/MANIFEST            versioned store metadata (see below)
//! <root>/seg-0000000000.seg  checksummed block frames, oldest segment
//! <root>/seg-0000000001.seg  ...
//! ```
//!
//! Every segment file holds up to `segment_capacity` frames. A **v3
//! frame** is:
//!
//! ```text
//! u32  len           bytes after this field (97 + block bytes)
//! u8   flags         bit 0: payload root present
//! [32] header hash   the block's sealed digest
//! [32] payload root  the body's Merkle root (zero when absent)
//! [32] checksum      sha256(tag ‖ flags ‖ header hash ‖ root ‖ block bytes)
//! [..] block bytes   the block's canonical `seldel-codec` encoding
//! ```
//!
//! The manifest records the format version, the segment capacity, the id
//! of the first live segment and the number of the first live block —
//! everything replay needs that the frames alone cannot say.
//!
//! # Paging: offset table, streaming replay, hot-block cache
//!
//! A rooted store does **not** keep blocks in memory. It keeps one
//! `FrameMeta` per block — segment id, byte offset, frame length, block
//! number, header hash, payload root (the *segment offset table*) — and
//! serves reads straight from the segment files:
//!
//! * [`FileStore::open`] rebuilds the table by **streaming replay**: each
//!   segment file is read once, every frame's checksum is verified (one
//!   hash per frame) and only the 97-byte frame header plus the block
//!   header prefix are decoded. No block is materialised and nothing is
//!   re-sealed — replay cost is one SHA-256 per block, not a full
//!   re-hash of every payload.
//! * [`BlockStore::get`] resolves the index through the table in O(1),
//!   then serves the block from a small **hot-block LRU cache**
//!   (configurable via [`FileStore::with_hot_cache_capacity`] or the
//!   `SELDEL_HOT_CACHE_BLOCKS` environment variable, default
//!   [`DEFAULT_HOT_CACHE_BLOCKS`]) or, on a miss, by reading exactly one
//!   frame from disk. The cached digests come from the table, so a cold
//!   read decodes but never hashes.
//! * [`BlockStore::iter`] streams each segment sequentially through its
//!   own buffered reader, bypassing the cache — an O(n) scan must not
//!   evict the hot set.
//! * Pushed blocks are appended to the tail file, their meta is added to
//!   the table and the block itself goes into the hot cache (the tip is
//!   always the next linkage check's predecessor).
//!
//! The stored header hash and payload root are trusted on replay because
//! the checksum covers them: any *accidental* corruption is caught at
//! open. An adversary who rewrites a frame *and* its checksum defeats the
//! cache but not the system — full validation re-derives payload roots
//! from the body bytes, proofs re-hash leaves, and the quorum-attested
//! tip hash pins the chain head (the tamper matrix pins all four
//! channels).
//!
//! An **unrooted** `FileStore` (via `Default`, or `Clone` — see below)
//! has no files to page from, so it keeps every block resident and
//! behaves like a plain in-memory segment store.
//!
//! # Durability contract (fsync points)
//!
//! * a segment file is fsynced when it **fills** (seals);
//! * the **manifest** is written via temp-file + atomic rename and fsynced
//!   on every update, with a directory fsync after;
//! * before a prune's manifest update the current tail segment is fsynced,
//!   so a carried-forward summary block is always durable **before** the
//!   pruned blocks it absorbs become unrecoverable (§IV-C ordering);
//! * appends between those barriers are *not* fsynced — a crash may lose a
//!   suffix of recent frames, which the node layer re-syncs from peers.
//!
//! Every fsync happens inline on the caller's thread, and every tail
//! fsync is booked: it bumps [`FileStore::tail_fsyncs`] and advances the
//! **durable watermark** [`FileStore::durable_up_to`] — the highest block
//! number guaranteed to survive a power cut. Under [`FsyncPolicy::OnFill`]
//! the watermark lags the tip between segment fills;
//! [`FileStore::commit_durable`] (alias [`FileStore::sync`]) is the
//! barrier that brings it up to the tip.
//!
//! # Physical deletion (§IV-C)
//!
//! Pruning the front is executed on disk, not just in memory: wholly
//! retired segments are **unlinked**, and a partially retired front
//! segment is **rewritten** (temp file + rename) without the pruned
//! frames — a raw byte-range copy through the offset table, no re-encode.
//! Pruned blocks are also evicted from the hot cache, so after
//! [`BlockStore::drain_front`] returns the deleted entry payloads are
//! absent from both the directory's raw bytes and the store's memory —
//! the property tests grep for a sentinel payload to pin exactly that.
//!
//! # Crash recovery ([`FileStore::open`])
//!
//! The prune sequence is `fsync tail → manifest → rewrite front → unlink
//! retired`, so the manifest is authoritative. `open` finishes whatever a
//! crash interrupted:
//!
//! 1. stray `*.tmp` files are removed;
//! 2. segment files with an id below the manifest's `first_segment_id`
//!    are unlinked (a crash before the unlink step);
//! 3. leading frames of the first segment whose block number lies below
//!    `first_block_number` are dropped and the file is rewritten (a crash
//!    before the front rewrite);
//! 4. a torn frame at the very tail of the newest segment (a crash
//!    mid-append) is truncated away; torn frames anywhere else, and
//!    checksum-failing frames **anywhere including the tail**, are
//!    reported as corruption;
//! 5. the surviving frame metas are checked for contiguous block numbers.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::fs;
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use seldel_codec::{Codec, Decoder, Encoder};
use seldel_crypto::{Digest32, Sha256};

use crate::block::{Block, BlockHeader};
use crate::store::{BlockRef, BlockStore, SealedBlock};

/// Frames per segment file for stores created by [`FileStore::open`] and
/// for unrooted stores.
///
/// Segments mirror the paper's sequences ω: retirement always cuts whole
/// sequence prefixes, so moderately sized segments retire cleanly without
/// long partial-segment tails.
const SEGMENT_CAPACITY: usize = 64;

/// Manifest file name inside a store directory.
const MANIFEST_NAME: &str = "MANIFEST";

/// Magic prefix of the manifest file.
const MANIFEST_MAGIC: &[u8; 8] = b"SELDELFS";

/// Current manifest format version.
///
/// * v1 — original frame log.
/// * v2 — summary bodies carry a deletion-tombstone list (wire change in
///   `BlockBody::Summary`), so v1 stores no longer decode.
/// * v3 — checksummed frames carrying the sealed digests (header hash +
///   payload root), enabling streaming replay and paged reads.
const MANIFEST_VERSION: u32 = 3;

/// Domain tag mixed into every frame checksum.
const FRAME_CHECKSUM_TAG: &[u8] = b"seldel.frame.v3";

/// Frame bytes between the length field and the block bytes:
/// flags (1) + header hash (32) + payload root (32) + checksum (32).
const FRAME_HEADER_LEN: usize = 97;

/// Frame flag bit 0: the payload-root field carries a real root.
const FRAME_FLAG_PAYLOAD_ROOT: u8 = 1;

/// Default hot-block cache capacity, in blocks.
///
/// Overridable per store via [`FileStore::with_hot_cache_capacity`] /
/// [`FileStore::set_hot_cache_capacity`], or process-wide at open time
/// via the `SELDEL_HOT_CACHE_BLOCKS` environment variable.
pub const DEFAULT_HOT_CACHE_BLOCKS: usize = 1024;

/// Environment variable naming the hot-cache capacity (in blocks) a
/// rooted store opens with. Unset or unparsable values fall back to
/// [`DEFAULT_HOT_CACHE_BLOCKS`].
pub const HOT_CACHE_ENV: &str = "SELDEL_HOT_CACHE_BLOCKS";

/// Environment variable selecting the [`FsyncPolicy`] a rooted store
/// opens with: `onfill`, `always`, or `every:<n>`. Unset or unparsable
/// values fall back to [`FsyncPolicy::OnFill`]. Lets CI run whole test
/// suites under the worst-case stall policy (`always`) without code
/// changes; [`FileStore::set_fsync_policy`] still overrides per store.
pub const FSYNC_POLICY_ENV: &str = "SELDEL_FSYNC_POLICY";

fn parse_fsync_policy(value: &str) -> Option<FsyncPolicy> {
    let v = value.trim().to_ascii_lowercase();
    match v.as_str() {
        "onfill" | "on-fill" => Some(FsyncPolicy::OnFill),
        "always" => Some(FsyncPolicy::Always),
        _ => v
            .strip_prefix("every:")
            .and_then(|n| n.parse().ok())
            .map(FsyncPolicy::EveryN),
    }
}

/// Errors raised by [`FileStore`] persistence.
///
/// I/O errors are carried as rendered strings so the type stays `Clone` /
/// `PartialEq` like every other error in the workspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io {
        /// The operation that failed (e.g. `"create dir"`).
        op: &'static str,
        /// The path involved.
        path: String,
        /// The rendered `std::io::Error`.
        message: String,
    },
    /// The manifest or a segment file is corrupt beyond recovery.
    Corrupt {
        /// The file involved.
        path: String,
        /// What was wrong.
        detail: String,
    },
    /// The store directory holds a newer (or unknown) format version.
    UnsupportedVersion {
        /// The version found in the manifest.
        found: u32,
    },
}

impl StoreError {
    fn io(op: &'static str, path: &Path, err: &std::io::Error) -> StoreError {
        StoreError::Io {
            op,
            path: path.display().to_string(),
            message: err.to_string(),
        }
    }

    fn corrupt(path: &Path, detail: impl Into<String>) -> StoreError {
        StoreError::Corrupt {
            path: path.display().to_string(),
            detail: detail.into(),
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, path, message } => {
                write!(f, "store i/o failure ({op} {path}): {message}")
            }
            StoreError::Corrupt { path, detail } => {
                write!(f, "store corruption in {path}: {detail}")
            }
            StoreError::UnsupportedVersion { found } => {
                write!(f, "unsupported store format version {found}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// When the append path fsyncs the tail segment, beyond the structural
/// barriers (segment fill, prune) that always hold.
///
/// The durability floor is identical under every policy: a filled segment
/// is fsynced when it seals, and the tail is fsynced **before each
/// prune's manifest write** (the §IV-C ordering — carried Σ records must
/// be durable before the pruned blocks become unrecoverable). The policy
/// only decides how much of the *unfilled* tail a power cut may lose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Fsync only at the structural barriers — today's default: appends
    /// between barriers are not fsynced, so a crash may lose a suffix of
    /// recent frames (the node layer re-syncs them from peers).
    #[default]
    OnFill,
    /// Fsync the tail after every appended frame. Maximum durability,
    /// one disk flush per sealed block.
    Always,
    /// Group commit: fsync the tail after every `n`-th appended frame
    /// since the last tail fsync (whatever its cause). `EveryN(1)` equals
    /// [`FsyncPolicy::Always`]; large `n` approaches, and `EveryN(0)` is
    /// treated as, [`FsyncPolicy::OnFill`].
    EveryN(u32),
}

/// The manifest: everything replay needs that frames cannot carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Manifest {
    segment_capacity: u32,
    first_segment_id: u64,
    first_block_number: u64,
}

impl Manifest {
    fn encode_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_raw(MANIFEST_MAGIC);
        enc.put_u32(MANIFEST_VERSION);
        enc.put_u32(self.segment_capacity);
        enc.put_u64(self.first_segment_id);
        enc.put_u64(self.first_block_number);
        enc.into_bytes()
    }

    fn decode_bytes(path: &Path, bytes: &[u8]) -> Result<Manifest, StoreError> {
        let mut dec = Decoder::new(bytes);
        let magic: [u8; 8] = dec
            .take_array()
            .map_err(|e| StoreError::corrupt(path, format!("manifest too short: {e}")))?;
        if &magic != MANIFEST_MAGIC {
            return Err(StoreError::corrupt(path, "bad manifest magic"));
        }
        let version = dec
            .take_u32()
            .map_err(|e| StoreError::corrupt(path, format!("manifest truncated: {e}")))?;
        if version != MANIFEST_VERSION {
            return Err(StoreError::UnsupportedVersion { found: version });
        }
        let segment_capacity = dec
            .take_u32()
            .map_err(|e| StoreError::corrupt(path, format!("manifest truncated: {e}")))?;
        let first_segment_id = dec
            .take_u64()
            .map_err(|e| StoreError::corrupt(path, format!("manifest truncated: {e}")))?;
        let first_block_number = dec
            .take_u64()
            .map_err(|e| StoreError::corrupt(path, format!("manifest truncated: {e}")))?;
        if segment_capacity == 0 {
            return Err(StoreError::corrupt(path, "segment capacity is zero"));
        }
        if !dec.is_exhausted() {
            return Err(StoreError::corrupt(path, "trailing bytes in manifest"));
        }
        Ok(Manifest {
            segment_capacity,
            first_segment_id,
            first_block_number,
        })
    }
}

/// One row of the segment offset table: where a block's frame lives and
/// what replay learned about it — everything the store needs to *serve*
/// the block except the block bytes themselves.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FrameMeta {
    /// Byte offset of the frame (length field included) in its segment
    /// file.
    offset: u64,
    /// Total frame length on disk (length field included).
    len: u32,
    /// Monotone per-store sequence number — the hot-cache key. Stable
    /// across drains, unlike the store index.
    seq: u64,
    /// The block's number.
    number: u64,
    /// The block's canonical encoded size in bytes.
    block_bytes: u32,
    /// The block's sealed digest (from the frame, checksum-covered).
    hash: Digest32,
    /// The body's Merkle root, when the writer sealed one.
    payload_root: Option<Digest32>,
}

/// One table entry: the meta plus, on unrooted stores only, the resident
/// block (there is no file to page it from).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Frame {
    meta: FrameMeta,
    resident: Option<SealedBlock>,
}

/// One in-memory segment mirroring one on-disk file: just the offset
/// table rows, never the blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Segment {
    /// File id (`seg-<id>.seg`).
    id: u64,
    /// Frame table, oldest first.
    frames: Vec<Frame>,
    /// Sealed segments never take another append.
    sealed: bool,
}

impl Segment {
    /// Byte length of the segment file (where the next append lands).
    fn file_len(&self) -> u64 {
        self.frames
            .last()
            .map_or(0, |f| f.meta.offset + f.meta.len as u64)
    }
}

/// A cached hot block.
#[derive(Debug)]
struct CacheSlot {
    block: Arc<SealedBlock>,
    stamp: u64,
    bytes: u64,
}

/// The interior of the hot-block cache: `seq → slot` plus an LRU order
/// (`stamp → seq`). Behind a `RefCell` because [`BlockStore::get`] takes
/// `&self` but a hit must bump recency and a miss must insert.
#[derive(Debug, Default)]
struct HotCacheInner {
    slots: HashMap<u64, CacheSlot>,
    lru: BTreeMap<u64, u64>,
    next_stamp: u64,
    bytes: u64,
    hits: u64,
    misses: u64,
}

impl HotCacheInner {
    /// Evicts least-recently-used slots until at most `capacity` remain.
    fn evict_down_to(&mut self, capacity: usize) {
        while self.slots.len() > capacity {
            let (&oldest, &victim) = self.lru.iter().next().expect("lru tracks every slot");
            self.lru.remove(&oldest);
            let slot = self.slots.remove(&victim).expect("slot tracked in lru");
            self.bytes -= slot.bytes;
            seldel_telemetry::count!("fstore.cache.evict");
        }
    }
}

/// The hot-block LRU cache of a rooted store.
#[derive(Debug)]
struct HotCache {
    inner: RefCell<HotCacheInner>,
    capacity: usize,
}

impl HotCache {
    fn new(capacity: usize) -> HotCache {
        HotCache {
            inner: RefCell::default(),
            capacity,
        }
    }

    /// Changes the capacity in place, evicting the coldest slots down to
    /// it. The hit/miss counters carry over.
    fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        self.inner.get_mut().evict_down_to(capacity);
    }

    /// A hit bumps recency; a miss is counted.
    fn get(&self, seq: u64) -> Option<Arc<SealedBlock>> {
        let mut inner = self.inner.borrow_mut();
        let stamp = inner.next_stamp;
        inner.next_stamp += 1;
        match inner.slots.get_mut(&seq) {
            Some(slot) => {
                let old = slot.stamp;
                slot.stamp = stamp;
                let block = Arc::clone(&slot.block);
                inner.lru.remove(&old);
                inner.lru.insert(stamp, seq);
                inner.hits += 1;
                seldel_telemetry::count!("fstore.cache.hit");
                Some(block)
            }
            None => {
                inner.misses += 1;
                seldel_telemetry::count!("fstore.cache.miss");
                None
            }
        }
    }

    /// A plain lookup: no recency bump, no hit/miss accounting (the drain
    /// path peeks so pruning does not distort the counters).
    fn peek(&self, seq: u64) -> Option<Arc<SealedBlock>> {
        self.inner
            .borrow()
            .slots
            .get(&seq)
            .map(|s| Arc::clone(&s.block))
    }

    fn insert(&self, seq: u64, block: Arc<SealedBlock>) {
        if self.capacity == 0 {
            return;
        }
        let bytes = block.byte_size() as u64;
        let mut inner = self.inner.borrow_mut();
        let stamp = inner.next_stamp;
        inner.next_stamp += 1;
        if let Some(old) = inner.slots.insert(
            seq,
            CacheSlot {
                block,
                stamp,
                bytes,
            },
        ) {
            inner.lru.remove(&old.stamp);
            inner.bytes -= old.bytes;
        }
        inner.lru.insert(stamp, seq);
        inner.bytes += bytes;
        inner.evict_down_to(self.capacity);
    }

    fn remove(&self, seq: u64) {
        let mut inner = self.inner.borrow_mut();
        if let Some(slot) = inner.slots.remove(&seq) {
            inner.lru.remove(&slot.stamp);
            inner.bytes -= slot.bytes;
        }
    }

    fn clear(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.slots.clear();
        inner.lru.clear();
        inner.bytes = 0;
    }

    fn len(&self) -> usize {
        self.inner.borrow().slots.len()
    }

    fn bytes(&self) -> u64 {
        self.inner.borrow().bytes
    }

    fn hits(&self) -> u64 {
        self.inner.borrow().hits
    }

    fn misses(&self) -> u64 {
        self.inner.borrow().misses
    }
}

/// A durable, file-backed, paged segment store.
///
/// See the [module docs](self) for the on-disk format, the offset table /
/// hot-cache read path, fsync points and recovery behaviour.
///
/// `Default` yields an **unrooted** store (in-memory only, no directory);
/// [`Clone`] likewise produces an unrooted, fully **resident** in-memory
/// snapshot, detached from any directory — two handles appending to the
/// same files would corrupt the log, so clones deliberately do not share
/// the root (and a clone of a paged store must materialise the blocks it
/// can no longer page in).
#[derive(Debug)]
pub struct FileStore {
    root: Option<PathBuf>,
    segment_capacity: usize,
    segments: VecDeque<Segment>,
    len: usize,
    /// Id the next created segment file will get.
    next_segment_id: u64,
    /// Hot-cache key the next pushed/replayed frame will get.
    next_seq: u64,
    /// Number of the first live block (mirrors the manifest when rooted).
    first_block_number: u64,
    /// Cached append handle for the tail segment file, so the seal hot
    /// path does not reopen the file per block. Invalidated whenever the
    /// file may be renamed away (prune, reset) and never cloned.
    tail_file: Option<(u64, fs::File)>,
    /// Append-path fsync behaviour (see [`FsyncPolicy`]).
    fsync_policy: FsyncPolicy,
    /// Frames appended since the last tail fsync (drives `EveryN`).
    unsynced_appends: u32,
    /// Tail-segment fsyncs the store issued itself (fills, policy syncs,
    /// barriers) — a diagnostics counter the group-commit tests read.
    tail_fsyncs: u64,
    /// Highest durable block number + 1, advanced by every booked tail
    /// fsync and set by replay (0 = nothing durable yet).
    durable_frontier: u64,
    /// Hot-block cache (rooted stores only; unrooted frames are resident).
    cache: HotCache,
}

impl Default for FileStore {
    fn default() -> FileStore {
        FileStore {
            root: None,
            segment_capacity: SEGMENT_CAPACITY,
            segments: VecDeque::new(),
            len: 0,
            next_segment_id: 0,
            next_seq: 0,
            first_block_number: 0,
            tail_file: None,
            fsync_policy: FsyncPolicy::default(),
            unsynced_appends: 0,
            tail_fsyncs: 0,
            durable_frontier: 0,
            cache: HotCache::new(DEFAULT_HOT_CACHE_BLOCKS),
        }
    }
}

impl Clone for FileStore {
    fn clone(&self) -> FileStore {
        // A detached in-memory snapshot: two stores appending to the same
        // directory would corrupt the log, so the clone drops the root —
        // which also means every block must be materialised (there is no
        // file left to page from). One sequential pass per segment.
        let mut snapshot = FileStore {
            segment_capacity: self.segment_capacity,
            fsync_policy: self.fsync_policy,
            ..FileStore::default()
        };
        for sealed in self.iter() {
            snapshot.push(sealed.into_sealed());
        }
        if snapshot.len == 0 {
            snapshot.first_block_number = self.first_block_number;
        }
        snapshot
    }
}

impl PartialEq for FileStore {
    fn eq(&self, other: &Self) -> bool {
        // Logical equality: same blocks in the same order, regardless of
        // segment layout, root, cache state or pruning history.
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for FileStore {}

// ---------------------------------------------------------------------------
// Filesystem helpers
// ---------------------------------------------------------------------------

fn segment_file_name(id: u64) -> String {
    format!("seg-{id:010}.seg")
}

fn parse_segment_id(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("seg-")?.strip_suffix(".seg")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

fn fsync_file(path: &Path) -> Result<(), StoreError> {
    let file = fs::File::open(path).map_err(|e| StoreError::io("open for fsync", path, &e))?;
    let _span = seldel_telemetry::span!("fstore.fsync");
    file.sync_all()
        .map_err(|e| StoreError::io("fsync", path, &e))
}

fn fsync_dir(path: &Path) -> Result<(), StoreError> {
    // Directory fsync is a no-op on platforms that do not support opening
    // directories; ignore failures to open, but not failures to sync.
    if let Ok(dir) = fs::File::open(path) {
        dir.sync_all()
            .map_err(|e| StoreError::io("fsync dir", path, &e))?;
    }
    Ok(())
}

/// Writes `bytes` to `path` atomically: temp file, fsync, rename.
fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let tmp = path.with_extension("tmp");
    {
        let mut file =
            fs::File::create(&tmp).map_err(|e| StoreError::io("create temp", &tmp, &e))?;
        file.write_all(bytes)
            .map_err(|e| StoreError::io("write temp", &tmp, &e))?;
        file.sync_all()
            .map_err(|e| StoreError::io("fsync temp", &tmp, &e))?;
    }
    fs::rename(&tmp, path).map_err(|e| StoreError::io("rename temp", path, &e))
}

/// The checksum sealing a frame's content against bit rot.
fn frame_checksum(flags: u8, hash: &Digest32, root: &Digest32, block_bytes: &[u8]) -> Digest32 {
    let mut h = Sha256::new();
    h.update(FRAME_CHECKSUM_TAG);
    h.update([flags]);
    h.update(hash.as_bytes());
    h.update(root.as_bytes());
    h.update(block_bytes);
    h.finalize()
}

/// Encodes one on-disk v3 frame for a sealed block.
fn frame_bytes(sealed: &SealedBlock) -> Vec<u8> {
    let block_bytes = sealed.block().to_canonical_bytes();
    let (flags, root) = match sealed.payload_root() {
        Some(root) => (FRAME_FLAG_PAYLOAD_ROOT, root),
        None => (0, Digest32::ZERO),
    };
    let hash = sealed.hash();
    let checksum = frame_checksum(flags, &hash, &root, &block_bytes);
    let mut enc = Encoder::with_capacity(4 + FRAME_HEADER_LEN + block_bytes.len());
    enc.put_u32((FRAME_HEADER_LEN + block_bytes.len()) as u32);
    enc.put_u8(flags);
    enc.put_raw(hash.as_bytes());
    enc.put_raw(root.as_bytes());
    enc.put_raw(checksum.as_bytes());
    enc.put_raw(&block_bytes);
    enc.into_bytes()
}

/// How the parse of a segment file ended early, if it did.
enum FrameDamage {
    /// The file ends inside a frame (length field or body cut short) —
    /// the shape an interrupted `write_all` leaves, recoverable by
    /// truncation when it is the newest segment's tail.
    Truncated {
        /// Byte offset where the incomplete frame starts.
        at: u64,
    },
    /// A frame's bytes are fully present but fail their checksum or do
    /// not decode. An interrupted append can never leave this shape (the
    /// whole frame lands in one `write_all`), so it is bit corruption —
    /// never silently repaired, even at the tail.
    Undecodable {
        /// Byte offset of the offending frame.
        at: u64,
        /// What was wrong.
        detail: &'static str,
    },
}

/// One frame as streaming replay sees it: the meta-to-be (sans cache
/// seq), no block.
struct ReplayFrame {
    offset: u64,
    len: u32,
    number: u64,
    block_bytes: u32,
    hash: Digest32,
    payload_root: Option<Digest32>,
}

/// Outcome of parsing a segment file.
struct ParsedSegment {
    frames: Vec<ReplayFrame>,
    damage: Option<FrameDamage>,
}

/// Parses the frames of one segment file without materialising blocks:
/// per frame, one checksum verification and one block-header-prefix
/// decode. Any early stop is classified as truncation (crash shape) or
/// corruption; the caller decides what each means for the segment's
/// position in the store.
fn parse_segment(bytes: &[u8]) -> ParsedSegment {
    let mut frames = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        if bytes.len() - pos < 4 {
            return ParsedSegment {
                frames,
                damage: Some(FrameDamage::Truncated { at: pos as u64 }),
            };
        }
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
            as usize;
        if len < FRAME_HEADER_LEN || bytes.len() - pos - 4 < len {
            return ParsedSegment {
                frames,
                damage: Some(FrameDamage::Truncated { at: pos as u64 }),
            };
        }
        let frame = &bytes[pos + 4..pos + 4 + len];
        let flags = frame[0];
        let hash = Digest32::from_bytes(frame[1..33].try_into().expect("32 bytes"));
        let root = Digest32::from_bytes(frame[33..65].try_into().expect("32 bytes"));
        let checksum = Digest32::from_bytes(frame[65..97].try_into().expect("32 bytes"));
        let block_bytes = &frame[FRAME_HEADER_LEN..];
        if flags & !FRAME_FLAG_PAYLOAD_ROOT != 0 {
            return ParsedSegment {
                frames,
                damage: Some(FrameDamage::Undecodable {
                    at: pos as u64,
                    detail: "unknown frame flags",
                }),
            };
        }
        if frame_checksum(flags, &hash, &root, block_bytes) != checksum {
            return ParsedSegment {
                frames,
                damage: Some(FrameDamage::Undecodable {
                    at: pos as u64,
                    detail: "frame checksum mismatch",
                }),
            };
        }
        // Only the header prefix is decoded — the body stays bytes.
        let Ok(header) = BlockHeader::decode(&mut Decoder::new(block_bytes)) else {
            return ParsedSegment {
                frames,
                damage: Some(FrameDamage::Undecodable {
                    at: pos as u64,
                    detail: "block header does not decode",
                }),
            };
        };
        frames.push(ReplayFrame {
            offset: pos as u64,
            len: (4 + len) as u32,
            number: header.number.value(),
            block_bytes: (len - FRAME_HEADER_LEN) as u32,
            hash,
            payload_root: (flags & FRAME_FLAG_PAYLOAD_ROOT != 0).then_some(root),
        });
        pos += 4 + len;
    }
    ParsedSegment {
        frames,
        damage: None,
    }
}

/// Sim/test support: the `(byte offset, block number)` of every complete
/// frame in a segment file's raw bytes, in file order. The crash sim uses
/// this to fabricate power-cut states cut at an exact block boundary —
/// truncating or removing every frame past a durability watermark.
pub fn segment_frame_numbers(bytes: &[u8]) -> Vec<(u64, u64)> {
    parse_segment(bytes)
        .frames
        .iter()
        .map(|f| (f.offset, f.number))
        .collect()
}

/// Decodes the block bytes of one raw frame into a sealed block, reusing
/// the table's digests — a cold read costs a decode, never a hash.
fn decode_frame_block(meta: &FrameMeta, frame: &[u8]) -> Result<SealedBlock, String> {
    if frame.len() != meta.len as usize {
        return Err(format!(
            "frame read returned {} bytes, expected {}",
            frame.len(),
            meta.len
        ));
    }
    let block_bytes = &frame[4 + FRAME_HEADER_LEN..];
    let block = Block::from_canonical_bytes(block_bytes)
        .map_err(|e| format!("block bytes do not decode: {e}"))?;
    Ok(SealedBlock::from_parts(block, meta.hash, meta.payload_root))
}

// ---------------------------------------------------------------------------
// FileStore
// ---------------------------------------------------------------------------

impl FileStore {
    /// Opens (or creates) a durable store rooted at `path` with the
    /// default capacity of 64 frames per segment.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures and unrecoverable corruption; see
    /// [`StoreError`].
    pub fn open(path: impl AsRef<Path>) -> Result<FileStore, StoreError> {
        FileStore::open_with_capacity(path, SEGMENT_CAPACITY)
    }

    /// Opens (or creates) a durable store rooted at `path`.
    ///
    /// `segment_capacity` applies only when the store is created; an
    /// existing store keeps the capacity recorded in its manifest. The
    /// hot-block cache opens at [`DEFAULT_HOT_CACHE_BLOCKS`] unless the
    /// `SELDEL_HOT_CACHE_BLOCKS` environment variable overrides it.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures and unrecoverable corruption; see
    /// [`StoreError`].
    pub fn open_with_capacity(
        path: impl AsRef<Path>,
        segment_capacity: usize,
    ) -> Result<FileStore, StoreError> {
        assert!(segment_capacity > 0, "segment capacity must be positive");
        let root = path.as_ref().to_path_buf();
        fs::create_dir_all(&root).map_err(|e| StoreError::io("create dir", &root, &e))?;
        let manifest_path = root.join(MANIFEST_NAME);

        let manifest = if manifest_path.exists() {
            let bytes = fs::read(&manifest_path)
                .map_err(|e| StoreError::io("read manifest", &manifest_path, &e))?;
            Manifest::decode_bytes(&manifest_path, &bytes)?
        } else {
            let manifest = Manifest {
                segment_capacity: segment_capacity as u32,
                first_segment_id: 0,
                first_block_number: 0,
            };
            atomic_write(&manifest_path, &manifest.encode_bytes())?;
            fsync_dir(&root)?;
            manifest
        };

        let cache_capacity = std::env::var(HOT_CACHE_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(DEFAULT_HOT_CACHE_BLOCKS);
        let fsync_policy = std::env::var(FSYNC_POLICY_ENV)
            .ok()
            .and_then(|v| parse_fsync_policy(&v))
            .unwrap_or_default();

        let mut store = FileStore {
            root: Some(root.clone()),
            segment_capacity: manifest.segment_capacity as usize,
            segments: VecDeque::new(),
            len: 0,
            tail_file: None,
            next_segment_id: manifest.first_segment_id,
            next_seq: 0,
            first_block_number: manifest.first_block_number,
            fsync_policy,
            unsynced_appends: 0,
            tail_fsyncs: 0,
            durable_frontier: 0,
            cache: HotCache::new(cache_capacity),
        };
        {
            let _span = seldel_telemetry::span!("fstore.replay");
            store.replay(&root, manifest)?;
        }
        seldel_telemetry::count!("fstore.replay.frames", store.len as u64);
        // Everything replay accepted is on disk already and survived at
        // least one close or crash: the durable frontier opens at the tip.
        store.durable_frontier = store
            .segments
            .back()
            .and_then(|s| s.frames.last())
            .map_or(0, |f| f.meta.number + 1);
        Ok(store)
    }

    /// Replays the directory contents into the offset table, finishing
    /// any prune a crash interrupted (see the module docs' recovery
    /// steps). Streaming: each segment file is read once, transiently —
    /// no block is materialised, nothing is re-sealed.
    fn replay(&mut self, root: &Path, manifest: Manifest) -> Result<(), StoreError> {
        // Step 1+2: collect segment files, removing temp leftovers and
        // segments already retired by the manifest.
        let mut ids: Vec<u64> = Vec::new();
        let entries = fs::read_dir(root).map_err(|e| StoreError::io("read dir", root, &e))?;
        for entry in entries {
            let entry = entry.map_err(|e| StoreError::io("read dir entry", root, &e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.ends_with(".tmp") {
                let p = entry.path();
                fs::remove_file(&p).map_err(|e| StoreError::io("remove temp", &p, &e))?;
                continue;
            }
            let Some(id) = parse_segment_id(name) else {
                continue;
            };
            if id < manifest.first_segment_id {
                // Crash between manifest update and unlink: finish the job.
                let p = entry.path();
                fs::remove_file(&p).map_err(|e| StoreError::io("remove retired", &p, &e))?;
                continue;
            }
            ids.push(id);
        }
        ids.sort_unstable();
        if let Some(window) = ids.windows(2).find(|w| w[1] != w[0] + 1) {
            return Err(StoreError::corrupt(
                root,
                format!("segment id gap between {} and {}", window[0], window[1]),
            ));
        }

        // Steps 3–5: parse each file; drop pruned front frames; truncate a
        // torn tail; reject everything else.
        let last_id = ids.last().copied();
        for id in ids {
            let file_path = root.join(segment_file_name(id));
            let bytes =
                fs::read(&file_path).map_err(|e| StoreError::io("read segment", &file_path, &e))?;
            let parsed = parse_segment(&bytes);
            let mut replay_frames = parsed.frames;
            match parsed.damage {
                None => {}
                Some(FrameDamage::Undecodable { at, detail }) => {
                    // Fully present but checksum-failing/undecodable frame:
                    // bit corruption, not a crash artifact — refuse,
                    // wherever it sits.
                    return Err(StoreError::corrupt(
                        &file_path,
                        format!("bad frame at offset {at}: {detail}"),
                    ));
                }
                Some(FrameDamage::Truncated { at }) => {
                    if Some(id) != last_id {
                        return Err(StoreError::corrupt(
                            &file_path,
                            format!("truncated frame at offset {at} in a non-tail segment"),
                        ));
                    }
                    // Crash mid-append: drop the torn suffix.
                    let file = fs::OpenOptions::new()
                        .write(true)
                        .open(&file_path)
                        .map_err(|e| StoreError::io("open for truncate", &file_path, &e))?;
                    file.set_len(at)
                        .map_err(|e| StoreError::io("truncate torn tail", &file_path, &e))?;
                    file.sync_all()
                        .map_err(|e| StoreError::io("fsync truncated", &file_path, &e))?;
                }
            }
            // Crash between manifest update and front rewrite: the first
            // segment may still hold already-pruned frames. The rewrite is
            // a raw byte-range copy — the survivors' bytes as they are.
            if self.segments.is_empty() {
                let keep_from = replay_frames
                    .iter()
                    .position(|f| f.number >= manifest.first_block_number)
                    .unwrap_or(replay_frames.len());
                if keep_from > 0 {
                    let cut = replay_frames
                        .get(keep_from)
                        .map_or(bytes.len() as u64, |f| f.offset);
                    replay_frames.drain(..keep_from);
                    for frame in &mut replay_frames {
                        frame.offset -= cut;
                    }
                    atomic_write(&file_path, &bytes[cut as usize..])?;
                }
            }
            if replay_frames.is_empty() {
                // Nothing live in this file (fully pruned front, or a tail
                // whose only frame was torn): drop it.
                fs::remove_file(&file_path)
                    .map_err(|e| StoreError::io("remove empty segment", &file_path, &e))?;
                continue;
            }
            let sealed = replay_frames.len() >= self.segment_capacity || Some(id) != last_id;
            self.len += replay_frames.len();
            let frames = replay_frames
                .into_iter()
                .map(|f| {
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    Frame {
                        meta: FrameMeta {
                            offset: f.offset,
                            len: f.len,
                            seq,
                            number: f.number,
                            block_bytes: f.block_bytes,
                            hash: f.hash,
                            payload_root: f.payload_root,
                        },
                        resident: None,
                    }
                })
                .collect();
            self.segments.push_back(Segment { id, frames, sealed });
        }
        self.next_segment_id = self
            .segments
            .back()
            .map_or(manifest.first_segment_id, |s| s.id + 1);

        // Layout check: O(1) indexing relies on every segment except the
        // (front-pruned) first and the (still filling) last holding exactly
        // `segment_capacity` blocks.
        let count = self.segments.len();
        for (i, segment) in self.segments.iter().enumerate() {
            let file = root.join(segment_file_name(segment.id));
            if segment.frames.len() > self.segment_capacity {
                return Err(StoreError::corrupt(
                    &file,
                    format!(
                        "{} frames exceed the segment capacity {}",
                        segment.frames.len(),
                        self.segment_capacity
                    ),
                ));
            }
            if i > 0 && i + 1 < count && segment.frames.len() != self.segment_capacity {
                return Err(StoreError::corrupt(
                    &file,
                    format!(
                        "interior segment holds {} frames, expected {}",
                        segment.frames.len(),
                        self.segment_capacity
                    ),
                ));
            }
        }

        // Contiguity check across all replayed frame metas — no disk I/O.
        let mut expected: Option<u64> = None;
        for segment in &self.segments {
            for frame in &segment.frames {
                let n = frame.meta.number;
                if let Some(e) = expected {
                    if n != e {
                        return Err(StoreError::corrupt(
                            root,
                            format!("non-contiguous block numbers: expected {e}, found {n}"),
                        ));
                    }
                }
                expected = Some(n + 1);
            }
        }
        if let Some(first) = self.segments.front().and_then(|s| s.frames.first()) {
            self.first_block_number = first.meta.number;
        }
        Ok(())
    }

    /// The directory this store persists to, when rooted.
    pub fn root(&self) -> Option<&Path> {
        self.root.as_deref()
    }

    /// Whether this store writes through to disk.
    pub fn is_durable(&self) -> bool {
        self.root.is_some()
    }

    /// Blocks per segment file.
    pub fn segment_capacity(&self) -> usize {
        self.segment_capacity
    }

    /// Number of retained segments (diagnostics / tests).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Hot-block cache capacity, in blocks.
    pub fn hot_cache_capacity(&self) -> usize {
        self.cache.capacity
    }

    /// Blocks currently held by the hot cache.
    pub fn hot_cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Cache hits served since open (diagnostics).
    pub fn hot_cache_hits(&self) -> u64 {
        self.cache.hits()
    }

    /// Cache misses taken since open (diagnostics).
    pub fn hot_cache_misses(&self) -> u64 {
        self.cache.misses()
    }

    /// Sets the hot-block cache capacity, evicting down if needed.
    /// The hottest blocks survive the resize, and the hit/miss counters
    /// keep counting since open.
    pub fn set_hot_cache_capacity(&mut self, blocks: usize) {
        self.cache.set_capacity(blocks);
    }

    /// Builder-style [`FileStore::set_hot_cache_capacity`].
    #[must_use]
    pub fn with_hot_cache_capacity(mut self, blocks: usize) -> FileStore {
        self.set_hot_cache_capacity(blocks);
        self
    }

    /// Fsyncs the tail segment file, making every appended frame durable —
    /// the same booked barrier as [`FileStore::commit_durable`], exposed
    /// so drivers can force durability (e.g. before a planned shutdown).
    ///
    /// # Errors
    ///
    /// Propagates the fsync failure.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.commit_durable()
    }

    /// Append-path fsync behaviour.
    pub fn fsync_policy(&self) -> FsyncPolicy {
        self.fsync_policy
    }

    /// Sets the append-path fsync behaviour (takes effect on the next
    /// append; the structural barriers are unaffected).
    pub fn set_fsync_policy(&mut self, policy: FsyncPolicy) {
        self.fsync_policy = policy;
    }

    /// Builder-style [`FileStore::set_fsync_policy`].
    #[must_use]
    pub fn with_fsync_policy(mut self, policy: FsyncPolicy) -> FileStore {
        self.fsync_policy = policy;
        self
    }

    /// Segment fsyncs this store issued itself (segment fills,
    /// policy-driven group commits, prune barriers, manual barriers).
    /// Diagnostics only.
    pub fn tail_fsyncs(&self) -> u64 {
        self.tail_fsyncs
    }

    /// The highest block number guaranteed to survive a crash (power cut
    /// included), or `None` when nothing is durable yet.
    ///
    /// On an unrooted store every block is as safe as it gets (there is
    /// no disk to lag behind), so the watermark is simply the tip. On a
    /// rooted store it advances at every tail fsync: segment fills,
    /// policy syncs and barriers. After a prune empties the store the
    /// number may exceed the tip — "everything still stored is durable"
    /// stays true either way.
    pub fn durable_up_to(&self) -> Option<crate::types::BlockNumber> {
        if self.root.is_none() {
            let last = self.segments.back().and_then(|s| s.frames.last())?;
            return Some(crate::types::BlockNumber(last.meta.number));
        }
        self.durable_frontier
            .checked_sub(1)
            .map(crate::types::BlockNumber)
    }

    /// Durability barrier: fsyncs the tail and books it, after which
    /// [`FileStore::durable_up_to`] equals the tip. Every tail fsync goes
    /// through here so the counter, the `EveryN` window and the durable
    /// frontier stay honest; every earlier segment was fsynced when it
    /// filled.
    ///
    /// # Errors
    ///
    /// Propagates the fsync failure.
    pub fn commit_durable(&mut self) -> Result<(), StoreError> {
        let Some(root) = &self.root else {
            return Ok(());
        };
        if let Some(tail) = self.segments.back() {
            fsync_file(&root.join(segment_file_name(tail.id)))?;
            self.tail_fsyncs += 1;
            if let Some(last) = tail.frames.last() {
                self.durable_frontier = self.durable_frontier.max(last.meta.number + 1);
            }
        }
        self.unsynced_appends = 0;
        Ok(())
    }

    fn write_manifest(&self, root: &Path) -> Result<(), StoreError> {
        let manifest = Manifest {
            segment_capacity: self.segment_capacity as u32,
            first_segment_id: self.segments.front().map_or(self.next_segment_id, |s| s.id),
            first_block_number: self.first_block_number,
        };
        atomic_write(&root.join(MANIFEST_NAME), &manifest.encode_bytes())?;
        fsync_dir(root)
    }

    /// Appends one frame to the tail segment file, through the cached
    /// append handle (opened on first use per segment — the seal hot path
    /// must not pay an open/close per block).
    fn append_frame(&mut self, root: &Path, id: u64, bytes: &[u8]) -> Result<(), StoreError> {
        if self.tail_file.as_ref().map(|(tid, _)| *tid) != Some(id) {
            let path = root.join(segment_file_name(id));
            let file = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .map_err(|e| StoreError::io("open segment", &path, &e))?;
            self.tail_file = Some((id, file));
        }
        let (_, file) = self.tail_file.as_mut().expect("handle cached above");
        file.write_all(bytes)
            .map_err(|e| StoreError::io("append frame", &root.join(segment_file_name(id)), &e))
    }

    /// Opens `segment`'s file positioned at byte `offset`.
    fn open_frames(&self, segment: &Segment, offset: u64) -> Result<fs::File, StoreError> {
        let root = self.root.as_ref().expect("paged frames imply a root");
        let path = root.join(segment_file_name(segment.id));
        let mut file =
            fs::File::open(&path).map_err(|e| StoreError::io("open for read", &path, &e))?;
        file.seek(SeekFrom::Start(offset))
            .map_err(|e| StoreError::io("seek frame", &path, &e))?;
        Ok(file)
    }

    /// Reads one frame's bytes from its segment file and decodes the
    /// block — the cold half of the paged read path.
    fn read_frame(&self, segment: &Segment, meta: &FrameMeta) -> Result<SealedBlock, StoreError> {
        let root = self.root.as_ref().expect("paged frames imply a root");
        let path = root.join(segment_file_name(segment.id));
        let mut file = self.open_frames(segment, meta.offset)?;
        let mut frame = vec![0u8; meta.len as usize];
        file.read_exact(&mut frame)
            .map_err(|e| StoreError::io("read frame", &path, &e))?;
        decode_frame_block(meta, &frame).map_err(|detail| StoreError::corrupt(&path, detail))
    }

    /// The position of store index `index` as (segment position, frame
    /// position). O(1): every segment except the (front-pruned) first and
    /// the (still filling) last holds exactly `segment_capacity` frames.
    fn position(&self, index: usize) -> Option<(usize, usize)> {
        if index >= self.len {
            return None;
        }
        let first = self.segments.front()?;
        if index < first.frames.len() {
            return Some((0, index));
        }
        let rest = index - first.frames.len();
        Some((
            1 + rest / self.segment_capacity,
            rest % self.segment_capacity,
        ))
    }

    /// Materialises the block at `index` without touching the hot cache's
    /// LRU or counters (the drain path, which is about to evict the
    /// blocks anyway).
    fn materialize(&self, index: usize) -> Option<SealedBlock> {
        let (si, fi) = self.position(index)?;
        let segment = self.segments.get(si)?;
        let frame = segment.frames.get(fi)?;
        if let Some(block) = &frame.resident {
            return Some(block.clone());
        }
        if let Some(arc) = self.cache.peek(frame.meta.seq) {
            return Some((*arc).clone());
        }
        match self.read_frame(segment, &frame.meta) {
            Ok(block) => Some(block),
            Err(err) => panic!("file store page-in failed: {err}"),
        }
    }

    /// Panic adapter: the `BlockStore` trait is infallible, so persistence
    /// failures on a rooted store are unrecoverable here. Callers who need
    /// graceful handling should check disk health via [`FileStore::sync`].
    fn persist(result: Result<(), StoreError>) {
        if let Err(err) = result {
            panic!("file store persistence failed: {err}");
        }
    }
}

impl BlockStore for FileStore {
    type Iter<'a> = FileIter<'a>;

    fn push(&mut self, block: SealedBlock) {
        let needs_new = match self.segments.back() {
            Some(segment) => segment.sealed,
            None => true,
        };
        if needs_new {
            let id = self.next_segment_id;
            self.next_segment_id += 1;
            self.segments.push_back(Segment {
                id,
                frames: Vec::with_capacity(self.segment_capacity),
                sealed: false,
            });
        }
        let tail_id = self.segments.back().expect("tail exists").id;
        let offset = self.segments.back().expect("tail exists").file_len();
        let bytes = frame_bytes(&block);
        if let Some(root) = self.root.clone() {
            let write = self.append_frame(&root, tail_id, &bytes);
            Self::persist(write);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let block_number = block.number().value();
        let meta = FrameMeta {
            offset,
            len: bytes.len() as u32,
            seq,
            number: block_number,
            block_bytes: (bytes.len() - 4 - FRAME_HEADER_LEN) as u32,
            hash: block.hash(),
            payload_root: block.payload_root(),
        };
        // Rooted stores keep the table row and push the block through the
        // hot cache (the tip is the next linkage check's predecessor);
        // unrooted stores have no file to page from, so the block stays
        // resident in the table itself.
        let resident = if self.root.is_some() {
            self.cache.insert(seq, Arc::new(block));
            None
        } else {
            Some(block)
        };
        let capacity = self.segment_capacity;
        let tail = self.segments.back_mut().expect("tail exists");
        tail.frames.push(Frame { meta, resident });
        let filled = tail.frames.len() >= capacity;
        if filled {
            tail.sealed = true;
        }
        self.len += 1;
        if self.len == 1 && self.first_block_number != block_number {
            // First block into an emptied store, at a different number than
            // the manifest's `first_block_number` (e.g. a fresh chain
            // starting over at 0 after a drain left the watermark higher).
            // The manifest must follow, or replay would classify every
            // frame below the stale watermark as pruned and drop it.
            self.first_block_number = block_number;
            // Renumbering restarts the durable frontier: watermarks from
            // the previous numbering no longer name these blocks.
            self.durable_frontier = 0;
            if let Some(root) = self.root.clone() {
                Self::persist(self.write_manifest(&root));
            }
        }
        if self.root.is_some() {
            self.unsynced_appends = self.unsynced_appends.saturating_add(1);
            // A filled segment is the durability unit: fsync it. Between
            // fills the policy decides.
            let due = filled
                || match self.fsync_policy {
                    FsyncPolicy::OnFill => false,
                    FsyncPolicy::Always => true,
                    FsyncPolicy::EveryN(n) => n > 0 && self.unsynced_appends >= n,
                };
            if due {
                Self::persist(self.commit_durable());
            }
            if filled {
                // The next push starts a new file.
                self.tail_file = None;
            }
        }
    }

    fn get(&self, index: usize) -> Option<BlockRef<'_>> {
        let (si, fi) = self.position(index)?;
        let segment = self.segments.get(si)?;
        let frame = segment.frames.get(fi)?;
        if let Some(block) = &frame.resident {
            return Some(BlockRef::Borrowed(block));
        }
        if let Some(arc) = self.cache.get(frame.meta.seq) {
            return Some(BlockRef::Shared(arc));
        }
        let block = match self.read_frame(segment, &frame.meta) {
            Ok(block) => Arc::new(block),
            Err(err) => panic!("file store page-in failed: {err}"),
        };
        self.cache.insert(frame.meta.seq, Arc::clone(&block));
        Some(BlockRef::Shared(block))
    }

    fn len(&self) -> usize {
        self.len
    }

    fn drain_front(&mut self, count: usize) -> Vec<SealedBlock> {
        let count = count.min(self.len);
        if count == 0 {
            return Vec::new();
        }
        // Materialise the departing blocks before any file mutation — the
        // trait hands them to the caller (prune accounting, Σ archival).
        let mut removed: Vec<SealedBlock> = Vec::with_capacity(count);
        for index in 0..count {
            removed.push(self.materialize(index).expect("index below len"));
        }

        let mut retired_ids: Vec<u64> = Vec::new();
        let mut rewrite_front: Option<(u64, u64)> = None;
        let mut drained_seqs: Vec<u64> = Vec::with_capacity(count);
        let mut remaining = count;
        while remaining > 0 {
            let front_live = self.segments.front().expect("non-empty").frames.len();
            if remaining >= front_live {
                let segment = self.segments.pop_front().expect("non-empty");
                retired_ids.push(segment.id);
                drained_seqs.extend(segment.frames.iter().map(|f| f.meta.seq));
                remaining -= front_live;
            } else {
                let front = self.segments.front_mut().expect("non-empty");
                let cut = front.frames[remaining].meta.offset;
                drained_seqs.extend(front.frames.drain(..remaining).map(|f| f.meta.seq));
                for frame in &mut front.frames {
                    frame.meta.offset -= cut;
                }
                rewrite_front = Some((front.id, cut));
                remaining = 0;
            }
        }
        self.len -= count;
        self.first_block_number = match self.segments.front().and_then(|s| s.frames.first()) {
            Some(first) => first.meta.number,
            // Store emptied: the next live block is whatever follows the
            // last drained one.
            None => removed.last().expect("count > 0").number().value() + 1,
        };
        // Physical deletion reaches the cache too: a pruned payload must
        // not linger in memory after the files forget it.
        for seq in &drained_seqs {
            self.cache.remove(*seq);
        }

        if let Some(root) = self.root.clone() {
            // The front rewrite below may rename the very file the cached
            // append handle points at; drop it (fsync still reaches the
            // inode through a fresh descriptor).
            self.tail_file = None;
            // §IV-C ordering: the tail (holding the carried-forward Σ) must
            // be durable before the manifest makes the prune irreversible.
            // This barrier holds under every FsyncPolicy — group commit
            // may defer append fsyncs, never this one.
            Self::persist(self.commit_durable());
            Self::persist(self.write_manifest(&root));
            if let Some((id, cut)) = rewrite_front {
                // Raw byte-range rewrite through the offset table: the
                // surviving frames' bytes, shifted to offset zero.
                let path = root.join(segment_file_name(id));
                let result = fs::read(&path)
                    .map_err(|e| StoreError::io("read for rewrite", &path, &e))
                    .and_then(|bytes| atomic_write(&path, &bytes[cut as usize..]));
                Self::persist(result);
            }
            for id in retired_ids {
                let path = root.join(segment_file_name(id));
                Self::persist(
                    fs::remove_file(&path).map_err(|e| StoreError::io("unlink retired", &path, &e)),
                );
            }
            Self::persist(fsync_dir(&root));
        }
        removed
    }

    fn iter(&self) -> Self::Iter<'_> {
        FileIter {
            store: self,
            next: 0,
            reader: None,
        }
    }

    fn reset(&mut self) {
        self.segments.clear();
        self.len = 0;
        self.first_block_number = 0;
        self.tail_file = None;
        self.unsynced_appends = 0;
        // A wiped store has nothing durable.
        self.durable_frontier = 0;
        self.cache.clear();
        if let Some(root) = self.root.clone() {
            let result = (|| -> Result<(), StoreError> {
                // Manifest first: once `first_segment_id` points past every
                // existing file, a crash anywhere in the unlink loop leaves
                // only stale segments, which `open` removes — never an id
                // gap. (A crash *before* the manifest keeps the old chain
                // intact; a crash *after* leaves a valid empty store, the
                // same state the caller was creating anyway — callers of
                // reset, e.g. `adopt_chain`, re-sync content from peers.)
                self.write_manifest(&root)?;
                let entries =
                    fs::read_dir(&root).map_err(|e| StoreError::io("read dir", &root, &e))?;
                for entry in entries {
                    let entry = entry.map_err(|e| StoreError::io("read dir entry", &root, &e))?;
                    let name = entry.file_name();
                    let Some(name) = name.to_str() else { continue };
                    if parse_segment_id(name).is_some() || name.ends_with(".tmp") {
                        let p = entry.path();
                        fs::remove_file(&p)
                            .map_err(|e| StoreError::io("remove segment", &p, &e))?;
                    }
                }
                fsync_dir(&root)
            })();
            Self::persist(result);
        }
    }

    fn hash_at(&self, index: usize) -> Option<Digest32> {
        // Offset-table hit: no block bytes touched, no hash computed.
        let (si, fi) = self.position(index)?;
        Some(self.segments.get(si)?.frames.get(fi)?.meta.hash)
    }

    fn first_number(&self) -> Option<crate::types::BlockNumber> {
        // Served from the tracked watermark: the marker query must never
        // page the oldest block in (it would evict a hot block per call).
        (self.len > 0).then_some(crate::types::BlockNumber(self.first_block_number))
    }

    fn resident_bytes(&self) -> u64 {
        // Blocks actually held in memory: resident (unrooted) frames plus
        // the hot cache — NOT the on-disk chain size.
        let resident: u64 = self
            .segments
            .iter()
            .flat_map(|s| &s.frames)
            .filter_map(|f| f.resident.as_ref())
            .map(|b| b.byte_size() as u64)
            .sum();
        resident + self.cache.bytes()
    }

    fn durable_tip(&self) -> Option<crate::types::BlockNumber> {
        self.durable_up_to()
    }

    fn flush_durable(&mut self) {
        Self::persist(self.commit_durable());
    }
}

/// Oldest-first iterator over a [`FileStore`].
///
/// Streams each segment through its own buffered reader and **bypasses
/// the hot cache**: an O(n) scan must not evict the hot set, and
/// sequential frame reads are faster than per-block open/seek anyway.
/// Resident (unrooted) frames are lent as plain borrows.
#[derive(Debug)]
pub struct FileIter<'a> {
    store: &'a FileStore,
    next: usize,
    /// The open segment reader: (segment id, next byte offset, reader).
    reader: Option<(u64, u64, BufReader<fs::File>)>,
}

impl<'a> Iterator for FileIter<'a> {
    type Item = BlockRef<'a>;

    fn next(&mut self) -> Option<BlockRef<'a>> {
        let (si, fi) = self.store.position(self.next)?;
        let segment = self.store.segments.get(si)?;
        let frame = segment.frames.get(fi)?;
        self.next += 1;
        if let Some(block) = &frame.resident {
            return Some(BlockRef::Borrowed(block));
        }
        let root = self.store.root.as_ref().expect("paged frames imply a root");
        let needs_open = !matches!(
            &self.reader,
            Some((id, pos, _)) if *id == segment.id && *pos == frame.meta.offset
        );
        if needs_open {
            let file = match self.store.open_frames(segment, frame.meta.offset) {
                Ok(file) => file,
                Err(err) => panic!("file store page-in failed: {err}"),
            };
            self.reader = Some((segment.id, frame.meta.offset, BufReader::new(file)));
        }
        let (_, pos, reader) = self.reader.as_mut().expect("opened above");
        let mut bytes = vec![0u8; frame.meta.len as usize];
        if let Err(e) = reader.read_exact(&mut bytes) {
            let path = root.join(segment_file_name(segment.id));
            panic!(
                "file store page-in failed: {}",
                StoreError::io("read frame", &path, &e)
            );
        }
        *pos += frame.meta.len as u64;
        match decode_frame_block(&frame.meta, &bytes) {
            Ok(block) => Some(BlockRef::Shared(Arc::new(block))),
            Err(detail) => panic!(
                "file store page-in failed: {}",
                StoreError::corrupt(&root.join(segment_file_name(segment.id)), detail)
            ),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.store.len.saturating_sub(self.next);
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for FileIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockBody;
    use crate::store::MemStore;
    use crate::testutil::ScratchDir as Scratch;
    use crate::types::{BlockNumber, Timestamp};

    fn sealed(n: u64) -> SealedBlock {
        SealedBlock::seal(Block::new(
            BlockNumber(n),
            Timestamp(n * 10),
            seldel_crypto::sha256(n.to_le_bytes()),
            BlockBody::Empty,
        ))
    }

    fn store_with(dir: &Path, cap: usize, blocks: std::ops::Range<u64>) -> FileStore {
        let mut store = FileStore::open_with_capacity(dir, cap).unwrap();
        for n in blocks {
            store.push(sealed(n));
        }
        store
    }

    #[test]
    fn unrooted_default_matches_mem_store() {
        let mut file = FileStore::default();
        let mut mem = MemStore::default();
        for n in 0..150 {
            file.push(sealed(n));
            mem.push(sealed(n));
        }
        file.drain_front(70);
        mem.drain_front(70);
        assert_eq!(file.len(), mem.len());
        assert!(file.iter().eq(mem.iter()));
        for i in 0..mem.len() {
            assert_eq!(file.get(i), mem.get(i));
        }
        assert!(!file.is_durable());
    }

    #[test]
    fn close_and_reopen_round_trips() {
        let scratch = Scratch::new("reopen");
        {
            let _store = store_with(scratch.path(), 8, 0..30);
        }
        let reopened = FileStore::open(scratch.path()).unwrap();
        assert_eq!(reopened.segment_capacity(), 8);
        assert_eq!(reopened.len(), 30);
        let fresh: Vec<u64> = reopened
            .iter()
            .map(|s| s.block().number().value())
            .collect();
        assert_eq!(fresh, (0..30).collect::<Vec<_>>());
        // The table's digests match a from-scratch recomputation.
        assert!(reopened.iter().all(|s| s.hash() == s.block().hash()));
    }

    #[test]
    fn open_replays_streaming_with_one_hash_per_block() {
        // The replay-cost pin (the "small fix" satellite): open() used to
        // re-seal every block — one header hash plus a payload tree per
        // block. Streaming replay verifies one frame checksum per block
        // and hashes nothing else.
        let scratch = Scratch::new("replay-hashes");
        let blocks = 40u64;
        drop(store_with(scratch.path(), 8, 0..blocks));
        let before = seldel_crypto::digests_finalized();
        let reopened = FileStore::open(scratch.path()).unwrap();
        let spent = seldel_crypto::digests_finalized() - before;
        assert_eq!(reopened.len(), blocks as usize);
        assert!(
            spent <= blocks + 2,
            "streaming replay must cost ≤ one hash per block (+slack), spent {spent} for {blocks}"
        );
    }

    #[test]
    fn open_materializes_no_blocks_and_reads_page_in() {
        let scratch = Scratch::new("paged-open");
        drop(store_with(scratch.path(), 8, 0..30));
        let store = FileStore::open(scratch.path()).unwrap();
        assert_eq!(
            store.resident_bytes(),
            0,
            "open must build the offset table only"
        );
        // A cold read pages exactly that block in through the cache.
        let block = store.get(13).expect("live index");
        assert_eq!(block.number(), BlockNumber(13));
        assert_eq!(block.hash(), sealed(13).hash());
        drop(block);
        assert_eq!(store.hot_cache_len(), 1);
        assert!(store.resident_bytes() > 0);
        // A warm re-read is a cache hit.
        let misses = store.hot_cache_misses();
        let again = store.get(13).expect("live index");
        assert_eq!(again.number(), BlockNumber(13));
        assert_eq!(store.hot_cache_misses(), misses);
        assert!(store.hot_cache_hits() > 0);
    }

    #[test]
    fn hot_cache_is_bounded_and_evicts_lru() {
        let scratch = Scratch::new("cache-bound");
        let mut store = FileStore::open_with_capacity(scratch.path(), 4)
            .unwrap()
            .with_hot_cache_capacity(3);
        for n in 0..20 {
            store.push(sealed(n));
        }
        assert!(store.hot_cache_len() <= 3, "push path respects the bound");
        for i in 0..20 {
            assert_eq!(
                store.get(i).unwrap().number(),
                BlockNumber(i as u64),
                "index {i}"
            );
            assert!(store.hot_cache_len() <= 3, "read path respects the bound");
        }
        // Resident bytes stay bounded by the cached blocks, not the chain.
        let one = sealed(0).byte_size() as u64;
        assert!(store.resident_bytes() <= 3 * (one + 16));
    }

    #[test]
    fn cache_capacity_zero_still_serves_reads() {
        let scratch = Scratch::new("cache-zero");
        let mut store = FileStore::open_with_capacity(scratch.path(), 4)
            .unwrap()
            .with_hot_cache_capacity(0);
        for n in 0..9 {
            store.push(sealed(n));
        }
        assert_eq!(store.hot_cache_len(), 0);
        assert_eq!(store.resident_bytes(), 0);
        for i in 0..9 {
            assert_eq!(store.get(i).unwrap().number(), BlockNumber(i as u64));
        }
        assert_eq!(store.hot_cache_len(), 0);
    }

    #[test]
    fn cache_resize_keeps_the_hit_and_miss_counters() {
        let scratch = Scratch::new("cache-resize");
        drop(store_with(scratch.path(), 4, 0..10));
        let mut store = FileStore::open(scratch.path()).unwrap();
        assert_eq!(store.get(3).unwrap().number(), BlockNumber(3)); // cold
        assert_eq!(store.get(3).unwrap().number(), BlockNumber(3)); // warm
        assert_eq!((store.hot_cache_misses(), store.hot_cache_hits()), (1, 1));
        store.set_hot_cache_capacity(2);
        assert_eq!(store.hot_cache_capacity(), 2);
        assert_eq!(store.hot_cache_len(), 1, "the cached block survives");
        assert_eq!(
            (store.hot_cache_misses(), store.hot_cache_hits()),
            (1, 1),
            "counters count since open, across a resize"
        );
    }

    #[test]
    fn hash_at_serves_from_the_table() {
        let scratch = Scratch::new("hash-at");
        drop(store_with(scratch.path(), 4, 0..10));
        let store = FileStore::open(scratch.path()).unwrap();
        for i in 0..10u64 {
            assert_eq!(store.hash_at(i as usize), Some(sealed(i).hash()));
        }
        assert!(store.hash_at(10).is_none());
        // hash_at is metadata-only: nothing was paged in.
        assert_eq!(store.resident_bytes(), 0);
        assert_eq!(store.hot_cache_len(), 0);
    }

    #[test]
    fn prune_unlinks_whole_segments_and_rewrites_partial_front() {
        let scratch = Scratch::new("prune");
        let mut store = store_with(scratch.path(), 4, 0..12); // 3 files
        assert_eq!(store.segment_count(), 3);
        let removed = store.drain_front(6); // 1.5 files
        assert_eq!(removed.len(), 6);
        assert!(!scratch.path().join(segment_file_name(0)).exists());
        // The partial front file only holds the live frames.
        let bytes = fs::read(scratch.path().join(segment_file_name(1))).unwrap();
        let parsed = parse_segment(&bytes);
        assert!(parsed.damage.is_none());
        assert_eq!(parsed.frames.len(), 2);
        assert_eq!(parsed.frames[0].number, 6);
        // The drained blocks were evicted from the cache too.
        assert!(store.iter().all(|s| s.block().number() >= BlockNumber(6)));
        // Reopen agrees.
        drop(store);
        let reopened = FileStore::open(scratch.path()).unwrap();
        assert_eq!(reopened.len(), 6);
        assert_eq!(reopened.first().unwrap().block().number(), BlockNumber(6));
    }

    #[test]
    fn drain_front_clamps_beyond_len() {
        // The trait contract: count > len() empties the store, no panic.
        let scratch = Scratch::new("clamp");
        let mut store = store_with(scratch.path(), 4, 0..5);
        let removed = store.drain_front(99);
        assert_eq!(removed.len(), 5);
        assert!(store.is_empty());
        // The directory holds no segment files anymore.
        let leftover: Vec<_> = fs::read_dir(scratch.path())
            .unwrap()
            .filter_map(|e| parse_segment_id(e.unwrap().file_name().to_str().unwrap()))
            .collect();
        assert!(leftover.is_empty(), "segments left: {leftover:?}");
        // And pushes keep working after emptying.
        store.push(sealed(5));
        assert_eq!(store.get(0).unwrap().block().number(), BlockNumber(5));
        drop(store);
        let reopened = FileStore::open(scratch.path()).unwrap();
        assert_eq!(reopened.len(), 1);
    }

    #[test]
    fn emptied_store_refilled_with_lower_numbers_survives_reopen() {
        // Draining to empty leaves the manifest watermark at last+1; a new
        // chain started in the same store from block 0 must move the
        // watermark back down, or replay would classify every frame below
        // it as pruned-front garbage and silently drop the whole chain.
        let scratch = Scratch::new("refill-low");
        let mut store = store_with(scratch.path(), 4, 10..15);
        store.drain_front(99);
        assert!(store.is_empty());
        for n in 0..3 {
            store.push(sealed(n));
        }
        drop(store);
        let reopened = FileStore::open(scratch.path()).unwrap();
        assert_eq!(reopened.len(), 3);
        assert_eq!(reopened.first().unwrap().block().number(), BlockNumber(0));
    }

    #[test]
    fn torn_tail_frame_is_truncated_on_open() {
        let scratch = Scratch::new("torn");
        let store = store_with(scratch.path(), 8, 0..10);
        let tail = scratch.path().join(segment_file_name(1));
        drop(store);
        // Chop a few bytes off the last frame: crash mid-append.
        let len = fs::metadata(&tail).unwrap().len();
        let file = fs::OpenOptions::new().write(true).open(&tail).unwrap();
        file.set_len(len - 3).unwrap();
        drop(file);
        let reopened = FileStore::open(scratch.path()).unwrap();
        assert_eq!(reopened.len(), 9, "torn frame must be dropped");
        assert_eq!(reopened.last().unwrap().block().number(), BlockNumber(8));
        // The file was physically truncated, so a second open is clean.
        let reopened2 = FileStore::open(scratch.path()).unwrap();
        assert_eq!(reopened2.len(), 9);
    }

    #[test]
    fn bit_flip_in_tail_segment_is_corruption_not_torn_tail() {
        // A fully present frame that fails its checksum can never come
        // from an interrupted append (the whole frame lands in one
        // write), so it must be refused even in the newest segment —
        // silently truncating it would discard valid (possibly fsynced)
        // frames after the flip.
        let scratch = Scratch::new("tailflip");
        let store = store_with(scratch.path(), 8, 0..6);
        let tail = scratch.path().join(segment_file_name(0));
        drop(store);
        let mut bytes = fs::read(&tail).unwrap();
        // Flip one bit in the first frame's block bytes (its length prefix
        // stays intact, so the frame is "fully present" yet fails the
        // checksum); frames 1..6 after it remain valid.
        bytes[4 + FRAME_HEADER_LEN + 2] ^= 0x01;
        fs::write(&tail, bytes).unwrap();
        let err = FileStore::open(scratch.path()).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn corruption_in_middle_segment_is_rejected() {
        let scratch = Scratch::new("corrupt");
        let store = store_with(scratch.path(), 4, 0..12);
        drop(store);
        let middle = scratch.path().join(segment_file_name(1));
        let mut bytes = fs::read(&middle).unwrap();
        let mid = bytes.len() / 2;
        bytes.truncate(mid);
        fs::write(&middle, bytes).unwrap();
        let err = FileStore::open(scratch.path()).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn stale_retired_segment_is_removed_on_open() {
        let scratch = Scratch::new("stale");
        let mut store = store_with(scratch.path(), 4, 0..12);
        // Keep a copy of the first file, prune it away, then "un-delete"
        // it — the state a crash between manifest update and unlink leaves.
        let first = scratch.path().join(segment_file_name(0));
        let saved = fs::read(&first).unwrap();
        store.drain_front(4);
        assert!(!first.exists());
        drop(store);
        fs::write(&first, saved).unwrap();
        let reopened = FileStore::open(scratch.path()).unwrap();
        assert_eq!(reopened.len(), 8);
        assert_eq!(reopened.first().unwrap().block().number(), BlockNumber(4));
        assert!(!first.exists(), "stale segment must be unlinked");
    }

    #[test]
    fn stale_front_frames_are_dropped_on_open() {
        let scratch = Scratch::new("stalefront");
        let mut store = store_with(scratch.path(), 4, 0..10);
        // Save the front-to-be before a partial prune, restore it after:
        // the state a crash between manifest update and front rewrite
        // leaves behind.
        let front = scratch.path().join(segment_file_name(1));
        let saved = fs::read(&front).unwrap();
        store.drain_front(6); // drops file 0 whole, halves file 1
        drop(store);
        fs::write(&front, saved).unwrap();
        let reopened = FileStore::open(scratch.path()).unwrap();
        assert_eq!(reopened.len(), 4);
        assert_eq!(reopened.first().unwrap().block().number(), BlockNumber(6));
        // The recovery rewrote the file: pruned frames are physically gone.
        let bytes = fs::read(&front).unwrap();
        let parsed = parse_segment(&bytes);
        assert!(parsed.damage.is_none());
        assert_eq!(parsed.frames.len(), 2);
        assert_eq!(parsed.frames[0].offset, 0, "survivors rebased to zero");
    }

    #[test]
    fn temp_files_are_cleaned_on_open() {
        let scratch = Scratch::new("tmp");
        let store = store_with(scratch.path(), 4, 0..3);
        drop(store);
        let stray = scratch.path().join("MANIFEST.tmp");
        fs::write(&stray, b"half-written").unwrap();
        let reopened = FileStore::open(scratch.path()).unwrap();
        assert_eq!(reopened.len(), 3);
        assert!(!stray.exists());
    }

    #[test]
    fn clone_is_a_detached_resident_snapshot() {
        let scratch = Scratch::new("clone");
        let store = store_with(scratch.path(), 4, 0..6);
        let mut snapshot = store.clone();
        assert!(!snapshot.is_durable());
        assert_eq!(snapshot, store);
        // The clone has no files to page from: everything is resident.
        assert!(snapshot.resident_bytes() >= 6 * sealed(0).byte_size() as u64);
        // Mutating the clone never touches the original's directory.
        snapshot.push(sealed(6));
        drop(snapshot);
        drop(store);
        let reopened = FileStore::open(scratch.path()).unwrap();
        assert_eq!(reopened.len(), 6);
    }

    #[test]
    fn reset_keeps_the_root_but_wipes_the_log() {
        let scratch = Scratch::new("reset");
        let mut store = store_with(scratch.path(), 4, 0..9);
        store.reset();
        assert!(store.is_empty());
        assert!(store.is_durable());
        assert_eq!(store.hot_cache_len(), 0, "reset purges the cache");
        store.push(sealed(0));
        store.push(sealed(1));
        drop(store);
        let reopened = FileStore::open(scratch.path()).unwrap();
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.first().unwrap().block().number(), BlockNumber(0));
    }

    #[test]
    fn refilled_front_segment_seals_at_capacity() {
        // A single partially pruned, unsealed segment keeps taking appends
        // until its *live* count reaches capacity, so the middle-segments-
        // are-full invariant behind O(1) get() holds.
        let scratch = Scratch::new("refill");
        let mut store = store_with(scratch.path(), 4, 0..3);
        store.drain_front(2);
        for n in 3..8 {
            store.push(sealed(n));
        }
        assert_eq!(store.len(), 6);
        for (i, expect) in (2..8).enumerate() {
            assert_eq!(
                store.get(i).unwrap().block().number(),
                BlockNumber(expect),
                "index {i}"
            );
        }
        drop(store);
        let reopened = FileStore::open(scratch.path()).unwrap();
        assert_eq!(reopened.len(), 6);
        let numbers: Vec<u64> = reopened
            .iter()
            .map(|s| s.block().number().value())
            .collect();
        assert_eq!(numbers, (2..8).collect::<Vec<_>>());
    }

    #[test]
    fn fsync_policies_drive_the_tail_fsync_cadence() {
        // OnFill: no tail fsync until a segment fills. Set explicitly —
        // the process default is OnFill, but SELDEL_FSYNC_POLICY can move
        // it at open time.
        let scratch = Scratch::new("policy-default");
        let mut store = FileStore::open_with_capacity(scratch.path(), 8)
            .unwrap()
            .with_fsync_policy(FsyncPolicy::OnFill);
        for n in 0..5 {
            store.push(sealed(n));
        }
        assert_eq!(store.tail_fsyncs(), 0, "OnFill must not sync mid-segment");
        for n in 5..8 {
            store.push(sealed(n));
        }
        assert_eq!(store.tail_fsyncs(), 1, "the fill fsync");

        // Always: one tail fsync per appended frame.
        let scratch = Scratch::new("policy-always");
        let mut store = FileStore::open_with_capacity(scratch.path(), 100)
            .unwrap()
            .with_fsync_policy(FsyncPolicy::Always);
        for n in 0..5 {
            store.push(sealed(n));
        }
        assert_eq!(store.tail_fsyncs(), 5);

        // EveryN(2): group commit at frames 2 and 4.
        let scratch = Scratch::new("policy-every2");
        let mut store = FileStore::open_with_capacity(scratch.path(), 100)
            .unwrap()
            .with_fsync_policy(FsyncPolicy::EveryN(2));
        for n in 0..5 {
            store.push(sealed(n));
        }
        assert_eq!(store.tail_fsyncs(), 2);
        assert_eq!(store.fsync_policy(), FsyncPolicy::EveryN(2));
    }

    #[test]
    fn every_n_still_fsyncs_the_tail_before_each_prunes_manifest_write() {
        // The group-commit window must never defer the §IV-C barrier: even
        // with EveryN far from due, drain_front fsyncs the tail before the
        // manifest write makes the prune irreversible.
        let scratch = Scratch::new("policy-barrier");
        let mut store = FileStore::open_with_capacity(scratch.path(), 100)
            .unwrap()
            .with_fsync_policy(FsyncPolicy::EveryN(1_000_000));
        for n in 0..6 {
            store.push(sealed(n));
        }
        assert_eq!(store.tail_fsyncs(), 0, "window far from due");
        let removed = store.drain_front(2);
        assert_eq!(removed.len(), 2);
        assert_eq!(
            store.tail_fsyncs(),
            1,
            "prune barrier must fsync the tail regardless of the policy"
        );
        assert_eq!(
            store.durable_up_to(),
            Some(BlockNumber(5)),
            "the prune barrier is a full durability barrier"
        );
        // The surviving frames were durable before the manifest moved:
        // a reopen sees exactly blocks 2..6.
        drop(store);
        let reopened = FileStore::open(scratch.path()).unwrap();
        assert_eq!(reopened.len(), 4);
        assert_eq!(reopened.first().unwrap().block().number(), BlockNumber(2));
        assert_eq!(reopened.last().unwrap().block().number(), BlockNumber(5));
    }

    #[test]
    fn fsync_policy_env_values_parse() {
        assert_eq!(parse_fsync_policy("always"), Some(FsyncPolicy::Always));
        assert_eq!(parse_fsync_policy(" Always "), Some(FsyncPolicy::Always));
        assert_eq!(parse_fsync_policy("onfill"), Some(FsyncPolicy::OnFill));
        assert_eq!(parse_fsync_policy("on-fill"), Some(FsyncPolicy::OnFill));
        assert_eq!(parse_fsync_policy("every:8"), Some(FsyncPolicy::EveryN(8)));
        assert_eq!(parse_fsync_policy("every:"), None);
        assert_eq!(parse_fsync_policy("sometimes"), None);
    }

    #[test]
    fn durable_watermark_tracks_fsync_points() {
        let scratch = Scratch::new("watermark-sync");
        let mut store = FileStore::open_with_capacity(scratch.path(), 4)
            .unwrap()
            .with_fsync_policy(FsyncPolicy::OnFill);
        assert_eq!(store.durable_up_to(), None, "empty store: nothing durable");
        for n in 0..3 {
            store.push(sealed(n));
        }
        assert_eq!(
            store.durable_up_to(),
            None,
            "OnFill appends are not durable until the segment fills"
        );
        store.push(sealed(3));
        assert_eq!(
            store.durable_up_to(),
            Some(BlockNumber(3)),
            "the fill fsync moves the watermark to the fill"
        );
        store.push(sealed(4));
        assert_eq!(store.durable_up_to(), Some(BlockNumber(3)));
        store.commit_durable().unwrap();
        assert_eq!(
            store.durable_up_to(),
            Some(BlockNumber(4)),
            "the barrier moves the watermark to the tip"
        );

        // A reopen trusts whatever replay accepted.
        drop(store);
        let reopened = FileStore::open(scratch.path()).unwrap();
        assert_eq!(reopened.durable_up_to(), Some(BlockNumber(4)));

        // Unrooted stores have no disk to lag behind: watermark == tip.
        let mut unrooted = FileStore::default();
        assert_eq!(unrooted.durable_up_to(), None);
        unrooted.push(sealed(0));
        assert_eq!(unrooted.durable_up_to(), Some(BlockNumber(0)));
    }

    #[test]
    fn manual_sync_advances_the_durable_watermark() {
        // `sync()` is the public barrier: it must book its fsync like every
        // other one, or the anchor's announce gate keeps treating blocks it
        // made durable as at risk.
        let scratch = Scratch::new("manual-sync");
        let mut store = FileStore::open_with_capacity(scratch.path(), 8)
            .unwrap()
            .with_fsync_policy(FsyncPolicy::OnFill);
        for n in 0..3 {
            store.push(sealed(n));
        }
        assert_eq!(store.durable_up_to(), None);
        store.sync().unwrap();
        assert_eq!(store.durable_up_to(), Some(BlockNumber(2)));
        assert_eq!(store.tail_fsyncs(), 1);
    }

    #[test]
    fn reset_restarts_the_durable_frontier() {
        let scratch = Scratch::new("watermark-reset");
        let mut store = FileStore::open_with_capacity(scratch.path(), 2)
            .unwrap()
            .with_fsync_policy(FsyncPolicy::OnFill);
        for n in 0..4 {
            store.push(sealed(n));
        }
        assert_eq!(store.durable_up_to(), Some(BlockNumber(3)), "two fills");
        store.reset();
        assert_eq!(
            store.durable_up_to(),
            None,
            "a wiped store has nothing durable — the old frontier must not leak"
        );
        store.push(sealed(0));
        assert_eq!(
            store.durable_up_to(),
            None,
            "the refilled tail is not durable until its first fsync point"
        );
        store.commit_durable().unwrap();
        assert_eq!(store.durable_up_to(), Some(BlockNumber(0)));
    }

    #[test]
    fn segment_frame_numbers_reports_frame_boundaries() {
        let scratch = Scratch::new("frame-numbers");
        let store = store_with(scratch.path(), 10, 0..3);
        let path = scratch.path().join(segment_file_name(0));
        drop(store);
        let bytes = fs::read(&path).unwrap();
        let frames = segment_frame_numbers(&bytes);
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0], (0, 0));
        assert_eq!(
            frames.iter().map(|&(_, n)| n).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        // Truncating at a reported offset leaves a clean shorter log.
        fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(frames[2].0)
            .unwrap();
        let reopened = FileStore::open(scratch.path()).unwrap();
        assert_eq!(reopened.len(), 2);
    }

    #[test]
    fn unsupported_version_is_reported() {
        let scratch = Scratch::new("version");
        let store = store_with(scratch.path(), 4, 0..1);
        drop(store);
        let manifest = Manifest {
            segment_capacity: 4,
            first_segment_id: 0,
            first_block_number: 0,
        };
        let mut bytes = manifest.encode_bytes();
        bytes[8] = 0xEE; // clobber the version field
        fs::write(scratch.path().join(MANIFEST_NAME), bytes).unwrap();
        assert!(matches!(
            FileStore::open(scratch.path()),
            Err(StoreError::UnsupportedVersion { .. })
        ));
    }
}
