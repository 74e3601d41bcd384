//! Sharded, indexed, binary result cache for million-cell sweeps: the
//! sweep engine's one persistent cache format.
//!
//! A cache that loads (and therefore parses) its entire file on open makes
//! a warm start over a 10^6-cell cache pay O(file) before the first cell
//! is served. This module avoids that with a directory of fixed-width
//! record shards plus a persistent open-addressing hash index mapping FNV
//! cell keys to `(shard, offset)`. Open reads the index's slot array into
//! memory in one sequential read (16 bytes per slot, nothing parsed) and
//! no records; lookups probe that resident table and read the record
//! through a 4 KiB window per shard. So a lookup costs the same however
//! many dead cells (entries outside the current grid) the cache has
//! accumulated, and a sweep that walks a shard in append order pays one
//! read per ~34 hits. A sweep looks its keys up four at a time and checks
//! the four records' checksums in one interleaved pass; `get` is a batch
//! of one. `orchestrator::export_jsonl` writes a cache out as JSONL text;
//! nothing reads that text back.
//!
//! # On-disk layout
//!
//! A binary cache is a directory:
//!
//! ```text
//! cache.bin/
//!   index.bin      # header + open-addressing slot array
//!   shard-000.bin  # length-prefixed fixed-width records, append-only
//!   shard-001.bin
//!   ...
//! ```
//!
//! **Record** (120 bytes, little-endian): `[len: u32 = 120][magic: u32]
//! [key: u64][flags: u64][6 × u64 counters][5 × f64 bits][fnv1a checksum
//! of bytes 0..112]`. The length prefix doubles as a format check; the
//! trailing checksum catches torn or bit-rotted records. `Option<f64>`
//! fields store their presence in `flags` (bits 0–1) so every record is
//! the same width and an offset fully locates a record.
//!
//! **Index**: a 4096-byte header (magic, version, shard count, slot
//! capacity, entry count, and one *indexed length* per shard — the shard
//! byte length the index is consistent with) followed by `capacity`
//! 16-byte slots `[key: u64][loc: u64]` where `loc = (shard << 48) |
//! (offset + 1)` and `loc == 0` means empty. Slot placement is linear
//! probing from a Fibonacci hash of the key; the capacity is a power of
//! two sized from the expected grid (load factor ≤ 0.7, grown by
//! rebuild + atomic rename when exceeded).
//!
//! # Crash-safe append discipline
//!
//! An append of a batch of entries, 64 KiB of new records at a time,
//! (1) writes the new records to their shards — `shard = key mod
//! shard_count` — in one positioned write per shard, then (2) writes the
//! slots they took in the resident table, one positioned write per run of
//! that table in which each taken slot lies within a page of the next,
//! and (3) bumps the header's entry count and the shards' indexed lengths
//! once; a single insert is a batch of one, three positioned writes. A
//! run rewrites the untouched slots between its taken ones with the bytes
//! the file already holds. When a slot write fails, the slots not yet
//! written get back what they held, and the indexed lengths move only
//! once the header is written, so after any error the resident table, the
//! entry count and the indexed lengths are again what `index.bin` holds.
//! A crash at any point leaves a recoverable file:
//!
//! - cut inside (1): the shard's torn tail record fails its
//!   length/checksum validation on open and is truncated away (the index
//!   never knew it); the batch's whole records before it are re-indexed
//!   as below;
//! - cut inside or after (2), before (3): the shard is longer than its
//!   indexed length, so open re-scans just that tail and re-indexes it —
//!   O(tail), not O(file) — skipping the records whose slots made it;
//! - a missing or corrupt `index.bin` (or one whose indexed lengths
//!   exceed the shard files, e.g. a shard truncated behind the index's
//!   back) triggers a full index rebuild from the shards.
//!
//! Appends happen in deterministic (checkpoint frontier) order under the
//! orchestrator, so serial, multi-worker and kill-and-resume sweeps all
//! produce byte-identical shard *and* index files — enforced by the
//! proptest in `crates/sim/tests/cache_bin.rs`.

use crate::orchestrator::{CacheInsert, CellKey};
use crate::SimOutcome;
use secloc_obs::{fnv1a, Fnv1a};
use std::cell::RefCell;
use std::fmt;
use std::fs;
use std::io;
use std::os::unix::fs::FileExt as _;
use std::path::{Path, PathBuf};

/// Fixed record width, including the length prefix and checksum.
pub const RECORD_LEN: usize = 120;
/// Bytes covered by the trailing checksum.
const RECORD_BODY: usize = RECORD_LEN - 8;
/// Second word of every record; a cheap format check alongside the length.
const RECORD_MAGIC: u32 = 0x53_4C_4F_43; // "SLOC"

/// First word of `index.bin`.
const INDEX_MAGIC: u64 = 0x3153_4C4F_4349_4458; // "1SLOCIDX"
const INDEX_VERSION: u32 = 1;
/// Fixed index header size; slots start here.
const HEADER_LEN: u64 = 4096;
/// One `[key][loc]` slot.
const SLOT_LEN: u64 = 16;
/// Upper bound on shards — the header reserves an indexed-length word per
/// shard (256 × 8 = 2048 bytes of the 4096-byte header).
pub(crate) const MAX_SHARDS: u32 = 256;
/// Slots are kept under 70% full; beyond that the index grows by rebuild.
const MAX_LOAD_NUM: u64 = 7;
const MAX_LOAD_DEN: u64 = 10;
/// Bytes one record read pulls into its shard's window (~34 records).
const WINDOW_LEN: u64 = 4096;
/// Records one batched read checks together.
pub(crate) const READ_BATCH: usize = 4;
/// An append writes its staged records out once this many bytes of them
/// are staged (and at its end), so however many entries one frontier
/// advance resolves, its buffers stay small (~546 records).
const APPEND_CHUNK: usize = 64 * 1024;
/// Taken slots with at most this many bytes of untouched slots between
/// them go out in one positioned write: rewriting a page of unchanged
/// slots costs less than a second write.
const RUN_GAP: u64 = 4096;

/// Picks the shard count for a cache created to hold `expected_cells`:
/// one shard per ~8k cells, a power of two, clamped to `[1, MAX_SHARDS]`.
/// A million-cell grid lands on 128 shards (~1 MB of records each).
pub fn shard_count_for(expected_cells: usize) -> u32 {
    let shards = expected_cells.div_ceil(8192).next_power_of_two();
    (shards as u64).clamp(1, MAX_SHARDS as u64) as u32
}

fn slot_capacity_for(entries: u64) -> u64 {
    (entries * MAX_LOAD_DEN / MAX_LOAD_NUM + 1)
        .max(1024)
        .next_power_of_two()
}

/// Fibonacci-hash starting slot for `key` in a power-of-two table.
fn home_slot(key: u64, capacity: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15) & (capacity - 1)
}

/// A slot's location word; 0 is reserved for "empty".
fn pack_loc(shard: u32, offset: u64) -> u64 {
    (u64::from(shard) << 48) | (offset + 1)
}

fn unpack_loc(loc: u64) -> (u32, u64) {
    ((loc >> 48) as u32, (loc & 0xFFFF_FFFF_FFFF).wrapping_sub(1))
}

fn encode_slot(key: u64, loc: u64) -> [u8; SLOT_LEN as usize] {
    let mut buf = [0u8; SLOT_LEN as usize];
    put_u64(&mut buf, 0, key);
    put_u64(&mut buf, 8, loc);
    buf
}

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Creates (or truncates) a read-write file.
fn create_rw(path: &Path) -> io::Result<fs::File> {
    fs::OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(path)
}

fn put_u64(buf: &mut [u8], at: usize, v: u64) {
    buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

fn get_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes"))
}

/// Encodes one outcome as a fixed-width record.
pub(crate) fn encode_record(key: CellKey, o: &SimOutcome) -> [u8; RECORD_LEN] {
    let mut buf = [0u8; RECORD_LEN];
    buf[0..4].copy_from_slice(&(RECORD_LEN as u32).to_le_bytes());
    buf[4..8].copy_from_slice(&RECORD_MAGIC.to_le_bytes());
    put_u64(&mut buf, 8, key.0);
    let mut flags = 0u64;
    if o.mean_loc_error_before_ft.is_some() {
        flags |= 1;
    }
    if o.mean_loc_error_after_ft.is_some() {
        flags |= 2;
    }
    put_u64(&mut buf, 16, flags);
    put_u64(&mut buf, 24, u64::from(o.malicious_total));
    put_u64(&mut buf, 32, u64::from(o.benign_total));
    put_u64(&mut buf, 40, u64::from(o.revoked_malicious));
    put_u64(&mut buf, 48, u64::from(o.revoked_benign));
    put_u64(&mut buf, 56, o.benign_alerts as u64);
    put_u64(&mut buf, 64, o.collusion_alerts as u64);
    put_u64(&mut buf, 72, o.affected_before.to_bits());
    put_u64(&mut buf, 80, o.affected_after.to_bits());
    put_u64(&mut buf, 88, o.mean_requesters_per_beacon.to_bits());
    put_u64(
        &mut buf,
        96,
        o.mean_loc_error_before_ft.unwrap_or(0.0).to_bits(),
    );
    put_u64(
        &mut buf,
        104,
        o.mean_loc_error_after_ft.unwrap_or(0.0).to_bits(),
    );
    let checksum = fnv1a(&buf[..RECORD_BODY]);
    put_u64(&mut buf, RECORD_BODY, checksum);
    buf
}

/// Decodes and validates one record; `None` means the bytes are not a
/// complete, intact record (a crash-truncated or torn tail).
fn decode_record(buf: &[u8]) -> Option<(CellKey, SimOutcome)> {
    let buf: &[u8; RECORD_LEN] = buf.get(..RECORD_LEN)?.try_into().ok()?;
    decode_checked(buf, fnv1a(&buf[..RECORD_BODY]))
}

/// Decodes one record whose body hashes to `checksum`; `None` unless its
/// length prefix, magic and stored checksum all hold.
fn decode_checked(buf: &[u8; RECORD_LEN], checksum: u64) -> Option<(CellKey, SimOutcome)> {
    let len = u32::from_le_bytes(buf[0..4].try_into().ok()?);
    let magic = u32::from_le_bytes(buf[4..8].try_into().ok()?);
    if len as usize != RECORD_LEN || magic != RECORD_MAGIC {
        return None;
    }
    if checksum != get_u64(buf, RECORD_BODY) {
        return None;
    }
    let flags = get_u64(buf, 16);
    let opt = |bit: u64, at: usize| (flags & bit != 0).then(|| f64::from_bits(get_u64(buf, at)));
    let outcome = SimOutcome {
        malicious_total: get_u64(buf, 24) as u32,
        benign_total: get_u64(buf, 32) as u32,
        revoked_malicious: get_u64(buf, 40) as u32,
        revoked_benign: get_u64(buf, 48) as u32,
        affected_before: f64::from_bits(get_u64(buf, 72)),
        affected_after: f64::from_bits(get_u64(buf, 80)),
        benign_alerts: get_u64(buf, 56) as usize,
        collusion_alerts: get_u64(buf, 64) as usize,
        mean_requesters_per_beacon: f64::from_bits(get_u64(buf, 88)),
        mean_loc_error_before_ft: opt(1, 96),
        mean_loc_error_after_ft: opt(2, 104),
    };
    Some((CellKey(get_u64(buf, 8)), outcome))
}

/// The index's slot array, resident in memory: byte for byte the part of
/// `index.bin` after the header.
struct Slots(Vec<u8>);

impl Slots {
    fn zeroed(capacity: u64) -> Self {
        Slots(vec![0; (capacity * SLOT_LEN) as usize])
    }

    fn capacity(&self) -> u64 {
        self.0.len() as u64 / SLOT_LEN
    }

    /// `(key, loc)` of one slot.
    fn get(&self, slot: u64) -> (u64, u64) {
        let at = (slot * SLOT_LEN) as usize;
        (get_u64(&self.0, at), get_u64(&self.0, at + 8))
    }

    /// The bytes of slots `first..=last`.
    fn bytes(&self, first: u64, last: u64) -> &[u8] {
        &self.0[(first * SLOT_LEN) as usize..((last + 1) * SLOT_LEN) as usize]
    }

    fn set(&mut self, slot: u64, bytes: &[u8; SLOT_LEN as usize]) {
        let at = (slot * SLOT_LEN) as usize;
        self.0[at..at + SLOT_LEN as usize].copy_from_slice(bytes);
    }

    /// Linear probe from `key`'s home slot: `Ok(slot)` for the slot
    /// holding `key`, else `Err(slot)` for the first empty one. The table
    /// always has an empty slot (open rejects a full one and `reserve`
    /// keeps the load under 0.7), so the probe ends.
    fn find(&self, key: u64) -> Result<u64, u64> {
        let mask = self.capacity() - 1;
        let mut slot = home_slot(key, self.capacity());
        loop {
            match self.get(slot) {
                (_, 0) => return Err(slot),
                (k, _) if k == key => return Ok(slot),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// `(key, loc)` of every occupied slot, in slot order.
    fn occupied(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        (0..self.capacity())
            .map(|slot| self.get(slot))
            .filter(|&(_, loc)| loc != 0)
    }
}

/// The bytes `[start, start + bytes.len())` of one shard, as last read.
/// A window never reaches past the shard's indexed length at the time it
/// was read, and bytes below that length never change (inserts append
/// past it), so a window never holds stale bytes.
#[derive(Default)]
struct Window {
    start: u64,
    bytes: Vec<u8>,
}

impl Window {
    /// The record at `offset`, which must end at or before `shard_len`;
    /// on a miss the window is refilled from `offset` on.
    fn record(&mut self, file: &fs::File, offset: u64, shard_len: u64) -> io::Result<&[u8]> {
        let end = offset + RECORD_LEN as u64;
        if offset < self.start || end > self.start + self.bytes.len() as u64 {
            self.start = offset;
            self.bytes
                .resize((shard_len - offset).min(WINDOW_LEN) as usize, 0);
            if let Err(e) = file.read_exact_at(&mut self.bytes, offset) {
                self.bytes.clear();
                return Err(e);
            }
        }
        let at = (offset - self.start) as usize;
        Ok(&self.bytes[at..at + RECORD_LEN])
    }
}

/// What [`BinaryCache::open`] had to repair, for telemetry and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheRecovery {
    /// Valid records found past a shard's indexed length (a crash landed
    /// between the record append and the index update) and re-indexed.
    pub reindexed: usize,
    /// Bytes of invalid shard tails truncated away (a crash mid-append).
    pub truncated_bytes: u64,
    /// Whether the whole index had to be rebuilt from the shards (missing
    /// or corrupt `index.bin`, or an index ahead of its shards).
    pub rebuilt_index: bool,
}

impl CacheRecovery {
    /// Whether open found anything to repair at all.
    pub fn clean(&self) -> bool {
        *self == CacheRecovery::default()
    }
}

/// The new records of one append chunk, staged before any write. The
/// buffers are kept from one chunk and one append to the next.
#[derive(Default)]
struct Staged {
    /// Encoded records, one run per shard, in batch order.
    records: Vec<Vec<u8>>,
    /// `(key, shard, offset)` of every staged record, in batch order.
    slots: Vec<(CellKey, u32, u64)>,
    /// The chunk's keys as indices into `slots`, in a linear-probing
    /// table kept at most half full (`UNSEEN` marks a free entry).
    seen: Vec<u32>,
}

/// One entry of an append: a key, its outcome and, when the caller
/// encoded it already, its record.
pub(crate) type Entry<'a> = (CellKey, &'a SimOutcome, Option<&'a [u8; RECORD_LEN]>);

/// A free entry of [`Staged::seen`].
const UNSEEN: u32 = u32::MAX;

impl Staged {
    /// Empties the buffers for a chunk over `shards` shards.
    fn clear(&mut self, shards: usize) {
        self.records.resize_with(shards, Vec::new);
        self.records.iter_mut().for_each(Vec::clear);
        self.slots.clear();
        self.seen.clear();
        self.seen.resize(16, UNSEEN);
    }

    /// The entry of `seen` holding `key`, else the free entry ending its
    /// probe.
    fn find(&self, key: CellKey) -> usize {
        let mask = self.seen.len() - 1;
        let mut at = home_slot(key.0, self.seen.len() as u64) as usize;
        while self.seen[at] != UNSEEN && self.slots[self.seen[at] as usize].0 != key {
            at = (at + 1) & mask;
        }
        at
    }

    /// Stages `record`, new to the cache and the chunk, at `offset` in
    /// `shard`.
    fn push(&mut self, key: CellKey, shard: u32, offset: u64, record: &[u8; RECORD_LEN]) {
        self.records[shard as usize].extend_from_slice(record);
        self.slots.push((key, shard, offset));
        // Past half full, the table doubles and takes every key again.
        let mut first = self.slots.len() - 1;
        if self.slots.len() * 2 > self.seen.len() {
            let grown = self.seen.len() * 2;
            self.seen.clear();
            self.seen.resize(grown, UNSEEN);
            first = 0;
        }
        for i in first..self.slots.len() {
            let at = self.find(self.slots[i].0);
            self.seen[at] = i as u32;
        }
    }
}

/// The sharded, indexed binary result cache. See the module docs for the
/// on-disk format and crash discipline. Open reads the index's slot array
/// into memory (16 bytes per slot) and no records; a batched read probes
/// that table and reads records through a 4 KiB window per shard, and an
/// append writes through to the files per 64 KiB of records with one
/// positioned write per touched shard, one per run of the slots those
/// records took (one run when they lie within a page of each other, at
/// most one per slot), and one for the header.
pub struct BinaryCache {
    dir: PathBuf,
    index: fs::File,
    /// The slot array of `index.bin`, kept in step on every write.
    slots: Slots,
    /// Slots the resident table took since its last slot write, each with
    /// the `(key, loc)` it held before: what a failed write rolls back.
    unwritten: Vec<(u64, (u64, u64))>,
    shards: Vec<fs::File>,
    /// One read window per shard; a `RefCell` because `get` takes `&self`.
    windows: RefCell<Vec<Window>>,
    /// Indexed byte length of each shard, as the header holds it (all
    /// records are valid up to here once open-time recovery finishes). An
    /// append's records land past it, and it moves with the header write.
    shard_lens: Vec<u64>,
    len: u64,
    recovery: CacheRecovery,
    staged: Staged,
}

impl fmt::Debug for BinaryCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BinaryCache")
            .field("dir", &self.dir)
            .field("shard_count", &self.shard_count())
            .field("capacity", &self.slots.capacity())
            .field("len", &self.len)
            .field("recovery", &self.recovery)
            .finish_non_exhaustive()
    }
}

impl BinaryCache {
    /// Opens (or creates) the binary cache directory at `dir`, sized for
    /// at least `expected_cells` further entries. Recovery — tail
    /// truncation, tail re-indexing, or a full index rebuild — runs here;
    /// the repaired state is reported by [`BinaryCache::recovery`].
    pub fn open(dir: impl AsRef<Path>, expected_cells: usize) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        if dir.is_file() {
            return Err(bad_data(format!(
                "{} is a file; the result cache is a directory, and JSONL \
                 caches are no longer read (point the cache at a new path)",
                dir.display()
            )));
        }
        fs::create_dir_all(&dir)?;
        let index_path = dir.join("index.bin");
        let mut cache = if index_path.exists() {
            match Self::open_existing(&dir)? {
                Some(cache) => cache,
                None => Self::rebuild_from_shards(&dir, expected_cells)?,
            }
        } else if fs::read_dir(&dir)?.next().is_some() {
            // Shards without an index: a crash before the first header
            // write, or a copied/partial directory. Rebuild.
            Self::rebuild_from_shards(&dir, expected_cells)?
        } else {
            Self::create(&dir, expected_cells)?
        };
        cache.recover_tails()?;
        cache.reserve(expected_cells as u64)?;
        Ok(cache)
    }

    /// A handle over an index file and its slot table, with one shard
    /// (opened, or created empty) per entry of `shard_lens`.
    fn assemble(
        dir: &Path,
        index: fs::File,
        slots: Slots,
        shard_lens: Vec<u64>,
        len: u64,
    ) -> io::Result<Self> {
        let shards = (0..shard_lens.len() as u32)
            .map(|s| {
                fs::OpenOptions::new()
                    .read(true)
                    .write(true)
                    .create(true)
                    // Re-opening an existing shard must keep its records.
                    .truncate(false)
                    .open(Self::shard_path(dir, s))
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(BinaryCache {
            dir: dir.to_path_buf(),
            index,
            slots,
            unwritten: Vec::new(),
            windows: RefCell::new(shards.iter().map(|_| Window::default()).collect()),
            shards,
            shard_lens,
            len,
            recovery: CacheRecovery::default(),
            staged: Staged::default(),
        })
    }

    fn create(dir: &Path, expected_cells: usize) -> io::Result<Self> {
        let slots = Slots::zeroed(slot_capacity_for(expected_cells as u64));
        let index = create_rw(&dir.join("index.bin"))?;
        index.set_len(HEADER_LEN + slots.0.len() as u64)?;
        let shard_lens = vec![0; shard_count_for(expected_cells) as usize];
        let mut cache = Self::assemble(dir, index, slots, shard_lens, 0)?;
        cache.write_header()?;
        Ok(cache)
    }

    /// Opens an existing index and reads its slot array; `Ok(None)` means
    /// the index is unusable and the caller should rebuild from the
    /// shards.
    fn open_existing(dir: &Path) -> io::Result<Option<Self>> {
        let index = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(dir.join("index.bin"))?;
        let mut header = [0u8; HEADER_LEN as usize];
        if index.read_exact_at(&mut header, 0).is_err() {
            return Ok(None); // shorter than a header: rebuild
        }
        let magic = get_u64(&header, 0);
        let version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        let shard_count = u32::from_le_bytes(header[12..16].try_into().expect("4 bytes"));
        let capacity = get_u64(&header, 16);
        let file_len = capacity
            .checked_mul(SLOT_LEN)
            .and_then(|slots| slots.checked_add(HEADER_LEN));
        let usable = magic == INDEX_MAGIC
            && version == INDEX_VERSION
            && (1..=MAX_SHARDS).contains(&shard_count)
            && capacity.is_power_of_two()
            && file_len == Some(index.metadata()?.len());
        if !usable {
            return Ok(None);
        }
        let mut slots = Slots::zeroed(capacity);
        index.read_exact_at(&mut slots.0, HEADER_LEN)?;
        // The entry count is the table's, not the header's. A full table
        // has no empty slot to end a probe: unusable.
        let len = slots.occupied().count() as u64;
        if len == capacity {
            return Ok(None);
        }
        let shard_lens = (0..shard_count as usize)
            .map(|s| get_u64(&header, 40 + s * 8))
            .collect();
        Self::assemble(dir, index, slots, shard_lens, len).map(Some)
    }

    fn shard_path(dir: &Path, shard: u32) -> PathBuf {
        dir.join(format!("shard-{shard:03}.bin"))
    }

    fn write_header(&mut self) -> io::Result<()> {
        // Only the used prefix is written — this runs once per append, and
        // the bytes past the last shard length are zeros from file
        // creation and never change.
        let used = 40 + self.shard_lens.len() * 8;
        let mut header = [0u8; 40 + MAX_SHARDS as usize * 8];
        let header = &mut header[..used];
        put_u64(header, 0, INDEX_MAGIC);
        header[8..12].copy_from_slice(&INDEX_VERSION.to_le_bytes());
        header[12..16].copy_from_slice(&self.shard_count().to_le_bytes());
        put_u64(header, 16, self.slots.capacity());
        put_u64(header, 24, self.len);
        for (s, &len) in self.shard_lens.iter().enumerate() {
            put_u64(header, 40 + s * 8, len);
        }
        self.index.write_all_at(header, 0)
    }

    /// Writes the slot table and header into `self.index` — a fresh
    /// `index.rebuild` — and renames it over `index.bin`, so a crash
    /// mid-write leaves the previous index in place.
    fn install_index(&mut self) -> io::Result<()> {
        self.index.write_all_at(&self.slots.0, HEADER_LEN)?;
        self.write_header()?;
        self.index.sync_all()?;
        fs::rename(self.dir.join("index.rebuild"), self.dir.join("index.bin"))
    }

    /// Validates every shard against its indexed length: re-indexes valid
    /// tail records the index missed, truncates invalid tails, and falls
    /// back to a full rebuild when the index is *ahead* of a shard (the
    /// shard lost bytes behind the index's back).
    fn recover_tails(&mut self) -> io::Result<()> {
        for s in 0..self.shards.len() {
            let actual = self.shards[s].metadata()?.len();
            if actual < self.shard_lens[s] {
                let rebuilt = Self::rebuild_from_shards(&self.dir, 0)?;
                let reindexed = self.recovery.reindexed;
                *self = rebuilt;
                self.recovery.rebuilt_index = true;
                self.recovery.reindexed += reindexed;
                return self.recover_tails();
            }
        }
        for s in 0..self.shards.len() {
            let actual = self.shards[s].metadata()?.len();
            let mut offset = self.shard_lens[s];
            while offset < actual {
                let mut buf = [0u8; RECORD_LEN];
                let intact = actual - offset >= RECORD_LEN as u64
                    && self.shards[s].read_exact_at(&mut buf, offset).is_ok();
                match intact.then(|| decode_record(&buf)).flatten() {
                    Some((key, _outcome)) => {
                        // A crash landed between the record append and the
                        // index update; finish the insert idempotently.
                        if self.probe(key).is_none() {
                            self.index_slot(key, s as u32, offset)?;
                        }
                        self.recovery.reindexed += 1;
                        offset += RECORD_LEN as u64;
                    }
                    None => {
                        self.recovery.truncated_bytes += actual - offset;
                        self.shards[s].set_len(offset)?;
                        break;
                    }
                }
            }
            self.shard_lens[s] = self.shards[s].metadata()?.len();
        }
        self.write_slots()?;
        self.write_header()
    }

    /// Rebuilds a fresh index by scanning every record of every shard —
    /// the O(file) fallback for a missing/corrupt index. Writes to
    /// `index.rebuild` then renames over `index.bin`, so a crash mid-
    /// rebuild leaves the old (still-corrupt, still-rebuildable) state.
    fn rebuild_from_shards(dir: &Path, expected_cells: usize) -> io::Result<Self> {
        // Shard files present on disk define the shard count.
        let mut shard_count = 0u32;
        for s in 0..MAX_SHARDS {
            if Self::shard_path(dir, s).exists() {
                shard_count = s + 1;
            }
        }
        let shard_count = shard_count.max(shard_count_for(expected_cells));
        let mut shard_lens = vec![0u64; shard_count as usize];
        let mut entries: Vec<(CellKey, u32, u64)> = Vec::new();
        let mut truncated = 0u64;
        for s in 0..shard_count {
            let path = Self::shard_path(dir, s);
            if !path.exists() {
                continue;
            }
            let bytes = fs::read(&path)?;
            let mut offset = 0usize;
            while offset + RECORD_LEN <= bytes.len() {
                match decode_record(&bytes[offset..offset + RECORD_LEN]) {
                    Some((key, _)) => {
                        entries.push((key, s, offset as u64));
                        offset += RECORD_LEN;
                    }
                    None => break,
                }
            }
            if offset < bytes.len() {
                truncated += (bytes.len() - offset) as u64;
                fs::OpenOptions::new()
                    .write(true)
                    .open(&path)?
                    .set_len(offset as u64)?;
            }
            shard_lens[s as usize] = offset as u64;
        }
        let mut slots = Slots::zeroed(slot_capacity_for(
            entries.len() as u64 + expected_cells as u64,
        ));
        let mut len = 0u64;
        for (key, shard, offset) in entries {
            // A duplicate record (re-appended after a crash) keeps its
            // first copy.
            if let Err(slot) = slots.find(key.0) {
                slots.set(slot, &encode_slot(key.0, pack_loc(shard, offset)));
                len += 1;
            }
        }
        let index = create_rw(&dir.join("index.rebuild"))?;
        let mut cache = Self::assemble(dir, index, slots, shard_lens, len)?;
        cache.recovery = CacheRecovery {
            reindexed: 0,
            truncated_bytes: truncated,
            rebuilt_index: true,
        };
        cache.install_index()?;
        Ok(cache)
    }

    /// Grows the index when `additional` more entries would push the load
    /// factor past the limit. Growth rehashes the resident table (not the
    /// shards): O(capacity), amortized over inserts. The slots taken so
    /// far are written to the old index first, and a failed growth keeps
    /// the old index and table, so the two still agree after an error.
    fn reserve(&mut self, additional: u64) -> io::Result<()> {
        let needed = slot_capacity_for(self.len + additional);
        if needed <= self.slots.capacity() {
            return Ok(());
        }
        self.write_slots()?;
        let mut grown = Slots::zeroed(needed);
        for (key, loc) in self.slots.occupied() {
            let (Ok(slot) | Err(slot)) = grown.find(key);
            grown.set(slot, &encode_slot(key, loc));
        }
        let index = create_rw(&self.dir.join("index.rebuild"))?;
        let previous = (
            std::mem::replace(&mut self.index, index),
            std::mem::replace(&mut self.slots, grown),
        );
        let installed = self.install_index();
        if installed.is_err() {
            (self.index, self.slots) = previous;
        }
        installed
    }

    /// The `(shard, offset)` the index holds for `key`, if any.
    fn probe(&self, key: CellKey) -> Option<(u32, u64)> {
        let slot = self.slots.find(key.0).ok()?;
        Some(unpack_loc(self.slots.get(slot).1))
    }

    /// Indexes an entry already appended to its shard at `offset` in the
    /// resident table, growing the index first when one more entry would
    /// pass the load limit.
    /// [`BinaryCache::write_slots`] writes the slot; the caller moves the
    /// shard's indexed length and writes the header.
    fn index_slot(&mut self, key: CellKey, shard: u32, offset: u64) -> io::Result<()> {
        self.reserve(1)?;
        // The key's own slot when re-indexing a record that failed
        // validation; otherwise a free slot, the only case that adds an
        // entry.
        let found = self.slots.find(key.0);
        let (Ok(slot) | Err(slot)) = found;
        self.unwritten.push((slot, self.slots.get(slot)));
        self.slots
            .set(slot, &encode_slot(key.0, pack_loc(shard, offset)));
        self.len += u64::from(found.is_err());
        Ok(())
    }

    /// Writes the slots taken since the last slot write to `index.bin`,
    /// in slot order, one positioned write per run of the table in which
    /// each taken slot is at most [`RUN_GAP`] bytes past the one before.
    /// On an error, the slots not yet written get back what they held, so
    /// the resident table and the entry count again match the file.
    fn write_slots(&mut self) -> io::Result<()> {
        self.unwritten.sort_unstable_by_key(|&(slot, _)| slot);
        let mut written = 0;
        let mut result = Ok(());
        while let Some(&(first, _)) = self.unwritten.get(written) {
            let mut last = first;
            let mut end = written + 1;
            while let Some(&(slot, _)) = self.unwritten.get(end) {
                if (slot - last - 1) * SLOT_LEN > RUN_GAP {
                    break;
                }
                (last, end) = (slot, end + 1);
            }
            result = self
                .index
                .write_all_at(self.slots.bytes(first, last), HEADER_LEN + first * SLOT_LEN);
            if result.is_err() {
                break;
            }
            written = end;
        }
        for &(slot, (key, loc)) in &self.unwritten[written..] {
            // A slot that was free added an entry.
            self.len -= u64::from(loc == 0);
            self.slots.set(slot, &encode_slot(key, loc));
        }
        self.unwritten.clear();
        result
    }

    /// Entries currently indexed.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of record shards.
    pub fn shard_count(&self) -> u32 {
        self.shards.len() as u32
    }

    /// Slot capacity of the index (a power of two).
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> u64 {
        self.slots.capacity()
    }

    /// What open had to repair, if anything.
    pub fn recovery(&self) -> CacheRecovery {
        self.recovery
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Looks up `key`: a probe of the resident index plus a record read
    /// through the shard's window, which costs no I/O when the window
    /// already holds the record — O(1) whatever the cache size. A record
    /// that fails validation (torn by an unclean shutdown the index
    /// survived) reads as a miss. It is a batched read of one key.
    pub fn get(&self, key: CellKey) -> io::Result<Option<SimOutcome>> {
        let [hit] = self.get_batch(&[key])?;
        Ok(hit)
    }

    /// Where the index puts `key`'s record: its shard, offset and the
    /// shard's indexed length. `None` when the key is not indexed, or its
    /// entry lies past its shard's end or names no shard.
    fn locate(&self, key: CellKey) -> Option<(usize, u64, u64)> {
        let (shard, offset) = self.probe(key)?;
        let shard_len = *self.shard_lens.get(shard as usize)?;
        (shard_len.saturating_sub(offset) >= RECORD_LEN as u64).then_some((
            shard as usize,
            offset,
            shard_len,
        ))
    }

    /// Looks up `N` keys (at most [`READ_BATCH`]), answering each as
    /// [`BinaryCache::get`] would. The records are copied out of their
    /// shard windows in key order, so the windows read what `N` calls of
    /// `get` read, and their checksums are folded in one interleaved
    /// pass: each record's FNV-1a is a chain of dependent multiplies, and
    /// taking the records a byte at a time in turn keeps `N` chains in
    /// flight where one record alone waits on every multiply. A key the
    /// index does not locate is a miss without a record to check: a batch
    /// of such keys reads nothing, and in a batch that locates only some
    /// of its keys, each located record is checked on its own.
    pub(crate) fn get_batch<const N: usize>(
        &self,
        keys: &[CellKey; N],
    ) -> io::Result<[Option<SimOutcome>; N]> {
        const { assert!(N <= READ_BATCH) };
        let mut records = [[0u8; RECORD_LEN]; N];
        let mut located = [false; N];
        let mut windows = self.windows.borrow_mut();
        for ((record, found), &key) in records.iter_mut().zip(&mut located).zip(keys) {
            if let Some((s, offset, shard_len)) = self.locate(key) {
                record.copy_from_slice(windows[s].record(&self.shards[s], offset, shard_len)?);
                *found = true;
            }
        }
        drop(windows);
        let hit = |k: usize, decoded: Option<(CellKey, SimOutcome)>| match decoded {
            Some((recorded_key, outcome)) if recorded_key == keys[k] => Some(outcome),
            _ => None,
        };
        if located.contains(&false) {
            return Ok(std::array::from_fn(|k| {
                located[k]
                    .then(|| hit(k, decode_record(&records[k])))
                    .flatten()
            }));
        }
        let mut lanes = [Fnv1a::new(); N];
        for at in 0..RECORD_BODY {
            for (lane, record) in lanes.iter_mut().zip(&records) {
                lane.update(&record[at..=at]);
            }
        }
        Ok(std::array::from_fn(|k| {
            hit(k, decode_checked(&records[k], lanes[k].finish()))
        }))
    }

    /// Records `outcome` under `key`, reporting what happened: appending
    /// the record to `key mod shard_count`'s shard, then indexing it.
    /// Re-inserting an identical entry is a no-op. A key that already maps
    /// to a different outcome is a [`CacheInsert::Conflict`] — the purity
    /// contract broke somewhere (a stale cache surviving a code change,
    /// file corruption, or nondeterminism in the simulation itself) — and
    /// the existing entry wins.
    pub fn insert_checked(&mut self, key: CellKey, outcome: SimOutcome) -> io::Result<CacheInsert> {
        let mut inserted = CacheInsert::Inserted;
        self.append([(key, &outcome, None)], |_, verdict| inserted = verdict)?;
        Ok(inserted)
    }

    /// Records a batch of entries as [`BinaryCache::insert_checked`] of
    /// each in turn would, byte for byte, calling `verdict(position,
    /// verdict)` for each entry in batch order before it is written. An
    /// entry may bring its record, `encode_record`'s bytes for its key and
    /// outcome, encoded earlier; the others are encoded here. A key
    /// repeated in the batch is checked against its first copy, as a later
    /// insert would be against the cache, and appends no record. Each
    /// [`APPEND_CHUNK`] of new records goes out in one positioned write per
    /// shard, then one write per run of the slots they took, then the
    /// header — the order of a single insert, so a crash anywhere leaves a
    /// state open repairs. The index grows at the insert where inserting
    /// one by one grows it, so the slot table's bytes are theirs too.
    pub(crate) fn append<'a>(
        &mut self,
        entries: impl IntoIterator<Item = Entry<'a>>,
        mut verdict: impl FnMut(usize, CacheInsert),
    ) -> io::Result<()> {
        let mut entries = entries.into_iter().enumerate().peekable();
        let mut staged = std::mem::take(&mut self.staged);
        let mut appended = Ok(());
        while appended.is_ok() && entries.peek().is_some() {
            appended = self
                .stage(&mut staged, &mut entries, &mut verdict)
                .and_then(|()| self.write_staged(&staged));
        }
        self.staged = staged;
        appended
    }

    /// Classifies entries against the cache and the chunk so far, and
    /// encodes the new ones into `staged`, until [`APPEND_CHUNK`] bytes of
    /// records are staged or the entries run out.
    fn stage<'a>(
        &self,
        staged: &mut Staged,
        entries: &mut impl Iterator<Item = (usize, Entry<'a>)>,
        verdict: &mut impl FnMut(usize, CacheInsert),
    ) -> io::Result<()> {
        staged.clear(self.shards.len());
        for (position, (key, outcome, record)) in entries {
            let existing = match staged.seen[staged.find(key)] {
                UNSEEN => self.get(key)?,
                i => {
                    let (_, shard, offset) = staged.slots[i as usize];
                    let at = (offset - self.shard_lens[shard as usize]) as usize;
                    decode_record(&staged.records[shard as usize][at..]).map(|(_, o)| o)
                }
            };
            verdict(
                position,
                match existing {
                    Some(existing) if existing == *outcome => CacheInsert::Duplicate,
                    Some(_) => CacheInsert::Conflict,
                    None => {
                        let shard = self.shard_of(key);
                        let staged_len = staged.records[shard as usize].len() as u64;
                        let offset = self.shard_lens[shard as usize] + staged_len;
                        let record = record
                            .copied()
                            .unwrap_or_else(|| encode_record(key, outcome));
                        staged.push(key, shard, offset, &record);
                        CacheInsert::Inserted
                    }
                },
            );
            if staged.slots.len() * RECORD_LEN >= APPEND_CHUNK {
                break;
            }
        }
        Ok(())
    }

    /// Writes what [`BinaryCache::stage`] staged: records, slots, header.
    /// The shards' indexed lengths move only once the header holds them.
    fn write_staged(&mut self, staged: &Staged) -> io::Result<()> {
        if staged.slots.is_empty() {
            return Ok(());
        }
        for (s, records) in staged.records.iter().enumerate() {
            if !records.is_empty() {
                self.shards[s].write_all_at(records, self.shard_lens[s])?;
            }
        }
        for &(key, shard, offset) in &staged.slots {
            self.index_slot(key, shard, offset)?;
        }
        self.write_slots()?;
        for (len, records) in self.shard_lens.iter_mut().zip(&staged.records) {
            *len += records.len() as u64;
        }
        let header = self.write_header();
        if header.is_err() {
            for (len, records) in self.shard_lens.iter_mut().zip(&staged.records) {
                *len -= records.len() as u64;
            }
        }
        header
    }

    /// The shard a key's record lands in (for telemetry).
    pub(crate) fn shard_of(&self, key: CellKey) -> u32 {
        (key.0 % self.shards.len() as u64) as u32
    }

    /// Every indexed entry, by sequential shard scan in `(shard, offset)`
    /// order — the O(file) path, used only by export tooling. A record the
    /// index does not point at (a second copy of an indexed key's record)
    /// is skipped, so each key appears once, with the outcome `get` serves.
    pub fn entries(&self) -> io::Result<Vec<(CellKey, SimOutcome)>> {
        let mut out = Vec::with_capacity(self.len as usize);
        for s in 0..self.shards.len() {
            let bytes = fs::read(Self::shard_path(&self.dir, s as u32))?;
            let mut offset = 0usize;
            while offset + RECORD_LEN <= bytes.len() {
                if let Some((key, outcome)) = decode_record(&bytes[offset..offset + RECORD_LEN]) {
                    if self.probe(key) == Some((s as u32, offset as u64)) {
                        out.push((key, outcome));
                    }
                }
                offset += RECORD_LEN;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(tag: u64) -> SimOutcome {
        SimOutcome {
            malicious_total: 10,
            benign_total: 90,
            revoked_malicious: tag as u32 % 11,
            revoked_benign: 0,
            affected_before: 3.5 + tag as f64,
            affected_after: 0.1 + 0.2, // not exactly representable
            benign_alerts: tag as usize,
            collusion_alerts: 7,
            mean_requesters_per_beacon: 1.0 / 3.0,
            mean_loc_error_before_ft: tag.is_multiple_of(2).then_some(5.25),
            mean_loc_error_after_ft: None,
        }
    }

    fn scratch(label: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "secloc-bincache-{label}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn record_round_trips_bit_identically() {
        for tag in 0..4u64 {
            let key = CellKey(fnv1a(&tag.to_le_bytes()));
            let o = outcome(tag);
            let (k, decoded) = decode_record(&encode_record(key, &o)).expect("valid record");
            assert_eq!(k, key);
            assert_eq!(decoded, o);
        }
        // Corruption anywhere fails validation.
        let buf = encode_record(CellKey(42), &outcome(1));
        for at in [0usize, 5, 16, 60, 100, RECORD_LEN - 1] {
            let mut bad = buf;
            bad[at] ^= 0x40;
            assert!(decode_record(&bad).is_none(), "byte {at} corrupt");
        }
        assert!(decode_record(&buf[..RECORD_LEN - 1]).is_none(), "short");
    }

    #[test]
    fn insert_get_reopen_and_grow() {
        let dir = scratch("grow");
        let mut cache = BinaryCache::open(&dir, 4).unwrap();
        assert!(cache.recovery().clean());
        let initial_capacity = cache.capacity();
        // Insert enough entries to force at least one index growth.
        let n = initial_capacity * MAX_LOAD_NUM / MAX_LOAD_DEN + 10;
        for i in 0..n {
            let key = CellKey(fnv1a(&i.to_le_bytes()));
            assert_eq!(
                cache.insert_checked(key, outcome(i)).unwrap(),
                CacheInsert::Inserted
            );
        }
        assert!(cache.capacity() > initial_capacity, "index grew");
        assert_eq!(cache.len(), n as usize);
        for i in 0..n {
            let key = CellKey(fnv1a(&i.to_le_bytes()));
            assert_eq!(cache.get(key).unwrap(), Some(outcome(i)), "entry {i}");
        }
        assert_eq!(cache.get(CellKey(1)).unwrap(), None);
        // Duplicate and conflicting inserts report correctly.
        let key0 = CellKey(fnv1a(&0u64.to_le_bytes()));
        assert_eq!(
            cache.insert_checked(key0, outcome(0)).unwrap(),
            CacheInsert::Duplicate
        );
        assert_eq!(
            cache.insert_checked(key0, outcome(3)).unwrap(),
            CacheInsert::Conflict
        );
        assert_eq!(cache.get(key0).unwrap(), Some(outcome(0)), "original wins");
        // Reopen: everything still there, nothing to repair.
        drop(cache);
        let cache = BinaryCache::open(&dir, 0).unwrap();
        assert!(cache.recovery().clean());
        assert_eq!(cache.len(), n as usize);
        for i in 0..n {
            let key = CellKey(fnv1a(&i.to_le_bytes()));
            assert_eq!(cache.get(key).unwrap(), Some(outcome(i)));
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// Every file of a cache directory, by name.
    fn files(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
        let mut files: Vec<_> = fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let path = e.unwrap().path();
                let bytes = fs::read(&path).unwrap();
                (path.file_name().unwrap().into(), bytes)
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn one_append_leaves_the_bytes_and_verdicts_of_inserts_one_by_one() {
        // New keys, then repeats inside the batch (an equal and a
        // different outcome) and keys the cache already holds. One shard
        // whose index grows mid-batch, over two append chunks, and two
        // shards in one chunk.
        for (expected, n) in [(4usize, 800u64), (8193, 300)] {
            let key = |i: u64| CellKey(fnv1a(&i.to_le_bytes()));
            let held = [(key(5_000), outcome(1)), (key(5_001), outcome(2))];
            let mut batch: Vec<(CellKey, SimOutcome)> =
                (0..n).map(|i| (key(i), outcome(i))).collect();
            batch.extend([
                (key(3), outcome(3)),
                (key(n - 1), outcome(n)),
                (key(5_000), outcome(1)),
                (key(5_001), outcome(9)),
                (key(3), outcome(4)),
            ]);
            let (one_by_one, batched) = (scratch("seq"), scratch("batch"));
            let mut sequential = BinaryCache::open(&one_by_one, expected).unwrap();
            let mut appended = BinaryCache::open(&batched, expected).unwrap();
            for (k, o) in &held {
                sequential.insert_checked(*k, o.clone()).unwrap();
                appended.insert_checked(*k, o.clone()).unwrap();
            }
            let want: Vec<CacheInsert> = batch
                .iter()
                .map(|(k, o)| sequential.insert_checked(*k, o.clone()).unwrap())
                .collect();
            let mut got = Vec::new();
            appended
                .append(
                    batch.iter().map(|(k, o)| (*k, o, None)),
                    |position, verdict| got.push((position, verdict)),
                )
                .unwrap();
            let got: Vec<CacheInsert> = got
                .iter()
                .enumerate()
                .map(|(i, &(p, v))| {
                    assert_eq!(p, i);
                    v
                })
                .collect();
            assert_eq!(got, want);
            assert_eq!(
                &want[n as usize..],
                [
                    CacheInsert::Duplicate,
                    CacheInsert::Conflict,
                    CacheInsert::Duplicate,
                    CacheInsert::Conflict,
                    CacheInsert::Conflict
                ]
            );
            assert_eq!(appended.len(), sequential.len());
            drop((sequential, appended));
            assert_eq!(files(&batched), files(&one_by_one), "{n} entries");
            fs::remove_dir_all(&one_by_one).ok();
            fs::remove_dir_all(&batched).ok();
        }
    }

    /// Write syscalls the calling thread has made so far
    /// (`/proc/thread-self/io`), so tests running in parallel threads do
    /// not count each other's writes.
    fn writes_so_far() -> u64 {
        let io = fs::read_to_string("/proc/thread-self/io").expect("per-thread I/O counters");
        let syscw = io.lines().find_map(|l| l.strip_prefix("syscw: "));
        syscw
            .expect("a syscw line")
            .trim()
            .parse()
            .expect("a count")
    }

    #[test]
    fn an_append_writes_each_chunk_with_three_positioned_writes() {
        // 2,000 new records into a fresh one-shard cache sized for them
        // (4,096 slots, 64 KiB of table): four chunks of at most 547
        // records. Each chunk's 359–547 slots lie within a page of each
        // other, so it goes out as one write of records, one run of slots
        // and one header. Writing slot by slot takes 2,008 writes.
        let dir = scratch("writes");
        let mut cache = BinaryCache::open(&dir, 2000).unwrap();
        assert_eq!((cache.shard_count(), cache.capacity()), (1, 4096));
        let entries: Vec<(CellKey, SimOutcome)> = (0..2000u64)
            .map(|i| (CellKey(fnv1a(&i.to_le_bytes())), outcome(i)))
            .collect();
        let before = writes_so_far();
        cache
            .append(entries.iter().map(|(k, o)| (*k, o, None)), |_, verdict| {
                assert_eq!(verdict, CacheInsert::Inserted)
            })
            .unwrap();
        assert_eq!(writes_so_far() - before, 12);
        drop(cache);
        let reopened = BinaryCache::open(&dir, 0).unwrap();
        assert!(reopened.recovery().clean());
        for (key, outcome) in &entries {
            assert_eq!(reopened.get(*key).unwrap().as_ref(), Some(outcome));
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_slot_write_leaves_the_handle_as_index_bin_holds_it() {
        // Two shards; 300 entries held, one of them flipped so that the
        // failing append re-indexes it over its own slot rather than a
        // free one.
        let dir = scratch("readonly");
        let key = |i: u64| CellKey(fnv1a(&i.to_le_bytes()));
        let mut cache = BinaryCache::open(&dir, 8193).unwrap();
        let held: Vec<(CellKey, SimOutcome)> = (0..300).map(|i| (key(i), outcome(i))).collect();
        cache
            .append(held.iter().map(|(k, o)| (*k, o, None)), |_, _| {})
            .unwrap();
        let (shard, offset) = cache.probe(key(7)).unwrap();
        let garbage = [0xAB; 4];
        cache.shards[shard as usize]
            .write_all_at(&garbage, offset + 30)
            .unwrap();
        let answers = |cache: &BinaryCache| -> Vec<Option<SimOutcome>> {
            held.iter().map(|(k, _)| cache.get(*k).unwrap()).collect()
        };
        let before = answers(&cache);
        assert_eq!(before.iter().filter(|a| a.is_none()).count(), 1);
        let state =
            |cache: &BinaryCache| (cache.slots.0.clone(), cache.len, cache.shard_lens.clone());
        let held_state = state(&cache);

        // Slot writes now fail; record writes still land.
        cache.index = fs::File::open(dir.join("index.bin")).unwrap();
        let fresh: Vec<(CellKey, SimOutcome)> = (300..700)
            .chain([7])
            .map(|i| (key(i), outcome(i)))
            .collect();
        assert!(cache
            .append(fresh.iter().map(|(k, o)| (*k, o, None)), |_, _| {})
            .is_err());
        let file = fs::read(dir.join("index.bin")).unwrap();
        let (header, slots) = file.split_at(HEADER_LEN as usize);
        assert!(
            cache.slots.0 == slots,
            "resident slots differ from index.bin"
        );
        assert_eq!(cache.len, cache.slots.occupied().count() as u64);
        let indexed: Vec<u64> = (0..2).map(|s| get_u64(header, 40 + s * 8)).collect();
        assert_eq!(cache.shard_lens, indexed);
        assert!(state(&cache) == held_state, "the handle moved");
        assert_eq!(answers(&cache), before);

        // Reopened, every earlier key answers as before, and the failed
        // append's records, past the indexed lengths, are re-indexed.
        drop(cache);
        let reopened = BinaryCache::open(&dir, 0).unwrap();
        assert_eq!(answers(&reopened), before);
        assert_eq!(reopened.recovery().reindexed, fresh.len());
        assert_eq!(reopened.get(key(500)).unwrap(), Some(outcome(500)));
        fs::remove_dir_all(&dir).ok();
    }

    /// `get` one record at a time, as it read before batches: the index
    /// probe, the record read straight from its shard file, and the
    /// sequential checksum.
    fn get_one_by_one(cache: &BinaryCache, key: CellKey) -> Option<SimOutcome> {
        let (shard, offset) = cache.probe(key)?;
        let shard_len = *cache.shard_lens.get(shard as usize)?;
        if shard_len.saturating_sub(offset) < RECORD_LEN as u64 {
            return None;
        }
        let mut buf = [0u8; RECORD_LEN];
        cache.shards[shard as usize]
            .read_exact_at(&mut buf, offset)
            .ok()?;
        decode_record(&buf)
            .filter(|(recorded, _)| *recorded == key)
            .map(|(_, o)| o)
    }

    #[test]
    fn a_batched_read_answers_like_get_key_by_key() {
        // Two shards of ~100 records each, about three windows per shard.
        let dir = scratch("batch-read");
        let key = |i: u64| CellKey(fnv1a(&i.to_le_bytes()));
        let mut cache = BinaryCache::open(&dir, 8193).unwrap();
        assert_eq!(cache.shard_count(), 2);
        let n = 200u64;
        cache
            .append(
                (0..n)
                    .map(|i| (key(i), outcome(i)))
                    .collect::<Vec<_>>()
                    .iter()
                    .map(|(k, o)| (*k, o, None)),
                |_, _| {},
            )
            .unwrap();
        // Flip one byte in the records at positions 40, 5, 10 and 15 of
        // the key order below, one per lane of a batch of four.
        for (i, at) in [(40u64, 16usize), (5, 60), (10, 100), (15, RECORD_LEN - 1)] {
            let (shard, offset) = cache.probe(key(i)).unwrap();
            let mut byte = [0u8];
            cache.shards[shard as usize]
                .read_exact_at(&mut byte, offset + at as u64)
                .unwrap();
            byte[0] ^= 0x20;
            cache.shards[shard as usize]
                .write_all_at(&byte, offset + at as u64)
                .unwrap();
        }
        drop(cache);
        let cache = BinaryCache::open(&dir, 0).unwrap();
        assert!(cache.recovery().clean());

        // Keys in insertion order, then misses mixed in, then a scramble
        // with repeats, read in batches of one to four.
        let mut keys: Vec<CellKey> = (0..n).map(key).collect();
        keys.extend((0..n).map(|i| key(if i % 3 == 0 { n + i } else { i })));
        let mut state = 0x5eed_u64;
        keys.extend((0..2 * n).map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            key((state >> 33) % (n + 20))
        }));
        let want: Vec<Option<SimOutcome>> =
            keys.iter().map(|&k| get_one_by_one(&cache, k)).collect();
        for (i, want) in want.iter().enumerate().take(n as usize) {
            let flipped = [5, 10, 15, 40].contains(&i);
            assert_eq!(want.is_none(), flipped, "key {i}");
        }
        let read = |batch: &[CellKey]| -> Vec<Option<SimOutcome>> {
            match batch.len() {
                1 => cache
                    .get_batch::<1>(batch.try_into().unwrap())
                    .unwrap()
                    .to_vec(),
                2 => cache
                    .get_batch::<2>(batch.try_into().unwrap())
                    .unwrap()
                    .to_vec(),
                3 => cache
                    .get_batch::<3>(batch.try_into().unwrap())
                    .unwrap()
                    .to_vec(),
                _ => cache
                    .get_batch::<4>(batch.try_into().unwrap())
                    .unwrap()
                    .to_vec(),
            }
        };
        let mut spans_shards_and_a_refill = false;
        for size in 1..=READ_BATCH {
            for (at, batch) in (0..).step_by(size).zip(keys.chunks(size)) {
                assert_eq!(
                    read(batch),
                    want[at..at + batch.len()],
                    "batch at {at} of {size}"
                );
                let located: Vec<(u32, u64)> =
                    batch.iter().filter_map(|&k| cache.probe(k)).collect();
                spans_shards_and_a_refill |= located.iter().any(|l| l.0 == 0)
                    && located.iter().any(|l| l.0 == 1)
                    && located.iter().any(|l| l.1 == 34 * RECORD_LEN as u64);
            }
        }
        assert!(spans_shards_and_a_refill);
        for (k, want) in keys.iter().zip(&want) {
            assert_eq!(&cache.get(*k).unwrap(), want);
        }
        assert_eq!(cache.get_batch(&[]).unwrap(), []);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_count_scales_with_grid() {
        assert_eq!(shard_count_for(0), 1);
        assert_eq!(shard_count_for(100), 1);
        assert_eq!(shard_count_for(8192), 1);
        assert_eq!(shard_count_for(8193), 2);
        assert_eq!(shard_count_for(100_000), 16);
        assert_eq!(shard_count_for(1_000_000), 128);
        assert_eq!(shard_count_for(usize::MAX), MAX_SHARDS);
    }
}
