//! Sharded, indexed, binary result cache for million-cell sweeps.
//!
//! The JSONL [`ResultCache`](crate::orchestrator::ResultCache) loads (and
//! therefore parses) its entire file on open, so a warm start over a
//! 10^6-cell cache pays O(file) before the first cell is served. This
//! module replaces that with an on-disk structure whose warm-start cost is
//! O(probed cells): a directory of fixed-width record shards plus a
//! persistent open-addressing hash index mapping FNV cell keys to
//! `(shard, offset)`. Nothing is replayed on open — lookups probe the
//! index file directly, so latency is independent of how many dead cells
//! (entries outside the current grid) the cache has accumulated.
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
//! An insert (1) appends the record to its shard — `shard = key mod
//! shard_count` — then (2) writes the slot and (3) bumps the header's
//! entry count and the shard's indexed length. A crash at any point
//! leaves a recoverable file:
//!
//! - cut inside (1): the shard's tail record fails its length/checksum
//!   validation on open and is truncated away (the index never knew it);
//! - cut between (1) and (3): the shard is longer than its indexed
//!   length, so open re-scans just that tail and re-indexes it — O(tail),
//!   not O(file);
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
use secloc_obs::fnv1a;
use std::fs;
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
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
/// Slots read per probe I/O (one 128-byte read covers a typical cluster).
const PROBE_BATCH: usize = 8;

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

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

// `&File` implements `Seek`/`Read`/`Write`, so positioned I/O needs no
// `&mut` — but it *does* move the file's shared cursor, so a cache handle
// must not be probed from two threads at once (the orchestrator only ever
// touches it from the merge thread).
fn read_exact_at(file: &fs::File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    let mut f = file;
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(buf)
}

fn write_all_at(file: &fs::File, buf: &[u8], offset: u64) -> io::Result<()> {
    let mut f = file;
    f.seek(SeekFrom::Start(offset))?;
    f.write_all(buf)
}

fn put_u64(buf: &mut [u8], at: usize, v: u64) {
    buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

fn get_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes"))
}

/// Encodes one outcome as a fixed-width record.
fn encode_record(key: CellKey, o: &SimOutcome) -> [u8; RECORD_LEN] {
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
    if buf.len() < RECORD_LEN {
        return None;
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().ok()?);
    let magic = u32::from_le_bytes(buf[4..8].try_into().ok()?);
    if len as usize != RECORD_LEN || magic != RECORD_MAGIC {
        return None;
    }
    if fnv1a(&buf[..RECORD_BODY]) != get_u64(buf, RECORD_BODY) {
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

/// The sharded, indexed binary result cache. See the module docs for the
/// on-disk format and crash discipline. All I/O is positioned reads and
/// writes against the live files — `get` never loads the cache into
/// memory, so open and lookup costs are independent of cache size.
#[derive(Debug)]
pub struct BinaryCache {
    dir: PathBuf,
    index: fs::File,
    shards: Vec<fs::File>,
    /// Current byte length of each shard file (all records are valid up
    /// to here once open-time recovery finishes).
    shard_lens: Vec<u64>,
    capacity: u64,
    len: u64,
    shard_count: u32,
    recovery: CacheRecovery,
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
                "{} is a file; a binary cache is a directory (use the JSONL \
                 format for .jsonl files)",
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

    fn create(dir: &Path, expected_cells: usize) -> io::Result<Self> {
        let shard_count = shard_count_for(expected_cells);
        let capacity = slot_capacity_for(expected_cells as u64);
        let index = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(dir.join("index.bin"))?;
        index.set_len(HEADER_LEN + capacity * SLOT_LEN)?;
        let mut cache = BinaryCache {
            dir: dir.to_path_buf(),
            index,
            shards: Vec::new(),
            shard_lens: vec![0; shard_count as usize],
            capacity,
            len: 0,
            shard_count,
            recovery: CacheRecovery::default(),
        };
        cache.open_shards()?;
        cache.write_header()?;
        Ok(cache)
    }

    /// Opens an existing index; `Ok(None)` means the header is unusable
    /// and the caller should rebuild from the shards.
    fn open_existing(dir: &Path) -> io::Result<Option<Self>> {
        let index = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(dir.join("index.bin"))?;
        let mut header = [0u8; HEADER_LEN as usize];
        if read_exact_at(&index, &mut header, 0).is_err() {
            return Ok(None); // shorter than a header: rebuild
        }
        let magic = get_u64(&header, 0);
        let version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        let shard_count = u32::from_le_bytes(header[12..16].try_into().expect("4 bytes"));
        let capacity = get_u64(&header, 16);
        let len = get_u64(&header, 24);
        let usable = magic == INDEX_MAGIC
            && version == INDEX_VERSION
            && (1..=MAX_SHARDS).contains(&shard_count)
            && capacity.is_power_of_two()
            && index.metadata()?.len() == HEADER_LEN + capacity * SLOT_LEN;
        if !usable {
            return Ok(None);
        }
        let shard_lens: Vec<u64> = (0..shard_count as usize)
            .map(|s| get_u64(&header, 40 + s * 8))
            .collect();
        let mut cache = BinaryCache {
            dir: dir.to_path_buf(),
            index,
            shards: Vec::new(),
            shard_lens,
            capacity,
            len,
            shard_count,
            recovery: CacheRecovery::default(),
        };
        cache.open_shards()?;
        Ok(Some(cache))
    }

    fn shard_path(dir: &Path, shard: u32) -> PathBuf {
        dir.join(format!("shard-{shard:03}.bin"))
    }

    fn open_shards(&mut self) -> io::Result<()> {
        self.shards = (0..self.shard_count)
            .map(|s| {
                fs::OpenOptions::new()
                    .read(true)
                    .write(true)
                    .create(true)
                    // Re-opening an existing shard must keep its records.
                    .truncate(false)
                    .open(Self::shard_path(&self.dir, s))
            })
            .collect::<io::Result<_>>()?;
        Ok(())
    }

    fn write_header(&mut self) -> io::Result<()> {
        // Only the used prefix is written — this runs once per insert, and
        // the bytes past the last shard length are zeros from file
        // creation and never change.
        let used = 40 + self.shard_lens.len() * 8;
        let mut header = vec![0u8; used];
        put_u64(&mut header, 0, INDEX_MAGIC);
        header[8..12].copy_from_slice(&INDEX_VERSION.to_le_bytes());
        header[12..16].copy_from_slice(&self.shard_count.to_le_bytes());
        put_u64(&mut header, 16, self.capacity);
        put_u64(&mut header, 24, self.len);
        for (s, &len) in self.shard_lens.iter().enumerate() {
            put_u64(&mut header, 40 + s * 8, len);
        }
        write_all_at(&self.index, &header, 0)
    }

    /// Validates every shard against its indexed length: re-indexes valid
    /// tail records the index missed, truncates invalid tails, and falls
    /// back to a full rebuild when the index is *ahead* of a shard (the
    /// shard lost bytes behind the index's back).
    fn recover_tails(&mut self) -> io::Result<()> {
        for s in 0..self.shard_count as usize {
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
        for s in 0..self.shard_count as usize {
            let actual = self.shards[s].metadata()?.len();
            let mut offset = self.shard_lens[s];
            while offset < actual {
                let mut buf = [0u8; RECORD_LEN];
                let intact = actual - offset >= RECORD_LEN as u64
                    && read_exact_at(&self.shards[s], &mut buf, offset).is_ok();
                match intact.then(|| decode_record(&buf)).flatten() {
                    Some((key, _outcome)) => {
                        // A crash landed between the record append and the
                        // index update; finish the insert idempotently.
                        if self.probe(key)?.is_none() {
                            self.index_entry(key, s as u32, offset)?;
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
        }
        let capacity = slot_capacity_for(entries.len() as u64 + expected_cells as u64);
        let tmp_path = dir.join("index.rebuild");
        {
            let tmp = fs::OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp_path)?;
            tmp.set_len(HEADER_LEN + capacity * SLOT_LEN)?;
            let mut slots = vec![0u8; (capacity * SLOT_LEN) as usize];
            let mut len = 0u64;
            for &(key, shard, offset) in &entries {
                let mut slot = home_slot(key.0, capacity);
                loop {
                    let at = (slot * SLOT_LEN) as usize;
                    let loc = get_u64(&slots, at + 8);
                    if loc == 0 {
                        put_u64(&mut slots, at, key.0);
                        put_u64(&mut slots, at + 8, (u64::from(shard) << 48) | (offset + 1));
                        len += 1;
                        break;
                    }
                    if get_u64(&slots, at) == key.0 {
                        break; // duplicate record (re-appended after a crash)
                    }
                    slot = (slot + 1) & (capacity - 1);
                }
            }
            let mut header = [0u8; HEADER_LEN as usize];
            put_u64(&mut header, 0, INDEX_MAGIC);
            header[8..12].copy_from_slice(&INDEX_VERSION.to_le_bytes());
            header[12..16].copy_from_slice(&shard_count.to_le_bytes());
            put_u64(&mut header, 16, capacity);
            put_u64(&mut header, 24, len);
            write_all_at(&tmp, &header, 0)?;
            write_all_at(&tmp, &slots, HEADER_LEN)?;
            tmp.sync_all()?;
        }
        fs::rename(&tmp_path, dir.join("index.bin"))?;
        let mut cache =
            Self::open_existing(dir)?.ok_or_else(|| bad_data("rebuilt index unusable".into()))?;
        // The rebuild scanned the full shards, so the index is consistent
        // with their current lengths.
        for s in 0..cache.shard_count as usize {
            cache.shard_lens[s] = cache.shards[s].metadata()?.len();
        }
        cache.recovery = CacheRecovery {
            reindexed: 0,
            truncated_bytes: truncated,
            rebuilt_index: true,
        };
        cache.write_header()?;
        Ok(cache)
    }

    /// Grows the index when `additional` more entries would push the load
    /// factor past the limit. Growth rebuilds the slot array from the
    /// *index* (not the shards): O(capacity), amortized over inserts.
    fn reserve(&mut self, additional: u64) -> io::Result<()> {
        let needed = slot_capacity_for(self.len + additional);
        if needed <= self.capacity {
            return Ok(());
        }
        let old_capacity = self.capacity;
        let mut old_slots = vec![0u8; (old_capacity * SLOT_LEN) as usize];
        read_exact_at(&self.index, &mut old_slots, HEADER_LEN)?;
        let mut new_slots = vec![0u8; (needed * SLOT_LEN) as usize];
        for i in 0..old_capacity {
            let at = (i * SLOT_LEN) as usize;
            let loc = get_u64(&old_slots, at + 8);
            if loc == 0 {
                continue;
            }
            let key = get_u64(&old_slots, at);
            let mut slot = home_slot(key, needed);
            loop {
                let new_at = (slot * SLOT_LEN) as usize;
                if get_u64(&new_slots, new_at + 8) == 0 {
                    put_u64(&mut new_slots, new_at, key);
                    put_u64(&mut new_slots, new_at + 8, loc);
                    break;
                }
                slot = (slot + 1) & (needed - 1);
            }
        }
        self.capacity = needed;
        let tmp_path = self.dir.join("index.rebuild");
        {
            let tmp = fs::OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp_path)?;
            tmp.set_len(HEADER_LEN + needed * SLOT_LEN)?;
            write_all_at(&tmp, &new_slots, HEADER_LEN)?;
            self.index = tmp;
            self.write_header()?;
            self.index.sync_all()?;
        }
        fs::rename(&tmp_path, self.dir.join("index.bin"))?;
        Ok(())
    }

    /// Probes the index for `key`: `Some((shard, offset))` when present.
    fn probe(&self, key: CellKey) -> io::Result<Option<(u32, u64)>> {
        let mut slot = home_slot(key.0, self.capacity);
        let mut buf = [0u8; PROBE_BATCH * SLOT_LEN as usize];
        let mut probed = 0u64;
        while probed < self.capacity {
            // One read covers PROBE_BATCH consecutive slots (clamped at
            // the table's end; probing wraps around).
            let batch = PROBE_BATCH.min((self.capacity - slot) as usize);
            read_exact_at(
                &self.index,
                &mut buf[..batch * SLOT_LEN as usize],
                HEADER_LEN + slot * SLOT_LEN,
            )?;
            for i in 0..batch {
                let at = i * SLOT_LEN as usize;
                let loc = get_u64(&buf, at + 8);
                if loc == 0 {
                    return Ok(None);
                }
                if get_u64(&buf, at) == key.0 {
                    let shard = (loc >> 48) as u32;
                    let offset = (loc & 0xFFFF_FFFF_FFFF) - 1;
                    return Ok(Some((shard, offset)));
                }
            }
            probed += batch as u64;
            slot = (slot + batch as u64) & (self.capacity - 1);
        }
        Ok(None)
    }

    /// Writes one slot + header update for an entry already appended to
    /// its shard at `offset`.
    fn index_entry(&mut self, key: CellKey, shard: u32, offset: u64) -> io::Result<()> {
        self.reserve(1)?;
        let mut slot = home_slot(key.0, self.capacity);
        let mut buf = [0u8; SLOT_LEN as usize];
        loop {
            read_exact_at(&self.index, &mut buf, HEADER_LEN + slot * SLOT_LEN)?;
            if get_u64(&buf, 8) == 0 || get_u64(&buf, 0) == key.0 {
                break;
            }
            slot = (slot + 1) & (self.capacity - 1);
        }
        put_u64(&mut buf, 0, key.0);
        put_u64(&mut buf, 8, (u64::from(shard) << 48) | (offset + 1));
        write_all_at(&self.index, &buf, HEADER_LEN + slot * SLOT_LEN)?;
        self.len += 1;
        self.shard_lens[shard as usize] =
            self.shard_lens[shard as usize].max(offset + RECORD_LEN as u64);
        self.write_header()
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
        self.shard_count
    }

    /// Slot capacity of the index (a power of two).
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> u64 {
        self.capacity
    }

    /// What open had to repair, if anything.
    pub fn recovery(&self) -> CacheRecovery {
        self.recovery
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Looks up `key`: one index probe plus one record read — O(1)
    /// whatever the cache size. A record that fails validation (torn by
    /// an unclean shutdown the index survived) reads as a miss.
    pub fn get(&self, key: CellKey) -> io::Result<Option<SimOutcome>> {
        let Some((shard, offset)) = self.probe(key)? else {
            return Ok(None);
        };
        if shard >= self.shard_count || offset + RECORD_LEN as u64 > self.shard_lens[shard as usize]
        {
            return Ok(None); // index ahead of the shard; treat as a miss
        }
        let mut buf = [0u8; RECORD_LEN];
        read_exact_at(&self.shards[shard as usize], &mut buf, offset)?;
        match decode_record(&buf) {
            Some((recorded_key, outcome)) if recorded_key == key => Ok(Some(outcome)),
            _ => Ok(None),
        }
    }

    /// Records `outcome` under `key`, reporting what happened (the same
    /// contract as `ResultCache::insert_checked`): appending the record to
    /// `key mod shard_count`'s shard, then indexing it. Re-inserting an
    /// identical entry is a no-op; a key that already maps to a different
    /// outcome is a [`CacheInsert::Conflict`] and the existing entry wins.
    pub fn insert_checked(&mut self, key: CellKey, outcome: SimOutcome) -> io::Result<CacheInsert> {
        if let Some(existing) = self.get(key)? {
            return Ok(if existing == outcome {
                CacheInsert::Duplicate
            } else {
                CacheInsert::Conflict
            });
        }
        let shard = (key.0 % u64::from(self.shard_count)) as u32;
        let offset = self.shard_lens[shard as usize];
        let record = encode_record(key, &outcome);
        write_all_at(&self.shards[shard as usize], &record, offset)?;
        self.index_entry(key, shard, offset)
            .map(|()| CacheInsert::Inserted)
    }

    /// The shard a key's record lands in (for telemetry).
    pub(crate) fn shard_of(&self, key: CellKey) -> u32 {
        (key.0 % u64::from(self.shard_count)) as u32
    }

    /// Every entry, by sequential shard scan in `(shard, offset)` order —
    /// the O(file) path, used only by export/migration tooling.
    pub fn entries(&self) -> io::Result<Vec<(CellKey, SimOutcome)>> {
        let mut out = Vec::with_capacity(self.len as usize);
        for s in 0..self.shard_count as usize {
            let bytes = fs::read(Self::shard_path(&self.dir, s as u32))?;
            let mut offset = 0usize;
            while offset + RECORD_LEN <= bytes.len() {
                if let Some(entry) = decode_record(&bytes[offset..offset + RECORD_LEN]) {
                    out.push(entry);
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
