//! Crash-recovery and determinism guarantees of the sharded binary result
//! cache (`secloc_sim::cache`):
//!
//! - every externally inducible corruption — a garbage tail appended to a
//!   shard, a record torn in half, a deleted index, a shard truncated
//!   behind the index's back, an index that missed the last appends — is
//!   repaired on open and costs at most the damaged entries;
//! - scheduling is invisible in the bytes: serial, multi-worker and
//!   kill-anywhere-resume sweeps produce byte-identical checkpoints *and*
//!   byte-identical cache directories (index + every shard);
//! - the in-memory slot table and the per-shard read windows never serve
//!   what the files would not: a live handle, a reopened one and one
//!   rebuilt from the shards answer every lookup alike;
//! - units of several cells, whose results reach the cache as batched
//!   appends, leave the bytes cell-by-cell inserts leave, and a crash
//!   inside a batch costs only the records it tore;
//! - a warm sweep, which checks its records four at a time, reads a
//!   flipped record as a miss in any position of a batch and re-runs just
//!   that cell.

use proptest::prelude::*;
use secloc_obs::{fnv1a, MemorySink, Obs, Value};
use secloc_sim::cache::RECORD_LEN;
use secloc_sim::orchestrator::{cell_key, code_version_tag, export_jsonl, CacheInsert, CellKey};
use secloc_sim::{BinaryCache, Orchestrator, RunOptions, Runner, SimConfig, SimOutcome, SweepSpec};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn tiny(attacker_p: f64) -> SimConfig {
    SimConfig {
        nodes: 120,
        beacons: 12,
        malicious: 3,
        attacker_p,
        ..SimConfig::paper_default()
    }
}

fn grid() -> SweepSpec {
    SweepSpec::product(&[tiny(0.3), tiny(0.7)], &[1, 2, 3])
}

/// A τ × τ′ policy grid over three seeds: the six policies of a seed
/// share one probe stage, so each scheduling unit has six cells and the
/// frontier takes most of them in one advance.
fn policy_grid() -> SweepSpec {
    let mut configs = Vec::new();
    for tau in [1u32, 2, 3] {
        for tau_prime in [1u32, 2] {
            configs.push(SimConfig {
                tau,
                tau_prime,
                ..tiny(0.5)
            });
        }
    }
    SweepSpec::product(&configs, &[1, 2, 3])
}

/// τ × p over three seeds: a seed's six cells form two units of three
/// cells, one per p (one probe fingerprint each), and the two units share
/// the seed's deployment, the first to run generating it and the other
/// re-keying it.
fn tau_p_grid() -> SweepSpec {
    let mut configs = Vec::new();
    for tau in [1u32, 2, 3] {
        for attacker_p in [0.3, 0.7] {
            configs.push(SimConfig {
                tau,
                ..tiny(attacker_p)
            });
        }
    }
    SweepSpec::product(&configs, &[1, 2, 3])
}

/// One checkpointed, cached sweep of `spec` into `dir`; returns the
/// checkpoint bytes and the cache directory.
fn checkpointed_sweep(
    dir: &Path,
    label: &str,
    spec: &SweepSpec,
    workers: usize,
) -> (Vec<u8>, PathBuf) {
    let ckpt = dir.join(format!("{label}.ckpt.jsonl"));
    let cache = dir.join(format!("{label}.cache.bin"));
    Orchestrator::new()
        .workers(workers)
        .checkpoint(&ckpt)
        .cache(&cache)
        .run(spec)
        .unwrap();
    (fs::read(&ckpt).unwrap(), cache)
}

/// The cache directory cell-by-cell `insert_checked` calls leave: opened
/// as a sweep opens it, then every cell's outcome inserted in cell order.
fn inserted_in_cell_order(dir: &Path, spec: &SweepSpec, outcomes: &[SimOutcome]) -> PathBuf {
    let cache = dir.join("sequential.cache.bin");
    let mut sequential = BinaryCache::open(&cache, spec.len()).unwrap();
    let tag = code_version_tag();
    for (cell, outcome) in spec.cells().iter().zip(outcomes) {
        sequential
            .insert_checked(cell_key(&cell.config, cell.seed, &tag), outcome.clone())
            .unwrap();
    }
    cache
}

/// A unique temp dir per test — the suite runs tests in parallel.
fn scratch(label: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "secloc-cachebin-{label}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn cold_binary_sweep(dir: &Path, spec: &SweepSpec) -> PathBuf {
    let cache = dir.join("cache.bin");
    let report = Orchestrator::new()
        .workers(2)
        .cache(&cache)
        .run(spec)
        .unwrap();
    assert_eq!(report.executed, spec.len());
    assert!(report.cache_shards >= 1);
    cache
}

/// Sorted (name, bytes) of everything in a binary cache directory — the
/// equality notion for "identical cache contents".
fn dir_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    files.sort();
    files
}

fn shard_path(cache: &Path) -> PathBuf {
    cache.join("shard-000.bin")
}

#[test]
fn garbage_shard_tail_is_truncated_on_open() {
    let dir = scratch("tail");
    let spec = grid();
    let cache = cold_binary_sweep(&dir, &spec);

    // A crash mid-append leaves bytes that never form a valid record.
    let clean_len = fs::metadata(shard_path(&cache)).unwrap().len();
    let mut bytes = fs::read(shard_path(&cache)).unwrap();
    bytes.extend_from_slice(&[0xAB; 37]);
    fs::write(shard_path(&cache), &bytes).unwrap();

    let reopened = BinaryCache::open(&cache, 0).unwrap();
    assert_eq!(reopened.recovery().truncated_bytes, 37);
    assert!(!reopened.recovery().rebuilt_index);
    assert_eq!(reopened.len(), spec.len());
    assert_eq!(fs::metadata(shard_path(&cache)).unwrap().len(), clean_len);
    drop(reopened);

    // The repaired cache still serves the whole grid.
    let warm = Orchestrator::new().cache(&cache).run(&spec).unwrap();
    assert_eq!(warm.cache_hits, spec.len());
    assert_eq!(warm.executed, 0);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn mid_record_cut_costs_exactly_the_torn_record() {
    let dir = scratch("torn");
    let spec = grid();
    let cache = cold_binary_sweep(&dir, &spec);

    // Tear the last (indexed) record in half. The shard is now shorter
    // than the index believes — open must notice and rebuild.
    let len = fs::metadata(shard_path(&cache)).unwrap().len();
    fs::OpenOptions::new()
        .write(true)
        .open(shard_path(&cache))
        .unwrap()
        .set_len(len - (RECORD_LEN as u64) / 2)
        .unwrap();

    let reopened = BinaryCache::open(&cache, 0).unwrap();
    assert!(reopened.recovery().rebuilt_index);
    assert_eq!(reopened.recovery().truncated_bytes, (RECORD_LEN as u64) / 2);
    assert_eq!(reopened.len(), spec.len() - 1, "only the torn entry lost");
    drop(reopened);

    // Exactly one cell re-executes; everything else is a hit. The re-run
    // restores the cache to full coverage.
    let warm = Orchestrator::new().cache(&cache).run(&spec).unwrap();
    assert_eq!(warm.cache_hits, spec.len() - 1);
    assert_eq!(warm.executed, 1);
    let again = Orchestrator::new().cache(&cache).run(&spec).unwrap();
    assert_eq!(again.cache_hits, spec.len());
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_index_is_rebuilt_from_shards() {
    let dir = scratch("noindex");
    let spec = grid();
    let cache = cold_binary_sweep(&dir, &spec);

    fs::remove_file(cache.join("index.bin")).unwrap();
    let reopened = BinaryCache::open(&cache, 0).unwrap();
    assert!(reopened.recovery().rebuilt_index);
    assert_eq!(reopened.len(), spec.len());
    drop(reopened);

    let warm = Orchestrator::new().cache(&cache).run(&spec).unwrap();
    assert_eq!(warm.cache_hits, spec.len());
    assert_eq!(warm.executed, 0);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_index_header_is_rebuilt_from_shards() {
    let dir = scratch("badheader");
    let spec = grid();
    let cache = cold_binary_sweep(&dir, &spec);

    let mut index = fs::read(cache.join("index.bin")).unwrap();
    index[0] ^= 0xFF; // break the magic
    fs::write(cache.join("index.bin"), &index).unwrap();

    let reopened = BinaryCache::open(&cache, 0).unwrap();
    assert!(reopened.recovery().rebuilt_index);
    assert_eq!(reopened.len(), spec.len());
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn index_behind_the_shards_reindexes_just_the_tail() {
    let dir = scratch("behind");
    let full = grid();
    let prefix = SweepSpec::product(&[tiny(0.3), tiny(0.7)], &[1, 2]);
    let cache = scratch("behind-cache").join("cache.bin");

    // Sweep the prefix grid, stash its index, then sweep the full grid
    // into the same cache and put the stale index back: exactly the state
    // a crash between a record append and its index update leaves behind.
    Orchestrator::new().cache(&cache).run(&prefix).unwrap();
    let stale_index = fs::read(cache.join("index.bin")).unwrap();
    Orchestrator::new().cache(&cache).run(&full).unwrap();
    fs::write(cache.join("index.bin"), &stale_index).unwrap();

    let reopened = BinaryCache::open(&cache, 0).unwrap();
    assert!(
        reopened.recovery().reindexed >= full.len() - prefix.len(),
        "the unindexed tail records were recovered"
    );
    assert!(!reopened.recovery().rebuilt_index, "tail scan, not rebuild");
    assert_eq!(reopened.len(), full.len());
    drop(reopened);

    let warm = Orchestrator::new().cache(&cache).run(&full).unwrap();
    assert_eq!(warm.cache_hits, full.len());
    assert_eq!(warm.executed, 0);
    fs::remove_dir_all(&dir).ok();
    fs::remove_dir_all(cache.parent().unwrap()).ok();
}

/// A distinct outcome per tag, so a record served from the wrong place
/// never compares equal.
fn outcome(tag: u64) -> SimOutcome {
    SimOutcome {
        malicious_total: 10,
        benign_total: 90,
        revoked_malicious: (tag % 11) as u32,
        revoked_benign: 0,
        affected_before: 3.5 + tag as f64,
        affected_after: 0.25,
        benign_alerts: tag as usize,
        collusion_alerts: 7,
        mean_requesters_per_beacon: 1.0 / 3.0,
        mean_loc_error_before_ft: tag.is_multiple_of(2).then_some(5.25),
        mean_loc_error_after_ft: None,
    }
}

fn key(tag: u64) -> CellKey {
    CellKey(fnv1a(&tag.to_le_bytes()))
}

/// The entry count `index.bin`'s header persists.
fn header_entry_count(cache: &Path) -> u64 {
    let index = fs::read(cache.join("index.bin")).unwrap();
    u64::from_le_bytes(index[24..32].try_into().unwrap())
}

#[test]
fn reinserting_a_key_whose_record_failed_validation_counts_it_once() {
    let cache = scratch("reindex").join("cache.bin");
    let mut live = BinaryCache::open(&cache, 4).unwrap();
    assert_eq!(
        live.insert_checked(key(0), outcome(0)).unwrap(),
        CacheInsert::Inserted
    );
    drop(live);

    // Bit-rot inside the record: the shard keeps its length, so open
    // repairs nothing and the lookup reads as a miss.
    let mut shard = fs::read(shard_path(&cache)).unwrap();
    shard[60] ^= 0x40;
    fs::write(shard_path(&cache), &shard).unwrap();
    let mut reopened = BinaryCache::open(&cache, 0).unwrap();
    assert!(reopened.recovery().clean());
    assert_eq!(reopened.get(key(0)).unwrap(), None);

    // Re-inserting re-points the key's own slot: still one entry.
    assert_eq!(
        reopened.insert_checked(key(0), outcome(0)).unwrap(),
        CacheInsert::Inserted
    );
    assert_eq!(reopened.len(), 1);
    assert_eq!(reopened.get(key(0)).unwrap(), Some(outcome(0)));
    drop(reopened);
    assert_eq!(header_entry_count(&cache), 1, "persisted count");
    let again = BinaryCache::open(&cache, 0).unwrap();
    assert_eq!(again.len(), 1);
    assert_eq!(again.get(key(0)).unwrap(), Some(outcome(0)));
    fs::remove_dir_all(cache.parent().unwrap()).ok();
}

#[test]
fn a_record_the_index_does_not_point_at_exports_once() {
    let cache = scratch("dup").join("cache.bin");
    let mut live = BinaryCache::open(&cache, 4).unwrap();
    for tag in 0..3u64 {
        live.insert_checked(key(tag), outcome(tag)).unwrap();
    }
    drop(live);
    let mut want = Vec::new();
    export_jsonl(&BinaryCache::open(&cache, 0).unwrap(), &mut want).unwrap();

    // A second copy of the first record lands past the indexed length.
    // Open scans it, finds its key already indexed and leaves the index
    // on the first copy.
    let mut shard = fs::read(shard_path(&cache)).unwrap();
    shard.extend_from_within(..RECORD_LEN);
    fs::write(shard_path(&cache), &shard).unwrap();
    let reopened = BinaryCache::open(&cache, 0).unwrap();
    assert_eq!(reopened.len(), 3);
    let entries = reopened.entries().unwrap();
    let keys: Vec<CellKey> = entries.iter().map(|(k, _)| *k).collect();
    assert_eq!(keys, [key(0), key(1), key(2)], "append order, once each");
    let mut export = Vec::new();
    assert_eq!(export_jsonl(&reopened, &mut export).unwrap(), 3);
    assert_eq!(export, want, "the duplicate leaves the export unchanged");
    fs::remove_dir_all(cache.parent().unwrap()).ok();
}

#[test]
fn a_record_appended_inside_the_read_window_span_is_served_fresh() {
    let cache = scratch("window").join("cache.bin");
    let mut live = BinaryCache::open(&cache, 0).unwrap();
    assert_eq!(live.shard_count(), 1);
    live.insert_checked(key(0), outcome(0)).unwrap();
    // Each round reads the first record, which fills the shard's window
    // from offset 0 to the shard's end, then appends right behind that
    // window and reads the new record back. 40 records span more than
    // one 4 KiB window.
    for tag in 1..40u64 {
        assert_eq!(live.get(key(0)).unwrap(), Some(outcome(0)));
        assert_eq!(
            live.insert_checked(key(tag), outcome(tag)).unwrap(),
            CacheInsert::Inserted
        );
        assert_eq!(live.get(key(tag)).unwrap(), Some(outcome(tag)), "{tag}");
    }
    // The same across a reopen, whose window starts empty.
    drop(live);
    let mut reopened = BinaryCache::open(&cache, 0).unwrap();
    assert_eq!(reopened.get(key(0)).unwrap(), Some(outcome(0)));
    reopened.insert_checked(key(40), outcome(40)).unwrap();
    assert_eq!(reopened.get(key(40)).unwrap(), Some(outcome(40)));
    for tag in 0..=40u64 {
        assert_eq!(reopened.get(key(tag)).unwrap(), Some(outcome(tag)));
    }
    fs::remove_dir_all(cache.parent().unwrap()).ok();
}

#[test]
fn reopened_and_rebuilt_caches_answer_like_the_live_handle() {
    let cache = scratch("resident").join("cache.bin");
    // Two shards and 16,384 slots; 12,000 entries push the load past 0.7,
    // so the index grows while the handle is live.
    let mut live = BinaryCache::open(&cache, 8193).unwrap();
    assert_eq!(live.shard_count(), 2);
    let created_len = fs::metadata(cache.join("index.bin")).unwrap().len();
    let n = 12_000u64;
    for tag in 0..n {
        assert_eq!(
            live.insert_checked(key(tag), outcome(tag)).unwrap(),
            CacheInsert::Inserted
        );
    }
    assert!(
        fs::metadata(cache.join("index.bin")).unwrap().len() > created_len,
        "the index grew"
    );
    assert_eq!(live.len(), n as usize);
    // Keys 0..n hit, n..n + 100 miss; lookups interleave the two shards.
    let lookups = |cache: &BinaryCache| -> Vec<Option<SimOutcome>> {
        (0..n + 100)
            .map(|tag| cache.get(key(tag)).unwrap())
            .collect()
    };
    let served = lookups(&live);
    for (tag, got) in served.iter().enumerate() {
        let want = (tag < n as usize).then(|| outcome(tag as u64));
        assert_eq!(got, &want, "live handle, key {tag}");
    }
    drop(live);

    let reopened = BinaryCache::open(&cache, 0).unwrap();
    assert!(reopened.recovery().clean());
    assert_eq!(reopened.len(), n as usize);
    assert!(lookups(&reopened) == served, "reopened cache diverged");
    drop(reopened);

    fs::remove_file(cache.join("index.bin")).unwrap();
    let rebuilt = BinaryCache::open(&cache, 0).unwrap();
    assert!(rebuilt.recovery().rebuilt_index);
    assert_eq!(rebuilt.len(), n as usize);
    assert!(lookups(&rebuilt) == served, "rebuilt cache diverged");
    fs::remove_dir_all(cache.parent().unwrap()).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The tentpole invariant: scheduling and interruption are invisible
    /// in the bytes. A serial sweep, a 4-worker sweep, and a sweep killed
    /// at an arbitrary checkpoint boundary (losing the *entire* cache
    /// directory with it) and then resumed all leave byte-identical
    /// checkpoints and byte-identical cache directories.
    #[test]
    fn scheduling_and_resume_never_change_the_bytes(
        seeds in 2u64..4,
        p_hi in 0.55f64..0.9,
        cut_frac in 0.0f64..1.0,
    ) {
        let dir = scratch("det");
        let configs = [tiny(0.25), tiny(p_hi)];
        let seed_list: Vec<u64> = (1..=seeds).collect();
        let spec = SweepSpec::product(&configs, &seed_list);

        let run = |label: &str, workers: usize| {
            let ckpt = dir.join(format!("{label}.ckpt.jsonl"));
            let cache = dir.join(format!("{label}.cache.bin"));
            Orchestrator::new()
                .workers(workers)
                .checkpoint(&ckpt)
                .cache(&cache)
                .run(&spec)
                .unwrap();
            (fs::read(&ckpt).unwrap(), cache, ckpt)
        };

        let (serial_ckpt, serial_cache, _) = run("serial", 1);
        let (parallel_ckpt, parallel_cache, _) = run("parallel", 4);
        prop_assert_eq!(&serial_ckpt, &parallel_ckpt, "checkpoint depends on worker count");
        prop_assert_eq!(
            dir_bytes(&serial_cache),
            dir_bytes(&parallel_cache),
            "cache bytes depend on worker count"
        );

        // Kill-and-resume at a proptest-chosen line boundary, with the
        // cache directory lost entirely — the harshest crash that still
        // has a checkpoint. Resume must regenerate both files exactly.
        let lines: Vec<&str> = std::str::from_utf8(&serial_ckpt).unwrap().lines().collect();
        let keep = (cut_frac * lines.len() as f64) as usize; // 0..=lines
        let kept: String = lines[..keep.min(lines.len())]
            .iter()
            .map(|l| format!("{l}\n"))
            .collect();
        let ckpt = dir.join("resume.ckpt.jsonl");
        let cache = dir.join("resume.cache.bin");
        fs::write(&ckpt, kept).unwrap();
        let resumed = Orchestrator::new()
            .workers(3)
            .checkpoint(&ckpt)
            .cache(&cache)
            .run(&spec)
            .unwrap();
        prop_assert_eq!(
            resumed.resumed + resumed.executed,
            spec.len(),
            "every cell resumed or executed (cache was lost)"
        );
        prop_assert_eq!(&fs::read(&ckpt).unwrap(), &serial_ckpt, "resume checkpoint diverged");
        prop_assert_eq!(
            dir_bytes(&serial_cache),
            dir_bytes(&cache),
            "resume cache bytes diverged"
        );
        fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn multi_cell_units_leave_the_bytes_of_sequential_inserts() {
    let dir = scratch("units");
    let spec = policy_grid();
    let (serial_ckpt, serial_cache) = checkpointed_sweep(&dir, "serial", &spec, 1);
    let (parallel_ckpt, parallel_cache) = checkpointed_sweep(&dir, "parallel", &spec, 4);
    assert_eq!(
        serial_ckpt, parallel_ckpt,
        "checkpoint depends on worker count"
    );
    assert_eq!(
        dir_bytes(&serial_cache),
        dir_bytes(&parallel_cache),
        "cache bytes depend on worker count"
    );

    let outcomes = Orchestrator::new().run(&spec).unwrap().outcomes;
    let sequential = inserted_in_cell_order(&dir, &spec, &outcomes);
    assert_eq!(
        dir_bytes(&serial_cache),
        dir_bytes(&sequential),
        "batched appends differ from insert_checked in cell order"
    );

    // Resume from every line boundary with the cache lost: both files
    // come back byte for byte.
    let lines: Vec<&str> = std::str::from_utf8(&serial_ckpt).unwrap().lines().collect();
    for keep in 0..=lines.len() {
        let label = format!("cut-{keep}");
        let ckpt = dir.join(format!("{label}.ckpt.jsonl"));
        let kept: String = lines[..keep].iter().map(|l| format!("{l}\n")).collect();
        fs::write(&ckpt, kept).unwrap();
        let (resumed_ckpt, resumed_cache) = checkpointed_sweep(&dir, &label, &spec, 2);
        assert_eq!(resumed_ckpt, serial_ckpt, "{label}: checkpoint diverged");
        assert_eq!(
            dir_bytes(&resumed_cache),
            dir_bytes(&serial_cache),
            "{label}: cache bytes diverged"
        );
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn units_sharing_a_deployment_leave_the_bytes_of_sequential_inserts() {
    let dir = scratch("tau-p");
    let spec = tau_p_grid();
    let fresh: Vec<SimOutcome> = spec
        .cells()
        .iter()
        .map(|c| {
            Runner::new(c.config.clone(), c.seed)
                .run(RunOptions::new())
                .outcome
        })
        .collect();
    let sequential = dir_bytes(&inserted_in_cell_order(&dir, &spec, &fresh));
    let swept = |label: &str, workers: usize| {
        let ckpt = dir.join(format!("{label}.ckpt.jsonl"));
        let cache = dir.join(format!("{label}.cache.bin"));
        let report = Orchestrator::new()
            .workers(workers)
            .checkpoint(&ckpt)
            .cache(&cache)
            .run(&spec)
            .unwrap();
        assert_eq!(
            report.outcomes, fresh,
            "{label}: outcomes differ from fresh runs"
        );
        (fs::read(&ckpt).unwrap(), dir_bytes(&cache), report)
    };
    let (serial_ckpt, serial_cache, serial) = swept("serial", 1);
    let units: u64 = serial.worker_stats.iter().map(|w| w.units).sum();
    assert_eq!((units, serial.executed), (6, spec.len()));
    assert!(
        serial_cache == sequential,
        "shared deployments differ from insert_checked in cell order"
    );
    for workers in [2, 4] {
        let (ckpt, cache, _) = swept(&format!("w{workers}"), workers);
        assert_eq!(ckpt, serial_ckpt, "checkpoint differs at {workers} workers");
        assert!(
            cache == sequential,
            "cache bytes differ at {workers} workers"
        );
    }

    // Kill at every line boundary, losing the cache too: the resume
    // rewrites both files byte for byte.
    let lines: Vec<&str> = std::str::from_utf8(&serial_ckpt).unwrap().lines().collect();
    for keep in 0..=lines.len() {
        let label = format!("cut-{keep}");
        let kept: String = lines[..keep].iter().map(|l| format!("{l}\n")).collect();
        fs::write(dir.join(format!("{label}.ckpt.jsonl")), kept).unwrap();
        let (ckpt, cache, resumed) = swept(&label, 2);
        assert_eq!(resumed.resumed, keep.saturating_sub(1), "{label}");
        assert_eq!(ckpt, serial_ckpt, "{label}: checkpoint diverged");
        assert!(cache == sequential, "{label}: cache bytes diverged");
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_cell_listed_twice_in_one_unit_is_recorded_once() {
    // Cell 2 again at the end: both copies fall in seed 1's unit, and a
    // serial sweep resolves both in the same frontier advance, so they
    // meet inside one batched append.
    let dir = scratch("twice");
    let mut cells = policy_grid().cells().to_vec();
    cells.push(cells[2].clone());
    let spec = SweepSpec::new(cells);
    let (_, cache) = checkpointed_sweep(&dir, "serial", &spec, 1);
    let outcomes = Orchestrator::new().run(&spec).unwrap().outcomes;
    let sequential = inserted_in_cell_order(&dir, &spec, &outcomes);
    assert_eq!(
        fs::metadata(shard_path(&sequential)).unwrap().len(),
        (spec.len() as u64 - 1) * RECORD_LEN as u64,
        "a sequential re-insert appends nothing"
    );
    assert_eq!(dir_bytes(&cache), dir_bytes(&sequential));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_cut_inside_a_batched_append_keeps_exactly_the_whole_records() {
    // A serial sweep of the policy grid runs seed 1's unit, then seed 2's,
    // then seed 3's. Cells 0 and 1 each reach the frontier alone; seed
    // 3's unit then resolves cells 2..18 in one advance, whose 16 records
    // go out in one batched append. The events are still one
    // `checkpoint.advance` per cell that moved the frontier.
    let dir = scratch("batchcut");
    let spec = policy_grid();
    let sink = Arc::new(MemorySink::new());
    let full_ckpt = dir.join("full.ckpt.jsonl");
    let full = dir.join("full.cache.bin");
    Orchestrator::new()
        .workers(1)
        .observed(&Obs::with_sink(sink.clone()))
        .checkpoint(&full_ckpt)
        .cache(&full)
        .run(&spec)
        .unwrap();
    let events = sink.events();
    let advances: Vec<_> = events
        .iter()
        .filter(|e| e.kind == "checkpoint.advance")
        .map(|e| (e.field("frontier").cloned(), e.field("shard").cloned()))
        .collect();
    let want: Vec<_> = [1u64, 2, 5, 8, 11, 14, 17, 18]
        .iter()
        .map(|&f| (Some(Value::U64(f)), Some(Value::U64(0))))
        .collect();
    assert_eq!(advances, want);

    // The index before the batch is the index of a sweep over cells 0
    // and 1 alone: the same capacity, slots and indexed length.
    let first_two = SweepSpec::new(spec.cells()[..2].to_vec());
    let (_, before) = checkpointed_sweep(&dir, "before", &first_two, 1);
    let pre_batch_index = fs::read(before.join("index.bin")).unwrap();
    let full_shard = fs::read(shard_path(&full)).unwrap();
    assert_eq!(full_shard.len(), spec.len() * RECORD_LEN);
    let full_entries = BinaryCache::open(&full, 0).unwrap().entries().unwrap();
    let outcomes = Orchestrator::new().run(&spec).unwrap().outcomes;

    // Cuts at the batch's start, inside its first record, at record
    // boundaries inside it, mid-record, and one byte short of its end.
    let record = RECORD_LEN;
    for cut in [
        2 * record,
        2 * record + 1,
        3 * record,
        7 * record + 60,
        17 * record,
        18 * record - 1,
    ] {
        let cache = dir.join(format!("cut-{cut}.cache.bin"));
        fs::create_dir_all(&cache).unwrap();
        fs::write(cache.join("index.bin"), &pre_batch_index).unwrap();
        fs::write(shard_path(&cache), &full_shard[..cut]).unwrap();
        let whole = cut / record;

        let reopened = BinaryCache::open(&cache, 0).unwrap();
        let recovery = reopened.recovery();
        assert!(
            !recovery.rebuilt_index,
            "cut {cut}: a tail scan, not a rebuild"
        );
        assert_eq!(
            recovery.reindexed,
            whole - 2,
            "cut {cut}: whole batch records"
        );
        assert_eq!(recovery.truncated_bytes, (cut % record) as u64, "cut {cut}");
        assert_eq!(reopened.len(), whole, "cut {cut}");
        assert_eq!(
            reopened.entries().unwrap(),
            full_entries[..whole],
            "cut {cut}"
        );
        drop(reopened);

        // Warm: the surviving records are hits, the rest re-run, and the
        // outcomes are the uninterrupted sweep's.
        let warm = Orchestrator::new().cache(&cache).run(&spec).unwrap();
        assert_eq!(warm.cache_hits, whole, "cut {cut}");
        assert_eq!(warm.executed, spec.len() - whole, "cut {cut}");
        assert_eq!(warm.outcomes, outcomes, "cut {cut}");
    }
    fs::remove_dir_all(&dir).ok();
}

/// Copies a cache directory's files into a new directory at `to`.
fn copy_dir(from: &Path, to: &Path) {
    fs::create_dir_all(to).unwrap();
    for entry in fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

#[test]
fn a_flipped_record_in_a_warm_read_reruns_exactly_its_cell() {
    // 25 policies over 4 seeds: 100 cells. A cache created for more than
    // 8,192 cells has two shards, and a sweep keeps the shard count it
    // finds, so each shard holds about 50 records and its 4 KiB window
    // refills once in a warm pass.
    let dir = scratch("flip");
    let mut configs = Vec::new();
    for tau in 1..=5u32 {
        for tau_prime in 1..=5u32 {
            configs.push(SimConfig {
                tau,
                tau_prime,
                ..tiny(0.5)
            });
        }
    }
    let spec = SweepSpec::product(&configs, &[1, 2, 3, 4]);
    drop(BinaryCache::open(dir.join("cold.cache.bin"), 8193).unwrap());
    let (cold_ckpt, cold) = checkpointed_sweep(&dir, "cold", &spec, 1);

    // Each cell's record: its shard and its index there, in the cache's
    // own (shard, offset) order.
    let tag = code_version_tag();
    let keys: Vec<CellKey> = spec
        .cells()
        .iter()
        .map(|c| cell_key(&c.config, c.seed, &tag))
        .collect();
    let entries = BinaryCache::open(&cold, 0).unwrap().entries().unwrap();
    assert_eq!(entries.len(), spec.len());
    let mut per_shard = [0u64; 2];
    let mut place = std::collections::HashMap::new();
    for (key, _) in &entries {
        let shard = (key.0 % 2) as usize;
        place.insert(*key, (shard, per_shard[shard]));
        per_shard[shard] += 1;
    }
    assert!(per_shard.iter().all(|&n| n > 35), "{per_shard:?}");
    let place_of = |cell: usize| place[&keys[cell]];

    // A warm pass reads the keys in batches of four from cell 0: cell `i`
    // is lane `i % 4`. One record per lane, and the record that refills
    // its shard's window (index 34: a window holds 34 whole records) in a
    // batch whose cells span both shards.
    let refill = (0..spec.len())
        .filter(|&i| place_of(i).1 == 34)
        .find(|&i| {
            let batch = i / 4 * 4..(i / 4 * 4 + 4).min(spec.len());
            let shards: Vec<usize> = batch.map(|j| place_of(j).0).collect();
            shards.contains(&0) && shards.contains(&1)
        })
        .expect("a batch across both shards that refills a window");
    for flipped in [40, 41, 42, 43, refill] {
        let label = format!("flip-{flipped}");
        let cache = dir.join(format!("{label}.cache.bin"));
        copy_dir(&cold, &cache);
        let (shard, index) = place_of(flipped);
        let shard_file = cache.join(format!("shard-{shard:03}.bin"));
        let mut bytes = fs::read(&shard_file).unwrap();
        bytes[index as usize * RECORD_LEN + 60] ^= 0x40;
        fs::write(&shard_file, &bytes).unwrap();

        for pass in ["first", "second"] {
            let sink = Arc::new(MemorySink::new());
            let ckpt = dir.join(format!("{label}-{pass}.ckpt.jsonl"));
            let warm = Orchestrator::new()
                .workers(1)
                .observed(&Obs::with_sink(sink.clone()))
                .cache(&cache)
                .checkpoint(&ckpt)
                .run(&spec)
                .unwrap();
            let executed: Vec<Value> = sink
                .events()
                .iter()
                .filter(|e| e.kind == "cell.start")
                .filter_map(|e| e.field("cell").cloned())
                .collect();
            if pass == "first" {
                assert_eq!(warm.executed, 1, "{label}");
                assert_eq!(warm.cache_hits, spec.len() - 1, "{label}");
                assert_eq!(executed, [Value::Str(keys[flipped].to_string())], "{label}");
            } else {
                assert_eq!(warm.executed, 0, "{label}: second pass");
                assert_eq!(warm.cache_hits, spec.len(), "{label}: second pass");
            }
            assert_eq!(fs::read(&ckpt).unwrap(), cold_ckpt, "{label}: {pass} pass");
        }
    }
    fs::remove_dir_all(&dir).ok();
}
