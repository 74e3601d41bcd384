//! Determinism guarantees of the sweep orchestrator: an interrupted sweep
//! resumed from its checkpoint is bit-identical to an uninterrupted one,
//! and a warm cache replays a sweep without executing a single cell.

use secloc_obs::json::JsonValue;
use secloc_obs::{fnv1a, Event, EventSink, FlightRecorder, Fnv1a, Obs};
use secloc_sim::orchestrator::{cell_key, code_version_tag, export_jsonl};
use secloc_sim::{BinaryCache, Orchestrator, SimConfig, SweepSpec};
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

/// A unique temp dir per test — the suite runs tests in parallel.
fn scratch(label: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "secloc-orch-{label}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// FNV-1a over a directory's files: each name, then its bytes, by name.
fn dir_digest(dir: &Path) -> u64 {
    let mut names: Vec<_> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    names.sort();
    let mut h = Fnv1a::new();
    for name in names {
        h.update(name.to_str().unwrap().as_bytes());
        h.update(&fs::read(dir.join(&name)).unwrap());
    }
    h.finish()
}

#[test]
fn keys_and_bytes_match_the_pinned_golden() {
    // Pinned literals from a build that formatted each cell's canonical
    // string whole: caches and checkpoints written by it must still hit
    // and resume. Bumping `OUTCOME_REVISION` changes the tag, and with it
    // every value here. The JSONL digest is over the binary cache's
    // export, which must stay byte for byte the JSONL cache file earlier
    // builds appended: the same lines in the same (cell) order.
    assert_eq!(code_version_tag(), "secloc-sim-0.1.0+r2");
    let spec = grid();
    let tag = code_version_tag();
    let keys: Vec<String> = spec
        .cells()
        .iter()
        .map(|c| cell_key(&c.config, c.seed, &tag).to_string())
        .collect();
    assert_eq!(
        keys,
        [
            "9d302262b216682e",
            "fc1c42790a41236b",
            "f4898bf61a456a20",
            "f71b32a16749d5fa",
            "05dc2d4e30f651c7",
            "1913ba124f459c6c",
        ]
    );

    let dir = scratch("golden");
    Orchestrator::new()
        .workers(2)
        .cache(dir.join("cache.bin"))
        .checkpoint(dir.join("ckpt.jsonl"))
        .run(&spec)
        .unwrap();
    let ckpt = fs::read(dir.join("ckpt.jsonl")).unwrap();
    let header = std::str::from_utf8(&ckpt).unwrap().lines().next().unwrap();
    assert_eq!(
        header,
        "{\"kind\":\"sweep\",\"version\":1,\"cells\":6,\"grid\":\"ea2491edb86c3d7b\",\
         \"tag\":\"secloc-sim-0.1.0+r2\"}"
    );
    assert_eq!(fnv1a(&ckpt), 0x1075_cd03_33b5_6e23, "checkpoint bytes");
    assert_eq!(
        dir_digest(&dir.join("cache.bin")),
        0x7a38_037b_8800_9b6f,
        "binary cache bytes"
    );
    let mut export = Vec::new();
    let cache = BinaryCache::open(dir.join("cache.bin"), 0).unwrap();
    assert_eq!(export_jsonl(&cache, &mut export).unwrap(), spec.len());
    assert_eq!(fnv1a(&export), 0x3330_f23b_bd92_a6ba, "JSONL export bytes");

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_after_any_interruption_is_bit_identical() {
    let spec = grid();
    let dir = scratch("resume");

    // Reference: one uninterrupted sweep.
    let full_ckpt = dir.join("full.jsonl");
    let full = Orchestrator::new()
        .workers(2)
        .checkpoint(&full_ckpt)
        .run(&spec)
        .unwrap();
    let full_bytes = fs::read(&full_ckpt).unwrap();
    let lines: Vec<&str> = std::str::from_utf8(&full_bytes).unwrap().lines().collect();
    assert_eq!(lines.len(), spec.len() + 1, "header + one line per cell");

    // Simulate a kill at every possible line boundary (0 lines written,
    // header only, header + k cells) and at a mid-line byte cut, then
    // resume and demand bit-identity.
    // Each cut carries the number of complete cell lines it preserves.
    let mut cuts: Vec<(Vec<u8>, usize)> = Vec::new();
    let mut offset = 0usize;
    cuts.push((Vec::new(), 0)); // killed before the header landed
    for (l, line) in lines.iter().enumerate() {
        offset += line.len() + 1; // + newline
        cuts.push((full_bytes[..offset].to_vec(), l)); // header is line 0
                                                       // Torn write: part of the following line made it to disk.
        if offset + 10 < full_bytes.len() {
            cuts.push((full_bytes[..offset + 10].to_vec(), l));
        }
    }

    for (i, (cut, complete_cells)) in cuts.iter().enumerate() {
        let ckpt = dir.join(format!("cut-{i}.jsonl"));
        fs::write(&ckpt, cut).unwrap();
        let resumed = Orchestrator::new()
            .workers(3)
            .checkpoint(&ckpt)
            .run(&spec)
            .unwrap();
        assert_eq!(
            resumed.outcomes, full.outcomes,
            "cut {i}: outcomes diverged after resume"
        );
        assert_eq!(
            fs::read(&ckpt).unwrap(),
            full_bytes,
            "cut {i}: rewritten checkpoint is not byte-identical"
        );
        assert_eq!(
            resumed.resumed + resumed.executed,
            spec.len(),
            "cut {i}: every cell is either resumed or executed"
        );
        assert_eq!(
            resumed.resumed, *complete_cells,
            "cut {i}: exactly the complete prefix should replay"
        );
    }

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn warm_cache_is_all_hits_and_byte_identical() {
    let spec = grid();
    let dir = scratch("cache");
    let cache = dir.join("cache.bin");

    let cold_ckpt = dir.join("cold.jsonl");
    let cold = Orchestrator::new()
        .workers(2)
        .cache(&cache)
        .checkpoint(&cold_ckpt)
        .run(&spec)
        .unwrap();
    assert_eq!(cold.executed, spec.len());
    assert_eq!(cold.cache_hits, 0);

    // Second identical sweep: zero executions, 100% cache hits, and the
    // checkpoint it writes is byte-for-byte the cold run's.
    let warm_ckpt = dir.join("warm.jsonl");
    let warm = Orchestrator::new()
        .workers(2)
        .cache(&cache)
        .checkpoint(&warm_ckpt)
        .run(&spec)
        .unwrap();
    assert_eq!(warm.executed, 0, "warm sweep must not simulate anything");
    assert_eq!(warm.cache_hits, spec.len(), "every cell served from cache");
    assert_eq!(
        warm.workers_spawned, 0,
        "no workers for a fully cached sweep"
    );
    assert_eq!(warm.outcomes, cold.outcomes);
    assert_eq!(
        fs::read(&warm_ckpt).unwrap(),
        fs::read(&cold_ckpt).unwrap(),
        "warm checkpoint differs from cold"
    );

    // An overlapping (superset) grid reuses the shared cells.
    let bigger = SweepSpec::product(&[tiny(0.3), tiny(0.7)], &[1, 2, 3, 4]);
    let partial = Orchestrator::new()
        .workers(2)
        .cache(&cache)
        .run(&bigger)
        .unwrap();
    assert_eq!(partial.cache_hits, spec.len());
    assert_eq!(partial.executed, bigger.len() - spec.len());

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn stale_checkpoints_are_rejected_not_spliced() {
    let spec = grid();
    let dir = scratch("stale");
    let ckpt = dir.join("ckpt.jsonl");

    Orchestrator::new()
        .workers(2)
        .checkpoint(&ckpt)
        .run(&spec)
        .unwrap();

    // A different grid under the same path must refuse to resume.
    let other = SweepSpec::single(&tiny(0.5), &[9, 10]);
    let err = Orchestrator::new()
        .checkpoint(&ckpt)
        .run(&other)
        .expect_err("mismatched grid should be rejected");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

    // Same grid under a different code-version tag: the recorded outcomes
    // may be stale, so the checkpoint must be rejected too.
    let err = Orchestrator::new()
        .tag("simulated-old-revision")
        .checkpoint(&ckpt)
        .run(&spec)
        .expect_err("stale code tag should be rejected");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn cache_keys_are_tag_scoped() {
    let spec = SweepSpec::single(&tiny(0.4), &[1, 2]);
    let dir = scratch("tag");
    let cache = dir.join("cache.bin");

    let first = Orchestrator::new().cache(&cache).run(&spec).unwrap();
    assert_eq!(first.executed, 2);

    // A "code change" (new tag) misses the old entries entirely.
    let bumped = Orchestrator::new()
        .tag("rev-next")
        .cache(&cache)
        .run(&spec)
        .unwrap();
    assert_eq!(bumped.cache_hits, 0, "old-tag entries must not be reused");
    assert_eq!(bumped.executed, 2);

    // While the original tag still hits.
    let again = Orchestrator::new().cache(&cache).run(&spec).unwrap();
    assert_eq!(again.cache_hits, 2);

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_file_at_the_cache_path_is_refused_untouched() {
    // A JSONL cache left by an older build sits where the cache directory
    // would go. The run must fail before writing anything, that file
    // included, and before it creates the checkpoint.
    let spec = SweepSpec::single(&tiny(0.4), &[1, 2]);
    let dir = scratch("leftover");
    let bin = dir.join("cache.bin");
    Orchestrator::new().cache(&bin).run(&spec).unwrap();
    let mut jsonl = Vec::new();
    export_jsonl(&BinaryCache::open(&bin, 0).unwrap(), &mut jsonl).unwrap();
    let leftover = dir.join("cache.jsonl");
    fs::write(&leftover, &jsonl).unwrap();

    let ckpt = dir.join("ckpt.jsonl");
    let err = Orchestrator::new()
        .cache(&leftover)
        .checkpoint(&ckpt)
        .run(&spec)
        .expect_err("a regular file is not a cache directory");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("no longer read"), "{err}");
    assert_eq!(fs::read(&leftover).unwrap(), jsonl, "leftover file changed");
    assert!(!ckpt.exists(), "a refused run writes no checkpoint");

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn tags_with_json_metacharacters_resume_their_own_checkpoints() {
    // The header writes the tag as an escaped JSON string, and resume
    // accepts exactly the header this sweep writes, so no tag can break
    // either.
    let spec = SweepSpec::single(&tiny(0.4), &[1, 2]);
    let dir = scratch("tags");
    for (i, tag) in ["rev,2", "a}b", "q\"x", "back\\slash"]
        .into_iter()
        .enumerate()
    {
        let ckpt = dir.join(format!("ckpt-{i}.jsonl"));
        let cold = Orchestrator::new()
            .tag(tag)
            .checkpoint(&ckpt)
            .run(&spec)
            .unwrap();
        let text = fs::read_to_string(&ckpt).unwrap();
        let header = JsonValue::parse(text.lines().next().unwrap())
            .unwrap_or_else(|e| panic!("tag {tag:?}: header is not JSON: {e}"));
        assert_eq!(header.get("tag").and_then(JsonValue::as_str), Some(tag));

        let again = Orchestrator::new()
            .tag(tag)
            .checkpoint(&ckpt)
            .run(&spec)
            .unwrap_or_else(|e| panic!("tag {tag:?}: resume failed: {e}"));
        assert_eq!(
            (again.resumed, again.executed),
            (spec.len(), 0),
            "tag {tag:?}"
        );
        assert_eq!(again.outcomes, cold.outcomes);
        assert_eq!(fs::read_to_string(&ckpt).unwrap(), text, "tag {tag:?}");
    }

    fs::remove_dir_all(&dir).ok();
}

/// A sink that panics the first time it sees `kind` — stands in for a
/// cell whose simulation dies mid-flight.
struct PanicOn(&'static str);

impl EventSink for PanicOn {
    fn emit(&self, event: &Event) {
        assert_ne!(event.kind, self.0, "injected mid-cell failure");
    }
}

#[test]
fn panicking_cell_leaves_a_flight_dump_of_its_trace() {
    // Kill the first cell mid-simulation (at its `run.end` event) and
    // check the post-mortem contract: the orchestrator re-raises the
    // panic, and the flight recorder has dumped that cell's event tail to
    // `flightrec_<key>.jsonl` — every line carrying the dead cell's trace.
    let spec = SweepSpec::single(&tiny(0.5), &[77]);
    let dir = scratch("flightrec");
    let key = cell_key(
        &spec.cells()[0].config,
        77,
        &secloc_sim::orchestrator::code_version_tag(),
    );

    let obs = Obs::new(None, Some(Arc::new(PanicOn("run.end"))));
    let recorder = Arc::new(FlightRecorder::new(256));
    let orch = Orchestrator::new()
        .workers(1)
        .observed(&obs)
        .flight_recorder(recorder.clone(), &dir);
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // keep the injected panic quiet
    let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| orch.run(&spec)));
    std::panic::set_hook(hook);
    assert!(died.is_err(), "the injected panic must propagate");

    let dump_path = dir.join(format!("flightrec_{key}.jsonl"));
    let dump = fs::read_to_string(&dump_path).expect("flight dump written on panic");
    let lines: Vec<&str> = dump.lines().collect();
    assert!(!lines.is_empty(), "dump replays the cell's events");
    let trace = format!("\"trace\":\"{key}\"");
    for line in &lines {
        assert!(
            line.contains(&trace),
            "dump line from a foreign trace: {line}"
        );
    }
    assert!(
        dump.contains("\"kind\":\"cell.start\"") && dump.contains("\"kind\":\"run.start\""),
        "dump covers the cell's lifecycle up to the failure"
    );
    assert!(
        !dump.contains("\"kind\":\"run.end\""),
        "the event that killed the cell never reached the recorder"
    );

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn orchestrated_sweep_is_worker_count_invariant() {
    // One config over seeds at 1, 2 and 3 workers and at `workers(0)`
    // (one per core): the outcomes are the same, in seed order.
    let config = tiny(0.6);
    let seeds: Vec<u64> = (0..5).collect();
    let spec = SweepSpec::single(&config, &seeds);
    let serial = Orchestrator::new().workers(1).run(&spec).unwrap().outcomes;
    for workers in [2, 3, 0] {
        let report = Orchestrator::new().workers(workers).run(&spec).unwrap();
        assert_eq!(report.outcomes, serial, "{workers} workers");
    }
}
