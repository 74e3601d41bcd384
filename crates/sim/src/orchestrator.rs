//! Deterministic sweep orchestration: grids of `(SimConfig × seed)` cells
//! over a worker pool, with a content-addressed result cache and a
//! resumable JSONL checkpoint stream.
//!
//! The paper's §4 evaluation is a large grid of independent seeded runs,
//! and every figure-bench in this workspace re-runs overlapping slices of
//! that grid. This module turns "fan seeds over threads" into a real
//! experiment engine:
//!
//! - **Work-stealing scheduling** — pending cells fold into scheduling
//!   units (one per shared probe stage), sorted largest first into a
//!   queue that at most `min(workers, units)` OS threads claim batches
//!   from. Workers send `(cell index, outcome)` back, and results are
//!   merged in cell order, bit-identical to a serial loop, because each
//!   cell is a pure function of `(config, seed)`.
//! - **Content-addressed caching** — every cell is keyed by a stable
//!   64-bit FNV-1a hash of its canonical `(config, seed, options, code
//!   version)` encoding ([`cell_key`]). A [`BinaryCache`] directory maps
//!   keys to outcomes, so repeated or overlapping sweeps skip completed
//!   cells entirely; [`export_jsonl`] writes it out as text. A run formats
//!   each config's `Debug` text once and hashes only the seed suffix per
//!   cell.
//! - **Checkpoint / resume** — with a checkpoint path configured, the
//!   orchestrator writes the checkpoint lines *in cell order* as the
//!   completion frontier advances, in writes of at most about 64 KiB that
//!   end at line boundaries. [`Orchestrator::run`] on an
//!   existing (possibly truncated mid-line) checkpoint replays the
//!   recorded prefix and re-runs only the remainder; the resulting
//!   outcomes **and** the rewritten checkpoint file are byte-identical to
//!   an uninterrupted run. See `DESIGN.md` §11 for the invariants.
//!
//! ```no_run
//! use secloc_sim::orchestrator::{Orchestrator, SweepSpec};
//! use secloc_sim::SimConfig;
//!
//! let spec = SweepSpec::single(&SimConfig::paper_default(), &[1, 2, 3]);
//! let report = Orchestrator::new()
//!     .workers(4)
//!     .cache("results/sweep-cache.bin")
//!     .checkpoint("results/sweep-checkpoint.jsonl")
//!     .run(&spec)
//!     .expect("sweep I/O");
//! assert_eq!(report.outcomes.len(), 3);
//! ```

use crate::cache::BinaryCache;
use crate::{RunOptions, Runner, SimConfig, SimOutcome};
use secloc_obs::json::{push_json_f64, push_json_string};
use secloc_obs::num::{hex16, push_hex16, push_u64, u64_digits};
use secloc_obs::{EventSink, FanoutSink, FlightRecorder, Fnv1a, Obs, SpanContext, Value};
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::fs;
use std::io::{self, Write as _};
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Instant;

/// Bumped whenever a code change alters simulation outcomes for an
/// unchanged `(config, seed)` — cache and checkpoint entries keyed under
/// the old tag then miss (and stale checkpoints are rejected) instead of
/// resurfacing outdated numbers.
///
/// History: 1 = pre-distinct-accuser revocation semantics; 2 = the base
/// station counts only distinct `(reporter, target)` accusations toward
/// τ′ and colluders use the quorum strategy.
const OUTCOME_REVISION: u32 = 2;

/// The code-version component of every cell key.
pub fn code_version_tag() -> String {
    format!(
        "secloc-sim-{}+r{}",
        env!("CARGO_PKG_VERSION"),
        OUTCOME_REVISION
    )
}

/// The current outcome revision — the `r{n}` component of
/// [`code_version_tag`]. Derived artifacts (bench JSON, figure data) embed
/// it so stale numbers are detectable against the cache-key convention.
pub fn outcome_revision() -> u32 {
    OUTCOME_REVISION
}

/// A stable 16-hex fingerprint of one configuration under the current
/// code-version tag: the same FNV-1a-over-canonical-`Debug` convention as
/// [`cell_key`], minus the seed. Benchmark and robustness reports carry it
/// so a reader can tell which config (and code revision) produced them.
pub fn config_fingerprint(config: &SimConfig) -> String {
    let mut h = Fnv1a::new();
    let _ = write!(h, "{config:?};tag={}", code_version_tag());
    CellKey(h.finish()).to_string()
}

/// A stable 64-bit content address for one sweep cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellKey(pub u64);

impl fmt::Display for CellKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl CellKey {
    /// Parses the 16-hex-digit form produced by `Display`. Anything but
    /// exactly 16 ASCII hex digits (a sign, say) is rejected.
    pub fn parse(s: &str) -> Option<CellKey> {
        (s.len() == 16 && s.bytes().all(|b| b.is_ascii_hexdigit()))
            .then(|| u64::from_str_radix(s, 16).ok())
            .flatten()
            .map(CellKey)
    }
}

/// The FNV-1a state after a config's key prefix `"{config:?};seed="`.
///
/// A cell key hashes the canonical encoding
/// `"{config:?};seed={seed};options=plain;tag={tag}"`. `SimConfig` is
/// plain data whose derived `Debug` output is deterministic; the options
/// tag records how the cell is run (always the plain run — traces and
/// telemetry provably do not change outcomes, see
/// `tests/equivalence.rs` and `tests/obs_events.rs`). The `Debug` text is
/// the costly part, and FNV-1a folds byte by byte, so a sweep hashes the
/// prefix once per config and continues a copy of it for each seed.
fn key_prefix(config: &SimConfig) -> Fnv1a {
    let mut h = Fnv1a::new();
    let _ = write!(h, "{config:?};seed=");
    h
}

/// Finishes a cell key from its config's [`key_prefix`]: the suffix
/// `"{seed};options=plain;tag={tag}"`, fed to the hash piece by piece.
fn key_from_prefix(mut prefix: Fnv1a, seed: u64, tag: &str) -> CellKey {
    prefix.update(u64_digits(seed, &mut [0; 20]));
    prefix.update(b";options=plain;tag=");
    prefix.update(tag.as_bytes());
    CellKey(prefix.finish())
}

/// Stable content address of one `(config, seed)` cell under code-version
/// `tag` (normally [`code_version_tag`]).
pub fn cell_key(config: &SimConfig, seed: u64, tag: &str) -> CellKey {
    key_from_prefix(key_prefix(config), seed, tag)
}

/// A stable identity for a whole grid: FNV-1a over `"{key};"` for every
/// cell key in order. Checkpoints carry it so a resume against a different
/// grid (or code version) is rejected instead of silently splicing
/// unrelated results.
fn grid_key(keys: &[CellKey]) -> CellKey {
    let mut h = Fnv1a::new();
    for key in keys {
        h.update(&hex16(key.0));
        h.update(b";");
    }
    CellKey(h.finish())
}

/// The grouping key for probe-stage sharing, less the seed: two cells
/// with equal strings *and* equal seeds replay identical detection +
/// location phases (phases 1–2), so one [`Runner::probe_stage`] serves
/// both. It is the topology key (which with the seed fixes the deployment
/// and every placement RNG stream) plus the policy knobs that reach the
/// probe/localization phases — everything *outside* this string (τ, τ′,
/// collusion, alert loss/retransmissions) is consumed only by the
/// revocation and impact phases re-run per cell.
fn probe_fingerprint(config: &SimConfig) -> String {
    format!(
        "{:?};max_ranging_error_ft={:?};detecting_ids={:?};\
         wormhole_detection_rate={:?};attacker_p={:?};lie_offset_ft={:?}",
        config.topology_key(),
        config.max_ranging_error_ft,
        config.detecting_ids,
        config.wormhole_detection_rate,
        config.attacker_p,
        config.lie_offset_ft,
    )
}

/// A telemetry facade scoped to one cell: every event carries the cell's
/// trace id (the cell key) plus the standard `cell` / `seed` fields, so a
/// JSONL stream or flight-recorder dump can be filtered to one cell's
/// complete decision history.
fn cell_scope(obs: &Obs, key: CellKey, seed: u64) -> Obs {
    let mut cell = String::with_capacity(16);
    push_hex16(&mut cell, key.0);
    obs.scoped(
        SpanContext::root(key.0),
        &[("cell", Value::Str(cell)), ("seed", Value::U64(seed))],
    )
}

/// Everything a worker thread needs besides its unit list. `Copy` so each
/// spawned closure takes its own handle.
#[derive(Clone, Copy)]
struct WorkerCtx<'a> {
    cells: &'a [SweepCell],
    keys: &'a [CellKey],
    obs: &'a Obs,
    flight: Option<&'a (Arc<FlightRecorder>, PathBuf)>,
}

impl WorkerCtx<'_> {
    /// Runs one cell's simulation under its scoped trace. `cell.start`
    /// (with the revocation-policy knobs) and `cell.complete` (with the
    /// `cache` classification) bracket the work; a panic first dumps the
    /// cell's flight-recorder tail to `flightrec_<key>.jsonl` and then
    /// propagates, so the scope join still re-raises it.
    fn run_cell(&self, i: usize, cache: &str, f: impl FnOnce(&Obs) -> SimOutcome) -> SimOutcome {
        let key = self.keys[i];
        let cell = &self.cells[i];
        let cell_obs = cell_scope(self.obs, key, cell.seed);
        cell_obs.emit(
            "cell.start",
            &[
                ("tau", Value::U64(cell.config.tau as u64)),
                ("tau_prime", Value::U64(cell.config.tau_prime as u64)),
            ],
        );
        match panic::catch_unwind(AssertUnwindSafe(|| f(&cell_obs))) {
            Ok(outcome) => {
                cell_obs.emit("cell.complete", &[("cache", Value::Str(cache.to_string()))]);
                outcome
            }
            Err(payload) => {
                if let Some((recorder, dir)) = self.flight {
                    let _ = recorder.dump_trace(dir.join(format!("flightrec_{key}.jsonl")), key.0);
                }
                panic::resume_unwind(payload)
            }
        }
    }
}

/// Runs one scheduling unit — a maximal run of pending cells sharing a
/// probe fingerprint — and streams `(cell index, outcome)` over `tx`.
/// Multi-cell units deploy once, snapshot the probe stage once, and replay
/// only the revocation/impact phases per cell; the outcomes are
/// bit-identical to fresh per-cell runs (see `Runner`'s staging tests and
/// `tests/equivalence.rs`). Telemetry classifies each executed cell as
/// `cache=miss` (paid the deployment + probe stage) or `cache=memo`
/// (replayed a shared stage). `Err` means the receiver hung up.
fn run_unit(
    ctx: WorkerCtx<'_>,
    unit: &[usize],
    tx: &mpsc::Sender<(usize, SimOutcome)>,
) -> Result<(), ()> {
    let cells = ctx.cells;
    let first = unit[0];
    if unit.len() == 1 {
        let outcome = ctx.run_cell(first, "miss", |cell_obs| {
            Runner::new(cells[first].config.clone(), cells[first].seed)
                .run(RunOptions::new().observed(cell_obs))
                .outcome
        });
        return tx.send((first, outcome)).map_err(drop);
    }
    let base = Runner::new(cells[first].config.clone(), cells[first].seed);
    // The stage carries its own impact memo: cells whose revocation
    // verdicts drop the same reference subsets share the re-estimation
    // work.
    let stage = base.probe_stage();
    for &i in unit {
        let outcome = if i == first {
            ctx.run_cell(i, "miss", |cell_obs| {
                base.finish_from_stage_observed(&stage, cell_obs)
            })
        } else {
            ctx.run_cell(i, "memo", |cell_obs| {
                // The unit's cells share a topology key, so only an
                // invalid config fails the re-key, and it panics here as a
                // plain run would.
                let rekeyed = base
                    .deployment()
                    .with_policy(cells[i].config.clone())
                    .unwrap_or_else(|e| panic!("invalid SimConfig: {e}"));
                Runner::from_deployment(rekeyed).finish_from_stage_observed(&stage, cell_obs)
            })
        };
        tx.send((i, outcome)).map_err(drop)?;
    }
    Ok(())
}

/// One grid cell: a full configuration plus the seed that drives it.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// The deployment/protocol configuration.
    pub config: SimConfig,
    /// The seed for every RNG stream of the run.
    pub seed: u64,
}

/// An ordered list of sweep cells. Order is part of the contract: results,
/// checkpoint lines and cache appends all follow it.
#[derive(Debug, Clone, Default)]
pub struct SweepSpec {
    cells: Vec<SweepCell>,
    /// Lengths of the config runs, in order: stretches of consecutive
    /// cells whose configs are clones of one config. The constructors
    /// record them; they are never found by comparing configs, because
    /// `-0.0 == 0.0` while the two print different `Debug` text (and so
    /// different keys). They sum to `cells.len()`.
    runs: Vec<usize>,
}

impl SweepSpec {
    /// A spec over explicit cells.
    pub fn new(cells: Vec<SweepCell>) -> Self {
        let runs = vec![1; cells.len()];
        SweepSpec { cells, runs }
    }

    /// One config fanned over seeds (the classic `run_seeds` shape).
    pub fn single(config: &SimConfig, seeds: &[u64]) -> Self {
        SweepSpec::product(std::slice::from_ref(config), seeds)
    }

    /// The full product grid, config-major: all seeds of `configs[0]`,
    /// then all seeds of `configs[1]`, …
    pub fn product(configs: &[SimConfig], seeds: &[u64]) -> Self {
        let mut cells = Vec::with_capacity(configs.len() * seeds.len());
        for config in configs {
            for &seed in seeds {
                cells.push(SweepCell {
                    config: config.clone(),
                    seed,
                });
            }
        }
        let runs = if seeds.is_empty() {
            Vec::new()
        } else {
            vec![seeds.len(); configs.len()]
        };
        SweepSpec { cells, runs }
    }

    /// The cells, in sweep order.
    pub fn cells(&self) -> &[SweepCell] {
        &self.cells
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The cell ranges of the config runs, in order.
    fn config_runs(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        debug_assert_eq!(self.runs.iter().sum::<usize>(), self.cells.len());
        self.runs.iter().scan(0, |start, &len| {
            let run = *start..*start + len;
            *start = run.end;
            Some(run)
        })
    }

    /// Every cell's key under `tag`, in order: one `Debug` format per
    /// config run, one seed suffix per cell.
    fn keys(&self, tag: &str) -> Vec<CellKey> {
        let mut keys = Vec::with_capacity(self.cells.len());
        for run in self.config_runs() {
            let prefix = key_prefix(&self.cells[run.start].config);
            keys.extend(
                self.cells[run]
                    .iter()
                    .map(|cell| key_from_prefix(prefix, cell.seed, tag)),
            );
        }
        keys
    }

    /// Folds the `pending` cells (ascending indices) into probe-sharing
    /// units: cells with equal [`probe_fingerprint`]s and equal seeds,
    /// in first-appearance order. Fingerprints are formatted once per
    /// config run that has a pending cell and interned to ids.
    fn probe_units(&self, pending: &[usize]) -> Vec<Vec<usize>> {
        let mut fingerprint_ids: HashMap<String, usize> = HashMap::new();
        let mut unit_of: HashMap<(usize, u64), usize> = HashMap::new();
        let mut units: Vec<Vec<usize>> = Vec::new();
        let mut rest = pending;
        for run in self.config_runs() {
            let in_run = rest.partition_point(|&i| i < run.end);
            if in_run == 0 {
                continue;
            }
            let next_id = fingerprint_ids.len();
            let id = *fingerprint_ids
                .entry(probe_fingerprint(&self.cells[run.start].config))
                .or_insert(next_id);
            for &i in &rest[..in_run] {
                let unit = *unit_of.entry((id, self.cells[i].seed)).or_insert_with(|| {
                    units.push(Vec::new());
                    units.len() - 1
                });
                units[unit].push(i);
            }
            rest = &rest[in_run..];
        }
        units
    }
}

// ---------------------------------------------------------------------------
// Outcome serialization (hand-rolled, like the rest of the workspace: the
// build environment is offline, so no serde).
// ---------------------------------------------------------------------------

/// Appends the fixed-field-order JSON object for one [`SimOutcome`] to
/// `s`; the byte-identity guarantees of the checkpoint stream rest on this
/// order never varying at runtime. Numbers go through `secloc_obs::num`,
/// byte-identical to `Display`; an absent error, like a non-finite float,
/// is `null`.
fn encode_outcome(o: &SimOutcome, s: &mut String) {
    let counts = [
        ("{\"malicious_total\":", o.malicious_total),
        (",\"benign_total\":", o.benign_total),
        (",\"revoked_malicious\":", o.revoked_malicious),
        (",\"revoked_benign\":", o.revoked_benign),
    ];
    for (name, count) in counts {
        s.push_str(name);
        push_u64(s, u64::from(count));
    }
    s.push_str(",\"affected_before\":");
    push_json_f64(s, o.affected_before);
    s.push_str(",\"affected_after\":");
    push_json_f64(s, o.affected_after);
    s.push_str(",\"benign_alerts\":");
    push_u64(s, o.benign_alerts as u64);
    s.push_str(",\"collusion_alerts\":");
    push_u64(s, o.collusion_alerts as u64);
    s.push_str(",\"mean_requesters_per_beacon\":");
    push_json_f64(s, o.mean_requesters_per_beacon);
    s.push_str(",\"mean_loc_error_before_ft\":");
    push_json_f64(s, o.mean_loc_error_before_ft.unwrap_or(f64::NAN));
    s.push_str(",\"mean_loc_error_after_ft\":");
    push_json_f64(s, o.mean_loc_error_after_ft.unwrap_or(f64::NAN));
    s.push('}');
}

/// Extracts the raw text of field `name` from a *flat* JSON object (no
/// nested objects or escaped strings — all we ever write).
fn raw_field<'a>(obj: &'a str, name: &str) -> Option<&'a str> {
    let pat = format!("\"{name}\":");
    let start = obj.find(&pat)? + pat.len();
    let rest = &obj[start..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim())
}

fn num_field<T: std::str::FromStr>(obj: &str, name: &str) -> Option<T> {
    raw_field(obj, name)?.parse().ok()
}

fn opt_f64_field(obj: &str, name: &str) -> Option<Option<f64>> {
    let raw = raw_field(obj, name)?;
    if raw == "null" {
        Some(None)
    } else {
        raw.parse().ok().map(Some)
    }
}

fn str_field<'a>(obj: &'a str, name: &str) -> Option<&'a str> {
    raw_field(obj, name)?
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
}

fn decode_outcome(obj: &str) -> Option<SimOutcome> {
    Some(SimOutcome {
        malicious_total: num_field(obj, "malicious_total")?,
        benign_total: num_field(obj, "benign_total")?,
        revoked_malicious: num_field(obj, "revoked_malicious")?,
        revoked_benign: num_field(obj, "revoked_benign")?,
        affected_before: num_field(obj, "affected_before")?,
        affected_after: num_field(obj, "affected_after")?,
        benign_alerts: num_field(obj, "benign_alerts")?,
        collusion_alerts: num_field(obj, "collusion_alerts")?,
        mean_requesters_per_beacon: num_field(obj, "mean_requesters_per_beacon")?,
        mean_loc_error_before_ft: opt_f64_field(obj, "mean_loc_error_before_ft")?,
        mean_loc_error_after_ft: opt_f64_field(obj, "mean_loc_error_after_ft")?,
    })
}

/// The `{...}` of the `"outcome"` field inside a checkpoint line.
/// The outcome object is flat, so its first `}` closes it.
fn outcome_object(line: &str) -> Option<&str> {
    let start = line.find("\"outcome\":")? + "\"outcome\":".len();
    let rest = &line[start..];
    rest.starts_with('{')
        .then(|| rest.find('}').map(|end| &rest[..=end]))
        .flatten()
}

// ---------------------------------------------------------------------------
// Result cache export
// ---------------------------------------------------------------------------

/// Appends one JSONL export line, newline included, to `out`.
fn push_cache_line(out: &mut String, key: CellKey, outcome: &SimOutcome) {
    out.push_str("{\"key\":\"");
    push_hex16(out, key.0);
    out.push_str("\",\"outcome\":");
    encode_outcome(outcome, out);
    out.push_str("}\n");
}

/// Writes every entry of `cache` to `out` as one JSONL line
/// (`{"key":…,"outcome":…}`), in `(shard, offset)` order: append order,
/// which in a one-shard cache is cell order. The text is an export for
/// reading with other tools; nothing reads it back. Returns the number of
/// lines written.
pub fn export_jsonl(cache: &BinaryCache, out: &mut impl io::Write) -> io::Result<usize> {
    let entries = cache.entries()?;
    let mut line = String::with_capacity(384);
    for (key, outcome) in &entries {
        line.clear();
        push_cache_line(&mut line, *key, outcome);
        out.write_all(line.as_bytes())?;
    }
    Ok(entries.len())
}

/// What [`BinaryCache::insert_checked`] did with the entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheInsert {
    /// New entry recorded and appended.
    Inserted,
    /// The key was already present with a bit-identical outcome.
    Duplicate,
    /// The key was already present with a **different** outcome — the
    /// cache's purity invariant is violated.
    Conflict,
}

/// On-disk representation of a persisted result cache. There is one: a
/// [`BinaryCache`] directory of fixed-width record shards plus a
/// persistent key index (see [`crate::cache`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheFormat {
    /// Sharded fixed-width records plus a persistent key index — open
    /// reads the index's slot array into memory and warm start probes it
    /// per cell, so a lookup costs the same however large the cache is.
    Binary,
}

// ---------------------------------------------------------------------------
// Checkpoint stream
// ---------------------------------------------------------------------------

const CHECKPOINT_VERSION: u32 = 1;

/// Checkpoint lines are written out once this many bytes are staged (and
/// at the end of every frontier advance), so a sweep resolving thousands
/// of cells at once — a warm start — never holds its whole body.
const CHECKPOINT_CHUNK: usize = 64 * 1024;

/// The checkpoint's first line. The tag is a JSON string, escaped, so any
/// tag keeps the line valid JSON.
fn header_line(cells: usize, grid: CellKey, tag: &str) -> String {
    let mut tag_json = String::new();
    push_json_string(&mut tag_json, tag);
    format!(
        "{{\"kind\":\"sweep\",\"version\":{CHECKPOINT_VERSION},\"cells\":{cells},\"grid\":\"{grid}\",\"tag\":{tag_json}}}\n"
    )
}

/// Appends one cell's checkpoint line, newline included, to `out`.
fn push_cell_line(out: &mut String, index: usize, key: CellKey, seed: u64, outcome: &SimOutcome) {
    out.push_str("{\"kind\":\"cell\",\"index\":");
    push_u64(out, index as u64);
    out.push_str(",\"key\":\"");
    push_hex16(out, key.0);
    out.push_str("\",\"seed\":");
    push_u64(out, seed);
    out.push_str(",\"outcome\":");
    encode_outcome(outcome, out);
    out.push_str("}\n");
}

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Parses an existing checkpoint into the completed prefix of outcomes.
/// Returns `Ok(vec![])` for an empty/absent file. Fails when the header
/// is not the one this sweep writes (different `grid` key over `keys`,
/// cell count or code tag) or a recorded key contradicts the expected
/// cell — a resume must never splice foreign results.
fn load_checkpoint_prefix(
    path: &Path,
    keys: &[CellKey],
    grid: CellKey,
    tag: &str,
) -> io::Result<Vec<SimOutcome>> {
    if !path.exists() {
        return Ok(Vec::new());
    }
    let text = fs::read_to_string(path)?;
    let mut lines = text.lines();
    let Some(header) = lines.next() else {
        return Ok(Vec::new());
    };
    // A file cut inside the header is treated as no progress at all.
    if str_field(header, "kind") != Some("sweep") || !text.contains('\n') {
        return Ok(Vec::new());
    }
    if num_field::<u32>(header, "version") != Some(CHECKPOINT_VERSION) {
        return Err(bad_data(format!(
            "checkpoint {} has an unsupported version",
            path.display()
        )));
    }
    if header_line(keys.len(), grid, tag).strip_suffix('\n') != Some(header) {
        return Err(bad_data(format!(
            "checkpoint {} does not match this sweep (grid/tag/cell-count \
             differ); delete it or point the sweep elsewhere",
            path.display()
        )));
    }
    let mut prefix: Vec<SimOutcome> = Vec::new();
    for line in lines {
        let index: Option<usize> = num_field(line, "index");
        let key = str_field(line, "key").and_then(CellKey::parse);
        let outcome = outcome_object(line).and_then(decode_outcome);
        let (Some(index), Some(key), Some(outcome)) = (index, key, outcome) else {
            break; // crash-truncated tail: everything before it stands
        };
        if index != prefix.len() {
            return Err(bad_data(format!(
                "checkpoint {} is out of order at index {index}",
                path.display()
            )));
        }
        if index >= keys.len() || key != keys[index] {
            return Err(bad_data(format!(
                "checkpoint {} records a different cell at index {index} \
                 (stale code version or edited grid)",
                path.display()
            )));
        }
        prefix.push(outcome);
    }
    Ok(prefix)
}

// ---------------------------------------------------------------------------
// Orchestrator
// ---------------------------------------------------------------------------

/// What one worker thread of a sweep did. Scheduling is work-stealing, so
/// these numbers describe load balance, not outcomes — outcomes are
/// scheduling-independent by construction.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkerStats {
    /// Worker index within the pool (0-based).
    pub worker: usize,
    /// Scheduling units this worker claimed and ran.
    pub units: u64,
    /// Cells simulated across those units.
    pub cells: u64,
    /// Batches claimed from the shared queue.
    pub batches: u64,
    /// Batches claimed beyond the worker's first — each one is work this
    /// worker pulled that a static contiguous-chunk split would have left
    /// pinned on another thread.
    pub steals: u64,
    /// Wall time spent simulating units.
    pub busy_ns: u64,
    /// Wall time alive but not simulating (queue empty, channel sends).
    pub idle_ns: u64,
}

/// What one sweep did, beyond the outcomes themselves.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Per-cell outcomes, in sweep order.
    pub outcomes: Vec<SimOutcome>,
    /// Cells replayed from an existing checkpoint.
    pub resumed: usize,
    /// Cells served by the result cache.
    pub cache_hits: usize,
    /// Cells actually simulated this run.
    pub executed: usize,
    /// Worker threads spawned: `min(requested workers, scheduling units)`
    /// (0 when nothing needed simulating). Deterministic for a given spec.
    pub workers_spawned: usize,
    /// Workers that actually ran at least one unit — under work-stealing
    /// a fast sweep can drain the queue before every spawned worker gets
    /// a claim in, so this can be lower than `workers_spawned`. This is
    /// what the `sweep.workers_used` gauge reports.
    pub workers_used: usize,
    /// Total batches stolen (claimed beyond each worker's first) across
    /// the pool.
    pub steal_batches: u64,
    /// Executed cells per wall-clock second of the execution phase (0.0
    /// when nothing was executed).
    pub cells_per_sec: f64,
    /// Shards of the binary result cache backing this sweep (0 when the
    /// sweep runs without a cache).
    pub cache_shards: u32,
    /// Per-worker load-balance stats, indexed by worker id.
    pub worker_stats: Vec<WorkerStats>,
}

/// Claims the next batch of scheduling units off the shared queue. Batch
/// size shrinks as the queue drains — `remaining / (workers × 4)`,
/// floored at 1 — so early claims amortize the atomic while the tail
/// hands out single units for balance; the unit *order* (largest first)
/// plus this sizing is what keeps a skewed grid from pinning the sweep to
/// its slowest contiguous chunk.
fn claim_batch(cursor: &AtomicUsize, total: usize, workers: usize) -> std::ops::Range<usize> {
    loop {
        let start = cursor.load(Ordering::SeqCst);
        if start >= total {
            return total..total;
        }
        let remaining = total - start;
        let take = (remaining / (workers * 4)).clamp(1, remaining);
        if cursor
            .compare_exchange(start, start + take, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            return start..start + take;
        }
    }
}

/// The sweep engine. Configure with the builder methods, then run
/// ([`Orchestrator::run`]) any number of [`SweepSpec`]s.
#[derive(Debug, Default)]
pub struct Orchestrator {
    workers: usize,
    cache_path: Option<PathBuf>,
    checkpoint_path: Option<PathBuf>,
    obs: Obs,
    tag: Option<String>,
    flight: Option<(Arc<FlightRecorder>, PathBuf)>,
}

impl Orchestrator {
    /// An orchestrator with automatic parallelism, no cache and no
    /// checkpoint.
    pub fn new() -> Self {
        Orchestrator::default()
    }

    /// Caps the worker pool at `n` threads. **`workers(0)` (the default)
    /// means one worker per available core** — it resolves to
    /// [`std::thread::available_parallelism`] at run time, falling back
    /// to 1 when the parallelism is unknowable. The pool is additionally
    /// capped at the number of scheduling units that actually need
    /// simulating, so small or mostly-cached sweeps never spawn idle
    /// threads; [`SweepReport::workers_spawned`] records the clamped pool
    /// size and [`SweepReport::workers_used`] how many of those workers
    /// claimed at least one unit. Workers pull units off a shared
    /// work-stealing queue (largest units first, shrinking batches), so
    /// heterogeneous cell costs rebalance instead of serializing on the
    /// slowest static chunk; outcomes, cache bytes and checkpoint bytes
    /// are identical for every worker count.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Persists the result cache at `path`: a sharded, indexed
    /// [`BinaryCache`] directory, created if absent, whose warm start reads
    /// the key index once and then only the probed cells' records. An
    /// existing regular file at `path` (a JSONL cache from an older build,
    /// say) fails the run with [`io::ErrorKind::InvalidData`] and is left
    /// untouched; [`export_jsonl`] writes a cache out as JSONL.
    pub fn cache(mut self, path: impl Into<PathBuf>) -> Self {
        self.cache_path = Some(path.into());
        self
    }

    /// Does nothing: [`CacheFormat::Binary`] is the only cache format.
    /// Kept only so the `benchmark/` package's callers build; it goes when
    /// those do.
    pub fn cache_format(self, _format: CacheFormat) -> Self {
        self
    }

    /// Streams the checkpoint to `path`; an existing file there is resumed
    /// from (and rewritten byte-identically) rather than discarded.
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint_path = Some(path.into());
        self
    }

    /// Reports progress on `obs`: counters `sweep.cells_{total,resumed,
    /// cached,executed,done}` and `sweep.steal_batches`, gauges
    /// `sweep.workers` (pool spawned), `sweep.workers_used` (workers that
    /// ran ≥ 1 unit), `sweep.cache_shards` and `sweep.cells_per_sec`,
    /// plus `sweep.start` / `sweep.worker` / `sweep.end` events.
    /// Telemetry never touches the cells' RNG streams, so observed and
    /// unobserved sweeps are bit-identical.
    pub fn observed(mut self, obs: &Obs) -> Self {
        self.obs = obs.clone();
        self
    }

    /// Overrides the code-version tag (tests use this to simulate a code
    /// change invalidating a cache).
    pub fn tag(mut self, tag: impl Into<String>) -> Self {
        self.tag = Some(tag.into());
        self
    }

    /// Attaches a flight recorder: `recorder` is fanned into the event
    /// stream alongside any sink from [`Orchestrator::observed`], and when
    /// a cell's simulation panics (or a cache conflict is detected) the
    /// recorder's tail for that cell's trace is dumped to
    /// `<dump_dir>/flightrec_<cellkey>.jsonl` before the error propagates.
    pub fn flight_recorder(
        mut self,
        recorder: Arc<FlightRecorder>,
        dump_dir: impl Into<PathBuf>,
    ) -> Self {
        self.flight = Some((recorder, dump_dir.into()));
        self
    }

    fn effective_tag(&self) -> String {
        self.tag.clone().unwrap_or_else(code_version_tag)
    }

    /// Runs (or resumes) the sweep and returns per-cell outcomes in sweep
    /// order. Identical spec + tag always yield identical outcomes and an
    /// identical checkpoint file, whatever mix of fresh runs, cache hits
    /// and resumed cells produced them.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics (a cell's simulation panicked).
    pub fn run(&self, spec: &SweepSpec) -> io::Result<SweepReport> {
        let tag = self.effective_tag();
        // Every key is derived once per run, and only a checkpointed run
        // needs the grid key over them.
        let keys = spec.keys(&tag);
        let checkpoint = self
            .checkpoint_path
            .as_deref()
            .map(|path| (path, grid_key(&keys)));
        // With a flight recorder configured, fan it into the event stream
        // next to the caller's sink so its ring always holds the tail of
        // exactly what was emitted.
        let obs = match &self.flight {
            Some((recorder, _)) => {
                let tap: Arc<dyn EventSink + Send + Sync> = recorder.clone();
                let sink: Arc<dyn EventSink + Send + Sync> = match self.obs.sink() {
                    Some(existing) => Arc::new(FanoutSink::new(vec![existing.clone(), tap])),
                    None => tap,
                };
                Obs::new(self.obs.metrics().cloned(), Some(sink))
            }
            None => self.obs.clone(),
        };
        let span = obs.span("sweep.run");
        obs.add("sweep.cells_total", spec.len() as u64);
        obs.emit(
            "sweep.start",
            &[
                ("cells", Value::U64(spec.len() as u64)),
                ("tag", Value::Str(tag.clone())),
            ],
        );

        // 1. Replay the checkpoint prefix, if any.
        let prefix = match checkpoint {
            Some((path, grid)) => load_checkpoint_prefix(path, &keys, grid, &tag)?,
            None => Vec::new(),
        };
        let resumed = prefix.len();
        obs.add("sweep.cells_resumed", resumed as u64);

        // 2. Consult the cache for everything past the prefix. A binary
        //    cache probes its in-memory index per key and reads records
        //    through a per-shard window, so a lookup's cost is independent
        //    of how many dead cells the cache has accumulated (open reads
        //    their slots once).
        let mut cache = match &self.cache_path {
            Some(path) => Some(BinaryCache::open(path, spec.len())?),
            None => None,
        };
        let cache_shards = cache.as_ref().map_or(0, BinaryCache::shard_count);
        obs.set_gauge("sweep.cache_shards", i64::from(cache_shards));
        let mut results: Vec<Option<SimOutcome>> = vec![None; spec.len()];
        // Cells already persisted in the cache: their frontier flush must
        // not pay a redundant read-back probe.
        let mut in_cache: Vec<bool> = vec![false; spec.len()];
        for (i, outcome) in prefix.into_iter().enumerate() {
            if obs.sink_attached() {
                cell_scope(&obs, keys[i], spec.cells()[i].seed).emit(
                    "cell.complete",
                    &[("cache", Value::Str("resumed".to_string()))],
                );
            }
            results[i] = Some(outcome);
        }
        let mut cache_hits = 0usize;
        let mut pending: Vec<usize> = Vec::new();
        for i in resumed..spec.len() {
            let hit = match &cache {
                Some(cache) => cache.get(keys[i])?,
                None => None,
            };
            if let Some(hit) = hit {
                results[i] = Some(hit);
                in_cache[i] = true;
                cache_hits += 1;
                if obs.sink_attached() {
                    cell_scope(&obs, keys[i], spec.cells()[i].seed)
                        .emit("cell.complete", &[("cache", Value::Str("hit".to_string()))]);
                }
            } else {
                pending.push(i);
            }
        }
        obs.add("sweep.cells_cached", cache_hits as u64);
        obs.add("sweep.cells_executed", pending.len() as u64);

        // 3. Fold the pending cells into scheduling units: cells with the
        //    same probe fingerprint and seed form one unit that deploys +
        //    probes once (first-appearance order, so a pure policy sweep
        //    stays in sweep order). Units go into a shared work-stealing
        //    queue, never more workers than units.
        let units: Vec<Vec<usize>> = spec.probe_units(&pending);
        let requested = if self.workers == 0 {
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.workers
        };
        let workers = requested.min(units.len());
        obs.set_gauge("sweep.workers", workers as i64);
        // Queue order: largest units first (unit size is the one cost
        // signal known up front), stable within equal sizes so a uniform
        // grid still drains in sweep order. Scheduling order is invisible
        // in every output — results merge at the frontier in cell order.
        let mut order: Vec<usize> = (0..units.len()).collect();
        order.sort_by_key(|&u| std::cmp::Reverse(units[u].len()));

        // 4. Stream results: workers push (cell index, outcome); the main
        //    thread advances the completion frontier in cell order. Each
        //    advance's checkpoint lines go out in writes of about
        //    `CHECKPOINT_CHUNK` bytes that end at line boundaries, all
        //    before that advance's cache appends, so the file is "header +
        //    exact prefix" (at worst with a torn last line) at every instant.
        let mut checkpoint_file = match checkpoint {
            Some((path, grid)) => {
                if let Some(parent) = path.parent() {
                    if !parent.as_os_str().is_empty() {
                        fs::create_dir_all(parent)?;
                    }
                }
                let mut file = fs::File::create(path)?;
                file.write_all(header_line(spec.len(), grid, &tag).as_bytes())?;
                Some(file)
            }
            None => None,
        };
        // Staged checkpoint lines: one reused buffer, bounded by the chunk
        // size plus a line, however far one advance reaches.
        let mut lines = String::new();
        let mut frontier = 0usize; // next cell whose line is unwritten
        let flight = self.flight.as_ref();
        let in_cache = &in_cache;
        let mut flush_frontier = |results: &[Option<SimOutcome>],
                                  frontier: &mut usize,
                                  cache: &mut Option<BinaryCache>,
                                  obs: &Obs|
         -> io::Result<()> {
            let start = *frontier;
            let resolved = results[start..].iter().take_while(|r| r.is_some()).count();
            if resolved == 0 {
                return Ok(());
            }
            let advanced = start..start + resolved;
            let outcome = |i: usize| results[i].as_ref().expect("inside the frontier");
            if let Some(file) = &mut checkpoint_file {
                for i in advanced.clone() {
                    push_cell_line(&mut lines, i, keys[i], spec.cells()[i].seed, outcome(i));
                    if lines.len() >= CHECKPOINT_CHUNK || i + 1 == advanced.end {
                        file.write_all(lines.as_bytes())?;
                        lines.clear();
                    }
                }
            }
            let mut last_shard: Option<u32> = None;
            for i in advanced.clone() {
                // Cells that came *from* the cache are by definition
                // already present — skip the read-back probe.
                let Some(cache) = cache.as_mut().filter(|_| !in_cache[i]) else {
                    continue;
                };
                let key = keys[i];
                last_shard = Some(cache.shard_of(key));
                if cache.insert_checked(key, outcome(i).clone())? == CacheInsert::Conflict {
                    // The purity contract broke: same key, different
                    // outcome. Keep going (the fresh result stands in the
                    // checkpoint) but surface it as a health event and
                    // preserve the cell's trace for the post-mortem.
                    cell_scope(obs, key, spec.cells()[i].seed).emit(
                        "health.cache_conflict",
                        &[(
                            "message",
                            Value::Str(format!(
                                "cell {key} produced an outcome different from its cache entry"
                            )),
                        )],
                    );
                    if let Some((recorder, dir)) = flight {
                        let _ =
                            recorder.dump_trace(dir.join(format!("flightrec_{key}.jsonl")), key.0);
                    }
                }
            }
            obs.add("sweep.cells_done", advanced.len() as u64);
            *frontier = advanced.end;
            if checkpoint_file.is_some() {
                // The `shard` field names the binary-cache shard the last
                // flushed record appended to, so a stream reader can
                // follow per-shard append progress.
                match last_shard {
                    Some(shard) => obs.emit(
                        "checkpoint.advance",
                        &[
                            ("frontier", Value::U64(*frontier as u64)),
                            ("shard", Value::U64(u64::from(shard))),
                        ],
                    ),
                    None => obs.emit(
                        "checkpoint.advance",
                        &[("frontier", Value::U64(*frontier as u64))],
                    ),
                }
            }
            Ok(())
        };
        // Everything known up front (resumed + cached) checkpoints first.
        flush_frontier(&results, &mut frontier, &mut cache, &obs)?;

        let mut worker_stats: Vec<WorkerStats> = Vec::with_capacity(workers);
        let exec_started = Instant::now();
        if !pending.is_empty() {
            let (tx, rx) = mpsc::channel::<(usize, SimOutcome)>();
            let expected = pending.len();
            let mut io_result: io::Result<()> = Ok(());
            let cursor = AtomicUsize::new(0);
            let stats_out = &mut worker_stats;
            thread::scope(|scope| {
                let cursor = &cursor;
                let order = &order;
                let units = &units;
                let mut handles = Vec::with_capacity(workers);
                for w in 0..workers {
                    let tx = tx.clone();
                    let ctx = WorkerCtx {
                        cells: spec.cells(),
                        keys: &keys,
                        obs: &obs,
                        flight,
                    };
                    handles.push(scope.spawn(move || {
                        let alive = Instant::now();
                        let mut stats = WorkerStats {
                            worker: w,
                            ..WorkerStats::default()
                        };
                        'steal: loop {
                            let batch = claim_batch(cursor, order.len(), workers);
                            if batch.is_empty() {
                                break;
                            }
                            stats.batches += 1;
                            stats.steals += u64::from(stats.batches > 1);
                            for &u in &order[batch] {
                                let unit = &units[u];
                                stats.units += 1;
                                stats.cells += unit.len() as u64;
                                let busy = Instant::now();
                                let sent = run_unit(ctx, unit, &tx);
                                stats.busy_ns += busy.elapsed().as_nanos() as u64;
                                if sent.is_err() {
                                    break 'steal; // receiver bailed on I/O
                                }
                            }
                        }
                        stats.idle_ns =
                            (alive.elapsed().as_nanos() as u64).saturating_sub(stats.busy_ns);
                        stats
                    }));
                }
                drop(tx);
                for _ in 0..expected {
                    let Ok((i, outcome)) = rx.recv() else {
                        break; // a worker panicked; the joins re-raise it
                    };
                    results[i] = Some(outcome);
                    io_result = flush_frontier(&results, &mut frontier, &mut cache, &obs);
                    if io_result.is_err() {
                        break;
                    }
                }
                for handle in handles {
                    match handle.join() {
                        Ok(stats) => stats_out.push(stats),
                        Err(payload) => panic::resume_unwind(payload),
                    }
                }
            });
            io_result?;
        }

        let workers_used = worker_stats.iter().filter(|s| s.units > 0).count();
        let steal_batches: u64 = worker_stats.iter().map(|s| s.steals).sum();
        let exec_secs = exec_started.elapsed().as_secs_f64();
        let cells_per_sec = if pending.is_empty() || exec_secs <= 0.0 {
            0.0
        } else {
            pending.len() as f64 / exec_secs
        };
        obs.set_gauge("sweep.workers_used", workers_used as i64);
        obs.set_gauge("sweep.cells_per_sec", cells_per_sec as i64);
        obs.add("sweep.steal_batches", steal_batches);
        if obs.sink_attached() {
            for s in &worker_stats {
                obs.emit(
                    "sweep.worker",
                    &[
                        ("worker", Value::U64(s.worker as u64)),
                        ("units", Value::U64(s.units)),
                        ("cells", Value::U64(s.cells)),
                        ("batches", Value::U64(s.batches)),
                        ("steals", Value::U64(s.steals)),
                        ("busy_ns", Value::U64(s.busy_ns)),
                        ("idle_ns", Value::U64(s.idle_ns)),
                    ],
                );
            }
        }

        let outcomes: Vec<SimOutcome> = results
            .into_iter()
            .map(|o| o.expect("every cell resolved"))
            .collect();
        obs.emit(
            "sweep.end",
            &[
                ("cells", Value::U64(spec.len() as u64)),
                ("resumed", Value::U64(resumed as u64)),
                ("cached", Value::U64(cache_hits as u64)),
                ("executed", Value::U64(pending.len() as u64)),
            ],
        );
        span.finish();
        obs.flush();
        Ok(SweepReport {
            outcomes,
            resumed,
            cache_hits,
            executed: pending.len(),
            workers_spawned: workers,
            workers_used,
            steal_batches,
            cells_per_sec,
            cache_shards,
            worker_stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::any;

    fn tiny() -> SimConfig {
        SimConfig {
            nodes: 120,
            beacons: 12,
            malicious: 3,
            attacker_p: 0.5,
            ..SimConfig::paper_default()
        }
    }

    /// The canonical cell string as earlier builds formatted it, whole.
    /// Keys derived per config run must hash exactly these bytes.
    fn canonical_cell(config: &SimConfig, seed: u64, tag: &str) -> String {
        format!("{config:?};seed={seed};options=plain;tag={tag}")
    }

    /// The grid key as earlier builds computed it: every key recomputed
    /// from its canonical string, joined as `"{key};"`.
    fn oracle_grid_key(spec: &SweepSpec, tag: &str) -> CellKey {
        let joined: String = spec
            .cells()
            .iter()
            .map(|c| {
                let key = CellKey(secloc_obs::fnv1a(
                    canonical_cell(&c.config, c.seed, tag).as_bytes(),
                ));
                format!("{key};")
            })
            .collect();
        CellKey(secloc_obs::fnv1a(joined.as_bytes()))
    }

    /// The probe fingerprint as earlier builds formatted it, seed inline.
    fn oracle_probe_fingerprint(config: &SimConfig, seed: u64) -> String {
        format!(
            "{:?};seed={seed};max_ranging_error_ft={:?};detecting_ids={:?};\
             wormhole_detection_rate={:?};attacker_p={:?};lie_offset_ft={:?}",
            config.topology_key(),
            config.max_ranging_error_ft,
            config.detecting_ids,
            config.wormhole_detection_rate,
            config.attacker_p,
            config.lie_offset_ft,
        )
    }

    fn assert_keys_match_oracle(spec: &SweepSpec, tag: &str) {
        let keys = spec.keys(tag);
        assert_eq!(keys.len(), spec.len());
        for (cell, key) in spec.cells().iter().zip(&keys) {
            let want = CellKey(secloc_obs::fnv1a(
                canonical_cell(&cell.config, cell.seed, tag).as_bytes(),
            ));
            assert_eq!(*key, want, "seed {}", cell.seed);
            assert_eq!(cell_key(&cell.config, cell.seed, tag), want);
        }
        assert_eq!(grid_key(&keys), oracle_grid_key(spec, tag));
    }

    #[test]
    fn run_derived_keys_equal_the_canonical_string_hash() {
        let faulted = SimConfig {
            faults: crate::FaultPlan::default()
                .with_clock_drift(40)
                .with_noise_region(secloc_faults::NoiseRegion::whole_field(1000.0, 3.0)),
            ..tiny()
        };
        // `-0.0 == 0.0`, but the two print (and so key) differently.
        let neg_zero = SimConfig {
            lie_offset_ft: -0.0,
            ..tiny()
        };
        let pos_zero = SimConfig {
            lie_offset_ft: 0.0,
            ..tiny()
        };
        assert_eq!(neg_zero, pos_zero);
        let configs = [tiny(), faulted, neg_zero.clone(), pos_zero.clone()];
        let seeds = [0, 1, 7, u64::MAX];
        for tag in ["t", code_version_tag().as_str()] {
            assert_keys_match_oracle(&SweepSpec::product(&configs, &seeds), tag);
            assert_keys_match_oracle(&SweepSpec::single(&configs[1], &seeds), tag);
            assert_keys_match_oracle(&SweepSpec::product(&configs, &[]), tag);
            let explicit: Vec<SweepCell> = [(&neg_zero, 0), (&pos_zero, 0), (&pos_zero, u64::MAX)]
                .into_iter()
                .map(|(config, seed)| SweepCell {
                    config: config.clone(),
                    seed,
                })
                .collect();
            assert_keys_match_oracle(&SweepSpec::new(explicit), tag);
            assert_keys_match_oracle(&SweepSpec::default(), tag);
        }
        let keys = SweepSpec::product(&[neg_zero, pos_zero], &[3]).keys("t");
        assert_ne!(keys[0], keys[1], "-0.0 and 0.0 configs must key apart");
    }

    #[test]
    fn probe_units_match_old_fingerprint_grouping() {
        // Two topologies, policies shared between them, and a repeated
        // seed: units must be exactly the distinct old-style fingerprints
        // (seed inline), in first-appearance order.
        let mut other_topo = tiny();
        other_topo.beacons = 14;
        let mut configs = Vec::new();
        for base in [tiny(), other_topo] {
            for (tau, attacker_p) in [(1, 0.5), (2, 0.5), (1, 0.9)] {
                configs.push(SimConfig {
                    tau,
                    attacker_p,
                    ..base.clone()
                });
            }
        }
        let spec = SweepSpec::product(&configs, &[4, 5, 4]);
        let mut explicit = spec.cells().to_vec();
        explicit.extend(spec.cells()[..4].iter().cloned());
        for spec in [spec, SweepSpec::new(explicit)] {
            let pending: Vec<usize> = (0..spec.len()).filter(|i| i % 5 != 2).collect();
            let mut want: Vec<(String, Vec<usize>)> = Vec::new();
            for &i in &pending {
                let cell = &spec.cells()[i];
                let fp = oracle_probe_fingerprint(&cell.config, cell.seed);
                match want.iter_mut().find(|(f, _)| *f == fp) {
                    Some((_, unit)) => unit.push(i),
                    None => want.push((fp, vec![i])),
                }
            }
            let want: Vec<Vec<usize>> = want.into_iter().map(|(_, unit)| unit).collect();
            assert_eq!(spec.probe_units(&pending), want);

            let report = Orchestrator::new().workers(2).run(&spec).unwrap();
            let all_fps: std::collections::HashSet<String> = spec
                .cells()
                .iter()
                .map(|c| oracle_probe_fingerprint(&c.config, c.seed))
                .collect();
            let units: u64 = report.worker_stats.iter().map(|w| w.units).sum();
            assert_eq!(units as usize, all_fps.len());
        }
    }

    #[test]
    fn cell_keys_are_stable_and_sensitive() {
        let a = cell_key(&tiny(), 1, "t");
        assert_eq!(a, cell_key(&tiny(), 1, "t"), "same inputs, same key");
        assert_ne!(a, cell_key(&tiny(), 2, "t"), "seed changes the key");
        assert_ne!(a, cell_key(&tiny(), 1, "u"), "tag changes the key");
        let mut other = tiny();
        other.attacker_p = 0.6;
        assert_ne!(a, cell_key(&other, 1, "t"), "config changes the key");
        // Round-trips through the display form, and only that form: a
        // sign would parse to a key that prints as a different string.
        assert_eq!(CellKey::parse(&a.to_string()), Some(a));
        assert_eq!(
            CellKey::parse("0123456789abcdef"),
            Some(CellKey(0x0123_4567_89ab_cdef))
        );
        assert_eq!(CellKey::parse("xyz"), None);
        assert_eq!(CellKey::parse("+123456789abcdef"), None);
        assert_eq!(CellKey::parse("-123456789abcdef"), None);
        assert_eq!(CellKey::parse("0123456789abcdeg"), None);
    }

    #[test]
    fn outcome_encoding_round_trips_bit_identically() {
        let outcome = Runner::new(tiny(), 3).run(RunOptions::new()).outcome;
        let encode = |o: &SimOutcome| {
            let mut s = String::new();
            encode_outcome(o, &mut s);
            s
        };
        let decoded = decode_outcome(&encode(&outcome)).expect("decodes");
        assert_eq!(decoded, outcome);
        // And an awkward hand-built one, exercising null/fractional paths.
        let awkward = SimOutcome {
            malicious_total: 0,
            benign_total: 1,
            revoked_malicious: 0,
            revoked_benign: 0,
            affected_before: 0.1 + 0.2, // not exactly representable
            affected_after: f64::MIN_POSITIVE,
            benign_alerts: usize::MAX,
            collusion_alerts: 0,
            mean_requesters_per_beacon: 1.0 / 3.0,
            mean_loc_error_before_ft: None,
            mean_loc_error_after_ft: Some(1e-300),
        };
        assert_eq!(decode_outcome(&encode(&awkward)), Some(awkward));
    }

    /// The `format!`-based outcome encoder `encode_outcome` replaced,
    /// kept as its oracle.
    fn encode_outcome_fmt(o: &SimOutcome, s: &mut String) {
        let f64_text = |v: f64| {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            }
        };
        let opt_text = |v: Option<f64>| v.map_or_else(|| "null".to_string(), f64_text);
        let _ = write!(
            s,
            "{{\"malicious_total\":{},\"benign_total\":{},\"revoked_malicious\":{},\
             \"revoked_benign\":{},\"affected_before\":{},\"affected_after\":{},\
             \"benign_alerts\":{},\"collusion_alerts\":{},\"mean_requesters_per_beacon\":{},\
             \"mean_loc_error_before_ft\":{},\"mean_loc_error_after_ft\":{}}}",
            o.malicious_total,
            o.benign_total,
            o.revoked_malicious,
            o.revoked_benign,
            f64_text(o.affected_before),
            f64_text(o.affected_after),
            o.benign_alerts,
            o.collusion_alerts,
            f64_text(o.mean_requesters_per_beacon),
            opt_text(o.mean_loc_error_before_ft),
            opt_text(o.mean_loc_error_after_ft),
        );
    }

    /// The `format!`-based checkpoint line writer, kept as an oracle.
    fn push_cell_line_fmt(out: &mut String, index: usize, key: CellKey, seed: u64, o: &SimOutcome) {
        let _ = write!(
            out,
            "{{\"kind\":\"cell\",\"index\":{index},\"key\":\"{key}\",\"seed\":{seed},\"outcome\":"
        );
        encode_outcome_fmt(o, out);
        out.push_str("}\n");
    }

    /// Floats from raw bits (NaN, ±inf, ±0, subnormals, every magnitude)
    /// or from the ranges real outcomes take.
    fn outcome_float(selector: u8, raw: u64) -> f64 {
        match selector % 3 {
            0 => f64::from_bits(raw),
            1 => (raw >> 11) as f64 / (1u64 << 53) as f64 * 200.0,
            _ => (raw % 1000) as f64 / 7.0,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(3000))]

        #[test]
        fn encoders_match_their_fmt_oracles(
            counts in (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
            alerts in (any::<usize>(), any::<usize>()),
            floats in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            shape in (any::<u8>(), any::<u8>(), any::<u64>(), any::<u64>()),
        ) {
            let (selector, options, index, seed) = shape;
            let pick = |k: u8, raw: u64| outcome_float(selector.wrapping_add(k), raw);
            let o = SimOutcome {
                malicious_total: counts.0,
                benign_total: counts.1,
                revoked_malicious: counts.2,
                revoked_benign: counts.3,
                affected_before: pick(0, floats.0),
                affected_after: pick(1, floats.1),
                benign_alerts: alerts.0,
                collusion_alerts: alerts.1,
                mean_requesters_per_beacon: pick(2, floats.2),
                mean_loc_error_before_ft: (options & 1 == 1).then(|| pick(3, floats.3)),
                mean_loc_error_after_ft: (options & 2 == 2).then(|| pick(4, floats.4)),
            };
            let (mut new, mut old) = (String::new(), String::new());
            encode_outcome(&o, &mut new);
            encode_outcome_fmt(&o, &mut old);
            proptest::prop_assert_eq!(&new, &old);
            let key = CellKey(floats.0 ^ seed);
            let (mut new, mut old) = (String::new(), String::new());
            push_cell_line(&mut new, index as usize, key, seed, &o);
            push_cell_line_fmt(&mut old, index as usize, key, seed, &o);
            proptest::prop_assert_eq!(&new, &old);
            let mut line = String::new();
            push_cache_line(&mut line, key, &o);
            let mut want = format!("{{\"key\":\"{key}\",\"outcome\":");
            encode_outcome_fmt(&o, &mut want);
            want.push_str("}\n");
            proptest::prop_assert_eq!(line, want);
        }
    }

    #[test]
    fn grid_key_depends_on_order_and_content() {
        let seeds = [1u64, 2, 3];
        let grid = |seeds: &[u64]| grid_key(&SweepSpec::single(&tiny(), seeds).keys("t"));
        assert_eq!(grid(&seeds), grid(&seeds));
        assert_ne!(grid(&seeds), grid(&[3, 2, 1]));
    }

    #[test]
    fn plain_run_matches_runner_loop() {
        let seeds: Vec<u64> = (0..5).collect();
        let spec = SweepSpec::single(&tiny(), &seeds);
        let report = Orchestrator::new().workers(3).run(&spec).unwrap();
        assert_eq!(report.executed, 5);
        assert_eq!(report.resumed + report.cache_hits, 0);
        for (i, &seed) in seeds.iter().enumerate() {
            let direct = Runner::new(tiny(), seed).run(RunOptions::new()).outcome;
            assert_eq!(report.outcomes[i], direct, "seed {seed}");
        }
    }

    /// Every cell of `spec` run on its own, from a fresh deployment.
    fn fresh_outcomes(spec: &SweepSpec) -> Vec<SimOutcome> {
        spec.cells()
            .iter()
            .map(|c| {
                Runner::new(c.config.clone(), c.seed)
                    .run(RunOptions::new())
                    .outcome
            })
            .collect()
    }

    #[test]
    fn sharing_matches_fresh_runs_on_a_policy_grid() {
        // A τ/τ′ revocation-policy grid over two seeds: 12 cells, but only
        // two distinct probe fingerprints (one per seed).
        let mut configs = Vec::new();
        for tau in [1u32, 2, 3] {
            for tau_prime in [1u32, 2] {
                let mut c = tiny();
                c.tau = tau;
                c.tau_prime = tau_prime;
                configs.push(c);
            }
        }
        let spec = SweepSpec::product(&configs, &[5, 6]);
        let shared = Orchestrator::new().workers(4).run(&spec).unwrap();
        assert_eq!(
            shared.outcomes,
            fresh_outcomes(&spec),
            "probe-stage sharing must be invisible in the results"
        );
        assert_eq!(
            shared.workers_spawned, 2,
            "one scheduling unit per probe fingerprint"
        );
    }

    #[test]
    fn sharing_keeps_mixed_topology_grids_correct() {
        // Cells that differ in topology (and thus can never share) mixed
        // with policy-only variants of each.
        let mut other_topo = tiny();
        other_topo.beacons = 14;
        let mut policy_variant = tiny();
        policy_variant.alert_loss_rate = 0.35;
        let spec = SweepSpec::product(&[tiny(), other_topo, policy_variant], &[9]);
        let shared = Orchestrator::new().workers(2).run(&spec).unwrap();
        assert_eq!(shared.outcomes, fresh_outcomes(&spec));
        assert_eq!(shared.workers_spawned, 2, "two probe fingerprints");
    }

    #[test]
    fn fingerprints_follow_the_cell_key_convention() {
        assert_eq!(
            code_version_tag(),
            format!(
                "secloc-sim-{}+r{}",
                env!("CARGO_PKG_VERSION"),
                outcome_revision()
            )
        );
        let fp = config_fingerprint(&tiny());
        assert_eq!(fp.len(), 16, "16-hex like CellKey");
        assert!(CellKey::parse(&fp).is_some());
        assert_eq!(fp, config_fingerprint(&tiny()), "stable");
        let mut other = tiny();
        other.tau = tiny().tau + 1;
        assert_ne!(fp, config_fingerprint(&other), "config-sensitive");
    }

    #[test]
    fn worker_pool_never_exceeds_pending_cells() {
        let spec = SweepSpec::single(&tiny(), &[1, 2]);
        let report = Orchestrator::new().workers(16).run(&spec).unwrap();
        assert_eq!(report.workers_spawned, 2, "capped at pending cells");
        let empty = Orchestrator::new()
            .workers(16)
            .run(&SweepSpec::default())
            .unwrap();
        assert_eq!(empty.workers_spawned, 0);
        assert!(empty.outcomes.is_empty());
    }
}
