//! Layer probes: per-call costs of each layer's public entry points, on
//! inputs drawn from the workload itself — its configuration and seed
//! (deployment, probe stage, reference sets), the outcomes
//! of a sweep shaped like it (cache records) and that sweep's event stream
//! (wire, alerter and revocation-machine input).
//!
//! Only entry points the workloads themselves reach are timed:
//! `Deployment::generate`, `Runner::{run, probe_stage, solve_impact_chain,
//! finish_from_stage}`, `MmseScratch::load` + `BatchedMmse::estimate`,
//! `RevocationMachine::decide`, `parse_line`, `Alerter::{ingest,
//! ingest_line}`, `orchestrator::cell_key` and `BinaryCache::{open,
//! insert_checked, get}`. A run's geometry queries happen inside
//! `Deployment::generate` and its radio and crypto work inside the probe
//! stage, so those layers show in `deploy.generate_ms` and
//! `runner.probe_stage_ms`.

use crate::report::RunResult;
use crate::stats::median;
use crate::trace::{closure, closure_gap, SpanId, Tracer};
use crate::workloads::Ctx;
use secloc_alerter::{parse_line, Alerter, AlerterConfig, WireEvent};
use secloc_core::{RevocationConfig, RevocationMachine};
use secloc_crypto::NodeId;
use secloc_localization::{BatchedMmse, LocationReference, MmseScratch};
use secloc_obs::Obs;
use secloc_sim::orchestrator::{cell_key, code_version_tag, CacheInsert};
use secloc_sim::{BinaryCache, Deployment, RunOptions, Runner, SimConfig, SimOutcome};
use std::collections::BTreeMap;
use std::hint::black_box;

/// What the probes run on.
pub struct LayerInputs {
    /// The workload's representative cell.
    pub config: SimConfig,
    pub seed: u64,
    /// Policy cells that share one probe stage in the workload's sweeps
    /// (1 for single runs).
    pub cells_per_unit: f64,
    /// Outcomes of a sweep shaped like the workload.
    pub outcomes: Vec<SimOutcome>,
    /// That sweep's JSONL event stream.
    pub stream: Vec<u8>,
}

/// Op ids of probe spans start here, clear of the workload's op ids.
const PROBE_OP_BASE: u64 = 1 << 40;
/// A per-call pass repeats its call set until it made at least this many
/// calls, so tiny sets still time well above the clock's resolution
/// (smoke runs: a hundredth of it).
const MIN_CALLS_PER_PASS: usize = 20_000;
/// The stream probes use at most this many lines of the stream.
const MAX_PROBE_LINES: usize = 20_000;

struct Probe<'a> {
    tracer: &'a mut Tracer,
    op: u64,
    reps: usize,
    min_calls: usize,
}

impl Probe<'_> {
    /// Runs `f` in a span and returns its result and duration in ns.
    fn timed<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.tracer.open(name, parent, self.op);
        let r = f();
        self.tracer.close(id);
        (r, self.tracer.spans()[id].duration_ns() as f64)
    }

    /// Median ns per call of `pass`, which makes `calls` calls per
    /// invocation; each timed pass repeats it to reach
    /// `min_calls`.
    fn per_call(&mut self, name: &'static str, calls: usize, mut pass: impl FnMut()) -> f64 {
        if calls == 0 {
            return 0.0;
        }
        let repeat = self.min_calls.div_ceil(calls);
        pass(); // warm-up
        let mut per_call = Vec::with_capacity(self.reps);
        for _ in 0..self.reps {
            self.op += 1;
            let ((), ns) = self.timed(name, None, || {
                for _ in 0..repeat {
                    pass();
                }
            });
            per_call.push(ns / (repeat * calls) as f64);
        }
        median(&per_call)
    }
}

/// Runs every probe and fills the per-layer metrics they own.
pub fn probe(
    inputs: &LayerInputs,
    ctx: &Ctx,
    tracer: &mut Tracer,
    out: &mut RunResult,
) -> Result<(), String> {
    let mut p = Probe {
        tracer,
        op: PROBE_OP_BASE,
        reps: if ctx.smoke { 1 } else { 7 },
        min_calls: if ctx.smoke {
            MIN_CALLS_PER_PASS / 100
        } else {
            MIN_CALLS_PER_PASS
        },
    };
    let cfg = &inputs.config;
    let seed = inputs.seed;

    // ---- Runner phases: generate + probe stage + finish vs a whole run.
    let (mut gen, mut stage_ns, mut chain, mut fin, mut whole) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut counts = (0usize, 0usize, None::<SimOutcome>);
    for _ in 0..p.reps {
        p.op += 1;
        let root = p.tracer.open("probe.runner_phases", None, p.op);
        let (d, ns) = p.timed("deploy.generate", Some(root), || {
            Deployment::generate(cfg.clone(), seed)
        });
        gen.push(ns);
        let pairs = d.audible_pair_count(0, cfg.nodes);
        let runner = Runner::from_deployment(d);
        let (stage, ns) = p.timed("runner.probe_stage", Some(root), || runner.probe_stage());
        stage_ns.push(ns);
        let (solved, ns) = p.timed("localization.impact_chain", Some(root), || {
            runner.solve_impact_chain(&stage, 1)
        });
        chain.push(ns);
        let (staged, ns) = p.timed("runner.finish", Some(root), || {
            runner.finish_from_stage(&stage)
        });
        fin.push(ns);
        p.tracer.close(root);
        let (plain, ns) = p.timed("runner.new_run", None, || {
            Runner::new(cfg.clone(), seed)
                .run(RunOptions::new())
                .outcome
        });
        whole.push(ns);
        if staged != plain {
            out.fail("layer probe: finish_from_stage(probe_stage()) differs from run()");
        }
        counts = (pairs, solved, Some(plain));
    }
    let (gen, stage_ns, fin, whole) = (
        median(&gen),
        median(&stage_ns),
        median(&fin),
        median(&whole),
    );
    let m = &mut out.metrics;
    m.insert("deploy.generate_ms", gen / 1e6);
    m.insert("runner.probe_stage_ms", stage_ns / 1e6);
    m.insert("localization.impact_chain_ms", median(&chain) / 1e6);
    m.insert("runner.finish_ms", fin / 1e6);
    let runner_closure = closure(whole, &[gen, stage_ns, fin]);
    m.insert("runner.closure", runner_closure);
    m.insert(
        "runner.stage_share",
        stage_ns / (stage_ns + inputs.cells_per_unit * fin),
    );
    let (pairs, solved, plain) = counts;
    let plain = plain.ok_or("no runner probe ran")?;
    m.insert("deploy.audible_pairs", pairs as f64);
    m.insert("localization.sensors_solved", solved as f64);
    m.insert(
        "core.alerts_per_run",
        (plain.benign_alerts + plain.collusion_alerts) as f64,
    );
    m.insert(
        "core.revocations_per_run",
        f64::from(plain.revoked_malicious + plain.revoked_benign),
    );
    out.notes
        .extend(closure_gap("runner.closure", runner_closure));

    // ---- Localization: the run's solver on every sensor's reference set
    // (its audible beacons at their true distances; the run solves the
    // sets detection keeps, at measured distances, which no public call
    // exposes).
    let d = Deployment::generate(cfg.clone(), seed);
    let sets: Vec<Vec<LocationReference>> = d
        .sensors()
        .map(|w| {
            d.audible_beacons(w)
                .iter()
                .map(|&b| {
                    LocationReference::new(d.position(b), d.position(b).distance(d.position(w)))
                })
                .collect()
        })
        .collect();
    let solver = BatchedMmse::default();
    let mut scratch = MmseScratch::with_capacity(d.max_audible_len());
    let mmse = p.per_call("localization.mmse", sets.len(), || {
        for refs in &sets {
            scratch.load(refs);
            black_box(solver.estimate(&scratch).is_ok());
        }
    });
    out.metrics.insert("localization.mmse_ns", mmse);

    // ---- Wire, alerter and revocation machine over the event stream.
    let text = std::str::from_utf8(&inputs.stream).map_err(|e| format!("event stream: {e}"))?;
    let lines: Vec<&str> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .take(MAX_PROBE_LINES)
        .collect();
    let parsed: Vec<WireEvent> = lines
        .iter()
        .map(|l| parse_line(l))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("recorded stream has a malformed line: {e}"))?;
    // The accusations of the stream's most-accused deployment, in stream
    // order, decided by one machine under the workload's own policy.
    let mut by_deployment: BTreeMap<Option<&str>, Vec<(NodeId, NodeId)>> = BTreeMap::new();
    let mut accusation_count = 0usize;
    for ev in &parsed {
        if let WireEvent::Accusation {
            deployment,
            reporter,
            target,
            ..
        } = ev
        {
            accusation_count += 1;
            by_deployment
                .entry(deployment.as_deref())
                .or_default()
                .push((NodeId(*reporter), NodeId(*target)));
        }
    }
    let accusations = by_deployment
        .into_values()
        .max_by_key(Vec::len)
        .unwrap_or_default();
    let policy = RevocationConfig {
        tau: cfg.tau,
        tau_prime: cfg.tau_prime,
    };
    let decide = p.per_call("core.decide", accusations.len(), || {
        let mut machine = RevocationMachine::new(policy);
        for &(reporter, target) in &accusations {
            black_box(machine.decide(reporter, target));
        }
    });
    out.metrics.insert("core.decide_ns", decide);
    out.diag("core.decide_accusations", accusations.len() as f64, "count");

    // Parse, ingest of pre-parsed events and whole-line ingest run
    // back to back in every rep, so host drift cancels out of the closure.
    let replay_cfg = AlerterConfig {
        verify_recorded: true,
        ..AlerterConfig::default()
    };
    let repeat = p.min_calls.div_ceil(lines.len().max(1));
    let calls = (repeat * lines.len()).max(1) as f64;
    let (mut parse_ns, mut ingest_ns, mut line_ns, mut closures) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..p.reps {
        p.op += 1;
        let ((), parse) = p.timed("wire.parse_line", None, || {
            for _ in 0..repeat {
                for l in &lines {
                    black_box(parse_line(l).is_ok());
                }
            }
        });
        // `ingest` consumes its events: copies are made outside the timed
        // loop. A fresh service per repeat, as in the whole-line pass.
        let copies: Vec<Vec<WireEvent>> = (0..repeat).map(|_| parsed.clone()).collect();
        let ((), ingest) = p.timed("alerter.ingest", None, || {
            for events in copies {
                let mut alerter = Alerter::new(replay_cfg.clone(), Obs::disabled());
                for ev in events {
                    alerter.ingest(ev);
                }
                black_box(alerter.stats().decisions);
            }
        });
        let ((), whole) = p.timed("alerter.ingest_line", None, || {
            for _ in 0..repeat {
                let mut alerter = Alerter::new(replay_cfg.clone(), Obs::disabled());
                for l in &lines {
                    alerter.ingest_line(l);
                }
                black_box(alerter.stats().decisions);
            }
        });
        parse_ns.push(parse / calls);
        ingest_ns.push(ingest / calls);
        line_ns.push(whole / calls);
        closures.push(closure(whole, &[parse, ingest]));
    }
    let (parse, ingest, ingest_line) = (median(&parse_ns), median(&ingest_ns), median(&line_ns));
    let alerter_closure = median(&closures);
    let m = &mut out.metrics;
    m.insert("wire.parse_ns", parse);
    m.insert("alerter.ingest_ns", ingest);
    m.insert("alerter.closure", alerter_closure);
    m.insert(
        "alerter.accusation_share",
        accusation_count as f64 / lines.len().max(1) as f64,
    );
    m.insert(
        "alerter.bytes_per_line",
        lines.iter().map(|l| l.len() + 1).sum::<usize>() as f64 / lines.len().max(1) as f64,
    );
    out.notes
        .extend(closure_gap("alerter.closure", alerter_closure));
    out.diag("alerter.ingest_line_ns", ingest_line, "ns");
    out.diag("alerter.stream_lines", lines.len() as f64, "count");

    // ---- Cell keys and the binary cache.
    let records = if ctx.smoke { 256 } else { 4_096 };
    if inputs.outcomes.is_empty() {
        return Err("layer probes need at least one outcome".to_string());
    }
    let tag = code_version_tag();
    let mut keys = Vec::with_capacity(records);
    let key_ns = p.per_call("orchestrator.cell_key", records, || {
        keys.clear();
        keys.extend((0..records as u64).map(|k| cell_key(cfg, seed.wrapping_add(k), &tag)));
    });
    out.metrics.insert("orchestrator.cell_key_ns", key_ns);
    let dir = ctx.tmp.join("layers-cache");
    let (mut insert_ns, mut open_ns, mut get_ns, mut bytes) =
        (Vec::new(), Vec::new(), Vec::new(), 0u64);
    for _ in 0..p.reps.min(3) {
        let _ = std::fs::remove_dir_all(&dir);
        p.op += 1;
        let mut cache =
            BinaryCache::open(&dir, records).map_err(|e| format!("cache create: {e}"))?;
        let (inserted, ns) = p.timed("cache.insert_checked", None, || {
            keys.iter()
                .enumerate()
                .map(|(k, &key)| {
                    cache.insert_checked(key, inputs.outcomes[k % inputs.outcomes.len()].clone())
                })
                .collect::<Result<Vec<_>, _>>()
        });
        let inserted = inserted.map_err(|e| format!("cache insert: {e}"))?;
        if inserted.iter().any(|&r| r != CacheInsert::Inserted) {
            return Err("cache probe: a fresh key was not inserted".to_string());
        }
        insert_ns.push(ns / records as f64);
        drop(cache);
        let (cache, ns) = p.timed("cache.open", None, || BinaryCache::open(&dir, records));
        let cache = cache.map_err(|e| format!("cache open: {e}"))?;
        open_ns.push(ns);
        let (got, ns) = p.timed("cache.get", None, || {
            keys.iter()
                .map(|&key| cache.get(key))
                .collect::<Result<Vec<_>, _>>()
        });
        let got = got.map_err(|e| format!("cache get: {e}"))?;
        get_ns.push(ns / records as f64);
        let all_hit = got
            .iter()
            .enumerate()
            .all(|(k, o)| o.as_ref() == Some(&inputs.outcomes[k % inputs.outcomes.len()]));
        if !all_hit {
            out.fail("layer probe: the cache returned a different outcome than was inserted");
        }
        bytes = dir_bytes(&dir);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let m = &mut out.metrics;
    m.insert("cache.insert_ns", median(&insert_ns));
    m.insert("cache.open_ms", median(&open_ns) / 1e6);
    m.insert("cache.get_ns", median(&get_ns));
    m.insert("cache.bytes_per_cell", bytes as f64 / records as f64);
    Ok(())
}

/// Total size of the regular files directly inside `dir`.
fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
