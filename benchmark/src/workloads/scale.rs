//! `scale_cold` and `scale_warm`: a large small-cell grid through the
//! sweep engine with an on-disk `BinaryCache` and a checkpoint.
//!
//! 125 policies (τ 1..5 × τ′ 1..5 × p {.1,.3,.5,.7,.9}) on 120-node
//! deployments. A cell costs about 20 µs, so the scheduler, cache appends
//! and checkpoint writes are a large share of cold time. `scale_cold`
//! runs each op in a fresh directory, so every cell misses and is
//! appended; `scale_warm` re-runs ops over caches its set-up populated, so
//! every cell is a read. Cold is writes and warm is reads on the same cache
//! layer, so trading one for the other shows.

use super::{
    orchestrator_layers, scaling_efficiency, sweep_layer_inputs, sweep_workers, Ctx, Workload,
};
use crate::digest::outcomes_digest;
use crate::layers::LayerInputs;
use crate::report::RunResult;
use crate::stats;
use crate::trace::Tracer;
use secloc_sim::{CacheFormat, Orchestrator, SimConfig, SimOutcome, SweepReport, SweepSpec};
use std::path::{Path, PathBuf};
use std::time::Instant;

const CACHE: &str = "cache.bin";
const COLD_CHECKPOINT: &str = "cold.jsonl";
const WARM_CHECKPOINT: &str = "warm.jsonl";

pub struct Scale {
    ctx: Ctx,
    warm: bool,
    configs: Vec<SimConfig>,
    specs: Vec<SweepSpec>,
    root: PathBuf,
    last: Option<SweepReport>,
    round0: Vec<Vec<SimOutcome>>,
    /// Cold outcomes and checkpoint bytes per op: from round 0 for
    /// `scale_cold`, from set-up for `scale_warm`.
    cold: Vec<Option<(Vec<SimOutcome>, Vec<u8>)>>,
    traced_reports: Vec<SweepReport>,
}

fn configs(smoke: bool) -> Vec<SimConfig> {
    let (taus, ps): (&[u32], &[f64]) = if smoke {
        (&[1, 3], &[0.3, 0.9])
    } else {
        (&[1, 2, 3, 4, 5], &[0.1, 0.3, 0.5, 0.7, 0.9])
    };
    let mut out = Vec::new();
    for &tau in taus {
        for &tau_prime in taus {
            for &attacker_p in ps {
                out.push(SimConfig {
                    nodes: 120,
                    beacons: 12,
                    malicious: 3,
                    tau,
                    tau_prime,
                    attacker_p,
                    ..SimConfig::paper_default()
                });
            }
        }
    }
    out
}

fn read(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))
}

impl Scale {
    pub fn setup(ctx: &Ctx, warm: bool) -> Result<Self, String> {
        let (ops, seeds_per_op) = if ctx.smoke { (2u64, 1u64) } else { (2, 40) };
        let configs = configs(ctx.smoke);
        for c in &configs {
            c.validate().map_err(|e| e.to_string())?;
        }
        let specs: Vec<SweepSpec> = (0..ops)
            .map(|i| {
                let seeds: Vec<u64> = (0..seeds_per_op)
                    .map(|j| ctx.sim_seed(i * seeds_per_op + j))
                    .collect();
                SweepSpec::product(&configs, &seeds)
            })
            .collect();
        let root = ctx.tmp.join(if warm { "scale_warm" } else { "scale_cold" });
        let _ = std::fs::remove_dir_all(&root);
        let mut w = Scale {
            ctx: ctx.clone(),
            warm,
            configs,
            specs,
            root,
            last: None,
            round0: vec![Vec::new(); ops as usize],
            cold: vec![None; ops as usize],
            traced_reports: Vec::new(),
        };
        if warm {
            // Populate one cache per op; the cold checkpoint is the
            // reference every warm pass must reproduce byte for byte.
            for i in 0..w.specs.len() {
                let dir = w.op_dir(i);
                let report = w.sweep(i, sweep_workers(), true, Some(COLD_CHECKPOINT))?;
                w.cold[i] = Some((report.outcomes, read(&dir.join(COLD_CHECKPOINT))?));
            }
        }
        Ok(w)
    }

    fn op_dir(&self, i: usize) -> PathBuf {
        self.root.join(format!("op-{i}"))
    }

    /// One sweep over op `i`'s spec: with the op's binary cache when
    /// `cached`, and with a checkpoint named `checkpoint` when given.
    fn sweep(
        &self,
        i: usize,
        workers: usize,
        cached: bool,
        checkpoint: Option<&str>,
    ) -> Result<SweepReport, String> {
        let dir = self.op_dir(i);
        let mut orch = Orchestrator::new().workers(workers);
        if cached {
            orch = orch
                .cache(dir.join(CACHE))
                .cache_format(CacheFormat::Binary);
        }
        if let Some(name) = checkpoint {
            orch = orch.checkpoint(dir.join(name));
        }
        orch.run(&self.specs[i])
            .map_err(|e| format!("sweep I/O: {e}"))
    }

    /// Puts op `i`'s directory back in the state an op starts from: absent
    /// for cold ops, the populated cache without a warm checkpoint for
    /// warm ops.
    fn reset(&self, i: usize) {
        if self.warm {
            let _ = std::fs::remove_file(self.op_dir(i).join(WARM_CHECKPOINT));
        } else {
            let _ = std::fs::remove_dir_all(self.op_dir(i));
        }
    }

    fn checkpoint_name(&self) -> &'static str {
        if self.warm {
            WARM_CHECKPOINT
        } else {
            COLD_CHECKPOINT
        }
    }

    /// Median wall time of `reps` runs of `f`, each preceded by `prep`.
    fn timed(
        &self,
        reps: usize,
        mut prep: impl FnMut(),
        mut f: impl FnMut() -> Result<SweepReport, String>,
    ) -> Result<f64, String> {
        let mut times = Vec::with_capacity(reps);
        for _ in 0..reps {
            prep();
            let t = Instant::now();
            f()?;
            times.push(t.elapsed().as_secs_f64());
        }
        Ok(stats::median(&times))
    }
}

impl Workload for Scale {
    fn ops_per_round(&self) -> usize {
        self.specs.len()
    }

    fn round_s(&self) -> f64 {
        if self.warm {
            0.084
        } else {
            0.226
        }
    }

    fn op(&mut self, i: usize, tracer: Option<(&mut Tracer, u64)>) -> Result<u64, String> {
        let name = self.checkpoint_name();
        let report = match tracer {
            None => self.sweep(i, sweep_workers(), true, Some(name))?,
            Some((t, op)) => {
                let r = t.span("orchestrator.run", None, op, || {
                    self.sweep(i, sweep_workers(), true, Some(name))
                })?;
                self.traced_reports.push(r.clone());
                r
            }
        };
        let cells = report.outcomes.len() as u64;
        self.last = Some(report);
        Ok(cells)
    }

    fn verify(&mut self, round: usize, i: usize) -> Vec<String> {
        let Some(report) = self.last.take() else {
            return vec!["no report".to_string()];
        };
        let mut failures = Vec::new();
        let n = self.specs[i].len();
        let (want_hits, want_executed) = if self.warm { (n, 0) } else { (0, n) };
        if report.cache_hits != want_hits || report.executed != want_executed {
            failures.push(format!(
                "{} hits and {} executed of {n} cells",
                report.cache_hits, report.executed
            ));
        }
        match read(&self.op_dir(i).join(self.checkpoint_name())) {
            Err(e) => failures.push(e),
            Ok(bytes) => {
                if round == 0 && !self.warm {
                    self.cold[i] = Some((report.outcomes.clone(), bytes));
                } else if self.cold[i]
                    .as_ref()
                    .is_some_and(|(o, b)| *o != report.outcomes || *b != bytes)
                {
                    failures.push(if self.warm {
                        "warm outcomes or checkpoint bytes differ from the cold pass".to_string()
                    } else {
                        "cold outcomes or checkpoint bytes differ from round 0".to_string()
                    });
                }
            }
        }
        if round == 0 {
            self.round0[i] = report.outcomes;
        }
        self.reset(i);
        failures
    }

    fn digest(&self) -> String {
        outcomes_digest(self.round0.iter().flatten())
    }

    fn final_checks(&mut self) -> Vec<String> {
        if self.warm {
            return Vec::new(); // every warm op already compared against cold
        }
        // Warm outcomes and checkpoint bytes must equal the cold pass's.
        let check = || -> Result<Option<String>, String> {
            let cold = self.sweep(0, sweep_workers(), true, Some(COLD_CHECKPOINT))?;
            let warm = self.sweep(0, sweep_workers(), true, Some(WARM_CHECKPOINT))?;
            let dir = self.op_dir(0);
            let same_bytes = read(&dir.join(COLD_CHECKPOINT))? == read(&dir.join(WARM_CHECKPOINT))?;
            Ok(
                (warm.outcomes != cold.outcomes || !same_bytes || warm.executed != 0).then(|| {
                    "warm pass differs from the cold pass that filled its cache".to_string()
                }),
            )
        };
        let failures = match check() {
            Ok(f) => f.into_iter().collect(),
            Err(e) => vec![e],
        };
        self.reset(0);
        failures
    }

    fn layer_inputs(&mut self) -> Result<LayerInputs, String> {
        sweep_layer_inputs(&self.ctx, &self.configs, self.specs[0].cells()[0].seed)
    }

    fn workload_layers(&mut self, out: &mut RunResult) -> Result<(), String> {
        orchestrator_layers(&self.traced_reports, out);
        let (hits, cells) = self
            .traced_reports
            .iter()
            .fold((0, 0), |(h, c), r| (h + r.cache_hits, c + r.outcomes.len()));
        if cells > 0 {
            out.metrics
                .insert("cache.hit_ratio", hits as f64 / cells as f64);
        }
        if let Some((outcomes, bytes)) = self.cold.first().and_then(Option::as_ref) {
            out.metrics.insert(
                "checkpoint.bytes_per_cell",
                bytes.len() as f64 / outcomes.len().max(1) as f64,
            );
        }

        // Variants of op 0 that add one layer at a time: no cache, cache
        // only, cache plus checkpoint. Their differences split an op into
        // simulation, cache appends and checkpoint writes.
        let reps = if self.ctx.smoke { 1 } else { 3 };
        let w = sweep_workers();
        let cells = self.specs[0].len() as f64;
        let wipe = || {
            let _ = std::fs::remove_dir_all(self.op_dir(0));
        };
        let keep = || self.reset(0);
        let inmem = self.timed(reps, || {}, || self.sweep(0, w, false, None))?;
        out.metrics
            .insert("orchestrator.inmem_cells_per_s", cells / inmem);
        if self.warm {
            let cache_only = self.timed(reps, keep, || self.sweep(0, w, true, None))?;
            let full = self.timed(reps, keep, || self.sweep(0, w, true, Some(WARM_CHECKPOINT)))?;
            out.metrics
                .insert("checkpoint.write_share", (full - cache_only) / full);
        } else {
            let cache_only = self.timed(reps, wipe, || self.sweep(0, w, true, None))?;
            let full = self.timed(reps, wipe, || self.sweep(0, w, true, Some(COLD_CHECKPOINT)))?;
            out.metrics
                .insert("cache.append_share", (cache_only - inmem) / full);
            out.metrics
                .insert("checkpoint.write_share", (full - cache_only) / full);
        }
        self.reset(0);

        let name = self.checkpoint_name();
        let this = &*self;
        scaling_efficiency(&this.ctx, out, |workers| {
            this.timed(
                1,
                || this.reset(0),
                || this.sweep(0, workers, true, Some(name)),
            )
        })?;
        self.reset(0);
        Ok(())
    }
}
