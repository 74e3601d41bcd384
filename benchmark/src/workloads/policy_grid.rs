//! `policy_grid`: the revocation axis of Figs. 6, 10 and 14 through the
//! in-memory sweep engine.
//!
//! 75 policies (τ 1..5 × τ′ 1..5 × alert loss {0, 0.1, 0.3}) at paper
//! scale share one deployment and probe stage per seed, so one probe stage
//! serves 75 revocation + impact finishes: revocation and the memoized
//! impact phase dominate, and probe-layer gains should barely move it. One
//! op is one `Orchestrator::run` call over `seeds_per_op` seeds.

use super::{
    cells_per_unit, orchestrator_layers, scaling_efficiency, sweep_layer_inputs, sweep_workers,
    Ctx, Workload,
};
use crate::digest::outcomes_digest;
use crate::layers::LayerInputs;
use crate::report::RunResult;
use crate::trace::Tracer;
use secloc_sim::{Orchestrator, RunOptions, Runner, SimConfig, SimOutcome, SweepReport, SweepSpec};
use std::time::Instant;

pub struct PolicyGrid {
    ctx: Ctx,
    configs: Vec<SimConfig>,
    specs: Vec<SweepSpec>,
    /// Per op: one sampled cell's index and its outcome from a fresh,
    /// unshared run, which round 0's shared-stage sweep must reproduce.
    fresh: Vec<(usize, SimOutcome)>,
    last: Option<SweepReport>,
    round0: Vec<Vec<SimOutcome>>,
    traced_reports: Vec<SweepReport>,
}

fn configs(smoke: bool) -> Vec<SimConfig> {
    let base = super::paper_run::config(smoke);
    let (taus, losses): (&[u32], &[f64]) = if smoke {
        (&[1, 3], &[0.0, 0.3])
    } else {
        (&[1, 2, 3, 4, 5], &[0.0, 0.1, 0.3])
    };
    let mut out = Vec::new();
    for &tau in taus {
        for &tau_prime in taus {
            for &alert_loss_rate in losses {
                out.push(SimConfig {
                    tau,
                    tau_prime,
                    alert_loss_rate,
                    ..base.clone()
                });
            }
        }
    }
    out
}

impl PolicyGrid {
    pub fn setup(ctx: &Ctx) -> Result<Self, String> {
        let (ops, seeds_per_op) = if ctx.smoke { (2u64, 1u64) } else { (6, 4) };
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
        let fresh = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let cells = spec.cells();
                let k = (i * 37 + 11) % cells.len();
                let outcome = Runner::new(cells[k].config.clone(), cells[k].seed)
                    .run(RunOptions::new())
                    .outcome;
                (k, outcome)
            })
            .collect();
        Ok(PolicyGrid {
            ctx: ctx.clone(),
            configs,
            specs,
            fresh,
            last: None,
            round0: vec![Vec::new(); ops as usize],
            traced_reports: Vec::new(),
        })
    }

    fn sweep(&self, i: usize, workers: usize) -> Result<SweepReport, String> {
        Orchestrator::new()
            .workers(workers)
            .run(&self.specs[i])
            .map_err(|e| format!("in-memory sweep: {e}"))
    }
}

impl Workload for PolicyGrid {
    fn ops_per_round(&self) -> usize {
        self.specs.len()
    }

    fn round_s(&self) -> f64 {
        0.164
    }

    fn op(&mut self, i: usize, tracer: Option<(&mut Tracer, u64)>) -> Result<u64, String> {
        let report = match tracer {
            None => self.sweep(i, sweep_workers())?,
            Some((t, op)) => {
                let r = t.span("orchestrator.run", None, op, || {
                    self.sweep(i, sweep_workers())
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
        if report.executed != self.specs[i].len() {
            failures.push(format!(
                "executed {} of {} cells",
                report.executed,
                self.specs[i].len()
            ));
        }
        if round == 0 {
            let (k, fresh) = &self.fresh[i];
            if report.outcomes.get(*k) != Some(fresh) {
                failures.push(format!(
                    "cell {k}: shared-stage outcome differs from a fresh run"
                ));
            }
            self.round0[i] = report.outcomes;
        } else if self.round0[i] != report.outcomes {
            failures.push("outcomes differ from round 0".to_string());
        }
        failures
    }

    fn digest(&self) -> String {
        outcomes_digest(self.round0.iter().flatten())
    }

    fn layer_inputs(&mut self) -> Result<LayerInputs, String> {
        sweep_layer_inputs(&self.ctx, &self.configs, self.specs[0].cells()[0].seed)
    }

    fn workload_layers(&mut self, out: &mut RunResult) -> Result<(), String> {
        orchestrator_layers(&self.traced_reports, out);
        if let Some(r) = self.traced_reports.first() {
            out.diag("orchestrator.cells_per_unit", cells_per_unit(r), "count");
        }
        let cells: usize = self.specs.iter().map(SweepSpec::len).sum();
        let t = Instant::now();
        for i in 0..self.specs.len() {
            self.sweep(i, sweep_workers())?;
        }
        out.metrics.insert(
            "orchestrator.inmem_cells_per_s",
            cells as f64 / t.elapsed().as_secs_f64(),
        );
        scaling_efficiency(&self.ctx, out, |workers| {
            let t = Instant::now();
            self.sweep(0, workers)?;
            Ok(t.elapsed().as_secs_f64())
        })
    }
}
