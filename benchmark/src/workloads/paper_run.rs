//! `paper_run`: the paper's §4 single run, back to back.
//!
//! One op is `Runner::new(SimConfig::paper_default(), seed).run(...)`:
//! 1000 nodes, 100 beacons, 10 malicious, a wormhole. It crosses the
//! geometry, radio, detection, localization and revocation layers and
//! nothing of the sweep engine, cache or alerter, so it moves with
//! simulator gains and stays flat for sweep-engine changes.

use super::{sweep_layer_inputs, Ctx, Workload};
use crate::digest::outcomes_digest;
use crate::layers::LayerInputs;
use crate::trace::Tracer;
use secloc_sim::{Deployment, RunOptions, Runner, SimConfig, SimOutcome};

/// For every this many ops, set-up runs the op's seed as a probe stage
/// plus a staged finish; round 0's plain run must reproduce it bit for bit.
const STAGED_CHECK_EVERY: usize = 25;

pub struct PaperRun {
    ctx: Ctx,
    config: SimConfig,
    seeds: Vec<u64>,
    /// `finish_from_stage(probe_stage())` of every `STAGED_CHECK_EVERY`-th
    /// op's seed.
    staged: Vec<SimOutcome>,
    last: Option<SimOutcome>,
    round0: Vec<Option<SimOutcome>>,
}

pub fn config(smoke: bool) -> SimConfig {
    if smoke {
        SimConfig {
            nodes: 200,
            beacons: 20,
            malicious: 2,
            ..SimConfig::paper_default()
        }
    } else {
        SimConfig::paper_default()
    }
}

impl PaperRun {
    pub fn setup(ctx: &Ctx) -> Result<Self, String> {
        let ops = if ctx.smoke { 3 } else { 100 };
        let config = config(ctx.smoke);
        config.validate().map_err(|e| e.to_string())?;
        let seeds: Vec<u64> = (0..ops).map(|i| ctx.sim_seed(i)).collect();
        let staged = seeds
            .iter()
            .step_by(STAGED_CHECK_EVERY)
            .map(|&seed| {
                let runner = Runner::new(config.clone(), seed);
                runner.finish_from_stage(&runner.probe_stage())
            })
            .collect();
        Ok(PaperRun {
            ctx: ctx.clone(),
            config,
            seeds,
            staged,
            last: None,
            round0: vec![None; ops as usize],
        })
    }
}

impl Workload for PaperRun {
    fn ops_per_round(&self) -> usize {
        self.seeds.len()
    }

    fn round_s(&self) -> f64 {
        0.224
    }

    fn op(&mut self, i: usize, tracer: Option<(&mut Tracer, u64)>) -> Result<u64, String> {
        let seed = self.seeds[i];
        let outcome = match tracer {
            None => {
                Runner::new(self.config.clone(), seed)
                    .run(RunOptions::new())
                    .outcome
            }
            Some((t, op)) => {
                let root = t.open("paper_run.op", None, op);
                let d = t.span("deploy.generate", Some(root), op, || {
                    Deployment::generate(self.config.clone(), seed)
                });
                let out = t.span("runner.run", Some(root), op, || {
                    Runner::from_deployment(d).run(RunOptions::new()).outcome
                });
                t.close(root);
                out
            }
        };
        self.last = Some(outcome);
        Ok(1)
    }

    fn verify(&mut self, round: usize, i: usize) -> Vec<String> {
        let mut failures = Vec::new();
        let last = self.last.take();
        if round == 0 {
            if i.is_multiple_of(STAGED_CHECK_EVERY) {
                let staged = &self.staged[i / STAGED_CHECK_EVERY];
                if Some(staged) != last.as_ref() {
                    failures.push(format!(
                        "seed {}: finish_from_stage(probe_stage()) differs from run()",
                        self.seeds[i]
                    ));
                }
            }
            self.round0[i] = last;
        } else if self.round0[i] != last {
            failures.push(format!(
                "seed {}: outcome differs from round 0",
                self.seeds[i]
            ));
        }
        failures
    }

    fn digest(&self) -> String {
        outcomes_digest(self.round0.iter().flatten())
    }

    fn layer_inputs(&mut self) -> Result<LayerInputs, String> {
        sweep_layer_inputs(&self.ctx, std::slice::from_ref(&self.config), self.seeds[0])
    }
}
