//! `alerter_replay`: the `secloc-alerter replay` path over a recorded
//! paper-scale sweep.
//!
//! Set-up records the event stream of a cold sweep (p ∈ {.1,.3,.5,.7,.9}
//! × τ ∈ {1,2,3} × seeds) into memory. One op is one `replay_stream` pass
//! in verify mode over that buffer. It is the only workload that bypasses
//! the simulator: JSON decoding, demultiplexing and the revocation machine
//! on the real event mix, including the lines it parses and then ignores.

use super::{cells_per_unit, record_sweep, Ctx, Recording, Workload};
use crate::digest::Digest;
use crate::layers::LayerInputs;
use crate::trace::Tracer;
use secloc_alerter::{diff_checkpoint, replay_stream, Alerter, AlerterConfig, ReplayReport};
use secloc_obs::Obs;
use secloc_sim::{SimConfig, SweepSpec};
use std::time::Duration;

/// Every this many ops the replayed machines are also diffed against the
/// sweep's checkpoint (it re-parses the checkpoint, so not on every op).
const CHECKPOINT_DIFF_EVERY: usize = 10;

pub struct AlerterReplay {
    config: SimConfig,
    seed: u64,
    rec: Recording,
    passes: usize,
    ops_done: usize,
    last: Option<(Alerter, Duration)>,
    round0: Vec<String>,
}

/// The replay's outputs that must never change: stream totals and every
/// deployment's decisions and revocations.
fn summary_digest(alerter: &Alerter) -> String {
    let mut d = Digest::default();
    let s = alerter.stats();
    for v in [
        s.lines,
        s.malformed,
        s.ignored,
        s.deploys,
        s.decisions,
        s.revocations,
        s.retired,
    ] {
        d.u64(v);
    }
    let mut summaries: Vec<_> = alerter.deployment_summaries().iter().collect();
    summaries.sort_by(|a, b| a.key.cmp(&b.key));
    for m in summaries {
        d.bytes(m.key.as_bytes());
        d.u64(m.decisions);
        d.u64(m.revocations);
        d.bytes(m.cache.as_deref().unwrap_or("-").as_bytes());
    }
    d.hex()
}

impl AlerterReplay {
    pub fn setup(ctx: &Ctx) -> Result<Self, String> {
        let (seeds, passes) = if ctx.smoke { (1u64, 1usize) } else { (20, 2) };
        let base = super::paper_run::config(ctx.smoke);
        let mut configs = Vec::new();
        for attacker_p in [0.1, 0.3, 0.5, 0.7, 0.9] {
            for tau in [1u32, 2, 3] {
                configs.push(SimConfig {
                    attacker_p,
                    tau,
                    ..base.clone()
                });
            }
        }
        let seed_list: Vec<u64> = (0..seeds).map(|j| ctx.sim_seed(j)).collect();
        let spec = SweepSpec::product(&configs, &seed_list);
        let rec = record_sweep(&spec, &ctx.tmp.join("alerter"))?;
        Ok(AlerterReplay {
            config: configs[0].clone(),
            seed: seed_list[0],
            rec,
            passes,
            ops_done: 0,
            last: None,
            round0: vec![String::new(); passes],
        })
    }

    fn replay(&self) -> Result<(Alerter, Duration), String> {
        replay_stream(
            &self.rec.stream[..],
            AlerterConfig::default(),
            Obs::disabled(),
        )
        .map_err(|e| format!("replay: {e}"))
    }
}

impl Workload for AlerterReplay {
    fn ops_per_round(&self) -> usize {
        self.passes
    }

    fn round_s(&self) -> f64 {
        0.136
    }

    fn op(&mut self, _i: usize, tracer: Option<(&mut Tracer, u64)>) -> Result<u64, String> {
        let replayed = match tracer {
            None => self.replay()?,
            Some((t, op)) => t.span("alerter.replay_stream", None, op, || self.replay())?,
        };
        let lines = replayed.0.stats().lines;
        self.last = Some(replayed);
        Ok(lines)
    }

    fn verify(&mut self, round: usize, i: usize) -> Vec<String> {
        let Some((alerter, elapsed)) = self.last.take() else {
            return vec!["no replay".to_string()];
        };
        let mut failures = Vec::new();
        let stats = alerter.stats();
        if stats.malformed != 0 {
            failures.push(format!("{} malformed lines", stats.malformed));
        }
        let checkpoint = self
            .ops_done
            .is_multiple_of(CHECKPOINT_DIFF_EVERY)
            .then(|| diff_checkpoint(&alerter, &self.rec.checkpoint));
        self.ops_done += 1;
        let digest = summary_digest(&alerter);
        let report = ReplayReport {
            stats,
            mismatches: alerter.mismatches().to_vec(),
            checkpoint,
            elapsed,
        };
        if !report.parity_holds() || stats.parity_mismatches != 0 {
            failures.push(format!(
                "replay parity broken: {} decision mismatches, {} checkpoint mismatches",
                report.mismatches.len(),
                report.checkpoint.as_ref().map_or(0, |c| c.mismatches.len())
            ));
        }
        if round == 0 {
            self.round0[i] = digest;
        } else if self.round0[i] != digest {
            failures.push("replay outputs differ from round 0".to_string());
        }
        failures
    }

    fn digest(&self) -> String {
        let mut d = Digest::default();
        for h in &self.round0 {
            d.bytes(h.as_bytes());
        }
        d.hex()
    }

    fn layer_inputs(&mut self) -> Result<LayerInputs, String> {
        Ok(LayerInputs {
            config: self.config.clone(),
            seed: self.seed,
            cells_per_unit: cells_per_unit(&self.rec.report),
            outcomes: self.rec.report.outcomes.clone(),
            stream: self.rec.stream.clone(),
        })
    }
}
