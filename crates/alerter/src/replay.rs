//! Batch/stream replay parity: feed a recorded `obs_events.jsonl` back
//! through the live service and prove the streaming path reaches the
//! batch path's exact revocation outcomes.
//!
//! Two layers of evidence:
//!
//! 1. **Per-decision**: every recorded `bs.alert` carries the batch
//!    verdict; replay runs the same accusation through the machine and
//!    compares wire labels byte-for-byte. Every recorded `revocation` is
//!    asserted against the machine's revoked set.
//! 2. **Per-cell**: the sweep checkpoint records each cell's
//!    `revoked_malicious + revoked_benign`; [`diff_checkpoint`] compares
//!    those totals against the replayed machines' revocation counts —
//!    but only for cells the sweep actually executed (`cache == "miss"`),
//!    since cached/memoized/resumed cells replay no decision history.

use crate::service::{Alerter, AlerterConfig};
use secloc_obs::json::JsonValue;
use secloc_obs::Obs;
use std::io::BufRead;
use std::time::{Duration, Instant};

/// The outcome of one replay run.
#[derive(Debug)]
pub struct ReplayReport {
    /// Stream totals (lines, decisions, malformed, parity mismatches).
    pub stats: crate::service::AlerterStats,
    /// Per-decision divergences, human-readable.
    pub mismatches: Vec<String>,
    /// Checkpoint comparison, when a checkpoint was supplied.
    pub checkpoint: Option<CheckpointDiff>,
    /// Wall-clock time spent ingesting the stream.
    pub elapsed: Duration,
}

impl ReplayReport {
    /// True when the streaming path matched the batch path everywhere.
    pub fn parity_holds(&self) -> bool {
        self.mismatches.is_empty()
            && self
                .checkpoint
                .as_ref()
                .is_none_or(|c| c.mismatches.is_empty())
    }
}

/// Comparison of replayed machines against a sweep checkpoint.
#[derive(Debug, Default)]
pub struct CheckpointDiff {
    /// Cell records in the checkpoint.
    pub cells_total: usize,
    /// Executed (`cache == "miss"`) cells compared.
    pub cells_compared: usize,
    /// Cells skipped because the sweep served them from cache/resume —
    /// their decision histories were never recorded, so there is nothing
    /// to replay.
    pub cells_skipped: usize,
    /// Per-cell revocation-count divergences.
    pub mismatches: Vec<String>,
}

/// Replays a recorded event stream through a fresh [`Alerter`] in verify
/// mode. Decisions are recomputed by the live machines and cross-checked
/// against every recorded verdict; the returned report carries the
/// divergences (none, when parity holds).
pub fn replay_stream<R: BufRead>(
    reader: R,
    cfg: AlerterConfig,
    obs: Obs,
) -> std::io::Result<(Alerter, Duration)> {
    let cfg = AlerterConfig {
        verify_recorded: true,
        ..cfg
    };
    let mut alerter = Alerter::new(cfg, obs);
    let start = Instant::now();
    alerter.ingest_reader(reader)?;
    alerter.finish();
    Ok((alerter, start.elapsed()))
}

/// Compares the replayed machines' per-cell revocation counts against a
/// sweep checkpoint's recorded outcomes (`revoked_malicious +
/// revoked_benign`). Only executed cells participate; see the
/// [module docs](self).
pub fn diff_checkpoint(alerter: &Alerter, checkpoint_text: &str) -> CheckpointDiff {
    let mut diff = CheckpointDiff::default();
    let mut expected: std::collections::HashMap<String, u64> = std::collections::HashMap::new();
    for line in checkpoint_text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let Ok(obj) = JsonValue::parse(line) else {
            diff.mismatches
                .push(format!("checkpoint line is not JSON: {line:.60}"));
            continue;
        };
        if obj.get("kind").and_then(|k| k.as_str()) != Some("cell") {
            continue; // header / trailer records
        }
        diff.cells_total += 1;
        let key = obj.get("key").and_then(|k| k.as_str()).map(str::to_string);
        let revoked = ["revoked_malicious", "revoked_benign"]
            .iter()
            .map(|f| {
                obj.get("outcome")
                    .and_then(|o| o.get(f))
                    .and_then(|v| v.as_u64())
            })
            .try_fold(0u64, |acc, v| v.map(|v| acc + v));
        match (key, revoked) {
            (Some(key), Some(revoked)) => {
                expected.insert(key, revoked);
            }
            _ => diff.mismatches.push(format!(
                "checkpoint cell record missing key/outcome: {line:.60}"
            )),
        }
    }
    for summary in alerter.deployment_summaries() {
        if summary.cache.as_deref() != Some("miss") {
            if summary.cache.is_some() {
                diff.cells_skipped += 1;
            }
            continue;
        }
        match expected.get(&summary.key) {
            Some(&want) => {
                diff.cells_compared += 1;
                if want != summary.revocations {
                    diff.mismatches.push(format!(
                        "cell {}: batch checkpoint revoked {want} node(s), streaming replay \
                         revoked {}",
                        summary.key, summary.revocations
                    ));
                }
            }
            None => diff.mismatches.push(format!(
                "cell {} was executed in the stream but has no checkpoint record",
                summary.key
            )),
        }
    }
    diff
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const STREAM: &str = concat!(
        r#"{"kind":"cell.start","cell":"00000000000000aa","seed":1,"tau":2,"tau_prime":2}"#,
        "\n",
        r#"{"kind":"bs.alert","cell":"00000000000000aa","reporter":1,"target":9,"outcome":"accepted"}"#,
        "\n",
        r#"{"kind":"bs.alert","cell":"00000000000000aa","reporter":2,"target":9,"outcome":"accepted"}"#,
        "\n",
        r#"{"kind":"bs.alert","cell":"00000000000000aa","reporter":3,"target":9,"outcome":"accepted_and_revoked"}"#,
        "\n",
        r#"{"kind":"revocation","cell":"00000000000000aa","target":9}"#,
        "\n",
        r#"{"kind":"cell.complete","cell":"00000000000000aa","cache":"miss"}"#,
        "\n",
    );

    #[test]
    fn faithful_recording_replays_with_zero_mismatches() {
        let (alerter, _) = replay_stream(
            Cursor::new(STREAM),
            AlerterConfig::default(),
            Obs::disabled(),
        )
        .unwrap();
        assert_eq!(alerter.stats().parity_mismatches, 0);
        assert_eq!(alerter.stats().decisions, 3);
        assert_eq!(alerter.stats().revocations, 1);
    }

    #[test]
    fn tampered_recording_is_caught() {
        let tampered = STREAM.replace("accepted_and_revoked", "ignored_duplicate");
        let (alerter, _) = replay_stream(
            Cursor::new(tampered),
            AlerterConfig::default(),
            Obs::disabled(),
        )
        .unwrap();
        assert_eq!(alerter.stats().parity_mismatches, 1);
    }

    #[test]
    fn checkpoint_diff_compares_only_executed_cells() {
        let (alerter, _) = replay_stream(
            Cursor::new(STREAM),
            AlerterConfig::default(),
            Obs::disabled(),
        )
        .unwrap();
        let checkpoint = concat!(
            r#"{"kind":"sweep","version":1,"cells":2}"#,
            "\n",
            r#"{"kind":"cell","index":0,"key":"00000000000000aa","seed":1,"outcome":{"revoked_malicious":1,"revoked_benign":0}}"#,
            "\n",
            r#"{"kind":"cell","index":1,"key":"00000000000000bb","seed":2,"outcome":{"revoked_malicious":3,"revoked_benign":0}}"#,
            "\n",
        );
        let diff = diff_checkpoint(&alerter, checkpoint);
        assert_eq!(diff.cells_total, 2);
        assert_eq!(diff.cells_compared, 1);
        assert!(diff.mismatches.is_empty(), "{:?}", diff.mismatches);
    }

    #[test]
    fn checkpoint_revocation_count_divergence_is_reported() {
        let (alerter, _) = replay_stream(
            Cursor::new(STREAM),
            AlerterConfig::default(),
            Obs::disabled(),
        )
        .unwrap();
        let checkpoint = concat!(
            r#"{"kind":"cell","index":0,"key":"00000000000000aa","seed":1,"outcome":{"revoked_malicious":2,"revoked_benign":0}}"#,
            "\n",
        );
        let diff = diff_checkpoint(&alerter, checkpoint);
        assert_eq!(diff.mismatches.len(), 1);
        assert!(diff.mismatches[0].contains("revoked 2 node(s)"));
    }
}
