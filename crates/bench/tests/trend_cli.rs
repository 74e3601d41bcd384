//! `secloc-trend` as a command: a run that validates event streams prints
//! the same verdicts and exits with the same status as a plain gate run,
//! but writes a trend report only where `--out` says, so checking a
//! stream never rewrites the report under `--results`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A quick-mode perf report with one gated metric, from a two-core host.
const PERF: &str = r#"{
    "code_version": "v", "outcome_revision": 2, "config_fingerprint": "f", "quick": true,
    "sweep_scale": {"cores": 2, "efficiency": 0.9, "efficiency_workers": 2,
                    "efficiency_target": 0.7, "warm_ns_per_cell": 300,
                    "warm_ckpt_ns_per_cell": 1500}
}"#;

fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("secloc-trend-cli-{label}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn trend(results: &Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_secloc-trend"))
        .arg("--results")
        .arg(results)
        .arg("--history")
        .arg(results.join("history.jsonl"))
        .arg("--no-record")
        .args(extra)
        .output()
        .expect("secloc-trend runs")
}

/// The lines that carry a verdict: one per metric and the overall one.
fn verdicts(out: &Output) -> Vec<String> {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| {
            ["PASS ", "WARN ", "FAIL ", "UNMEASURED ", "verdict:"]
                .iter()
                .any(|p| l.starts_with(p))
        })
        .map(str::to_string)
        .collect()
}

#[test]
fn validating_events_leaves_the_trend_report_alone() {
    let dir = scratch("validate");
    fs::write(dir.join("BENCH_perf.json"), PERF).unwrap();
    let report = dir.join("BENCH_trend.json");
    let good = dir.join("good.jsonl");
    fs::write(
        &good,
        "{\"kind\":\"checkpoint.advance\",\"seq\":1,\"frontier\":3}\n",
    )
    .unwrap();
    let bad = dir.join("bad.jsonl");
    fs::write(&bad, "{\"kind\":\"checkpoint.advance\",\"seq\":2}\n").unwrap();

    let gate = trend(&dir, &[]);
    assert!(gate.status.success());
    assert!(report.exists(), "a plain gate run writes the report");
    let gated = verdicts(&gate);
    assert!(gated.iter().any(|l| l.starts_with("PASS ")), "{gated:?}");
    fs::remove_file(&report).unwrap();

    let checked = trend(&dir, &["--validate-events", good.to_str().unwrap()]);
    assert!(checked.status.success());
    assert_eq!(verdicts(&checked), gated, "same verdicts");
    assert!(String::from_utf8_lossy(&checked.stdout).contains("events ok:"));
    assert!(!report.exists(), "a validating run writes no report");

    let failed = trend(&dir, &["--validate-events", bad.to_str().unwrap()]);
    assert!(!failed.status.success(), "an invalid stream still fails");
    assert!(String::from_utf8_lossy(&failed.stderr).contains("events INVALID"));
    assert!(!report.exists());

    let out = dir.join("elsewhere.json");
    let named = trend(
        &dir,
        &[
            "--validate-events",
            good.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ],
    );
    assert!(named.status.success());
    assert!(out.exists(), "--out still names a report to write");
    assert!(!report.exists());
    fs::remove_dir_all(&dir).ok();
}
