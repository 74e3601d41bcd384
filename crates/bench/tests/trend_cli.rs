//! `secloc-trend` as a command: a run that validates event streams checks
//! those streams and nothing else. It gates no bench report and writes
//! none, so its exit status is the streams' verdict alone, and checking a
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
fn validating_events_checks_the_streams_alone() {
    let dir = scratch("validate");
    // A committed report that fails a gate, as a full-mode run on a slow
    // host phase can leave it.
    fs::write(
        dir.join("BENCH_perf.json"),
        PERF.replace("\"efficiency\": 0.9", "\"efficiency\": 0.4"),
    )
    .unwrap();
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
    assert!(!gate.status.success(), "the report fails its gate");
    assert!(verdicts(&gate).iter().any(|l| l.starts_with("FAIL ")));
    assert!(report.exists(), "a plain gate run writes the report");
    fs::remove_file(&report).unwrap();

    // A valid stream passes whatever the reports say, and the check reads
    // and writes no report.
    let checked = trend(&dir, &["--validate-events", good.to_str().unwrap()]);
    assert!(
        checked.status.success(),
        "{}",
        String::from_utf8_lossy(&checked.stderr)
    );
    assert!(String::from_utf8_lossy(&checked.stdout).contains("events ok:"));
    assert_eq!(verdicts(&checked), Vec::<String>::new(), "no metric gated");
    assert!(!report.exists(), "a validating run writes no report");

    // An invalid stream fails, alone or next to a valid one.
    for streams in [vec![&bad], vec![&good, &bad]] {
        let mut extra = Vec::new();
        for s in streams {
            extra.extend(["--validate-events", s.to_str().unwrap()]);
        }
        let failed = trend(&dir, &extra);
        assert!(!failed.status.success(), "an invalid stream fails");
        assert!(String::from_utf8_lossy(&failed.stderr).contains("events INVALID"));
    }
    assert!(!report.exists());
    fs::remove_dir_all(&dir).ok();
}
