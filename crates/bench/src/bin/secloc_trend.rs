//! `secloc-trend` — the perf-trend gate.
//!
//! Reads the current bench reports (`BENCH_perf.json`, `BENCH_obs.json`,
//! `BENCH_robustness.json`), compares each gated metric against the hard
//! limits the reports themselves declare **and** against the recent
//! history recorded in `results/bench_history.jsonl` (keyed by outcome
//! revision + config fingerprint + bench mode so numbers from a
//! different code revision, grid, or quick/full mode never pollute a
//! baseline), then writes
//! `results/BENCH_trend.json` with one verdict per metric:
//!
//! - `fail` — a hard limit is broken (the old CI inline-python check);
//! - `warn` — within limits but regressed noticeably against the
//!   history baseline (median of the matching window);
//! - `unmeasured` — a worker-scaling efficiency the bench host could not
//!   measure (fewer than two workers, or more workers than cores): it is
//!   printed and written to the report but left out of the overall
//!   verdict and of the history;
//! - `pass` — everything else.
//!
//! Exit status is non-zero iff any metric fails (warnings are reported
//! but do not gate), so CI can run `secloc-trend` directly instead of an
//! embedded script.
//!
//! With `--validate-events FILE` the tool instead schema-checks event
//! JSONL streams (a sweep `--events` capture or a flight-recorder dump)
//! line by line, and does nothing else: it reads no bench report and
//! writes nothing, and its exit status is non-zero iff a stream is
//! invalid. A stream check therefore never fails on a committed report
//! that a slow host left failing a perf gate.
//!
//! ```text
//! secloc-trend [--results DIR] [--history FILE] [--out FILE]
//!              [--baseline-window N] [--no-record]
//! secloc-trend --validate-events FILE...
//! ```

use secloc_obs::json::{push_json_f64, push_json_string, JsonValue};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

/// The hard limit a metric carries, if any. Floors gate ratios that must
/// stay high (speedups); ceilings gate ratios that must stay low
/// (overheads).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Limit {
    Floor(f64),
    Ceiling(f64),
    None,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Verdict {
    Pass,
    Warn,
    Fail,
    /// The report could not measure the value; it never gates.
    Unmeasured,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Warn => "warn",
            Verdict::Fail => "fail",
            Verdict::Unmeasured => "unmeasured",
        }
    }
}

#[derive(Debug)]
struct Metric {
    name: String,
    value: f64,
    limit: Limit,
    /// For a worker-scaling efficiency: the bench host's core count.
    cores: Option<u64>,
    baseline: Option<f64>,
    delta_pct: Option<f64>,
    verdict: Verdict,
}

/// Worker-scaling efficiencies (`perf.<section>.efficiency`) are ratios of
/// a serial time to a parallel one, meaningful only when the parallel run
/// had at least two workers, each on its own core.
fn scaling_section(name: &str) -> Option<&str> {
    name.strip_prefix("perf.")?.strip_suffix(".efficiency")
}

/// For a scaling efficiency: the host's cores and whether the report
/// measured the ratio at all. `None` for every other metric, and for
/// reports that predate the `cores` / `efficiency_workers` fields.
fn scaling_host(perf: Option<&JsonValue>, name: &str) -> Option<(u64, bool)> {
    let section = scaling_section(name)?;
    let report = perf?.get(section)?;
    let cores = report.get("cores")?.as_u64()?;
    let workers = report.get("efficiency_workers")?.as_u64()?;
    Some((cores, workers >= 2 && cores >= workers))
}

/// Judges every collected value against its limit and baseline.
fn evaluate(
    perf: Option<&JsonValue>,
    raw: Vec<(String, f64, Limit)>,
    series: &[(String, Vec<f64>)],
) -> Vec<Metric> {
    raw.into_iter()
        .map(|(name, value, limit)| {
            let baseline = series
                .iter()
                .find(|(n, _)| *n == name)
                .and_then(|(_, values)| median(values));
            let host = scaling_host(perf, &name);
            let (verdict, delta_pct) = match host {
                Some((_, false)) => (Verdict::Unmeasured, None),
                _ => judge(value, limit, baseline),
            };
            Metric {
                name,
                value,
                limit,
                cores: host.map(|(cores, _)| cores),
                baseline,
                delta_pct,
                verdict,
            }
        })
        .collect()
}

/// The worst verdict among the measured metrics.
fn overall_verdict(metrics: &[Metric]) -> Verdict {
    metrics
        .iter()
        .map(|m| m.verdict)
        .filter(|&v| v != Verdict::Unmeasured)
        .max()
        .unwrap_or(Verdict::Pass)
}

/// Relative + absolute slack before a baseline drift becomes a warning:
/// small-denominator metrics (detection-rate drops near zero) would
/// otherwise flap on noise.
const WARN_RELATIVE: f64 = 0.10;
const WARN_ABSOLUTE: f64 = 0.02;

fn judge(value: f64, limit: Limit, baseline: Option<f64>) -> (Verdict, Option<f64>) {
    let hard_fail = match limit {
        Limit::Floor(floor) => value < floor,
        Limit::Ceiling(ceiling) => value > ceiling,
        Limit::None => false,
    };
    let delta_pct = baseline
        .filter(|b| b.abs() > f64::EPSILON)
        .map(|b| (value - b) / b * 100.0);
    if hard_fail {
        return (Verdict::Fail, delta_pct);
    }
    if let Some(b) = baseline {
        let regressed = match limit {
            // Higher is better: warn when we fell visibly below baseline.
            Limit::Floor(_) => value < b * (1.0 - WARN_RELATIVE) - WARN_ABSOLUTE,
            // Lower is better (overheads, robustness drops).
            Limit::Ceiling(_) | Limit::None => value > b * (1.0 + WARN_RELATIVE) + WARN_ABSOLUTE,
        };
        if regressed {
            return (Verdict::Warn, delta_pct);
        }
    }
    (Verdict::Pass, delta_pct)
}

/// Reads and parses one JSON report, `None` when the file is absent.
/// A present-but-unparseable report is an error: silently skipping it
/// would pass a gate that should have run.
fn load_report(path: &Path) -> Result<Option<JsonValue>, String> {
    if !path.exists() {
        return Ok(None);
    }
    let text = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    JsonValue::parse(&text)
        .map(Some)
        .map_err(|e| format!("parse {}: {e}", path.display()))
}

fn number_at(report: &JsonValue, path: &[&str]) -> Option<f64> {
    report.pointer(path)?.as_f64()
}

/// The identity under which history entries are grouped.
#[derive(Debug, Clone, PartialEq)]
struct ReportKey {
    code_version: String,
    outcome_revision: u64,
    config_fingerprint: String,
    /// `"quick"` or `"full"` — the bench grid mode. Quick-mode runs use
    /// smaller iteration grids whose ratios are not comparable to
    /// full-mode numbers, so the two must never share a baseline (a
    /// single full-mode entry in a quick-mode window once parked
    /// `sweep_sharing` in a permanent warn).
    mode: String,
}

fn report_key(perf: Option<&JsonValue>, robustness: Option<&JsonValue>) -> ReportKey {
    let pick = |field: &str| -> Option<String> {
        [perf, robustness]
            .into_iter()
            .flatten()
            .find_map(|r| r.get(field)?.as_str().map(str::to_string))
    };
    let revision = [perf, robustness]
        .into_iter()
        .flatten()
        .find_map(|r| r.get("outcome_revision")?.as_u64());
    let quick = [perf, robustness]
        .into_iter()
        .flatten()
        .find_map(|r| r.get("quick")?.as_bool());
    ReportKey {
        code_version: pick("code_version").unwrap_or_else(|| "unknown".to_string()),
        outcome_revision: revision.unwrap_or(0),
        config_fingerprint: pick("config_fingerprint").unwrap_or_else(|| "unknown".to_string()),
        mode: if quick.unwrap_or(false) {
            "quick"
        } else {
            "full"
        }
        .to_string(),
    }
}

/// Per-metric baselines: the median of each metric's values over the last
/// `window` history entries whose key matches (same outcome revision,
/// config fingerprint, and bench mode — the code version is recorded for
/// the audit trail but does not partition the history, or a routine
/// version bump would silently reset every baseline). A scaling
/// efficiency counts only from entries that record its host's `cores`:
/// older entries wrote 1.0 for ratios a one-core host never measured.
fn baselines(
    history_path: &Path,
    key: &ReportKey,
    window: usize,
) -> (usize, Vec<(String, Vec<f64>)>) {
    let Ok(text) = fs::read_to_string(history_path) else {
        return (0, Vec::new());
    };
    let mut matching: Vec<JsonValue> = Vec::new();
    for line in text.lines() {
        let Ok(entry) = JsonValue::parse(line) else {
            continue; // tolerate a crash-truncated tail
        };
        let same_rev =
            entry.get("outcome_revision").and_then(|v| v.as_u64()) == Some(key.outcome_revision);
        let same_fp = entry.get("config_fingerprint").and_then(|v| v.as_str())
            == Some(key.config_fingerprint.as_str());
        // Entries written before the mode field existed never match: they
        // mixed quick- and full-mode numbers, so re-seeding the baseline
        // is exactly what we want.
        let same_mode = entry.get("mode").and_then(|v| v.as_str()) == Some(key.mode.as_str());
        if same_rev && same_fp && same_mode {
            matching.push(entry);
        }
    }
    let considered = matching.len().min(window);
    let recent = &matching[matching.len() - considered..];
    let mut series: Vec<(String, Vec<f64>)> = Vec::new();
    for entry in recent {
        let Some(metrics) = entry.get("metrics").and_then(|m| m.as_object()) else {
            continue;
        };
        let cores = entry.get("cores");
        for (name, value) in metrics {
            let Some(v) = value.as_f64() else { continue };
            if scaling_section(name).is_some() && cores.and_then(|c| c.get(name)).is_none() {
                continue;
            }
            match series.iter_mut().find(|(n, _)| n == name) {
                Some((_, values)) => values.push(v),
                None => series.push((name.clone(), vec![v])),
            }
        }
    }
    (considered, series)
}

fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite metric values"));
    Some(sorted[sorted.len() / 2])
}

/// Collects every gated metric from the reports that are present.
fn collect_metrics(
    perf: Option<&JsonValue>,
    obs: Option<&JsonValue>,
    robustness: Option<&JsonValue>,
) -> Vec<(String, f64, Limit)> {
    let mut out: Vec<(String, f64, Limit)> = Vec::new();
    if let Some(perf) = perf {
        // The report carries its own targets; fall back to the historical
        // CI floors when a field predates them.
        if let Some(v) = number_at(perf, &["sections", "full_run", "ratio"]) {
            let floor = number_at(perf, &["full_run_ratio_target"]).unwrap_or(3.5);
            out.push(("perf.full_run.ratio".to_string(), v, Limit::Floor(floor)));
        }
        if let Some(v) = number_at(perf, &["sweep_sharing", "ratio"]) {
            let floor = number_at(perf, &["sweep_sharing", "target"]).unwrap_or(5.0);
            out.push((
                "perf.sweep_sharing.ratio".to_string(),
                v,
                Limit::Floor(floor),
            ));
        }
        if let Some(v) = number_at(perf, &["location_phase", "ratio"]) {
            let floor = number_at(perf, &["location_phase", "target"]).unwrap_or(3.0);
            out.push((
                "perf.location_phase.ratio".to_string(),
                v,
                Limit::Floor(floor),
            ));
        }
        if let Some(v) = number_at(perf, &["sweep_scale", "efficiency"]) {
            let floor = number_at(perf, &["sweep_scale", "efficiency_target"]).unwrap_or(0.7);
            out.push((
                "perf.sweep_scale.efficiency".to_string(),
                v,
                Limit::Floor(floor),
            ));
        }
        if let Some(v) = number_at(perf, &["sweep_scale", "warm_ratio"]) {
            // A warm start's lookups cost the same however many dead cells
            // the cache holds; open reads their slots once, and flooding
            // the cache must not double the warm start's latency.
            let ceiling = number_at(perf, &["sweep_scale", "warm_ratio_target"]).unwrap_or(2.0);
            out.push((
                "perf.sweep_scale.warm_ratio".to_string(),
                v,
                Limit::Ceiling(ceiling),
            ));
        }
        if let Some(v) = number_at(perf, &["sweep_scale", "warm_ns_per_cell"]) {
            // A warm start over a live cache, per cell. The ceiling sits
            // below the cost while every lookup read the index and the
            // record from disk with seek + read pairs (1,415–1,975 ns on a
            // 2-vCPU VM, where resident lookups read 355–581 ns): a rise
            // past it means lookups went back to the file.
            out.push((
                "perf.sweep_scale.warm_ns_per_cell".to_string(),
                v,
                Limit::Ceiling(1200.0),
            ));
        }
        if let Some(v) = number_at(perf, &["sweep_scale", "warm_ckpt_ns_per_cell"]) {
            // The same warm start writing its checkpoint, per cell: lookups
            // plus one encoded line. In full mode the ceiling sits between
            // the staged encoders (695–931 ns on a 2-vCPU VM, × 1.5 =
            // 1,397) and formatting every number through `core::fmt`
            // (1,410–1,995 ns): a rise past it means integers went back to
            // `fmt` or floats lost their memo. Quick mode's 1,000-cell pass
            // is too short to tell them apart (1,055–1,070 ns against
            // 1,061–1,755 ns), so there the value is trend-only.
            let quick = perf.get("quick").and_then(JsonValue::as_bool) == Some(true);
            let limit = if quick {
                Limit::None
            } else {
                Limit::Ceiling(1400.0)
            };
            out.push((
                "perf.sweep_scale.warm_ckpt_ns_per_cell".to_string(),
                v,
                limit,
            ));
        }
        if let Some(v) = number_at(perf, &["sweep_scale", "ns_per_cell_best"]) {
            // Trend-only cost per cell (lower is better, which is what
            // `Limit::None`'s baseline check assumes): machine-dependent,
            // so no hard limit, but a rise against the trailing median
            // warns.
            out.push(("perf.sweep_scale.ns_per_cell".to_string(), v, Limit::None));
        }
        if let Some(v) = number_at(perf, &["alerter", "ns_per_event"]) {
            // Streaming decision cost per event across ≥1000 concurrent
            // deployment machines. The ceiling is the cost before wire
            // decoding went borrowed (961 ns): a rise past it means the
            // decoder allocates per line again.
            out.push((
                "perf.alerter.ns_per_event".to_string(),
                v,
                Limit::Ceiling(961.0),
            ));
        }
    }
    if let Some(obs) = obs {
        if let Some(v) = number_at(obs, &["overhead_ratio"]) {
            // The PR-1 invariant: metrics-only instrumentation stays
            // within 5% of a disabled run.
            out.push(("obs.overhead_ratio".to_string(), v, Limit::Ceiling(1.05)));
        }
    }
    if let Some(rob) = robustness {
        for drop in [
            "noise_detection_drop",
            "burst_detection_drop",
            "uniform_detection_drop",
        ] {
            if let Some(v) = number_at(rob, &[drop]) {
                // Trend-only: no hard limit, but a baseline regression
                // (the detector getting worse under faults) warns.
                out.push((format!("robustness.{drop}"), v, Limit::None));
            }
        }
    }
    out
}

fn write_trend_report(
    path: &Path,
    key: &ReportKey,
    metrics: &[Metric],
    history_entries: usize,
    overall: Verdict,
) -> std::io::Result<()> {
    let mut s = String::with_capacity(1024);
    s.push_str("{\n  \"tool\": \"secloc-trend\",\n  \"code_version\": ");
    push_json_string(&mut s, &key.code_version);
    let _ = write!(s, ",\n  \"outcome_revision\": {}", key.outcome_revision);
    s.push_str(",\n  \"config_fingerprint\": ");
    push_json_string(&mut s, &key.config_fingerprint);
    s.push_str(",\n  \"mode\": ");
    push_json_string(&mut s, &key.mode);
    let _ = write!(s, ",\n  \"history_entries\": {history_entries}");
    s.push_str(",\n  \"metrics\": [");
    for (i, m) in metrics.iter().enumerate() {
        s.push_str(if i == 0 { "\n" } else { ",\n" });
        s.push_str("    {\"name\": ");
        push_json_string(&mut s, &m.name);
        s.push_str(", \"value\": ");
        push_json_f64(&mut s, m.value);
        let (kind, limit) = match m.limit {
            Limit::Floor(v) => ("floor", Some(v)),
            Limit::Ceiling(v) => ("ceiling", Some(v)),
            Limit::None => ("none", None),
        };
        let _ = write!(s, ", \"limit_kind\": \"{kind}\", \"limit\": ");
        match limit {
            Some(v) => push_json_f64(&mut s, v),
            None => s.push_str("null"),
        }
        if let Some(cores) = m.cores {
            let _ = write!(s, ", \"cores\": {cores}");
        }
        s.push_str(", \"baseline\": ");
        match m.baseline {
            Some(v) => push_json_f64(&mut s, v),
            None => s.push_str("null"),
        }
        s.push_str(", \"delta_pct\": ");
        match m.delta_pct {
            Some(v) => push_json_f64(&mut s, v),
            None => s.push_str("null"),
        }
        let _ = write!(s, ", \"verdict\": \"{}\"}}", m.verdict.label());
    }
    s.push_str("\n  ],\n");
    let _ = write!(s, "  \"verdict\": \"{}\"\n}}\n", overall.label());
    fs::write(path, s)
}

fn append_history(path: &Path, key: &ReportKey, metrics: &[Metric]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let recorded = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut line = String::with_capacity(256);
    line.push_str("{\"code_version\":");
    push_json_string(&mut line, &key.code_version);
    let _ = write!(
        line,
        ",\"outcome_revision\":{},\"config_fingerprint\":",
        key.outcome_revision
    );
    push_json_string(&mut line, &key.config_fingerprint);
    line.push_str(",\"mode\":");
    push_json_string(&mut line, &key.mode);
    let _ = write!(line, ",\"recorded_unix\":{recorded},\"metrics\":{{");
    // Unmeasured values never enter the history; each scaling efficiency
    // records its host's cores next to it.
    let measured: Vec<&Metric> = metrics
        .iter()
        .filter(|m| m.verdict != Verdict::Unmeasured)
        .collect();
    for (i, m) in measured.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        push_json_string(&mut line, &m.name);
        line.push(':');
        push_json_f64(&mut line, m.value);
    }
    line.push_str("},\"cores\":{");
    let with_cores = measured.iter().filter_map(|m| Some((&m.name, m.cores?)));
    for (i, (name, cores)) in with_cores.enumerate() {
        if i > 0 {
            line.push(',');
        }
        push_json_string(&mut line, name);
        let _ = write!(line, ":{cores}");
    }
    line.push_str("}}\n");
    use std::io::Write as _;
    fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?
        .write_all(line.as_bytes())
}

/// Validates one event-stream JSONL file against the workspace's event
/// schema: every line is a JSON object whose `kind` is a non-empty string
/// and whose `seq` is a u64; trace coordinates, when present, are 16-hex
/// strings; and the kinds the sweep pipeline emits carry their contract
/// fields. Returns the number of validated events.
fn validate_events(path: &Path) -> Result<usize, String> {
    let is_hex16 = |v: Option<&JsonValue>| -> bool {
        v.and_then(|v| v.as_str())
            .is_some_and(|s| s.len() == 16 && s.bytes().all(|b| b.is_ascii_hexdigit()))
    };
    let text = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut count = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let at = |msg: String| format!("{}:{}: {msg}", path.display(), lineno + 1);
        if line.trim().is_empty() {
            continue;
        }
        let event = JsonValue::parse(line).map_err(|e| at(format!("invalid JSON: {e}")))?;
        if event.as_object().is_none() {
            return Err(at("event line is not a JSON object".to_string()));
        }
        let kind = event
            .get("kind")
            .and_then(|k| k.as_str())
            .filter(|k| !k.is_empty())
            .ok_or_else(|| at("missing or empty \"kind\"".to_string()))?;
        event
            .get("seq")
            .and_then(|s| s.as_u64())
            .ok_or_else(|| at("missing or non-u64 \"seq\"".to_string()))?;
        for coord in ["trace", "span", "parent"] {
            if event.get(coord).is_some() && !is_hex16(event.get(coord)) {
                return Err(at(format!("\"{coord}\" is not a 16-hex-digit string")));
            }
        }
        let require_u64 = |field: &str| -> Result<(), String> {
            event
                .get(field)
                .and_then(|v| v.as_u64())
                .map(drop)
                .ok_or_else(|| at(format!("{kind} event missing u64 \"{field}\"")))
        };
        let require_str = |field: &str| -> Result<(), String> {
            event
                .get(field)
                .and_then(|v| v.as_str())
                .map(drop)
                .ok_or_else(|| at(format!("{kind} event missing string \"{field}\"")))
        };
        match kind {
            "bs.alert" => {
                require_u64("reporter")?;
                require_u64("target")?;
                require_str("outcome")?;
            }
            "revocation" => {
                require_u64("target")?;
                require_u64("reporter")?;
            }
            "alerts.summary" => require_u64("delivered")?,
            "cell.start" => require_u64("tau_prime")?,
            "cell.complete" => require_str("cache")?,
            "checkpoint.advance" => require_u64("frontier")?,
            "sweep.worker" => {
                require_u64("worker")?;
                require_u64("units")?;
                require_u64("steals")?;
            }
            "sweep.end" => {
                require_u64("cells")?;
                require_u64("resumed")?;
                require_u64("cached")?;
                require_u64("executed")?;
            }
            // The streaming alerter's vocabulary (same stream, same
            // cell/seed/trace conventions as the sweep kinds above).
            "alerter.deploy" => {
                require_u64("tau")?;
                require_u64("tau_prime")?;
            }
            "alerter.decision" => {
                require_u64("reporter")?;
                require_u64("target")?;
                require_str("outcome")?;
            }
            "alerter.revocation" => {
                require_u64("target")?;
                require_u64("distinct_accusers")?;
            }
            "alerter.retire" => {
                require_u64("decisions")?;
                require_u64("revocations")?;
            }
            "alerter.malformed" => require_str("error")?,
            "alerter.mismatch" => {
                require_str("recorded")?;
                require_str("computed")?;
            }
            "alerter.summary" => {
                require_u64("decisions")?;
                require_u64("revocations")?;
                require_u64("malformed")?;
            }
            // Every health detector event carries a human-readable
            // message alongside its structured fields.
            k if k.starts_with("health.") => require_str("message")?,
            _ => {}
        }
        count += 1;
    }
    Ok(count)
}

struct Args {
    results: PathBuf,
    history: Option<PathBuf>,
    out: Option<PathBuf>,
    baseline_window: usize,
    record: bool,
    validate: Vec<PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        results: PathBuf::from("results"),
        history: None,
        out: None,
        baseline_window: 5,
        record: true,
        validate: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match flag.as_str() {
            "--results" => args.results = PathBuf::from(value("--results")),
            "--history" => args.history = Some(PathBuf::from(value("--history"))),
            "--out" => args.out = Some(PathBuf::from(value("--out"))),
            "--baseline-window" => {
                args.baseline_window = value("--baseline-window")
                    .parse()
                    .expect("--baseline-window takes an integer")
            }
            "--no-record" => args.record = false,
            "--validate-events" => args
                .validate
                .push(PathBuf::from(value("--validate-events"))),
            other => panic!("unknown flag {other} (see the doc comment for usage)"),
        }
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    if !args.validate.is_empty() {
        return validate_streams(&args.validate);
    }
    let history_path = args
        .history
        .clone()
        .unwrap_or_else(|| args.results.join("bench_history.jsonl"));
    let out_path = args
        .out
        .clone()
        .unwrap_or_else(|| args.results.join("BENCH_trend.json"));

    let loaded = |name: &str| match load_report(&args.results.join(name)) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let perf = loaded("BENCH_perf.json");
    let obs = loaded("BENCH_obs.json");
    let robustness = loaded("BENCH_robustness.json");
    for (name, present) in [
        ("BENCH_perf.json", perf.is_some()),
        ("BENCH_obs.json", obs.is_some()),
        ("BENCH_robustness.json", robustness.is_some()),
    ] {
        if !present {
            println!("note: {name} absent, its metrics are skipped");
        }
    }

    let key = report_key(perf.as_ref(), robustness.as_ref());
    let raw = collect_metrics(perf.as_ref(), obs.as_ref(), robustness.as_ref());
    if raw.is_empty() {
        eprintln!(
            "error: no bench reports found under {} — run the benches first",
            args.results.display()
        );
        return ExitCode::FAILURE;
    }

    let (history_entries, series) = baselines(&history_path, &key, args.baseline_window);
    let metrics = evaluate(perf.as_ref(), raw, &series);
    let overall = overall_verdict(&metrics);

    for m in &metrics {
        let limit = match m.limit {
            Limit::Floor(v) => format!(" (floor {v})"),
            Limit::Ceiling(v) => format!(" (ceiling {v})"),
            Limit::None => String::new(),
        };
        let baseline = match (m.verdict, m.cores, m.baseline, m.delta_pct) {
            (Verdict::Unmeasured, Some(cores), _, _) => {
                format!(" — not measured on this host ({cores} core(s))")
            }
            (_, _, Some(b), Some(d)) => format!(" baseline {b:.4} ({d:+.1}%)"),
            _ => String::new(),
        };
        println!(
            "{:<5} {} = {:.4}{limit}{baseline}",
            m.verdict.label().to_uppercase(),
            m.name,
            m.value
        );
    }

    if !metrics.is_empty() {
        if let Err(e) = write_trend_report(&out_path, &key, &metrics, history_entries, overall) {
            eprintln!("error: write {}: {e}", out_path.display());
            return ExitCode::FAILURE;
        }
        println!("trend report: {}", out_path.display());
        if args.record && overall != Verdict::Fail {
            // Failed runs stay out of the history so a regression does not
            // become its own baseline.
            if let Err(e) = append_history(&history_path, &key, &metrics) {
                eprintln!("error: append {}: {e}", history_path.display());
                return ExitCode::FAILURE;
            }
            println!(
                "history: {} ({history_entries} prior matching entries)",
                history_path.display()
            );
        }
    }

    if overall == Verdict::Fail {
        eprintln!("verdict: FAIL");
        ExitCode::FAILURE
    } else {
        println!("verdict: {}", overall.label());
        ExitCode::SUCCESS
    }
}

/// Schema-checks each event stream in `files`: a failure iff any of them
/// is invalid.
fn validate_streams(files: &[PathBuf]) -> ExitCode {
    let mut failed = false;
    for file in files {
        match validate_events(file) {
            Ok(n) => println!("events ok: {} ({n} events)", file.display()),
            Err(e) => {
                eprintln!("events INVALID: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A full-mode perf report from a one-core host: the sweep's cold
    /// pass ran two workers on that one core.
    const ONE_CORE_PERF: &str = r#"{
        "code_version": "v", "outcome_revision": 2, "config_fingerprint": "f", "quick": false,
        "sweep_scale": {"cores": 1, "efficiency": 0.4, "efficiency_workers": 2,
                        "efficiency_target": 0.7, "warm_ns_per_cell": 300,
                        "warm_ckpt_ns_per_cell": 1500}
    }"#;

    /// [`ONE_CORE_PERF`] from a two-core host, where the sweep efficiency
    /// is measured.
    fn two_core_perf() -> String {
        ONE_CORE_PERF.replace("\"cores\": 1", "\"cores\": 2")
    }

    fn history_file(name: &str, lines: &[&str]) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("secloc_trend_{name}_{}.jsonl", std::process::id()));
        fs::write(&path, lines.concat()).expect("write history");
        path
    }

    #[test]
    fn efficiencies_a_one_core_host_cannot_measure_are_unmeasured() {
        let verdict = |report: &str, name: &str| {
            let perf = JsonValue::parse(report).expect("report parses");
            let metrics = evaluate(Some(&perf), collect_metrics(Some(&perf), None, None), &[]);
            metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| (m.verdict, m.cores))
                .expect("metric collected")
        };
        let efficiency = "perf.sweep_scale.efficiency";
        // 2 workers on 1 core: below its 0.7 floor, but not a failure.
        assert_eq!(
            verdict(ONE_CORE_PERF, efficiency),
            (Verdict::Unmeasured, Some(1))
        );
        // 1 worker: no parallel run at all, whatever the cores.
        let one_worker =
            two_core_perf().replace("\"efficiency_workers\": 2", "\"efficiency_workers\": 1");
        assert_eq!(
            verdict(&one_worker, efficiency),
            (Verdict::Unmeasured, Some(2))
        );
        // The same report from a two-core host is measured, and gated.
        assert_eq!(
            verdict(&two_core_perf(), efficiency),
            (Verdict::Fail, Some(2))
        );
        assert_eq!(
            verdict(ONE_CORE_PERF, "perf.sweep_scale.warm_ns_per_cell"),
            (Verdict::Pass, None)
        );

        // 1,500 ns/cell is what `core::fmt` encoding costs: gated in full
        // mode only.
        let perf = JsonValue::parse(ONE_CORE_PERF).expect("report parses");
        let metrics = evaluate(Some(&perf), collect_metrics(Some(&perf), None, None), &[]);
        let limit = |m: &[Metric]| {
            m.iter()
                .find(|m| m.name == "perf.sweep_scale.warm_ckpt_ns_per_cell")
                .map(|m| (m.limit, m.verdict))
        };
        assert_eq!(
            limit(&metrics),
            Some((Limit::Ceiling(1400.0), Verdict::Fail))
        );
        assert_eq!(
            overall_verdict(&metrics),
            Verdict::Fail,
            "the checkpoint pass"
        );
        let quick = ONE_CORE_PERF.replace("\"quick\": false", "\"quick\": true");
        let perf = JsonValue::parse(&quick).expect("report parses");
        let metrics = evaluate(Some(&perf), collect_metrics(Some(&perf), None, None), &[]);
        assert_eq!(limit(&metrics), Some((Limit::None, Verdict::Pass)));
        assert_eq!(
            overall_verdict(&metrics),
            Verdict::Pass,
            "the unmeasured efficiency does not gate"
        );
    }

    #[test]
    fn history_keeps_cores_and_drops_unmeasured_values() {
        let one_core = JsonValue::parse(ONE_CORE_PERF).expect("report parses");
        let two_cores = JsonValue::parse(&two_core_perf()).expect("report parses");
        let key = report_key(Some(&one_core), None);
        // An entry from before `cores` was recorded: its efficiencies are
        // ignored, its other metrics still count.
        let old = "{\"outcome_revision\":2,\"config_fingerprint\":\"f\",\"mode\":\"full\",\
                   \"metrics\":{\"perf.sweep_scale.efficiency\":1,\
                   \"perf.sweep_scale.warm_ns_per_cell\":500}}\n";
        let path = history_file("cores", &[old]);
        // The sweep efficiency is unmeasured on one core, measured on two.
        for perf in [&one_core, &two_cores] {
            let metrics = evaluate(Some(perf), collect_metrics(Some(perf), None, None), &[]);
            append_history(&path, &key, &metrics).expect("append");
        }
        let text = fs::read_to_string(&path).expect("read history");
        let written: Vec<JsonValue> = text
            .lines()
            .skip(1)
            .map(|line| JsonValue::parse(line).expect("json"))
            .collect();
        let recorded = |entry: &JsonValue, section: &str| {
            entry
                .pointer(&[section, "perf.sweep_scale.efficiency"])
                .and_then(JsonValue::as_f64)
        };
        assert_eq!(recorded(&written[0], "metrics"), None, "unmeasured");
        assert_eq!(recorded(&written[0], "cores"), None);
        assert_eq!(recorded(&written[1], "metrics"), Some(0.4), "measured");
        assert_eq!(recorded(&written[1], "cores"), Some(2.0));

        let (entries, series) = baselines(&path, &key, 5);
        let _ = fs::remove_file(&path);
        assert_eq!(entries, 3);
        let values = |name: &str| {
            series
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.clone())
                .unwrap_or_default()
        };
        assert_eq!(values("perf.sweep_scale.efficiency"), vec![0.4]);
        assert_eq!(
            values("perf.sweep_scale.warm_ns_per_cell"),
            vec![500.0, 300.0, 300.0]
        );
    }
}
