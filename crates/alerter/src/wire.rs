//! The JSONL wire format of the alerter's input stream.
//!
//! One JSON object per line. The alerter understands two dialects with
//! the same field conventions as the sweep engine's event stream
//! (`cell` / `seed` / 16-hex trace coordinates):
//!
//! - **Recorded streams** — the `obs_events.jsonl` a sweep writes with
//!   `--events`: `cell.start` (τ/τ′ policy), `bs.alert` (one delivered
//!   accusation, with the batch path's recorded verdict), `revocation`,
//!   and `cell.complete` (with the cache classification). Replay feeds
//!   these back and cross-checks every recorded decision.
//! - **Live streams** — minimal producer events: `deploy.start`,
//!   `alert`, `deploy.end`, carrying a `deployment` (or `cell`) key.
//!
//! Anything else that parses as a JSON object with a `kind` is ignored
//! (the recorded stream interleaves phases, metrics, and health events
//! the alerter has no use for); anything that doesn't parse is a
//! malformed line, which the service counts and survives.
//!
//! Decoding copies nothing: a [`WireEvent`] borrows its strings from the
//! line (a string is copied only when it contains escapes), and the
//! line's other members are validated without being built.

use secloc_obs::json::{visit_object, JsonRef};
use std::borrow::Cow;

/// One decoded input line, normalized across the two dialects. Strings
/// borrow from the line they were decoded from.
#[derive(Debug, Clone, PartialEq)]
pub enum WireEvent<'a> {
    /// A deployment came online (`cell.start` / `deploy.start`).
    DeployStart {
        /// The demultiplexing key (`cell` or `deployment` field).
        deployment: Cow<'a, str>,
        /// Per-reporter cap τ, when announced.
        tau: Option<u32>,
        /// Revocation threshold τ′, when announced.
        tau_prime: Option<u32>,
        /// The deployment's seed, echoed onto emitted events.
        seed: Option<u64>,
    },
    /// One delivered accusation (`bs.alert` / `alert`).
    Accusation {
        /// The demultiplexing key; absent on single-deployment live
        /// streams (the service then uses its default key).
        deployment: Option<Cow<'a, str>>,
        /// The accusing node.
        reporter: u32,
        /// The accused node.
        target: u32,
        /// `detection` / `collusion`, when the producer tagged it.
        source: Option<Cow<'a, str>>,
        /// The batch path's recorded verdict (`bs.alert` streams only);
        /// replay cross-checks it against the machine's decision.
        recorded_outcome: Option<Cow<'a, str>>,
    },
    /// A revocation the batch path recorded (`revocation`); replay asserts
    /// the machine agrees.
    RecordedRevocation {
        /// The demultiplexing key, when present.
        deployment: Option<Cow<'a, str>>,
        /// The node the batch path revoked.
        target: u32,
    },
    /// A deployment went away (`cell.complete` / `deploy.end`).
    DeployEnd {
        /// The demultiplexing key, when present.
        deployment: Option<Cow<'a, str>>,
        /// The sweep's cache classification (`miss` / `memo` / `hit` /
        /// `resumed`); only `miss` cells carry a full decision history,
        /// so only those are parity-checked against the checkpoint.
        cache: Option<Cow<'a, str>>,
    },
    /// A well-formed event of no interest to the alerter.
    Ignored,
}

/// The first occurrence of every member the wire format reads (later
/// duplicates are ignored, as `JsonValue::get` does).
#[derive(Default)]
struct Fields<'a> {
    kind: Option<JsonRef<'a>>,
    cell: Option<JsonRef<'a>>,
    deployment: Option<JsonRef<'a>>,
    tau: Option<JsonRef<'a>>,
    tau_prime: Option<JsonRef<'a>>,
    seed: Option<JsonRef<'a>>,
    reporter: Option<JsonRef<'a>>,
    target: Option<JsonRef<'a>>,
    source: Option<JsonRef<'a>>,
    outcome: Option<JsonRef<'a>>,
    cache: Option<JsonRef<'a>>,
}

impl<'a> Fields<'a> {
    fn keep_first(&mut self, key: &str, value: JsonRef<'a>) {
        let field = match key {
            "kind" => &mut self.kind,
            "cell" => &mut self.cell,
            "deployment" => &mut self.deployment,
            "tau" => &mut self.tau,
            "tau_prime" => &mut self.tau_prime,
            "seed" => &mut self.seed,
            "reporter" => &mut self.reporter,
            "target" => &mut self.target,
            "source" => &mut self.source,
            "outcome" => &mut self.outcome,
            "cache" => &mut self.cache,
            _ => return,
        };
        if field.is_none() {
            *field = Some(value);
        }
    }
}

fn str_of(v: Option<JsonRef<'_>>) -> Option<Cow<'_, str>> {
    match v {
        Some(JsonRef::String(s)) => Some(s),
        _ => None,
    }
}

fn u32_of(v: Option<&JsonRef<'_>>, field: &str) -> Result<u32, String> {
    let raw = v
        .and_then(JsonRef::as_u64)
        .ok_or_else(|| format!("missing or non-u64 \"{field}\""))?;
    u32::try_from(raw).map_err(|_| format!("\"{field}\" {raw} exceeds u32"))
}

fn maybe_u32(v: Option<&JsonRef<'_>>, field: &str) -> Result<Option<u32>, String> {
    v.map(|v| u32_of(Some(v), field)).transpose()
}

/// The demultiplexing key: `cell` (sweep convention) wins over
/// `deployment` (live convention).
fn deployment_of<'a>(
    cell: Option<JsonRef<'a>>,
    deployment: Option<JsonRef<'a>>,
) -> Option<Cow<'a, str>> {
    str_of(cell).or_else(|| str_of(deployment))
}

/// Parses one input line. `Err` is a malformed line (invalid JSON, no
/// `kind`, or a recognized kind missing a contract field) with the reason;
/// the service survives these, counts them, and surfaces them through the
/// malformed-input health detector.
pub fn parse_line(line: &str) -> Result<WireEvent<'_>, String> {
    let mut f = Fields::default();
    let is_object = visit_object(line, |key, value| f.keep_first(&key, value))
        .map_err(|e| format!("invalid JSON: {e}"))?;
    if !is_object {
        return Err("line is not a JSON object".to_string());
    }
    let kind = f
        .kind
        .as_ref()
        .and_then(JsonRef::as_str)
        .ok_or_else(|| "missing or non-string \"kind\"".to_string())?;
    match kind {
        "cell.start" | "deploy.start" => Ok(WireEvent::DeployStart {
            deployment: deployment_of(f.cell, f.deployment)
                .ok_or_else(|| format!("{kind} missing \"cell\"/\"deployment\""))?,
            tau: maybe_u32(f.tau.as_ref(), "tau")?,
            tau_prime: maybe_u32(f.tau_prime.as_ref(), "tau_prime")?,
            seed: f.seed.as_ref().and_then(JsonRef::as_u64),
        }),
        "bs.alert" | "alert" => Ok(WireEvent::Accusation {
            deployment: deployment_of(f.cell, f.deployment),
            reporter: u32_of(f.reporter.as_ref(), "reporter")?,
            target: u32_of(f.target.as_ref(), "target")?,
            source: str_of(f.source),
            recorded_outcome: str_of(f.outcome),
        }),
        "revocation" => Ok(WireEvent::RecordedRevocation {
            deployment: deployment_of(f.cell, f.deployment),
            target: u32_of(f.target.as_ref(), "target")?,
        }),
        "cell.complete" | "deploy.end" => Ok(WireEvent::DeployEnd {
            deployment: deployment_of(f.cell, f.deployment),
            cache: str_of(f.cache),
        }),
        _ => Ok(WireEvent::Ignored),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_recorded_cell_start() {
        let ev = parse_line(
            r#"{"kind":"cell.start","seq":3,"trace":"00000000c0ffee00","cell":"00000000c0ffee00","seed":7,"tau":2,"tau_prime":2}"#,
        )
        .unwrap();
        assert_eq!(
            ev,
            WireEvent::DeployStart {
                deployment: "00000000c0ffee00".into(),
                tau: Some(2),
                tau_prime: Some(2),
                seed: Some(7),
            }
        );
    }

    #[test]
    fn parses_recorded_bs_alert_with_verdict() {
        let ev = parse_line(
            r#"{"kind":"bs.alert","seq":9,"cell":"00000000c0ffee00","reporter":4,"target":17,"source":"detection","outcome":"accepted"}"#,
        )
        .unwrap();
        assert_eq!(
            ev,
            WireEvent::Accusation {
                deployment: Some("00000000c0ffee00".into()),
                reporter: 4,
                target: 17,
                source: Some("detection".into()),
                recorded_outcome: Some("accepted".into()),
            }
        );
    }

    #[test]
    fn parses_live_minimal_alert() {
        let ev = parse_line(r#"{"kind":"alert","deployment":"field-7","reporter":1,"target":2}"#)
            .unwrap();
        assert_eq!(
            ev,
            WireEvent::Accusation {
                deployment: Some("field-7".into()),
                reporter: 1,
                target: 2,
                source: None,
                recorded_outcome: None,
            }
        );
    }

    #[test]
    fn uninteresting_kinds_are_ignored_not_errors() {
        for line in [
            r#"{"kind":"phase","seq":1,"name":"impact"}"#,
            r#"{"kind":"sweep.end","seq":99,"cells":4,"resumed":0,"cached":0,"executed":4}"#,
            r#"{"kind":"health.stalled_stream","seq":5,"message":"idle"}"#,
        ] {
            assert_eq!(parse_line(line).unwrap(), WireEvent::Ignored);
        }
    }

    #[test]
    fn malformed_lines_error_with_reason() {
        assert!(parse_line("not json").is_err());
        assert!(parse_line("[1,2,3]").is_err());
        assert!(parse_line(r#"{"seq":1}"#).is_err());
        assert!(parse_line(r#"{"kind":"alert","reporter":1}"#).is_err());
        assert!(parse_line(r#"{"kind":"alert","reporter":"x","target":2}"#).is_err());
        assert!(parse_line(r#"{"kind":"alert","reporter":5000000000,"target":2}"#).is_err());
        assert!(parse_line(r#"{"kind":"cell.start","tau":2}"#).is_err());
    }
}
