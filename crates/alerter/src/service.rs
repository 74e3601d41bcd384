//! The streaming alerter service: per-deployment revocation machines
//! behind a dense-keyed table.
//!
//! [`Alerter`] demultiplexes a JSONL event stream into one
//! [`RevocationMachine`] per deployment, arbitrates each accusation with
//! [`RevocationMachine::decide`] — the same single implementation of the
//! τ/τ′ semantics the batch sim runs — and emits its own decisions as
//! `alerter.*` events through a [`secloc_obs`] sink, scoped with the sweep
//! engine's `cell`/`seed`/trace conventions so one JSONL stream can carry
//! both the batch recording and the live re-decisions.
//!
//! The table is dense: deployment keys map to slots in a `Vec`, retired
//! slots go on a free list and are reused by mid-stream deployment churn,
//! so thousands of concurrent deployments cost a hash lookup plus an
//! index. Keys are looked up by the `&str` borrowed from the input line
//! and copied only when a slot is inserted, and event fields are built
//! only when a sink is attached: an accusation into a live deployment
//! allocates nothing beyond the machine's own table growth. A retired
//! slot keeps its machine, and the next deployment in that slot
//! [`reset`](RevocationMachine::reset)s it rather than growing new
//! tables, unless those tables cover more than 64 node IDs per decision
//! the retiring deployment made.

use crate::wire::{parse_line, WireEvent};
use secloc_core::{AlertOutcome, RevocationConfig, RevocationMachine};
use secloc_obs::{fnv1a, Obs, SpanContext, Value};
use std::borrow::Cow;
use std::collections::HashMap;
use std::io::{BufRead, Read as _};

/// The key of accusations that name no deployment.
const DEFAULT_KEY: &str = "default";

/// The most bytes of one input line, its newline included, that
/// [`Alerter::ingest_reader`] holds in memory: 1 MiB, several thousand
/// times the mean wire line (about 180 bytes). A line whose newline does
/// not arrive within them is consumed up to that newline without being
/// buffered and counts as one malformed line, so a hostile stream cannot
/// grow the line buffer past twice this cap.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// A retired deployment's machine is kept for the next deployment in its
/// slot only while its tables cover at most this many node IDs per
/// decision the retiring deployment made. Resetting a kept machine then
/// costs the next deployment no more than a small multiple of the work
/// the previous one brought in, and the rule is applied again at every
/// retirement: one accusation naming a huge node ID leaves with its
/// deployment. The deployments of a recorded paper-scale sweep cover
/// 0.9–2.3 IDs per decision.
const RECYCLE_IDS_PER_DECISION: u64 = 64;

/// Deployment keys become trace ids by FNV-1a, the workspace's content
/// hash, except keys that already *are* 16-hex trace ids (sweep cell
/// keys), which are adopted verbatim so replayed decisions land on the
/// same trace as the batch recording.
fn trace_id_of(key: &str) -> u64 {
    if key.len() == 16 && key.bytes().all(|b| b.is_ascii_hexdigit()) {
        u64::from_str_radix(key, 16).expect("16 hex digits")
    } else {
        fnv1a(key.as_bytes())
    }
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct AlerterConfig {
    /// Thresholds for deployments whose stream never announces τ/τ′.
    pub default_policy: RevocationConfig,
    /// Replay mode: cross-check recorded `bs.alert` verdicts and
    /// `revocation` events against the machine's decisions, collecting
    /// [`Alerter::mismatches`].
    pub verify_recorded: bool,
}

impl Default for AlerterConfig {
    fn default() -> Self {
        AlerterConfig {
            default_policy: RevocationConfig::paper_default(),
            verify_recorded: false,
        }
    }
}

/// Running totals over the whole stream.
#[derive(Debug, Clone, Copy, Default)]
pub struct AlerterStats {
    /// Non-blank input lines seen.
    pub lines: u64,
    /// Lines that failed to parse (counted, survived, surfaced via the
    /// malformed-input health detector).
    pub malformed: u64,
    /// Well-formed events of no interest (other kinds, or lifecycle
    /// events for unknown deployments).
    pub ignored: u64,
    /// Deployments created by an explicit `cell.start`/`deploy.start`.
    pub deploys: u64,
    /// Deployments created implicitly by an accusation that arrived
    /// before (or without) any start event — out-of-order input.
    pub implicit_deploys: u64,
    /// Accusations arbitrated.
    pub decisions: u64,
    /// Revocations the machines issued.
    pub revocations: u64,
    /// Deployments retired by `cell.complete`/`deploy.end`.
    pub retired: u64,
    /// High-water mark of concurrently live deployment machines.
    pub peak_active: usize,
    /// Recorded-vs-computed divergences (replay mode only).
    pub parity_mismatches: u64,
}

/// Per-deployment summary, available after the deployment retired (or at
/// end of stream for the still-active ones).
#[derive(Debug, Clone)]
pub struct DeploymentSummary {
    /// The demultiplexing key.
    pub key: String,
    /// Accusations this deployment's machine arbitrated.
    pub decisions: u64,
    /// Revocations it issued.
    pub revocations: u64,
    /// The sweep's cache classification from `cell.complete`, when the
    /// stream carried one (`miss` = executed, so parity-checkable).
    pub cache: Option<String>,
}

struct Slot {
    key: String,
    obs: Obs,
    machine: RevocationMachine,
    decisions: u64,
    revocations: u64,
}

/// The streaming revocation service. See the [module docs](self).
pub struct Alerter {
    cfg: AlerterConfig,
    obs: Obs,
    /// deployment key → dense slot index.
    index: HashMap<String, usize>,
    slots: Vec<Option<Slot>>,
    /// Retired slots, each with the machine it held, ready to be reset.
    free: Vec<(usize, RevocationMachine)>,
    stats: AlerterStats,
    mismatches: Vec<String>,
    summaries: Vec<DeploymentSummary>,
    finished: bool,
}

impl Alerter {
    /// A service emitting its decisions through `obs` (pass
    /// [`Obs::disabled`] to run silent).
    pub fn new(cfg: AlerterConfig, obs: Obs) -> Self {
        Alerter {
            cfg,
            obs,
            index: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            stats: AlerterStats::default(),
            mismatches: Vec::new(),
            summaries: Vec::new(),
            finished: false,
        }
    }

    /// Running totals so far.
    pub fn stats(&self) -> AlerterStats {
        self.stats
    }

    /// Replay divergences collected so far (empty unless
    /// [`AlerterConfig::verify_recorded`] is set — and, when parity
    /// holds, empty even then).
    pub fn mismatches(&self) -> &[String] {
        &self.mismatches
    }

    /// Currently live deployment machines.
    pub fn active_deployments(&self) -> usize {
        self.index.len()
    }

    /// Summaries of retired deployments, in retirement order. After
    /// [`finish`](Alerter::finish), also includes the deployments still
    /// live at end of stream.
    pub fn deployment_summaries(&self) -> &[DeploymentSummary] {
        &self.summaries
    }

    /// Whether `node` is revoked in `deployment`'s live machine.
    pub fn is_revoked(&self, deployment: &str, node: u32) -> bool {
        self.machine(deployment)
            .is_some_and(|m| m.is_revoked(secloc_crypto::NodeId(node)))
    }

    /// Read access to a live deployment's machine (tests, snapshots).
    pub fn machine(&self, deployment: &str) -> Option<&RevocationMachine> {
        self.index
            .get(deployment)
            .and_then(|&i| self.slots[i].as_ref())
            .map(|s| &s.machine)
    }

    /// Ingests every line of `reader` until end of input, reusing one
    /// buffer. Lines are split at `\n` with a trailing `\r` stripped, as
    /// [`BufRead::lines`] does, but each is decoded as UTF-8 on its own: a
    /// line that is not valid UTF-8 is a malformed line (counted, reported,
    /// survived), not the end of the stream. So is a line longer than
    /// [`MAX_LINE_BYTES`], which is skipped without being held in memory.
    /// Only I/O errors are returned.
    pub fn ingest_reader<R: BufRead>(&mut self, mut reader: R) -> std::io::Result<()> {
        let mut buf = Vec::new();
        loop {
            buf.clear();
            let read = (&mut reader)
                .take(MAX_LINE_BYTES as u64)
                .read_until(b'\n', &mut buf)?;
            if read == 0 {
                return Ok(());
            }
            if read == MAX_LINE_BYTES && buf.last() != Some(&b'\n') {
                reader.skip_until(b'\n')?;
                self.stats.lines += 1;
                self.malformed(format!("line longer than the {MAX_LINE_BYTES}-byte cap"));
                continue;
            }
            let mut line = &buf[..];
            if let Some(rest) = line.strip_suffix(b"\n") {
                line = rest.strip_suffix(b"\r").unwrap_or(rest);
            }
            match std::str::from_utf8(line) {
                Ok(line) => self.ingest_line(line),
                Err(e) => {
                    self.stats.lines += 1;
                    self.malformed(format!("invalid UTF-8: {e}"));
                }
            }
        }
    }

    /// Ingests one raw input line. Blank lines are skipped; malformed
    /// lines are counted, reported as `alerter.malformed`, and survived.
    pub fn ingest_line(&mut self, line: &str) {
        if line.trim().is_empty() {
            return;
        }
        self.stats.lines += 1;
        match parse_line(line) {
            Ok(event) => self.ingest(event),
            Err(reason) => self.malformed(reason),
        }
    }

    fn malformed(&mut self, reason: String) {
        self.stats.malformed += 1;
        self.obs.emit(
            "alerter.malformed",
            &[
                ("error", Value::Str(reason)),
                ("line", Value::U64(self.stats.lines)),
            ],
        );
    }

    /// Ingests one decoded event.
    pub fn ingest(&mut self, event: WireEvent<'_>) {
        match event {
            WireEvent::DeployStart {
                deployment,
                tau,
                tau_prime,
                seed,
            } => self.deploy(deployment, tau, tau_prime, seed),
            WireEvent::Accusation {
                deployment,
                reporter,
                target,
                source,
                recorded_outcome,
            } => self.accuse(deployment, reporter, target, source, recorded_outcome),
            WireEvent::RecordedRevocation { deployment, target } => {
                self.check_recorded_revocation(deployment, target)
            }
            WireEvent::DeployEnd { deployment, cache } => self.retire(deployment, cache),
            WireEvent::Ignored => self.stats.ignored += 1,
        }
    }

    /// End of stream: retires the still-active machines into
    /// [`deployment_summaries`](Alerter::deployment_summaries) (without
    /// a cache classification) and emits `alerter.summary`.
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        let mut keys: Vec<String> = self.index.keys().cloned().collect();
        keys.sort();
        for key in keys {
            let i = self.index[&key];
            if let Some(slot) = &self.slots[i] {
                self.summaries.push(DeploymentSummary {
                    key: slot.key.clone(),
                    decisions: slot.decisions,
                    revocations: slot.revocations,
                    cache: None,
                });
            }
        }
        self.obs.emit(
            "alerter.summary",
            &[
                (
                    "deployments",
                    Value::U64(self.stats.deploys + self.stats.implicit_deploys),
                ),
                ("active", Value::U64(self.index.len() as u64)),
                ("retired", Value::U64(self.stats.retired)),
                ("decisions", Value::U64(self.stats.decisions)),
                ("revocations", Value::U64(self.stats.revocations)),
                ("malformed", Value::U64(self.stats.malformed)),
                ("mismatches", Value::U64(self.stats.parity_mismatches)),
            ],
        );
    }

    /// The scoped facade for a deployment: trace root = the key's id,
    /// standard `cell` (+ `seed`) fields — the sweep engine's convention.
    fn scope(&self, key: &str, seed: Option<u64>) -> Obs {
        if !self.obs.sink_attached() {
            return self.obs.clone();
        }
        let mut fields = vec![("cell", Value::Str(key.to_string()))];
        if let Some(seed) = seed {
            fields.push(("seed", Value::U64(seed)));
        }
        self.obs
            .scoped(SpanContext::root(trace_id_of(key)), &fields)
    }

    fn deploy(
        &mut self,
        key: Cow<'_, str>,
        tau: Option<u32>,
        tau_prime: Option<u32>,
        seed: Option<u64>,
    ) {
        let policy = RevocationConfig {
            tau: tau.unwrap_or(self.cfg.default_policy.tau),
            tau_prime: tau_prime.unwrap_or(self.cfg.default_policy.tau_prime),
        };
        if let Some(&i) = self.index.get(&*key) {
            // Duplicate start. Adopting the announced policy is safe only
            // while the machine is still empty; after decisions the
            // counters already embody the old thresholds.
            if let Some(slot) = self.slots[i].as_mut() {
                if slot.decisions == 0 {
                    slot.machine.reset(policy);
                } else {
                    self.stats.ignored += 1;
                }
            }
            return;
        }
        self.stats.deploys += 1;
        let obs = self.scope(&key, seed);
        obs.emit(
            "alerter.deploy",
            &[
                ("tau", Value::U64(policy.tau as u64)),
                ("tau_prime", Value::U64(policy.tau_prime as u64)),
            ],
        );
        self.insert_slot(key.into_owned(), obs, policy);
    }

    fn insert_slot(&mut self, key: String, obs: Obs, policy: RevocationConfig) -> usize {
        let (i, machine) = match self.free.pop() {
            Some((i, mut machine)) => {
                machine.reset(policy);
                (i, machine)
            }
            None => {
                self.slots.push(None);
                (self.slots.len() - 1, RevocationMachine::new(policy))
            }
        };
        self.slots[i] = Some(Slot {
            key: key.clone(),
            obs,
            machine,
            decisions: 0,
            revocations: 0,
        });
        self.index.insert(key, i);
        self.stats.peak_active = self.stats.peak_active.max(self.index.len());
        i
    }

    /// The slot for `key`, creating it implicitly (default policy) when
    /// an accusation outruns its deployment's start event.
    fn slot_of(&mut self, key: &str) -> usize {
        if let Some(&i) = self.index.get(key) {
            return i;
        }
        self.stats.implicit_deploys += 1;
        let obs = self.scope(key, None);
        obs.emit(
            "alerter.deploy",
            &[
                ("tau", Value::U64(self.cfg.default_policy.tau as u64)),
                (
                    "tau_prime",
                    Value::U64(self.cfg.default_policy.tau_prime as u64),
                ),
                ("implicit", Value::Bool(true)),
            ],
        );
        self.insert_slot(key.to_string(), obs, self.cfg.default_policy)
    }

    fn accuse(
        &mut self,
        deployment: Option<Cow<'_, str>>,
        reporter: u32,
        target: u32,
        source: Option<Cow<'_, str>>,
        recorded_outcome: Option<Cow<'_, str>>,
    ) {
        let key = deployment.as_deref().unwrap_or(DEFAULT_KEY);
        let verify = self.cfg.verify_recorded;
        let i = self.slot_of(key);
        let slot = self.slots[i].as_mut().expect("live slot");
        let target_id = secloc_crypto::NodeId(target);
        let computed = slot
            .machine
            .decide(secloc_crypto::NodeId(reporter), target_id);
        slot.decisions += 1;
        self.stats.decisions += 1;
        if slot.obs.sink_attached() {
            let mut fields = vec![
                ("reporter", Value::U64(reporter as u64)),
                ("target", Value::U64(target as u64)),
                ("outcome", Value::Str(computed.wire_label().to_string())),
            ];
            if let Some(source) = &source {
                fields.push(("source", Value::Str(source.to_string())));
            }
            slot.obs.emit("alerter.decision", &fields);
        }
        if computed == AlertOutcome::AcceptedAndRevoked {
            slot.revocations += 1;
            self.stats.revocations += 1;
            let distinct_accusers = slot.machine.suspiciousness(target_id);
            slot.obs.emit(
                "alerter.revocation",
                &[
                    ("target", Value::U64(target as u64)),
                    ("distinct_accusers", Value::U64(distinct_accusers as u64)),
                ],
            );
        }
        if verify {
            if let Some(recorded) = recorded_outcome {
                if recorded != computed.wire_label() {
                    self.stats.parity_mismatches += 1;
                    self.mismatches.push(format!(
                        "cell {key} decision #{}: recorded \"{recorded}\" vs computed \"{}\" \
                         (reporter {reporter}, target {target})",
                        self.slots[i].as_ref().expect("live slot").decisions,
                        computed.wire_label(),
                    ));
                    self.obs.emit(
                        "alerter.mismatch",
                        &[
                            ("cell", Value::Str(key.to_string())),
                            ("recorded", Value::Str(recorded.into_owned())),
                            ("computed", Value::Str(computed.wire_label().to_string())),
                        ],
                    );
                }
            }
        }
    }

    fn check_recorded_revocation(&mut self, deployment: Option<Cow<'_, str>>, target: u32) {
        if !self.cfg.verify_recorded {
            self.stats.ignored += 1;
            return;
        }
        let key = deployment.as_deref().unwrap_or(DEFAULT_KEY);
        let revoked = self.is_revoked(key, target);
        if !revoked {
            self.stats.parity_mismatches += 1;
            self.mismatches.push(format!(
                "cell {key}: batch path recorded a revocation of target {target} the \
                 machine did not issue"
            ));
            self.obs.emit(
                "alerter.mismatch",
                &[
                    ("cell", Value::Str(key.to_string())),
                    ("recorded", Value::Str("revocation".to_string())),
                    ("computed", Value::Str("not_revoked".to_string())),
                ],
            );
        }
    }

    fn retire(&mut self, deployment: Option<Cow<'_, str>>, cache: Option<Cow<'_, str>>) {
        let Some(key) = deployment else {
            self.stats.ignored += 1;
            return;
        };
        let Some(i) = self.index.remove(&*key) else {
            // End of a deployment we never saw an event for (e.g. a cache
            // hit in a recorded sweep: cell.start/cell.complete with no
            // decisions in between still creates a machine via
            // cell.start, so this branch is out-of-order input).
            self.stats.ignored += 1;
            return;
        };
        let slot = self.slots[i].take().expect("live slot");
        let ids = slot.machine.state().len() as u64;
        let machine = if ids <= RECYCLE_IDS_PER_DECISION.saturating_mul(slot.decisions) {
            slot.machine
        } else {
            RevocationMachine::new(self.cfg.default_policy)
        };
        self.free.push((i, machine));
        self.stats.retired += 1;
        slot.obs.emit(
            "alerter.retire",
            &[
                ("decisions", Value::U64(slot.decisions)),
                ("revocations", Value::U64(slot.revocations)),
            ],
        );
        self.summaries.push(DeploymentSummary {
            key: slot.key,
            decisions: slot.decisions,
            revocations: slot.revocations,
            cache: cache.map(Cow::into_owned),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alert_line(dep: &str, r: u32, t: u32) -> String {
        format!(r#"{{"kind":"alert","deployment":"{dep}","reporter":{r},"target":{t}}}"#)
    }

    #[test]
    fn demultiplexes_interleaved_deployments() {
        let mut a = Alerter::new(AlerterConfig::default(), Obs::disabled());
        // tau'=2: three distinct accusers revoke. Interleave two
        // deployments accusing the same node ids.
        for r in 1..=3 {
            a.ingest_line(&alert_line("east", r, 9));
            a.ingest_line(&alert_line("west", r, 9));
        }
        assert!(a.is_revoked("east", 9));
        assert!(a.is_revoked("west", 9));
        assert_eq!(a.stats().revocations, 2);
        assert_eq!(a.stats().implicit_deploys, 2);
        assert_eq!(a.stats().peak_active, 2);
    }

    #[test]
    fn deployment_keys_do_not_share_counters() {
        let mut a = Alerter::new(AlerterConfig::default(), Obs::disabled());
        // One accuser per deployment: never a quorum anywhere, even
        // though globally node 9 hears three accusations.
        a.ingest_line(&alert_line("a", 1, 9));
        a.ingest_line(&alert_line("b", 1, 9));
        a.ingest_line(&alert_line("c", 1, 9));
        assert_eq!(a.stats().revocations, 0);
        for dep in ["a", "b", "c"] {
            assert!(!a.is_revoked(dep, 9));
            assert_eq!(
                a.machine(dep)
                    .unwrap()
                    .suspiciousness(secloc_crypto::NodeId(9)),
                1
            );
        }
    }

    #[test]
    fn churn_reuses_slots_and_resets_state() {
        let mut a = Alerter::new(AlerterConfig::default(), Obs::disabled());
        a.ingest_line(&alert_line("x", 1, 9));
        a.ingest_line(r#"{"kind":"deploy.end","deployment":"x"}"#);
        assert_eq!(a.active_deployments(), 0);
        // Same key comes back: fresh machine, old accusation forgotten.
        a.ingest_line(&alert_line("x", 1, 9));
        assert_eq!(
            a.machine("x")
                .unwrap()
                .suspiciousness(secloc_crypto::NodeId(9)),
            1
        );
        assert_eq!(a.stats().retired, 1);
        // The slot was reused, not grown.
        assert_eq!(a.slots.len(), 1);
    }

    #[test]
    fn malformed_lines_are_survived_and_counted() {
        let mut a = Alerter::new(AlerterConfig::default(), Obs::disabled());
        a.ingest_line("garbage");
        a.ingest_line(r#"{"kind":"alert","reporter":1}"#);
        a.ingest_line("");
        a.ingest_line(&alert_line("d", 1, 2));
        let s = a.stats();
        assert_eq!(s.malformed, 2);
        assert_eq!(s.decisions, 1);
        assert_eq!(s.lines, 3); // blank line skipped
    }

    #[test]
    fn explicit_policy_overrides_default() {
        let mut a = Alerter::new(AlerterConfig::default(), Obs::disabled());
        a.ingest_line(r#"{"kind":"deploy.start","deployment":"d","tau":0,"tau_prime":0}"#);
        a.ingest_line(&alert_line("d", 1, 9));
        assert!(a.is_revoked("d", 9), "tau'=0 revokes on first accusation");
    }

    #[test]
    fn finish_summarizes_active_deployments() {
        let mut a = Alerter::new(AlerterConfig::default(), Obs::disabled());
        a.ingest_line(&alert_line("live", 1, 2));
        a.ingest_line(&alert_line("done", 1, 2));
        a.ingest_line(r#"{"kind":"deploy.end","deployment":"done"}"#);
        a.finish();
        let keys: Vec<&str> = a
            .deployment_summaries()
            .iter()
            .map(|s| s.key.as_str())
            .collect();
        assert_eq!(keys, vec!["done", "live"]);
    }

    #[test]
    fn verify_mode_flags_divergent_recordings() {
        let mut a = Alerter::new(
            AlerterConfig {
                verify_recorded: true,
                ..AlerterConfig::default()
            },
            Obs::disabled(),
        );
        // First accusation by reporter 1 is Accepted; a recording that
        // claims it was a duplicate diverges.
        a.ingest_line(
            r#"{"kind":"bs.alert","cell":"c","reporter":1,"target":9,"outcome":"ignored_duplicate"}"#,
        );
        assert_eq!(a.stats().parity_mismatches, 1);
        assert_eq!(a.mismatches().len(), 1);
        // A recorded revocation the machine never issued also diverges.
        a.ingest_line(r#"{"kind":"revocation","cell":"c","target":9}"#);
        assert_eq!(a.stats().parity_mismatches, 2);
    }

    #[test]
    fn trace_ids_adopt_sweep_cell_keys() {
        assert_eq!(trace_id_of("00000000c0ffee00"), 0xc0ffee00);
        assert_ne!(trace_id_of("field-7"), trace_id_of("field-8"));
    }
}
