//! The revocation protocol state machine (§3.1), pure and I/O-free.
//!
//! [`RevocationMachine`] is the *single* implementation of the paper's
//! τ/τ′ accusation counting in the workspace. `secloc-sim`'s runner drives
//! one machine per probe stage and [`reset`](RevocationMachine::reset)s it
//! per finish, its `distributed` module, which has no base station, runs
//! one per deployment and resets it per sensor for the local blacklists,
//! and the streaming `secloc-alerter` service keeps one per deployment;
//! all three route every decision through
//! [`decide`](RevocationMachine::decide), so the spam/quorum regression
//! suite in `revocation.rs` covers them at once.
//!
//! The machine is deliberately austere:
//!
//! - **No clocks, RNGs, or I/O.** `decide` is a pure function of the
//!   current state and the accusation; two machines fed the same
//!   accusations in the same order are equal. That purity is what makes
//!   stream/batch replay parity provable rather than probable.
//! - **`no_std`-friendly.** Only `core` and `alloc` types appear in the
//!   API and the implementation (`Vec`, `String`); nothing here needs an
//!   operating system, so the machine can be lifted onto a mote-class
//!   target unchanged.
//! - **Explicit, serializable state.** [`MachineState`] exposes the
//!   counters, distinct-accuser sets, and revocation flags as plain
//!   fields, and [`RevocationMachine::to_wire`] /
//!   [`RevocationMachine::from_wire`] give a canonical textual snapshot
//!   so a service can checkpoint thousands of machines and resume them
//!   byte-identically.

use crate::revocation::{AlertOutcome, RevocationConfig};
use core::fmt;
use secloc_crypto::NodeId;

/// The machine's complete mutable state, as plain data.
///
/// All four tables are dense, indexed by `NodeId.0` (the `IdSpace`
/// convention keeps node IDs compact), and grown on demand; an ID beyond
/// the current length reads as "no state yet". Equality over two states is
/// *semantic*: trailing default entries are ignored, so a machine that
/// merely grew its tables compares equal to one that never saw the high
/// IDs.
#[derive(Debug, Clone, Default)]
pub struct MachineState {
    /// Per reporter: accepted alerts filed so far (the τ budget).
    pub report_counters: Vec<u32>,
    /// Per target: distinct reporters whose accusation was accepted
    /// (the τ′ evidence counter).
    pub alert_counters: Vec<u32>,
    /// Per reporter: the targets whose accusation the station accepted.
    /// Bounded by the τ + 1 report budget, so a linear scan is the fast
    /// duplicate filter.
    pub accused: Vec<Vec<NodeId>>,
    /// Per node: whether it has been revoked.
    pub revoked: Vec<bool>,
}

impl MachineState {
    fn ensure(&mut self, id: NodeId) {
        let need = id.0 as usize + 1;
        if self.report_counters.len() < need {
            self.report_counters.resize(need, 0);
            self.alert_counters.resize(need, 0);
            self.accused.resize(need, Vec::new());
            self.revoked.resize(need, false);
        }
    }

    /// Highest node index with allocated state, plus one.
    pub fn len(&self) -> usize {
        self.report_counters.len()
    }

    /// Whether the machine has seen no node at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether node `i` holds any non-default state.
    fn is_live(&self, i: usize) -> bool {
        self.report_counters[i] != 0
            || self.alert_counters[i] != 0
            || !self.accused[i].is_empty()
            || self.revoked[i]
    }

    /// Normalizes the four tables to a common length (the longest wins),
    /// making hand-built states safe to run.
    fn normalize(mut self) -> Self {
        let len = self
            .report_counters
            .len()
            .max(self.alert_counters.len())
            .max(self.accused.len())
            .max(self.revoked.len());
        self.report_counters.resize(len, 0);
        self.alert_counters.resize(len, 0);
        self.accused.resize(len, Vec::new());
        self.revoked.resize(len, false);
        self
    }
}

impl PartialEq for MachineState {
    fn eq(&self, other: &Self) -> bool {
        let len = self.len().max(other.len());
        for i in 0..len {
            let a = (
                self.report_counters.get(i).copied().unwrap_or(0),
                self.alert_counters.get(i).copied().unwrap_or(0),
                self.accused.get(i).map(Vec::as_slice).unwrap_or(&[]),
                self.revoked.get(i).copied().unwrap_or(false),
            );
            let b = (
                other.report_counters.get(i).copied().unwrap_or(0),
                other.alert_counters.get(i).copied().unwrap_or(0),
                other.accused.get(i).map(Vec::as_slice).unwrap_or(&[]),
                other.revoked.get(i).copied().unwrap_or(false),
            );
            if a != b {
                return false;
            }
        }
        true
    }
}

impl Eq for MachineState {}

/// Why a wire-format snapshot failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateWireError {
    /// The `rv1 tau=… tau_prime=…` header is missing or malformed.
    Header,
    /// Node record number `.0` (0-based, after the header) is malformed.
    Record(usize),
}

impl fmt::Display for StateWireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateWireError::Header => write!(f, "malformed rv1 header"),
            StateWireError::Record(i) => write!(f, "malformed node record #{i}"),
        }
    }
}

impl std::error::Error for StateWireError {}

/// The base-station revocation scheme of §3.1 as a pure state machine.
///
/// "The base station maintains an alert counter and a report counter for
/// each beacon node. ... Note that the alert from a revoked detecting node
/// will still be accepted ... The purpose is to prevent malicious beacon
/// nodes from reporting a lot of alerts against benign beacon nodes and
/// having these benign beacon nodes revoked before they can report any
/// alert."
///
/// See the [module docs](self) for the purity contract. The check order in
/// [`decide`](RevocationMachine::decide) is the paper's: report budget →
/// target already revoked → duplicate → accept. Two semantic points in the
/// §3.1 scheme, audited against the paper text:
///
/// - **Distinct accusers.** The alert counter tracks *distinct*
///   `(reporter, target)` accusations; a reporter repeating an accusation
///   the station already accepted is [`AlertOutcome::IgnoredDuplicate`]
///   and consumes no budget. §3.2's damage analysis is built on each
///   colluder contributing at most one unit of evidence per victim
///   (`N_a (τ+1) / (τ′+1)` victims total): if repeats counted, a single
///   malicious reporter with budget `τ + 1 ≥ τ′ + 1` (true at the paper's
///   `(2, 2)` operating point) could revoke any benign beacon alone and
///   the bound would collapse to revoking `τ + 1` ≈ everything it aims at.
///   The distributed scheme (`secloc-sim`'s `distributed` module) decides
///   through this machine too, so its sensors count distinct accusers.
/// - **Revoked reporters are still heard.** The budget check comes first
///   and nothing else filters the reporter, exactly as the paper orders
///   it: revoking a detector must not silence it, or colluders would spend
///   a quorum revoking each benign detector *first* and then poison
///   sensors unaccused. The τ cap already bounds what a revoked (hence
///   suspect) reporter can do with that freedom.
///
/// # Examples
///
/// ```
/// use secloc_core::{AlertOutcome, RevocationConfig, RevocationMachine};
/// use secloc_crypto::NodeId;
///
/// let mut m = RevocationMachine::new(RevocationConfig { tau: 2, tau_prime: 1 });
/// m.decide(NodeId(1), NodeId(9));
/// let out = m.decide(NodeId(2), NodeId(9));
/// assert_eq!(out, AlertOutcome::AcceptedAndRevoked);
/// assert!(m.is_revoked(NodeId(9)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RevocationMachine {
    config: RevocationConfig,
    state: MachineState,
}

impl RevocationMachine {
    /// A fresh machine with the given thresholds.
    pub fn new(config: RevocationConfig) -> Self {
        RevocationMachine {
            config,
            state: MachineState::default(),
        }
    }

    /// A fresh machine whose tables already cover node IDs `0..nodes`, so
    /// [`decide`](RevocationMachine::decide) on those IDs never grows a
    /// table. It equals [`RevocationMachine::new`] under the semantic
    /// equality and writes the same `rv1`.
    pub fn with_nodes(config: RevocationConfig, nodes: usize) -> Self {
        RevocationMachine {
            config,
            state: MachineState {
                report_counters: vec![0; nodes],
                alert_counters: vec![0; nodes],
                accused: vec![Vec::new(); nodes],
                revoked: vec![false; nodes],
            },
        }
    }

    /// Returns the machine to a fresh one under `config`, keeping every
    /// table and accused list it has grown: afterwards it decides, compares
    /// and serializes exactly as `RevocationMachine::new(config)` would. A
    /// caller that arbitrates many alert streams over one ID space (the
    /// sim's finishes of one probe stage) resets one machine instead of
    /// building one per stream.
    pub fn reset(&mut self, config: RevocationConfig) {
        self.config = config;
        let state = &mut self.state;
        state.report_counters.fill(0);
        state.alert_counters.fill(0);
        state.accused.iter_mut().for_each(Vec::clear);
        state.revoked.fill(false);
    }

    /// Resumes a machine from explicit state (e.g. a decoded snapshot).
    /// Tables of unequal length are normalized to the longest.
    pub fn from_state(config: RevocationConfig, state: MachineState) -> Self {
        RevocationMachine {
            config,
            state: state.normalize(),
        }
    }

    /// The thresholds in force.
    pub fn config(&self) -> RevocationConfig {
        self.config
    }

    /// The current state, readable as plain data.
    pub fn state(&self) -> &MachineState {
        &self.state
    }

    /// Arbitrates one accusation by `reporter` against `target` and
    /// returns the verdict. This is the machine's only input; it allocates
    /// only to grow a table or a reporter's accused list.
    pub fn decide(&mut self, reporter: NodeId, target: NodeId) -> AlertOutcome {
        // Order of checks follows the paper: report budget first, then
        // target-revoked; a revoked *reporter* is still heard (see the
        // type docs for the audit of both points). Only then is
        // the duplicate filter consulted, so an over-budget reporter
        // repeating itself reads as budget exhaustion, not as a duplicate.
        self.state.ensure(reporter);
        self.state.ensure(target);
        let r = reporter.0 as usize;
        let t = target.0 as usize;
        if self.state.report_counters[r] > self.config.tau {
            return AlertOutcome::IgnoredReporterBudget;
        }
        if self.state.revoked[t] {
            return AlertOutcome::IgnoredTargetRevoked;
        }
        if self.state.accused[r].contains(&target) {
            return AlertOutcome::IgnoredDuplicate;
        }
        self.state.accused[r].push(target);
        self.state.report_counters[r] += 1;
        self.state.alert_counters[t] += 1;
        if self.state.alert_counters[t] > self.config.tau_prime {
            self.state.revoked[t] = true;
            AlertOutcome::AcceptedAndRevoked
        } else {
            AlertOutcome::Accepted
        }
    }

    /// Whether `node` has been revoked.
    pub fn is_revoked(&self, node: NodeId) -> bool {
        self.state
            .revoked
            .get(node.0 as usize)
            .copied()
            .unwrap_or(false)
    }

    /// All revoked nodes, sorted by ID.
    pub fn revoked_nodes(&self) -> Vec<NodeId> {
        self.state
            .revoked
            .iter()
            .enumerate()
            .filter(|(_, &r)| r)
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// Current alert counter of `node`: how many *distinct* reporters have
    /// had an accusation against it accepted.
    pub fn suspiciousness(&self, node: NodeId) -> u32 {
        self.state
            .alert_counters
            .get(node.0 as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Accepted alerts filed by `node` so far (its spent τ budget).
    pub fn reports_spent(&self, node: NodeId) -> u32 {
        self.state
            .report_counters
            .get(node.0 as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Canonical single-line snapshot: the `rv1` header with the
    /// thresholds, then one `id:reports:alerts:revoked:t1,t2,…` record per
    /// node holding non-default state. `to_wire → from_wire` round-trips
    /// to an equal machine, and equal machines produce identical strings.
    pub fn to_wire(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(32 + 16 * self.state.len());
        let _ = write!(
            out,
            "rv1 tau={} tau_prime={}",
            self.config.tau, self.config.tau_prime
        );
        for i in 0..self.state.len() {
            if !self.state.is_live(i) {
                continue;
            }
            let _ = write!(
                out,
                " {i}:{}:{}:{}:",
                self.state.report_counters[i],
                self.state.alert_counters[i],
                u8::from(self.state.revoked[i]),
            );
            for (j, t) in self.state.accused[i].iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}", t.0);
            }
        }
        out
    }

    /// Parses a [`to_wire`](RevocationMachine::to_wire) snapshot back into
    /// a machine.
    pub fn from_wire(s: &str) -> Result<Self, StateWireError> {
        let mut tokens = s.split_ascii_whitespace();
        if tokens.next() != Some("rv1") {
            return Err(StateWireError::Header);
        }
        let kv = |tok: Option<&str>, key: &str| -> Result<u32, StateWireError> {
            tok.and_then(|t| t.strip_prefix(key))
                .and_then(|v| v.parse().ok())
                .ok_or(StateWireError::Header)
        };
        let tau = kv(tokens.next(), "tau=")?;
        let tau_prime = kv(tokens.next(), "tau_prime=")?;
        let mut state = MachineState::default();
        for (rec_no, rec) in tokens.enumerate() {
            let err = StateWireError::Record(rec_no);
            let mut parts = rec.splitn(5, ':');
            let mut next_u32 = || -> Result<u32, StateWireError> {
                parts.next().and_then(|p| p.parse().ok()).ok_or(err.clone())
            };
            let id = next_u32()?;
            let reports = next_u32()?;
            let alerts = next_u32()?;
            let revoked = match next_u32()? {
                0 => false,
                1 => true,
                _ => return Err(err),
            };
            let accused_part = parts.next().ok_or(err.clone())?;
            let mut accused = Vec::new();
            if !accused_part.is_empty() {
                for t in accused_part.split(',') {
                    accused.push(NodeId(t.parse().map_err(|_| err.clone())?));
                }
            }
            state.ensure(NodeId(id));
            let i = id as usize;
            state.report_counters[i] = reports;
            state.alert_counters[i] = alerts;
            state.revoked[i] = revoked;
            state.accused[i] = accused;
        }
        Ok(RevocationMachine::from_state(
            RevocationConfig { tau, tau_prime },
            state,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accuse(m: &mut RevocationMachine, r: u32, t: u32) -> AlertOutcome {
        m.decide(NodeId(r), NodeId(t))
    }

    #[test]
    fn revocation_carries_the_quorum() {
        let cfg = RevocationConfig {
            tau: 10,
            tau_prime: 2,
        };
        let mut m = RevocationMachine::new(cfg);
        assert_eq!(accuse(&mut m, 1, 50), AlertOutcome::Accepted);
        assert_eq!(accuse(&mut m, 2, 50), AlertOutcome::Accepted);
        assert_eq!(accuse(&mut m, 3, 50), AlertOutcome::AcceptedAndRevoked);
        assert_eq!(m.suspiciousness(NodeId(50)), cfg.tau_prime + 1);
    }

    #[test]
    fn determinism_two_machines_same_stream_are_equal() {
        let cfg = RevocationConfig {
            tau: 3,
            tau_prime: 1,
        };
        let stream: Vec<(u32, u32)> = (0..40).map(|i| (i % 7, 50 + i % 5)).collect();
        let mut a = RevocationMachine::new(cfg);
        let mut b = RevocationMachine::new(cfg);
        for &(r, t) in &stream {
            accuse(&mut a, r, t);
        }
        for &(r, t) in &stream {
            accuse(&mut b, r, t);
        }
        assert_eq!(a, b);
        assert_eq!(a.to_wire(), b.to_wire());
    }

    #[test]
    fn wire_round_trip_preserves_machine() {
        let mut m = RevocationMachine::new(RevocationConfig {
            tau: 2,
            tau_prime: 1,
        });
        for (r, t) in [(1, 9), (2, 9), (3, 9), (1, 4), (7, 8)] {
            accuse(&mut m, r, t);
        }
        let wire = m.to_wire();
        let back = RevocationMachine::from_wire(&wire).expect("round trip");
        assert_eq!(back, m);
        assert_eq!(back.to_wire(), wire);
        // The resumed machine keeps deciding identically.
        let mut resumed = back;
        assert_eq!(
            resumed.decide(NodeId(2), NodeId(9)),
            m.clone().decide(NodeId(2), NodeId(9))
        );
    }

    #[test]
    fn empty_machine_wire_is_header_only() {
        let m = RevocationMachine::new(RevocationConfig::paper_default());
        assert_eq!(m.to_wire(), "rv1 tau=2 tau_prime=2");
        assert_eq!(
            RevocationMachine::from_wire("rv1 tau=2 tau_prime=2").unwrap(),
            m
        );
    }

    #[test]
    fn malformed_wire_is_rejected() {
        for bad in [
            "",
            "rv2 tau=2 tau_prime=2",
            "rv1 tau=x tau_prime=2",
            "rv1 tau=2",
            "rv1 tau=2 tau_prime=2 1:2:3",
            "rv1 tau=2 tau_prime=2 1:2:3:7:",
            "rv1 tau=2 tau_prime=2 a:0:0:0:",
            "rv1 tau=2 tau_prime=2 1:0:0:0:x,y",
        ] {
            assert!(
                RevocationMachine::from_wire(bad).is_err(),
                "accepted malformed snapshot {bad:?}"
            );
        }
    }

    #[test]
    fn from_state_normalizes_ragged_tables() {
        let state = MachineState {
            report_counters: vec![1],
            alert_counters: vec![0, 0, 3],
            accused: vec![vec![NodeId(2)]],
            revoked: Vec::new(),
        };
        let mut m = RevocationMachine::from_state(
            RevocationConfig {
                tau: 2,
                tau_prime: 2,
            },
            state,
        );
        // Must not panic on any index the tables half-cover.
        assert_eq!(
            m.decide(NodeId(0), NodeId(2)),
            AlertOutcome::IgnoredDuplicate
        );
        assert_eq!(m.decide(NodeId(5), NodeId(1)), AlertOutcome::Accepted);
        assert_eq!(
            m.decide(NodeId(5), NodeId(2)),
            AlertOutcome::AcceptedAndRevoked
        );
        assert_eq!(m.suspiciousness(NodeId(2)), 4);
    }

    #[test]
    fn state_equality_ignores_trailing_defaults() {
        let mut a = RevocationMachine::new(RevocationConfig::paper_default());
        accuse(&mut a, 1, 2);
        let mut grown = a.state().clone();
        grown.report_counters.resize(100, 0);
        grown.alert_counters.resize(100, 0);
        grown.accused.resize(100, Vec::new());
        grown.revoked.resize(100, false);
        assert_eq!(&grown, a.state());
    }
}
