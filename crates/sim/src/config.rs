//! Simulation configuration.

use secloc_faults::{FaultError, FaultPlan};
use secloc_geometry::Point2;
use std::fmt;

/// All parameters of one simulated deployment.
///
/// Defaults come from [`SimConfig::paper_default`]; every figure-bench
/// overrides just the swept parameter. The struct is plain data (public
/// fields) because experiments are configuration in the C-struct spirit:
/// callers override fields with struct-update syntax and call
/// [`SimConfig::validate`].
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Total sensor nodes `N` (beacons included).
    pub nodes: u32,
    /// Beacon nodes `N_b`.
    pub beacons: u32,
    /// Compromised beacon nodes `N_a` (a subset of the beacons).
    pub malicious: u32,
    /// Side of the square sensing field, in feet.
    pub field_side_ft: f64,
    /// Maximum radio communication range, in feet.
    pub range_ft: f64,
    /// Maximum distance-measurement error ε, in feet.
    pub max_ranging_error_ft: f64,
    /// Detecting IDs per beacon node (the paper's `m`).
    pub detecting_ids: u32,
    /// Base-station report cap τ.
    pub tau: u32,
    /// Base-station revocation threshold τ′.
    pub tau_prime: u32,
    /// Wormhole tap points, or `None` to disable the wormhole.
    pub wormhole: Option<(Point2, Point2)>,
    /// Wormhole-detector detection rate `p_d`.
    pub wormhole_detection_rate: f64,
    /// The attacker's acceptance probability `P` (see
    /// [`secloc_attack::BeaconStrategy::with_acceptance`]).
    pub attacker_p: f64,
    /// Magnitude of the location lie told in malicious signals, in feet.
    /// Must exceed the radio range for the fake-wormhole evasion to be
    /// coherent; the paper's attacker lies big (Fig. 1 shows lies across
    /// the field).
    pub lie_offset_ft: f64,
    /// Whether malicious beacons collude to spam alerts against benign
    /// beacons (§4 enables this).
    pub collusion: bool,
    /// Per-transmission loss rate on the multi-hop alert path to the base
    /// station. The paper assumes losses exist but are handled by
    /// "standard fault tolerant techniques (e.g., retransmission)".
    pub alert_loss_rate: f64,
    /// Retransmission budget per alert (1 = no retransmission).
    pub alert_retransmissions: u32,
    /// Injected degradations (burst loss, regional noise, clock drift,
    /// beacon churn). The default plan is empty and leaves the run
    /// bit-identical to a fault-free simulator; see `DESIGN.md` §10.
    pub faults: FaultPlan,
}

/// The placement-determining projection of a [`SimConfig`].
///
/// Two configurations with equal topology keys and equal seeds deploy the
/// *same physical network*: node positions, grid indices, the malicious
/// subset, per-beacon lie angles, and the fault schedules are all
/// byte-identical, because every RNG stream the deployment (and the fault
/// resolver) consumes is seeded and advanced by these fields alone — no
/// policy knob can reach them (DESIGN.md §12). The orchestrator groups
/// sweep cells by `(topology_key, seed)` and builds the deployment once
/// per group.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyKey {
    /// Total sensor nodes `N`.
    pub nodes: u32,
    /// Beacon nodes `N_b`.
    pub beacons: u32,
    /// Compromised beacon nodes `N_a` — topology, not policy: selecting
    /// the malicious subset and drawing its lie angles consumes the
    /// deployment RNG stream.
    pub malicious: u32,
    /// Side of the square sensing field, in feet.
    pub field_side_ft: f64,
    /// Maximum radio communication range, in feet.
    pub range_ft: f64,
    /// Wormhole tap points, or `None`.
    pub wormhole: Option<(Point2, Point2)>,
    /// Injected degradations; the drift/churn schedules they generate
    /// depend only on counts and the seed.
    pub faults: FaultPlan,
}

/// The detector/revocation-policy projection of a [`SimConfig`] — every
/// field *not* in `TopologyKey`. Policy knobs parameterize how the
/// deployed network is probed, judged, and revoked; none of them can
/// perturb node placement (see [`SimConfig::topology_key`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyKey {
    /// Maximum distance-measurement error ε, in feet.
    pub max_ranging_error_ft: f64,
    /// Detecting IDs per beacon node (`m`).
    pub detecting_ids: u32,
    /// Base-station report cap τ.
    pub tau: u32,
    /// Base-station revocation threshold τ′.
    pub tau_prime: u32,
    /// Wormhole-detector detection rate `p_d`.
    pub wormhole_detection_rate: f64,
    /// The attacker's acceptance probability `P`.
    pub attacker_p: f64,
    /// Magnitude of the location lie, in feet. Policy, not topology: the
    /// lie *direction* is drawn during deployment, but the stored angle is
    /// scaled by this magnitude only when the beacon replies.
    pub lie_offset_ft: f64,
    /// Whether malicious beacons collude to spam alerts.
    pub collusion: bool,
    /// Per-transmission loss rate on the alert path.
    pub alert_loss_rate: f64,
    /// Retransmission budget per alert.
    pub alert_retransmissions: u32,
}

/// The most spatial-index buckets a deployment may need. The index lays
/// a ⌈field / range⌉² grid of bucket headers (24 bytes each) over the
/// field, so this bounds them at ~100 MB; the paper's field needs 7².
const MAX_GRID_BUCKETS: u64 = 1 << 22;

/// Why a [`SimConfig`] was rejected by [`SimConfig::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `nodes` is zero.
    EmptyNetwork,
    /// `beacons` is zero: no node can be located, and the mean requester
    /// count N_c (requesters per beacon) is undefined.
    NoBeacons,
    /// The population must satisfy `malicious <= beacons <= nodes`.
    InconsistentCounts {
        /// Configured `malicious`.
        malicious: u32,
        /// Configured `beacons`.
        beacons: u32,
        /// Configured `nodes`.
        nodes: u32,
    },
    /// A length parameter is NaN or infinite.
    NonFinite {
        /// Which parameter.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// Field side and radio range must both be positive.
    NonPositiveGeometry {
        /// Configured field side, in feet.
        field_side_ft: f64,
        /// Configured radio range, in feet.
        range_ft: f64,
    },
    /// The spatial index would need more than 2²² buckets (⌈field /
    /// range⌉², ~100 MB of bucket headers): the field is too many radio
    /// ranges across.
    GridTooFine {
        /// Configured field side, in feet.
        field_side_ft: f64,
        /// Configured radio range, in feet.
        range_ft: f64,
    },
    /// The maximum ranging error ε cannot be negative.
    NegativeRangingError(f64),
    /// A probability parameter left `[0, 1]`.
    ProbabilityOutOfRange {
        /// Which parameter.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// `alert_retransmissions` is zero — alerts need at least one try.
    NoTransmissionBudget,
    /// The lie offset must exceed the radio range for the fake-wormhole
    /// evasion to be coherent.
    LieOffsetWithinRange {
        /// Configured lie offset, in feet.
        lie_offset_ft: f64,
        /// Configured radio range, in feet.
        range_ft: f64,
    },
    /// The fault plan is internally inconsistent.
    Faults(FaultError),
    /// A policy re-key attempted to change placement-determining fields
    /// (see [`SimConfig::topology_key`]).
    TopologyMismatch,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::EmptyNetwork => write!(f, "empty network"),
            ConfigError::NoBeacons => write!(f, "a network needs at least one beacon"),
            ConfigError::InconsistentCounts {
                malicious,
                beacons,
                nodes,
            } => write!(
                f,
                "need malicious <= beacons <= nodes, got {malicious}/{beacons}/{nodes}"
            ),
            ConfigError::NonFinite { name, value } => {
                write!(f, "{name} must be finite, got {value}")
            }
            ConfigError::NonPositiveGeometry {
                field_side_ft,
                range_ft,
            } => write!(
                f,
                "field and range must be positive, got {field_side_ft}/{range_ft}"
            ),
            ConfigError::GridTooFine {
                field_side_ft,
                range_ft,
            } => write!(
                f,
                "a {field_side_ft} ft field at {range_ft} ft range needs more than \
                 {MAX_GRID_BUCKETS} index buckets"
            ),
            ConfigError::NegativeRangingError(v) => {
                write!(f, "ranging error must be >= 0, got {v}")
            }
            ConfigError::ProbabilityOutOfRange { name, value } => {
                write!(f, "{name} must be in [0,1], got {value}")
            }
            ConfigError::NoTransmissionBudget => {
                write!(f, "alerts need at least one transmission attempt")
            }
            ConfigError::LieOffsetWithinRange {
                lie_offset_ft,
                range_ft,
            } => write!(
                f,
                "lie offset ({lie_offset_ft}) must exceed radio range ({range_ft}) so the \
                 declared location is plausibly wormhole-distant"
            ),
            ConfigError::Faults(e) => write!(f, "fault plan: {e}"),
            ConfigError::TopologyMismatch => {
                write!(f, "policy re-key would change the deployment topology")
            }
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::Faults(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FaultError> for ConfigError {
    fn from(e: FaultError) -> Self {
        ConfigError::Faults(e)
    }
}

impl SimConfig {
    /// The reconstructed §4 configuration (see `DESIGN.md` for the
    /// OCR-recovery of each constant).
    pub fn paper_default() -> Self {
        SimConfig {
            nodes: 1000,
            beacons: 100,
            malicious: 10,
            field_side_ft: 1000.0,
            range_ft: 150.0,
            max_ranging_error_ft: 10.0,
            detecting_ids: 8,
            tau: 2,
            tau_prime: 2,
            wormhole: Some((Point2::new(100.0, 100.0), Point2::new(800.0, 700.0))),
            wormhole_detection_rate: 0.9,
            attacker_p: 0.1,
            lie_offset_ft: 300.0,
            collusion: true,
            alert_loss_rate: 0.1,
            alert_retransmissions: 8,
            faults: FaultPlan::default(),
        }
    }

    /// The placement-determining half of this configuration; see
    /// `TopologyKey`.
    pub fn topology_key(&self) -> TopologyKey {
        TopologyKey {
            nodes: self.nodes,
            beacons: self.beacons,
            malicious: self.malicious,
            field_side_ft: self.field_side_ft,
            range_ft: self.range_ft,
            wormhole: self.wormhole,
            faults: self.faults.clone(),
        }
    }

    /// The detector/revocation-policy half of this configuration; see
    /// `PolicyKey`.
    pub fn policy_key(&self) -> PolicyKey {
        PolicyKey {
            max_ranging_error_ft: self.max_ranging_error_ft,
            detecting_ids: self.detecting_ids,
            tau: self.tau,
            tau_prime: self.tau_prime,
            wormhole_detection_rate: self.wormhole_detection_rate,
            attacker_p: self.attacker_p,
            lie_offset_ft: self.lie_offset_ft,
            collusion: self.collusion,
            alert_loss_rate: self.alert_loss_rate,
            alert_retransmissions: self.alert_retransmissions,
        }
    }

    /// Non-beacon sensor count `N − N_b`.
    pub fn non_beacons(&self) -> u32 {
        self.nodes - self.beacons
    }

    /// Benign beacon count `N_b − N_a`.
    pub fn benign_beacons(&self) -> u32 {
        self.beacons - self.malicious
    }

    /// Validates parameter consistency, reporting the first violation as a
    /// typed [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.nodes == 0 {
            return Err(ConfigError::EmptyNetwork);
        }
        if self.beacons == 0 {
            return Err(ConfigError::NoBeacons);
        }
        if !(self.malicious <= self.beacons && self.beacons <= self.nodes) {
            return Err(ConfigError::InconsistentCounts {
                malicious: self.malicious,
                beacons: self.beacons,
                nodes: self.nodes,
            });
        }
        for (name, value) in [
            ("field_side_ft", self.field_side_ft),
            ("range_ft", self.range_ft),
            ("max_ranging_error_ft", self.max_ranging_error_ft),
            ("lie_offset_ft", self.lie_offset_ft),
        ] {
            if !value.is_finite() {
                return Err(ConfigError::NonFinite { name, value });
            }
        }
        if !(self.field_side_ft > 0.0 && self.range_ft > 0.0) {
            return Err(ConfigError::NonPositiveGeometry {
                field_side_ft: self.field_side_ft,
                range_ft: self.range_ft,
            });
        }
        // The index's own sizing, in floating point so no ratio overflows.
        let per_side = (self.field_side_ft / self.range_ft).ceil().max(1.0);
        if per_side * per_side > MAX_GRID_BUCKETS as f64 {
            return Err(ConfigError::GridTooFine {
                field_side_ft: self.field_side_ft,
                range_ft: self.range_ft,
            });
        }
        if self.max_ranging_error_ft < 0.0 {
            return Err(ConfigError::NegativeRangingError(self.max_ranging_error_ft));
        }
        for (name, v) in [
            ("wormhole_detection_rate", self.wormhole_detection_rate),
            ("attacker_p", self.attacker_p),
            ("alert_loss_rate", self.alert_loss_rate),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(ConfigError::ProbabilityOutOfRange { name, value: v });
            }
        }
        if self.alert_retransmissions < 1 {
            return Err(ConfigError::NoTransmissionBudget);
        }
        if self.lie_offset_ft <= self.range_ft {
            return Err(ConfigError::LieOffsetWithinRange {
                lie_offset_ft: self.lie_offset_ft,
                range_ft: self.range_ft,
            });
        }
        self.faults.validate()?;
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid_and_matches_reconstruction() {
        let c = SimConfig::paper_default();
        c.validate().expect("paper default must validate");
        assert_eq!(c.nodes, 1000);
        assert_eq!(c.beacons, 100);
        assert_eq!(c.malicious, 10);
        assert_eq!(c.non_beacons(), 900);
        assert_eq!(c.benign_beacons(), 90);
        assert_eq!(c.wormhole.unwrap().0, Point2::new(100.0, 100.0));
        assert_eq!(c.wormhole.unwrap().1, Point2::new(800.0, 700.0));
        assert!(c.faults.is_empty(), "default plan injects nothing");
    }

    #[test]
    fn default_is_paper_default() {
        assert_eq!(SimConfig::default(), SimConfig::paper_default());
    }

    #[test]
    fn rejects_more_malicious_than_beacons() {
        let mut c = SimConfig::paper_default();
        c.malicious = c.beacons + 1;
        assert_eq!(
            c.validate(),
            Err(ConfigError::InconsistentCounts {
                malicious: 101,
                beacons: 100,
                nodes: 1000
            })
        );
    }

    #[test]
    fn rejects_more_beacons_than_nodes() {
        let c = SimConfig {
            beacons: 2000,
            ..SimConfig::paper_default()
        };
        assert_eq!(
            c.validate(),
            Err(ConfigError::InconsistentCounts {
                malicious: 10,
                beacons: 2000,
                nodes: 1000
            })
        );
    }

    #[test]
    fn rejects_small_lie() {
        let mut c = SimConfig::paper_default();
        c.lie_offset_ft = 50.0;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::LieOffsetWithinRange { .. })
        ));
    }

    #[test]
    fn rejects_bad_probability() {
        let mut c = SimConfig::paper_default();
        c.attacker_p = 2.0;
        assert_eq!(
            c.validate(),
            Err(ConfigError::ProbabilityOutOfRange {
                name: "attacker_p",
                value: 2.0
            })
        );
    }

    #[test]
    fn rejects_empty_network_and_zero_budget() {
        let mut c = SimConfig::paper_default();
        c.nodes = 0;
        c.beacons = 0;
        c.malicious = 0;
        assert_eq!(c.validate(), Err(ConfigError::EmptyNetwork));
        let mut c = SimConfig::paper_default();
        c.alert_retransmissions = 0;
        assert_eq!(c.validate(), Err(ConfigError::NoTransmissionBudget));
    }

    #[test]
    fn rejects_a_network_without_beacons() {
        // N_c would be 0 / 0 = NaN, which checkpoints cannot encode and
        // which is unequal to itself in the result cache.
        let mut c = SimConfig::paper_default();
        c.beacons = 0;
        c.malicious = 0;
        assert_eq!(c.validate(), Err(ConfigError::NoBeacons));
        c.beacons = 1;
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn rejects_non_finite_lengths() {
        // Each of these used to pass validation and then panic inside the
        // run: in the signal detector (ε), the location reference (lie
        // offset) or the field constructor (field side).
        type Set = fn(&mut SimConfig, f64);
        let fields: [(&str, Set); 4] = [
            ("field_side_ft", |c, v| c.field_side_ft = v),
            ("range_ft", |c, v| c.range_ft = v),
            ("max_ranging_error_ft", |c, v| c.max_ranging_error_ft = v),
            ("lie_offset_ft", |c, v| c.lie_offset_ft = v),
        ];
        for (name, set) in fields {
            for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut c = SimConfig::paper_default();
                set(&mut c, value);
                let err = c.validate().expect_err(name);
                assert!(
                    matches!(err, ConfigError::NonFinite { name: n, value: v }
                        if n == name && v.to_bits() == value.to_bits()),
                    "{name} = {value}: {err:?}"
                );
                assert!(err.to_string().contains("must be finite"));
            }
        }
    }

    #[test]
    fn rejects_a_grid_past_the_bucket_budget() {
        // 300 ft at 0.001 ft range asks the index for 9·10¹⁰ bucket
        // headers (2.16 TB), an allocation that aborts the process. Only
        // `validate` runs here: no deployment, no grid.
        let mut c = SimConfig {
            field_side_ft: 300.0,
            range_ft: 0.001,
            lie_offset_ft: 300.0,
            ..SimConfig::paper_default()
        };
        assert_eq!(
            c.validate(),
            Err(ConfigError::GridTooFine {
                field_side_ft: 300.0,
                range_ft: 0.001,
            })
        );
        assert!(c.validate().unwrap_err().to_string().contains("buckets"));
        // 2048 buckets a side is exactly the budget; one range finer is
        // past it.
        c.range_ft = 300.0 / 2048.0;
        assert_eq!(c.validate(), Ok(()));
        c.range_ft = 300.0 / 2049.0;
        assert!(matches!(c.validate(), Err(ConfigError::GridTooFine { .. })));
    }

    #[test]
    fn rejects_invalid_fault_plan() {
        let mut c = SimConfig::paper_default();
        c.faults = secloc_faults::FaultPlan::default().with_churn(
            secloc_faults::ChurnSpec::random(0.5, 0.0), // bad downtime
        );
        assert!(matches!(c.validate(), Err(ConfigError::Faults(_))));
        // The fault error is carried as the source.
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("fault plan"));
    }

    #[test]
    fn keys_partition_the_config() {
        // Every SimConfig field must land in exactly one key. The struct
        // literal below fails to compile when a field is added without
        // classifying it, and the equality fails if a key stops carrying
        // a field it claims.
        let c = SimConfig::paper_default();
        let t = c.topology_key();
        let p = c.policy_key();
        let rebuilt = SimConfig {
            nodes: t.nodes,
            beacons: t.beacons,
            malicious: t.malicious,
            field_side_ft: t.field_side_ft,
            range_ft: t.range_ft,
            wormhole: t.wormhole,
            faults: t.faults.clone(),
            max_ranging_error_ft: p.max_ranging_error_ft,
            detecting_ids: p.detecting_ids,
            tau: p.tau,
            tau_prime: p.tau_prime,
            wormhole_detection_rate: p.wormhole_detection_rate,
            attacker_p: p.attacker_p,
            lie_offset_ft: p.lie_offset_ft,
            collusion: p.collusion,
            alert_loss_rate: p.alert_loss_rate,
            alert_retransmissions: p.alert_retransmissions,
        };
        assert_eq!(rebuilt, c);
    }

    #[test]
    fn policy_changes_leave_the_topology_key_alone() {
        let base = SimConfig::paper_default();
        let mut varied = base.clone();
        varied.tau = 7;
        varied.tau_prime = 1;
        varied.max_ranging_error_ft = 25.0;
        varied.detecting_ids = 3;
        varied.wormhole_detection_rate = 0.4;
        varied.attacker_p = 0.9;
        varied.lie_offset_ft = 500.0;
        varied.collusion = false;
        varied.alert_loss_rate = 0.3;
        varied.alert_retransmissions = 2;
        assert_eq!(base.topology_key(), varied.topology_key());
        assert_ne!(base.policy_key(), varied.policy_key());

        let mut moved = base.clone();
        moved.range_ft = 200.0;
        assert_ne!(base.topology_key(), moved.topology_key());
    }

    #[test]
    fn errors_render_the_classic_messages() {
        // Substrings older panic-based callers grepped for stay stable.
        let mut c = SimConfig::paper_default();
        c.malicious = 200;
        assert!(c
            .validate()
            .unwrap_err()
            .to_string()
            .contains("malicious <= beacons"));
        c = SimConfig::paper_default();
        c.alert_loss_rate = -0.1;
        assert!(c.validate().unwrap_err().to_string().contains("in [0,1]"));
        c = SimConfig::paper_default();
        c.lie_offset_ft = 10.0;
        assert!(c.validate().unwrap_err().to_string().contains("lie offset"));
    }
}
