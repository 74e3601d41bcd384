//! Deployment: positions, roles and adversary placement.

use crate::SimConfig;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use secloc_attack::{BeaconStrategy, CompromisedBeacon, Wormhole};
use secloc_crypto::{prf, IdSpace, NodeId};
use secloc_geometry::{deploy, Field, GridIndex, Point2, Vector2};
use secloc_radio::Cycles;
use std::sync::{Arc, OnceLock};

/// What a deployed node is (omniscient view).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An honest beacon node.
    BenignBeacon,
    /// A compromised beacon node.
    MaliciousBeacon,
    /// A regular (non-beacon) sensor node.
    Sensor,
}

/// One instantiated network: who is where, who is compromised, and the
/// spatial index answering radio-range queries.
///
/// Node indexing convention (matching [`IdSpace`]): beacons occupy indices
/// `0..beacons`, sensors `beacons..nodes`. Malicious beacons are a random
/// subset of the beacon indices.
#[derive(Debug, Clone)]
pub struct Deployment {
    config: SimConfig,
    ids: IdSpace,
    // The placement-determined state, shared across policy re-keys (see
    // `with_policy`): everything in here is a pure function of
    // `(config.topology_key(), seed)`.
    topology: Arc<Topology>,
    compromised: Vec<Option<CompromisedBeacon>>,
    seed: u64,
}

/// The placement-determined half of a deployment: node positions (inside
/// the spatial indices), roles, the malicious subset with its lie angles,
/// and the wormhole geometry. Immutable once built, and shared behind an
/// `Arc` by every policy variant of the same `(topology_key, seed)` cell.
#[derive(Debug)]
pub(crate) struct Topology {
    pub(crate) index: GridIndex,
    // A second, much smaller index over beacons only (indices align with
    // node indices 0..beacons). "Which beacons can this node hear?" is the
    // hottest query in a run and scans ~10× fewer candidates here than on
    // the full index.
    beacon_index: GridIndex,
    // Benign beacons that sit in a wormhole mouth, with the exit each one's
    // signal emerges from — ascending by beacon index. `Wormhole::exit_for`
    // is pure geometry over static positions, so it is computed once.
    wormhole_exits: Vec<(u32, Point2)>,
    kinds: Vec<NodeKind>,
    // The compromised beacons in selection order, with the lie *angle*
    // drawn for each during generation. The angle (an RNG draw) is
    // topology; the lie magnitude it is scaled by is policy, so
    // `CompromisedBeacon`s are rebuilt per policy re-key from these.
    malicious_set: Vec<u32>,
    lie_angles: Vec<f64>,
    wormhole: Option<Wormhole>,
    seed: u64,
    // Topology-pure derived statistic, computed at most once per topology
    // no matter how many policy variants share it.
    mean_requesters: OnceLock<f64>,
    // CSR cache of each node's audible-beacon list (direct neighbours from
    // the beacon index, ascending, then wormhole-carried benign beacons
    // ascending): node `i` hears `audible_targets[audible_offsets[i] ..
    // audible_offsets[i + 1]]`. Every run queries each node exactly once
    // per phase, so precomputing here moves the entire query cost out of
    // the timed phases and shares it across policy variants.
    audible_offsets: Vec<u32>,
    audible_targets: Vec<u32>,
}

impl Deployment {
    /// Deploys a network per `config`, fully determined by `seed`.
    ///
    /// # Panics
    ///
    /// Panics when `config` fails [`SimConfig::validate`]; use
    /// [`Deployment::try_generate`] to handle the error instead.
    pub fn generate(config: SimConfig, seed: u64) -> Self {
        match Self::try_generate(config, seed) {
            Ok(d) => d,
            Err(e) => panic!("invalid SimConfig: {e}"),
        }
    }

    /// Fallible variant of [`Deployment::generate`], reporting an invalid
    /// configuration as a typed [`crate::ConfigError`].
    pub fn try_generate(config: SimConfig, seed: u64) -> Result<Self, crate::ConfigError> {
        config.validate()?;
        let field = Field::square(config.field_side_ft);
        let mut rng = StdRng::seed_from_u64(subseed(seed, b"deploy"));
        let positions = deploy::uniform_with(&field, config.nodes as usize, &mut rng);
        let index = GridIndex::build(&field, config.range_ft, positions.iter().copied());
        let beacon_index = GridIndex::build(
            &field,
            config.range_ft,
            positions.iter().take(config.beacons as usize).copied(),
        );

        // Pick the compromised subset of beacons.
        let mut beacon_indices: Vec<u32> = (0..config.beacons).collect();
        beacon_indices.shuffle(&mut rng);
        let malicious_set: Vec<u32> = beacon_indices
            .into_iter()
            .take(config.malicious as usize)
            .collect();

        let mut kinds = vec![NodeKind::Sensor; config.nodes as usize];
        for b in 0..config.beacons {
            kinds[b as usize] = NodeKind::BenignBeacon;
        }
        let mut lie_angles = Vec::with_capacity(malicious_set.len());
        for &b in &malicious_set {
            kinds[b as usize] = NodeKind::MaliciousBeacon;
            lie_angles.push(rng.gen_range(0.0..std::f64::consts::TAU));
        }

        let wormhole = config
            .wormhole
            .map(|(a, b)| Wormhole::new(a, b, Cycles::ZERO));
        let wormhole_exits = match &wormhole {
            Some(w) => (0..config.beacons)
                .filter(|&v| kinds[v as usize] == NodeKind::BenignBeacon)
                .filter_map(|v| {
                    w.exit_for(positions[v as usize], config.range_ft)
                        .map(|exit| (v, exit))
                })
                .collect(),
            None => Vec::new(),
        };

        // Precompute every node's audible-beacon list. The contents are a
        // pure function of the topology (positions, roles, wormhole, radio
        // range — all TopologyKey fields), so the cache is shared by every
        // policy re-key and must match what an uncached query would return
        // (the `audible_cache_matches_direct_queries` test is the oracle).
        let mut audible_offsets = Vec::with_capacity(config.nodes as usize + 1);
        let mut audible_targets: Vec<u32> = Vec::new();
        let mut scratch: Vec<u32> = Vec::new();
        audible_offsets.push(0u32);
        for i in 0..config.nodes {
            let my_pos = positions[i as usize];
            scratch.clear();
            scratch.extend(
                beacon_index
                    .within_iter(my_pos, config.range_ft)
                    .map(|v| v as u32),
            );
            scratch.sort_unstable();
            scratch.retain(|&v| v != i);
            for &(v, exit) in &wormhole_exits {
                if v == i {
                    continue;
                }
                let vp = positions[v as usize];
                if my_pos.distance(vp) > config.range_ft && exit.distance(my_pos) <= config.range_ft
                {
                    scratch.push(v);
                }
            }
            audible_targets.extend_from_slice(&scratch);
            audible_offsets.push(audible_targets.len() as u32);
        }

        let topology = Arc::new(Topology {
            index,
            beacon_index,
            wormhole_exits,
            kinds,
            malicious_set,
            lie_angles,
            wormhole,
            seed,
            mean_requesters: OnceLock::new(),
            audible_offsets,
            audible_targets,
        });
        Ok(Self::from_parts(topology, config))
    }

    /// Attaches the policy-determined state (compromised-beacon behaviour,
    /// ID space) to a topology. Both `try_generate` and `with_policy` end
    /// here, so the two construction routes are one code path and cannot
    /// drift apart.
    fn from_parts(topology: Arc<Topology>, config: SimConfig) -> Deployment {
        let seed = topology.seed;
        let strategy = BeaconStrategy::with_acceptance(config.attacker_p);
        let mut compromised: Vec<Option<CompromisedBeacon>> = vec![None; config.nodes as usize];
        for (&b, &angle) in topology.malicious_set.iter().zip(&topology.lie_angles) {
            let offset = Vector2::from_angle(angle) * config.lie_offset_ft;
            compromised[b as usize] = Some(CompromisedBeacon::new(
                NodeId(b),
                topology.index.position(b as usize),
                offset,
                strategy,
                subseed(seed, &[b"beacon".as_slice(), &b.to_le_bytes()].concat()),
            ));
        }
        let ids = IdSpace::new(config.beacons, config.non_beacons(), config.detecting_ids);
        Deployment {
            config,
            ids,
            topology,
            compromised,
            seed,
        }
    }

    /// Re-keys this deployment under a new policy, sharing the immutable
    /// topology behind the `Arc` instead of regenerating it. The result is
    /// bit-identical to `Deployment::generate(config, self.seed())` — the
    /// equivalence suite holds this as an invariant — but skips placement,
    /// index construction, and the RNG work entirely.
    ///
    /// # Errors
    ///
    /// [`crate::ConfigError::TopologyMismatch`] when `config` differs from
    /// this deployment's config in any placement-determining field, plus
    /// the usual validation errors.
    pub fn with_policy(&self, config: SimConfig) -> Result<Deployment, crate::ConfigError> {
        config.validate()?;
        if config.topology_key() != self.config.topology_key() {
            return Err(crate::ConfigError::TopologyMismatch);
        }
        Ok(Self::from_parts(Arc::clone(&self.topology), config))
    }

    /// Whether `self` and `other` share one topology allocation (as
    /// produced by [`Deployment::with_policy`] or `Clone`).
    pub fn shares_topology_with(&self, other: &Deployment) -> bool {
        Arc::ptr_eq(&self.topology, &other.topology)
    }

    /// The configuration this deployment was generated from.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The partitioned ID space (beacon / sensor / detecting IDs).
    pub fn ids(&self) -> &IdSpace {
        &self.ids
    }

    /// The master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Position of node `i`.
    pub fn position(&self, i: u32) -> Point2 {
        self.topology.index.position(i as usize)
    }

    /// Omniscient node classification.
    pub fn kind(&self, i: u32) -> NodeKind {
        self.topology.kinds[i as usize]
    }

    /// The compromised-beacon behaviour of node `i`, if it is malicious.
    pub fn compromised(&self, i: u32) -> Option<&CompromisedBeacon> {
        self.compromised[i as usize].as_ref()
    }

    /// The wormhole, if configured.
    pub fn wormhole(&self) -> Option<&Wormhole> {
        self.topology.wormhole.as_ref()
    }

    /// Indices of all nodes within radio range of node `i` (excluding `i`).
    pub fn neighbors(&self, i: u32) -> Vec<u32> {
        let mut out = Vec::new();
        self.neighbors_into(i, &mut out);
        out
    }

    /// Allocation-free variant of [`Deployment::neighbors`]: clears `out`
    /// and fills it with every node within radio range of node `i`
    /// (excluding `i` itself), sorted ascending — the `*_into`
    /// scratch-buffer convention of the hot paths.
    pub fn neighbors_into(&self, i: u32, out: &mut Vec<u32>) {
        out.clear();
        out.extend(
            self.topology
                .index
                .within_iter(self.position(i), self.config.range_ft)
                .map(|v| v as u32),
        );
        out.sort_unstable();
        out.retain(|&v| v != i);
    }

    /// Fills `out` with the beacons within radio range of node `i`
    /// (excluding `i` itself), sorted ascending — exactly
    /// `neighbors(i)` filtered to beacon indices, but scanning only the
    /// beacon-only index and reusing the caller's buffer.
    pub fn beacons_in_range_into(&self, i: u32, out: &mut Vec<u32>) {
        out.clear();
        out.extend(
            self.topology
                .beacon_index
                .within_iter(self.position(i), self.config.range_ft)
                .map(|v| v as u32),
        );
        out.sort_unstable();
        out.retain(|&v| v != i);
    }

    /// Benign beacons whose signals a wormhole carries, paired with the
    /// tunnel exit each signal emerges from, ascending by beacon index.
    /// Empty when no wormhole is configured.
    pub fn wormhole_exits(&self) -> &[(u32, Point2)] {
        &self.topology.wormhole_exits
    }

    /// Beacons node `i` can hear — direct neighbours (ascending) followed
    /// by wormhole-carried benign beacons (ascending) — served from the
    /// per-topology cache built at generation time. Shared by every policy
    /// variant of the same deployment.
    pub fn audible_beacons(&self, i: u32) -> &[u32] {
        let t = &self.topology;
        let lo = t.audible_offsets[i as usize] as usize;
        let hi = t.audible_offsets[i as usize + 1] as usize;
        &t.audible_targets[lo..hi]
    }

    /// Total audible-beacon pairs over nodes `lo..hi` — the exact event
    /// count a phase scheduling one probe per audible pair will enqueue.
    pub fn audible_pair_count(&self, lo: u32, hi: u32) -> usize {
        let t = &self.topology;
        (t.audible_offsets[hi as usize] - t.audible_offsets[lo as usize]) as usize
    }

    /// The largest audible-beacon count of any single node — an upper
    /// bound on every reference set a sensor can assemble, and therefore
    /// the right capacity to pre-size a per-run
    /// [`secloc_localization::MmseScratch`] with.
    pub fn max_audible_len(&self) -> usize {
        let t = &self.topology;
        t.audible_offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// All beacon indices of a kind.
    pub fn beacons_of_kind(&self, kind: NodeKind) -> Vec<u32> {
        (0..self.config.beacons)
            .filter(|&b| self.topology.kinds[b as usize] == kind)
            .collect()
    }

    /// All sensor (non-beacon) indices.
    pub fn sensors(&self) -> impl Iterator<Item = u32> + '_ {
        self.config.beacons..self.config.nodes
    }

    /// Mean number of requesting nodes within range of a beacon — the
    /// empirical `N_c` used to parameterise the theory overlay.
    pub fn mean_requesters_per_beacon(&self) -> f64 {
        // Counting (rather than materializing) the neighbour set gives the
        // same integer total without allocating per beacon; the -1 removes
        // the beacon itself, which `count_within` includes. The value is a
        // pure function of the topology (counts, positions, range), so it
        // is computed once and shared by every policy variant.
        *self.topology.mean_requesters.get_or_init(|| {
            let total: usize = (0..self.config.beacons)
                .map(|b| {
                    self.topology
                        .index
                        .count_within(self.position(b), self.config.range_ft)
                        - 1
                })
                .sum();
            total as f64 / self.config.beacons as f64
        })
    }
}

/// Derives an independent RNG stream seed from a master seed and a label.
pub fn subseed(master: u64, label: &[u8]) -> u64 {
    prf::prf64((master, 0x5ec1_0c5e_ed5e_ed00), label)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> SimConfig {
        SimConfig {
            nodes: 300,
            beacons: 30,
            malicious: 5,
            ..SimConfig::paper_default()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Deployment::generate(small_config(), 9);
        let b = Deployment::generate(small_config(), 9);
        for i in 0..300 {
            assert_eq!(a.position(i), b.position(i));
            assert_eq!(a.kind(i), b.kind(i));
        }
        let c = Deployment::generate(small_config(), 10);
        assert!((0..300).any(|i| a.position(i) != c.position(i)));
    }

    #[test]
    fn role_counts_match_config() {
        let d = Deployment::generate(small_config(), 1);
        assert_eq!(d.beacons_of_kind(NodeKind::MaliciousBeacon).len(), 5);
        assert_eq!(d.beacons_of_kind(NodeKind::BenignBeacon).len(), 25);
        assert_eq!(d.sensors().count(), 270);
        // Sensors are never classified as beacons.
        for s in d.sensors() {
            assert_eq!(d.kind(s), NodeKind::Sensor);
        }
    }

    #[test]
    fn compromised_behaviour_attached_to_malicious_only() {
        let d = Deployment::generate(small_config(), 2);
        for b in 0..30 {
            match d.kind(b) {
                NodeKind::MaliciousBeacon => {
                    let c = d.compromised(b).expect("behaviour missing");
                    assert_eq!(c.id(), NodeId(b));
                    assert_eq!(c.true_position(), d.position(b));
                    let lie = c.declared_position().distance(c.true_position());
                    assert!((lie - 300.0).abs() < 1e-6);
                }
                _ => assert!(d.compromised(b).is_none()),
            }
        }
    }

    #[test]
    fn neighbors_respect_range() {
        let d = Deployment::generate(small_config(), 3);
        for b in (0..300).step_by(37) {
            for n in d.neighbors(b) {
                assert!(d.position(b).distance(d.position(n)) <= 150.0);
                assert_ne!(n, b);
            }
        }
    }

    #[test]
    fn neighbors_into_matches_index_query() {
        let d = Deployment::generate(small_config(), 3);
        let mut scratch = vec![u32::MAX; 7]; // stale garbage must be cleared
        let mut hits = Vec::new();
        for i in (0..300).step_by(19) {
            d.topology
                .index
                .within_into(d.position(i), d.config.range_ft, &mut hits);
            let expected: Vec<u32> = hits
                .iter()
                .filter(|&&x| x != i as usize)
                .map(|&x| x as u32)
                .collect();
            d.neighbors_into(i, &mut scratch);
            assert_eq!(scratch, expected, "node {i}");
            assert_eq!(d.neighbors(i), expected, "node {i}");
        }
    }

    #[test]
    fn try_generate_reports_config_errors() {
        let mut bad = small_config();
        bad.malicious = 99;
        let err = Deployment::try_generate(bad, 1).unwrap_err();
        assert!(matches!(err, crate::ConfigError::InconsistentCounts { .. }));
        assert!(Deployment::try_generate(small_config(), 1).is_ok());
    }

    #[test]
    #[should_panic(expected = "malicious <= beacons")]
    fn generate_panics_on_invalid_config() {
        let mut bad = small_config();
        bad.malicious = 99;
        Deployment::generate(bad, 1);
    }

    #[test]
    fn mean_requesters_close_to_coverage_expectation() {
        let cfg = SimConfig::paper_default();
        let d = Deployment::generate(cfg.clone(), 4);
        let expected =
            std::f64::consts::PI * cfg.range_ft * cfg.range_ft / (1000.0 * 1000.0) * 999.0;
        let got = d.mean_requesters_per_beacon();
        // Border effects push the mean below the toroidal expectation.
        assert!(
            got > expected * 0.6 && got < expected * 1.1,
            "got {got}, expected around {expected}"
        );
    }

    #[test]
    fn beacons_in_range_into_matches_filtered_neighbors() {
        let d = Deployment::generate(small_config(), 8);
        let mut scratch = vec![u32::MAX; 4]; // stale garbage must be cleared
        for i in (0..300).step_by(23) {
            let expected: Vec<u32> = d.neighbors(i).into_iter().filter(|&v| v < 30).collect();
            d.beacons_in_range_into(i, &mut scratch);
            assert_eq!(scratch, expected, "node {i}");
        }
    }

    #[test]
    fn wormhole_exits_match_exit_for() {
        let d = Deployment::generate(small_config(), 12);
        let w = d.wormhole().expect("configured");
        let range = d.config().range_ft;
        let expected: Vec<(u32, Point2)> = (0..d.config().beacons)
            .filter(|&v| d.kind(v) == NodeKind::BenignBeacon)
            .filter_map(|v| w.exit_for(d.position(v), range).map(|e| (v, e)))
            .collect();
        assert_eq!(d.wormhole_exits(), expected.as_slice());
        assert!(d.wormhole_exits().windows(2).all(|p| p[0].0 < p[1].0));
        let mut no_w = small_config();
        no_w.wormhole = None;
        assert!(Deployment::generate(no_w, 12).wormhole_exits().is_empty());
    }

    #[test]
    fn wormhole_present_per_config() {
        let d = Deployment::generate(small_config(), 5);
        let w = d.wormhole().expect("wormhole configured");
        assert_eq!(w.end_a(), Point2::new(100.0, 100.0));
        let mut no_w = small_config();
        no_w.wormhole = None;
        assert!(Deployment::generate(no_w, 5).wormhole().is_none());
    }

    #[test]
    fn id_space_matches_population() {
        let d = Deployment::generate(small_config(), 6);
        assert_eq!(d.ids().beacon_count(), 30);
        assert_eq!(d.ids().sensor_count(), 270);
        assert_eq!(d.ids().detecting_ids_per_beacon(), 8);
    }

    #[test]
    fn with_policy_is_bit_identical_to_fresh_generation() {
        let base = Deployment::generate(small_config(), 21);
        let mut policy = small_config();
        policy.tau = 4;
        policy.tau_prime = 1;
        policy.attacker_p = 0.9;
        policy.lie_offset_ft = 450.0;
        policy.detecting_ids = 3;
        let rekeyed = base.with_policy(policy.clone()).expect("same topology");
        let fresh = Deployment::generate(policy, 21);
        assert!(base.shares_topology_with(&rekeyed));
        assert!(!base.shares_topology_with(&fresh));
        for i in 0..300u32 {
            assert_eq!(rekeyed.position(i), fresh.position(i), "position {i}");
            assert_eq!(rekeyed.kind(i), fresh.kind(i), "kind {i}");
            match (rekeyed.compromised(i), fresh.compromised(i)) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.declared_position(), b.declared_position());
                    assert_eq!(a.true_position(), b.true_position());
                    assert_eq!(a.id(), b.id());
                }
                (a, b) => assert_eq!(a.is_some(), b.is_some(), "node {i}"),
            }
        }
        assert_eq!(rekeyed.wormhole_exits(), fresh.wormhole_exits());
        assert_eq!(
            rekeyed.ids().detecting_ids_per_beacon(),
            fresh.ids().detecting_ids_per_beacon()
        );
        assert_eq!(rekeyed.config().tau, 4);
    }

    #[test]
    fn with_policy_rejects_topology_changes() {
        let base = Deployment::generate(small_config(), 22);
        let mut moved = small_config();
        moved.range_ft = 200.0;
        moved.lie_offset_ft = 400.0; // keep the config itself valid
        assert_eq!(
            base.with_policy(moved).unwrap_err(),
            crate::ConfigError::TopologyMismatch
        );
        let mut invalid = small_config();
        invalid.attacker_p = 7.0;
        assert!(matches!(
            base.with_policy(invalid).unwrap_err(),
            crate::ConfigError::ProbabilityOutOfRange { .. }
        ));
    }

    #[test]
    fn mean_requesters_cache_is_shared_and_stable() {
        let d = Deployment::generate(small_config(), 23);
        let first = d.mean_requesters_per_beacon();
        let mut policy = small_config();
        policy.tau = 9;
        let rekeyed = d.with_policy(policy).unwrap();
        assert_eq!(
            first.to_bits(),
            rekeyed.mean_requesters_per_beacon().to_bits()
        );
        assert_eq!(first.to_bits(), d.mean_requesters_per_beacon().to_bits());
    }

    #[test]
    fn audible_cache_matches_direct_queries() {
        // The CSR cache must reproduce exactly what an uncached query
        // returns: beacon-index neighbours ascending, then wormhole-carried
        // benign beacons ascending. Checked with and without a wormhole.
        for wormhole in [true, false] {
            let mut cfg = small_config();
            if !wormhole {
                cfg.wormhole = None;
            }
            let d = Deployment::generate(cfg.clone(), 31);
            let mut direct: Vec<u32> = Vec::new();
            let mut total = 0usize;
            for i in 0..cfg.nodes {
                d.beacons_in_range_into(i, &mut direct);
                let my_pos = d.position(i);
                for &(v, exit) in d.wormhole_exits() {
                    if v == i {
                        continue;
                    }
                    let vp = d.position(v);
                    if my_pos.distance(vp) > cfg.range_ft && exit.distance(my_pos) <= cfg.range_ft {
                        direct.push(v);
                    }
                }
                assert_eq!(d.audible_beacons(i), direct.as_slice(), "node {i}");
                total += direct.len();
            }
            assert_eq!(d.audible_pair_count(0, cfg.nodes), total);
            assert_eq!(
                d.audible_pair_count(cfg.beacons, cfg.nodes),
                (cfg.beacons..cfg.nodes)
                    .map(|i| d.audible_beacons(i).len())
                    .sum::<usize>()
            );
        }
    }

    #[test]
    fn audible_cache_is_shared_across_policy_rekeys() {
        let d = Deployment::generate(small_config(), 32);
        let mut policy = small_config();
        policy.tau = 5;
        let rekeyed = d.with_policy(policy).unwrap();
        for i in (0..300).step_by(41) {
            assert_eq!(d.audible_beacons(i), rekeyed.audible_beacons(i));
        }
        assert!(std::ptr::eq(
            d.audible_beacons(0).as_ptr(),
            rekeyed.audible_beacons(0).as_ptr()
        ));
    }

    #[test]
    fn subseed_streams_are_distinct() {
        assert_ne!(subseed(1, b"a"), subseed(1, b"b"));
        assert_ne!(subseed(1, b"a"), subseed(2, b"a"));
        assert_eq!(subseed(1, b"a"), subseed(1, b"a"));
    }
}
