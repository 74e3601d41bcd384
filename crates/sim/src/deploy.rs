//! Deployment: positions, roles and adversary placement.

use crate::SimConfig;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use secloc_attack::{BeaconStrategy, CompromisedBeacon, Wormhole};
use secloc_crypto::{prf, IdSpace, NodeId};
use secloc_geometry::{deploy, Field, GridIndex, Point2, Vector2};
use secloc_radio::Cycles;
use std::sync::Arc;

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
    // Indexed by beacon: only beacons can be compromised. Besides the
    // topology it depends on `attacker_p` and `lie_offset_ft` alone, so a
    // re-key that keeps both (every re-key inside a probe unit) shares it.
    compromised: Arc<[Option<CompromisedBeacon>]>,
    seed: u64,
}

/// The placement-determined half of a deployment: node positions (inside
/// the spatial index), roles, the malicious subset with its lie angles,
/// the wormhole geometry and the audible graph. Immutable once built, and
/// shared behind an `Arc` by every policy variant of the same
/// `(topology_key, seed)` cell.
#[derive(Debug)]
pub(crate) struct Topology {
    pub(crate) index: GridIndex,
    // Benign beacons that sit in a wormhole mouth, with the exit each one's
    // signal emerges from — ascending by beacon index. `Wormhole::exit_for`
    // is pure geometry over static positions, so it is computed once.
    wormhole_exits: Vec<(u32, Point2)>,
    kinds: Vec<NodeKind>,
    // The compromised beacons in selection order, with the lie *angle*
    // drawn for each during generation. The angle (an RNG draw) is
    // topology; the lie magnitude it is scaled by is policy, so a re-key
    // that changes an attacker knob rebuilds the `CompromisedBeacon`s
    // from these.
    malicious_set: Vec<u32>,
    lie_angles: Vec<f64>,
    // `malicious_set` ascending: what every finish counts revocations over.
    malicious_ascending: Vec<u32>,
    wormhole: Option<Wormhole>,
    seed: u64,
    audible: AudibleGraph,
}

/// Every node's audible-beacon list in CSR form — direct neighbours
/// ascending, then wormhole-carried benign beacons ascending: node `i`
/// hears `targets[offsets[i] .. offsets[i + 1]]`. Every run reads each
/// node's list once per phase, so building it at generation moves the
/// whole query cost out of the timed phases and shares it across policy
/// variants.
#[derive(Debug)]
struct AudibleGraph {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    /// The longest single list.
    max_len: usize,
    /// Direct (node, beacon) pairs over beacons: the empirical N_c.
    mean_requesters: f64,
}

impl AudibleGraph {
    /// Builds the graph from the beacon side: one full-index query per
    /// beacon, in ascending beacon order, records `(node, beacon)` for
    /// every other node in range. `distance_squared` is symmetric in its
    /// two points, so these are the pairs a per-node query of the beacons
    /// finds, and each beacon's count is its `count_within − 1`, so N_c
    /// falls out of the same pass. Wormhole-carried pairs follow under the
    /// per-node predicate, and one stable counting pass by node lays every
    /// list out already ascending.
    fn build(index: &GridIndex, beacons: u32, range: f64, exits: &[(u32, Point2)]) -> Self {
        let positions = index.positions();
        let mut counts = vec![0u32; positions.len()];
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for b in 0..beacons {
            for n in index.within_iter(positions[b as usize], range) {
                if n != b as usize {
                    counts[n] += 1;
                    pairs.push((n as u32, b));
                }
            }
        }
        let mean_requesters = pairs.len() as f64 / beacons as f64;
        // The exact predicate takes two square roots per (node, exit); the
        // squared-distance prefilter skips only nodes whose exit distance
        // exceeds the range by far more than rounding, which the predicate
        // rejects too.
        let reach = range * (1.0 + 1e-9);
        let reach2 = reach * reach;
        for (i, &p) in positions.iter().enumerate() {
            for &(v, exit) in exits {
                if v as usize == i || exit.distance_squared(p) > reach2 {
                    continue;
                }
                if p.distance(positions[v as usize]) > range && exit.distance(p) <= range {
                    counts[i] += 1;
                    pairs.push((i as u32, v));
                }
            }
        }
        let mut offsets = Vec::with_capacity(positions.len() + 1);
        offsets.push(0u32);
        let mut max_len = 0usize;
        let mut end = 0u32;
        for c in &mut counts {
            max_len = max_len.max(*c as usize);
            end += *c;
            offsets.push(end);
            *c = end - *c; // now the node's write cursor
        }
        let mut targets = vec![0u32; pairs.len()];
        for &(n, b) in &pairs {
            let at = &mut counts[n as usize];
            targets[*at as usize] = b;
            *at += 1;
        }
        AudibleGraph {
            offsets,
            targets,
            max_len,
            mean_requesters,
        }
    }
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

        // Every node's audible-beacon list, and N_c from the same pass. The
        // contents are a pure function of the topology (positions, roles,
        // wormhole, radio range — all TopologyKey fields), so they are
        // shared by every policy re-key. `audible_cache_matches_direct_queries`
        // and the `audible_graph_matches_the_per_node_definition` property
        // are the oracles.
        let audible = AudibleGraph::build(&index, config.beacons, config.range_ft, &wormhole_exits);
        let mut malicious_ascending = malicious_set.clone();
        malicious_ascending.sort_unstable();

        let topology = Arc::new(Topology {
            index,
            wormhole_exits,
            kinds,
            malicious_set,
            lie_angles,
            malicious_ascending,
            wormhole,
            seed,
            audible,
        });
        let compromised = compromised_table(&topology, &config);
        Ok(Self::from_parts(topology, compromised, config))
    }

    /// Attaches the policy-determined state (compromised-beacon behaviour,
    /// ID space) to a topology. Both `try_generate` and `with_policy` end
    /// here, and both take `compromised` from [`compromised_table`], so the
    /// two construction routes are one code path and cannot drift apart.
    fn from_parts(
        topology: Arc<Topology>,
        compromised: Arc<[Option<CompromisedBeacon>]>,
        config: SimConfig,
    ) -> Deployment {
        let ids = IdSpace::new(config.beacons, config.non_beacons(), config.detecting_ids);
        Deployment {
            seed: topology.seed,
            config,
            ids,
            topology,
            compromised,
        }
    }

    /// Re-keys this deployment under a new policy, sharing the immutable
    /// topology behind the `Arc` instead of regenerating it. The result is
    /// bit-identical to `Deployment::generate(config, self.seed())` — the
    /// equivalence suite holds this as an invariant — but skips placement,
    /// index construction, and the RNG work entirely. When `config` keeps
    /// this deployment's `attacker_p` and `lie_offset_ft` the
    /// compromised-beacon table is shared too, and the re-key allocates
    /// nothing.
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
        let same_attack = config.attacker_p.to_bits() == self.config.attacker_p.to_bits()
            && config.lie_offset_ft.to_bits() == self.config.lie_offset_ft.to_bits();
        let compromised = if same_attack {
            Arc::clone(&self.compromised)
        } else {
            compromised_table(&self.topology, &config)
        };
        Ok(Self::from_parts(
            Arc::clone(&self.topology),
            compromised,
            config,
        ))
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

    /// The compromised-beacon behaviour of node `i`, if it is malicious
    /// (`None` for every sensor).
    pub fn compromised(&self, i: u32) -> Option<&CompromisedBeacon> {
        self.compromised.get(i as usize)?.as_ref()
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
        let g = &self.topology.audible;
        let lo = g.offsets[i as usize] as usize;
        let hi = g.offsets[i as usize + 1] as usize;
        &g.targets[lo..hi]
    }

    /// Total audible-beacon pairs over nodes `lo..hi` — the exact event
    /// count a phase scheduling one probe per audible pair will enqueue.
    pub fn audible_pair_count(&self, lo: u32, hi: u32) -> usize {
        let g = &self.topology.audible;
        (g.offsets[hi as usize] - g.offsets[lo as usize]) as usize
    }

    /// The largest audible-beacon count of any single node — an upper
    /// bound on every reference set a sensor can assemble, and therefore
    /// the right capacity to pre-size a per-run
    /// [`secloc_localization::MmseScratch`] with.
    pub fn max_audible_len(&self) -> usize {
        self.topology.audible.max_len
    }

    /// The malicious beacons, ascending: `beacons_of_kind(MaliciousBeacon)`
    /// without the allocation, computed once per topology.
    pub(crate) fn malicious_beacons(&self) -> &[u32] {
        &self.topology.malicious_ascending
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
    /// empirical `N_c` used to parameterise the theory overlay. Computed
    /// once at generation, with the audible graph, and shared by every
    /// policy variant.
    pub fn mean_requesters_per_beacon(&self) -> f64 {
        self.topology.audible.mean_requesters
    }
}

/// Each beacon's compromised behaviour under `config`'s attacker knobs
/// (`None` for a benign beacon), indexed by beacon.
fn compromised_table(topology: &Topology, config: &SimConfig) -> Arc<[Option<CompromisedBeacon>]> {
    let strategy = BeaconStrategy::with_acceptance(config.attacker_p);
    let mut table: Vec<Option<CompromisedBeacon>> = vec![None; config.beacons as usize];
    // The stream label is `b"beacon"` then the index's little-endian bytes.
    let mut label = *b"beacon\0\0\0\0";
    for (&b, &angle) in topology.malicious_set.iter().zip(&topology.lie_angles) {
        let offset = Vector2::from_angle(angle) * config.lie_offset_ft;
        label[6..].copy_from_slice(&b.to_le_bytes());
        table[b as usize] = Some(CompromisedBeacon::new(
            NodeId(b),
            topology.index.position(b as usize),
            offset,
            strategy,
            subseed(topology.seed, &label),
        ));
    }
    table.into()
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
        assert!(Arc::ptr_eq(&base.topology, &rekeyed.topology));
        assert!(!Arc::ptr_eq(&base.topology, &fresh.topology));
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
    fn a_rekey_keeping_the_attacker_knobs_shares_the_compromised_table() {
        let base = Deployment::generate(small_config(), 24);
        let mut policy = small_config();
        policy.tau = 5;
        policy.collusion = false;
        let same = base.with_policy(policy.clone()).unwrap();
        assert!(Arc::ptr_eq(&base.compromised, &same.compromised));
        // Either attacker knob rebuilds the table, as generation builds it.
        let (p0, lie0) = (policy.attacker_p, policy.lie_offset_ft);
        for (p, lie) in [(p0 / 2.0, lie0), (p0, lie0 * 1.5)] {
            policy.attacker_p = p;
            policy.lie_offset_ft = lie;
            let other = base.with_policy(policy.clone()).unwrap();
            assert!(!Arc::ptr_eq(&base.compromised, &other.compromised));
            let fresh = Deployment::generate(policy.clone(), 24);
            assert_eq!(other.compromised, fresh.compromised, "p={p} lie={lie}");
        }
        assert_eq!(
            base.malicious_beacons(),
            base.beacons_of_kind(NodeKind::MaliciousBeacon)
        );
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
        // returns: beacon neighbours ascending, then wormhole-carried
        // benign beacons ascending. Checked with and without a wormhole.
        for wormhole in [true, false] {
            let mut cfg = small_config();
            if !wormhole {
                cfg.wormhole = None;
            }
            let d = Deployment::generate(cfg.clone(), 31);
            let mut total = 0usize;
            for i in 0..cfg.nodes {
                let mut direct: Vec<u32> = d
                    .neighbors(i)
                    .into_iter()
                    .filter(|&v| v < cfg.beacons)
                    .collect();
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
