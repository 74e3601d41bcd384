//! Network identities and the beacon / non-beacon ID split.

use std::fmt;

/// A node identifier on the sensor network.
///
/// The inner value is public: IDs are wire data, not capabilities. The paper
/// partitions the ID space so that an ID's *class* (beacon vs non-beacon) is
/// recognisable — detecting IDs are deliberately drawn from the non-beacon
/// class so a malicious beacon cannot tell a detector from a regular sensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// The role an ID advertises on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeRole {
    /// A beacon node: knows its own location and serves location references.
    Beacon,
    /// A regular (non-beacon) sensor node.
    NonBeacon,
}

/// The partitioned node-ID space of one deployment.
///
/// Layout (all ranges contiguous):
///
/// ```text
/// [0 .. beacons)                                   beacon IDs
/// [beacons .. beacons+sensors)                     non-beacon sensor IDs
/// [beacons+sensors .. beacons+sensors+beacons*m)   detecting IDs
/// ```
///
/// Detecting IDs live in the *non-beacon* classification on purpose:
/// [`IdSpace::role_of`] reports them as [`NodeRole::NonBeacon`], which is
/// exactly what an attacker observing the wire can learn. Use
/// [`IdSpace::is_detecting_id`] for the omniscient (simulation-side) view.
///
/// # Examples
///
/// ```
/// use secloc_crypto::{IdSpace, NodeRole};
///
/// let ids = IdSpace::new(100, 900, 8);
/// let beacon = ids.beacon(5);
/// assert_eq!(ids.role_of(beacon), NodeRole::Beacon);
///
/// let det = ids.detecting_id(5, 3);
/// assert_eq!(ids.role_of(det), NodeRole::NonBeacon); // wire view
/// assert!(ids.is_detecting_id(det));                 // omniscient view
/// assert_eq!(ids.owner_of_detecting_id(det), Some(beacon));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdSpace {
    beacons: u32,
    sensors: u32,
    detecting_per_beacon: u32,
}

impl IdSpace {
    /// Creates an ID space for `beacons` beacon nodes, `sensors` non-beacon
    /// nodes, and `detecting_per_beacon` detecting IDs per beacon (the
    /// paper's parameter `m`).
    ///
    /// # Panics
    ///
    /// Panics if the total ID count would overflow `u32`.
    pub fn new(beacons: u32, sensors: u32, detecting_per_beacon: u32) -> Self {
        let detecting = beacons
            .checked_mul(detecting_per_beacon)
            .expect("detecting ID count overflow");
        beacons
            .checked_add(sensors)
            .and_then(|v| v.checked_add(detecting))
            .expect("ID space overflow");
        IdSpace {
            beacons,
            sensors,
            detecting_per_beacon,
        }
    }

    /// Number of beacon nodes.
    pub fn beacon_count(&self) -> u32 {
        self.beacons
    }

    /// Number of non-beacon sensor nodes.
    pub fn sensor_count(&self) -> u32 {
        self.sensors
    }

    /// Detecting IDs allocated to each beacon (the paper's `m`).
    pub fn detecting_ids_per_beacon(&self) -> u32 {
        self.detecting_per_beacon
    }

    /// The ID of beacon number `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= beacon_count()`.
    pub fn beacon(&self, i: u32) -> NodeId {
        assert!(i < self.beacons, "beacon index {i} out of range");
        NodeId(i)
    }

    /// The ID of non-beacon sensor number `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= sensor_count()`.
    pub fn sensor(&self, i: u32) -> NodeId {
        assert!(i < self.sensors, "sensor index {i} out of range");
        NodeId(self.beacons + i)
    }

    /// The `k`-th detecting ID belonging to beacon `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `k` is out of range.
    pub fn detecting_id(&self, i: u32, k: u32) -> NodeId {
        assert!(i < self.beacons, "beacon index {i} out of range");
        assert!(
            k < self.detecting_per_beacon,
            "detecting index {k} out of range"
        );
        NodeId(self.beacons + self.sensors + i * self.detecting_per_beacon + k)
    }

    /// The role an ID presents on the wire. Detecting IDs present as
    /// non-beacon IDs — that indistinguishability is the security argument
    /// of the paper's §2.1.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside this ID space.
    pub fn role_of(&self, id: NodeId) -> NodeRole {
        assert!(self.contains(id), "{id} outside this ID space");
        if id.0 < self.beacons {
            NodeRole::Beacon
        } else {
            NodeRole::NonBeacon
        }
    }

    /// Whether `id` belongs to this ID space at all.
    pub fn contains(&self, id: NodeId) -> bool {
        id.0 < self.beacons + self.sensors + self.beacons * self.detecting_per_beacon
    }

    /// Omniscient view: is `id` a detecting ID?
    pub fn is_detecting_id(&self, id: NodeId) -> bool {
        self.contains(id) && id.0 >= self.beacons + self.sensors
    }

    /// Omniscient view: the beacon that owns a detecting ID, if any.
    pub fn owner_of_detecting_id(&self, id: NodeId) -> Option<NodeId> {
        if !self.is_detecting_id(id) {
            return None;
        }
        let off = id.0 - self.beacons - self.sensors;
        Some(NodeId(off / self.detecting_per_beacon))
    }

    /// Total number of IDs (beacons + sensors + detecting IDs).
    pub fn total(&self) -> u32 {
        self.beacons + self.sensors + self.beacons * self.detecting_per_beacon
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_contiguous_and_disjoint() {
        let ids = IdSpace::new(3, 5, 2);
        assert_eq!(ids.beacon(0), NodeId(0));
        assert_eq!(ids.beacon(2), NodeId(2));
        assert_eq!(ids.sensor(0), NodeId(3));
        assert_eq!(ids.sensor(4), NodeId(7));
        assert_eq!(ids.detecting_id(0, 0), NodeId(8));
        assert_eq!(ids.detecting_id(2, 1), NodeId(13));
        assert_eq!(ids.total(), 14);
    }

    #[test]
    fn roles_on_the_wire() {
        let ids = IdSpace::new(2, 2, 1);
        assert_eq!(ids.role_of(ids.beacon(1)), NodeRole::Beacon);
        assert_eq!(ids.role_of(ids.sensor(0)), NodeRole::NonBeacon);
        // Crucial paper property: detecting IDs look like non-beacon IDs.
        assert_eq!(ids.role_of(ids.detecting_id(0, 0)), NodeRole::NonBeacon);
    }

    #[test]
    fn detecting_id_ownership() {
        let ids = IdSpace::new(4, 10, 3);
        for b in 0..4 {
            for k in 0..3 {
                let d = ids.detecting_id(b, k);
                assert!(ids.is_detecting_id(d));
                assert_eq!(ids.owner_of_detecting_id(d), Some(NodeId(b)));
            }
        }
        assert!(!ids.is_detecting_id(ids.sensor(0)));
        assert_eq!(ids.owner_of_detecting_id(ids.beacon(0)), None);
    }

    #[test]
    fn contains_boundaries() {
        let ids = IdSpace::new(1, 1, 1);
        assert!(ids.contains(NodeId(2)));
        assert!(!ids.contains(NodeId(3)));
    }

    #[test]
    fn zero_detecting_ids_allowed() {
        let ids = IdSpace::new(5, 5, 0);
        assert_eq!(ids.total(), 10);
        assert_eq!(ids.detecting_ids_per_beacon(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn beacon_index_checked() {
        IdSpace::new(2, 2, 1).beacon(2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn detecting_index_checked() {
        IdSpace::new(2, 2, 1).detecting_id(0, 1);
    }

    #[test]
    fn display_and_from() {
        let id: NodeId = 7u32.into();
        assert_eq!(format!("{id}"), "n7");
    }
}
