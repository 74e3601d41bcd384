//! Alerts reported to the base station.

use secloc_crypto::NodeId;
use std::fmt;

/// One alert: `reporter` accuses `target` of being a malicious beacon.
///
/// "Every alert from a detecting node includes the ID of the detecting node
/// and the ID of the target node" (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Alert {
    /// The detecting node raising the alert (its real beacon ID, since the
    /// report channel to the base station is authenticated per-node).
    pub reporter: NodeId,
    /// The accused beacon node.
    pub target: NodeId,
}

impl Alert {
    /// Creates an alert.
    ///
    /// # Panics
    ///
    /// Panics if a node accuses itself.
    pub fn new(reporter: NodeId, target: NodeId) -> Self {
        assert_ne!(reporter, target, "{reporter} cannot accuse itself");
        Alert { reporter, target }
    }
}

impl fmt::Display for Alert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "alert: {} accuses {}", self.reporter, self.target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(
            Alert::new(NodeId(1), NodeId(2)).to_string(),
            "alert: n1 accuses n2"
        );
    }

    #[test]
    #[should_panic(expected = "accuse itself")]
    fn self_accusation_rejected() {
        Alert::new(NodeId(5), NodeId(5));
    }
}
