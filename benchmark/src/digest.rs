//! FNV-1a digests of workload outputs, so one 16-hex string pins every
//! bit of a workload's results at the default seed.

use secloc_sim::SimOutcome;

/// Streaming 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Floats enter by their bit pattern, so any change in the last bit of
    /// a result changes the digest.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// An optional float: a presence byte, then the bits when present.
    pub fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(v) => {
                self.bytes(&[1]);
                self.f64(v);
            }
            None => self.bytes(&[0]),
        }
    }

    /// Every field of `o`, in declaration order.
    pub fn outcome(&mut self, o: &SimOutcome) {
        self.u64(u64::from(o.malicious_total));
        self.u64(u64::from(o.benign_total));
        self.u64(u64::from(o.revoked_malicious));
        self.u64(u64::from(o.revoked_benign));
        self.f64(o.affected_before);
        self.f64(o.affected_after);
        self.u64(o.benign_alerts as u64);
        self.u64(o.collusion_alerts as u64);
        self.f64(o.mean_requesters_per_beacon);
        self.opt_f64(o.mean_loc_error_before_ft);
        self.opt_f64(o.mean_loc_error_after_ft);
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The digest of a sequence of outcomes.
pub fn outcomes_digest<'a>(outcomes: impl IntoIterator<Item = &'a SimOutcome>) -> String {
    let mut d = Digest::default();
    for o in outcomes {
        d.outcome(o);
    }
    d.hex()
}

/// The digest pinned for `workload` at the default seed, from
/// `digests.txt` (`<workload> <16-hex digest>` per line).
pub fn pinned(workload: &str) -> Option<&'static str> {
    include_str!("../digests.txt")
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(name, _)| *name == workload)
        .map(|(_, hex)| hex.trim())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed() -> SimOutcome {
        SimOutcome {
            malicious_total: 10,
            benign_total: 90,
            revoked_malicious: 7,
            revoked_benign: 1,
            affected_before: 12.5,
            affected_after: 0.1 + 0.2,
            benign_alerts: 42,
            collusion_alerts: 3,
            mean_requesters_per_beacon: 1.0 / 3.0,
            mean_loc_error_before_ft: Some(4.25),
            mean_loc_error_after_ft: None,
        }
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        let mut d = Digest::default();
        d.bytes(b"");
        assert_eq!(d.hex(), "cbf29ce484222325");
        let mut d = Digest::default();
        d.bytes(b"a");
        assert_eq!(d.hex(), "af63dc4c8601ec8c");
    }

    #[test]
    fn digest_of_a_fixed_outcome_is_stable() {
        assert_eq!(outcomes_digest([&fixed()]), "df3cba83742b81a4");
    }

    #[test]
    fn digest_sees_the_last_bit_of_every_float() {
        let base = outcomes_digest([&fixed()]);
        let mut o = fixed();
        o.affected_after = f64::from_bits(o.affected_after.to_bits() ^ 1);
        assert_ne!(outcomes_digest([&o]), base);
        let mut o = fixed();
        o.mean_loc_error_after_ft = Some(0.0);
        assert_ne!(outcomes_digest([&o]), base, "None differs from Some(0.0)");
    }

    #[test]
    fn every_workload_has_a_pinned_digest() {
        for w in crate::workloads::NAMES {
            let hex = pinned(w).unwrap_or_else(|| panic!("no digest for {w}"));
            assert_eq!(hex.len(), 16, "{w}");
            assert!(hex.chars().all(|c| c.is_ascii_hexdigit()), "{w}");
        }
    }
}
