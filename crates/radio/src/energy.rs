//! Radio energy accounting.
//!
//! Sensor-network papers live and die by energy budgets; the reproduced
//! paper's overhead argument ("a sensor node usually only needs to
//! communicate with a few other nodes") is ultimately an energy claim.
//! This model prices the protocols in millijoules using MICA2-class
//! constants so the overhead analysis can speak the native currency of
//! the field.

use crate::Cycles;

/// Radio power draw profile, in milliamps at a given supply voltage.
///
/// Defaults are MICA2-class (CC1000 at 3 V): transmit ≈ 27 mA at full
/// power, receive ≈ 10 mA.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Supply voltage in volts.
    pub supply_v: f64,
    /// Transmit current in milliamps.
    pub tx_ma: f64,
    /// Receive current in milliamps.
    pub rx_ma: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            supply_v: 3.0,
            tx_ma: 27.0,
            rx_ma: 10.0,
        }
    }
}

impl EnergyModel {
    /// Energy to keep a state drawing `current_ma` for `duration`, in
    /// millijoules: `mJ = mA × V × s`.
    fn energy_mj(&self, current_ma: f64, duration: Cycles) -> f64 {
        current_ma * self.supply_v * duration.as_secs()
    }

    /// Total energy across the network for `messages` transmissions of
    /// `bytes`-byte frames with `avg_listeners` receivers each, in
    /// millijoules.
    pub fn broadcast_round_mj(&self, messages: f64, bytes: u64, avg_listeners: f64) -> f64 {
        let t = Cycles::from_bytes(bytes);
        messages * (self.energy_mj(self.tx_ma, t) + avg_listeners * self.energy_mj(self.rx_ma, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 29-byte request and a 45-byte beacon frame: payload plus the
    /// 24-byte link overhead.
    const REQUEST_BYTES: u64 = 29;
    const BEACON_BYTES: u64 = 45;

    #[test]
    fn transmit_costs_more_than_receive() {
        let e = EnergyModel::default();
        let transmit = e.broadcast_round_mj(1.0, REQUEST_BYTES, 0.0);
        let receive = e.broadcast_round_mj(1.0, REQUEST_BYTES, 1.0) - transmit;
        assert!(transmit > receive);
        assert!(transmit > 0.0);
    }

    #[test]
    fn energy_scales_with_frame_size() {
        let e = EnergyModel::default();
        let request = e.broadcast_round_mj(1.0, REQUEST_BYTES, 0.0);
        let beacon = e.broadcast_round_mj(1.0, BEACON_BYTES, 0.0);
        assert!(beacon > request);
        let ratio = beacon / request;
        let size_ratio = BEACON_BYTES as f64 / REQUEST_BYTES as f64;
        assert!((ratio - size_ratio).abs() < 1e-9);
    }

    #[test]
    fn mica2_magnitudes_are_sane() {
        // A 45-byte frame at 19.2 kbit/s takes ~18.75 ms; at 27 mA, 3 V
        // that is ~1.5 mJ.
        let e = EnergyModel::default();
        let mj = e.broadcast_round_mj(1.0, BEACON_BYTES, 0.0);
        assert!((1.0..2.5).contains(&mj), "got {mj} mJ");
    }

    #[test]
    fn broadcast_round_accounts_listeners() {
        let e = EnergyModel::default();
        let lonely = e.broadcast_round_mj(100.0, 45, 0.0);
        let crowded = e.broadcast_round_mj(100.0, 45, 10.0);
        assert!(
            crowded > lonely * 3.0,
            "listening must dominate dense networks"
        );
    }

    #[test]
    fn zero_messages_zero_energy() {
        let e = EnergyModel::default();
        assert_eq!(e.broadcast_round_mj(0.0, BEACON_BYTES, 10.0), 0.0);
    }
}
