//! The detection protocol at the frame level.
//!
//! [`DetectionPipeline`](secloc_core::DetectionPipeline) classifies a
//! finished [`Observation`]; this module builds that observation the way a
//! real mote does — by exchanging authenticated frames and SPDR timestamps
//! (Fig. 3):
//!
//! ```text
//! requester                          target beacon
//!     | -- Request {detecting id} ------> |     t1 (send), t2 (recv)
//!     | <------- Beacon {id, location} -- |     t3 (send), t4 (recv)
//!     | <------- TimestampReport {t3-t2}- |
//!     `-> RTT = (t4 - t1) - (t3 - t2); measure distance; run pipeline
//! ```
//!
//! Every frame is MAC'd with the pairwise key of the *wire identities*
//! involved; a requester under a detecting ID uses that ID's keying
//! material, exactly as §2.1 prescribes ("the detecting node also has all
//! keying materials related to this ID").
//!
//! `sim::probe` runs the same exchange as one call; the exchange-conformance
//! test in `secloc-sim` replays every probe of seeded runs through these
//! two machines and requires the same observation, bit for bit.

use crate::{BeaconPayload, Frame, FrameBody, FrameError, Key, PairwiseKeyStore, RequestPayload};
use secloc_core::Observation;
use secloc_crypto::NodeId;
use secloc_geometry::Point2;
use secloc_radio::Cycles;

/// Computes the paper's MAC-and-processing-free round-trip time from the
/// four SPDR timestamps of Fig. 3: `RTT = (t4 − t1) − (t3 − t2)`.
///
/// # Panics
///
/// Panics unless `t1 ≤ t4` and `t2 ≤ t3` (causality), and unless the
/// receiver's turnaround fits inside the sender's span.
pub fn rtt_from_timestamps(t1: Cycles, t2: Cycles, t3: Cycles, t4: Cycles) -> Cycles {
    assert!(t4 >= t1, "t4 must not precede t1");
    let receiver_turnaround = t3.checked_sub(t2).expect("t3 must not precede t2");
    checked_rtt(t1, t4, receiver_turnaround).expect("receiver turnaround exceeds sender span")
}

/// The RTT formula on the requester's view of one exchange: its own send
/// and receive timestamps `t1`, `t4` and the reported turnaround
/// `t3 − t2`. `None` when the timestamps violate causality.
fn checked_rtt(t1: Cycles, t4: Cycles, turnaround: Cycles) -> Option<Cycles> {
    t4.checked_sub(t1)?.checked_sub(turnaround)
}

/// Errors the requester can hit while driving one exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolError {
    /// A received frame failed authentication or addressing.
    Frame(FrameError),
    /// The peer answered with an unexpected frame type.
    UnexpectedFrame,
    /// Timestamps violate causality (t4 before t1, or t3 before t2).
    BadTimestamps,
}

impl From<FrameError> for ProtocolError {
    fn from(e: FrameError) -> Self {
        ProtocolError::Frame(e)
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Frame(e) => write!(f, "frame error: {e}"),
            ProtocolError::UnexpectedFrame => write!(f, "unexpected frame type"),
            ProtocolError::BadTimestamps => write!(f, "timestamps violate causality"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// The requester side of one beacon exchange, as a typestate machine:
/// [`RequestSent`] → [`BeaconReceived`] → [`Observation`].
#[derive(Debug)]
pub struct RequesterSession {
    wire_id: NodeId,
    position: Point2,
    keys: PairwiseKeyStore,
}

/// State after the request went out: waiting for the beacon signal.
#[derive(Debug)]
pub struct RequestSent {
    wire_id: NodeId,
    position: Point2,
    pair_key: Key,
    target: NodeId,
    t1: Cycles,
}

/// State after the beacon signal arrived: waiting for the timestamp report.
#[derive(Debug)]
pub struct BeaconReceived {
    position: Point2,
    pair_key: Key,
    target: NodeId,
    wire_id: NodeId,
    t1: Cycles,
    t4: Cycles,
    declared: Point2,
    measured_distance_ft: f64,
}

impl RequesterSession {
    /// Creates a session for the node at `position` speaking as `wire_id`
    /// (a detecting ID for detectors, the node's own ID for sensors).
    pub fn new(wire_id: NodeId, position: Point2, keys: PairwiseKeyStore) -> Self {
        RequesterSession {
            wire_id,
            position,
            keys,
        }
    }

    /// Emits the request frame to `target`, recording the send timestamp
    /// `t1`.
    pub fn request(&self, target: NodeId, t1: Cycles) -> (Frame, RequestSent) {
        let pair_key = self.keys.pairwise(self.wire_id, target);
        let frame = Frame::seal(
            self.wire_id,
            target,
            FrameBody::Request(RequestPayload {
                requester: self.wire_id,
            }),
            &pair_key,
        );
        (
            frame,
            RequestSent {
                wire_id: self.wire_id,
                position: self.position,
                pair_key,
                target,
                t1,
            },
        )
    }
}

impl RequestSent {
    /// Consumes the beacon reply received at `t4`, with the distance the
    /// radio measured from the signal.
    ///
    /// # Errors
    ///
    /// Fails when the frame does not authenticate under the pairwise key,
    /// is not a beacon frame, or claims a different beacon identity than
    /// the session's target (identity binding).
    pub fn on_beacon(
        self,
        frame: &Frame,
        t4: Cycles,
        measured_distance_ft: f64,
    ) -> Result<BeaconReceived, ProtocolError> {
        let body = frame.open(self.wire_id, &self.pair_key)?;
        let FrameBody::Beacon(payload) = body else {
            return Err(ProtocolError::UnexpectedFrame);
        };
        if payload.beacon != self.target {
            // A frame signed with the right key but naming another beacon
            // is a protocol violation (possible relabelling attempt).
            return Err(ProtocolError::UnexpectedFrame);
        }
        if t4 < self.t1 {
            return Err(ProtocolError::BadTimestamps);
        }
        Ok(BeaconReceived {
            position: self.position,
            pair_key: self.pair_key,
            target: self.target,
            wire_id: self.wire_id,
            t1: self.t1,
            t4,
            declared: payload.declared,
            measured_distance_ft,
        })
    }
}

impl BeaconReceived {
    /// Consumes the timestamp report and assembles the observation.
    ///
    /// `wormhole_detector_fired` comes from the node's wormhole detector
    /// (for example a [`GeographicLeash`](crate::GeographicLeash)).
    ///
    /// # Errors
    ///
    /// Fails on authentication, frame-type, or causality violations.
    pub fn on_timestamp_report(
        self,
        frame: &Frame,
        wormhole_detector_fired: bool,
    ) -> Result<Observation, ProtocolError> {
        let body = frame.open(self.wire_id, &self.pair_key)?;
        let FrameBody::TimestampReport { turnaround } = body else {
            return Err(ProtocolError::UnexpectedFrame);
        };
        let rtt = checked_rtt(self.t1, self.t4, turnaround).ok_or(ProtocolError::BadTimestamps)?;
        Ok(Observation {
            detector_position: self.position,
            declared_position: self.declared,
            measured_distance_ft: self.measured_distance_ft,
            rtt,
            wormhole_detector_fired,
        })
    }

    /// The target this session is probing.
    pub fn target(&self) -> NodeId {
        self.target
    }
}

/// The honest responder side: answers requests with the truth.
#[derive(Debug)]
pub struct BeaconResponder {
    id: NodeId,
    position: Point2,
    keys: PairwiseKeyStore,
}

impl BeaconResponder {
    /// Creates a responder for the beacon `id` at `position`.
    pub fn new(id: NodeId, position: Point2, keys: PairwiseKeyStore) -> Self {
        BeaconResponder { id, position, keys }
    }

    /// Handles one request frame, producing the beacon reply and (after
    /// `t3` is known) the timestamp report.
    ///
    /// `t2`/`t3` are the responder-side SPDR timestamps.
    ///
    /// # Errors
    ///
    /// Fails when the request does not authenticate or is not a request.
    pub fn respond(
        &self,
        request: &Frame,
        t2: Cycles,
        t3: Cycles,
    ) -> Result<(Frame, Frame), ProtocolError> {
        let requester = request.src();
        let key = self.keys.pairwise(self.id, requester);
        let body = request.open(self.id, &key)?;
        let FrameBody::Request(_) = body else {
            return Err(ProtocolError::UnexpectedFrame);
        };
        if t3 < t2 {
            return Err(ProtocolError::BadTimestamps);
        }
        let beacon = Frame::seal(
            self.id,
            requester,
            FrameBody::Beacon(BeaconPayload {
                beacon: self.id,
                declared: self.position,
            }),
            &key,
        );
        let report = Frame::seal(
            self.id,
            requester,
            FrameBody::TimestampReport {
                turnaround: t3 - t2,
            },
            &key,
        );
        Ok((beacon, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secloc_core::{DetectionOutcome, DetectionPipeline};

    fn keys() -> PairwiseKeyStore {
        PairwiseKeyStore::new(Key::from_u128(0x600d))
    }

    /// One complete exchange through both machines, classified by
    /// `pipeline`.
    fn exchange(
        requester: &RequesterSession,
        responder: &BeaconResponder,
        pipeline: &DetectionPipeline,
        timestamps: (Cycles, Cycles, Cycles, Cycles),
        measured_distance_ft: f64,
    ) -> Result<DetectionOutcome, ProtocolError> {
        let (t1, t2, t3, t4) = timestamps;
        let (request, pending) = requester.request(responder.id, t1);
        let (beacon, report) = responder.respond(&request, t2, t3)?;
        let received = pending.on_beacon(&beacon, t4, measured_distance_ft)?;
        let observation = received.on_timestamp_report(&report, false)?;
        Ok(pipeline.evaluate(&observation))
    }

    fn timestamps(turnaround: u64, rtt: u64) -> (Cycles, Cycles, Cycles, Cycles) {
        let t1 = Cycles::new(1_000_000);
        let t2 = Cycles::new(1_000_100);
        let t3 = t2 + Cycles::new(turnaround);
        let t4 = t1 + Cycles::new(turnaround) + Cycles::new(rtt);
        (t1, t2, t3, t4)
    }

    #[test]
    fn honest_exchange_is_benign() {
        let requester = RequesterSession::new(NodeId(500), Point2::new(0.0, 0.0), keys());
        let responder = BeaconResponder::new(NodeId(3), Point2::new(60.0, 80.0), keys());
        let outcome = exchange(
            &requester,
            &responder,
            &DetectionPipeline::paper_default(),
            timestamps(50_000, 6_700),
            103.0,
        )
        .unwrap();
        assert_eq!(outcome, DetectionOutcome::Benign);
    }

    #[test]
    fn rtt_computation_cancels_turnaround() {
        // Whatever the responder's processing delay, the assembled RTT is
        // (t4 - t1) - (t3 - t2).
        for turnaround in [0u64, 1_000, 10_000_000] {
            let requester = RequesterSession::new(NodeId(500), Point2::new(0.0, 0.0), keys());
            let responder = BeaconResponder::new(NodeId(3), Point2::new(60.0, 80.0), keys());
            let (t1, t2, t3, t4) = timestamps(turnaround, 6_500);
            let (req, pending) = requester.request(NodeId(3), t1);
            let (beacon, report) = responder.respond(&req, t2, t3).unwrap();
            let obs = pending
                .on_beacon(&beacon, t4, 100.0)
                .unwrap()
                .on_timestamp_report(&report, false)
                .unwrap();
            assert_eq!(obs.rtt, Cycles::new(6_500), "turnaround {turnaround}");
        }
    }

    #[test]
    fn lying_responder_triggers_alert() {
        // A responder declaring a far-away location while physically near.
        let requester = RequesterSession::new(NodeId(500), Point2::new(0.0, 0.0), keys());
        let liar = BeaconResponder::new(NodeId(3), Point2::new(700.0, 0.0), keys());
        // The radio measured 100 ft (true distance), the packet says 700.
        let outcome = exchange(
            &requester,
            &liar,
            &DetectionPipeline::paper_default(),
            timestamps(1_000, 6_600),
            100.0,
        )
        .unwrap();
        assert_eq!(outcome, DetectionOutcome::Alert);
    }

    #[test]
    fn wrong_key_rejected_end_to_end() {
        let requester = RequesterSession::new(NodeId(500), Point2::new(0.0, 0.0), keys());
        let impostor = BeaconResponder::new(
            NodeId(3),
            Point2::new(60.0, 80.0),
            PairwiseKeyStore::new(Key::from_u128(0xbad)), // wrong master
        );
        let (req, pending) = requester.request(NodeId(3), Cycles::new(1000));
        // The impostor cannot even read the request.
        assert!(matches!(
            impostor.respond(&req, Cycles::new(1100), Cycles::new(1200)),
            Err(ProtocolError::Frame(FrameError::BadMac))
        ));
        // And any frame it fabricates fails at the requester.
        let forged = Frame::seal(
            NodeId(3),
            NodeId(500),
            FrameBody::Beacon(BeaconPayload {
                beacon: NodeId(3),
                declared: Point2::new(60.0, 80.0),
            }),
            &Key::from_u128(0xbad),
        );
        assert!(matches!(
            pending.on_beacon(&forged, Cycles::new(9000), 100.0),
            Err(ProtocolError::Frame(FrameError::BadMac))
        ));
    }

    #[test]
    fn identity_binding_enforced() {
        // A frame signed with the right pairwise key but claiming another
        // beacon's identity in the payload is rejected.
        let requester = RequesterSession::new(NodeId(500), Point2::new(0.0, 0.0), keys());
        let (_, pending) = requester.request(NodeId(3), Cycles::new(1000));
        let key = keys().pairwise(NodeId(500), NodeId(3));
        let relabelled = Frame::seal(
            NodeId(3),
            NodeId(500),
            FrameBody::Beacon(BeaconPayload {
                beacon: NodeId(4), // claims to be someone else
                declared: Point2::new(60.0, 80.0),
            }),
            &key,
        );
        assert!(matches!(
            pending.on_beacon(&relabelled, Cycles::new(9000), 100.0),
            Err(ProtocolError::UnexpectedFrame)
        ));
    }

    #[test]
    fn unexpected_frame_types_rejected() {
        let requester = RequesterSession::new(NodeId(500), Point2::new(0.0, 0.0), keys());
        let (_, pending) = requester.request(NodeId(3), Cycles::new(1000));
        let key = keys().pairwise(NodeId(500), NodeId(3));
        let wrong = Frame::seal(
            NodeId(3),
            NodeId(500),
            FrameBody::Request(RequestPayload {
                requester: NodeId(3),
            }),
            &key,
        );
        assert!(matches!(
            pending.on_beacon(&wrong, Cycles::new(9000), 100.0),
            Err(ProtocolError::UnexpectedFrame)
        ));
    }

    #[test]
    fn causality_violations_rejected() {
        let requester = RequesterSession::new(NodeId(500), Point2::new(0.0, 0.0), keys());
        let responder = BeaconResponder::new(NodeId(3), Point2::new(60.0, 80.0), keys());
        // t4 before t1.
        let (req, pending) = requester.request(NodeId(3), Cycles::new(10_000));
        let (beacon, _) = responder
            .respond(&req, Cycles::new(10_100), Cycles::new(10_200))
            .unwrap();
        assert!(matches!(
            pending.on_beacon(&beacon, Cycles::new(5_000), 100.0),
            Err(ProtocolError::BadTimestamps)
        ));
        // Responder-side: t3 before t2.
        let (req2, _) = requester.request(NodeId(3), Cycles::new(10_000));
        assert!(matches!(
            responder.respond(&req2, Cycles::new(10_200), Cycles::new(10_100)),
            Err(ProtocolError::BadTimestamps)
        ));
    }

    #[test]
    fn error_display() {
        assert!(ProtocolError::UnexpectedFrame
            .to_string()
            .contains("unexpected"));
        assert!(ProtocolError::BadTimestamps
            .to_string()
            .contains("causality"));
        assert!(ProtocolError::Frame(FrameError::BadMac)
            .to_string()
            .contains("authentication"));
    }

    #[test]
    fn timestamp_formula_cancels_turnaround() {
        // Sender transmits at 1000, receiver hears at 1010, dawdles 5000
        // cycles in its MAC queue, replies at 6010, sender hears at 6020.
        let rtt = rtt_from_timestamps(
            Cycles::new(1000),
            Cycles::new(1010),
            Cycles::new(6010),
            Cycles::new(6020),
        );
        // (6020-1000) - (6010-1010) = 5020 - 5000 = 20: pure radio delay.
        assert_eq!(rtt, Cycles::new(20));
    }

    #[test]
    fn turnaround_magnitude_is_irrelevant() {
        for pause in [0u64, 100, 1_000_000, 1_000_000_000] {
            let rtt = rtt_from_timestamps(
                Cycles::new(0),
                Cycles::new(30),
                Cycles::new(30 + pause),
                Cycles::new(60 + pause),
            );
            assert_eq!(rtt, Cycles::new(60), "pause {pause}");
        }
    }

    #[test]
    #[should_panic(expected = "t3 must not precede t2")]
    fn causality_enforced() {
        rtt_from_timestamps(
            Cycles::new(0),
            Cycles::new(10),
            Cycles::new(5),
            Cycles::new(20),
        );
    }
}
