//! Authenticated frames exchanged over the radio.
//!
//! "Every beacon packet is authenticated (and potentially encrypted) with
//! the pairwise key shared between two communicating nodes. Hence, beacon
//! packets forged by external attackers that do not have the right keys can
//! be easily filtered out" (§2). Frames here carry a MAC computed with
//! [`Mac`]; [`Frame::open`] rejects tampered or mis-keyed frames, which is
//! exactly the filtering the paper assumes.

use crate::{Key, Mac};
use secloc_crypto::NodeId;
use secloc_geometry::Point2;
use secloc_radio::Cycles;
use std::fmt;

/// Error opening a received frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The MAC did not verify — forged, corrupted, or wrong key.
    BadMac,
    /// The frame was addressed to a different node.
    WrongDestination {
        /// The destination the frame actually names.
        actual: NodeId,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMac => write!(f, "message authentication failed"),
            FrameError::WrongDestination { actual } => {
                write!(f, "frame addressed to {actual}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Request for a beacon signal (stage 1 of location discovery, and the
/// opening move of the paper's detection protocol).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestPayload {
    /// Wire identity of the requester. For a detecting beacon node this is
    /// one of its *detecting IDs*, not its beacon ID.
    pub requester: NodeId,
}

/// A beacon signal's packet: the beacon's claimed identity and location.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeaconPayload {
    /// Claimed beacon identity.
    pub beacon: NodeId,
    /// Location declared in the beacon packet. A compromised beacon may
    /// declare anything here.
    pub declared: Point2,
}

/// The semantic content of a frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FrameBody {
    /// A beacon-signal request.
    Request(RequestPayload),
    /// A beacon signal.
    Beacon(BeaconPayload),
    /// An alert reported to the base station: `reporter` accuses `target`.
    Alert {
        /// The detecting node raising the alert.
        reporter: NodeId,
        /// The beacon node being accused.
        target: NodeId,
    },
    /// A timestamp-exchange message carrying `t3 - t2` for RTT computation.
    TimestampReport {
        /// The receiver-side turnaround `t3 − t2`, in cycles.
        turnaround: Cycles,
    },
}

impl FrameBody {
    /// Canonical byte encoding (also the MAC input).
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24);
        match self {
            FrameBody::Request(r) => {
                out.push(0x01);
                out.extend_from_slice(&r.requester.0.to_le_bytes());
            }
            FrameBody::Beacon(b) => {
                out.push(0x02);
                out.extend_from_slice(&b.beacon.0.to_le_bytes());
                out.extend_from_slice(&b.declared.x.to_le_bytes());
                out.extend_from_slice(&b.declared.y.to_le_bytes());
            }
            FrameBody::Alert { reporter, target } => {
                out.push(0x03);
                out.extend_from_slice(&reporter.0.to_le_bytes());
                out.extend_from_slice(&target.0.to_le_bytes());
            }
            FrameBody::TimestampReport { turnaround } => {
                out.push(0x04);
                out.extend_from_slice(&turnaround.as_u64().to_le_bytes());
            }
        }
        out
    }
}

/// A unicast, MAC-authenticated frame.
///
/// # Examples
///
/// ```
/// use secloc_crypto::NodeId;
/// use secloc_geometry::Point2;
/// use secloc_oracle::{BeaconPayload, Frame, FrameBody, Key};
///
/// let key = Key::from_u128(5);
/// let body = FrameBody::Beacon(BeaconPayload {
///     beacon: NodeId(3),
///     declared: Point2::new(10.0, 20.0),
/// });
/// let frame = Frame::seal(NodeId(3), NodeId(9), body, &key);
/// assert!(frame.open(NodeId(9), &key).is_ok());
/// assert!(frame.open(NodeId(9), &Key::from_u128(6)).is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Frame {
    src: NodeId,
    dst: NodeId,
    body: FrameBody,
    mac: Mac,
}

impl Frame {
    /// Link-layer overhead in bytes: preamble+sync (6), src (4), dst (4),
    /// MAC tag (8), CRC (2).
    pub const OVERHEAD_BYTES: u64 = 24;

    /// Builds and authenticates a frame from `src` to `dst`.
    pub fn seal(src: NodeId, dst: NodeId, body: FrameBody, key: &Key) -> Frame {
        let mac = Mac::compute(key, &Self::mac_input(src, dst, &body));
        Frame {
            src,
            dst,
            body,
            mac,
        }
    }

    /// Verifies and unwraps a frame received by `me` under `key`.
    ///
    /// # Errors
    ///
    /// - [`FrameError::WrongDestination`] when the frame names a different
    ///   destination;
    /// - [`FrameError::BadMac`] when authentication fails (forgery,
    ///   corruption, or wrong pairwise key).
    pub fn open(&self, me: NodeId, key: &Key) -> Result<FrameBody, FrameError> {
        if self.dst != me {
            return Err(FrameError::WrongDestination { actual: self.dst });
        }
        if !self
            .mac
            .verify(key, &Self::mac_input(self.src, self.dst, &self.body))
        {
            return Err(FrameError::BadMac);
        }
        Ok(self.body)
    }

    /// Claimed source identity (unauthenticated until [`Frame::open`]).
    pub fn src(&self) -> NodeId {
        self.src
    }

    /// Destination identity.
    pub fn dst(&self) -> NodeId {
        self.dst
    }

    /// The body *without* verification — for attackers inspecting traffic
    /// and for tests. Honest nodes must use [`Frame::open`].
    pub fn peek_body(&self) -> FrameBody {
        self.body
    }

    /// Returns a bit-identical copy with a different claimed source —
    /// models an attacker re-labelling a captured frame. The MAC is *not*
    /// recomputed, so honest receivers will reject the result unless the
    /// attacker also controls the key.
    pub fn with_forged_src(&self, src: NodeId) -> Frame {
        Frame { src, ..*self }
    }

    /// Total on-air size in bytes (payload + [`Frame::OVERHEAD_BYTES`]).
    pub fn wire_bytes(&self) -> u64 {
        self.body.encode().len() as u64 + Self::OVERHEAD_BYTES
    }

    /// Transmission time of the whole frame at the modelled bit rate.
    pub fn transmission_time(&self) -> Cycles {
        Cycles::from_bytes(self.wire_bytes())
    }

    fn mac_input(src: NodeId, dst: NodeId, body: &FrameBody) -> Vec<u8> {
        let mut input = Vec::with_capacity(32);
        input.extend_from_slice(&src.0.to_le_bytes());
        input.extend_from_slice(&dst.0.to_le_bytes());
        input.extend_from_slice(&body.encode());
        input
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> Key {
        Key::from_u128(0x1234)
    }

    #[test]
    fn seal_open_roundtrip_all_bodies() {
        let bodies = [
            FrameBody::Request(RequestPayload {
                requester: NodeId(7),
            }),
            FrameBody::Beacon(BeaconPayload {
                beacon: NodeId(1),
                declared: Point2::new(-3.5, 900.25),
            }),
            FrameBody::Alert {
                reporter: NodeId(2),
                target: NodeId(3),
            },
            FrameBody::TimestampReport {
                turnaround: Cycles::new(12345),
            },
        ];
        for body in bodies {
            let f = Frame::seal(NodeId(1), NodeId(2), body, &key());
            assert_eq!(f.open(NodeId(2), &key()).unwrap(), body);
        }
    }

    #[test]
    fn wrong_key_rejected() {
        let f = Frame::seal(
            NodeId(1),
            NodeId(2),
            FrameBody::Request(RequestPayload {
                requester: NodeId(1),
            }),
            &key(),
        );
        assert_eq!(
            f.open(NodeId(2), &Key::from_u128(0x9999)),
            Err(FrameError::BadMac)
        );
    }

    #[test]
    fn wrong_destination_rejected() {
        let f = Frame::seal(
            NodeId(1),
            NodeId(2),
            FrameBody::Request(RequestPayload {
                requester: NodeId(1),
            }),
            &key(),
        );
        assert_eq!(
            f.open(NodeId(3), &key()),
            Err(FrameError::WrongDestination { actual: NodeId(2) })
        );
    }

    #[test]
    fn forged_source_fails_authentication() {
        // A masquerading external attacker relabels a frame; the MAC binds
        // the true source, so verification fails (the paper's "easily
        // filtered out" property).
        let f = Frame::seal(
            NodeId(1),
            NodeId(2),
            FrameBody::Beacon(BeaconPayload {
                beacon: NodeId(1),
                declared: Point2::new(0.0, 0.0),
            }),
            &key(),
        );
        let forged = f.with_forged_src(NodeId(99));
        assert_eq!(forged.open(NodeId(2), &key()), Err(FrameError::BadMac));
    }

    #[test]
    fn body_tampering_detected() {
        let honest = Frame::seal(
            NodeId(1),
            NodeId(2),
            FrameBody::Beacon(BeaconPayload {
                beacon: NodeId(1),
                declared: Point2::new(10.0, 10.0),
            }),
            &key(),
        );
        // Reuse the honest MAC with a different body.
        let tampered = Frame {
            body: FrameBody::Beacon(BeaconPayload {
                beacon: NodeId(1),
                declared: Point2::new(500.0, 10.0),
            }),
            ..honest
        };
        assert_eq!(tampered.open(NodeId(2), &key()), Err(FrameError::BadMac));
    }

    #[test]
    fn distinct_bodies_encode_distinctly() {
        let a = FrameBody::Alert {
            reporter: NodeId(1),
            target: NodeId(2),
        };
        let b = FrameBody::Alert {
            reporter: NodeId(2),
            target: NodeId(1),
        };
        assert_ne!(a.encode(), b.encode());
        let r = FrameBody::Request(RequestPayload {
            requester: NodeId(1),
        });
        assert_ne!(a.encode()[0], r.encode()[0], "tag bytes differ");
    }

    #[test]
    fn wire_size_and_transmission_time() {
        let f = Frame::seal(
            NodeId(1),
            NodeId(2),
            FrameBody::Beacon(BeaconPayload {
                beacon: NodeId(1),
                declared: Point2::new(1.0, 2.0),
            }),
            &key(),
        );
        // 1 tag + 4 id + 16 coords + 24 overhead = 45 bytes.
        assert_eq!(f.wire_bytes(), 45);
        assert_eq!(f.transmission_time(), Cycles::from_bytes(45));
        // A whole-packet replay delay vastly exceeds the 4.5-bit margin.
        assert!(f.transmission_time().as_bits() > 100.0);
    }

    #[test]
    fn accessors() {
        let f = Frame::seal(
            NodeId(5),
            NodeId(6),
            FrameBody::Request(RequestPayload {
                requester: NodeId(5),
            }),
            &key(),
        );
        assert_eq!(f.src(), NodeId(5));
        assert_eq!(f.dst(), NodeId(6));
        assert!(matches!(f.peek_body(), FrameBody::Request(_)));
    }

    #[test]
    fn error_display() {
        assert_eq!(
            FrameError::BadMac.to_string(),
            "message authentication failed"
        );
        assert!(FrameError::WrongDestination { actual: NodeId(4) }
            .to_string()
            .contains("n4"));
    }
}
