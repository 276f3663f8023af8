//! Property fuzzing of the wire codec (`voronet-net`).
//!
//! Three properties, run from unit tests here and from the fuzz binary's
//! `--codec` pass (the CI `net-smoke` budget):
//!
//! 1. **Round-trip** — every randomly generated frame decodes, and
//!    re-encoding the decoded message reproduces the identical bytes
//!    (the codec is canonical: one message, one byte string).
//! 2. **Truncation totality** — every strict prefix of a valid frame
//!    decodes to a typed [`DecodeError`](voronet_net::DecodeError),
//!    never a panic and never a bogus success.
//! 3. **Corruption totality** — byte-flipped frames and arbitrary byte
//!    soup either decode to some valid message (which must then
//!    round-trip canonically itself) or fail with a typed error; the
//!    decoder never panics and never reads out of bounds.
//!
//! Failures shrink through [`check_cases`](crate::prop::check_cases)'s
//! byte-vector shrinking, so a reported counterexample is a
//! near-minimal frame.

use rand::rngs::StdRng;
use rand::RngExt;
use voronet_geom::{Point2, Rect};
use voronet_net::frame::HEADER_LEN;
use voronet_net::wire::{EntryList, IdList, PointList, WireMsg, WirePurpose, WireQuery};
use voronet_sim::TransportStats;

fn point(rng: &mut StdRng) -> Point2 {
    // Mix well-behaved coordinates with adversarial bit patterns.
    match rng.random_range(0..4u32) {
        0 => Point2::new(f64::from_bits(rng.random()), f64::from_bits(rng.random())),
        _ => Point2::new(rng.random(), rng.random()),
    }
}

fn rect(rng: &mut StdRng) -> Rect {
    Rect::new(point(rng), point(rng))
}

fn purpose(rng: &mut StdRng) -> WirePurpose {
    match rng.random_range(0..4u32) {
        0 => WirePurpose::Join {
            position: point(rng),
            token: rng.random(),
        },
        1 => WirePurpose::Query {
            token: rng.random(),
        },
        2 => WirePurpose::Area {
            rect: rect(rng),
            token: rng.random(),
        },
        _ => WirePurpose::Radius {
            center: point(rng),
            radius: rng.random(),
            token: rng.random(),
        },
    }
}

fn ids(rng: &mut StdRng, max: usize) -> Vec<u64> {
    (0..rng.random_range(0..max))
        .map(|_| rng.random())
        .collect()
}

fn stats(rng: &mut StdRng) -> TransportStats {
    let mut s = TransportStats::new();
    s.frames_sent = rng.random();
    s.frames_delivered = rng.random();
    s.dropped_loss = rng.random();
    s.dropped_partition = rng.random();
    s.dead_letters = rng.random();
    s.oversized = rng.random();
    s.decode_errors = rng.random();
    s.reconnects = rng.random();
    s
}

/// Encodes one random message (random variant, random field content,
/// adversarial floats included) into a complete frame.
pub fn random_frame(rng: &mut StdRng) -> Vec<u8> {
    let from: u64 = rng.random();
    let to: u64 = rng.random();
    let mut buf = Vec::new();
    let mut s1 = Vec::new();
    let mut s2 = Vec::new();
    let mut s3 = Vec::new();
    let msg = match rng.random_range(0..28u32) {
        0 => WireMsg::Hello,
        1 => WireMsg::RouteStep {
            target: point(rng),
            origin: rng.random(),
            hops: rng.random(),
            purpose: purpose(rng),
        },
        2 => WireMsg::Ping {
            reply: rng.random(),
        },
        3 => {
            let entries: Vec<(u64, Point2)> = (0..rng.random_range(0..24usize))
                .map(|_| (rng.random(), point(rng)))
                .collect();
            let cell: Vec<Point2> = (0..rng.random_range(0..16usize))
                .map(|_| point(rng))
                .collect();
            let vn = ids(rng, 24);
            WireMsg::ViewUpdate {
                object: rng.random(),
                seq: rng.random(),
                coords: point(rng),
                routing: EntryList::build(&mut s1, &entries),
                vn: IdList::build(&mut s2, &vn),
                cell: PointList::build(&mut s3, &cell),
            }
        }
        4 => WireMsg::ViewAck {
            object: rng.random(),
            seq: rng.random(),
        },
        5 => WireMsg::Evict {
            object: rng.random(),
            seq: rng.random(),
        },
        6 => WireMsg::EvictAck {
            object: rng.random(),
            seq: rng.random(),
        },
        7 => WireMsg::RouteReq {
            token: rng.random(),
            from_object: rng.random(),
            target: point(rng),
        },
        8 => WireMsg::AreaReq {
            token: rng.random(),
            from_object: rng.random(),
            rect: rect(rng),
        },
        9 => WireMsg::RadiusReq {
            token: rng.random(),
            from_object: rng.random(),
            center: point(rng),
            radius: rng.random(),
        },
        10 => WireMsg::AnswerOwner {
            token: rng.random(),
            owner: rng.random(),
            hops: rng.random(),
        },
        11 => {
            let matches = ids(rng, 256);
            WireMsg::AnswerMatches {
                token: rng.random(),
                hops: rng.random(),
                visited: rng.random(),
                matches: IdList::build(&mut s1, &matches),
            }
        }
        12 => WireMsg::FloodProbe {
            token: rng.random(),
            object: rng.random(),
            query: if rng.random() {
                WireQuery::Rect(rect(rng))
            } else {
                WireQuery::Disk {
                    center: point(rng),
                    radius: rng.random(),
                }
            },
        },
        13 => {
            let neighbours = ids(rng, 24);
            WireMsg::FloodReply {
                token: rng.random(),
                object: rng.random(),
                eligible: rng.random(),
                is_match: rng.random(),
                neighbours: IdList::build(&mut s1, &neighbours),
            }
        }
        14 => WireMsg::StatsReq,
        15 => WireMsg::StatsReply {
            stats: stats(rng),
            ops_served: rng.random(),
        },
        16 => WireMsg::Shutdown,
        17 => WireMsg::SvcSubscribe {
            object: rng.random(),
            seq: rng.random(),
            region: rect(rng),
        },
        18 => WireMsg::SvcUnsubscribe {
            object: rng.random(),
            seq: rng.random(),
        },
        19 => WireMsg::SvcDeliver {
            object: rng.random(),
            seq: rng.random(),
            topic: [rng.random(), rng.random(), rng.random(), rng.random()],
            topic_seq: rng.random(),
            payload: rng.random(),
        },
        20 => WireMsg::SvcKvStore {
            object: rng.random(),
            seq: rng.random(),
            key: rng.random(),
            value: rng.random(),
        },
        21 => WireMsg::SvcKvDrop {
            object: rng.random(),
            seq: rng.random(),
            key: rng.random(),
        },
        22 => WireMsg::SvcKvFetch {
            token: rng.random(),
            object: rng.random(),
            key: rng.random(),
        },
        23 => WireMsg::SvcKvValue {
            token: rng.random(),
            value: if rng.random() {
                Some(rng.random())
            } else {
                None
            },
        },
        24 => WireMsg::SvcAck {
            object: rng.random(),
            seq: rng.random(),
        },
        25 => WireMsg::SvcKvReplicate {
            object: rng.random(),
            seq: rng.random(),
            key: rng.random(),
            value: rng.random(),
            entry_seq: rng.random(),
        },
        26 => WireMsg::SvcKvFetchReplica {
            token: rng.random(),
            object: rng.random(),
            key: rng.random(),
        },
        _ => WireMsg::SvcKvReplicaValue {
            token: rng.random(),
            entry_seq: rng.random(),
            value: if rng.random() {
                Some(rng.random())
            } else {
                None
            },
        },
    };
    msg.encode(from, to, &mut buf)
        .expect("generated frames fit");
    buf
}

/// Property 1: a valid frame decodes and re-encodes to identical bytes.
pub fn check_roundtrip(frame: &[u8]) -> Result<(), String> {
    let (header, msg) =
        WireMsg::decode(frame).map_err(|e| format!("valid frame failed to decode: {e}"))?;
    let mut again = Vec::new();
    msg.encode(header.from, header.to, &mut again)
        .map_err(|e| format!("decoded message failed to re-encode: {e}"))?;
    crate::tk_ensure_eq!(
        frame,
        &again[..],
        "re-encoding must reproduce the frame bytes"
    );
    Ok(())
}

/// Property 2: every strict prefix of a valid frame is a typed error.
pub fn check_truncations(frame: &[u8]) -> Result<(), String> {
    for cut in 0..frame.len() {
        crate::tk_ensure!(
            WireMsg::decode(&frame[..cut]).is_err(),
            "prefix of length {cut} of a {}-byte frame must not decode",
            frame.len()
        );
    }
    Ok(())
}

/// Property 3: corrupted frames never panic the decoder, and anything
/// that still decodes re-encodes to a canonical *fixpoint*: decoding may
/// normalise adversarial field content (e.g. a rectangle whose corners
/// were flipped out of min/max order), so one re-encode is allowed to
/// differ from the corrupted bytes — but it must then round-trip
/// identically forever after.  `flips` are `(byte index modulo frame
/// length, xor mask)` pairs.
pub fn check_corruption(frame: &[u8], flips: &[(usize, u8)]) -> Result<(), String> {
    let mut bytes = frame.to_vec();
    for &(at, mask) in flips {
        if !bytes.is_empty() {
            let at = at % bytes.len();
            bytes[at] ^= mask;
        }
    }
    match WireMsg::decode(&bytes) {
        Err(_) => Ok(()), // typed rejection is the expected outcome
        Ok((header, msg)) => {
            let mut again = Vec::new();
            msg.encode(header.from, header.to, &mut again)
                .map_err(|e| format!("surviving corruption failed to re-encode: {e}"))?;
            check_roundtrip(&again)
                .map_err(|e| format!("canonicalised corruption is not a fixpoint: {e}"))
        }
    }
}

/// Runs the full codec pass: `cases` seeded cases of each property, with
/// shrinking on failure.  `base_seed` namespaces the pass.
pub fn run_codec_pass(cases: u64, base_seed: u64) {
    crate::prop::check_cases(
        "codec round-trip",
        cases,
        base_seed,
        random_frame,
        |frame| check_roundtrip(frame),
    );
    crate::prop::check_cases(
        "codec truncation totality",
        cases,
        base_seed ^ 0x007A_C0DE,
        random_frame,
        |frame| check_truncations(frame),
    );
    crate::prop::check_cases(
        "codec corruption totality",
        cases,
        base_seed ^ 0x000F_11F5,
        |rng| {
            let frame = random_frame(rng);
            let flips: Vec<(usize, u8)> = (0..rng.random_range(1..8usize))
                .map(|_| (rng.random_range(0..frame.len().max(1)), rng.random()))
                .collect();
            (frame, flips)
        },
        |(frame, flips)| check_corruption(frame, flips),
    );
    crate::prop::check_cases(
        "decoder totality on byte soup",
        cases,
        base_seed ^ 0x50_0B,
        |rng| {
            let len = rng.random_range(0..(HEADER_LEN * 4));
            (0..len).map(|_| rng.random::<u8>()).collect::<Vec<u8>>()
        },
        |bytes| {
            let _ = WireMsg::decode(bytes); // must return, not panic
            Ok(())
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn codec_pass_holds_on_the_unit_test_budget() {
        run_codec_pass(64, 0xC0DEC);
    }

    #[test]
    fn truncation_check_catches_a_decoding_prefix() {
        // A frame followed by itself: the prefix at the first frame's
        // boundary decodes, so the truncation property must flag it.
        let mut rng = StdRng::seed_from_u64(1);
        let frame = random_frame(&mut rng);
        let mut doubled = frame.clone();
        doubled.extend_from_slice(&frame);
        assert!(check_truncations(&doubled).is_err());
    }
}
