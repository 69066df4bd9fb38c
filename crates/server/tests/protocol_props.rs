//! Wire-protocol round-trip and corruption-rejection property tests:
//! every message type encode/decodes losslessly, every truncation is an explicit
//! error, every bit flip is detected, trailing bytes are rejected, and
//! unknown tags never panic.

use orinoco_core::{CommitKind, SchedulerKind};
use orinoco_server::protocol::{decode_frame, encode_frame, MAX_FRAME_LEN};
use orinoco_server::{
    ConfigSpec, JobResult, JobSpec, Preset, Request, Response, SimResult, SimSpec, WireError,
};
use orinoco_util::prop::forall;
use orinoco_util::Rng;
use orinoco_workloads::Workload;

fn arb_string(rng: &mut Rng) -> String {
    let len = rng.gen_range(0..40u64);
    (0..len)
        .map(|_| char::from_u32(rng.gen_range(0x20..0x2_000u64) as u32).unwrap_or('x'))
        .collect()
}

fn arb_sim_spec(rng: &mut Rng) -> SimSpec {
    SimSpec {
        config: arb_config_spec(rng),
        workload: Workload::ALL[rng.gen_range(0..Workload::ALL.len() as u64) as usize],
        scale: rng.gen_range(1..100u64),
        seed: rng.next_u64(),
        max_instrs: rng.next_u64() >> 20,
        max_cycles: rng.next_u64() >> 20,
        progress_cycles: rng.next_u64() >> 40,
    }
}

fn arb_config_spec(rng: &mut Rng) -> ConfigSpec {
    ConfigSpec {
        preset: Preset::ALL[rng.gen_range(0..Preset::ALL.len() as u64) as usize],
        scheduler: SchedulerKind::ALL[rng.gen_range(0..SchedulerKind::ALL.len() as u64) as usize],
        commit: CommitKind::ALL[rng.gen_range(0..CommitKind::ALL.len() as u64) as usize],
        fast_forward: rng.gen_range(0..2u64) == 0,
        rob_entries: rng.gen_range(0..512u64),
        iq_entries: rng.gen_range(0..256u64),
    }
}

fn arb_request(rng: &mut Rng) -> Request {
    match rng.gen_range(0..3u64) {
        0 => Request::Ping,
        1 => Request::Submit { queue: rng.next_u64(), spec: JobSpec::Sim(arb_sim_spec(rng)) },
        _ => Request::Bye,
    }
}

fn arb_job_result(rng: &mut Rng) -> JobResult {
    JobResult::Sim(SimResult {
        cycles: rng.next_u64(),
        committed: rng.next_u64(),
        stats_debug: arb_string(rng),
        commit_digest: rng.next_u64(),
        stats_digest: rng.next_u64(),
    })
}

fn arb_response(rng: &mut Rng) -> Response {
    match rng.gen_range(0..5u64) {
        0 => Response::Pong,
        1 => Response::Accepted { job_id: rng.next_u64(), cached: rng.gen_range(0..2u64) == 0 },
        2 => Response::Progress {
            job_id: rng.next_u64(),
            cycles: rng.next_u64(),
            committed: rng.next_u64(),
            stalls: arb_string(rng),
        },
        3 => Response::Done { job_id: rng.next_u64(), result: arb_job_result(rng) },
        _ => Response::Failed { job_id: rng.next_u64(), reason: arb_string(rng) },
    }
}

/// One `Sim` spec's canonical bytes and cache key, pinned. The values
/// predate the removal of the other job kinds, so they show that `Sim`
/// kept its wire format and its cache identity. Every field holds a
/// non-default value, and `progress_cycles` (zeroed out of the key) is
/// non-zero.
#[test]
fn sim_encoding_and_cache_key_are_pinned() {
    let spec = JobSpec::Sim(SimSpec {
        config: ConfigSpec {
            preset: Preset::Ultra,
            scheduler: SchedulerKind::CriOrinoco,
            commit: CommitKind::Spec,
            fast_forward: false,
            rob_entries: 256,
            iq_entries: 96,
        },
        workload: Workload::HashjoinLike,
        scale: 3,
        seed: 0x0123_4567_89AB_CDEF,
        max_instrs: 10_000,
        max_cycles: 5_000_000,
        progress_cycles: 1_000,
    });
    let hex: String = spec.encode().iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(
        hex,
        "00020704000001000000000000600000000000000003030000000000\
         0000efcdab89674523011027000000000000404b4c0000000000e8030000\
         00000000"
    );
    assert_eq!(spec.cache_key(), 0x4ee2_94af_4291_f4f6_1538_2440_3112_2ecf);
}

#[test]
fn requests_round_trip() {
    forall("request-roundtrip", 0x5EED, 1_500, |rng| {
        let req = arb_request(rng);
        let decoded = Request::decode(&req.encode()).expect("round trip");
        assert_eq!(decoded, req);
    });
}

#[test]
fn responses_round_trip() {
    forall("response-roundtrip", 0x5EEE, 1_500, |rng| {
        let resp = arb_response(rng);
        let decoded = Response::decode(&resp.encode()).expect("round trip");
        assert_eq!(decoded, resp);
    });
}

#[test]
fn frames_round_trip_and_report_length() {
    forall("frame-roundtrip", 0xF4A3, 500, |rng| {
        let payload = arb_response(rng).encode();
        let frame = encode_frame(&payload);
        let (got, consumed) = decode_frame(&frame).expect("frame round trip");
        assert_eq!(got, &payload[..]);
        assert_eq!(consumed, frame.len());
        // Streaming: a frame followed by garbage still decodes to exactly
        // the frame, with `consumed` marking where the next one starts.
        let mut stream = frame.clone();
        stream.extend_from_slice(b"NOISE");
        let (got2, consumed2) = decode_frame(&stream).expect("prefix decode");
        assert_eq!(got2, &payload[..]);
        assert_eq!(consumed2, frame.len());
    });
}

#[test]
fn every_frame_truncation_is_rejected() {
    forall("frame-truncation", 0x7EBC, 60, |rng| {
        let frame = encode_frame(&arb_request(rng).encode());
        for cut in 0..frame.len() {
            let err = decode_frame(&frame[..cut])
                .expect_err("truncated frame decoded");
            assert!(
                matches!(err, WireError::Truncated(_)),
                "cut at {cut}: expected Truncated, got {err:?}"
            );
        }
    });
}

#[test]
fn every_message_truncation_is_rejected() {
    // Messages themselves (inside a verified frame) must also reject
    // every strict prefix — no message is a prefix of another.
    forall("message-truncation", 0x7EBD, 60, |rng| {
        let req = arb_request(rng).encode();
        for cut in 0..req.len() {
            assert!(Request::decode(&req[..cut]).is_err(), "request prefix {cut} decoded");
        }
        let resp = arb_response(rng).encode();
        for cut in 0..resp.len() {
            assert!(Response::decode(&resp[..cut]).is_err(), "response prefix {cut} decoded");
        }
    });
}

#[test]
fn every_single_bit_flip_is_detected() {
    forall("frame-bitflip", 0xB17F, 25, |rng| {
        let frame = encode_frame(&arb_response(rng).encode());
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut evil = frame.clone();
                evil[byte] ^= 1 << bit;
                match decode_frame(&evil) {
                    Err(_) => {}
                    // A flip in the length field can only *shrink* into a
                    // checksum mismatch or truncation — if it decodes, the
                    // payload must still be the original (impossible: any
                    // surviving decode would need an FNV collision).
                    Ok(_) => panic!("flip at byte {byte} bit {bit} went undetected"),
                }
            }
        }
    });
}

#[test]
fn trailing_bytes_are_rejected() {
    forall("trailing-bytes", 0x7A11, 300, |rng| {
        let mut req = arb_request(rng).encode();
        req.push(0);
        assert!(
            matches!(Request::decode(&req), Err(WireError::TrailingBytes(1))),
            "request with trailing byte decoded"
        );
        let mut resp = arb_response(rng).encode();
        resp.extend_from_slice(&[1, 2, 3]);
        assert!(
            matches!(Response::decode(&resp), Err(WireError::TrailingBytes(3))),
            "response with trailing bytes decoded"
        );
    });
}

#[test]
fn unknown_tags_and_bad_values_are_rejected() {
    // First byte is always the top-level tag; out-of-range values must
    // error, never panic or alias a valid message.
    for tag in 3..=255u8 {
        assert!(matches!(Request::decode(&[tag]), Err(WireError::UnknownTag("request", t)) if t == tag));
    }
    for tag in 5..=255u8 {
        assert!(matches!(Response::decode(&[tag]), Err(WireError::UnknownTag("response", t)) if t == tag));
    }
    // Bad magic and oversize lengths on frames.
    let good = encode_frame(b"hi");
    let mut bad_magic = good.clone();
    bad_magic[0] = b'X';
    assert_eq!(decode_frame(&bad_magic).unwrap_err(), WireError::BadMagic);
    let mut huge = good;
    huge[4..12].copy_from_slice(&(MAX_FRAME_LEN as u64 + 1).to_le_bytes());
    assert!(matches!(decode_frame(&huge), Err(WireError::Oversize(_))));

    // A submit whose enum tags are out of range must be rejected even
    // though the frame checksum is intact.
    let good_submit = Request::Submit {
        queue: 1,
        spec: JobSpec::Sim(SimSpec {
            config: ConfigSpec::orinoco_base(),
            workload: Workload::GemmLike,
            scale: 1,
            seed: 0,
            max_instrs: 0,
            max_cycles: 0,
            progress_cycles: 0,
        }),
    };
    let bytes = good_submit.encode();
    // Job and result kinds: only Sim (0) exists, so every other tag must
    // be rejected, including 1–3, which earlier job kinds used. The kind
    // follows the message tag and the 8-byte queue or job id, at offset 9.
    let done = Response::Done {
        job_id: 1,
        result: JobResult::Sim(SimResult {
            cycles: 1,
            committed: 1,
            stats_debug: String::new(),
            commit_digest: 0,
            stats_digest: 0,
        }),
    }
    .encode();
    for tag in 1..=255u8 {
        let mut evil = bytes.clone();
        evil[9] = tag;
        assert!(
            matches!(Request::decode(&evil), Err(WireError::UnknownTag("job kind", t)) if t == tag),
            "job kind {tag} decoded"
        );
        let mut evil = done.clone();
        evil[9] = tag;
        assert!(
            matches!(Response::decode(&evil), Err(WireError::UnknownTag("result kind", t)) if t == tag),
            "result kind {tag} decoded"
        );
    }
    // Locate the scheduler tag: request tag (1) + queue (8) + job kind (1)
    // + preset (1) = offset 11.
    let mut evil = bytes.clone();
    evil[11] = 200;
    assert!(
        matches!(Request::decode(&evil), Err(WireError::UnknownTag("scheduler", 200))),
        "out-of-range scheduler tag decoded"
    );
    // Zero scale is structurally invalid.
    let zero_scale_at = 11 + 2 + 1 + 16 + 1; // scheduler..=iq_entries then workload
    let mut evil2 = bytes;
    for b in &mut evil2[zero_scale_at..zero_scale_at + 8] {
        *b = 0;
    }
    assert!(
        matches!(Request::decode(&evil2), Err(WireError::BadValue("scale"))),
        "zero-scale spec decoded"
    );
}
