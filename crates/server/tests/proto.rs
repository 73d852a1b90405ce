//! Wire-protocol conformance: every malformed frame must surface as a
//! typed [`ProtoError`] — never a panic, never a hang, never a
//! misparse. This is the crash-sweep discipline applied to the wire:
//! the decoder is *total* over arbitrary bytes.

use proptest::prelude::*;
use xmorph_server::proto::{
    decode_stores, encode_frame, encode_stores, fnv1a64, read_frame, read_header,
    read_result_payload, write_frame_parts, ErrorCode, ErrorPayload, OpCode, ProtoError,
    QueryPayload, ResultPayload, StorePayload, WireStats, DEFAULT_MAX_PAYLOAD, FLAG_NO_WRAPPER,
    FLAG_WANT_STATS, HEADER_LEN, PROTO_VERSION,
};

// ---- round trips ----

#[test]
fn payload_roundtrips() {
    let q = QueryPayload {
        store: "xmark".into(),
        threads: 8,
        flags: FLAG_NO_WRAPPER | FLAG_WANT_STATS,
        text: "MORPH author [ !title name ]".into(),
    };
    assert_eq!(QueryPayload::decode(&q.encode()).unwrap(), q);

    let s = StorePayload {
        store: "library".into(),
    };
    assert_eq!(StorePayload::decode(&s.encode()).unwrap(), s);

    let r = ResultPayload {
        typing: 2,
        xml: "<result><a/></result>".into(),
    };
    assert_eq!(ResultPayload::decode(&r.encode()).unwrap(), r);

    let e = ErrorPayload {
        code: ErrorCode::Rejected,
        message: "widening requires a CAST".into(),
    };
    assert_eq!(ErrorPayload::decode(&e.encode()).unwrap(), e);

    let names = vec!["a".to_string(), "b".to_string(), "xmark-1g".to_string()];
    assert_eq!(decode_stores(&encode_stores(&names)).unwrap(), names);
}

#[test]
fn empty_payloads_roundtrip() {
    let q = QueryPayload {
        store: String::new(),
        threads: 0,
        flags: 0,
        text: String::new(),
    };
    assert_eq!(QueryPayload::decode(&q.encode()).unwrap(), q);
    assert_eq!(
        decode_stores(&encode_stores(&[])).unwrap(),
        Vec::<String>::new()
    );
}

#[test]
fn unicode_survives_the_wire() {
    let q = QueryPayload {
        store: "bücher".into(),
        threads: 1,
        flags: 0,
        text: "MORPH livre [ titre ] — ∀shapes".into(),
    };
    let frame_bytes = encode_frame(OpCode::Query, &q.encode());
    let frame = read_frame(&mut frame_bytes.as_slice(), DEFAULT_MAX_PAYLOAD).unwrap();
    assert_eq!(QueryPayload::decode(&frame.payload).unwrap(), q);
}

// ---- targeted malformations ----

fn valid_frame() -> Vec<u8> {
    encode_frame(
        OpCode::Query,
        &QueryPayload {
            store: "s".into(),
            threads: 0,
            flags: 0,
            text: "MORPH a [ b ]".into(),
        }
        .encode(),
    )
}

#[test]
fn truncation_at_every_boundary_is_typed() {
    let frame = valid_frame();
    for cut in 0..frame.len() {
        let result = read_frame(&mut &frame[..cut], DEFAULT_MAX_PAYLOAD);
        match result {
            Err(ProtoError::Truncated) => {}
            other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
        }
    }
}

#[test]
fn bad_magic_is_typed() {
    let mut frame = valid_frame();
    frame[0] ^= 0xff;
    match read_frame(&mut frame.as_slice(), DEFAULT_MAX_PAYLOAD) {
        Err(ProtoError::BadMagic(_)) => {}
        other => panic!("{other:?}"),
    }
}

#[test]
fn bad_version_is_typed() {
    // Rebuild the header with a wrong version and a *correct* header
    // checksum — version checking must not hide behind the checksum.
    let payload = b"x".to_vec();
    let mut frame = encode_frame(OpCode::Ping, &payload);
    frame[8..12].copy_from_slice(&(PROTO_VERSION + 9).to_le_bytes());
    let sum = fnv1a64(&frame[..32]);
    frame[32..40].copy_from_slice(&sum.to_le_bytes());
    match read_frame(&mut frame.as_slice(), DEFAULT_MAX_PAYLOAD) {
        Err(ProtoError::BadVersion(v)) => assert_eq!(v, PROTO_VERSION + 9),
        other => panic!("{other:?}"),
    }
}

#[test]
fn bad_opcode_is_typed() {
    let mut frame = valid_frame();
    frame[12..16].copy_from_slice(&77u32.to_le_bytes());
    let sum = fnv1a64(&frame[..32]);
    frame[32..40].copy_from_slice(&sum.to_le_bytes());
    match read_frame(&mut frame.as_slice(), DEFAULT_MAX_PAYLOAD) {
        Err(ProtoError::BadOpcode(77)) => {}
        other => panic!("{other:?}"),
    }
}

#[test]
fn oversized_is_rejected_before_allocation() {
    // Declare a 1 TiB payload: the reader must reject from the header
    // alone, not try to allocate.
    let mut frame = encode_frame(OpCode::Query, &[]);
    frame[16..24].copy_from_slice(&(1u64 << 40).to_le_bytes());
    let sum = fnv1a64(&frame[..32]);
    frame[32..40].copy_from_slice(&sum.to_le_bytes());
    match read_frame(&mut frame.as_slice(), DEFAULT_MAX_PAYLOAD) {
        Err(ProtoError::Oversized { len, max }) => {
            assert_eq!(len, 1 << 40);
            assert_eq!(max, DEFAULT_MAX_PAYLOAD);
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn corrupt_header_is_typed() {
    let frame = valid_frame();
    // Any single-bit flip in bytes 8..32 (version/opcode/len/payload
    // checksum) must trip the header checksum (or a later typed check);
    // flips in 32..40 corrupt the checksum itself.
    for byte in 8..40 {
        let mut corrupted = frame.clone();
        corrupted[byte] ^= 0x01;
        match read_frame(&mut corrupted.as_slice(), DEFAULT_MAX_PAYLOAD) {
            Err(ProtoError::HeaderChecksum) => {}
            other => panic!("flip at {byte}: expected HeaderChecksum, got {other:?}"),
        }
    }
}

#[test]
fn corrupt_payload_is_typed() {
    let frame = valid_frame();
    for byte in HEADER_LEN..frame.len() {
        let mut corrupted = frame.clone();
        corrupted[byte] ^= 0x01;
        match read_frame(&mut corrupted.as_slice(), DEFAULT_MAX_PAYLOAD) {
            Err(ProtoError::PayloadChecksum) => {}
            other => panic!("flip at {byte}: expected PayloadChecksum, got {other:?}"),
        }
    }
}

/// A `RESULT` frame read the client's way: header, then the typing
/// byte apart from the XML.
fn read_result(bytes: &[u8]) -> Result<ResultPayload, ProtoError> {
    let mut r = bytes;
    let (header, opcode, len) = read_header(&mut r, DEFAULT_MAX_PAYLOAD)?;
    assert_eq!(opcode, OpCode::Result);
    read_result_payload(&mut r, &header, len)
}

fn result_frame() -> (ResultPayload, Vec<u8>) {
    let result = ResultPayload {
        typing: 2,
        xml: "<r>é&amp;</r>".into(),
    };
    let frame = encode_frame(OpCode::Result, &result.encode());
    (result, frame)
}

#[test]
fn result_read_apart_from_its_typing_byte_matches_decode() {
    let (result, frame) = result_frame();
    assert_eq!(read_result(&frame).unwrap(), result);
    let empty = encode_frame(OpCode::Result, &[]);
    assert!(matches!(
        read_result(&empty),
        Err(ProtoError::BadPayload("typing"))
    ));
    let bad_typing = encode_frame(OpCode::Result, &[4, b'x']);
    assert!(matches!(
        read_result(&bad_typing),
        Err(ProtoError::BadPayload(_))
    ));
}

#[test]
fn result_read_catches_every_payload_flip_and_cut() {
    let (_, frame) = result_frame();
    // The typing byte and every XML byte are under the checksum.
    for byte in HEADER_LEN..frame.len() {
        let mut corrupted = frame.clone();
        corrupted[byte] ^= 0x01;
        match read_result(&corrupted) {
            Err(ProtoError::PayloadChecksum) => {}
            other => panic!("flip at {byte}: expected PayloadChecksum, got {other:?}"),
        }
    }
    for cut in HEADER_LEN..frame.len() {
        match read_result(&frame[..cut]) {
            Err(ProtoError::Truncated) => {}
            other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
        }
    }
}

// ---- the property: decoding is total ----

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    // Arbitrary bytes through the frame reader: always a typed error
    // or a valid frame, never a panic. (A hang is impossible against
    // an in-memory reader — EOF is immediate.)
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = read_frame(&mut bytes.as_slice(), DEFAULT_MAX_PAYLOAD);
    }

    // Arbitrary bytes through every payload decoder: typed errors
    // only, and any successful decode re-encodes losslessly where the
    // layout is canonical.
    #[test]
    fn payload_decoders_are_total(bytes in prop::collection::vec(any::<u8>(), 0..192)) {
        if let Ok(q) = QueryPayload::decode(&bytes) {
            prop_assert_eq!(QueryPayload::decode(&q.encode()).unwrap(), q);
        }
        if let Ok(s) = StorePayload::decode(&bytes) {
            prop_assert_eq!(&s.encode(), &bytes);
        }
        if let Ok(r) = ResultPayload::decode(&bytes) {
            prop_assert_eq!(&r.encode(), &bytes);
        }
        prop_assert_eq!(
            format!("{:?}", ResultPayload::decode_owned(bytes.clone())),
            format!("{:?}", ResultPayload::decode(&bytes))
        );
        if let Ok(e) = ErrorPayload::decode(&bytes) {
            prop_assert_eq!(&e.encode(), &bytes);
        }
        if let Ok(w) = WireStats::decode(&bytes) {
            prop_assert_eq!(&w.encode(), &bytes);
        }
        let _ = decode_stores(&bytes);
    }

    // A payload written in parts is the frame of their concatenation,
    // byte for byte, wherever the cuts fall.
    #[test]
    fn frames_written_in_parts_match_the_joined_frame(
        payload in prop::collection::vec(any::<u8>(), 0..192),
        cuts in prop::collection::vec(any::<u16>(), 0..4),
    ) {
        let mut at: Vec<usize> = cuts
            .iter()
            .map(|&c| usize::from(c) % (payload.len() + 1))
            .collect();
        at.sort_unstable();
        let mut parts = Vec::new();
        let mut start = 0;
        for end in at.into_iter().chain([payload.len()]) {
            parts.push(&payload[start..end]);
            start = end;
        }
        let mut written = Vec::new();
        write_frame_parts(&mut written, OpCode::Result, &parts).unwrap();
        prop_assert_eq!(written, encode_frame(OpCode::Result, &payload));
    }

    // A valid frame with any prefix of corruption: the reader reports
    // a typed error or (when the corruption misses the checked bytes)
    // the original frame — it never misparses into a *different*
    // frame.
    #[test]
    fn corrupted_frames_never_misparse(
        flip_at in 0usize..128,
        flip_mask in 1u8..=255,
    ) {
        let original = valid_frame();
        let mut corrupted = original.clone();
        let idx = flip_at % corrupted.len();
        corrupted[idx] ^= flip_mask;
        match read_frame(&mut corrupted.as_slice(), DEFAULT_MAX_PAYLOAD) {
            Err(_) => {}
            Ok(frame) => {
                // Only reachable if the flip cancelled out, which a
                // single XOR with a nonzero mask cannot do — so any
                // Ok must be the original frame.
                let reference = read_frame(&mut original.as_slice(), DEFAULT_MAX_PAYLOAD).unwrap();
                prop_assert_eq!(frame, reference);
            }
        }
    }
}
