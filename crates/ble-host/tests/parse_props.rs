//! Hostile-input properties for the host-side PDU parsers.
//!
//! Everything these parsers read comes off the air, where an injecting
//! attacker controls every byte. Four properties are pinned over arbitrary
//! input:
//!
//! 1. **No panic** — `AttPdu::from_bytes`, `SmpPdu::from_bytes` and
//!    `Uuid::from_bytes` return `None` on malformed bytes instead of
//!    panicking.
//! 2. **Canonical acceptance** — every accepted input re-encodes to exactly
//!    the bytes it was parsed from, so a parser never silently drops
//!    trailing bytes.
//! 3. **Fast path agrees** — `att::parse_handle_value`, the borrowed
//!    steady-state parser, accepts only what `AttPdu::from_bytes` parses to
//!    the same opcode, handle and value.
//! 4. **Bounded reassembly** — `l2cap::Reassembler` fed arbitrary
//!    `(Llid, payload)` sequences never panics and never holds more than one
//!    maximal SDU plus its header and one payload.
//!
//! Inputs start with a known opcode more often than uniform bytes would, so
//! every length check of every opcode is exercised.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // test code may panic freely

use ble_host::att::{self, AttPdu};
use ble_host::l2cap::Reassembler;
use ble_host::smp::SmpPdu;
use ble_host::Uuid;
use ble_link::Llid;
use proptest::collection::vec;
use proptest::prelude::*;

/// Every ATT opcode `AttPdu` models.
const ATT_OPCODES: [u8; 15] = [
    0x01, 0x02, 0x03, 0x08, 0x09, 0x0A, 0x0B, 0x10, 0x11, 0x12, 0x13, 0x1B, 0x1D, 0x1E, 0x52,
];
/// Every SMP opcode `SmpPdu` models.
const SMP_OPCODES: [u8; 5] = [0x01, 0x02, 0x03, 0x04, 0x05];

/// Largest L2CAP SDU (the 16-bit length field) plus its 4-byte header.
const MAX_SDU_WITH_HEADER: usize = 65_539;

/// An opcode from `known`, or any byte, followed by up to 40 arbitrary
/// bytes — or, now and then, a short fully arbitrary input (the empty one
/// included).
fn hostile_pdu(known: &'static [u8]) -> impl Strategy<Value = Vec<u8>> {
    let opcode = prop_oneof![(0..known.len()).prop_map(move |i| known[i]), any::<u8>()];
    prop_oneof![
        (opcode, vec(any::<u8>(), 0..41)).prop_map(|(op, data)| {
            let mut bytes = vec![op];
            bytes.extend(data);
            bytes
        }),
        vec(any::<u8>(), 0..4),
    ]
}

/// A batch of hostile inputs per case, so each property sees thousands.
fn batch(known: &'static [u8]) -> impl Strategy<Value = Vec<Vec<u8>>> {
    vec(hostile_pdu(known), 1..64)
}

/// Mostly continuations, so long SDUs get a chance to fill.
fn llid() -> impl Strategy<Value = Llid> {
    prop_oneof![
        Just(Llid::ContinuationOrEmpty),
        Just(Llid::ContinuationOrEmpty),
        Just(Llid::ContinuationOrEmpty),
        Just(Llid::StartOrComplete),
        Just(Llid::Control),
    ]
}

proptest! {
    #[test]
    fn att_parser_accepts_only_canonical_encodings(inputs in batch(&ATT_OPCODES)) {
        for bytes in &inputs {
            if let Some(pdu) = AttPdu::from_bytes(bytes) {
                prop_assert_eq!(&pdu.to_bytes(), bytes, "{:?}", pdu);
            }
        }
    }

    #[test]
    fn smp_parser_accepts_only_canonical_encodings(inputs in batch(&SMP_OPCODES)) {
        for bytes in &inputs {
            if let Some(pdu) = SmpPdu::from_bytes(bytes) {
                prop_assert_eq!(&pdu.to_bytes(), bytes, "{:?}", pdu);
            }
        }
    }

    #[test]
    fn uuid_parser_accepts_only_canonical_encodings(inputs in vec(vec(any::<u8>(), 0..20), 1..64)) {
        for bytes in &inputs {
            if let Some(uuid) = Uuid::from_bytes(bytes) {
                prop_assert_eq!(&uuid.to_bytes(), bytes);
            }
        }
    }

    #[test]
    fn handle_value_fast_path_agrees_with_the_full_parser(inputs in batch(&ATT_OPCODES)) {
        for bytes in &inputs {
            let Some((op, handle, value)) = att::parse_handle_value(bytes) else {
                continue;
            };
            let expected = match op {
                att::opcode::WRITE_COMMAND => AttPdu::WriteCommand { handle, value: value.to_vec() },
                att::opcode::NOTIFICATION => AttPdu::Notification { handle, value: value.to_vec() },
                other => panic!("fast path accepted opcode {other:#04x}"),
            };
            prop_assert_eq!(AttPdu::from_bytes(bytes), Some(expected));
        }
    }

    #[test]
    fn reassembler_stays_bounded_on_arbitrary_fragments(
        fragments in vec((llid(), vec(any::<u8>(), 0..252)), 0..600)
    ) {
        let mut owned = Reassembler::new();
        let mut scratch = Reassembler::new();
        let mut out = Vec::new();
        for (llid, payload) in &fragments {
            let sdu = owned.push(*llid, payload);
            let cid = scratch.push_into(*llid, payload, &mut out);
            prop_assert!(owned.buffered() <= MAX_SDU_WITH_HEADER + payload.len());
            // The allocating and the scratch-buffer paths agree.
            prop_assert_eq!(sdu.as_ref().map(|(c, _)| *c), cid);
            if let Some((_, sdu)) = sdu {
                prop_assert_eq!(&sdu, &out);
                prop_assert!(sdu.len() <= usize::from(u16::MAX));
            }
        }
    }
}
