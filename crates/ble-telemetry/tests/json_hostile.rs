//! Property tests: the shared JSON reader and the JSONL decoder survive
//! hostile input.
//!
//! Campaign sidecars, telemetry logs and perfgate artefacts are read back
//! from disk, where a killed process leaves torn lines and anything else
//! may leave garbage. Every input here must come back as a value or an
//! error, never as a panic or a stack overflow.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // test code may panic freely

use ble_telemetry::json;
use ble_telemetry::jsonl::{parse_line, to_line};
use ble_telemetry::{LinkRole, SpanKind, TelemetryEvent, TelemetryRecord};
use proptest::collection::vec;
use proptest::prelude::*;
use simkit::Instant;

/// A miniature artefact in the shape `bench::report::rows_to_json` writes.
const ARTEFACT: &str = "[\n  {\"parameter\":\"hop\",\"value\":36,\"succeeded\":5,\
    \"trials\":5,\"raw\":[1, 2, 2, 3, 4],\"anchor_error_us\":{\"count\":5,\
    \"mean\":4.100,\"p50\":4},\"lead_time_us\":null,\"events_per_sec\":1000.0,\
    \"phase_profile\":[{\"phase\":\"trial-sync\",\"count\":5,\"sim_ns\":500000000}]}\n]\n";

fn records() -> Vec<TelemetryRecord> {
    [
        TelemetryEvent::NodeAdded {
            label: "victim \"central\"\n".into(),
        },
        TelemetryEvent::Anchor {
            role: LinkRole::Master,
            channel: 9,
            at: Instant::from_nanos(999),
        },
        TelemetryEvent::SpanExit {
            id: 17,
            kind: SpanKind::AttackerInject,
            detail: 23,
            sim_ns: u64::MAX,
            wall_ns: 431,
            self_sim_ns: 1_100_000,
            self_wall_ns: 399,
        },
        TelemetryEvent::AnchorPrediction { error_us: -3.125 },
    ]
    .into_iter()
    .map(|event| TelemetryRecord {
        at: Instant::from_nanos(u64::MAX),
        node: Some(3),
        event,
    })
    .collect()
}

#[test]
fn every_truncation_of_a_jsonl_record_is_none() {
    for record in records() {
        let line = to_line(&record);
        assert_eq!(parse_line(&line).as_ref(), Some(&record));
        for (cut, _) in line.char_indices() {
            let torn = line.get(..cut).unwrap();
            assert_eq!(parse_line(torn), None, "torn line parsed: {torn}");
            assert!(json::parse(torn).is_err(), "torn line parsed: {torn}");
        }
    }
}

#[test]
fn every_truncation_of_an_artefact_is_an_error() {
    let full = ARTEFACT.trim_end();
    assert!(json::parse(full).is_ok());
    for (cut, _) in full.char_indices() {
        assert!(
            json::parse(full.get(..cut).unwrap()).is_err(),
            "prefix {cut} parsed"
        );
    }
}

#[test]
fn deep_nesting_in_a_jsonl_line_is_none() {
    let hostile = format!(
        "{{\"t_ns\":1,\"kind\":\"tx-end\",\"x\":{}",
        "[".repeat(100_000)
    );
    assert_eq!(parse_line(&hostile), None);
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(any::<u8>(), 0..512)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = json::parse(&text);
        let _ = parse_line(&text);
    }

    #[test]
    fn bytes_spliced_into_valid_documents_never_panic(
        bytes in vec(any::<u8>(), 1..64),
        which in 0usize..5,
    ) {
        // JSON-ish bytes make the splice reach deeper into the grammar
        // than uniform noise does.
        const ALPHABET: &[u8] = b"{}[]\",:\\0123456789-+.eEtrufalsn \nu";
        let junk: String = bytes
            .iter()
            .map(|&b| char::from(ALPHABET[usize::from(b) % ALPHABET.len()]))
            .collect();
        let doc = match records().get(which) {
            Some(record) => to_line(record),
            None => ARTEFACT.to_owned(),
        };
        let at = (usize::from(bytes[0]) * doc.len() / 256..=doc.len())
            .find(|&i| doc.is_char_boundary(i))
            .unwrap();
        let spliced = format!("{}{junk}{}", &doc[..at], &doc[at..]);
        let _ = json::parse(&spliced);
        let _ = parse_line(&spliced);
    }
}
