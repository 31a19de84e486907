//! JSONL (one JSON object per line) sink and codec.
//!
//! Every record encodes to a single-level JSON object with scalar fields,
//! strings escaped and lines read back by the shared [`crate::json`]
//! module. Times are integer nanoseconds (exact round-trip);
//! floating-point fields use Rust's shortest-round-trip `Display`, so
//! [`parse_line`] is an exact inverse of [`to_line`] for every event the
//! stack emits.

use std::fmt::Write as _;
use std::fs;
use std::io::{self, Write};
use std::path::Path;

use simkit::{Duration, Instant};

use crate::event::{AlertKind, FaultKind, LinkRole, LossReason, TelemetryEvent, Verdict};
use crate::json::{self, Value};
use crate::sink::{TelemetryRecord, TelemetrySink};
use crate::span::SpanKind;

// ---------------------------------------------------------------------
// encoding
// ---------------------------------------------------------------------

fn push_str_field(out: &mut String, key: &str, value: &str) {
    let _ = write!(out, ",\"{key}\":\"{}\"", json::escaped(value));
}

/// Encodes one record as a single JSON line (no trailing newline).
pub fn to_line(record: &TelemetryRecord) -> String {
    let mut s = String::with_capacity(96);
    let _ = write!(s, "{{\"t_ns\":{}", record.at.as_nanos());
    if let Some(node) = record.node {
        let _ = write!(s, ",\"node\":{node}");
    }
    let _ = write!(s, ",\"kind\":\"{}\"", record.event.tag());
    match &record.event {
        TelemetryEvent::NodeAdded { label } => push_str_field(&mut s, "label", label),
        TelemetryEvent::TxStart {
            channel,
            access_address,
            pdu_len,
            end,
        } => {
            let _ = write!(
                s,
                ",\"ch\":{channel},\"aa\":{access_address},\"len\":{pdu_len},\"end_ns\":{}",
                end.as_nanos()
            );
        }
        TelemetryEvent::TxEnd => {}
        TelemetryEvent::RxLock { channel } | TelemetryEvent::Relock { channel } => {
            let _ = write!(s, ",\"ch\":{channel}");
        }
        TelemetryEvent::RxEnd {
            channel,
            access_address,
            crc_ok,
            interferers,
        } => {
            let _ = write!(
                s,
                ",\"ch\":{channel},\"aa\":{access_address},\"crc_ok\":{crc_ok},\"interferers\":{interferers}"
            );
        }
        TelemetryEvent::Collision {
            channel,
            interferers,
        } => {
            let _ = write!(s, ",\"ch\":{channel},\"interferers\":{interferers}");
        }
        TelemetryEvent::InterferenceSpill { channel } => {
            let _ = write!(s, ",\"ch\":{channel}");
        }
        TelemetryEvent::Anchor { role, channel, at } => {
            let _ = write!(
                s,
                ",\"role\":\"{}\",\"ch\":{channel},\"at_ns\":{}",
                role.as_str(),
                at.as_nanos()
            );
        }
        TelemetryEvent::WindowOpen {
            channel,
            widening,
            deadline,
        } => {
            let _ = write!(
                s,
                ",\"ch\":{channel},\"widening_ns\":{},\"deadline_ns\":{}",
                widening.as_nanos(),
                deadline.as_nanos()
            );
        }
        TelemetryEvent::Hop {
            channel,
            event_counter,
        } => {
            let _ = write!(s, ",\"ch\":{channel},\"ev\":{event_counter}");
        }
        TelemetryEvent::SnNesn { role, sn, nesn } => {
            let _ = write!(
                s,
                ",\"role\":\"{}\",\"sn\":{sn},\"nesn\":{nesn}",
                role.as_str()
            );
        }
        TelemetryEvent::CrcFail { channel } => {
            let _ = write!(s, ",\"ch\":{channel}");
        }
        TelemetryEvent::LlControl { opcode } => {
            let _ = write!(s, ",\"opcode\":{opcode}");
        }
        TelemetryEvent::ConnectionEstablished {
            access_address,
            interval,
        } => {
            let _ = write!(
                s,
                ",\"aa\":{access_address},\"interval_ns\":{}",
                interval.as_nanos()
            );
        }
        TelemetryEvent::ConnectionClosed { reason } => {
            let _ = write!(s, ",\"reason\":{reason}");
        }
        TelemetryEvent::SnifferSync { access_address } => {
            let _ = write!(s, ",\"aa\":{access_address}");
        }
        TelemetryEvent::SnifferLost { reason } => {
            let _ = write!(s, ",\"reason\":\"{}\"", reason.as_str());
        }
        TelemetryEvent::ResyncBackoff { campaign, delay } => {
            let _ = write!(
                s,
                ",\"campaign\":{campaign},\"delay_ns\":{}",
                delay.as_nanos()
            );
        }
        TelemetryEvent::ResyncExhausted { campaigns } => {
            let _ = write!(s, ",\"campaigns\":{campaigns}");
        }
        TelemetryEvent::InjectionAttempt { channel, lead } => {
            let _ = write!(s, ",\"ch\":{channel},\"lead_ns\":{}", lead.as_nanos());
        }
        TelemetryEvent::HeuristicVerdict {
            verdict,
            attempts_total,
        } => {
            let _ = write!(
                s,
                ",\"verdict\":\"{}\",\"total\":{attempts_total}",
                verdict.as_str()
            );
        }
        TelemetryEvent::AnchorPrediction { error_us } => {
            let _ = write!(s, ",\"error_us\":{error_us}");
        }
        TelemetryEvent::IfsDelta { delta_us } => {
            let _ = write!(s, ",\"delta_us\":{delta_us}");
        }
        TelemetryEvent::Takeover { role } => {
            let _ = write!(s, ",\"role\":\"{}\"", role.as_str());
        }
        TelemetryEvent::DetectorAlert { kind, magnitude_us } => {
            let _ = write!(
                s,
                ",\"alert\":\"{}\",\"magnitude_us\":{magnitude_us}",
                kind.as_str()
            );
        }
        TelemetryEvent::PoolExhausted { client } => {
            let _ = write!(s, ",\"client\":{client}");
        }
        TelemetryEvent::SlotDenied => {}
        TelemetryEvent::ConnEstablished { handle } | TelemetryEvent::ConnReleased { handle } => {
            let _ = write!(s, ",\"handle\":{handle}");
        }
        TelemetryEvent::PoolHighWater { in_use } => {
            let _ = write!(s, ",\"in_use\":{in_use}");
        }
        TelemetryEvent::FaultBurst {
            channel,
            power_dbm,
            active,
        } => {
            let _ = write!(
                s,
                ",\"ch\":{channel},\"power_dbm\":{power_dbm},\"active\":{active}"
            );
        }
        TelemetryEvent::FaultEpisode {
            kind,
            magnitude,
            active,
        } => {
            let _ = write!(
                s,
                ",\"fault\":\"{}\",\"magnitude\":{magnitude},\"active\":{active}",
                kind.as_str()
            );
        }
        TelemetryEvent::FaultFrame { kind, channel } => {
            let _ = write!(s, ",\"fault\":\"{}\",\"ch\":{channel}", kind.as_str());
        }
        TelemetryEvent::SpanEnter { id, kind, detail } => {
            let _ = write!(
                s,
                ",\"span\":\"{}\",\"id\":{id},\"detail\":{detail}",
                kind.as_str()
            );
        }
        TelemetryEvent::SpanExit {
            id,
            kind,
            detail,
            sim_ns,
            wall_ns,
            self_sim_ns,
            self_wall_ns,
        } => {
            let _ = write!(
                s,
                ",\"span\":\"{}\",\"id\":{id},\"detail\":{detail},\"sim_ns\":{sim_ns},\"wall_ns\":{wall_ns},\"self_sim_ns\":{self_sim_ns},\"self_wall_ns\":{self_wall_ns}",
                kind.as_str()
            );
        }
    }
    s.push('}');
    s
}

// ---------------------------------------------------------------------
// decoding
// ---------------------------------------------------------------------

fn get_str<'a>(fields: &'a Value, key: &str) -> Option<&'a str> {
    fields.get(key)?.as_str()
}

fn get_num<T: std::str::FromStr>(fields: &Value, key: &str) -> Option<T> {
    fields.get(key)?.as_num()
}

fn get_bool(fields: &Value, key: &str) -> Option<bool> {
    fields.get(key)?.as_bool()
}

/// Decodes one JSONL line back into a record. Exact inverse of [`to_line`];
/// returns `None` on malformed input or an unknown `kind`.
pub fn parse_line(line: &str) -> Option<TelemetryRecord> {
    let fields = json::parse(line).ok()?;
    let at = Instant::from_nanos(get_num(&fields, "t_ns")?);
    let node: Option<u32> = get_num(&fields, "node");
    let kind = get_str(&fields, "kind")?;
    let event = match kind {
        "node" => TelemetryEvent::NodeAdded {
            label: get_str(&fields, "label")?.to_owned(),
        },
        "tx-start" => TelemetryEvent::TxStart {
            channel: get_num(&fields, "ch")?,
            access_address: get_num(&fields, "aa")?,
            pdu_len: get_num(&fields, "len")?,
            end: Instant::from_nanos(get_num(&fields, "end_ns")?),
        },
        "tx-end" => TelemetryEvent::TxEnd,
        "rx-lock" => TelemetryEvent::RxLock {
            channel: get_num(&fields, "ch")?,
        },
        "relock" => TelemetryEvent::Relock {
            channel: get_num(&fields, "ch")?,
        },
        "rx-end" => TelemetryEvent::RxEnd {
            channel: get_num(&fields, "ch")?,
            access_address: get_num(&fields, "aa")?,
            crc_ok: get_bool(&fields, "crc_ok")?,
            interferers: get_num(&fields, "interferers")?,
        },
        "collision" => TelemetryEvent::Collision {
            channel: get_num(&fields, "ch")?,
            interferers: get_num(&fields, "interferers")?,
        },
        "interference-spill" => TelemetryEvent::InterferenceSpill {
            channel: get_num(&fields, "ch")?,
        },
        "anchor" => TelemetryEvent::Anchor {
            role: LinkRole::parse(get_str(&fields, "role")?)?,
            channel: get_num(&fields, "ch")?,
            at: Instant::from_nanos(get_num(&fields, "at_ns")?),
        },
        "window-open" => TelemetryEvent::WindowOpen {
            channel: get_num(&fields, "ch")?,
            widening: Duration::from_nanos(get_num(&fields, "widening_ns")?),
            deadline: Duration::from_nanos(get_num(&fields, "deadline_ns")?),
        },
        "hop" => TelemetryEvent::Hop {
            channel: get_num(&fields, "ch")?,
            event_counter: get_num(&fields, "ev")?,
        },
        "sn-nesn" => TelemetryEvent::SnNesn {
            role: LinkRole::parse(get_str(&fields, "role")?)?,
            sn: get_bool(&fields, "sn")?,
            nesn: get_bool(&fields, "nesn")?,
        },
        "crc-fail" => TelemetryEvent::CrcFail {
            channel: get_num(&fields, "ch")?,
        },
        "ll-control" => TelemetryEvent::LlControl {
            opcode: get_num(&fields, "opcode")?,
        },
        "connected" => TelemetryEvent::ConnectionEstablished {
            access_address: get_num(&fields, "aa")?,
            interval: Duration::from_nanos(get_num(&fields, "interval_ns")?),
        },
        "disconnect" => TelemetryEvent::ConnectionClosed {
            reason: get_num(&fields, "reason")?,
        },
        "sniff-sync" => TelemetryEvent::SnifferSync {
            access_address: get_num(&fields, "aa")?,
        },
        "sniff-lost" => TelemetryEvent::SnifferLost {
            reason: LossReason::parse(get_str(&fields, "reason")?)?,
        },
        "resync-backoff" => TelemetryEvent::ResyncBackoff {
            campaign: get_num(&fields, "campaign")?,
            delay: Duration::from_nanos(get_num(&fields, "delay_ns")?),
        },
        "resync-exhausted" => TelemetryEvent::ResyncExhausted {
            campaigns: get_num(&fields, "campaigns")?,
        },
        "inject" => TelemetryEvent::InjectionAttempt {
            channel: get_num(&fields, "ch")?,
            lead: Duration::from_nanos(get_num(&fields, "lead_ns")?),
        },
        "inject-outcome" => TelemetryEvent::HeuristicVerdict {
            verdict: Verdict::parse(get_str(&fields, "verdict")?)?,
            attempts_total: get_num(&fields, "total")?,
        },
        "anchor-error" => TelemetryEvent::AnchorPrediction {
            error_us: get_num(&fields, "error_us")?,
        },
        "ifs-delta" => TelemetryEvent::IfsDelta {
            delta_us: get_num(&fields, "delta_us")?,
        },
        "takeover" => TelemetryEvent::Takeover {
            role: LinkRole::parse(get_str(&fields, "role")?)?,
        },
        "alert" => TelemetryEvent::DetectorAlert {
            kind: AlertKind::parse(get_str(&fields, "alert")?)?,
            magnitude_us: get_num(&fields, "magnitude_us")?,
        },
        "pool-exhausted" => TelemetryEvent::PoolExhausted {
            client: get_num(&fields, "client")?,
        },
        "slot-denied" => TelemetryEvent::SlotDenied,
        "conn-established" => TelemetryEvent::ConnEstablished {
            handle: get_num(&fields, "handle")?,
        },
        "conn-released" => TelemetryEvent::ConnReleased {
            handle: get_num(&fields, "handle")?,
        },
        "pool-high-water" => TelemetryEvent::PoolHighWater {
            in_use: get_num(&fields, "in_use")?,
        },
        "fault-burst" => TelemetryEvent::FaultBurst {
            channel: get_num(&fields, "ch")?,
            power_dbm: get_num(&fields, "power_dbm")?,
            active: get_bool(&fields, "active")?,
        },
        "fault-episode" => TelemetryEvent::FaultEpisode {
            kind: FaultKind::parse(get_str(&fields, "fault")?)?,
            magnitude: get_num(&fields, "magnitude")?,
            active: get_bool(&fields, "active")?,
        },
        "fault-frame" => TelemetryEvent::FaultFrame {
            kind: FaultKind::parse(get_str(&fields, "fault")?)?,
            channel: get_num(&fields, "ch")?,
        },
        "span-enter" => TelemetryEvent::SpanEnter {
            id: get_num(&fields, "id")?,
            kind: SpanKind::parse(get_str(&fields, "span")?)?,
            detail: get_num(&fields, "detail")?,
        },
        "span-exit" => TelemetryEvent::SpanExit {
            id: get_num(&fields, "id")?,
            kind: SpanKind::parse(get_str(&fields, "span")?)?,
            detail: get_num(&fields, "detail")?,
            sim_ns: get_num(&fields, "sim_ns")?,
            wall_ns: get_num(&fields, "wall_ns")?,
            self_sim_ns: get_num(&fields, "self_sim_ns")?,
            self_wall_ns: get_num(&fields, "self_wall_ns")?,
        },
        _ => return None,
    };
    Some(TelemetryRecord { at, node, event })
}

// ---------------------------------------------------------------------
// the sink
// ---------------------------------------------------------------------

/// Streams records as JSON lines to any [`io::Write`].
///
/// Write errors are sticky: after the first failure the sink goes quiet
/// rather than panicking on the simulation hot path (check
/// [`JsonlSink::is_failed`] after the run).
pub struct JsonlSink {
    out: Box<dyn Write + Send>,
    lines: u64,
    failed: bool,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("lines", &self.lines)
            .field("failed", &self.failed)
            .finish()
    }
}

impl JsonlSink {
    /// Creates (truncates) the file at `path`, creating parent directories
    /// as needed, and buffers writes to it.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let file = fs::File::create(path)?;
        Ok(JsonlSink::from_writer(Box::new(io::BufWriter::new(file))))
    }

    /// Wraps an arbitrary writer (e.g. a `Vec<u8>` in tests).
    pub fn from_writer(out: Box<dyn Write + Send>) -> Self {
        JsonlSink {
            out,
            lines: 0,
            failed: false,
        }
    }

    /// Lines successfully written so far.
    pub fn lines_written(&self) -> u64 {
        self.lines
    }

    /// Whether a write error has silenced the sink.
    pub fn is_failed(&self) -> bool {
        self.failed
    }
}

impl TelemetrySink for JsonlSink {
    fn emit(&mut self, record: &TelemetryRecord) {
        if self.failed {
            return;
        }
        let line = to_line(record);
        if writeln!(self.out, "{line}").is_err() {
            self.failed = true;
        } else {
            self.lines = self.lines.saturating_add(1);
        }
    }

    fn flush(&mut self) {
        if self.out.flush().is_err() {
            self.failed = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(record: &TelemetryRecord) {
        let line = to_line(record);
        let back = parse_line(&line).unwrap_or_else(|| panic!("unparseable: {line}"));
        assert_eq!(&back, record, "line was: {line}");
    }

    #[test]
    fn every_variant_round_trips() {
        let events = vec![
            TelemetryEvent::NodeAdded {
                label: "attacker".into(),
            },
            TelemetryEvent::TxStart {
                channel: 17,
                access_address: 0x8E89_BED6,
                pdu_len: 27,
                end: Instant::from_nanos(1_234_567),
            },
            TelemetryEvent::TxEnd,
            TelemetryEvent::RxLock { channel: 5 },
            TelemetryEvent::Relock { channel: 6 },
            TelemetryEvent::RxEnd {
                channel: 7,
                access_address: 0x1234_5678,
                crc_ok: false,
                interferers: 2,
            },
            TelemetryEvent::Collision {
                channel: 8,
                interferers: 3,
            },
            TelemetryEvent::InterferenceSpill { channel: 11 },
            TelemetryEvent::Anchor {
                role: LinkRole::Master,
                channel: 9,
                at: Instant::from_nanos(999),
            },
            TelemetryEvent::WindowOpen {
                channel: 10,
                widening: Duration::from_nanos(32_500),
                deadline: Duration::from_micros(1_250),
            },
            TelemetryEvent::Hop {
                channel: 11,
                event_counter: 65_535,
            },
            TelemetryEvent::SnNesn {
                role: LinkRole::Slave,
                sn: true,
                nesn: false,
            },
            TelemetryEvent::CrcFail { channel: 12 },
            TelemetryEvent::LlControl { opcode: 0x02 },
            TelemetryEvent::ConnectionEstablished {
                access_address: 0xDEAD_BEEF,
                interval: Duration::from_micros(45_000),
            },
            TelemetryEvent::ConnectionClosed { reason: 0x08 },
            TelemetryEvent::SnifferSync {
                access_address: 0xAB_CDEF,
            },
            TelemetryEvent::SnifferLost {
                reason: LossReason::MissedEvents,
            },
            TelemetryEvent::ResyncBackoff {
                campaign: 3,
                delay: Duration::from_millis(1_000),
            },
            TelemetryEvent::ResyncExhausted { campaigns: 9 },
            TelemetryEvent::InjectionAttempt {
                channel: 13,
                lead: Duration::from_nanos(41_250),
            },
            TelemetryEvent::HeuristicVerdict {
                verdict: Verdict::Rejected,
                attempts_total: 42,
            },
            TelemetryEvent::AnchorPrediction { error_us: -3.125 },
            TelemetryEvent::IfsDelta {
                delta_us: 0.017_578_125,
            },
            TelemetryEvent::Takeover {
                role: LinkRole::Master,
            },
            TelemetryEvent::DetectorAlert {
                kind: AlertKind::EarlyAnchor,
                magnitude_us: 87.5,
            },
            TelemetryEvent::PoolExhausted { client: 3 },
            TelemetryEvent::SlotDenied,
            TelemetryEvent::ConnEstablished { handle: 0x0102 },
            TelemetryEvent::ConnReleased { handle: 0x0202 },
            TelemetryEvent::PoolHighWater { in_use: 17 },
            TelemetryEvent::FaultBurst {
                channel: 17,
                power_dbm: -32.5,
                active: true,
            },
            TelemetryEvent::FaultEpisode {
                kind: FaultKind::Drift,
                magnitude: 400.0,
                active: false,
            },
            TelemetryEvent::FaultFrame {
                kind: FaultKind::Loss,
                channel: 21,
            },
            TelemetryEvent::SpanEnter {
                id: 17,
                kind: SpanKind::AttackerInject,
                detail: 23,
            },
            TelemetryEvent::SpanExit {
                id: 17,
                kind: SpanKind::AttackerInject,
                detail: 23,
                sim_ns: 1_250_000,
                wall_ns: 431,
                self_sim_ns: 1_100_000,
                self_wall_ns: 399,
            },
        ];
        for (i, event) in events.into_iter().enumerate() {
            roundtrip(&TelemetryRecord {
                at: Instant::from_nanos(u64::try_from(i).unwrap() * 1_000_003),
                node: Some(u32::try_from(i % 3).unwrap()),
                event,
            });
        }
    }

    #[test]
    fn node_field_is_optional() {
        roundtrip(&TelemetryRecord {
            at: Instant::ZERO,
            node: None,
            event: TelemetryEvent::TxEnd,
        });
        let line = to_line(&TelemetryRecord {
            at: Instant::ZERO,
            node: None,
            event: TelemetryEvent::TxEnd,
        });
        assert!(!line.contains("\"node\""), "{line}");
    }

    #[test]
    fn string_escaping_round_trips() {
        roundtrip(&TelemetryRecord {
            at: Instant::from_nanos(7),
            node: Some(0),
            event: TelemetryEvent::NodeAdded {
                label: "quote \" backslash \\ newline \n tab \t bell \u{7}".into(),
            },
        });
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert_eq!(parse_line(""), None);
        assert_eq!(parse_line("not json"), None);
        assert_eq!(parse_line("{\"t_ns\":1}"), None); // no kind
        assert_eq!(parse_line("{\"t_ns\":1,\"kind\":\"martian\"}"), None);
        assert_eq!(
            parse_line("{\"t_ns\":1,\"kind\":\"rx-lock\"}"), // missing ch
            None
        );
        // Truncated line, as left by a killed process.
        assert_eq!(parse_line("{\"t_ns\":1,\"kind\":\"rx-lo"), None);
    }

    #[test]
    fn sink_writes_parseable_lines() {
        use std::sync::{Arc, Mutex};

        #[derive(Clone)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let shared = Shared(Arc::new(Mutex::new(Vec::new())));
        let mut sink = JsonlSink::from_writer(Box::new(shared.clone()));
        for i in 0..4u64 {
            sink.emit(&TelemetryRecord {
                at: Instant::from_nanos(i),
                node: Some(1),
                event: TelemetryEvent::RxLock { channel: 3 },
            });
        }
        sink.flush();
        assert_eq!(sink.lines_written(), 4);
        assert!(!sink.is_failed());
        let text = String::from_utf8(shared.0.lock().unwrap().clone()).unwrap();
        let parsed: Vec<_> = text.lines().map(|l| parse_line(l).unwrap()).collect();
        assert_eq!(parsed.len(), 4);
        assert!(parsed
            .iter()
            .all(|r| matches!(r.event, TelemetryEvent::RxLock { channel: 3 })));
    }

    #[test]
    fn write_errors_are_sticky_not_panicky() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk on fire"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Err(io::Error::other("still on fire"))
            }
        }
        let mut sink = JsonlSink::from_writer(Box::new(Broken));
        sink.emit(&TelemetryRecord {
            at: Instant::ZERO,
            node: None,
            event: TelemetryEvent::TxEnd,
        });
        assert!(sink.is_failed());
        assert_eq!(sink.lines_written(), 0);
        sink.emit(&TelemetryRecord {
            at: Instant::ZERO,
            node: None,
            event: TelemetryEvent::TxEnd,
        });
        assert_eq!(sink.lines_written(), 0);
    }
}
