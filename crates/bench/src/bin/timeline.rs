//! Replays a JSONL telemetry trace as a per-channel timeline (paper
//! Figure 5 style): when each node keyed, transmitted and received on each
//! data channel, with the attacker's injection attempts and verdicts
//! called out.
//!
//! Usage:
//!   timeline <trace.jsonl> [--limit N]   render an existing trace
//!   timeline --demo [--limit N]          run one close-range trial with a
//!                                        JSONL sink, then render it
//!   timeline … --spans                   additionally render the span lane
//!                                        (phase spans + per-phase totals)
//!
//! Exits non-zero when the trace is unreadable or contains no valid event
//! lines, which is what the CI smoke step asserts.

use std::collections::BTreeMap;
use std::io::BufRead;
use std::process::ExitCode;

use bench::report::artefact_dir;
use bench::telemetry::TelemetryMode;
use bench::trial::{run_trial, TrialConfig};
use ble_telemetry::{parse_line, SpanKind, TelemetryEvent, TelemetryRecord};

/// Default cap on rendered event rows (traces run to millions of events).
const DEFAULT_LIMIT: usize = 200;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path = None;
    let mut limit = DEFAULT_LIMIT;
    let mut demo = false;
    let mut spans = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--demo" => demo = true,
            "--spans" => spans = true,
            "--limit" => {
                i += 1;
                limit = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(DEFAULT_LIMIT);
            }
            other => path = Some(other.to_string()),
        }
        i += 1;
    }

    let path = if demo {
        let out = artefact_dir().join("timeline-demo.jsonl");
        println!("[demo] running one close-range trial with a JSONL sink…");
        let mut cfg = TrialConfig::new(42);
        cfg.telemetry = TelemetryMode::Jsonl(out.clone());
        let outcome = run_trial(&cfg);
        println!(
            "[demo] trial done: attempts={:?} sim_seconds={:.1}",
            outcome.attempts, outcome.sim_seconds
        );
        out.display().to_string()
    } else {
        match path {
            Some(p) => p,
            None => {
                eprintln!("usage: timeline <trace.jsonl> [--limit N] | timeline --demo");
                return ExitCode::FAILURE;
            }
        }
    };

    let file = match std::fs::File::open(&path) {
        Ok(f) => f,
        Err(err) => {
            eprintln!("timeline: cannot open {path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let mut records = Vec::new();
    let mut skipped = 0usize;
    for line in std::io::BufReader::new(file).lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(&line) {
            Some(r) => records.push(r),
            None => skipped += 1,
        }
    }
    if records.is_empty() {
        eprintln!("timeline: no valid event lines in {path} ({skipped} unparseable)");
        return ExitCode::FAILURE;
    }
    render(&records, limit, skipped);
    if spans {
        print!("{}", render_spans(&records, limit));
    }
    ExitCode::SUCCESS
}

/// Node labels from the `NodeAdded` replay at the head of every trace.
fn node_labels(records: &[TelemetryRecord]) -> BTreeMap<u32, String> {
    let mut labels = BTreeMap::new();
    for r in records {
        if let (Some(node), TelemetryEvent::NodeAdded { label }) = (r.node, &r.event) {
            labels.entry(node).or_insert_with(|| label.clone());
        }
    }
    labels
}

/// The channel lane an event renders on, if it is channel-scoped.
fn event_channel(event: &TelemetryEvent) -> Option<u8> {
    match event {
        TelemetryEvent::TxStart { channel, .. }
        | TelemetryEvent::RxLock { channel }
        | TelemetryEvent::Relock { channel }
        | TelemetryEvent::RxEnd { channel, .. }
        | TelemetryEvent::Collision { channel, .. }
        | TelemetryEvent::InterferenceSpill { channel }
        | TelemetryEvent::Anchor { channel, .. }
        | TelemetryEvent::WindowOpen { channel, .. }
        | TelemetryEvent::Hop { channel, .. }
        | TelemetryEvent::CrcFail { channel }
        | TelemetryEvent::InjectionAttempt { channel, .. }
        | TelemetryEvent::FaultBurst { channel, .. }
        | TelemetryEvent::FaultFrame { channel, .. } => Some(*channel),
        TelemetryEvent::NodeAdded { .. }
        | TelemetryEvent::TxEnd
        | TelemetryEvent::SnNesn { .. }
        | TelemetryEvent::LlControl { .. }
        | TelemetryEvent::ConnectionEstablished { .. }
        | TelemetryEvent::ConnectionClosed { .. }
        | TelemetryEvent::SnifferSync { .. }
        | TelemetryEvent::SnifferLost { .. }
        | TelemetryEvent::HeuristicVerdict { .. }
        | TelemetryEvent::AnchorPrediction { .. }
        | TelemetryEvent::IfsDelta { .. }
        | TelemetryEvent::Takeover { .. }
        | TelemetryEvent::DetectorAlert { .. }
        | TelemetryEvent::FaultEpisode { .. }
        | TelemetryEvent::SpanEnter { .. }
        | TelemetryEvent::SpanExit { .. }
        | TelemetryEvent::PoolExhausted { .. }
        | TelemetryEvent::SlotDenied
        | TelemetryEvent::ConnEstablished { .. }
        | TelemetryEvent::ConnReleased { .. }
        | TelemetryEvent::PoolHighWater { .. }
        | TelemetryEvent::ResyncBackoff { .. }
        | TelemetryEvent::ResyncExhausted { .. } => None,
    }
}

/// Whether an event is worth a row in the condensed listing (radio-level
/// noise like every rx-lock is summarised, not listed).
fn is_headline(event: &TelemetryEvent) -> bool {
    match event {
        TelemetryEvent::Anchor { .. }
        | TelemetryEvent::InjectionAttempt { .. }
        | TelemetryEvent::HeuristicVerdict { .. }
        | TelemetryEvent::ConnectionEstablished { .. }
        | TelemetryEvent::ConnectionClosed { .. }
        | TelemetryEvent::SnifferSync { .. }
        | TelemetryEvent::SnifferLost { .. }
        | TelemetryEvent::ResyncBackoff { .. }
        | TelemetryEvent::ResyncExhausted { .. }
        | TelemetryEvent::Takeover { .. }
        | TelemetryEvent::DetectorAlert { .. }
        | TelemetryEvent::Collision { .. }
        | TelemetryEvent::CrcFail { .. }
        | TelemetryEvent::LlControl { .. }
        | TelemetryEvent::FaultBurst { .. }
        | TelemetryEvent::FaultEpisode { .. } => true,
        TelemetryEvent::NodeAdded { .. }
        | TelemetryEvent::TxStart { .. }
        | TelemetryEvent::TxEnd
        | TelemetryEvent::RxLock { .. }
        | TelemetryEvent::Relock { .. }
        | TelemetryEvent::RxEnd { .. }
        | TelemetryEvent::InterferenceSpill { .. }
        | TelemetryEvent::WindowOpen { .. }
        | TelemetryEvent::Hop { .. }
        | TelemetryEvent::SnNesn { .. }
        | TelemetryEvent::AnchorPrediction { .. }
        | TelemetryEvent::IfsDelta { .. }
        | TelemetryEvent::FaultFrame { .. }
        | TelemetryEvent::SpanEnter { .. }
        | TelemetryEvent::SpanExit { .. }
        | TelemetryEvent::PoolExhausted { .. }
        | TelemetryEvent::SlotDenied
        | TelemetryEvent::ConnEstablished { .. }
        | TelemetryEvent::ConnReleased { .. }
        | TelemetryEvent::PoolHighWater { .. } => false,
    }
}

/// How a span's `detail` payload reads for humans (channel for airtime and
/// injection spans, LL opcode for control procedures).
fn span_detail(kind: SpanKind, detail: u32) -> String {
    match kind {
        SpanKind::ChannelAirtime | SpanKind::AttackerInject => format!("ch {detail}"),
        SpanKind::LlProcedure => format!("op 0x{detail:02X}"),
        SpanKind::TrialSync
        | SpanKind::TrialFollow
        | SpanKind::TrialVerify
        | SpanKind::AttackerScan
        | SpanKind::AttackerFollow => "-".to_string(),
    }
}

/// Renders the span lane: a chronological listing of closed spans followed
/// by per-phase sim-time totals. Pure function of the records (wall-clock
/// span fields are deliberately **not** rendered), so its output is
/// byte-stable across equally-seeded runs and golden-testable.
fn render_spans(records: &[TelemetryRecord], limit: usize) -> String {
    use std::fmt::Write as _;
    let labels = node_labels(records);
    let mut out = String::new();
    let _ = writeln!(out);
    let _ = writeln!(out, "=== span lane ===");
    let _ = writeln!(
        out,
        "{:>12}  {:<10} {:<16} {:>8} {:>12} {:>12}",
        "t (ms)", "node", "span", "detail", "sim_ms", "self_ms"
    );
    let _ = writeln!(out, "{}", "-".repeat(78));
    let mut shown = 0usize;
    let mut elided = 0usize;
    let mut totals: BTreeMap<usize, (u64, u64, u64)> = BTreeMap::new();
    for r in records {
        let TelemetryEvent::SpanExit {
            kind,
            detail,
            sim_ns,
            self_sim_ns,
            ..
        } = &r.event
        else {
            continue;
        };
        let t = totals.entry(kind.index()).or_insert((0, 0, 0));
        t.0 += 1;
        t.1 += sim_ns;
        t.2 += self_sim_ns;
        if shown >= limit {
            elided += 1;
            continue;
        }
        shown += 1;
        let node = r
            .node
            .and_then(|n| labels.get(&n).cloned())
            .unwrap_or_else(|| "-".to_string());
        let _ = writeln!(
            out,
            "{:>12.3}  {:<10} {:<16} {:>8} {:>12.3} {:>12.3}",
            r.at.as_micros_f64() / 1_000.0,
            node,
            kind.as_str(),
            span_detail(*kind, *detail),
            *sim_ns as f64 / 1e6,
            *self_sim_ns as f64 / 1e6,
        );
    }
    if shown == 0 {
        let _ = writeln!(out, "(no closed spans in this trace)");
    }
    if elided > 0 {
        let _ = writeln!(out, "… {elided} more spans (raise with --limit)");
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "per-phase totals (sim time):");
    for (idx, (count, sim_ns, self_sim_ns)) in &totals {
        let kind = SpanKind::ALL[*idx];
        let _ = writeln!(
            out,
            "  {:<16} count={:<6} sim_ms={:<12.3} self_ms={:.3}",
            kind.as_str(),
            count,
            *sim_ns as f64 / 1e6,
            *self_sim_ns as f64 / 1e6,
        );
    }
    let _ = writeln!(out);
    out
}

fn render(records: &[TelemetryRecord], limit: usize, skipped: usize) {
    let labels = node_labels(records);
    println!();
    println!("=== telemetry timeline ===");
    println!(
        "{} events ({} unparseable lines skipped), {} nodes",
        records.len(),
        skipped,
        labels.len()
    );
    for (id, label) in &labels {
        println!("  node {id}: {label}");
    }

    // Condensed chronological listing of headline events.
    println!();
    println!(
        "{:>12}  {:>3}  {:<10} {:<15} event",
        "t (ms)", "ch", "node", "kind"
    );
    println!("{}", "-".repeat(88));
    let mut shown = 0usize;
    let mut elided = 0usize;
    for r in records {
        if !is_headline(&r.event) {
            continue;
        }
        if shown >= limit {
            elided += 1;
            continue;
        }
        shown += 1;
        let node = r
            .node
            .and_then(|n| labels.get(&n).cloned())
            .unwrap_or_else(|| "-".to_string());
        let ch = match event_channel(&r.event) {
            Some(c) => format!("{c}"),
            None => "-".to_string(),
        };
        println!(
            "{:>12.3}  {:>3}  {:<10} {:<15} {}",
            r.at.as_micros_f64() / 1_000.0,
            ch,
            node,
            r.event.tag(),
            r.event
        );
    }
    if elided > 0 {
        println!("… {elided} more headline events (raise with --limit)");
    }

    // Per-channel activity lanes: how the connection hopped and where the
    // attacker struck (the Figure 5 view, aggregated).
    let mut lanes: BTreeMap<u8, (u64, u64, u64)> = BTreeMap::new();
    for r in records {
        let Some(ch) = event_channel(&r.event) else {
            continue;
        };
        let lane = lanes.entry(ch).or_insert((0, 0, 0));
        match &r.event {
            TelemetryEvent::Anchor { .. } => lane.0 += 1,
            TelemetryEvent::InjectionAttempt { .. } => lane.1 += 1,
            TelemetryEvent::Collision { .. }
            | TelemetryEvent::CrcFail { .. }
            | TelemetryEvent::FaultFrame { .. } => lane.2 += 1,
            TelemetryEvent::NodeAdded { .. }
            | TelemetryEvent::TxStart { .. }
            | TelemetryEvent::TxEnd
            | TelemetryEvent::RxLock { .. }
            | TelemetryEvent::Relock { .. }
            | TelemetryEvent::RxEnd { .. }
            | TelemetryEvent::InterferenceSpill { .. }
            | TelemetryEvent::WindowOpen { .. }
            | TelemetryEvent::Hop { .. }
            | TelemetryEvent::SnNesn { .. }
            | TelemetryEvent::LlControl { .. }
            | TelemetryEvent::ConnectionEstablished { .. }
            | TelemetryEvent::ConnectionClosed { .. }
            | TelemetryEvent::SnifferSync { .. }
            | TelemetryEvent::SnifferLost { .. }
            | TelemetryEvent::HeuristicVerdict { .. }
            | TelemetryEvent::AnchorPrediction { .. }
            | TelemetryEvent::IfsDelta { .. }
            | TelemetryEvent::Takeover { .. }
            | TelemetryEvent::DetectorAlert { .. }
            | TelemetryEvent::FaultBurst { .. }
            | TelemetryEvent::FaultEpisode { .. }
            | TelemetryEvent::SpanEnter { .. }
            | TelemetryEvent::SpanExit { .. }
            | TelemetryEvent::PoolExhausted { .. }
            | TelemetryEvent::SlotDenied
            | TelemetryEvent::ConnEstablished { .. }
            | TelemetryEvent::ConnReleased { .. }
            | TelemetryEvent::PoolHighWater { .. }
            | TelemetryEvent::ResyncBackoff { .. }
            | TelemetryEvent::ResyncExhausted { .. } => {}
        }
    }
    println!();
    println!("per-channel activity (a = anchors, i = injection attempts, x = collisions/CRC):");
    let max = lanes
        .values()
        .map(|(a, i, x)| a + i + x)
        .max()
        .unwrap_or(1)
        .max(1);
    for (ch, (anchors, injects, bad)) in &lanes {
        if anchors + injects + bad == 0 {
            continue;
        }
        let bar_units = |n: u64| ((n * 40).div_ceil(max)).min(40) as usize;
        println!(
            "  ch {ch:>2} | {}{}{} ({anchors} a, {injects} i, {bad} x)",
            "a".repeat(bar_units(*anchors)),
            "i".repeat(bar_units(*injects)),
            "x".repeat(bar_units(*bad)),
        );
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::Instant;

    fn rec(at_us: u64, node: Option<u32>, event: TelemetryEvent) -> TelemetryRecord {
        TelemetryRecord {
            at: Instant::from_micros(at_us),
            node,
            event,
        }
    }

    /// A small synthetic trace exercising every span-lane feature: node
    /// labels, nesting (self < total), every detail format, and the elision
    /// counter.
    fn span_trace() -> Vec<TelemetryRecord> {
        vec![
            rec(
                0,
                Some(0),
                TelemetryEvent::NodeAdded {
                    label: "phone".into(),
                },
            ),
            rec(
                0,
                Some(3),
                TelemetryEvent::NodeAdded {
                    label: "attacker".into(),
                },
            ),
            rec(
                0,
                None,
                TelemetryEvent::SpanEnter {
                    id: 1,
                    kind: SpanKind::TrialSync,
                    detail: 0,
                },
            ),
            rec(
                1_250,
                Some(0),
                TelemetryEvent::SpanExit {
                    id: 2,
                    kind: SpanKind::ChannelAirtime,
                    detail: 17,
                    sim_ns: 368_000,
                    wall_ns: 999,
                    self_sim_ns: 368_000,
                    self_wall_ns: 999,
                },
            ),
            rec(
                2_000,
                Some(0),
                TelemetryEvent::SpanExit {
                    id: 3,
                    kind: SpanKind::LlProcedure,
                    detail: 0x0C,
                    sim_ns: 0,
                    wall_ns: 50,
                    self_sim_ns: 0,
                    self_wall_ns: 50,
                },
            ),
            rec(
                3_000_000,
                Some(3),
                TelemetryEvent::SpanExit {
                    id: 4,
                    kind: SpanKind::AttackerInject,
                    detail: 21,
                    sim_ns: 1_200_000,
                    wall_ns: 400,
                    self_sim_ns: 1_200_000,
                    self_wall_ns: 400,
                },
            ),
            rec(
                5_000_000,
                None,
                TelemetryEvent::SpanExit {
                    id: 1,
                    kind: SpanKind::TrialSync,
                    detail: 0,
                    sim_ns: 5_000_000_000,
                    wall_ns: 123_456,
                    self_sim_ns: 4_998_432_000,
                    self_wall_ns: 122_007,
                },
            ),
        ]
    }

    #[test]
    fn span_lane_matches_golden_file() {
        let rendered = render_spans(&span_trace(), 3);
        let golden_path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/timeline_spans.txt"
        );
        let golden = std::fs::read_to_string(golden_path)
            .unwrap_or_else(|e| panic!("golden file {golden_path} unreadable: {e}"));
        assert_eq!(
            rendered, golden,
            "span lane drifted from {golden_path}; if the change is \
             intentional, update the golden file to the left-hand value"
        );
    }

    #[test]
    fn span_lane_elides_past_the_limit_but_totals_count_everything() {
        let out = render_spans(&span_trace(), 2);
        assert!(out.contains("… 2 more spans"));
        // Totals still aggregate the elided rows.
        assert!(out.contains("trial-sync"));
        assert!(out.contains("attacker-inject"));
    }

    #[test]
    fn span_lane_without_spans_says_so() {
        let out = render_spans(
            &[rec(
                0,
                Some(0),
                TelemetryEvent::NodeAdded { label: "x".into() },
            )],
            10,
        );
        assert!(out.contains("(no closed spans in this trace)"));
    }

    #[test]
    fn span_lane_never_renders_wall_clock() {
        // The wall fields differ between these traces; the rendering must not.
        let mut a = span_trace();
        let mut b = span_trace();
        for r in b.iter_mut() {
            if let TelemetryEvent::SpanExit {
                wall_ns,
                self_wall_ns,
                ..
            } = &mut r.event
            {
                *wall_ns *= 7;
                *self_wall_ns *= 7;
            }
        }
        assert_eq!(render_spans(&a, 10), render_spans(&b, 10));
        // Sim fields, by contrast, do show through.
        if let TelemetryEvent::SpanExit { sim_ns, .. } = &mut a[3].event {
            *sim_ns += 1_000_000;
        }
        assert_ne!(render_spans(&a, 10), render_spans(&b, 10));
    }
}
