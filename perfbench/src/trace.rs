//! The traced run's instruments: benchmark-side spans and a counting sink.
//!
//! Spans are recorded here, around the public calls the trial code makes
//! into each layer, never inside the program. They stay in memory and are
//! written out once the run ends. The counting sink is an ordinary
//! [`TelemetrySink`] attached through `World::add_telemetry_sink`, so the
//! counts are the program's own typed telemetry, tallied per event kind.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use bench::wallclock::monotonic_ns;
use ble_telemetry::{DeliveryTotals, TelemetryEvent, TelemetryRecord, TelemetrySink, Verdict};

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span covers, e.g. `sim.sync`.
    pub name: &'static str,
    /// Trial seed the span belongs to (0 for per-round spans).
    pub id: u64,
    /// Span-clock nanoseconds at entry.
    pub start_ns: u64,
    /// Span-clock nanoseconds at exit.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Work counts tallied from telemetry records and delivery-tracker totals.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    /// Every record the sink received.
    pub records: u64,
    /// `NodeAdded` records (replayed once per node at attachment).
    pub nodes_added: u64,
    /// PDU bytes over every `TxStart`.
    pub tx_bytes: u64,
    /// PDU bytes of the frame each `RxLock` locked onto.
    pub lock_bytes: u64,
    /// `TxStart` PDU lengths: length → frames.
    pub tx_len_mix: BTreeMap<u32, u64>,
    pub relocks: u64,
    pub crc_bad: u64,
    pub collisions: u64,
    pub interference_spill: u64,
    pub anchors: u64,
    pub window_opens: u64,
    pub hops: u64,
    pub link_crc_fail: u64,
    pub control_pdus: u64,
    pub disconnects: u64,
    pub conn_established: u64,
    pub pool_exhausted: u64,
    pub slot_denied: u64,
    pub pool_high_water: u64,
    pub attempts: u64,
    pub successes: u64,
    pub rejected: u64,
    pub no_response: u64,
    pub sniffer_lost: u64,
    /// Delivery-tracker totals summed over trials.
    pub delivery: DeliveryTotals,
}

impl Counts {
    /// Tallies one record; `lock_len` is the PDU length of the frame an
    /// `RxLock` locked onto.
    fn note(&mut self, record: &TelemetryRecord, lock_len: u32) {
        self.records += 1;
        match &record.event {
            TelemetryEvent::NodeAdded { .. } => self.nodes_added += 1,
            TelemetryEvent::TxStart { pdu_len, .. } => {
                self.tx_bytes += u64::from(*pdu_len);
                *self.tx_len_mix.entry(*pdu_len).or_default() += 1;
            }
            TelemetryEvent::RxLock { .. } => self.lock_bytes += u64::from(lock_len),
            TelemetryEvent::Relock { .. } => self.relocks += 1,
            TelemetryEvent::RxEnd { crc_ok, .. } => self.crc_bad += u64::from(!*crc_ok),
            TelemetryEvent::Collision { .. } => self.collisions += 1,
            TelemetryEvent::InterferenceSpill { .. } => self.interference_spill += 1,
            TelemetryEvent::Anchor { .. } => self.anchors += 1,
            TelemetryEvent::WindowOpen { .. } => self.window_opens += 1,
            TelemetryEvent::Hop { .. } => self.hops += 1,
            TelemetryEvent::CrcFail { .. } => self.link_crc_fail += 1,
            TelemetryEvent::LlControl { .. } => self.control_pdus += 1,
            TelemetryEvent::ConnectionClosed { .. } => self.disconnects += 1,
            TelemetryEvent::ConnEstablished { .. } => self.conn_established += 1,
            TelemetryEvent::PoolExhausted { .. } => self.pool_exhausted += 1,
            TelemetryEvent::SlotDenied => self.slot_denied += 1,
            TelemetryEvent::PoolHighWater { in_use } => {
                self.pool_high_water = self.pool_high_water.max(u64::from(*in_use));
            }
            TelemetryEvent::InjectionAttempt { .. } => self.attempts += 1,
            TelemetryEvent::HeuristicVerdict { verdict, .. } => match verdict {
                Verdict::Success => self.successes += 1,
                Verdict::Rejected => self.rejected += 1,
                Verdict::NoResponse => self.no_response += 1,
            },
            TelemetryEvent::SnifferLost { .. } => self.sniffer_lost += 1,
            // Counted only as records: no per-layer metric reads them, and
            // a wildcard keeps the benchmark building when variants change.
            _ => {}
        }
    }

    /// Adds one trial's delivery-tracker totals.
    pub fn add_delivery(&mut self, t: DeliveryTotals) {
        let d = &mut self.delivery;
        d.tx_frames += t.tx_frames;
        d.scheduled_rx_starts += t.scheduled_rx_starts;
        d.culled_unreachable += t.culled_unreachable;
        d.suppressed_not_listening += t.suppressed_not_listening;
        d.frames_heard += t.frames_heard;
        d.frames_delivered += t.frames_delivered;
        d.evicted_packets += t.evicted_packets;
    }
}

/// Shared handle on the traced run's counts.
#[derive(Debug, Clone, Default)]
pub struct SharedCounts(Arc<Mutex<Counts>>);

impl SharedCounts {
    /// Locks the counts. Every update leaves them valid, so a poisoned lock
    /// (a panicking trial) is recovered.
    pub fn lock(&self) -> MutexGuard<'_, Counts> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The benchmark-owned sink of one trial: tallies every record into the
/// run's [`SharedCounts`].
pub struct CountingSink {
    counts: SharedCounts,
    /// PDU length of this trial's latest `TxStart` per channel: an
    /// `RxLock` locks onto the frame on the air on its channel.
    last_len: BTreeMap<u8, u32>,
}

impl CountingSink {
    /// A sink for one trial, tallying into `counts`.
    pub fn new(counts: SharedCounts) -> Self {
        CountingSink {
            counts,
            last_len: BTreeMap::new(),
        }
    }
}

impl TelemetrySink for CountingSink {
    fn emit(&mut self, record: &TelemetryRecord) {
        let lock_len = match &record.event {
            TelemetryEvent::TxStart {
                channel, pdu_len, ..
            } => {
                self.last_len.insert(*channel, *pdu_len);
                0
            }
            TelemetryEvent::RxLock { channel } => self.last_len.get(channel).copied().unwrap_or(0),
            _ => 0,
        };
        self.counts.lock().note(record, lock_len);
    }
}

/// In-memory span recorder plus the counts of the traced run.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Counts shared with each trial's [`CountingSink`].
    pub counts: SharedCounts,
}

impl Tracer {
    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, id: u64) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            id,
            start_ns: monotonic_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        idx
    }

    /// Closes span `idx` and any span still open inside it (a trial that
    /// unwound mid-span).
    pub fn exit(&mut self, idx: usize) {
        let now = monotonic_ns();
        while let Some(top) = self.open.pop() {
            if let Some(s) = self.spans.get_mut(top) {
                s.end_ns = now;
            }
            if top == idx {
                break;
            }
        }
    }

    /// Total nanoseconds of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// Writes every span as one JSON line, with its self time (duration
    /// minus that of its direct children).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(slot) = s.parent.and_then(|p| child_ns.get_mut(p)) {
                *slot += s.duration_ns();
            }
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let self_ns = s.duration_ns().saturating_sub(child_ns[i]);
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"self_ns\":{self_ns}}}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Optional tracing for one trial: every call is a plain pass-through when
/// the run is untraced.
pub struct Spans<'a> {
    tracer: Option<&'a mut Tracer>,
    id: u64,
}

impl<'a> Spans<'a> {
    /// Spans for the trial seeded `id`.
    pub fn new(tracer: Option<&'a mut Tracer>, id: u64) -> Self {
        Spans { tracer, id }
    }

    /// Runs `f` inside a span called `name` (traced runs only).
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let Some(tracer) = self.tracer.as_deref_mut() else {
            return f();
        };
        let idx = tracer.enter(name, self.id);
        let out = f();
        if let Some(tracer) = self.tracer.as_deref_mut() {
            tracer.exit(idx);
        }
        out
    }

    /// The tracer, when the run is traced.
    pub fn tracer(&mut self) -> Option<&mut Tracer> {
        self.tracer.as_deref_mut()
    }
}
