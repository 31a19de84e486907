//! Counters, gauges and fixed-bucket microsecond histograms.
//!
//! The registry is deliberately tiny — a `BTreeMap` per metric family keyed
//! by `&'static str` — because trials are single-threaded and short-lived;
//! the bench rig merges per-trial registries into its `SeriesReport`
//! artefacts afterwards.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::event::TelemetryEvent;
use crate::sink::{TelemetryRecord, TelemetrySink};
use crate::span::SpanKind;

/// Default histogram bucket upper bounds, in microseconds. Chosen around
/// the paper's timing scales: sub-µs clock error, the ±5 µs heuristic
/// tolerance, 150 µs IFS, ms-scale connection intervals.
pub const DEFAULT_BOUNDS_US: [f64; 16] = [
    0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1_000.0, 2_000.0, 5_000.0, 10_000.0,
    20_000.0, 50_000.0,
];

/// A fixed-bucket histogram of microsecond *magnitudes*.
///
/// Signed inputs (anchor error, IFS delta) are recorded as `|v|`; the
/// histogram answers "how large are the timing deviations", not their sign
/// (the signed values are still available per-event in a JSONL trace).
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramUs {
    bounds: Vec<f64>,
    /// One count per bound, plus a final overflow bucket.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for HistogramUs {
    fn default() -> Self {
        HistogramUs::with_bounds(&DEFAULT_BOUNDS_US)
    }
}

/// Summary statistics extracted from a [`HistogramUs`].
///
/// Quantiles are upper-bound estimates: the bucket boundary at or above the
/// requested rank (exact for values landing on boundaries).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistSummary {
    /// Number of recorded values.
    pub count: u64,
    /// Exact mean of the recorded magnitudes.
    pub mean: f64,
    /// Median estimate (bucket upper bound).
    pub p50: f64,
    /// 90th-percentile estimate.
    pub p90: f64,
    /// 95th-percentile estimate.
    pub p95: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
    /// Exact smallest recorded magnitude.
    pub min: f64,
    /// Exact largest recorded magnitude.
    pub max: f64,
}

impl HistogramUs {
    /// A histogram with the given ascending bucket upper bounds.
    pub fn with_bounds(bounds: &[f64]) -> Self {
        let counts = vec![0; bounds.len().saturating_add(1)];
        HistogramUs {
            bounds: bounds.to_vec(),
            counts,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: 0.0,
        }
    }

    /// Records one value (magnitude is taken; see the type docs).
    pub fn record(&mut self, value_us: f64) {
        let v = value_us.abs();
        if !v.is_finite() {
            return;
        }
        self.count = self.count.saturating_add(1);
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        let slot = self
            .bounds
            .iter()
            .position(|b| v <= *b)
            .unwrap_or(self.bounds.len());
        if let Some(c) = self.counts.get_mut(slot) {
            *c = c.saturating_add(1);
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Per-bucket counts (last entry is the overflow bucket).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Bucket upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Exact sum of recorded magnitudes.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact smallest recorded magnitude (`+inf` when empty).
    pub fn min_value(&self) -> f64 {
        self.min
    }

    /// Exact largest recorded magnitude (0 when empty).
    pub fn max_value(&self) -> f64 {
        self.max
    }

    /// Rebuilds a histogram from previously-extracted parts (the campaign
    /// checkpoint round-trip). Returns `None` when the shape is inconsistent
    /// (`counts` must be one longer than `bounds` for the overflow bucket,
    /// and the per-bucket counts must total `count`).
    pub fn from_parts(
        bounds: Vec<f64>,
        counts: Vec<u64>,
        count: u64,
        sum: f64,
        min: f64,
        max: f64,
    ) -> Option<Self> {
        if counts.len() != bounds.len().saturating_add(1) {
            return None;
        }
        let mut total = 0u64;
        for c in &counts {
            total = total.saturating_add(*c);
        }
        if total != count {
            return None;
        }
        Some(HistogramUs {
            bounds,
            counts,
            count,
            sum,
            min,
            max,
        })
    }

    /// Upper-bound quantile estimate: the first bucket boundary at which the
    /// cumulative count reaches `q` of the total (the exact maximum for the
    /// overflow bucket). Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0);
        let mut cum = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cum = cum.saturating_add(*c);
            if cum as f64 >= target {
                return match self.bounds.get(i) {
                    Some(b) => *b,
                    None => self.max,
                };
            }
        }
        self.max
    }

    /// Resets all recorded values, keeping the bucket layout.
    pub fn clear(&mut self) {
        for c in &mut self.counts {
            *c = 0;
        }
        self.count = 0;
        self.sum = 0.0;
        self.min = f64::INFINITY;
        self.max = 0.0;
    }

    /// Folds another histogram into this one. Returns `false` (and leaves
    /// `self` untouched) when the bucket layouts differ.
    pub fn merge(&mut self, other: &HistogramUs) -> bool {
        if self.bounds != other.bounds {
            return false;
        }
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        true
    }

    /// Summary statistics (zeros when empty).
    pub fn summary(&self) -> HistSummary {
        if self.count == 0 {
            return HistSummary::default();
        }
        HistSummary {
            count: self.count,
            mean: self.sum / self.count as f64,
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            min: self.min,
            max: self.max,
        }
    }
}

/// Registry of named counters, gauges and histograms.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, HistogramUs>,
}

/// Shared handle to a registry (the simulation owns the [`MetricsSink`];
/// the caller keeps the handle). Thread-safe so that a world carrying the
/// sink stays [`Send`].
#[derive(Debug, Clone, Default)]
pub struct SharedRegistry(Arc<Mutex<MetricsRegistry>>);

impl SharedRegistry {
    /// Locks the registry for reading or writing. Lock poisoning is
    /// recovered (`into_inner`): metrics are observation-only state, and
    /// the worst a panicking writer leaves behind is one missing update.
    pub fn lock(&self) -> MutexGuard<'_, MetricsRegistry> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty registry behind a shared handle.
    pub fn shared() -> SharedRegistry {
        SharedRegistry(Arc::new(Mutex::new(Self::new())))
    }

    /// Increments a counter by one.
    pub fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Increments a counter by `n` (saturating).
    pub fn add(&mut self, name: &'static str, n: u64) {
        let c = self.counters.entry(name).or_insert(0);
        *c = c.saturating_add(n);
    }

    /// Current counter value (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets a gauge to the latest value.
    pub fn set_gauge(&mut self, name: &'static str, value: f64) {
        self.gauges.insert(name, value);
    }

    /// Current gauge value, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Records a microsecond observation into a named histogram (created
    /// with the default buckets on first use).
    pub fn observe_us(&mut self, name: &'static str, value_us: f64) {
        self.histograms.entry(name).or_default().record(value_us);
    }

    /// A named histogram, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramUs> {
        self.histograms.get(name)
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// Iterates gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.gauges.iter().map(|(k, v)| (*k, *v))
    }

    /// Iterates histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &HistogramUs)> + '_ {
        self.histograms.iter().map(|(k, v)| (*k, v))
    }

    /// Folds another registry into this one: counters add, gauges take the
    /// other's value, histograms merge (skipping incompatible layouts).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, n) in other.counters() {
            self.add(name, n);
        }
        for (name, v) in other.gauges() {
            self.set_gauge(name, v);
        }
        for (name, h) in other.histograms() {
            self.histograms.entry(name).or_default().merge(h);
        }
    }
}

/// Per-event tallies buffered in plain fields so that `emit` touches no
/// lock and no map. [`MetricsSink::fold_into_registry`] drains them into
/// the shared registry.
#[derive(Debug, Default)]
struct HotTallies {
    events: u64,
    last_event_us: f64,
    nodes: u64,
    tx: u64,
    rx_lock: u64,
    relock: u64,
    rx: u64,
    rx_crc_bad: u64,
    collision: u64,
    interference_spill: u64,
    anchor: u64,
    window_open: u64,
    hop: u64,
    sn_nesn: u64,
    crc_fail: u64,
    control_pdu: u64,
    connected: u64,
    disconnect: u64,
    sniffer_sync: u64,
    sniffer_lost: u64,
    resync_backoff: u64,
    resync_exhausted: u64,
    attempts: u64,
    success: u64,
    rejected: u64,
    no_response: u64,
    takeover: u64,
    detector_alerts: u64,
    pool_exhausted: u64,
    slot_denied: u64,
    conn_established: u64,
    conn_released: u64,
    /// Running maximum, not a counter: folded as a gauge, never reset.
    pool_high_water: u64,
    fault_bursts: u64,
    fault_episodes: u64,
    fault_frames_lost: u64,
    fault_frames_corrupted: u64,
    span_enters: u64,
    // Per-SpanKind exit aggregates, indexed by `SpanKind::index()`.
    span_count: [u64; SpanKind::ALL.len()],
    span_sim_ns: [u64; SpanKind::ALL.len()],
    span_self_sim_ns: [u64; SpanKind::ALL.len()],
    span_wall_ns: [u64; SpanKind::ALL.len()],
    span_self_wall_ns: [u64; SpanKind::ALL.len()],
    widening_us: HistogramUs,
    lead_us: HistogramUs,
    anchor_error_us: HistogramUs,
    ifs_delta_us: HistogramUs,
    detector_magnitude_us: HistogramUs,
}

/// A [`TelemetrySink`] that folds every event into a [`MetricsRegistry`].
///
/// The event→metric mapping is an exhaustive match (xtask R4): adding a
/// [`TelemetryEvent`] variant forces a decision here about how it is
/// counted.
///
/// Tallies are buffered in plain struct fields and only folded into the
/// shared registry on [`TelemetrySink::flush`] (or drop): `emit` sits on
/// the simulation hot path, and paying a mutex plus several `BTreeMap`
/// lookups per event dominated trial cost. Read the registry only after
/// flushing the world's sinks.
#[derive(Debug)]
pub struct MetricsSink {
    registry: SharedRegistry,
    buf: HotTallies,
}

impl MetricsSink {
    /// A sink feeding a fresh shared registry.
    pub fn new() -> Self {
        MetricsSink {
            registry: MetricsRegistry::shared(),
            buf: HotTallies::default(),
        }
    }

    /// A sink feeding an existing registry.
    pub fn with_registry(registry: SharedRegistry) -> Self {
        MetricsSink {
            registry,
            buf: HotTallies::default(),
        }
    }

    /// The shared registry this sink feeds. Buffered tallies become
    /// visible here after [`TelemetrySink::flush`].
    pub fn handle(&self) -> SharedRegistry {
        self.registry.clone()
    }

    /// Drains the buffered tallies into the shared registry.
    fn fold_into_registry(&mut self) {
        let t = &mut self.buf;
        if t.events == 0 {
            return;
        }
        let mut reg = self.registry.lock();
        let counters = [
            ("telemetry.events", &mut t.events),
            ("sim.nodes", &mut t.nodes),
            ("phy.tx", &mut t.tx),
            ("phy.rx_lock", &mut t.rx_lock),
            ("phy.relock", &mut t.relock),
            ("phy.rx", &mut t.rx),
            ("phy.rx_crc_bad", &mut t.rx_crc_bad),
            ("phy.collision", &mut t.collision),
            ("phy.interference_spill", &mut t.interference_spill),
            ("link.anchor", &mut t.anchor),
            ("link.window_open", &mut t.window_open),
            ("link.hop", &mut t.hop),
            ("link.sn_nesn", &mut t.sn_nesn),
            ("link.crc_fail", &mut t.crc_fail),
            ("link.control_pdu", &mut t.control_pdu),
            ("link.connected", &mut t.connected),
            ("link.disconnect", &mut t.disconnect),
            ("attack.sniffer_sync", &mut t.sniffer_sync),
            ("attack.sniffer_lost", &mut t.sniffer_lost),
            ("attack.resync_backoff", &mut t.resync_backoff),
            ("attack.resync_exhausted", &mut t.resync_exhausted),
            ("attack.attempts", &mut t.attempts),
            ("attack.success", &mut t.success),
            ("attack.rejected", &mut t.rejected),
            ("attack.no_response", &mut t.no_response),
            ("attack.takeover", &mut t.takeover),
            ("detector.alerts", &mut t.detector_alerts),
            ("host.pool_exhausted", &mut t.pool_exhausted),
            ("host.slot_denied", &mut t.slot_denied),
            ("host.conn_established", &mut t.conn_established),
            ("host.conn_released", &mut t.conn_released),
            ("fault.bursts", &mut t.fault_bursts),
            ("fault.episodes", &mut t.fault_episodes),
            ("fault.frames_lost", &mut t.fault_frames_lost),
            ("fault.frames_corrupted", &mut t.fault_frames_corrupted),
            ("span.enters", &mut t.span_enters),
        ];
        for (name, n) in counters {
            if *n != 0 {
                reg.add(name, *n);
                *n = 0;
            }
        }
        for kind in SpanKind::ALL {
            let i = kind.index();
            let names = kind.metric_names();
            let slots = [
                (names.count, t.span_count.get_mut(i)),
                (names.sim_ns, t.span_sim_ns.get_mut(i)),
                (names.self_sim_ns, t.span_self_sim_ns.get_mut(i)),
                (names.wall_ns, t.span_wall_ns.get_mut(i)),
                (names.self_wall_ns, t.span_self_wall_ns.get_mut(i)),
            ];
            for (name, slot) in slots {
                if let Some(n) = slot {
                    if *n != 0 {
                        reg.add(name, *n);
                        *n = 0;
                    }
                }
            }
        }
        reg.set_gauge("sim.last_event_us", t.last_event_us);
        if t.pool_high_water != 0 {
            // Monotone high-water gauge: only present once a pool reported
            // occupancy, so runs without a pool keep their metric set.
            reg.set_gauge("host.pool_high_water", t.pool_high_water as f64);
        }
        let histograms = [
            ("link.widening_us", &mut t.widening_us),
            ("attack.lead_us", &mut t.lead_us),
            ("attack.anchor_error_us", &mut t.anchor_error_us),
            ("attack.ifs_delta_us", &mut t.ifs_delta_us),
            ("detector.magnitude_us", &mut t.detector_magnitude_us),
        ];
        for (name, h) in histograms {
            if !h.is_empty() {
                reg.histograms.entry(name).or_default().merge(h);
                h.clear();
            }
        }
    }
}

impl Default for MetricsSink {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for MetricsSink {
    fn drop(&mut self) {
        self.fold_into_registry();
    }
}

impl TelemetrySink for MetricsSink {
    fn emit(&mut self, record: &TelemetryRecord) {
        let t = &mut self.buf;
        t.events = t.events.saturating_add(1);
        t.last_event_us = record.at.as_micros_f64();
        let bump = |c: &mut u64| *c = c.saturating_add(1);
        match &record.event {
            TelemetryEvent::NodeAdded { .. } => bump(&mut t.nodes),
            TelemetryEvent::TxStart { .. } => bump(&mut t.tx),
            TelemetryEvent::TxEnd => {}
            TelemetryEvent::RxLock { .. } => bump(&mut t.rx_lock),
            TelemetryEvent::Relock { .. } => bump(&mut t.relock),
            TelemetryEvent::RxEnd { crc_ok, .. } => {
                bump(&mut t.rx);
                if !crc_ok {
                    bump(&mut t.rx_crc_bad);
                }
            }
            TelemetryEvent::Collision { .. } => bump(&mut t.collision),
            TelemetryEvent::InterferenceSpill { .. } => bump(&mut t.interference_spill),
            TelemetryEvent::Anchor { .. } => bump(&mut t.anchor),
            TelemetryEvent::WindowOpen { widening, .. } => {
                bump(&mut t.window_open);
                t.widening_us.record(widening.as_micros_f64());
            }
            TelemetryEvent::Hop { .. } => bump(&mut t.hop),
            TelemetryEvent::SnNesn { .. } => bump(&mut t.sn_nesn),
            TelemetryEvent::CrcFail { .. } => bump(&mut t.crc_fail),
            TelemetryEvent::LlControl { .. } => bump(&mut t.control_pdu),
            TelemetryEvent::ConnectionEstablished { .. } => bump(&mut t.connected),
            TelemetryEvent::ConnectionClosed { .. } => bump(&mut t.disconnect),
            TelemetryEvent::SnifferSync { .. } => bump(&mut t.sniffer_sync),
            TelemetryEvent::SnifferLost { .. } => bump(&mut t.sniffer_lost),
            TelemetryEvent::ResyncBackoff { .. } => bump(&mut t.resync_backoff),
            TelemetryEvent::ResyncExhausted { .. } => bump(&mut t.resync_exhausted),
            TelemetryEvent::InjectionAttempt { lead, .. } => {
                bump(&mut t.attempts);
                t.lead_us.record(lead.as_micros_f64());
            }
            TelemetryEvent::HeuristicVerdict { verdict, .. } => {
                bump(match verdict {
                    crate::event::Verdict::Success => &mut t.success,
                    crate::event::Verdict::Rejected => &mut t.rejected,
                    crate::event::Verdict::NoResponse => &mut t.no_response,
                });
            }
            TelemetryEvent::AnchorPrediction { error_us } => {
                t.anchor_error_us.record(*error_us);
            }
            TelemetryEvent::IfsDelta { delta_us } => {
                t.ifs_delta_us.record(*delta_us);
            }
            TelemetryEvent::Takeover { .. } => bump(&mut t.takeover),
            TelemetryEvent::DetectorAlert { magnitude_us, .. } => {
                bump(&mut t.detector_alerts);
                t.detector_magnitude_us.record(*magnitude_us);
            }
            TelemetryEvent::PoolExhausted { .. } => bump(&mut t.pool_exhausted),
            TelemetryEvent::SlotDenied => bump(&mut t.slot_denied),
            TelemetryEvent::ConnEstablished { .. } => bump(&mut t.conn_established),
            TelemetryEvent::ConnReleased { .. } => bump(&mut t.conn_released),
            TelemetryEvent::PoolHighWater { in_use } => {
                t.pool_high_water = t.pool_high_water.max(u64::from(*in_use));
            }
            TelemetryEvent::FaultBurst { active, .. } => {
                if *active {
                    bump(&mut t.fault_bursts);
                }
            }
            TelemetryEvent::FaultEpisode { active, .. } => {
                if *active {
                    bump(&mut t.fault_episodes);
                }
            }
            TelemetryEvent::FaultFrame { kind, .. } => match kind {
                crate::event::FaultKind::Loss => bump(&mut t.fault_frames_lost),
                crate::event::FaultKind::Corruption => bump(&mut t.fault_frames_corrupted),
                // Burst/fading/drift faults are episodic, not per-frame; a
                // mislabelled frame event still counts as a lost frame.
                crate::event::FaultKind::Interference
                | crate::event::FaultKind::Fading
                | crate::event::FaultKind::Drift => bump(&mut t.fault_frames_lost),
            },
            TelemetryEvent::SpanEnter { .. } => bump(&mut t.span_enters),
            TelemetryEvent::SpanExit {
                kind,
                sim_ns,
                wall_ns,
                self_sim_ns,
                self_wall_ns,
                ..
            } => {
                let i = kind.index();
                let adds = [
                    (t.span_count.get_mut(i), 1u64),
                    (t.span_sim_ns.get_mut(i), *sim_ns),
                    (t.span_self_sim_ns.get_mut(i), *self_sim_ns),
                    (t.span_wall_ns.get_mut(i), *wall_ns),
                    (t.span_self_wall_ns.get_mut(i), *self_wall_ns),
                ];
                for (slot, n) in adds {
                    if let Some(c) = slot {
                        *c = c.saturating_add(n);
                    }
                }
            }
        }
    }

    fn flush(&mut self) {
        self.fold_into_registry();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Verdict;
    use simkit::{Duration, Instant};

    #[test]
    fn bucket_boundaries_are_inclusive_upper_bounds() {
        let mut h = HistogramUs::with_bounds(&[1.0, 10.0, 100.0]);
        h.record(1.0); // lands in [.., 1.0]
        h.record(1.000_001); // lands in (1.0, 10.0]
        h.record(10.0); // boundary: (1.0, 10.0]
        h.record(100.0); // boundary: (10.0, 100.0]
        h.record(1_000.0); // overflow
        assert_eq!(h.bucket_counts(), &[1, 2, 1, 1]);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn negative_values_record_their_magnitude() {
        let mut h = HistogramUs::with_bounds(&[5.0, 50.0]);
        h.record(-3.0);
        h.record(-30.0);
        assert_eq!(h.bucket_counts(), &[1, 1, 0]);
        let s = h.summary();
        assert!((s.mean - 16.5).abs() < 1e-9);
        assert_eq!(s.min, 3.0);
        assert_eq!(s.max, 30.0);
    }

    #[test]
    fn non_finite_values_are_dropped() {
        let mut h = HistogramUs::default();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert!(h.is_empty());
        assert_eq!(h.summary(), HistSummary::default());
    }

    #[test]
    fn quantiles_step_through_bucket_bounds() {
        let mut h = HistogramUs::with_bounds(&[1.0, 2.0, 5.0]);
        for _ in 0..50 {
            h.record(0.7); // bucket ≤1
        }
        for _ in 0..40 {
            h.record(1.5); // bucket ≤2
        }
        for _ in 0..10 {
            h.record(4.0); // bucket ≤5
        }
        assert_eq!(h.quantile(0.25), 1.0);
        assert_eq!(h.quantile(0.50), 1.0);
        assert_eq!(h.quantile(0.75), 2.0);
        assert_eq!(h.quantile(0.95), 5.0);
        // Overflow values report the exact max.
        h.record(77.0);
        assert_eq!(h.quantile(1.0), 77.0);
    }

    #[test]
    fn merge_requires_identical_layouts() {
        let mut a = HistogramUs::with_bounds(&[1.0, 2.0]);
        let mut b = HistogramUs::with_bounds(&[1.0, 2.0]);
        a.record(0.5);
        b.record(1.5);
        b.record(9.0);
        assert!(a.merge(&b));
        assert_eq!(a.count(), 3);
        assert_eq!(a.bucket_counts(), &[1, 1, 1]);
        let other_layout = HistogramUs::with_bounds(&[3.0]);
        assert!(!a.merge(&other_layout));
        assert_eq!(a.count(), 3, "failed merge must not corrupt");
    }

    #[test]
    fn from_parts_round_trips_a_populated_histogram() {
        let mut h = HistogramUs::with_bounds(&[1.0, 10.0, 100.0]);
        h.record(0.5);
        h.record(7.0);
        h.record(250.0);
        let rebuilt = HistogramUs::from_parts(
            h.bounds().to_vec(),
            h.bucket_counts().to_vec(),
            h.count(),
            h.sum(),
            h.min_value(),
            h.max_value(),
        )
        .expect("consistent parts");
        assert_eq!(rebuilt, h);
        // A merge after the round-trip behaves like a merge before it.
        let mut a = h.clone();
        let mut b = rebuilt;
        assert!(a.merge(&h) && b.merge(&h));
        assert_eq!(a, b);
        // Inconsistent parts are rejected, not silently accepted: a bucket
        // total that disagrees with `count`, and a counts vector whose
        // length does not match `bounds.len() + 1`.
        assert!(HistogramUs::from_parts(vec![1.0], vec![1, 2], 4, 0.0, 0.0, 0.0).is_none());
        assert!(HistogramUs::from_parts(vec![1.0], vec![1], 1, 0.0, 0.0, 0.0).is_none());
    }

    #[test]
    fn registry_counters_gauges_histograms() {
        let mut r = MetricsRegistry::new();
        r.inc("a");
        r.add("a", 2);
        assert_eq!(r.counter("a"), 3);
        assert_eq!(r.counter("missing"), 0);
        r.set_gauge("g", 1.5);
        r.set_gauge("g", 2.5);
        assert_eq!(r.gauge("g"), Some(2.5));
        r.observe_us("h", 3.0);
        assert_eq!(r.histogram("h").map(HistogramUs::count), Some(1));

        let mut other = MetricsRegistry::new();
        other.add("a", 10);
        other.set_gauge("g", 9.0);
        other.observe_us("h", 4.0);
        r.merge(&other);
        assert_eq!(r.counter("a"), 13);
        assert_eq!(r.gauge("g"), Some(9.0));
        assert_eq!(r.histogram("h").map(HistogramUs::count), Some(2));
    }

    #[test]
    fn counter_saturates_instead_of_overflowing() {
        let mut r = MetricsRegistry::new();
        r.add("big", u64::MAX - 1);
        r.add("big", 5);
        assert_eq!(r.counter("big"), u64::MAX);
    }

    #[test]
    fn sink_classifies_events() {
        let sink = MetricsSink::new();
        let reg = sink.handle();
        let mut sink = sink;
        {
            let mut emit = |event: TelemetryEvent| {
                sink.emit(&TelemetryRecord {
                    at: Instant::from_micros(10),
                    node: Some(0),
                    event,
                });
            };
            emit(TelemetryEvent::InjectionAttempt {
                channel: 3,
                lead: Duration::from_micros(40),
            });
            emit(TelemetryEvent::HeuristicVerdict {
                verdict: Verdict::Success,
                attempts_total: 1,
            });
            emit(TelemetryEvent::AnchorPrediction { error_us: -2.0 });
            emit(TelemetryEvent::RxEnd {
                channel: 1,
                access_address: 0x1,
                crc_ok: false,
                interferers: 1,
            });
        }
        // Tallies are buffered until the sink flushes.
        assert_eq!(reg.lock().counter("telemetry.events"), 0);
        sink.flush();
        let reg = reg.lock();
        assert_eq!(reg.counter("telemetry.events"), 4);
        assert_eq!(reg.counter("attack.attempts"), 1);
        assert_eq!(reg.counter("attack.success"), 1);
        assert_eq!(reg.counter("phy.rx_crc_bad"), 1);
        assert_eq!(
            reg.histogram("attack.lead_us").map(HistogramUs::count),
            Some(1)
        );
        assert_eq!(
            reg.histogram("attack.anchor_error_us")
                .map(HistogramUs::count),
            Some(1)
        );
        assert_eq!(reg.gauge("sim.last_event_us"), Some(10.0));
    }

    #[test]
    fn span_exits_fold_into_kind_scoped_counters() {
        let mut sink = MetricsSink::new();
        let reg = sink.handle();
        sink.emit(&TelemetryRecord {
            at: Instant::from_micros(1),
            node: None,
            event: TelemetryEvent::SpanEnter {
                id: 1,
                kind: SpanKind::TrialSync,
                detail: 0,
            },
        });
        sink.emit(&TelemetryRecord {
            at: Instant::from_micros(9),
            node: None,
            event: TelemetryEvent::SpanExit {
                id: 1,
                kind: SpanKind::TrialSync,
                detail: 0,
                sim_ns: 8_000,
                wall_ns: 120,
                self_sim_ns: 6_000,
                self_wall_ns: 100,
            },
        });
        sink.flush();
        let reg = reg.lock();
        assert_eq!(reg.counter("span.enters"), 1);
        assert_eq!(reg.counter("span.trial_sync.count"), 1);
        assert_eq!(reg.counter("span.trial_sync.sim_ns"), 8_000);
        assert_eq!(reg.counter("span.trial_sync.self_sim_ns"), 6_000);
        assert_eq!(reg.counter("span.trial_sync.wall_ns"), 120);
        assert_eq!(reg.counter("span.trial_sync.self_wall_ns"), 100);
        assert_eq!(reg.counter("span.trial_follow.count"), 0);
    }

    #[test]
    fn dropping_the_sink_folds_buffered_tallies() {
        let mut sink = MetricsSink::new();
        let reg = sink.handle();
        sink.emit(&TelemetryRecord {
            at: Instant::from_micros(5),
            node: None,
            event: TelemetryEvent::TxEnd,
        });
        drop(sink);
        assert_eq!(reg.lock().counter("telemetry.events"), 1);
        assert_eq!(reg.lock().gauge("sim.last_event_us"), Some(5.0));
    }

    #[test]
    fn repeated_flushes_do_not_double_count() {
        let mut sink = MetricsSink::new();
        let reg = sink.handle();
        sink.emit(&TelemetryRecord {
            at: Instant::from_micros(1),
            node: None,
            event: TelemetryEvent::AnchorPrediction { error_us: 2.0 },
        });
        sink.flush();
        sink.flush();
        let reg = reg.lock();
        assert_eq!(reg.counter("telemetry.events"), 1);
        assert_eq!(
            reg.histogram("attack.anchor_error_us")
                .map(HistogramUs::count),
            Some(1)
        );
    }

    #[test]
    fn iteration_is_name_sorted_regardless_of_insertion_order() {
        // The registry backs experiment artefacts: its iteration order must
        // be a pure function of the metric names, never of the order the
        // simulation happened to first touch them (determinism pass).
        let mut fwd = MetricsRegistry::new();
        fwd.inc("a.first");
        fwd.inc("z.last");
        fwd.set_gauge("a.g", 1.0);
        fwd.set_gauge("z.g", 2.0);
        fwd.observe_us("a.h", 1.0);
        fwd.observe_us("z.h", 2.0);
        let mut rev = MetricsRegistry::new();
        rev.observe_us("z.h", 2.0);
        rev.observe_us("a.h", 1.0);
        rev.set_gauge("z.g", 2.0);
        rev.set_gauge("a.g", 1.0);
        rev.inc("z.last");
        rev.inc("a.first");
        let names = |r: &MetricsRegistry| {
            (
                r.counters().map(|(k, _)| k).collect::<Vec<_>>(),
                r.gauges().map(|(k, _)| k).collect::<Vec<_>>(),
                r.histograms().map(|(k, _)| k).collect::<Vec<_>>(),
            )
        };
        assert_eq!(names(&fwd), names(&rev));
        assert_eq!(
            fwd.counters().map(|(k, _)| k).collect::<Vec<_>>(),
            vec!["a.first", "z.last"],
            "counters iterate in name order"
        );
    }
}
