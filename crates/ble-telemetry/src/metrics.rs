//! Typed counters, gauges and fixed-bucket microsecond histograms.
//!
//! The registry is fixed-size and keyed by enums: a [`Counter`] or a
//! [`Histogram`] indexes an array slot, and span totals sit in one slot
//! per [`SpanKind`]. The [`MetricsSink`] counts into a private registry of
//! the same type and merges it into the shared one on flush, so counting
//! an event takes no lock and no lookup. The bench rig reads a trial's
//! registry into its `SeriesReport` artefacts afterwards.

use std::ops::Index;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::event::{FaultKind, TelemetryEvent, Verdict};
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

/// Declares a metric key enum from one table. Each row is a variant, its
/// slot in `ALL` and its dotted name, which also documents the variant.
macro_rules! metric_keys {
    ($(#[$meta:meta])* $key:ident { $($variant:ident = $index:literal, $name:literal;)* }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $key {
            $(#[doc = concat!("`", $name, "`")] $variant,)*
        }

        impl $key {
            /// Every key, in slot order (`index` indexes it).
            pub const ALL: [$key; [$($index),*].len()] = [$($key::$variant),*];

            /// Position in `ALL`.
            pub fn index(self) -> usize {
                match self {
                    $($key::$variant => $index,)*
                }
            }

            /// Stable dotted name (`"phy.collision"`, …).
            pub fn name(self) -> &'static str {
                match self {
                    $($key::$variant => $name,)*
                }
            }
        }
    };
}

metric_keys! {
    /// Everything [`MetricsSink`] counts. The registry keeps one `u64` per
    /// variant; the dotted name is the key of [`MetricsRegistry::counter`].
    Counter {
        TelemetryEvents = 0, "telemetry.events";
        SimNodes = 1, "sim.nodes";
        PhyTx = 2, "phy.tx";
        PhyRxLock = 3, "phy.rx_lock";
        PhyRelock = 4, "phy.relock";
        PhyRx = 5, "phy.rx";
        PhyRxCrcBad = 6, "phy.rx_crc_bad";
        PhyCollision = 7, "phy.collision";
        PhyInterferenceSpill = 8, "phy.interference_spill";
        LinkAnchor = 9, "link.anchor";
        LinkWindowOpen = 10, "link.window_open";
        LinkHop = 11, "link.hop";
        LinkSnNesn = 12, "link.sn_nesn";
        LinkCrcFail = 13, "link.crc_fail";
        LinkControlPdu = 14, "link.control_pdu";
        LinkConnected = 15, "link.connected";
        LinkDisconnect = 16, "link.disconnect";
        AttackSnifferSync = 17, "attack.sniffer_sync";
        AttackSnifferLost = 18, "attack.sniffer_lost";
        AttackResyncBackoff = 19, "attack.resync_backoff";
        AttackResyncExhausted = 20, "attack.resync_exhausted";
        AttackAttempts = 21, "attack.attempts";
        AttackSuccess = 22, "attack.success";
        AttackRejected = 23, "attack.rejected";
        AttackNoResponse = 24, "attack.no_response";
        AttackTakeover = 25, "attack.takeover";
        DetectorAlerts = 26, "detector.alerts";
        HostPoolExhausted = 27, "host.pool_exhausted";
        HostSlotDenied = 28, "host.slot_denied";
        HostConnEstablished = 29, "host.conn_established";
        HostConnReleased = 30, "host.conn_released";
        FaultBursts = 31, "fault.bursts";
        FaultEpisodes = 32, "fault.episodes";
        FaultFramesLost = 33, "fault.frames_lost";
        FaultFramesCorrupted = 34, "fault.frames_corrupted";
        SpanEnters = 35, "span.enters";
    }
}

metric_keys! {
    /// The sink's microsecond histograms.
    Histogram {
        Widening = 0, "link.widening_us";
        Lead = 1, "attack.lead_us";
        AnchorError = 2, "attack.anchor_error_us";
        IfsDelta = 3, "attack.ifs_delta_us";
        DetectorMagnitude = 4, "detector.magnitude_us";
    }
}

/// Aggregates of one [`SpanKind`]'s closed spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanTotals {
    /// Closed spans.
    pub count: u64,
    /// Total simulation nanoseconds.
    pub sim_ns: u64,
    /// Simulation nanoseconds net of child spans.
    pub self_sim_ns: u64,
    /// Total wall-clock nanoseconds (0 without an injected clock).
    pub wall_ns: u64,
    /// Wall-clock nanoseconds net of child spans.
    pub self_wall_ns: u64,
}

impl SpanTotals {
    fn add(&mut self, other: &SpanTotals) {
        self.count = self.count.saturating_add(other.count);
        self.sim_ns = self.sim_ns.saturating_add(other.sim_ns);
        self.self_sim_ns = self.self_sim_ns.saturating_add(other.self_sim_ns);
        self.wall_ns = self.wall_ns.saturating_add(other.wall_ns);
        self.self_wall_ns = self.self_wall_ns.saturating_add(other.self_wall_ns);
    }
}

/// Typed metrics: one counter per [`Counter`], one histogram per
/// [`Histogram`], [`SpanTotals`] per [`SpanKind`], and two gauges (the
/// last event's time and the packet pool's high-water mark).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsRegistry {
    counters: [u64; Counter::ALL.len()],
    histograms: [HistogramUs; Histogram::ALL.len()],
    spans: [SpanTotals; SpanKind::ALL.len()],
    last_event_us: Option<f64>,
    /// Running maximum; 0 until a pool reports occupancy.
    pool_high_water: u64,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            counters: [0; Counter::ALL.len()],
            histograms: std::array::from_fn(|_| HistogramUs::default()),
            spans: [SpanTotals::default(); SpanKind::ALL.len()],
            last_event_us: None,
            pool_high_water: 0,
        }
    }
}

impl Index<Counter> for MetricsRegistry {
    type Output = u64;

    fn index(&self, counter: Counter) -> &u64 {
        self.counters.get(counter.index()).unwrap_or(&0)
    }
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

    /// The counter named `name` ([`Counter::name`]); 0 for a name that no
    /// counter has.
    pub fn counter(&self, name: &str) -> u64 {
        Counter::ALL
            .into_iter()
            .find(|c| c.name() == name)
            .map_or(0, |c| *self.index(c))
    }

    /// A histogram, if any observation was recorded.
    pub fn histogram(&self, which: Histogram) -> Option<&HistogramUs> {
        self.histograms.get(which.index()).filter(|h| !h.is_empty())
    }

    /// The aggregates of `kind`'s closed spans.
    pub fn span(&self, kind: SpanKind) -> SpanTotals {
        self.spans.get(kind.index()).copied().unwrap_or_default()
    }

    /// Simulation time of the last event, in µs, if any event was seen.
    pub fn last_event_us(&self) -> Option<f64> {
        self.last_event_us
    }

    /// Most packet-pool buffers in use at once, once a pool reported.
    pub fn pool_high_water(&self) -> Option<u64> {
        (self.pool_high_water != 0).then_some(self.pool_high_water)
    }

    /// Folds another registry into this one: counters, histograms and span
    /// totals add, the last-event gauge takes the other's value when it has
    /// one, and the high-water gauge keeps the larger mark.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (mine, theirs) in self.counters.iter_mut().zip(&other.counters) {
            *mine = mine.saturating_add(*theirs);
        }
        for (mine, theirs) in self.histograms.iter_mut().zip(&other.histograms) {
            mine.merge(theirs);
        }
        for (mine, theirs) in self.spans.iter_mut().zip(&other.spans) {
            mine.add(theirs);
        }
        if other.last_event_us.is_some() {
            self.last_event_us = other.last_event_us;
        }
        self.pool_high_water = self.pool_high_water.max(other.pool_high_water);
    }

    /// Empties the registry in place, keeping the histograms' buffers.
    fn clear(&mut self) {
        self.counters = [0; Counter::ALL.len()];
        for h in &mut self.histograms {
            h.clear();
        }
        self.spans = [SpanTotals::default(); SpanKind::ALL.len()];
        self.last_event_us = None;
        self.pool_high_water = 0;
    }

    fn bump(&mut self, counter: Counter) {
        if let Some(n) = self.counters.get_mut(counter.index()) {
            *n = n.saturating_add(1);
        }
    }

    fn observe(&mut self, which: Histogram, value_us: f64) {
        if let Some(h) = self.histograms.get_mut(which.index()) {
            h.record(value_us);
        }
    }
}

/// A [`TelemetrySink`] that folds every event into a [`MetricsRegistry`].
///
/// The event→metric mapping is an exhaustive match (xtask R4): adding a
/// [`TelemetryEvent`] variant forces a decision here about how it is
/// counted.
///
/// `emit` sits on the simulation hot path, so it counts into a private
/// registry that takes no lock; [`TelemetrySink::flush`] (or drop) merges
/// that buffer into the shared registry and empties it. Read the registry
/// only after flushing the world's sinks.
#[derive(Debug)]
pub struct MetricsSink {
    registry: SharedRegistry,
    buf: MetricsRegistry,
}

impl MetricsSink {
    /// A sink feeding a fresh shared registry.
    pub fn new() -> Self {
        MetricsSink {
            registry: MetricsRegistry::shared(),
            buf: MetricsRegistry::new(),
        }
    }

    /// The shared registry this sink feeds. Buffered counts become
    /// visible here after [`TelemetrySink::flush`].
    pub fn handle(&self) -> SharedRegistry {
        self.registry.clone()
    }

    /// Merges the buffer into the shared registry and empties it.
    fn fold_into_registry(&mut self) {
        if *self.buf.index(Counter::TelemetryEvents) == 0 {
            return;
        }
        self.registry.lock().merge(&self.buf);
        self.buf.clear();
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
        let b = &mut self.buf;
        b.bump(Counter::TelemetryEvents);
        b.last_event_us = Some(record.at.as_micros_f64());
        match &record.event {
            TelemetryEvent::NodeAdded { .. } => b.bump(Counter::SimNodes),
            TelemetryEvent::TxStart { .. } => b.bump(Counter::PhyTx),
            TelemetryEvent::TxEnd => {}
            TelemetryEvent::RxLock { .. } => b.bump(Counter::PhyRxLock),
            TelemetryEvent::Relock { .. } => b.bump(Counter::PhyRelock),
            TelemetryEvent::RxEnd { crc_ok, .. } => {
                b.bump(Counter::PhyRx);
                if !crc_ok {
                    b.bump(Counter::PhyRxCrcBad);
                }
            }
            TelemetryEvent::Collision { .. } => b.bump(Counter::PhyCollision),
            TelemetryEvent::InterferenceSpill { .. } => b.bump(Counter::PhyInterferenceSpill),
            TelemetryEvent::Anchor { .. } => b.bump(Counter::LinkAnchor),
            TelemetryEvent::WindowOpen { widening, .. } => {
                b.bump(Counter::LinkWindowOpen);
                b.observe(Histogram::Widening, widening.as_micros_f64());
            }
            TelemetryEvent::Hop { .. } => b.bump(Counter::LinkHop),
            TelemetryEvent::SnNesn { .. } => b.bump(Counter::LinkSnNesn),
            TelemetryEvent::CrcFail { .. } => b.bump(Counter::LinkCrcFail),
            TelemetryEvent::LlControl { .. } => b.bump(Counter::LinkControlPdu),
            TelemetryEvent::ConnectionEstablished { .. } => b.bump(Counter::LinkConnected),
            TelemetryEvent::ConnectionClosed { .. } => b.bump(Counter::LinkDisconnect),
            TelemetryEvent::SnifferSync { .. } => b.bump(Counter::AttackSnifferSync),
            TelemetryEvent::SnifferLost { .. } => b.bump(Counter::AttackSnifferLost),
            TelemetryEvent::ResyncBackoff { .. } => b.bump(Counter::AttackResyncBackoff),
            TelemetryEvent::ResyncExhausted { .. } => b.bump(Counter::AttackResyncExhausted),
            TelemetryEvent::InjectionAttempt { lead, .. } => {
                b.bump(Counter::AttackAttempts);
                b.observe(Histogram::Lead, lead.as_micros_f64());
            }
            TelemetryEvent::HeuristicVerdict { verdict, .. } => b.bump(match verdict {
                Verdict::Success => Counter::AttackSuccess,
                Verdict::Rejected => Counter::AttackRejected,
                Verdict::NoResponse => Counter::AttackNoResponse,
            }),
            TelemetryEvent::AnchorPrediction { error_us } => {
                b.observe(Histogram::AnchorError, *error_us);
            }
            TelemetryEvent::IfsDelta { delta_us } => b.observe(Histogram::IfsDelta, *delta_us),
            TelemetryEvent::Takeover { .. } => b.bump(Counter::AttackTakeover),
            TelemetryEvent::DetectorAlert { magnitude_us, .. } => {
                b.bump(Counter::DetectorAlerts);
                b.observe(Histogram::DetectorMagnitude, *magnitude_us);
            }
            TelemetryEvent::PoolExhausted { .. } => b.bump(Counter::HostPoolExhausted),
            TelemetryEvent::SlotDenied => b.bump(Counter::HostSlotDenied),
            TelemetryEvent::ConnEstablished { .. } => b.bump(Counter::HostConnEstablished),
            TelemetryEvent::ConnReleased { .. } => b.bump(Counter::HostConnReleased),
            TelemetryEvent::PoolHighWater { in_use } => {
                b.pool_high_water = b.pool_high_water.max(u64::from(*in_use));
            }
            TelemetryEvent::FaultBurst { active, .. } => {
                if *active {
                    b.bump(Counter::FaultBursts);
                }
            }
            TelemetryEvent::FaultEpisode { active, .. } => {
                if *active {
                    b.bump(Counter::FaultEpisodes);
                }
            }
            TelemetryEvent::FaultFrame { kind, .. } => b.bump(match kind {
                FaultKind::Loss => Counter::FaultFramesLost,
                FaultKind::Corruption => Counter::FaultFramesCorrupted,
                // Burst/fading/drift faults are episodic, not per-frame; a
                // mislabelled frame event still counts as a lost frame.
                FaultKind::Interference | FaultKind::Fading | FaultKind::Drift => {
                    Counter::FaultFramesLost
                }
            }),
            TelemetryEvent::SpanEnter { .. } => b.bump(Counter::SpanEnters),
            TelemetryEvent::SpanExit {
                kind,
                sim_ns,
                wall_ns,
                self_sim_ns,
                self_wall_ns,
                ..
            } => {
                if let Some(totals) = b.spans.get_mut(kind.index()) {
                    totals.add(&SpanTotals {
                        count: 1,
                        sim_ns: *sim_ns,
                        self_sim_ns: *self_sim_ns,
                        wall_ns: *wall_ns,
                        self_wall_ns: *self_wall_ns,
                    });
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
    fn counter_names_are_distinct_and_round_trip() {
        let mut seen = std::collections::BTreeSet::new();
        let mut r = MetricsRegistry::new();
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i, "{c:?} sits in its own slot");
            assert!(seen.insert(c.name()), "duplicate counter name {}", c.name());
            r.counters[i] = 100 + i as u64;
        }
        for c in Counter::ALL {
            assert_eq!(r.counter(c.name()), r[c], "{}", c.name());
            assert_eq!(r[c], 100 + c.index() as u64);
        }
        assert_eq!(r.counter("missing"), 0);
        for (i, h) in Histogram::ALL.into_iter().enumerate() {
            assert_eq!(h.index(), i, "{h:?} sits in its own slot");
            assert!(seen.insert(h.name()), "duplicate metric name {}", h.name());
        }
    }

    #[test]
    fn counter_saturates_instead_of_overflowing() {
        let mut r = MetricsRegistry::new();
        r.counters = [u64::MAX - 1; Counter::ALL.len()];
        let mut other = MetricsRegistry::new();
        other.counters = [5; Counter::ALL.len()];
        r.merge(&other);
        assert_eq!(r[Counter::PhyCollision], u64::MAX);
    }

    fn record(at_us: u64, event: TelemetryEvent) -> TelemetryRecord {
        TelemetryRecord {
            at: Instant::from_micros(at_us),
            node: None,
            event,
        }
    }

    #[test]
    fn sink_classifies_events() {
        let mut sink = MetricsSink::new();
        let reg = sink.handle();
        for event in [
            TelemetryEvent::InjectionAttempt {
                channel: 3,
                lead: Duration::from_micros(40),
            },
            TelemetryEvent::HeuristicVerdict {
                verdict: Verdict::Success,
                attempts_total: 1,
            },
            TelemetryEvent::AnchorPrediction { error_us: -2.0 },
            TelemetryEvent::RxEnd {
                channel: 1,
                access_address: 0x1,
                crc_ok: false,
                interferers: 1,
            },
            TelemetryEvent::PoolHighWater { in_use: 3 },
            TelemetryEvent::PoolHighWater { in_use: 2 },
        ] {
            sink.emit(&record(10, event));
        }
        // Counts are buffered until the sink flushes.
        assert_eq!(reg.lock()[Counter::TelemetryEvents], 0);
        sink.flush();
        let reg = reg.lock();
        assert_eq!(reg[Counter::TelemetryEvents], 6);
        assert_eq!(reg[Counter::AttackAttempts], 1);
        assert_eq!(reg[Counter::AttackSuccess], 1);
        assert_eq!(reg[Counter::PhyRxCrcBad], 1);
        assert_eq!(
            reg.histogram(Histogram::Lead).map(HistogramUs::count),
            Some(1)
        );
        assert_eq!(
            reg.histogram(Histogram::AnchorError)
                .map(HistogramUs::count),
            Some(1)
        );
        assert_eq!(reg.histogram(Histogram::IfsDelta), None);
        assert_eq!(reg.last_event_us(), Some(10.0));
        assert_eq!(reg.pool_high_water(), Some(3));
    }

    #[test]
    fn span_exits_fold_into_kind_scoped_counters() {
        let mut sink = MetricsSink::new();
        let reg = sink.handle();
        sink.emit(&record(
            1,
            TelemetryEvent::SpanEnter {
                id: 1,
                kind: SpanKind::TrialSync,
                detail: 0,
            },
        ));
        sink.emit(&record(
            9,
            TelemetryEvent::SpanExit {
                id: 1,
                kind: SpanKind::TrialSync,
                detail: 0,
                sim_ns: 8_000,
                wall_ns: 120,
                self_sim_ns: 6_000,
                self_wall_ns: 100,
            },
        ));
        sink.flush();
        let reg = reg.lock();
        assert_eq!(reg[Counter::SpanEnters], 1);
        assert_eq!(
            reg.span(SpanKind::TrialSync),
            SpanTotals {
                count: 1,
                sim_ns: 8_000,
                self_sim_ns: 6_000,
                wall_ns: 120,
                self_wall_ns: 100,
            }
        );
        assert_eq!(reg.span(SpanKind::TrialFollow), SpanTotals::default());
    }

    #[test]
    fn dropping_the_sink_folds_buffered_tallies() {
        let mut sink = MetricsSink::new();
        let reg = sink.handle();
        sink.emit(&record(5, TelemetryEvent::TxEnd));
        drop(sink);
        assert_eq!(reg.lock()[Counter::TelemetryEvents], 1);
        assert_eq!(reg.lock().last_event_us(), Some(5.0));
    }

    #[test]
    fn repeated_flushes_do_not_double_count() {
        let mut sink = MetricsSink::new();
        let reg = sink.handle();
        sink.emit(&record(
            1,
            TelemetryEvent::AnchorPrediction { error_us: 2.0 },
        ));
        sink.emit(&record(2, TelemetryEvent::PoolHighWater { in_use: 4 }));
        sink.flush();
        sink.flush();
        // A later flush of fewer buffered events keeps earlier gauges.
        sink.emit(&record(3, TelemetryEvent::PoolHighWater { in_use: 1 }));
        sink.flush();
        let reg = reg.lock();
        assert_eq!(reg[Counter::TelemetryEvents], 3);
        assert_eq!(
            reg.histogram(Histogram::AnchorError)
                .map(HistogramUs::count),
            Some(1)
        );
        assert_eq!(reg.pool_high_water(), Some(4));
        assert_eq!(reg.last_event_us(), Some(3.0));
    }

    #[test]
    fn registry_does_not_depend_on_event_order() {
        // The registry backs experiment artefacts: its contents must be a
        // function of the events seen, never of the order the simulation
        // happened to emit them in (determinism pass).
        let events = [
            TelemetryEvent::AnchorPrediction { error_us: 1.0 },
            TelemetryEvent::IfsDelta { delta_us: 2.0 },
            TelemetryEvent::TxEnd,
            TelemetryEvent::SlotDenied,
        ];
        let fold = |order: &mut dyn Iterator<Item = &TelemetryEvent>| {
            let mut sink = MetricsSink::new();
            let reg = sink.handle();
            for event in order {
                sink.emit(&record(1, event.clone()));
            }
            sink.flush();
            let snapshot = reg.lock().clone();
            snapshot
        };
        assert_eq!(fold(&mut events.iter()), fold(&mut events.iter().rev()));
    }
}
