//! Per-trial telemetry capture: sink selection, phase timing and the
//! metric block that rides along in experiment report rows.

use ble_telemetry::{HistSummary, HistogramUs, MetricsRegistry, SpanKind};

pub use ble_scenario::TelemetryMode;

/// Histogram summary in the shape report rows serialise (µs units).
#[derive(Debug, Clone, Copy)]
pub struct HistRow {
    /// Samples recorded.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (bucket upper-bound estimate).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl From<HistSummary> for HistRow {
    fn from(s: HistSummary) -> Self {
        HistRow {
            count: s.count,
            mean: s.mean,
            p50: s.p50,
            p90: s.p90,
            p95: s.p95,
            p99: s.p99,
            min: s.min,
            max: s.max,
        }
    }
}

/// Per-phase span attribution: one row per [`SpanKind`] that closed at
/// least once during a trial (or a series, after merging).
///
/// Sim-time fields are deterministic (byte-identical across equally-seeded
/// runs); the wall-clock fields come from the quarantined span clock and
/// are excluded from byte-identity (`cargo xtask determinism` neutralises
/// `wall_ns`/`self_wall_ns` like `trials_per_sec`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseProfile {
    /// The span kind's wire name (e.g. `"trial-sync"`).
    pub phase: &'static str,
    /// Closed spans of this kind.
    pub count: u64,
    /// Total simulation nanoseconds.
    pub sim_ns: u64,
    /// Simulation nanoseconds net of child spans.
    pub self_sim_ns: u64,
    /// Total wall-clock nanoseconds.
    pub wall_ns: u64,
    /// Wall-clock nanoseconds net of child spans.
    pub self_wall_ns: u64,
}

/// Extracts the per-phase profile from a registry's `span.*` counters, in
/// [`SpanKind::ALL`] order, skipping kinds that never closed a span.
pub fn phase_profile_from_registry(reg: &MetricsRegistry) -> Vec<PhaseProfile> {
    SpanKind::ALL
        .into_iter()
        .filter_map(|kind| {
            let names = kind.metric_names();
            let count = reg.counter(names.count);
            if count == 0 {
                return None;
            }
            Some(PhaseProfile {
                phase: kind.as_str(),
                count,
                sim_ns: reg.counter(names.sim_ns),
                self_sim_ns: reg.counter(names.self_sim_ns),
                wall_ns: reg.counter(names.wall_ns),
                self_wall_ns: reg.counter(names.self_wall_ns),
            })
        })
        .collect()
}

/// Folds one trial's phase rows into a series accumulator (rows keyed by
/// phase name; counts and durations add).
pub fn merge_phase_profile(acc: &mut Vec<PhaseProfile>, rows: &[PhaseProfile]) {
    for row in rows {
        match acc.iter_mut().find(|a| a.phase == row.phase) {
            Some(a) => {
                a.count = a.count.saturating_add(row.count);
                a.sim_ns = a.sim_ns.saturating_add(row.sim_ns);
                a.self_sim_ns = a.self_sim_ns.saturating_add(row.self_sim_ns);
                a.wall_ns = a.wall_ns.saturating_add(row.wall_ns);
                a.self_wall_ns = a.self_wall_ns.saturating_add(row.self_wall_ns);
            }
            None => acc.push(*row),
        }
    }
    // Keep a canonical phase order regardless of which trial introduced a
    // kind first (artefact bytes must not depend on per-trial span sets).
    acc.sort_by_key(|r| {
        SpanKind::parse(r.phase)
            .map(SpanKind::index)
            .unwrap_or(usize::MAX)
    });
}

/// Metrics extracted from one trial's registry after the run.
#[derive(Debug, Clone, Default)]
pub struct TrialMetrics {
    /// Anchor-prediction-error histogram (µs magnitudes, attacker side).
    pub anchor_error: Option<HistogramUs>,
    /// Injection lead-time histogram (µs before the predicted anchor).
    pub lead_time: Option<HistogramUs>,
    /// Observed Slave-response IFS deviation histogram (µs).
    pub ifs_delta: Option<HistogramUs>,
    /// Total telemetry events emitted during the trial.
    pub events_total: u64,
    /// Telemetry events per wall-clock second over the whole trial.
    pub events_per_sec: f64,
    /// Wall-clock seconds spent in the synchronisation phase.
    pub sync_wall_s: f64,
    /// Wall-clock seconds spent in the attack phase.
    pub attack_wall_s: f64,
    /// Per-phase span attribution (empty when spans never closed, e.g.
    /// telemetry off).
    pub phase_profile: Vec<PhaseProfile>,
}

impl TrialMetrics {
    /// Builds the per-trial block from a registry snapshot and the two
    /// experiment-phase wall-clock timings.
    pub fn from_registry(reg: &MetricsRegistry, sync_wall_s: f64, attack_wall_s: f64) -> Self {
        let events_total = reg.counter("telemetry.events");
        let wall = (sync_wall_s + attack_wall_s).max(1e-9);
        TrialMetrics {
            anchor_error: reg.histogram("attack.anchor_error_us").cloned(),
            lead_time: reg.histogram("attack.lead_us").cloned(),
            ifs_delta: reg.histogram("attack.ifs_delta_us").cloned(),
            events_total,
            events_per_sec: events_total as f64 / wall,
            sync_wall_s,
            attack_wall_s,
            phase_profile: phase_profile_from_registry(reg),
        }
    }
}

/// Merges an optional histogram into an accumulator (used when collapsing
/// per-trial metrics into one report row). Ignores empty or layout-mismatched
/// histograms.
pub fn merge_histogram(acc: &mut Option<HistogramUs>, h: Option<&HistogramUs>) {
    let Some(h) = h else { return };
    if h.is_empty() {
        return;
    }
    match acc {
        Some(a) => {
            let _ = a.merge(h);
        }
        None => *acc = Some(h.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_metrics_from_registry() {
        let mut reg = MetricsRegistry::new();
        reg.add("telemetry.events", 500);
        reg.observe_us("attack.lead_us", 36.0);
        reg.observe_us("attack.anchor_error_us", 4.0);
        let m = TrialMetrics::from_registry(&reg, 1.0, 1.0);
        assert_eq!(m.events_total, 500);
        assert!((m.events_per_sec - 250.0).abs() < 1e-9);
        assert_eq!(m.lead_time.as_ref().map(HistogramUs::count), Some(1));
        assert_eq!(m.anchor_error.as_ref().map(HistogramUs::count), Some(1));
        assert!(m.ifs_delta.is_none());
    }

    #[test]
    fn phase_profile_skips_unclosed_kinds_and_merges_by_name() {
        let mut reg = MetricsRegistry::new();
        reg.add("span.trial_sync.count", 1);
        reg.add("span.trial_sync.sim_ns", 1_000);
        reg.add("span.trial_sync.self_sim_ns", 800);
        reg.add("span.trial_sync.wall_ns", 50);
        reg.add("span.trial_sync.self_wall_ns", 40);
        let rows = phase_profile_from_registry(&reg);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].phase, "trial-sync");
        assert_eq!(rows[0].sim_ns, 1_000);

        let mut acc = Vec::new();
        merge_phase_profile(&mut acc, &rows);
        merge_phase_profile(&mut acc, &rows);
        assert_eq!(acc.len(), 1);
        assert_eq!(acc[0].count, 2);
        assert_eq!(acc[0].sim_ns, 2_000);
        assert_eq!(acc[0].self_wall_ns, 80);
    }

    #[test]
    fn merged_phase_rows_sort_in_kind_order() {
        let follow = PhaseProfile {
            phase: "trial-follow",
            count: 1,
            sim_ns: 5,
            self_sim_ns: 5,
            wall_ns: 0,
            self_wall_ns: 0,
        };
        let sync = PhaseProfile {
            phase: "trial-sync",
            count: 1,
            sim_ns: 9,
            self_sim_ns: 9,
            wall_ns: 0,
            self_wall_ns: 0,
        };
        // First trial only saw the follow phase; canonical order must not
        // depend on that accident.
        let mut acc = Vec::new();
        merge_phase_profile(&mut acc, &[follow]);
        merge_phase_profile(&mut acc, &[sync, follow]);
        assert_eq!(
            acc.iter().map(|r| r.phase).collect::<Vec<_>>(),
            vec!["trial-sync", "trial-follow"]
        );
    }

    #[test]
    fn merge_histogram_accumulates() {
        let mut a = HistogramUs::default();
        a.record(10.0);
        let mut b = HistogramUs::default();
        b.record(20.0);
        let mut acc = None;
        merge_histogram(&mut acc, Some(&a));
        merge_histogram(&mut acc, Some(&b));
        merge_histogram(&mut acc, None);
        assert_eq!(acc.map(|h| h.count()), Some(2));
    }
}
