//! The per-layer report: one row per metric, with the crate it measures,
//! its kind, and the end-to-end metric and workload it should move.

use std::collections::BTreeMap;

use bench::wallclock::Stopwatch;
use ble_phy::{crc24, whiten_in_place, Channel};

use crate::trace::{Counts, Tracer};

/// How a per-layer metric is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A sim-deterministic work count: repeats exactly, gated exactly.
    Count,
    /// Wall time from benchmark-side spans or timing.
    Wall,
    /// Derived from counts (exact) or from walls (noisy), as noted.
    Computed,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Count => "count",
            Kind::Wall => "wall",
            Kind::Computed => "computed",
        }
    }
}

/// One per-layer metric of a traced run.
#[derive(Debug, Clone)]
pub struct LayerMetric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Workspace crate the metric measures.
    pub layer: &'static str,
    /// Unit of `value`.
    pub unit: &'static str,
    /// How the value is obtained.
    pub kind: Kind,
    /// End-to-end metric and workload the metric should move.
    pub moves: &'static str,
    /// The measured value.
    pub value: f64,
}

/// What a traced run measured, beyond the tracer itself.
pub struct TracedRun<'a> {
    /// Spans and counts of the traced pass.
    pub tracer: &'a Tracer,
    /// Trials in the traced pass.
    pub trials: u64,
    /// Traced trials that panicked or aborted.
    pub panicked: u64,
    /// Failed trials of the timed phase: unfinished, never synchronised,
    /// or out of budget without a confirmed injection.
    pub failed: u64,
    /// Trials requested in the timed phase.
    pub requested: u64,
    /// Trials per wall second of the timed phase.
    pub timed_trials_per_s: f64,
    /// Trials per wall second of the traced pass.
    pub traced_trials_per_s: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A layer: its workspace crate(s) and the end-to-end metric and workload
/// its metrics should move.
type Layer = (&'static str, &'static str);

const SCENARIO: Layer = (
    "ble-scenario",
    "setup_s and trials_per_s on fig9_quiet; flat on dense_band_512",
);
const SIM: Layer = (
    "simkit+ble-phy",
    "sim_s_per_wall_s and trial_ms_p50 on dense_band_512 and multi_conn_8",
);
const MEDIUM: Layer = (
    "ble-phy",
    "sim_s_per_wall_s on dense_band_512; flat on multi_conn_8",
);
const CODEC: Layer = ("ble-phy", "sim_s_per_wall_s on multi_conn_8");
const LINK: Layer = (
    "ble-link",
    "sim_s_per_wall_s on multi_conn_8; flat on dense_band_512",
);
const HOST: Layer = ("ble-host+ble-devices", "trial_ms_p50 on multi_conn_8");
const ATTACK: Layer = ("injectable", "trial_ms_p50 on fig9_quiet");
const TELEMETRY: Layer = ("ble-telemetry", "trials_per_s on dense_band_512");
const BENCH: Layer = ("bench", "trials_per_s on fig9_quiet");
const OUTCOMES: Layer = (
    "bench",
    "only with trial outcomes, which the output check pins",
);

fn row(
    layer: Layer,
    name: &'static str,
    unit: &'static str,
    kind: Kind,
    value: f64,
) -> LayerMetric {
    LayerMetric {
        name,
        layer: layer.0,
        unit,
        kind,
        moves: layer.1,
        value,
    }
}

/// Every per-layer metric of a traced run. Walls are totals over the
/// traced pass in ms; counts are totals over the traced pass.
pub fn layer_metrics(run: &TracedRun<'_>) -> Vec<LayerMetric> {
    use Kind::{Computed, Count, Wall};
    let tr = run.tracer;
    let c: Counts = tr.counts.lock().clone();
    let d = c.delivery;
    let ms = |name: &str| tr.total_ns(name) as f64 / 1e6;
    let tx = d.tx_frames as f64;
    let sched = d.scheduled_rx_starts as f64;
    let culled = d.culled_unreachable as f64;
    let delivered = d.frames_delivered as f64;
    let finished = (run.trials - run.panicked) as f64;
    let sim_ms = ms("sim.sync") + ms("sim.attack");
    let tps_drop = run.timed_trials_per_s - run.traced_trials_per_s;
    vec![
        row(
            SCENARIO,
            "scenario.build_ms",
            "ms",
            Wall,
            ms("scenario.build"),
        ),
        row(
            SCENARIO,
            "scenario.nodes",
            "count",
            Count,
            ratio(c.nodes_added as f64, finished),
        ),
        row(SIM, "sim.sync_ms", "ms", Wall, ms("sim.sync")),
        row(SIM, "sim.attack_ms", "ms", Wall, ms("sim.attack")),
        row(
            SIM,
            "sim.us_per_frame",
            "us",
            Computed,
            ratio(sim_ms * 1e3, tx),
        ),
        row(MEDIUM, "phy.tx_frames", "count", Count, tx),
        row(MEDIUM, "phy.rx_starts_scheduled", "count", Count, sched),
        row(
            MEDIUM,
            "phy.rx_starts_per_frame",
            "1/frame",
            Computed,
            ratio(sched, tx),
        ),
        row(MEDIUM, "phy.culled", "count", Count, culled),
        row(
            MEDIUM,
            "phy.cull_frac",
            "frac",
            Computed,
            ratio(culled, sched + culled),
        ),
        row(
            MEDIUM,
            "phy.rx_locks",
            "count",
            Count,
            d.frames_heard as f64,
        ),
        row(MEDIUM, "phy.frames_delivered", "count", Count, delivered),
        row(
            MEDIUM,
            "phy.useful_rx_frac",
            "frac",
            Computed,
            ratio(delivered, sched),
        ),
        row(
            MEDIUM,
            "phy.collisions",
            "count",
            Count,
            c.collisions as f64,
        ),
        row(MEDIUM, "phy.relocks", "count", Count, c.relocks as f64),
        row(MEDIUM, "phy.crc_bad", "count", Count, c.crc_bad as f64),
        row(
            MEDIUM,
            "phy.interference_spill",
            "count",
            Count,
            c.interference_spill as f64,
        ),
        row(
            CODEC,
            "phy.codec_bytes",
            "B",
            Computed,
            (c.tx_bytes + c.lock_bytes) as f64,
        ),
        row(
            CODEC,
            "phy.codec_ns_per_byte",
            "ns/B",
            Wall,
            codec_ns_per_byte(&c.tx_len_mix),
        ),
        row(LINK, "link.anchors", "count", Count, c.anchors as f64),
        row(
            LINK,
            "link.window_opens",
            "count",
            Count,
            c.window_opens as f64,
        ),
        row(LINK, "link.hops", "count", Count, c.hops as f64),
        row(
            LINK,
            "link.crc_fail",
            "count",
            Count,
            c.link_crc_fail as f64,
        ),
        row(
            LINK,
            "link.control_pdus",
            "count",
            Count,
            c.control_pdus as f64,
        ),
        row(
            LINK,
            "link.disconnects",
            "count",
            Count,
            c.disconnects as f64,
        ),
        row(
            HOST,
            "host.conn_established",
            "count",
            Count,
            c.conn_established as f64,
        ),
        row(
            HOST,
            "host.pool_exhausted",
            "count",
            Count,
            c.pool_exhausted as f64,
        ),
        row(
            HOST,
            "host.slot_denied",
            "count",
            Count,
            c.slot_denied as f64,
        ),
        row(
            HOST,
            "host.pool_high_water",
            "count",
            Count,
            c.pool_high_water as f64,
        ),
        row(ATTACK, "attack.attempts", "count", Count, c.attempts as f64),
        row(
            ATTACK,
            "attack.successes",
            "count",
            Count,
            c.successes as f64,
        ),
        row(
            ATTACK,
            "attack.success_per_attempt",
            "frac",
            Computed,
            ratio(c.successes as f64, c.attempts as f64),
        ),
        row(
            ATTACK,
            "attack.sniffer_lost",
            "count",
            Count,
            c.sniffer_lost as f64,
        ),
        row(
            ATTACK,
            "attack.no_response",
            "count",
            Count,
            c.no_response as f64,
        ),
        row(ATTACK, "attack.rejected", "count", Count, c.rejected as f64),
        row(
            TELEMETRY,
            "telemetry.records",
            "count",
            Count,
            c.records as f64,
        ),
        row(
            TELEMETRY,
            "telemetry.records_per_frame",
            "1/frame",
            Computed,
            ratio(c.records as f64, tx),
        ),
        row(
            TELEMETRY,
            "telemetry.flush_ms",
            "ms",
            Wall,
            ms("telemetry.flush"),
        ),
        row(BENCH, "bench.fold_ms", "ms", Wall, ms("bench.fold")),
        row(BENCH, "bench.trials", "count", Count, run.trials as f64),
        row(BENCH, "bench.panicked", "count", Count, run.panicked as f64),
        row(
            BENCH,
            "trace_overhead_frac",
            "frac",
            Computed,
            ratio(tps_drop, run.timed_trials_per_s),
        ),
        row(
            OUTCOMES,
            "trial_fail_frac",
            "frac",
            Computed,
            ratio(run.failed as f64, run.requested as f64),
        ),
    ]
}

/// Tab-separated per-layer report, one row per metric.
pub fn report_tsv(workload: &str, metrics: &[LayerMetric]) -> String {
    let mut out = String::from("metric\tlayer\tunit\tkind\tvalue\tshould_move\tworkload\n");
    for m in metrics {
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{workload}\n",
            m.name,
            m.layer,
            m.unit,
            m.kind.as_str(),
            m.value,
            m.moves
        ));
    }
    out
}

/// CRC-24 plus whitening cost per byte, timed on the traced pass's own
/// `TxStart` PDU-length mix (median of five ≥ 20 ms samples).
fn codec_ns_per_byte(mix: &BTreeMap<u32, u64>) -> f64 {
    const FRAMES: f64 = 4096.0;
    let total: u64 = mix.values().sum();
    let Some(channel) = Channel::new(37) else {
        return 0.0;
    };
    if total == 0 {
        return 0.0;
    }
    let mut buf: Vec<u8> = (0..=255u8).chain(0..4).collect();
    let lens: Vec<usize> = mix
        .iter()
        .flat_map(|(&len, &n)| {
            let copies = (n as f64 / total as f64 * FRAMES).round().max(1.0) as usize;
            std::iter::repeat_n((len as usize).min(buf.len()), copies)
        })
        .collect();
    let bytes_per_pass: usize = lens.iter().sum();
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let sw = Stopwatch::start();
            let mut passes = 0usize;
            let mut acc = 0u32;
            while passes == 0 || sw.elapsed_s() < 0.02 {
                for &len in &lens {
                    let frame = std::hint::black_box(&mut buf[..len]);
                    acc ^= crc24(0x55_5555, frame);
                    whiten_in_place(channel, frame);
                }
                passes += 1;
            }
            std::hint::black_box(acc);
            sw.elapsed_s() * 1e9 / (passes * bytes_per_pass) as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}
