//! The three workloads: their trial pools, scene constructors, trials and
//! campaign folds, each mirroring the experiment binary it is named after.
//!
//! - `fig9_quiet` is exp1 (`exp1_hop_interval`): the paper's quiet-lab rig,
//!   trials through `bench::run_trial` exactly as `run_point` runs them.
//! - `dense_band_512` is exp6 (`exp6_dense_band`) at 512 background pairs.
//! - `multi_conn_8` is exp5 (`exp5_multi_conn`) at 8 connections.
//!
//! exp5's and exp6's trial loops are private to their binaries, so they
//! are restated here; the fixed-seed digests and the baseline `raw`
//! vectors prove the restatements reproduce the binaries' outcomes. The
//! traced variants differ from the timed ones only by the benchmark-side
//! spans and the observation-only instruments `instrument` attaches.

use bench::campaign::SeriesAccumulator;
use bench::rig::ExperimentRig;
use bench::trial::{canonical_write_payload, trial_seed};
use bench::wallclock::{monotonic_ns, Stopwatch};
use bench::{SeriesReport, TrialConfig, TrialMetrics, TrialOutcome};
use ble_devices::Lightbulb;
use ble_link::Llid;
use ble_phy::Environment;
use ble_scenario::{Scenario, ScenarioBuilder, TelemetryMode};
use ble_telemetry::{SharedRegistry, SpanKind};
use injectable::{Attacker, Mission};
use simkit::Duration;

use crate::trace::{CountingSink, Spans};

/// exp1's hop intervals (×1.25 ms), in the binary's row order.
const FIG9_HOPS: [u16; 6] = [25, 50, 75, 100, 125, 150];
/// Trials per hop interval in the `fig9_quiet` pool.
const FIG9_PER_HOP: u64 = 500;
/// Background pairs of the `dense_band_512` hall.
const DENSE_PAIRS: usize = 512;
/// Trials in the `dense_band_512` pool.
const DENSE_POOL: u64 = 50;
/// Concurrent connections of the `multi_conn_8` Central.
const MULTI_CONNS: usize = 8;
/// Trials in the `multi_conn_8` pool.
const MULTI_POOL: u64 = 200;
/// exp6's per-packet delivery-ledger capacity, reused when a traced run
/// attaches a tracker to a scene built without one.
const TRACKER_CAPACITY: usize = 128;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// exp1's quiet-lab rig across the six hop intervals.
    Fig9Quiet,
    /// exp6's dense hall with 512 background pairs.
    DenseBand512,
    /// exp5's slot-pooled Central with 8 concurrent connections.
    MultiConn8,
}

/// One trial of a workload's pool.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Trial seed (`trial_seed(base + parameter, i)`, as the binary).
    pub seed: u64,
    /// Report row the trial folds into (hop index for `fig9_quiet`).
    pub row: usize,
    /// Index `i` of the trial within its row.
    pub i: u64,
}

/// exp6's per-trial band statistics.
#[derive(Debug, Clone, Copy, Default)]
struct BandStats {
    tx_frames: u64,
    scheduled_rx_starts: u64,
    collisions: u64,
}

/// One finished trial.
#[derive(Debug, Clone)]
pub struct Trial {
    /// The binary's outcome record.
    pub outcome: TrialOutcome,
    /// Band statistics (`dense_band_512` only).
    band: Option<BandStats>,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::Fig9Quiet,
        Workload::DenseBand512,
        Workload::MultiConn8,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig9Quiet => "fig9_quiet",
            Workload::DenseBand512 => "dense_band_512",
            Workload::MultiConn8 => "multi_conn_8",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The matching experiment binary's default seed base (its `--seed`).
    pub fn default_seed_base(self) -> u64 {
        match self {
            Workload::Fig9Quiet => 1_000,
            Workload::DenseBand512 => 6_000,
            Workload::MultiConn8 => 5_000,
        }
    }

    /// Baseline artefact whose matching row the first five trials of each
    /// row must reproduce, and that row's swept value.
    pub fn baseline(self) -> (&'static str, Vec<f64>) {
        match self {
            Workload::Fig9Quiet => (
                "BENCH_exp1_hop_interval.json",
                FIG9_HOPS.iter().map(|&h| f64::from(h)).collect(),
            ),
            Workload::DenseBand512 => ("BENCH_exp6_dense_band.json", vec![DENSE_PAIRS as f64]),
            Workload::MultiConn8 => ("BENCH_exp5_multi_conn.json", vec![MULTI_CONNS as f64]),
        }
    }

    /// The fixed trial pool for seed base `base`, in seed order within
    /// each row. `fig9_quiet` interleaves its rows so that any stretch of
    /// the pool cycles through every hop interval.
    pub fn pool(self, base: u64) -> Vec<Spec> {
        match self {
            Workload::Fig9Quiet => (0..FIG9_PER_HOP)
                .flat_map(|i| {
                    FIG9_HOPS.iter().enumerate().map(move |(row, &hop)| Spec {
                        seed: trial_seed(base + u64::from(hop), i),
                        row,
                        i,
                    })
                })
                .collect(),
            Workload::DenseBand512 => single_row(base + DENSE_PAIRS as u64, DENSE_POOL),
            Workload::MultiConn8 => single_row(base + MULTI_CONNS as u64, MULTI_POOL),
        }
    }

    /// Build-only passes over the pool per set-up block: about 0.5 s on a
    /// 2-core box, so a block averages over the machine's speed swings.
    /// A fixed count (not a time limit) keeps the run's allocation history,
    /// and so `peak_rss_mb`, independent of the machine's speed.
    pub fn setup_block_passes(self) -> u32 {
        match self {
            Workload::Fig9Quiet => 16,
            Workload::DenseBand512 => 8,
            Workload::MultiConn8 => 40,
        }
    }

    /// Builds and drops one trial's scene through the constructor the trial
    /// itself uses (the set-up pass).
    pub fn build_and_drop(self, spec: &Spec) {
        match self {
            Workload::Fig9Quiet => {
                let cfg = fig9_config(spec);
                drop(ExperimentRig::with_telemetry(
                    cfg.seed,
                    &cfg.rig,
                    cfg.telemetry,
                ));
            }
            Workload::DenseBand512 => drop(dense_scene(spec.seed)),
            Workload::MultiConn8 => drop(multi_scene(spec.seed)),
        }
    }

    /// Runs one trial. `Err` marks a trial that could not run to an outcome
    /// (a broken scene invariant); it is accounted like a panic.
    pub fn run(self, spec: &Spec, sp: &mut Spans<'_>) -> Result<Trial, String> {
        match self {
            Workload::Fig9Quiet => Ok(fig9_trial(spec, sp)),
            Workload::DenseBand512 => Ok(dense_trial(spec.seed, sp)),
            Workload::MultiConn8 => multi_trial(spec.seed, sp),
        }
    }

    /// The binary's campaign fold over one pass of the pool (`results` in
    /// pool order, `None` for a trial that did not finish): one
    /// `SeriesReport` row per swept value.
    pub fn fold(self, pool: &[Spec], results: &[Option<Trial>], wall_s: f64) -> Vec<SeriesReport> {
        let rows = self.baseline().1;
        rows.iter()
            .enumerate()
            .map(|(row, &value)| {
                let requested = pool.iter().filter(|s| s.row == row).count() as u64;
                let mut acc = SeriesAccumulator::new(requested);
                let mut band = BandStats::default();
                let trials = pool.iter().zip(results).filter(|(s, _)| s.row == row);
                for (_, result) in trials {
                    match result {
                        Some(t) => {
                            acc.fold(&t.outcome);
                            if let Some(b) = t.band {
                                band.tx_frames += b.tx_frames;
                                band.scheduled_rx_starts += b.scheduled_rx_starts;
                                band.collisions += b.collisions;
                            }
                        }
                        None => acc.fold_panicked(),
                    }
                }
                let report = match self {
                    Workload::Fig9Quiet => acc.report("hop_interval", value),
                    Workload::DenseBand512 => {
                        let frames = band.tx_frames.max(1) as f64;
                        acc.report("background_pairs", value)
                            .with_extra(
                                "co_channel_collision_rate",
                                band.collisions as f64 / frames,
                            )
                            .with_extra(
                                "mean_scheduled_rx_starts",
                                band.scheduled_rx_starts as f64 / frames,
                            )
                    }
                    Workload::MultiConn8 => acc.report("connections", value),
                };
                report.with_throughput(wall_s)
            })
            .collect()
    }
}

fn single_row(base: u64, count: u64) -> Vec<Spec> {
    (0..count)
        .map(|i| Spec {
            seed: trial_seed(base, i),
            row: 0,
            i,
        })
        .collect()
}

/// Attaches the traced run's instruments to a freshly built scene: the
/// span clock, a delivery tracker (kept when the scene has one) and the
/// counting sink. All three are observation-only.
fn instrument(sc: &mut Scenario, sp: &mut Spans<'_>) {
    let Some(tracer) = sp.tracer() else { return };
    sc.world.set_span_clock(monotonic_ns);
    if sc.world.delivery_tracker().is_none() {
        sc.world.enable_delivery_tracker(TRACKER_CAPACITY);
    }
    sc.world
        .add_telemetry_sink(Box::new(CountingSink::new(tracer.counts.clone())));
}

/// Adds a finished scene's delivery totals to the traced run's counts.
fn collect(sc: &Scenario, sp: &mut Spans<'_>) {
    if let Some(tracer) = sp.tracer() {
        let totals = sc.delivery_totals().unwrap_or_default();
        tracer.counts.lock().add_delivery(totals);
    }
}

fn sim_seconds(sc: &Scenario) -> f64 {
    sc.now().as_micros_f64() / 1e6
}

fn restart_attacker_scan(sc: &mut Scenario) {
    if let Some(id) = sc.attacker_id {
        sc.world
            .with_node_ctx::<Attacker, _>(id, |a, ctx| a.restart_resync(ctx));
    }
}

// ---------------------------------------------------------------------
// fig9_quiet: exp1
// ---------------------------------------------------------------------

fn fig9_config(spec: &Spec) -> TrialConfig {
    let mut cfg = TrialConfig::new(spec.seed);
    cfg.rig.hop_interval = FIG9_HOPS[spec.row];
    cfg
}

fn fig9_trial(spec: &Spec, sp: &mut Spans<'_>) -> Trial {
    let cfg = fig9_config(spec);
    let outcome = if sp.tracer().is_some() {
        fig9_traced(&cfg, sp)
    } else {
        bench::run_trial(&cfg)
    };
    Trial {
        outcome,
        band: None,
    }
}

/// `bench::run_trial` restated with spans around its calls into the
/// layers (the function itself cannot be instrumented from outside).
fn fig9_traced(cfg: &TrialConfig, sp: &mut Spans<'_>) -> TrialOutcome {
    let wall_start = Stopwatch::start();
    let mut rig = sp.time("scenario.build", || {
        ExperimentRig::with_telemetry(cfg.seed, &cfg.rig, cfg.telemetry.clone())
    });
    instrument(&mut rig.scenario, sp);
    let telemetry_downgraded = rig.scenario.telemetry_downgraded;
    let registry = rig.scenario.metrics().cloned();
    let sync_span = rig.scenario.world.span_enter(SpanKind::TrialSync, 0);
    let synced = sp.time("sim.sync", || {
        rig.wait_synchronised(Duration::from_secs(30))
    });
    rig.scenario.world.span_exit(sync_span);
    let sync_wall_s = wall_start.elapsed_s();
    let mut attempts = None;
    let mut effect_observed = false;
    let mut attack_wall_s = 0.0;
    if synced {
        rig.attacker_mut().arm(Mission::InjectRaw {
            llid: cfg.llid,
            payload: cfg.payload.clone(),
            wanted_successes: 1,
        });
        let deadline = rig.scenario.now() + cfg.sim_budget;
        // run_trial's StallTracker: bounce after 10 unfollowed ticks.
        let mut stall_ticks = 0u32;
        let follow_span = rig.scenario.world.span_enter(SpanKind::TrialFollow, 0);
        while rig.scenario.now() < deadline {
            sp.time("sim.attack", || {
                rig.scenario.run_for(Duration::from_millis(200))
            });
            let attacker = rig.attacker();
            if attacker.stats().successes() >= 1 {
                attempts = attacker.stats().attempts_to_first_success();
                break;
            }
            if attacker.resync_exhausted() {
                break;
            }
            if attacker.connection().is_some() {
                stall_ticks = 0;
                continue;
            }
            stall_ticks += 1;
            if stall_ticks >= 10 {
                stall_ticks = 0;
                if rig.central().ll.is_connected() {
                    rig.central_mut().ll.request_disconnect(0x13);
                }
                restart_attacker_scan(&mut rig.scenario);
            }
        }
        rig.scenario.world.span_exit(follow_span);
        attack_wall_s = wall_start.elapsed_s() - sync_wall_s;
        let verify_span = rig.scenario.world.span_enter(SpanKind::TrialVerify, 0);
        effect_observed = rig.bulb().app.pings > 0;
        rig.scenario.world.span_exit(verify_span);
    }
    let metrics = sp.time("telemetry.flush", || {
        rig.scenario.world.flush_telemetry();
        registry
            .as_ref()
            .map(|reg| TrialMetrics::from_registry(&reg.lock(), sync_wall_s, attack_wall_s))
    });
    collect(&rig.scenario, sp);
    TrialOutcome {
        attempts,
        sim_seconds: sim_seconds(&rig.scenario),
        effect_observed,
        metrics,
        telemetry_downgraded,
    }
}

// ---------------------------------------------------------------------
// dense_band_512: exp6
// ---------------------------------------------------------------------

fn dense_scene(seed: u64) -> Scenario {
    ScenarioBuilder::paper_rig(seed)
        .environment(Environment::dense_hall())
        .background_pairs(DENSE_PAIRS)
        .delivery_tracker(TRACKER_CAPACITY)
        .telemetry(TelemetryMode::Metrics)
        .build()
}

fn dense_trial(seed: u64, sp: &mut Spans<'_>) -> Trial {
    let mut sc = sp.time("scenario.build", || dense_scene(seed));
    instrument(&mut sc, sp);
    let (attempts, effect_observed) = dense_attack(&mut sc, sp);
    let registry: Option<SharedRegistry> = sc.metrics().cloned();
    let collisions = sp.time("telemetry.flush", || {
        sc.world.flush_telemetry();
        registry
            .map(|reg| reg.lock().counter("phy.collision"))
            .unwrap_or(0)
    });
    let totals = sc.delivery_totals().unwrap_or_default();
    collect(&sc, sp);
    Trial {
        outcome: TrialOutcome {
            attempts,
            sim_seconds: sim_seconds(&sc),
            effect_observed,
            metrics: None,
            telemetry_downgraded: false,
        },
        band: Some(BandStats {
            tx_frames: totals.tx_frames,
            scheduled_rx_starts: totals.scheduled_rx_starts,
            collisions,
        }),
    }
}

/// exp6's sync and attack phases: `(attempts, effect observed)`.
fn dense_attack(sc: &mut Scenario, sp: &mut Spans<'_>) -> (Option<u32>, bool) {
    if !sp.time("sim.sync", || sc.wait_synchronised(Duration::from_secs(30))) {
        return (None, false);
    }
    sc.attacker_mut().arm(Mission::InjectRaw {
        llid: Llid::StartOrComplete,
        payload: canonical_write_payload(),
        wanted_successes: 1,
    });
    let deadline = sc.now() + Duration::from_secs(20);
    let mut attempts = None;
    let mut stalled_ticks = 0u32;
    while sc.now() < deadline {
        sp.time("sim.attack", || sc.run_for(Duration::from_millis(200)));
        if sc.attacker().stats().successes() >= 1 {
            attempts = sc.attacker().stats().attempts_to_first_success();
            break;
        }
        if sc.attacker().resync_exhausted() {
            break;
        }
        if sc.attacker().connection().is_some() {
            stalled_ticks = 0;
        } else {
            stalled_ticks += 1;
            if stalled_ticks >= 10 {
                stalled_ticks = 0;
                restart_attacker_scan(sc);
            }
        }
    }
    (attempts, sc.victim::<Lightbulb>().app.pings > 0)
}

// ---------------------------------------------------------------------
// multi_conn_8: exp5
// ---------------------------------------------------------------------

fn multi_scene(seed: u64) -> Scenario {
    ScenarioBuilder::paper_rig(seed)
        .multi_peripheral(MULTI_CONNS)
        .build()
}

fn multi_trial(seed: u64, sp: &mut Spans<'_>) -> Result<Trial, String> {
    let mut sc = sp.time("scenario.build", || multi_scene(seed));
    instrument(&mut sc, sp);
    let (attempts, effect_observed) = multi_attack(&mut sc, sp)?;
    collect(&sc, sp);
    Ok(Trial {
        outcome: TrialOutcome {
            attempts,
            sim_seconds: sim_seconds(&sc),
            effect_observed,
            metrics: None,
            telemetry_downgraded: false,
        },
        band: None,
    })
}

/// exp5's establishment, sync and attack phases. Where the binary asserts
/// a scene invariant, this returns `Err` instead.
fn multi_attack(sc: &mut Scenario, sp: &mut Spans<'_>) -> Result<(Option<u32>, bool), String> {
    let conns = MULTI_CONNS;
    let target = *sc
        .extra_conn_handles
        .last()
        .ok_or("multi_peripheral(8) yielded no extra handles")?;
    if !sc.aim_attacker_at(target) {
        return Err("fresh target handle was stale".into());
    }
    if !sp.time("sim.sync", || {
        sc.wait_connections(conns, Duration::from_secs(120))
    }) {
        return Ok((None, false));
    }
    // Bounce the target link whenever the attacker has gone 30 ticks
    // without following, so the sniffer sees a fresh CONNECT_IND.
    let sync_deadline = sc.now() + Duration::from_secs(120);
    let mut unfollowed_ticks = 0u32;
    let synced = loop {
        if sc.now() >= sync_deadline {
            break false;
        }
        sp.time("sim.sync", || sc.run_for(Duration::from_millis(100)));
        let following = sc
            .attacker()
            .connection()
            .map(|c| c.has_slave_seq())
            .unwrap_or(false);
        if following && sc.live_connections() >= conns {
            break true;
        }
        if sc.attacker().connection().is_some() {
            unfollowed_ticks = 0;
        } else {
            unfollowed_ticks += 1;
            if unfollowed_ticks >= 30 {
                unfollowed_ticks = 0;
                let slot = target.index();
                if let Some(current) = sc.central().conn_manager().handle_at(slot) {
                    sc.bounce_connection(current);
                }
                restart_attacker_scan(sc);
            }
        }
    };
    if !synced {
        return Ok((None, false));
    }
    sc.attacker_mut().arm(Mission::InjectRaw {
        llid: Llid::StartOrComplete,
        payload: canonical_write_payload(),
        wanted_successes: 1,
    });
    let deadline = sc.now() + Duration::from_secs(120);
    let mut attempts = None;
    let mut stalled_ticks = 0u32;
    while sc.now() < deadline {
        sp.time("sim.attack", || sc.run_for(Duration::from_millis(200)));
        if sc.attacker().stats().successes() >= 1 {
            attempts = sc.attacker().stats().attempts_to_first_success();
            break;
        }
        if sc.attacker().resync_exhausted() {
            break;
        }
        if sc.attacker().connection().is_some() {
            stalled_ticks = 0;
        } else {
            stalled_ticks += 1;
            if stalled_ticks >= 10 {
                stalled_ticks = 0;
                restart_attacker_scan(sc);
            }
        }
    }
    // The target is the newest extra peripheral (slot conns − 1).
    let effect = sc.extra_peripheral::<Lightbulb>(conns - 2).app.pings > 0;
    Ok((attempts, effect))
}
