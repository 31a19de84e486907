//! One injection trial = one data point of Figure 9.
//!
//! [`run_trial`] is the quiet-lab trial every Figure 9 sweep runs;
//! [`run_multi_conn_trial`] (exp5) and [`run_dense_trial`] (exp6) put the
//! same attack into a multi-connection Central and a dense band. All three
//! share one attack loop, [`inject_until_success`], and run under the
//! campaign engine through [`crate::run_point`].

use ble_devices::Lightbulb;
use ble_link::Llid;
use ble_phy::Environment;
use ble_scenario::{Scenario, ScenarioBuilder};
use ble_telemetry::{Counter, SharedRegistry, SpanKind};
use injectable::{Attacker, Mission};
use simkit::Duration;

use crate::campaign::{Foldable, SeriesAccumulator};
use crate::rig::{ExperimentRig, RigConfig};
use crate::telemetry::{TelemetryMode, TrialMetrics};

/// Configuration of a single trial.
#[derive(Debug, Clone)]
pub struct TrialConfig {
    /// Deterministic seed.
    pub seed: u64,
    /// Scene parameters.
    pub rig: RigConfig,
    /// Raw Link-Layer payload to inject.
    pub payload: Vec<u8>,
    /// LLID for the injected frame.
    pub llid: Llid,
    /// Give up after this much simulated time.
    pub sim_budget: Duration,
    /// Telemetry capture mode (default: in-memory metrics).
    pub telemetry: TelemetryMode,
}

impl TrialConfig {
    /// A trial with default geometry and the canonical bulb write payload.
    pub fn new(seed: u64) -> Self {
        TrialConfig {
            seed,
            rig: RigConfig::default(),
            payload: canonical_write_payload(),
            llid: Llid::StartOrComplete,
            sim_budget: Duration::from_secs(120),
            telemetry: TelemetryMode::default(),
        }
    }

    /// This configuration with another seed: trial `i` of a sweep point.
    pub fn with_seed(&self, seed: u64) -> TrialConfig {
        TrialConfig {
            seed,
            ..self.clone()
        }
    }
}

/// The paper's canonical injected frame: the ATT Write Request that turns
/// the lightbulb off, L2CAP framed (§VII-A). Padded so the whole frame is
/// 22 bytes on the air like the paper's.
pub fn canonical_write_payload() -> Vec<u8> {
    // Frame = 1 preamble + 4 AA + 2 header + LL payload + 3 CRC bytes.
    // 22 bytes over the air → LL payload of 12 bytes:
    // 4 (L2CAP) + 3 (ATT write hdr) + 5 (value).
    // Value: bulb "ping" command padded to 5 bytes keeps an observable,
    // acknowledged effect.
    let att = ble_host::att::AttPdu::WriteRequest {
        handle: 6, // the bulb control characteristic in the standard rig
        value: ble_devices::bulb_payloads::ping_padded(5),
    }
    .to_bytes();
    let frags = ble_host::l2cap::fragment(ble_host::l2cap::CID_ATT, &att, 27);
    assert_eq!(frags.len(), 1);
    frags.into_iter().next().expect("single fragment").1
}

/// A raw filler payload of an exact Link-Layer payload size (for the
/// payload-size sweep). Shaped like an L2CAP frame so victims parse it
/// harmlessly.
pub fn raw_payload_of_len(len: usize) -> Vec<u8> {
    assert!(len >= 1);
    let mut v = vec![0xEE; len];
    if len >= 4 {
        // Plausible L2CAP header: length + a CID nobody listens on.
        let sdu_len = (len - 4) as u16;
        v[0..2].copy_from_slice(&sdu_len.to_le_bytes());
        v[2..4].copy_from_slice(&0x00FFu16.to_le_bytes());
    }
    v
}

/// Outcome of one trial.
#[derive(Debug, Clone)]
pub struct TrialOutcome {
    /// Attempts before the first confirmed success; `None` if the budget
    /// ran out first.
    pub attempts: Option<u32>,
    /// Simulated seconds consumed.
    pub sim_seconds: f64,
    /// Whether the injected command observably reached the application.
    pub effect_observed: bool,
    /// Telemetry metrics, when the trial ran with a metrics sink.
    pub metrics: Option<TrialMetrics>,
    /// Whether a requested JSONL telemetry sink could not be opened and the
    /// trial silently ran with metrics only.
    pub telemetry_downgraded: bool,
}

impl TrialOutcome {
    /// An *unconfirmed effect*: the injected command observably reached the
    /// application, but the attacker's success heuristic never confirmed an
    /// attempt (e.g. it lost the connection before the Slave's response).
    /// These trials are neither successes nor clean failures and are
    /// surfaced separately in [`crate::SeriesReport`].
    pub fn unconfirmed_effect(&self) -> bool {
        self.effect_observed && self.attempts.is_none()
    }
}

/// Watchdog over the 200 ms trial-loop ticks: counts how long the attacker
/// has gone without a followed connection and decides when the harness
/// should act (restart the attacker's scan, bouncing the Central first in
/// [`run_trial`]).
///
/// The Central's own connection state is deliberately **not** consulted: an
/// earlier revision only counted ticks while the Central was connected,
/// which meant a simultaneous Central + attacker outage reset the counter
/// every tick and the bounce never fired — the trial then idled until its
/// whole budget was burned.
#[derive(Debug, Default)]
struct StallTracker {
    ticks: u32,
}

/// Trial-loop ticks (200 ms each) of continuous attacker desynchronisation
/// tolerated before bouncing the connection.
const STALL_TICKS_BEFORE_BOUNCE: u32 = 10;

impl StallTracker {
    /// Records one tick. Returns `true` when the stall has lasted long
    /// enough that the harness should bounce the connection (and resets).
    fn note(&mut self, attacker_synced: bool) -> bool {
        if attacker_synced {
            self.ticks = 0;
            return false;
        }
        self.ticks += 1;
        if self.ticks >= STALL_TICKS_BEFORE_BOUNCE {
            self.ticks = 0;
            return true;
        }
        false
    }
}

/// Flushes sinks and snapshots the registry into a per-trial metric block.
fn finish_metrics(
    rig: &mut ExperimentRig,
    registry: Option<&SharedRegistry>,
    sync_wall_s: f64,
    attack_wall_s: f64,
) -> Option<TrialMetrics> {
    rig.scenario.world.flush_telemetry();
    registry.map(|reg| TrialMetrics::from_registry(&reg.lock(), sync_wall_s, attack_wall_s))
}

/// Runs a single trial to its first confirmed injection.
pub fn run_trial(cfg: &TrialConfig) -> TrialOutcome {
    let wall_start = crate::wallclock::Stopwatch::start();
    // The rig routes `cfg.telemetry` through the scenario builder so sinks
    // attach before node bootstrap; a failed JSONL sink degrades the trial
    // to metrics-only, recorded so report rows can flag that the artefact
    // the user asked for does not exist.
    let mut rig = ExperimentRig::with_telemetry(cfg.seed, &cfg.rig, cfg.telemetry.clone());
    let telemetry_downgraded = rig.scenario.telemetry_downgraded;
    let registry = rig.scenario.metrics().cloned();
    // Spans price the trial's phases; their wall-clock side reads the
    // quarantined harness clock the rig installed (R8) and is a no-op when
    // no sink is attached.
    let sync_span = rig.scenario.world.span_enter(SpanKind::TrialSync, 0);
    if !rig.wait_synchronised(Duration::from_secs(30)) {
        rig.scenario.world.span_exit(sync_span);
        let sync_wall_s = wall_start.elapsed_s();
        let metrics = finish_metrics(&mut rig, registry.as_ref(), sync_wall_s, 0.0);
        return TrialOutcome {
            attempts: None,
            sim_seconds: sim_seconds(&rig.scenario),
            effect_observed: false,
            metrics,
            telemetry_downgraded,
        };
    }
    rig.scenario.world.span_exit(sync_span);
    let sync_wall_s = wall_start.elapsed_s();
    let follow_span = rig.scenario.world.span_enter(SpanKind::TrialFollow, 0);
    let attempts = inject_until_success(
        &mut rig.scenario,
        cfg.llid,
        cfg.payload.clone(),
        cfg.sim_budget,
        true,
    );
    rig.scenario.world.span_exit(follow_span);
    let attack_wall_s = wall_start.elapsed_s() - sync_wall_s;
    let verify_span = rig.scenario.world.span_enter(SpanKind::TrialVerify, 0);
    let effect_observed = rig.bulb().app.pings > 0;
    // The verify span must close before the flush inside `finish_metrics`,
    // or its exit record would miss the registry snapshot.
    rig.scenario.world.span_exit(verify_span);
    let metrics = finish_metrics(&mut rig, registry.as_ref(), sync_wall_s, attack_wall_s);
    TrialOutcome {
        attempts,
        sim_seconds: sim_seconds(&rig.scenario),
        effect_observed,
        metrics,
        telemetry_downgraded,
    }
}

/// Seed for trial `i` of a series with seed base `base`: a golden-ratio
/// stride (`i · 2⁶⁴/φ`, wrapping) away from the base.
///
/// The stride decorrelates neighbouring trials' RNG streams far better
/// than consecutive integers would, while staying a pure function of
/// `(base, i)` so a single trial of a series can be replayed in isolation.
/// Distinct indices map to distinct seeds (the odd stride is invertible
/// modulo 2⁶⁴), so trials within a series never collide.
pub fn trial_seed(base: u64, i: u64) -> u64 {
    base.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The attack loop every trial shares: arms the attacker to inject
/// `payload` until one confirmed success, then runs `sc` in 200 ms ticks
/// until that success, until the attacker's bounded resync gives up, or
/// until `budget` of simulated time has passed. Returns the attempts
/// before the first success, `None` when there was none.
///
/// After 10 ticks (2 s) without a followed connection the attacker's scan
/// restarts (a no-op while it is already scanning or following). With
/// `bounce_central` the Central first drops its link, so that a fresh
/// CONNECT_REQ reaches the sniffer — the paper's operators restarted a
/// connection the attacker had lost. The multi-connection and dense-band
/// Centrals re-establish dropped links on their own, so their trials only
/// restart the scan.
pub fn inject_until_success(
    sc: &mut Scenario,
    llid: Llid,
    payload: Vec<u8>,
    budget: Duration,
    bounce_central: bool,
) -> Option<u32> {
    sc.attacker_mut().arm(Mission::InjectRaw {
        llid,
        payload,
        wanted_successes: 1,
    });
    let deadline = sc.now() + budget;
    let mut stall = StallTracker::default();
    while sc.now() < deadline {
        sc.run_for(Duration::from_millis(200));
        let attacker = sc.attacker();
        if attacker.stats().successes() >= 1 {
            return attacker.stats().attempts_to_first_success();
        }
        // Under sustained impairment the attacker's bounded resync can
        // run out of retries; the trial is then a failure and burning the
        // rest of the budget would not change that.
        if attacker.resync_exhausted() {
            return None;
        }
        if stall.note(attacker.connection().is_some()) {
            if bounce_central && sc.central().ll.is_connected() {
                sc.central_mut().ll.request_disconnect(0x13);
            }
            restart_attacker_scan(sc);
        }
    }
    None
}

fn restart_attacker_scan(sc: &mut Scenario) {
    let id = sc.attacker_id.expect("paper rig has an attacker");
    sc.world
        .with_node_ctx::<Attacker, _>(id, |a, ctx| a.restart_resync(ctx));
}

fn sim_seconds(sc: &Scenario) -> f64 {
    sc.now().as_micros_f64() / 1e6
}

/// exp5's trial: bring up `conns` concurrent connections on the
/// slot-pooled Central, aim the attacker at the newest one, and inject
/// until the first confirmed success or the budget runs out.
pub fn run_multi_conn_trial(seed: u64, conns: usize) -> TrialOutcome {
    let mut sc = ScenarioBuilder::paper_rig(seed)
        .multi_peripheral(conns)
        .build();
    // Aim before the world runs: the sniffer must see the target's
    // CONNECT_IND, and establishment is serialised with the victim first.
    let target = if conns > 1 {
        *sc.extra_conn_handles
            .last()
            .expect("multi_peripheral(n>1) yields extra handles")
    } else {
        sc.central().conn_handles()[0]
    };
    assert!(sc.aim_attacker_at(target), "fresh handle cannot be stale");
    let failed = |sc: &Scenario| TrialOutcome {
        attempts: None,
        sim_seconds: sim_seconds(sc),
        effect_observed: false,
        metrics: None,
        telemetry_downgraded: false,
    };
    // Serial establishment: every slot must hold a live connection before
    // the attack phase starts, or the row would not measure `conns`
    // concurrent connections at all.
    if !sc.wait_connections(conns, Duration::from_secs(120)) {
        return failed(&sc);
    }
    // Attacker synchronisation against the target connection. The sniffer
    // scans one advertising channel at a time, so it usually misses the
    // target's one CONNECT_IND during serial bring-up — and an established
    // slot never sends another. Bounce the target link whenever the
    // attacker has gone a while without following: the slot auto-reconnects
    // with a fresh CONNECT_IND for the sniffer to latch.
    let sync_deadline = sc.now() + Duration::from_secs(120);
    let mut unfollowed_ticks = 0u32;
    let synced = loop {
        if sc.now() >= sync_deadline {
            break false;
        }
        sc.run_for(Duration::from_millis(100));
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
                // Each bounce releases the slot and bumps its generation:
                // re-fetch the current handle instead of re-using the stale
                // build-time one.
                let slot = target.index();
                if let Some(current) = sc.central().conn_manager().handle_at(slot) {
                    sc.bounce_connection(current);
                }
                restart_attacker_scan(&mut sc);
            }
        }
    };
    if !synced {
        return failed(&sc);
    }
    let attempts = inject_until_success(
        &mut sc,
        Llid::StartOrComplete,
        canonical_write_payload(),
        Duration::from_secs(120),
        false,
    );
    // Observable effect on the *target* peripheral's application.
    let effect_observed = if conns > 1 {
        sc.extra_peripheral::<Lightbulb>(conns - 2).app.pings > 0
    } else {
        sc.victim::<Lightbulb>().app.pings > 0
    };
    TrialOutcome {
        attempts,
        sim_seconds: sim_seconds(&sc),
        effect_observed,
        metrics: None,
        telemetry_downgraded: false,
    }
}

/// exp6's per-trial band counters, summed over a report row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BandSums {
    /// Frames put on the air (every transmitter, attacker included).
    pub tx_frames: u64,
    /// `RxStart` events the medium scheduled.
    pub scheduled_rx_starts: u64,
    /// Receptions corrupted by an overlapping transmission.
    pub collisions: u64,
}

/// One exp6 trial: its outcome plus the band's counters.
#[derive(Debug, Clone)]
pub struct DenseTrial {
    /// The trial's outcome.
    pub outcome: TrialOutcome,
    /// Sim-deterministic band statistics captured alongside it.
    pub band: BandSums,
}

impl Foldable for DenseTrial {
    fn fold_into(&self, acc: &mut SeriesAccumulator) {
        acc.fold(&self.outcome);
        acc.fold_band(&self.band);
    }
}

/// exp6's trial: the paper rig plus `pairs` background connection pairs in
/// a dense hall; inject until the first confirmed success or the budget
/// runs out.
pub fn run_dense_trial(seed: u64, pairs: usize) -> DenseTrial {
    let mut sc = ScenarioBuilder::paper_rig(seed)
        .environment(Environment::dense_hall())
        .background_pairs(pairs)
        .delivery_tracker(128)
        .telemetry(TelemetryMode::Metrics)
        .build();
    // Dense-band collisions can cycle the victim connection while the
    // attacker injects blind; the bulb re-advertises and the Central
    // reconnects on its own.
    let (attempts, effect_observed) = if sc.wait_synchronised(Duration::from_secs(30)) {
        let attempts = inject_until_success(
            &mut sc,
            Llid::StartOrComplete,
            canonical_write_payload(),
            Duration::from_secs(20),
            false,
        );
        (attempts, sc.victim::<Lightbulb>().app.pings > 0)
    } else {
        (None, false)
    };
    sc.world.flush_telemetry();
    let totals = sc.delivery_totals().expect("tracker was enabled");
    let collisions = sc
        .metrics()
        .map(|reg| reg.lock()[Counter::PhyCollision])
        .unwrap_or(0);
    DenseTrial {
        outcome: TrialOutcome {
            attempts,
            sim_seconds: sim_seconds(&sc),
            effect_observed,
            metrics: None,
            telemetry_downgraded: false,
        },
        band: BandSums {
            tx_frames: totals.tx_frames,
            scheduled_rx_starts: totals.scheduled_rx_starts,
            collisions,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignConfig};

    #[test]
    fn canonical_payload_gives_22_byte_frame() {
        let p = canonical_write_payload();
        // LL payload 12 → 1+4+2+12+3 = 22 bytes over the air.
        assert_eq!(p.len(), 12);
    }

    #[test]
    fn raw_payload_sizes() {
        for len in [1usize, 4, 9, 14, 16, 27] {
            assert_eq!(raw_payload_of_len(len).len(), len);
        }
    }

    #[test]
    fn one_trial_succeeds_quickly_at_close_range() {
        let cfg = TrialConfig::new(42);
        let out = run_trial(&cfg);
        assert!(out.attempts.is_some(), "trial must succeed: {out:?}");
        assert!(out.attempts.unwrap() <= 50);
        assert!(out.effect_observed, "padded ping must reach the bulb app");
        // Default mode is Metrics: the trial must carry a metric block with
        // the attack-phase histograms populated.
        let metrics = out.metrics.expect("default telemetry mode is Metrics");
        assert!(metrics.events_total > 0);
        assert!(metrics.events_per_sec > 0.0);
        assert!(metrics.sync_wall_s > 0.0);
        let lead = metrics.lead_time.expect("injection attempts were made");
        assert!(lead.count() >= 1);
        let anchor = metrics.anchor_error.expect("anchors were observed");
        assert!(anchor.count() >= 1);
    }

    #[test]
    fn trial_phases_land_in_the_phase_profile() {
        let cfg = TrialConfig::new(42);
        let out = run_trial(&cfg);
        let metrics = out.metrics.expect("default telemetry mode is Metrics");
        let phase = |name: &str| {
            metrics
                .phase_profile
                .iter()
                .find(|p| p.phase == name)
                .copied()
                .unwrap_or_else(|| panic!("phase {name} missing: {:?}", metrics.phase_profile))
        };
        let sync = phase("trial-sync");
        assert_eq!(sync.count, 1);
        assert!(sync.sim_ns > 0, "sync phase consumes simulated time");
        let follow = phase("trial-follow");
        assert_eq!(follow.count, 1);
        assert!(follow.sim_ns > 0);
        let verify = phase("trial-verify");
        assert_eq!(verify.count, 1);
        // Verification is a pure state read: zero simulated time.
        assert_eq!(verify.sim_ns, 0);
        // The attacker and PHY layers report under the trial phases. (No
        // `ll-procedure` row: a clean close-range trial exchanges no LL
        // control PDUs — that span is covered by the ble-link tests.)
        assert!(phase("attacker-scan").count >= 1);
        assert!(phase("attacker-follow").count >= 1);
        assert!(phase("attacker-inject").count >= 1);
        assert!(phase("channel-airtime").count > 10);
        // Airtime nests under the trial phases, so the trial phases' self
        // time is strictly less than their total.
        assert!(follow.self_sim_ns < follow.sim_ns);
    }

    #[test]
    fn telemetry_off_yields_no_metrics() {
        let mut cfg = TrialConfig::new(43);
        cfg.telemetry = crate::telemetry::TelemetryMode::Off;
        let out = run_trial(&cfg);
        assert!(out.metrics.is_none());
    }

    #[test]
    fn telemetry_mode_does_not_perturb_the_simulation() {
        let mut off = TrialConfig::new(44);
        off.telemetry = crate::telemetry::TelemetryMode::Off;
        let with = TrialConfig::new(44);
        let a = run_trial(&off);
        let b = run_trial(&with);
        assert_eq!(a.attempts, b.attempts, "telemetry must be observation-only");
        assert_eq!(a.sim_seconds, b.sim_seconds);
    }

    #[test]
    fn trial_seeds_are_deterministic_and_collision_free() {
        // Pure function of (base, i).
        assert_eq!(trial_seed(7, 3), trial_seed(7, 3));
        assert_eq!(trial_seed(7, 0), 7);
        // Golden-ratio stride, not consecutive integers.
        assert_ne!(trial_seed(7, 1), 8);
        assert_eq!(trial_seed(7, 1), 7u64.wrapping_add(0x9E37_79B9_7F4A_7C15));
        // No collisions across a series far larger than any real sweep.
        #[allow(clippy::disallowed_types)] // scratch set in test code; R7 exempts #[cfg(test)]
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(trial_seed(42, i)), "seed collision at i={i}");
        }
    }

    #[test]
    fn stall_tracker_bounces_even_when_the_central_is_also_down() {
        // Regression: the old watchdog only counted ticks while the Central
        // was connected, so a simultaneous Central + attacker outage never
        // bounced and the trial idled its whole budget away. The tracker
        // must fire from attacker desynchronisation alone.
        let mut stall = StallTracker::default();
        for _ in 0..STALL_TICKS_BEFORE_BOUNCE - 1 {
            assert!(!stall.note(false));
        }
        assert!(stall.note(false), "bounce fires after the threshold");
        // …and the counter restarts cleanly afterwards.
        assert!(!stall.note(false));
        // A synced tick resets the stall: the full threshold is required
        // again before the next bounce.
        assert!(!stall.note(true));
        for _ in 0..STALL_TICKS_BEFORE_BOUNCE - 1 {
            assert!(!stall.note(false));
        }
        assert!(stall.note(false));
    }

    #[test]
    fn unconfirmed_effect_requires_effect_without_confirmation() {
        let mut out = TrialOutcome {
            attempts: None,
            sim_seconds: 1.0,
            effect_observed: true,
            metrics: None,
            telemetry_downgraded: false,
        };
        assert!(out.unconfirmed_effect());
        out.attempts = Some(3);
        assert!(!out.unconfirmed_effect());
        out.attempts = None;
        out.effect_observed = false;
        assert!(!out.unconfirmed_effect());
    }

    #[test]
    fn jsonl_sink_failure_is_recorded_as_a_downgrade() {
        let mut cfg = TrialConfig::new(45);
        cfg.sim_budget = Duration::from_secs(30);
        // A path whose parent cannot exist: JsonlSink::create must fail.
        cfg.telemetry = crate::telemetry::TelemetryMode::Jsonl(
            std::path::Path::new("/proc/definitely/not/writable/trial.jsonl").to_path_buf(),
        );
        let out = run_trial(&cfg);
        assert!(out.telemetry_downgraded, "failed sink must be recorded");
        assert!(out.metrics.is_some(), "metrics still ride along");
        // A healthy trial never reports a downgrade.
        let ok = run_trial(&TrialConfig::new(45));
        assert!(!ok.telemetry_downgraded);
    }

    #[test]
    fn parallel_trials_are_deterministic() {
        let series = || {
            let cfg = TrialConfig::new(7);
            run_campaign(7, 4, "p", 0.0, &CampaignConfig::default(), |seed| {
                run_trial(&cfg.with_seed(seed))
            })
            .report
        };
        let (a, b) = (series(), series());
        assert_eq!(a.raw, b.raw);
        assert_eq!(a.succeeded, b.succeeded);
        assert_eq!(a.trials, 4);
        assert_eq!(a.panicked_trials, 0, "every trial ran to an outcome");
    }

    /// A mild but non-trivial impairment plan: every fault family is
    /// represented, yet the trial still succeeds at close range.
    fn mild_fault_plan() -> simkit::FaultPlan {
        use simkit::{DriftExcursion, FadingEpisode, FrameLossRule, Instant, InterferenceBurst};
        simkit::FaultPlan::seeded(0xFA17)
            .with_loss(FrameLossRule {
                from: Instant::ZERO,
                until: Instant::from_micros(60_000_000),
                channel: None,
                loss_prob: 0.05,
                corrupt_prob: 0.05,
            })
            .with_fading(FadingEpisode {
                from: Instant::from_micros(2_000_000),
                until: Instant::from_micros(4_000_000),
                extra_loss_db: 6.0,
            })
            .with_burst(InterferenceBurst::duty_cycle(
                9,
                Instant::ZERO,
                simkit::Duration::from_secs(60),
                simkit::Duration::from_millis(50),
                0.2,
                -40.0,
            ))
            .with_drift(DriftExcursion {
                node_label: "phone".into(),
                from: Instant::from_micros(5_000_000),
                until: Instant::from_micros(8_000_000),
                extra_ppm: 200.0,
            })
    }

    #[test]
    fn same_seed_and_fault_plan_reproduce_the_trial_exactly() {
        let mut cfg = TrialConfig::new(46);
        cfg.sim_budget = Duration::from_secs(30);
        cfg.rig.faults = Some(mild_fault_plan());
        let a = run_trial(&cfg);
        let b = run_trial(&cfg);
        assert_eq!(a.attempts, b.attempts);
        assert_eq!(a.sim_seconds, b.sim_seconds);
        assert_eq!(a.effect_observed, b.effect_observed);
        let (ma, mb) = (
            a.metrics.expect("metrics on"),
            b.metrics.expect("metrics on"),
        );
        assert_eq!(ma.events_total, mb.events_total);
    }

    #[test]
    fn empty_fault_plan_is_a_true_no_op() {
        let mut with_empty = TrialConfig::new(47);
        with_empty.sim_budget = Duration::from_secs(30);
        with_empty.rig.faults = Some(simkit::FaultPlan::seeded(999));
        let mut without = with_empty.clone();
        without.rig.faults = None;
        let a = run_trial(&with_empty);
        let b = run_trial(&without);
        assert_eq!(a.attempts, b.attempts, "empty plan must not perturb");
        assert_eq!(a.sim_seconds, b.sim_seconds);
        assert_eq!(a.effect_observed, b.effect_observed);
        let (ma, mb) = (
            a.metrics.expect("metrics on"),
            b.metrics.expect("metrics on"),
        );
        assert_eq!(ma.events_total, mb.events_total);
    }

    #[test]
    fn parallel_trials_survive_a_panicking_trial() {
        // A 300-byte raw payload blows the 255-byte LL limit: the forge path
        // asserts inside the trial. The engine must contain the panic,
        // report the seed, and not bring the caller down — and the panicked
        // trials must be *counted* against the requested denominator, not
        // silently absent.
        let series = |payload: Vec<u8>| {
            let mut cfg = TrialConfig::new(99);
            cfg.payload = payload;
            run_campaign(
                99,
                2,
                "payload",
                300.0,
                &CampaignConfig::default(),
                |seed| run_trial(&cfg.with_seed(seed)),
            )
            .report
        };
        let row = series(vec![0xAB; 300]);
        assert_eq!(row.trials, 2);
        assert_eq!(row.succeeded, 0);
        assert!(row.raw.is_empty(), "panicked trials contribute no attempts");
        assert_eq!(
            row.panicked_trials, 2,
            "every panicked trial is accounted for"
        );
        // A well-formed series on the same rig completes every trial.
        let ok = series(canonical_write_payload());
        assert_eq!(ok.trials, 2);
        assert_eq!(ok.panicked_trials, 0);
    }
}
