//! The experiment rig: the paper's testbed geometry in simulation.
//!
//! Experiments 1–2: Peripheral (lightbulb), Central and attacker on the
//! vertices of a 2 m equilateral triangle (§VII-A, Figure 8). Experiment 3:
//! bulb and phone 2 m apart, attacker at 1–10 m. The wall experiment adds
//! an 8 dB wall between the attacker and the room.
//!
//! This is a thin preset over [`ScenarioBuilder`]: the geometry knobs of
//! [`RigConfig`] map one-to-one onto builder calls, and the arena-owned
//! [`Scenario`] does the rest.

use ble_devices::{Central, Lightbulb};
use ble_scenario::{Scenario, ScenarioBuilder, TelemetryMode};
use injectable::{Attacker, ResyncPolicy};
use simkit::{Duration, FaultPlan};

/// Default attacker transmit power: an nRF52840 dongle's default 0 dBm.
pub const ATTACKER_TX_DBM: f64 = 0.0;

/// A complete experiment scene (a [`Scenario`] plus the handles the
/// trial loop touches).
pub struct ExperimentRig {
    /// The built scene; owns the simulation world and every node.
    pub scenario: Scenario,
    /// Handle of the bulb's control characteristic.
    pub control_handle: u16,
}

/// Scene geometry and radio parameters for a rig.
#[derive(Debug, Clone)]
pub struct RigConfig {
    /// Connection hop interval (×1.25 ms).
    pub hop_interval: u16,
    /// Attacker distance from the Peripheral, in metres.
    pub attacker_distance: f64,
    /// Central distance from the Peripheral, in metres.
    pub central_distance: f64,
    /// Wall between the attacker and the room, with this attenuation (dB).
    pub wall_db: Option<f64>,
    /// Victim sleep-clock accuracy bound (ppm).
    pub victim_sca_ppm: f64,
    /// Attacker sleep-clock accuracy bound (ppm).
    pub attacker_sca_ppm: f64,
    /// Scale on the victim slave's window widening (§VIII countermeasure 1;
    /// 1.0 = spec behaviour).
    pub widening_scale: f64,
    /// PHY mode for every node (LE 1M in all paper experiments).
    pub phy: ble_phy::PhyMode,
    /// Override of the attacker's anchor-timestamp noise (µs).
    pub attacker_anchor_noise_us: Option<f64>,
    /// Deterministic channel impairments installed into the medium; `None`
    /// (the default) builds the byte-identical unimpaired world.
    pub faults: Option<FaultPlan>,
    /// Override of the attacker's resynchronisation policy. The default
    /// policy stays dormant in healthy runs; fault sweeps use a tighter one
    /// so hopeless trials give up early.
    pub resync: Option<ResyncPolicy>,
}

impl Default for RigConfig {
    fn default() -> Self {
        RigConfig {
            hop_interval: 36,
            attacker_distance: 2.0,
            central_distance: 2.0,
            wall_db: None,
            victim_sca_ppm: 50.0,
            attacker_sca_ppm: 20.0,
            widening_scale: 1.0,
            phy: ble_phy::PhyMode::Le1M,
            attacker_anchor_noise_us: None,
            faults: None,
            resync: None,
        }
    }
}

impl ExperimentRig {
    /// Builds the scene. The Peripheral sits at the origin, the Central on
    /// the +x axis, the attacker on the −y axis (behind the optional wall
    /// at y = −0.5 m).
    pub fn new(seed: u64, cfg: &RigConfig) -> Self {
        Self::with_telemetry(seed, cfg, TelemetryMode::Off)
    }

    /// Like [`ExperimentRig::new`], with telemetry capture wired through the
    /// scenario builder. Sinks attach before node bootstrap (so spans opened
    /// in `on_start` hooks are captured) and the quarantined harness
    /// wall-clock is installed as the span clock.
    pub fn with_telemetry(seed: u64, cfg: &RigConfig, telemetry: TelemetryMode) -> Self {
        let mut builder = ScenarioBuilder::paper_rig(seed)
            .telemetry(telemetry)
            .span_clock(crate::wallclock::monotonic_ns)
            .hop_interval(cfg.hop_interval)
            .attacker_distance(cfg.attacker_distance)
            .central_distance(cfg.central_distance)
            .victim_sca_ppm(cfg.victim_sca_ppm)
            .attacker_sca_ppm(cfg.attacker_sca_ppm)
            .widening_scale(cfg.widening_scale)
            .attacker_tx_dbm(ATTACKER_TX_DBM)
            .phy(cfg.phy);
        if let Some(db) = cfg.wall_db {
            builder = builder.wall_db(db);
        }
        if let Some(noise) = cfg.attacker_anchor_noise_us {
            builder = builder.attacker_anchor_noise_us(noise);
        }
        if let Some(plan) = &cfg.faults {
            builder = builder.faults(plan.clone());
        }
        if let Some(policy) = &cfg.resync {
            builder = builder.attacker_resync(policy.clone());
        }
        let scenario = builder.build();
        let control_handle = scenario.victim_control_handle();
        ExperimentRig {
            scenario,
            control_handle,
        }
    }

    /// The victim lightbulb.
    pub fn bulb(&self) -> &Lightbulb {
        self.scenario.victim::<Lightbulb>()
    }

    /// Mutable access to the victim lightbulb.
    pub fn bulb_mut(&mut self) -> &mut Lightbulb {
        self.scenario.victim_mut::<Lightbulb>()
    }

    /// The legitimate Central.
    pub fn central(&self) -> &Central {
        self.scenario.central()
    }

    /// Mutable access to the legitimate Central.
    pub fn central_mut(&mut self) -> &mut Central {
        self.scenario.central_mut()
    }

    /// The attacker.
    pub fn attacker(&self) -> &Attacker {
        self.scenario.attacker()
    }

    /// Mutable access to the attacker.
    pub fn attacker_mut(&mut self) -> &mut Attacker {
        self.scenario.attacker_mut()
    }

    /// Runs until the connection is up and the attacker follows it with
    /// sequence state. Returns `false` on setup timeout.
    pub fn wait_synchronised(&mut self, budget: Duration) -> bool {
        self.scenario.wait_synchronised(budget)
    }
}
