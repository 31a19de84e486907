//! Experiment harness reproducing the InjectaBLE evaluation (paper §VII).
//!
//! Each sensitivity experiment runs many independent *trials*. One trial is
//! the paper's unit of measurement: establish a fresh connection between a
//! victim Peripheral and a Central, synchronise the attacker, inject once
//! per connection event, and count **injection attempts before the first
//! confirmed success** (Figure 9's metric).
//!
//! Every sweep point of the Figure 9 sweeps, the ablations (bar
//! `ablation_widening`) and exp5/exp6 runs through one trial engine,
//! [`run_point`]: a closure from seed to trial ([`trial`]) folded in seed
//! order by [`campaign`], on every worker thread, with optional
//! checkpoint/resume.
//!
//! The binaries in `src/bin/` regenerate each panel of Figure 9 plus the
//! scenario/countermeasure tables; see `DESIGN.md` §4 for the index and
//! `EXPERIMENTS.md` for recorded paper-vs-measured results.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod cli;
pub mod report;
pub mod rig;
pub mod stats;
pub mod telemetry;
pub mod trial;
pub mod wallclock;

pub use campaign::{
    run_campaign, run_point, CampaignConfig, CampaignRun, Foldable, SeriesAccumulator,
};
pub use cli::Cli;
pub use report::{print_series_to, SeriesReport};
pub use rig::ExperimentRig;
pub use stats::Summary;
pub use telemetry::{HistRow, TelemetryMode, TrialMetrics};
pub use trial::{
    run_dense_trial, run_multi_conn_trial, run_trial, BandSums, DenseTrial, TrialConfig,
    TrialOutcome,
};
