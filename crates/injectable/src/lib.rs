//! **InjectaBLE** — injecting malicious traffic into established Bluetooth
//! Low Energy connections.
//!
//! Reproduction of R. Cayre et al., *InjectaBLE: Injecting malicious
//! traffic into an established Bluetooth Low Energy connection*
//! (IEEE/IFIP DSN 2021), on a simulated radio substrate.
//!
//! The attack abuses the Link Layer's **window widening**: a Slave opens
//! its receive window `w = (SCAm + SCAs)/10⁶ · connInterval + 32 µs` early
//! (paper eq. 5) to tolerate sleep-clock drift. A frame transmitted at the
//! very start of that window arrives before the legitimate Master's anchor
//! frame and — with correctly forged SN/NESN bits (eq. 6) — is accepted by
//! the Slave as genuine Master traffic. This crate implements:
//!
//! * [`ConnectionSniffer`] — captures `CONNECT_REQ`, follows the hop
//!   sequence, tracks anchors and the Slave's SN/NESN state;
//! * [`Injector`] logic inside [`Attacker`] — computes the injection point,
//!   forges frames, retries once per connection event;
//! * [`heuristic`] — the paper's success-detection formula (eq. 7);
//! * the four attack scenarios of §VI: ATT injection ([`Mission::InjectAtt`]
//!   and [`Mission::InjectRaw`]), Slave hijacking
//!   ([`Mission::HijackSlave`]), Master hijacking
//!   ([`Mission::HijackMaster`]) and the Man-in-the-Middle
//!   ([`Mission::HijackMaster`] + [`MitmSlaveHalf`]).
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` at the workspace root; in short: build a
//! [`ble_phy::World`] with victim devices from `ble-devices`, add an
//! [`Attacker`] node, arm a [`Mission`], run, inspect
//! [`Attacker::stats`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod attacker;
pub mod defense;
pub mod heuristic;
mod mitm;
mod resync;
mod stats;
mod tracked;

pub use attacker::{Attacker, AttackerConfig, Injector, Mission, MissionState};
pub use defense::{Alert, DetectorConfig, InjectionDetector};
pub use heuristic::{injection_succeeded, InjectionAttempt, ObservedResponse};
pub use mitm::{new_handoff, MitmHandoff, MitmShared, MitmSlaveHalf, RewriteRule};
pub use resync::{ResyncController, ResyncPolicy, ResyncState};
pub use stats::{AttackStats, AttemptOutcome};
pub use tracked::{ConnectionSniffer, SnifferEvent, TrackedConnection};
