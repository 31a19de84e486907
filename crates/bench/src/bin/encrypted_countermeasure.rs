//! The §VIII countermeasure experiment: what injection achieves against an
//! AES-CCM encrypted connection.
//!
//! Paper claims being checked:
//!   * enabling the native encryption prevents forged frames from being
//!     accepted (no feature triggered);
//!   * "the vulnerability itself remains, with at least an impact on
//!     availability" — the injected plaintext fails MIC validation and the
//!     Slave tears the connection down (DoS).

use bench::rig::{ExperimentRig, RigConfig};
use ble_devices::bulb_payloads;
use ble_host::att::AttPdu;
use injectable::Mission;
use simkit::{Duration, SimRng};

struct Outcome {
    seed: u64,
    feature_triggered: bool,
    dos_disconnect: bool,
    attempts: u32,
}

/// Runs the rig until both ends report an encrypted link; `false` when
/// encryption has not come up within 20 s.
fn wait_for_encryption(rig: &mut ExperimentRig) -> bool {
    for _ in 0..200 {
        rig.scenario.run_for(Duration::from_millis(100));
        if rig.central().host.is_encrypted() && rig.bulb().host.is_encrypted() {
            return true;
        }
    }
    false
}

/// One trial; `None` when pairing never brought encryption up.
fn run_one(seed: u64) -> Option<Outcome> {
    let mut rig = ExperimentRig::new(seed, &RigConfig::default());
    rig.central_mut().pair_on_connect = true;
    if !wait_for_encryption(&mut rig) {
        return None;
    }
    rig.scenario.run_for(Duration::from_millis(500));

    let att = AttPdu::WriteRequest {
        handle: rig.control_handle,
        value: bulb_payloads::power_on(),
    }
    .to_bytes();
    rig.attacker_mut().arm(Mission::InjectAtt { att });
    let mut dos = false;
    for _ in 0..200 {
        rig.scenario.run_for(Duration::from_millis(200));
        if rig.bulb().last_disconnect_reason == Some(ble_link::ERR_MIC_FAILURE) {
            dos = true;
            break;
        }
    }
    let feature_triggered = rig.bulb().app.on || !rig.bulb().app.command_log.is_empty();
    let attempts = rig.attacker().stats().attempts_total;
    Some(Outcome {
        seed,
        feature_triggered,
        dos_disconnect: dos,
        attempts,
    })
}

fn main() {
    let runs = bench::Cli::parse(10).trials;
    println!();
    println!("=== Encryption countermeasure (paper §IV/§VIII) ===");
    println!("Injecting a plaintext ATT Write into an AES-CCM encrypted connection.");
    println!();
    println!(
        "{:>6} | {:>18} | {:>22} | {:>9}",
        "seed", "feature triggered", "DoS (MIC disconnect)", "attempts"
    );
    println!("{}", "-".repeat(68));
    let mut triggered = 0;
    let mut dos = 0;
    let mut setup_failures = 0;
    let mut rng = SimRng::seed_from(0xC0DE);
    for _ in 0..runs {
        let seed = 5_000 + rng.below(1_000_000);
        let Some(o) = run_one(seed) else {
            println!("{seed:>6} | setup failed: encryption never came up");
            setup_failures += 1;
            continue;
        };
        println!(
            "{:>6} | {:>18} | {:>22} | {:>9}",
            o.seed,
            if o.feature_triggered {
                "YES (bad!)"
            } else {
                "no"
            },
            if o.dos_disconnect { "yes" } else { "no" },
            o.attempts
        );
        triggered += u32::from(o.feature_triggered);
        dos += u32::from(o.dos_disconnect);
    }
    let completed = runs - setup_failures;
    println!();
    if setup_failures > 0 {
        println!("setup failures: {setup_failures}/{runs}");
    }
    println!(
        "features triggered: {triggered}/{completed} (paper: 0 — encryption blocks the payload)"
    );
    println!(
        "availability impact: {dos}/{completed} connections torn down by MIC failure (paper: DoS remains possible)"
    );
    if triggered > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_for_encryption_reports_a_link_that_never_pairs() {
        let mut rig = ExperimentRig::new(5_000, &RigConfig::default());
        rig.central_mut().pair_on_connect = false;
        assert!(!wait_for_encryption(&mut rig));
    }
}
