//! Detection experiment for the paper's §VIII monitoring countermeasure:
//! a passive Link-Layer IDS watching the victim connection.
//!
//! Measures, over many independent runs: false-positive rate on clean
//! traffic, and detection rate (+ alerts per attempt) under an InjectaBLE
//! campaign. A run whose connection or attacker never synchronises is
//! reported as a setup failure and left out of the tallies.

use bench::rig::{ExperimentRig, RigConfig};
use injectable::{DetectorConfig, InjectionDetector, Mission};
use simkit::Duration;

struct RunResult {
    events: u32,
    alerts: usize,
    attempts: u32,
}

/// One run; `None` when the rig never synchronised within 30 s.
fn run(seed: u64, attack: bool, cfg: &RigConfig) -> Option<RunResult> {
    let mut rig = ExperimentRig::new(seed, cfg);
    let slave = rig.bulb().ll.address();
    let detector = InjectionDetector::new(DetectorConfig::default()).for_slave(slave);
    let id = rig.scenario.world.add_node(
        ble_phy::NodeConfig::new("ids", ble_phy::Position::new(1.0, 1.0)),
        detector,
    );
    rig.scenario.world.start(id);
    if !rig.wait_synchronised(Duration::from_secs(30)) {
        return None;
    }
    rig.scenario.run_for(Duration::from_secs(2));
    if attack {
        rig.attacker_mut().set_inject_gap(2);
        rig.attacker_mut().arm(Mission::InjectRaw {
            llid: ble_link::Llid::StartOrComplete,
            payload: bench::trial::canonical_write_payload(),
            wanted_successes: 5,
        });
    }
    rig.scenario.run_for(Duration::from_secs(30));
    let (events, alerts) = {
        let d = rig
            .scenario
            .world
            .node::<InjectionDetector>(id)
            .expect("ids node");
        (d.events_observed(), d.alerts().len())
    };
    let attempts = rig.attacker().stats().attempts_total;
    Some(RunResult {
        events,
        alerts,
        attempts,
    })
}

fn main() {
    let runs = bench::Cli::parse(15).trials;
    println!();
    println!("=== IDS detection (paper §VIII, countermeasure 3) ===");
    println!();
    for (label, attack) in [("clean traffic", false), ("under attack", true)] {
        let mut detected = 0u64;
        let mut total_alerts = 0usize;
        let mut total_events = 0u64;
        let mut total_attempts = 0u64;
        let mut setup_failures = 0u64;
        for i in 0..runs {
            let seed = 11_000 + i;
            let Some(r) = run(seed, attack, &RigConfig::default()) else {
                println!("{label:<14}: seed {seed} setup failed: attacker never synchronised");
                setup_failures += 1;
                continue;
            };
            detected += u64::from(r.alerts > 0);
            total_alerts += r.alerts;
            total_events += u64::from(r.events);
            total_attempts += u64::from(r.attempts);
        }
        let completed = runs - setup_failures;
        println!(
            "{label:<14}: runs flagged {detected}/{completed}   alerts {total_alerts:>4}   events observed {total_events:>6}   injection attempts {total_attempts:>4}"
        );
        if setup_failures > 0 {
            println!("setup failures: {setup_failures}/{runs}");
        }
    }
    println!();
    println!("Expected shape: 0 runs flagged on clean traffic (no false positives),");
    println!("every attacked run flagged, with multiple alerts per campaign.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_rig_that_never_synchronises_is_a_setup_failure() {
        // 10 km away the attacker never hears the CONNECT_IND.
        let far = RigConfig {
            attacker_distance: 10_000.0,
            ..RigConfig::default()
        };
        assert!(run(11_000, true, &far).is_none());
    }
}
