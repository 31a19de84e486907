//! Ablation of the paper's first countermeasure (§VIII): shrinking the
//! Slave's receive-window widening.
//!
//! Paper: *"by reducing the duration of the widening windows the
//! possibility for an attacker to inject a frame at the right time will be
//! mechanically reduced … the rate of successful injection will decrease
//! due to the collision with a legitimate frame. However … such an approach
//! … could have side effects on the reliability and stability of the
//! communications."*
//!
//! We sweep the widening scale and report both sides of that trade-off:
//! the attacker's cost (attempts to first success, success rate within the
//! budget) and the victim's health (connection drops during the campaign).

use bench::rig::{ExperimentRig, RigConfig};
use bench::stats::Summary;
use bench::{Cli, SeriesReport, TrialOutcome};
use injectable::Mission;
use simkit::Duration;

struct Row {
    scale: f64,
    succeeded: usize,
    trials: usize,
    attempts: Option<Summary>,
    victim_drops: u32,
    outcomes: Vec<TrialOutcome>,
}

fn run_point(scale: f64, trials: u64, base: u64) -> Row {
    let mut attempts = Vec::new();
    let mut victim_drops = 0u32;
    let mut outcomes = Vec::new();
    // Built once per point: every trial arms the same 12-byte write, and
    // the attacker pre-forges it at arm time, so the ATT/L2CAP encoding
    // work is paid once instead of per trial.
    let payload = bench::trial::canonical_write_payload();
    for i in 0..trials {
        let cfg = RigConfig {
            widening_scale: scale,
            ..RigConfig::default()
        };
        let seed = base + i * 7 + (scale * 1000.0) as u64;
        let mut rig = ExperimentRig::new(seed, &cfg);
        if !rig.wait_synchronised(Duration::from_secs(30)) {
            continue;
        }
        rig.attacker_mut().arm(Mission::InjectRaw {
            llid: ble_link::Llid::StartOrComplete,
            payload: payload.clone(),
            wanted_successes: 1,
        });
        let deadline = rig.scenario.now() + Duration::from_secs(60);
        while rig.scenario.now() < deadline {
            rig.scenario.run_for(Duration::from_millis(200));
            if rig.attacker().stats().successes() >= 1 {
                break;
            }
        }
        let first_success = rig.attacker().stats().attempts_to_first_success();
        if let Some(a) = first_success {
            attempts.push(a);
        }
        victim_drops += rig.bulb().disconnections as u32;
        outcomes.push(TrialOutcome {
            attempts: first_success,
            sim_seconds: rig.scenario.now().as_micros_f64() / 1e6,
            effect_observed: rig.bulb().app.pings > 0,
            metrics: None,
            telemetry_downgraded: false,
        });
    }
    Row {
        scale,
        succeeded: attempts.len(),
        trials: trials as usize,
        attempts: (!attempts.is_empty()).then(|| Summary::of(&attempts)),
        victim_drops,
        outcomes,
    }
}

fn main() {
    let cli = Cli::parse(25);
    let trials = cli.trials;
    let base = cli.seed_base(9_000);
    println!();
    println!("=== Ablation — reduced window widening (paper §VIII, countermeasure 1) ===");
    println!();
    println!(
        "{:>6} | {:>8} | {:>6} {:>6} {:>6} | {:>12}",
        "scale", "success", "median", "mean", "max", "victim drops"
    );
    println!("{}", "-".repeat(62));
    let mut series = Vec::new();
    for scale in [1.0f64, 0.75, 0.5, 0.25, 0.1] {
        let row_start = bench::wallclock::Stopwatch::start();
        let row = run_point(scale, trials, base);
        series.push(
            SeriesReport::from_outcomes("widening_scale", scale, &row.outcomes)
                .with_throughput(row_start.elapsed_s()),
        );
        match &row.attempts {
            Some(s) => println!(
                "{:>6} | {:>4}/{:<3} | {:>6.1} {:>6.2} {:>6.0} | {:>12}",
                row.scale, row.succeeded, row.trials, s.median, s.mean, s.max, row.victim_drops
            ),
            None => println!(
                "{:>6} | {:>4}/{:<3} | {:>6} {:>6} {:>6} | {:>12}",
                row.scale, 0, row.trials, "-", "-", "-", row.victim_drops
            ),
        }
    }
    println!();
    println!("Reading: smaller widening ⇒ the injection needs more attempts (or");
    println!("fails outright), while victim connection drops rise — the paper's");
    println!("predicted reliability cost of the countermeasure.");
    if let Some(path) = cli.json.as_deref() {
        bench::report::write_artefact(path, &series);
    }
}
