//! Figure 9, experiment 3: injection attempts vs attacker distance
//! (paper §VII-C). Bulb and phone 2 m apart (hop interval 36, the paper's
//! smartphone default); attacker from 1 m to 10 m.

use bench::{print_series_to, run_point, run_trial, Cli, TrialConfig};

fn main() {
    let cli = Cli::parse(25);
    let base = cli.seed_base(3_000);
    let mut rows = Vec::new();
    for distance in [1.0f64, 2.0, 4.0, 6.0, 8.0, 10.0] {
        let mut cfg = TrialConfig::new(base + distance as u64);
        cfg.rig.hop_interval = 36;
        cfg.rig.attacker_distance = distance;
        rows.push(run_point(
            &cli,
            "exp3_distance",
            "distance_m",
            distance,
            cfg.seed,
            |seed| run_trial(&cfg.with_seed(seed)),
        ));
        eprintln!("distance {distance} m: done");
    }
    print_series_to(
        "exp3_distance",
        "Experiment 3 — Attacker distance (paper Fig. 9, panel 3)",
        &rows,
        cli.json.as_deref(),
    );
}
