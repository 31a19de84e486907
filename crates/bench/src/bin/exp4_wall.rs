//! Figure 9, wall experiment: injection attempts with the attacker behind
//! a wall at 2–8 m (paper §VII-C, final paragraph).

use bench::{print_series_to, run_point, run_trial, Cli, TrialConfig};

fn main() {
    let cli = Cli::parse(25);
    let base = cli.seed_base(4_000);
    let mut rows = Vec::new();
    for distance in [2.0f64, 4.0, 6.0, 8.0] {
        let mut cfg = TrialConfig::new(base + distance as u64);
        cfg.rig.hop_interval = 36;
        cfg.rig.attacker_distance = distance;
        cfg.rig.wall_db = Some(8.0);
        cfg.sim_budget = simkit::Duration::from_secs(240);
        rows.push(run_point(
            &cli,
            "exp4_wall",
            "distance_m",
            distance,
            cfg.seed,
            |seed| run_trial(&cfg.with_seed(seed)),
        ));
        eprintln!("wall distance {distance} m: done");
    }
    print_series_to(
        "exp4_wall",
        "Experiment 4 — Attacker behind a wall (paper Fig. 9, panel 4)",
        &rows,
        cli.json.as_deref(),
    );
}
