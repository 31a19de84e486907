//! Experiment 6: injection success vs dense-band background load.
//!
//! The paper's testbed is a quiet lab: the victim connection is the only
//! traffic in the 2.4 GHz band. This sweep drops the same rig into a dense
//! hall (path-loss exponent 3.4) shared with 8–512 background connection
//! pairs hopping the 37 data channels, and measures what channel occupancy
//! does to the attack: injection attempts to first success, the band's
//! co-channel collision rate, and how many `RxStart` events the sharded
//! medium schedules per frame (the quantity the channel-sharding rework
//! keeps independent of world size). The trial is
//! [`bench::run_dense_trial`]; its band counters fold into the row's two
//! extra columns.

use bench::{print_series_to, run_dense_trial, run_point, Cli};

fn main() {
    let cli = Cli::parse(10);
    let base = cli.seed_base(6_000);
    let mut rows = Vec::new();
    for pairs in [8usize, 32, 128, 512] {
        rows.push(run_point(
            &cli,
            "exp6_dense_band",
            "background_pairs",
            pairs as f64,
            base + pairs as u64,
            |seed| run_dense_trial(seed, pairs),
        ));
        eprintln!("background_pairs {pairs}: done");
    }
    print_series_to(
        "exp6_dense_band",
        "Experiment 6 — Dense-band background load (channel-sharded medium)",
        &rows,
        cli.json.as_deref(),
    );
}
