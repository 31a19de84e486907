//! BLE 5 extension: the injection race on the LE 2M PHY.
//!
//! At 2 Mbit/s every frame's airtime halves, so the injected frame exposes
//! fewer microseconds to the colliding Master frame. The paper evaluates
//! LE 1M only; this ablation quantifies how the faster PHY changes the
//! attacker's cost on otherwise identical scenes.

use bench::{print_series_to, run_point, run_trial, Cli, TrialConfig};
use ble_phy::PhyMode;

fn main() {
    let cli = Cli::parse(25);
    let base = cli.seed_base(12_000);
    let mut rows = Vec::new();
    for (label, phy) in [(1.0, PhyMode::Le1M), (2.0, PhyMode::Le2M)] {
        let mut cfg = TrialConfig::new(base + label as u64);
        cfg.rig.phy = phy;
        // A distance where collisions matter (4 m).
        cfg.rig.attacker_distance = 4.0;
        rows.push(run_point(
            &cli,
            "ablation_phy2m",
            "phy_mbit",
            label,
            cfg.seed,
            |seed| run_trial(&cfg.with_seed(seed)),
        ));
        eprintln!("LE {label}M: done");
    }
    print_series_to(
        "ablation_phy2m",
        "Ablation — LE 1M vs LE 2M PHY (attacker at 4 m)",
        &rows,
        cli.json.as_deref(),
    );
}
