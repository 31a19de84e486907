//! Figure 9, experiment 2: injection attempts vs payload size (paper §VII-B).
//!
//! Hop interval fixed at 75; Link-Layer payload sizes {4, 9, 14, 16} bytes,
//! 25 trials each.

use bench::trial::raw_payload_of_len;
use bench::{print_series_to, run_point, run_trial, Cli, TrialConfig};

fn main() {
    let cli = Cli::parse(25);
    let base = cli.seed_base(2_000);
    let mut rows = Vec::new();
    for size in [4usize, 9, 14, 16] {
        let mut cfg = TrialConfig::new(base + size as u64);
        cfg.rig.hop_interval = 75;
        cfg.payload = raw_payload_of_len(size);
        rows.push(run_point(
            &cli,
            "exp2_payload_size",
            "payload_bytes",
            size as f64,
            cfg.seed,
            |seed| run_trial(&cfg.with_seed(seed)),
        ));
        eprintln!("payload {size} B: done");
    }
    print_series_to(
        "exp2_payload_size",
        "Experiment 2 — Payload size (paper Fig. 9, panel 2)",
        &rows,
        cli.json.as_deref(),
    );
}
