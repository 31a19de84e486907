//! Closed-loop benchmark of the InjectaBLE simulator.
//!
//! ```console
//! $ cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!       --workload fig9_quiet --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root. Each workload runs trials back to back on
//! one thread, over a fixed pool of trial seeds (the matching experiment
//! binary's seeds, from `--seed-base`). `--seed` only orders the pool:
//! every pass over the pool is shuffled by a `SimRng` seeded with it, and
//! the timed phase runs whole passes until `--seconds` have elapsed and at
//! least 100 trials have run, so every run does the same work. See
//! `perfbench/README.md` for the workloads and metrics.

mod check;
mod layers;
mod trace;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use bench::wallclock::Stopwatch;
use simkit::SimRng;

use crate::check::Outcome;
use crate::layers::{layer_metrics, TracedRun};
use crate::trace::{Spans, Tracer};
use crate::workloads::{Spec, Trial, Workload};

/// Set-up blocks per timed run; `setup_s` is the median block's mean pass.
const SETUP_BLOCKS: usize = 5;
/// The timed phase runs at least this many trials, so `trial_ms_p90` has
/// ten samples beyond it.
const MIN_TIMED_TRIALS: u64 = 100;
/// Untimed trials before the timed phase.
const WARMUP_TRIALS: usize = 3;

const DIGEST_DIR: &str = "perfbench/digests";
const OUT_DIR: &str = "perfbench/out";
const BASELINE_DIR: &str = "benchmarks/baselines";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    seed_base: Option<u64>,
    write_digest: bool,
}

const USAGE: &str = "usage: perfbench --workload <fig9_quiet|dense_band_512|multi_conn_8> \
                     --seed <n> --seconds <s> --trace <0|1> [--seed-base <n>] [--write-digest]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut seed_base = None;
    let mut write_digest = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--write-digest" {
            write_digest = true;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                seconds = Some(s).filter(|s| s.is_finite() && *s > 0.0);
                seconds.ok_or_else(bad)?;
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--seed-base" => seed_base = Some(value.parse::<u64>().map_err(|_| bad())?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
        seed_base,
        write_digest,
    })
}

/// A uniformly shuffled order of the pool's indices.
fn shuffled(n: usize, rng: &mut SimRng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    order
}

/// Runs one trial, containing a panic: `None` for a trial that panicked
/// or aborted, whose seed is printed.
fn run_one(w: Workload, spec: &Spec, mut tracer: Option<&mut Tracer>) -> Option<Trial> {
    let root = tracer.as_deref_mut().map(|t| t.enter("trial", spec.seed));
    let result = catch_unwind(AssertUnwindSafe(|| {
        w.run(spec, &mut Spans::new(tracer.as_deref_mut(), spec.seed))
    }));
    if let (Some(t), Some(root)) = (tracer, root) {
        t.exit(root);
    }
    match result {
        Ok(Ok(trial)) => Some(trial),
        Ok(Err(why)) => {
            eprintln!("perfbench: trial seed {} aborted: {why}", spec.seed);
            None
        }
        Err(_) => {
            eprintln!("perfbench: trial seed {} panicked", spec.seed);
            None
        }
    }
}

/// One pass over the pool in `order`; results land in pool order. Appends
/// each trial's wall time (ms, scene build included) to `trial_ms`.
fn run_pass(
    w: Workload,
    pool: &[Spec],
    order: &[usize],
    mut tracer: Option<&mut Tracer>,
    trial_ms: &mut Vec<f64>,
) -> Vec<Option<Trial>> {
    let mut results: Vec<Option<Trial>> = vec![None; pool.len()];
    for &idx in order {
        let sw = Stopwatch::start();
        results[idx] = run_one(w, &pool[idx], tracer.as_deref_mut());
        trial_ms.push(sw.elapsed_s() * 1e3);
    }
    results
}

/// The binary's campaign fold over one pass, plus its artefact write.
fn fold_and_write(
    w: Workload,
    pool: &[Spec],
    results: &[Option<Trial>],
    wall_s: f64,
) -> Result<(), String> {
    let rows = w.fold(pool, results, wall_s);
    let path = Path::new(OUT_DIR).join(format!("{}.series.json", w.name()));
    bench::report::write_json_to(&path, &rows)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn outcomes(results: &[Option<Trial>]) -> Vec<Outcome> {
    results.iter().map(check::outcome_of).collect()
}

/// What the timed phase measured.
struct Timed {
    wall_s: f64,
    trials: u64,
    unfinished: u64,
    /// Trials that did not finish or confirmed no injection.
    failed: u64,
    sim_s: f64,
    trial_ms: Vec<f64>,
    first_pass: Vec<Outcome>,
}

/// Whole shuffled passes over the pool until `seconds` have elapsed and
/// [`MIN_TIMED_TRIALS`] trials have run. Every pass is checked against
/// `reference` (the digest, else the first pass); the first mismatch is
/// pushed to `errors`.
fn timed_phase(
    w: Workload,
    pool: &[Spec],
    rng: &mut SimRng,
    seconds: f64,
    reference: Option<&[Outcome]>,
    errors: &mut Vec<String>,
) -> Result<Timed, String> {
    let mut t = Timed {
        wall_s: 0.0,
        trials: 0,
        unfinished: 0,
        failed: 0,
        sim_s: 0.0,
        trial_ms: Vec::new(),
        first_pass: Vec::new(),
    };
    let mut mismatch = None;
    let phase = Stopwatch::start();
    loop {
        let order = shuffled(pool.len(), rng);
        let pass = Stopwatch::start();
        let results = run_pass(w, pool, &order, None, &mut t.trial_ms);
        fold_and_write(w, pool, &results, pass.elapsed_s())?;
        for r in &results {
            match r {
                Some(trial) => {
                    t.sim_s += trial.outcome.sim_seconds;
                    t.failed += u64::from(trial.outcome.attempts.is_none());
                }
                None => {
                    t.unfinished += 1;
                    t.failed += 1;
                }
            }
        }
        t.trials += pool.len() as u64;
        let got = outcomes(&results);
        if t.first_pass.is_empty() {
            t.first_pass = got;
        } else if mismatch.is_none() {
            let want = reference.unwrap_or(&t.first_pass);
            mismatch = check::compare(pool, want, &got, "timed pass");
        }
        if phase.elapsed_s() >= seconds && t.trials >= MIN_TIMED_TRIALS {
            break;
        }
    }
    t.wall_s = phase.elapsed_s();
    if let Some(reference) = reference {
        errors.extend(check::compare(
            pool,
            reference,
            &t.first_pass,
            "timed pass vs digest",
        ));
    }
    errors.extend(mismatch);
    Ok(t)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of a sample.
fn percentile(v: &[f64], q: f64) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len().max(1));
    v.get(rank - 1).copied().unwrap_or(0.0)
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run() -> Result<i32, String> {
    let args = parse_args().map_err(|e| format!("{e}\n{USAGE}"))?;
    let w = args.workload;
    let base = args.seed_base.unwrap_or(w.default_seed_base());
    let on_default_base = base == w.default_seed_base();
    let pool = w.pool(base);
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let digest_path = PathBuf::from(DIGEST_DIR).join(format!("{}.txt", w.name()));
    let baseline = w.baseline();
    let mut errors: Vec<String> = Vec::new();

    if args.write_digest {
        let order: Vec<usize> = (0..pool.len()).collect();
        let results = run_pass(w, &pool, &order, None, &mut Vec::new());
        let got = outcomes(&results);
        if on_default_base {
            check::check_baseline(
                Path::new(BASELINE_DIR),
                baseline.0,
                &baseline.1,
                &pool,
                &got,
            )?;
        }
        let header = format!("{} digest, seed base {base}", w.name());
        check::write_digest(&digest_path, &header, &pool, &got)
            .map_err(|e| format!("cannot write {}: {e}", digest_path.display()))?;
        eprintln!("perfbench: wrote {}", digest_path.display());
        return Ok(0);
    }

    let reference = if on_default_base {
        Some(check::read_digest(&digest_path, &pool)?)
    } else {
        eprintln!("perfbench: seed base {base} has no digest; checking that passes agree only");
        None
    };
    let mut rng = SimRng::seed_from(args.seed);

    let setup_s = if args.trace {
        0.0
    } else {
        let blocks: Vec<f64> = (0..SETUP_BLOCKS)
            .map(|_| {
                let block = Stopwatch::start();
                let passes = w.setup_block_passes();
                for _ in 0..passes {
                    for spec in &pool {
                        w.build_and_drop(spec);
                    }
                }
                block.elapsed_s() / f64::from(passes)
            })
            .collect();
        median(blocks)
    };

    for idx in shuffled(pool.len(), &mut rng)
        .into_iter()
        .take(WARMUP_TRIALS)
    {
        run_one(w, &pool[idx], None);
    }

    let timed = timed_phase(
        w,
        &pool,
        &mut rng,
        args.seconds,
        reference.as_deref(),
        &mut errors,
    )?;
    if on_default_base {
        if let Err(e) = check::check_baseline(
            Path::new(BASELINE_DIR),
            baseline.0,
            &baseline.1,
            &pool,
            &timed.first_pass,
        ) {
            errors.push(e);
        }
    }
    let trials_per_s = timed.trials as f64 / timed.wall_s;
    eprintln!(
        "perfbench: {} timed {} trials ({} passes of {}) in {:.2} s; \
         trial_ms percentiles over {} samples",
        w.name(),
        timed.trials,
        timed.trials / pool.len() as u64,
        pool.len(),
        timed.wall_s,
        timed.trial_ms.len()
    );

    let mut attempted = timed.trials;
    let mut unfinished = timed.unfinished;
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let mut tracer = Tracer::default();
        let order = shuffled(pool.len(), &mut rng);
        let sw = Stopwatch::start();
        let results = run_pass(w, &pool, &order, Some(&mut tracer), &mut Vec::new());
        let fold = tracer.enter("bench.fold", 0);
        fold_and_write(w, &pool, &results, sw.elapsed_s())?;
        tracer.exit(fold);
        let traced_wall_s = sw.elapsed_s();
        attempted += pool.len() as u64;
        let traced_unfinished = results.iter().filter(|r| r.is_none()).count() as u64;
        unfinished += traced_unfinished;
        errors.extend(check::compare(
            &pool,
            &timed.first_pass,
            &outcomes(&results),
            "traced pass vs timed pass",
        ));
        let spans_path = Path::new(OUT_DIR).join(format!("{}.spans.jsonl", w.name()));
        tracer
            .write_jsonl(&spans_path)
            .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;
        let layer = layer_metrics(&TracedRun {
            tracer: &tracer,
            trials: pool.len() as u64,
            panicked: traced_unfinished,
            failed: timed.failed,
            requested: timed.trials,
            timed_trials_per_s: trials_per_s,
            traced_trials_per_s: pool.len() as f64 / traced_wall_s,
        });
        let tsv = layers::report_tsv(w.name(), &layer);
        eprint!("{tsv}");
        let tsv_path = Path::new(OUT_DIR).join(format!("{}.layers.tsv", w.name()));
        std::fs::write(&tsv_path, tsv)
            .map_err(|e| format!("cannot write {}: {e}", tsv_path.display()))?;
        layer.iter().map(|m| (m.name, m.value, m.unit)).collect()
    } else {
        let peak_rss_mb = bench::report::peak_rss_kb().unwrap_or(0) as f64 / 1024.0;
        vec![
            ("trials_per_s", trials_per_s, "1/s"),
            ("sim_s_per_wall_s", timed.sim_s / timed.wall_s, "s/s"),
            ("trial_ms_p50", percentile(&timed.trial_ms, 0.5), "ms"),
            ("trial_ms_p90", percentile(&timed.trial_ms, 0.9), "ms"),
            ("setup_s", setup_s, "s"),
            ("peak_rss_mb", peak_rss_mb, "MB"),
            (
                "trial_success_frac",
                1.0 - timed.failed as f64 / timed.trials as f64,
                "frac",
            ),
        ]
    };

    for e in &errors {
        eprintln!("perfbench: output check failed: {e}");
    }
    let correct = errors.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {}}}",
        unfinished,
        json_metrics(&metrics)
    );
    Ok(if correct { 0 } else { 1 })
}

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
