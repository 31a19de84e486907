//! Output checks: fixed-seed digests of per-trial outcomes, and the
//! committed perf-gate baselines' `raw` vectors.

use std::fmt::Write as _;
use std::path::Path;

use crate::workloads::{Spec, Trial};

/// The checked part of a trial's outcome: attempts to the first confirmed
/// injection (`None` when none was confirmed) and simulated seconds.
/// `None` as a whole marks a trial that did not finish.
pub type Outcome = Option<(Option<u32>, f64)>;

/// The checked part of a trial result.
pub fn outcome_of(result: &Option<Trial>) -> Outcome {
    result
        .as_ref()
        .map(|t| (t.outcome.attempts, t.outcome.sim_seconds))
}

fn describe(o: &Outcome) -> String {
    match o {
        None => "did not finish".to_string(),
        Some((Some(a), s)) => format!("{a} attempts, {s} sim s"),
        Some((None, s)) => format!("no confirmed injection, {s} sim s"),
    }
}

/// Compares one pass's outcomes with the reference; describes the first
/// difference, naming its seed.
pub fn compare(pool: &[Spec], want: &[Outcome], got: &[Outcome], what: &str) -> Option<String> {
    pool.iter()
        .zip(want.iter().zip(got))
        .find(|(_, (w, g))| w != g)
        .map(|(spec, (w, g))| {
            format!(
                "{what}: seed {} differs: expected {}, got {}",
                spec.seed,
                describe(w),
                describe(g)
            )
        })
}

/// Reads a digest written by [`write_digest`] for `pool`.
pub fn read_digest(path: &Path, pool: &[Spec]) -> Result<Vec<Outcome>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read digest {}: {e}", path.display()))?;
    let lines: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
    if lines.len() != pool.len() {
        return Err(format!(
            "digest {} has {} trials, the pool {}",
            path.display(),
            lines.len(),
            pool.len()
        ));
    }
    pool.iter()
        .zip(lines)
        .map(|(spec, line)| {
            let bad = || format!("digest {}: malformed line {line:?}", path.display());
            let fields: Vec<&str> = line.split_whitespace().collect();
            if fields.first().and_then(|s| s.parse::<u64>().ok()) != Some(spec.seed) {
                return Err(bad());
            }
            match fields[1..] {
                ["unfinished"] => Ok(None),
                [attempts, sim_s] => {
                    let attempts = match attempts {
                        "-" => None,
                        a => Some(a.parse::<u32>().map_err(|_| bad())?),
                    };
                    Ok(Some((attempts, sim_s.parse::<f64>().map_err(|_| bad())?)))
                }
                _ => Err(bad()),
            }
        })
        .collect()
}

/// Writes the digest of one pass over `pool`.
pub fn write_digest(
    path: &Path,
    header: &str,
    pool: &[Spec],
    outcomes: &[Outcome],
) -> std::io::Result<()> {
    let mut text = format!("# {header}\n# seed attempts|- sim_seconds (pool order)\n");
    for (spec, o) in pool.iter().zip(outcomes) {
        let _ = match o {
            None => writeln!(text, "{} unfinished", spec.seed),
            Some((a, s)) => {
                let a = a.map_or("-".to_string(), |a| a.to_string());
                writeln!(text, "{} {a} {s}", spec.seed)
            }
        };
    }
    std::fs::write(path, text)
}

/// The `raw` vector of the row swept at `value` in a baseline artefact
/// (one row per line, as `bench::report::rows_to_json` writes them).
fn baseline_raw(path: &Path, value: f64) -> Result<Vec<u32>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
    let key = format!("\"value\":{value},");
    let line = text
        .lines()
        .find(|l| l.contains(&key))
        .ok_or_else(|| format!("baseline {} has no row {value}", path.display()))?;
    let raw = line
        .split_once("\"raw\":[")
        .and_then(|(_, rest)| rest.split_once(']'))
        .map(|(raw, _)| raw)
        .ok_or_else(|| format!("baseline {} row {value} has no raw", path.display()))?;
    raw.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| s.parse::<u32>().map_err(|_| format!("bad raw entry {s:?}")))
        .collect()
}

/// Checks that the first five trials of each row reproduce the baseline
/// row's `raw` vector (attempts of the successful trials, in seed order).
pub fn check_baseline(
    dir: &Path,
    file: &str,
    values: &[f64],
    pool: &[Spec],
    outcomes: &[Outcome],
) -> Result<(), String> {
    const BASELINE_TRIALS: u64 = 5;
    for (row, &value) in values.iter().enumerate() {
        let want = baseline_raw(&dir.join(file), value)?;
        let first: Vec<(&Spec, &Outcome)> = pool
            .iter()
            .zip(outcomes)
            .filter(|(s, _)| s.row == row && s.i < BASELINE_TRIALS)
            .collect();
        let got: Vec<u32> = first
            .iter()
            .filter_map(|(_, o)| o.and_then(|o| o.0))
            .collect();
        if got != want {
            // Name the first success whose attempt count breaks the
            // expected sequence, else the first trial without a success.
            let mut expected = want.iter();
            let seed = first
                .iter()
                .find(|(_, o)| {
                    o.and_then(|o| o.0)
                        .is_some_and(|a| expected.next() != Some(&a))
                })
                .or_else(|| first.iter().find(|(_, o)| o.and_then(|o| o.0).is_none()))
                .map_or(0, |(s, _)| s.seed);
            return Err(format!(
                "{file} row {value}: first {BASELINE_TRIALS} trials give raw {got:?}, \
                 baseline {want:?} (first differing seed {seed})"
            ));
        }
    }
    Ok(())
}
