//! Shared command-line parsing for the experiment binaries.
//!
//! Every `exp*`/`ablation*` binary takes the same small surface: an
//! optional positional trial count, `--seed <n>` to shift the seed base,
//! and `--json <path>` to write the `SeriesReport` rows there instead of
//! the default `target/experiments/<name>.json`. An unknown flag or a
//! second positional argument prints usage and exits with status 2.
//!
//! Every sweep point runs through the [`crate::campaign`] engine; the
//! campaign flags only add checkpointing: `--campaign` writes a JSONL
//! sidecar per point and resumes from it, `--checkpoint-dir <path>`
//! relocates the sidecars (default `target/experiments/campaigns/`), and
//! `--campaign-max-chunks <n>` stops after merging `n` chunks (resume by
//! re-running — CI smoke uses this to prove kill/resume works). The rows
//! are byte-identical with or without them.

use std::path::PathBuf;

/// Parsed experiment command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cli {
    /// Trials per sweep point.
    pub trials: u64,
    /// Seed-base override (`--seed`).
    pub seed: Option<u64>,
    /// JSON artefact path (`--json`), replacing the default one.
    pub json: Option<PathBuf>,
    /// Checkpoint each sweep point to a sidecar and resume from it
    /// (`--campaign`).
    pub campaign: bool,
    /// Campaign checkpoint sidecar directory (`--checkpoint-dir`).
    pub checkpoint_dir: Option<PathBuf>,
    /// Stop each campaign point after merging this many chunks
    /// (`--campaign-max-chunks`).
    pub campaign_max_chunks: Option<u64>,
}

/// The flag summary printed when the command line cannot be parsed.
const USAGE: &str = "[TRIALS] [--seed N] [--json PATH] [--campaign] \
                     [--checkpoint-dir DIR] [--campaign-max-chunks N]";

impl Cli {
    /// Parses `std::env::args()` with the binary's default trial count. An
    /// unknown flag or a second positional argument prints usage on stderr
    /// and exits with status 2.
    pub fn parse(default_trials: u64) -> Cli {
        let mut args = std::env::args();
        let bin = args.next().unwrap_or_default();
        match Self::from_args(args, default_trials) {
            Ok(cli) => cli,
            Err(msg) => {
                eprintln!("error: {msg}\nusage: {bin} {USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// Parses an explicit argument list (first argument onwards). An
    /// unknown `--flag` or a second positional argument is an error. A
    /// malformed trial count or a missing flag value is reported on stderr
    /// and skipped, keeping the default.
    pub fn from_args(
        args: impl IntoIterator<Item = String>,
        default_trials: u64,
    ) -> Result<Cli, String> {
        let mut cli = Cli {
            trials: default_trials,
            seed: None,
            json: None,
            campaign: false,
            checkpoint_dir: None,
            campaign_max_chunks: None,
        };
        let mut args = args.into_iter();
        let mut positional_taken = false;
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                    Some(v) => cli.seed = Some(v),
                    None => eprintln!("warning: --seed expects an integer; ignored"),
                },
                "--json" => match args.next() {
                    Some(v) => cli.json = Some(PathBuf::from(v)),
                    None => eprintln!("warning: --json expects a path; ignored"),
                },
                "--campaign" => cli.campaign = true,
                "--checkpoint-dir" => match args.next() {
                    Some(v) => cli.checkpoint_dir = Some(PathBuf::from(v)),
                    None => eprintln!("warning: --checkpoint-dir expects a path; ignored"),
                },
                "--campaign-max-chunks" => match args.next().and_then(|v| v.parse().ok()) {
                    Some(v) if v > 0 => cli.campaign_max_chunks = Some(v),
                    _ => eprintln!(
                        "warning: --campaign-max-chunks expects a positive integer; ignored"
                    ),
                },
                flag if flag.starts_with("--") => {
                    return Err(format!("unrecognised flag {flag:?}"));
                }
                other if positional_taken => {
                    return Err(format!("unexpected second positional argument {other:?}"));
                }
                other => {
                    positional_taken = true;
                    match other.parse() {
                        Ok(v) => cli.trials = v,
                        Err(_) => eprintln!(
                            "warning: expected a trial count, got {other:?}; \
                             using default {default_trials}"
                        ),
                    }
                }
            }
        }
        Ok(cli)
    }

    /// The seed base for the sweep: the `--seed` override, or the binary's
    /// historical default.
    pub fn seed_base(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn try_parse(args: &[&str]) -> Result<Cli, String> {
        Cli::from_args(args.iter().map(|s| s.to_string()), 25)
    }

    fn parse(args: &[&str]) -> Cli {
        try_parse(args).expect("valid command line")
    }

    #[test]
    fn defaults_apply_with_no_args() {
        let cli = parse(&[]);
        assert_eq!(cli.trials, 25);
        assert_eq!(cli.seed, None);
        assert_eq!(cli.json, None);
    }

    #[test]
    fn positional_trial_count() {
        assert_eq!(parse(&["3"]).trials, 3);
    }

    #[test]
    fn malformed_count_keeps_default() {
        assert_eq!(parse(&["lots"]).trials, 25);
    }

    #[test]
    fn flags_parse_in_any_order() {
        let cli = parse(&["--json", "out.json", "7", "--seed", "99"]);
        assert_eq!(cli.trials, 7);
        assert_eq!(cli.seed, Some(99));
        assert_eq!(cli.json.as_deref(), Some(std::path::Path::new("out.json")));
        assert_eq!(cli.seed_base(1_000), 99);
        assert_eq!(parse(&[]).seed_base(1_000), 1_000);
    }

    #[test]
    fn missing_flag_values_are_ignored() {
        let cli = parse(&["--seed"]);
        assert_eq!(cli.seed, None);
        let cli = parse(&["--json"]);
        assert_eq!(cli.json, None);
    }

    #[test]
    fn campaign_flags_parse() {
        let cli = parse(&[]);
        assert!(!cli.campaign);
        assert_eq!(cli.checkpoint_dir, None);
        assert_eq!(cli.campaign_max_chunks, None);
        let cli = parse(&[
            "--campaign",
            "--checkpoint-dir",
            "cp",
            "--campaign-max-chunks",
            "2",
            "9",
        ]);
        assert!(cli.campaign);
        assert_eq!(
            cli.checkpoint_dir.as_deref(),
            Some(std::path::Path::new("cp"))
        );
        assert_eq!(cli.campaign_max_chunks, Some(2));
        assert_eq!(cli.trials, 9);
        // Zero is not a usable chunk budget.
        let cli = parse(&["--campaign-max-chunks", "0"]);
        assert_eq!(cli.campaign_max_chunks, None);
    }

    #[test]
    fn unknown_flag_is_an_error_not_a_trial_count() {
        // Were the unknown flag to take the positional slot, `3` would be
        // dropped and the run would silently use the default 25 trials.
        let err = try_parse(&["--chunk-size", "2", "3", "--json", "x.json"]).unwrap_err();
        assert!(err.contains("--chunk-size"), "{err}");
        assert!(try_parse(&["3", "--bogus"]).is_err());
    }

    #[test]
    fn second_positional_is_an_error() {
        let err = try_parse(&["3", "4"]).unwrap_err();
        assert!(err.contains("\"4\""), "{err}");
        assert!(try_parse(&["lots", "4"]).is_err());
    }
}
