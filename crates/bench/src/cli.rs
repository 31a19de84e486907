//! Shared command-line parsing for the experiment binaries.
//!
//! Every `exp*`/`ablation*` binary takes the same small surface: an
//! optional positional trial count, `--seed <n>` to shift the seed base,
//! and `--json <path>` to write the `SeriesReport` rows there instead of
//! the default `target/experiments/<name>.json`.
//!
//! The campaign flags switch a binary from the in-memory
//! `run_trials_parallel` path to the streaming, checkpointable
//! [`crate::campaign`] runner: `--campaign` enables it,
//! `--chunk-size <n>` overrides the trials-per-chunk granularity,
//! `--checkpoint-dir <path>` relocates the JSONL sidecars (default
//! `target/experiments/campaigns/`), and `--campaign-max-chunks <n>`
//! stops after merging `n` chunks (resume by re-running — CI smoke uses
//! this to prove kill/resume works). Both paths produce byte-identical
//! rows at a fixed seed.

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
    /// Run sweep points through the streaming campaign runner
    /// (`--campaign`).
    pub campaign: bool,
    /// Campaign chunk size override (`--chunk-size`).
    pub chunk_size: Option<u64>,
    /// Campaign checkpoint sidecar directory (`--checkpoint-dir`).
    pub checkpoint_dir: Option<PathBuf>,
    /// Stop each campaign point after merging this many chunks
    /// (`--campaign-max-chunks`).
    pub campaign_max_chunks: Option<u64>,
}

impl Cli {
    /// Parses `std::env::args()` with the binary's default trial count.
    pub fn parse(default_trials: u64) -> Cli {
        Self::from_args(std::env::args().skip(1), default_trials)
    }

    /// Parses an explicit argument list (first argument onwards). Unknown
    /// or malformed arguments are reported on stderr and skipped, keeping
    /// the historical "anything unparseable means the default" behaviour.
    pub fn from_args(args: impl IntoIterator<Item = String>, default_trials: u64) -> Cli {
        let mut cli = Cli {
            trials: default_trials,
            seed: None,
            json: None,
            campaign: false,
            chunk_size: None,
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
                "--chunk-size" => match args.next().and_then(|v| v.parse().ok()) {
                    Some(v) if v > 0 => cli.chunk_size = Some(v),
                    _ => eprintln!("warning: --chunk-size expects a positive integer; ignored"),
                },
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
                other => {
                    if !positional_taken {
                        positional_taken = true;
                        match other.parse() {
                            Ok(v) => cli.trials = v,
                            Err(_) => {
                                eprintln!(
                                    "warning: expected a trial count, got {other:?}; \
                                     using default {default_trials}"
                                );
                            }
                        }
                    } else {
                        eprintln!("warning: unrecognised argument {other:?}; ignored");
                    }
                }
            }
        }
        cli
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

    fn parse(args: &[&str]) -> Cli {
        Cli::from_args(args.iter().map(|s| s.to_string()), 25)
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
        assert_eq!(cli.chunk_size, None);
        assert_eq!(cli.checkpoint_dir, None);
        assert_eq!(cli.campaign_max_chunks, None);
        let cli = parse(&[
            "--campaign",
            "--chunk-size",
            "128",
            "--checkpoint-dir",
            "cp",
            "--campaign-max-chunks",
            "2",
            "9",
        ]);
        assert!(cli.campaign);
        assert_eq!(cli.chunk_size, Some(128));
        assert_eq!(
            cli.checkpoint_dir.as_deref(),
            Some(std::path::Path::new("cp"))
        );
        assert_eq!(cli.campaign_max_chunks, Some(2));
        assert_eq!(cli.trials, 9);
        // Zero is not a usable chunk size or chunk budget.
        let cli = parse(&["--chunk-size", "0", "--campaign-max-chunks", "0"]);
        assert_eq!(cli.chunk_size, None);
        assert_eq!(cli.campaign_max_chunks, None);
    }
}
