//! The trial engine: every sweep point that [`run_point`] runs goes
//! through here, from a handful of trials to millions, in bounded memory.
//!
//! [`run_campaign`] shards `count` seeded trials into chunks, fans the
//! chunks out over worker threads, and folds each trial into a
//! [`SeriesAccumulator`] **in seed order** the moment its chunk is merged —
//! no `Vec` of outcomes ever exists. A trial is any closure from seed to a
//! [`Foldable`] result, so exp6's band counters ride the same fold as a
//! plain [`TrialOutcome`].
//!
//! Determinism: workers may finish chunks in any order, but a reorder
//! buffer hands chunks to the single merger strictly in ascending chunk
//! order, and the accumulator folds trials within a chunk in seed order.
//! Every floating-point sum is therefore evaluated in exactly the order a
//! sequential fold ([`SeriesReport::from_outcomes`]) uses, so the final
//! report is byte-identical at a fixed seed regardless of `BENCH_THREADS`.
//!
//! Checkpointing: with [`CampaignConfig::checkpoint`] set, the accumulator
//! plus the next-chunk cursor are appended to a JSONL sidecar every
//! [`CampaignConfig::checkpoint_every_chunks`] merged chunks (and once more
//! when the run stops). A killed campaign resumes from the last complete
//! line without re-running the chunks it covers; `f64` state is stored as
//! IEEE-754 bit patterns so the resumed fold is bit-exact. A sidecar whose
//! header (seed, trial count, chunk size, parameter) does not match the
//! requested campaign is discarded with a warning, never silently merged.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use ble_telemetry::json::{self, Value};
use ble_telemetry::{HistogramUs, SpanKind};

use crate::cli::Cli;
use crate::report::SeriesReport;
use crate::stats::Summary;
use crate::telemetry::{merge_histogram, merge_phase_profile, HistRow, PhaseProfile};
use crate::trial::{trial_seed, BandSums, TrialOutcome};

/// Chunks a campaign is cut into, until chunks reach `MAX_CHUNK_SIZE`.
const TARGET_CHUNKS: u64 = 64;

/// Largest chunk: big enough that channel and reorder overhead is noise
/// next to a real trial, small enough that a resume re-runs little.
const MAX_CHUNK_SIZE: u64 = 256;

/// Default merged-chunk cadence between checkpoint lines.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 16;

/// Trials per chunk for a campaign of `count` trials: about 64 chunks, so
/// a 25-trial run is one trial per chunk and fans out over every worker,
/// capped at 256 trials per chunk for large campaigns. A function of
/// `count` alone, never of the thread count, so a checkpoint sidecar
/// resumes under any `BENCH_THREADS`.
pub fn chunk_size_for(count: u64) -> u64 {
    count.div_ceil(TARGET_CHUNKS).clamp(1, MAX_CHUNK_SIZE)
}

/// Worker-thread count for a fan-out over `max` parallelisable units:
/// `BENCH_THREADS` when set (the determinism oracle pins 1 vs. N), else
/// the machine's available parallelism, clamped to `[1, max]`.
pub fn bench_threads(max: u64) -> usize {
    let n = std::env::var("BENCH_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        });
    n.min(usize::try_from(max).unwrap_or(usize::MAX)).max(1)
}

// ---------------------------------------------------------------------
// Streaming accumulator
// ---------------------------------------------------------------------

/// One finished trial as the campaign fold sees it.
pub trait Foldable: Send {
    /// Folds this trial into `acc`. The engine calls it in seed order.
    fn fold_into(&self, acc: &mut SeriesAccumulator);
}

impl Foldable for TrialOutcome {
    fn fold_into(&self, acc: &mut SeriesAccumulator) {
        acc.fold(self);
    }
}

/// Incremental fold of [`TrialOutcome`]s into the state a
/// [`SeriesReport`] row needs, so no series ever holds its outcomes.
///
/// Fold order matters: `f64` addition is not associative, so byte-identity
/// across thread counts requires folding trials in seed order. The
/// campaign engine guarantees that, and [`SeriesReport::from_outcomes`] is
/// itself a sequential fold through this type.
///
/// Memory: everything here is O(1) per trial except `raw`, which keeps one
/// `u32` per *successful* trial because the artefact format publishes the
/// raw attempt counts in seed order. Four bytes per trial is the floor the
/// format imposes — the ~300-byte `TrialOutcome` (inline histograms,
/// phase profiles) is what streaming eliminates.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesAccumulator {
    requested: u64,
    completed: u64,
    panicked: u64,
    raw: Vec<u32>,
    unconfirmed_effects: u64,
    telemetry_downgrades: u64,
    anchor_error: Option<HistogramUs>,
    lead_time: Option<HistogramUs>,
    events_sum: f64,
    events_n: u64,
    phase_profile: Vec<PhaseProfile>,
    band: Option<BandSums>,
}

impl SeriesAccumulator {
    /// An empty accumulator for a series of `requested` trials. Report
    /// denominators come from this number, not from how many outcomes
    /// happened to be folded, so panicked trials can never shrink them.
    pub fn new(requested: u64) -> Self {
        SeriesAccumulator {
            requested,
            completed: 0,
            panicked: 0,
            raw: Vec::new(),
            unconfirmed_effects: 0,
            telemetry_downgrades: 0,
            anchor_error: None,
            lead_time: None,
            events_sum: 0.0,
            events_n: 0,
            phase_profile: Vec::new(),
            band: None,
        }
    }

    /// Folds one completed trial. Call in seed order.
    pub fn fold(&mut self, o: &TrialOutcome) {
        self.completed = self.completed.saturating_add(1);
        if let Some(a) = o.attempts {
            self.raw.push(a);
        }
        if let Some(m) = o.metrics.as_ref() {
            merge_histogram(&mut self.anchor_error, m.anchor_error.as_ref());
            merge_histogram(&mut self.lead_time, m.lead_time.as_ref());
            merge_phase_profile(&mut self.phase_profile, &m.phase_profile);
            if m.events_per_sec > 0.0 {
                self.events_sum += m.events_per_sec;
                self.events_n = self.events_n.saturating_add(1);
            }
        }
        if o.unconfirmed_effect() {
            self.unconfirmed_effects = self.unconfirmed_effects.saturating_add(1);
        }
        if o.telemetry_downgraded {
            self.telemetry_downgrades = self.telemetry_downgrades.saturating_add(1);
        }
    }

    /// Adds one trial's band counters. A row that folds any gets exp6's two
    /// band columns in [`SeriesAccumulator::report`].
    pub fn fold_band(&mut self, b: &BandSums) {
        let sums = self.band.get_or_insert_default();
        sums.tx_frames = sums.tx_frames.saturating_add(b.tx_frames);
        sums.scheduled_rx_starts = sums
            .scheduled_rx_starts
            .saturating_add(b.scheduled_rx_starts);
        sums.collisions = sums.collisions.saturating_add(b.collisions);
    }

    /// Folds one panicked trial: first-class data, not a silent gap. The
    /// trial counts against the requested denominator and nowhere else.
    pub fn fold_panicked(&mut self) {
        self.panicked = self.panicked.saturating_add(1);
    }

    /// Builds the report row for the folded state.
    pub fn report(&self, parameter: &str, value: f64) -> SeriesReport {
        let attempts = if self.raw.is_empty() {
            Summary::empty()
        } else {
            Summary::of(&self.raw)
        };
        let extras = self.band.map_or_else(Vec::new, |band| {
            let frames = band.tx_frames.max(1) as f64;
            vec![
                (
                    "co_channel_collision_rate".to_string(),
                    band.collisions as f64 / frames,
                ),
                (
                    "mean_scheduled_rx_starts".to_string(),
                    band.scheduled_rx_starts as f64 / frames,
                ),
            ]
        });
        SeriesReport {
            parameter: parameter.to_string(),
            value,
            succeeded: self.raw.len() as u64,
            trials: self.requested,
            attempts,
            raw: self.raw.clone(),
            anchor_error_us: self
                .anchor_error
                .as_ref()
                .map(|h| HistRow::from(h.summary())),
            lead_time_us: self.lead_time.as_ref().map(|h| HistRow::from(h.summary())),
            events_per_sec: (self.events_n > 0).then(|| self.events_sum / self.events_n as f64),
            trials_per_sec: 0.0,
            peak_rss_kb: None,
            unconfirmed_effects: self.unconfirmed_effects,
            telemetry_downgrades: self.telemetry_downgrades,
            panicked_trials: self.panicked,
            phase_profile: self.phase_profile.clone(),
            extras,
        }
    }
}

// ---------------------------------------------------------------------
// Chunked engine
// ---------------------------------------------------------------------

/// Shards trials `[start_chunk * chunk_size, count)` into chunks, runs
/// trial `i` as `runner(trial_seed(seed_base, i))` on worker threads, and
/// hands each chunk to `on_chunk` **strictly in ascending chunk order**
/// (`None` marks a panicked trial). Stops after merging `max_chunks`
/// chunks when set (the kill-and-resume hook). Returns the number of
/// chunks merged.
///
/// All cursors are `u64`: a campaign larger than the platform's `usize`
/// never truncates. The worker→merger channel is *bounded* (a few chunks
/// per worker), so when trials are cheaper than folds the workers block
/// instead of buffering the campaign — live outcomes stay at
/// `O(chunk_size × workers)` regardless of `count`. A single-worker run
/// skips the channel entirely and executes chunks inline on the caller's
/// thread; the fold order is identical either way.
pub(crate) fn run_chunked<T, F, G>(
    seed_base: u64,
    count: u64,
    chunk_size: u64,
    start_chunk: u64,
    max_chunks: Option<u64>,
    runner: &F,
    mut on_chunk: G,
) -> u64
where
    T: Send,
    F: Fn(u64) -> T + Sync,
    G: FnMut(u64, Vec<Option<T>>),
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    let n_chunks = count.div_ceil(chunk_size);
    let target = n_chunks
        .saturating_sub(start_chunk)
        .min(max_chunks.unwrap_or(u64::MAX));
    if target == 0 {
        return 0;
    }
    // Workers never claim past the merge target, so an early stop wastes at
    // most the chunks already in flight.
    let stop_chunk = start_chunk + target;
    let run_one = |c: u64| -> Vec<Option<T>> {
        let lo = c.saturating_mul(chunk_size);
        let hi = lo.saturating_add(chunk_size).min(count);
        let mut buf = Vec::with_capacity(usize::try_from(hi - lo).unwrap_or(0));
        for i in lo..hi {
            let seed = trial_seed(seed_base, i);
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| runner(seed))) {
                Ok(trial) => buf.push(Some(trial)),
                Err(_) => {
                    eprintln!(
                        "[bench] trial {i} (seed {seed}) panicked; \
                         counted as panicked in the series"
                    );
                    buf.push(None);
                }
            }
        }
        buf
    };
    let threads = bench_threads(target);
    let mut merged = 0u64;
    if threads == 1 {
        // Single worker: run chunks inline on the caller's thread. More
        // than a simplification — with a spawned worker the merger
        // allocates concurrently with the sim, which pushes glibc onto
        // extra malloc arenas and inflates peak RSS at every call.
        for c in start_chunk..stop_chunk {
            on_chunk(c, run_one(c));
            merged += 1;
        }
        return merged;
    }
    let next = std::sync::atomic::AtomicU64::new(start_chunk);
    // Backpressure: each worker may run at most ~2 chunks ahead of the
    // merger. Without the bound, a cheap runner (the synthetic soak) fills
    // the channel with the whole campaign and RSS scales with `count`.
    let (tx, rx) = std::sync::mpsc::sync_channel::<(u64, Vec<Option<T>>)>(threads * 2);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let next = &next;
            let tx = tx.clone();
            let run_one = &run_one;
            scope.spawn(move || loop {
                let c = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if c >= stop_chunk {
                    break;
                }
                // A closed channel means the merger stopped early; drop the
                // chunk and exit.
                if tx.send((c, run_one(c))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        // Single merger: a reorder buffer holds chunks that finished ahead
        // of the cursor (in practice bounded by the worker count) and the
        // callback only ever sees the next chunk in sequence.
        let mut pending = BTreeMap::new();
        let mut want = start_chunk;
        while want < stop_chunk {
            let Ok((c, buf)) = rx.recv() else { break };
            pending.insert(c, buf);
            while let Some(buf) = pending.remove(&want) {
                on_chunk(want, buf);
                want += 1;
                merged += 1;
            }
        }
        drop(rx);
    });
    merged
}

// ---------------------------------------------------------------------
// Campaign driver
// ---------------------------------------------------------------------

/// Knobs for one campaign series.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// JSONL sidecar for checkpoint/resume; `None` disables checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Merged chunks between checkpoint lines (a final line is always
    /// written when the run stops, so resume-after-kill only loses work
    /// since the last cadence line).
    pub checkpoint_every_chunks: u64,
    /// Stop after merging this many chunks this invocation — simulates a
    /// mid-campaign kill for resume tests and bounds CI smoke runs.
    pub max_chunks: Option<u64>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            checkpoint: None,
            checkpoint_every_chunks: DEFAULT_CHECKPOINT_EVERY,
            max_chunks: None,
        }
    }
}

/// Result of one [`run_campaign`] invocation.
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// The series row for everything folded so far (all requested trials
    /// when `finished`, a prefix otherwise).
    pub report: SeriesReport,
    /// Whether every chunk of the campaign has been merged.
    pub finished: bool,
    /// The chunk cursor a checkpoint resumed from, when one was used.
    pub resumed_at_chunk: Option<u64>,
}

/// Runs a campaign of `count` trials, trial `i` as
/// `runner(trial_seed(seed_base, i))`, streaming each result into a
/// [`SeriesAccumulator`] with optional checkpoint/resume. The chunk size
/// is [`chunk_size_for`]`(count)`.
pub fn run_campaign<T, F>(
    seed_base: u64,
    count: u64,
    parameter: &str,
    value: f64,
    cfg: &CampaignConfig,
    runner: F,
) -> CampaignRun
where
    T: Foldable,
    F: Fn(u64) -> T + Sync,
{
    let chunk_size = chunk_size_for(count);
    let n_chunks = count.div_ceil(chunk_size);
    let header = CampaignHeader {
        seed: seed_base,
        count,
        chunk_size,
        parameter: parameter.to_string(),
        value,
    };
    let mut acc = SeriesAccumulator::new(count);
    let mut start_chunk = 0u64;
    let mut resumed_at_chunk = None;
    if let Some(path) = cfg.checkpoint.as_deref() {
        match load_checkpoint(path, &header) {
            Loaded::Resume(next, loaded) => {
                eprintln!(
                    "[campaign] {parameter}={value}: resuming at chunk {next}/{n_chunks} \
                     from {}",
                    path.display()
                );
                acc = *loaded;
                start_chunk = next;
                resumed_at_chunk = Some(next);
            }
            Loaded::Fresh => {}
            Loaded::Mismatch => {
                eprintln!(
                    "[campaign] {parameter}={value}: checkpoint {} belongs to a \
                     different campaign (seed/count/chunk-size/parameter); starting fresh",
                    path.display()
                );
                if let Err(err) = std::fs::write(path, b"") {
                    eprintln!(
                        "[campaign] warning: could not reset {}: {err}",
                        path.display()
                    );
                }
            }
        }
    }
    let cadence = cfg.checkpoint_every_chunks.max(1);
    let mut merged_this_run = 0u64;
    let merged = run_chunked(
        seed_base,
        count,
        chunk_size,
        start_chunk,
        cfg.max_chunks,
        &runner,
        |c, buf| {
            for slot in &buf {
                match slot {
                    Some(trial) => trial.fold_into(&mut acc),
                    None => acc.fold_panicked(),
                }
            }
            merged_this_run += 1;
            if merged_this_run.is_multiple_of(cadence) {
                if let Some(path) = cfg.checkpoint.as_deref() {
                    write_checkpoint(path, &header, c + 1, &acc);
                }
            }
        },
    );
    let next = start_chunk + merged;
    let finished = next >= n_chunks;
    // Always leave a line at the exact stop point (unless nothing ran and
    // the campaign was already complete), so an interrupted run resumes
    // without redoing merged chunks.
    if merged > 0 || start_chunk == 0 {
        if let Some(path) = cfg.checkpoint.as_deref() {
            write_checkpoint(path, &header, next, &acc);
        }
    }
    if !finished {
        eprintln!(
            "[campaign] {parameter}={value}: stopped after {merged} chunk(s); \
             next chunk {next}/{n_chunks}"
        );
    }
    CampaignRun {
        report: acc.report(parameter, value),
        finished,
        resumed_at_chunk,
    }
}

/// Sidecar path for one campaign series point.
pub fn checkpoint_path(dir: Option<&Path>, exp: &str, parameter: &str, value: f64) -> PathBuf {
    let dir = dir
        .map(Path::to_path_buf)
        .unwrap_or_else(|| crate::report::artefact_dir().join("campaigns"));
    dir.join(format!("{exp}_{parameter}_{value}.jsonl"))
}

/// Runs one sweep point the way every engine-driven experiment binary
/// does: `cli.trials` trials seeded from `seed_base` through
/// [`run_campaign`], with a checkpoint sidecar under `--campaign`, and
/// prices the row's wall-clock throughput.
pub fn run_point<T, F>(
    cli: &Cli,
    exp: &str,
    parameter: &str,
    value: f64,
    seed_base: u64,
    runner: F,
) -> SeriesReport
where
    T: Foldable,
    F: Fn(u64) -> T + Sync,
{
    let row_start = crate::wallclock::Stopwatch::start();
    let ccfg = if cli.campaign {
        CampaignConfig {
            checkpoint: Some(checkpoint_path(
                cli.checkpoint_dir.as_deref(),
                exp,
                parameter,
                value,
            )),
            max_chunks: cli.campaign_max_chunks,
            ..CampaignConfig::default()
        }
    } else {
        CampaignConfig::default()
    };
    run_campaign(seed_base, cli.trials, parameter, value, &ccfg, runner)
        .report
        .with_throughput(row_start.elapsed_s())
}

// ---------------------------------------------------------------------
// Checkpoint sidecar (JSONL, read and escaped through `ble_telemetry::json`)
// ---------------------------------------------------------------------

/// Identity of a campaign: a checkpoint line only resumes a campaign whose
/// header matches all of these (value compared by bit pattern).
#[derive(Debug, Clone, PartialEq)]
struct CampaignHeader {
    seed: u64,
    count: u64,
    chunk_size: u64,
    parameter: String,
    value: f64,
}

/// Sidecar format version (2 added the band sums).
const CHECKPOINT_VERSION: u64 = 2;

fn f64_bits_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn f64_from_bits_hex(s: &str) -> Option<f64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

fn hist_checkpoint_json(h: Option<&HistogramUs>) -> String {
    let Some(h) = h else {
        return "null".to_string();
    };
    let bounds: Vec<String> = h
        .bounds()
        .iter()
        .map(|b| format!("\"{}\"", f64_bits_hex(*b)))
        .collect();
    let counts: Vec<String> = h.bucket_counts().iter().map(u64::to_string).collect();
    format!(
        "{{\"bounds_bits\":[{}],\"counts\":[{}],\"count\":{},\"sum_bits\":\"{}\",\
         \"min_bits\":\"{}\",\"max_bits\":\"{}\"}}",
        bounds.join(","),
        counts.join(","),
        h.count(),
        f64_bits_hex(h.sum()),
        f64_bits_hex(h.min_value()),
        f64_bits_hex(h.max_value()),
    )
}

fn checkpoint_line(header: &CampaignHeader, next_chunk: u64, acc: &SeriesAccumulator) -> String {
    let raw: Vec<String> = acc.raw.iter().map(u32::to_string).collect();
    let phases: Vec<String> = acc
        .phase_profile
        .iter()
        .map(|p| {
            format!(
                "{{\"phase\":\"{}\",\"count\":{},\"sim_ns\":{},\"self_sim_ns\":{},\
                 \"wall_ns\":{},\"self_wall_ns\":{}}}",
                p.phase, p.count, p.sim_ns, p.self_sim_ns, p.wall_ns, p.self_wall_ns
            )
        })
        .collect();
    format!(
        "{{\"v\":{CHECKPOINT_VERSION},\"seed\":{},\"count\":{},\"chunk_size\":{},\
         \"parameter\":\"{}\",\"value_bits\":\"{}\",\"next_chunk\":{next_chunk},\
         \"acc\":{{\"requested\":{},\"completed\":{},\"panicked\":{},\
         \"unconfirmed\":{},\"downgrades\":{},\"events_n\":{},\"events_sum_bits\":\"{}\",\
         \"raw\":[{}],\"anchor\":{},\"lead\":{},\"phases\":[{}],\"band\":{}}}}}",
        header.seed,
        header.count,
        header.chunk_size,
        json::escaped(&header.parameter),
        f64_bits_hex(header.value),
        acc.requested,
        acc.completed,
        acc.panicked,
        acc.unconfirmed_effects,
        acc.telemetry_downgrades,
        acc.events_n,
        f64_bits_hex(acc.events_sum),
        raw.join(","),
        hist_checkpoint_json(acc.anchor_error.as_ref()),
        hist_checkpoint_json(acc.lead_time.as_ref()),
        phases.join(","),
        acc.band.map_or_else(
            || "null".to_string(),
            |b| format!(
                "{{\"tx_frames\":{},\"rx_starts\":{},\"collisions\":{}}}",
                b.tx_frames, b.scheduled_rx_starts, b.collisions
            )
        ),
    )
}

/// Appends one checkpoint line; failures warn on stderr but never bring the
/// campaign down (a checkpoint is an optimisation, not a result).
fn write_checkpoint(
    path: &Path,
    header: &CampaignHeader,
    next_chunk: u64,
    acc: &SeriesAccumulator,
) {
    let write = || -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let mut line = checkpoint_line(header, next_chunk, acc);
        line.push('\n');
        file.write_all(line.as_bytes())
    };
    if let Err(err) = write() {
        eprintln!(
            "[campaign] warning: could not write checkpoint {}: {err}",
            path.display()
        );
    }
}

enum Loaded {
    /// No usable sidecar: start from chunk 0.
    Fresh,
    /// Resume at this chunk cursor with this accumulator state (boxed so
    /// the no-checkpoint variants stay pointer-sized).
    Resume(u64, Box<SeriesAccumulator>),
    /// The sidecar exists and parses, but describes a different campaign.
    Mismatch,
}

/// Reads the sidecar and returns the **last** line whose header matches.
/// Torn or corrupt lines (a kill mid-append) are skipped — the previous
/// complete line still resumes the campaign.
fn load_checkpoint(path: &Path, header: &CampaignHeader) -> Loaded {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Loaded::Fresh;
    };
    let mut best: Option<(u64, SeriesAccumulator)> = None;
    let mut saw_any_valid = false;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Ok(obj @ Value::Obj(_)) = json::parse(line) else {
            continue;
        };
        saw_any_valid = true;
        if !header_matches(&obj, header) {
            continue;
        }
        let Some(next_chunk) = obj.get("next_chunk").and_then(Value::as_num) else {
            continue;
        };
        let Some(acc) = obj.get("acc").and_then(|v| acc_from_json(v, header)) else {
            continue;
        };
        best = Some((next_chunk, acc));
    }
    match best {
        Some((next, acc)) => Loaded::Resume(next, Box::new(acc)),
        None if saw_any_valid => Loaded::Mismatch,
        None => Loaded::Fresh,
    }
}

fn header_matches(obj: &Value, header: &CampaignHeader) -> bool {
    let num = |key| obj.get(key).and_then(Value::as_num::<u64>);
    let text = |key| obj.get(key).and_then(Value::as_str);
    num("v") == Some(CHECKPOINT_VERSION)
        && num("seed") == Some(header.seed)
        && num("count") == Some(header.count)
        && num("chunk_size") == Some(header.chunk_size)
        && text("parameter") == Some(header.parameter.as_str())
        && text("value_bits") == Some(f64_bits_hex(header.value).as_str())
}

/// An `f64` stored as its bit pattern under `key`.
fn f64_bits_at(obj: &Value, key: &str) -> Option<f64> {
    obj.get(key)?.as_str().and_then(f64_from_bits_hex)
}

fn hist_from_json(v: &Value) -> Option<Option<HistogramUs>> {
    if *v == Value::Null {
        return Some(None);
    }
    let bounds: Vec<f64> = v
        .get("bounds_bits")?
        .as_arr()?
        .iter()
        .map(|b| b.as_str().and_then(f64_from_bits_hex))
        .collect::<Option<_>>()?;
    let counts: Vec<u64> = v
        .get("counts")?
        .as_arr()?
        .iter()
        .map(Value::as_num)
        .collect::<Option<_>>()?;
    Some(Some(HistogramUs::from_parts(
        bounds,
        counts,
        v.get("count")?.as_num()?,
        f64_bits_at(v, "sum_bits")?,
        f64_bits_at(v, "min_bits")?,
        f64_bits_at(v, "max_bits")?,
    )?))
}

fn acc_from_json(v: &Value, header: &CampaignHeader) -> Option<SeriesAccumulator> {
    let num = |key| v.get(key).and_then(Value::as_num::<u64>);
    let requested = num("requested")?;
    if requested != header.count {
        return None;
    }
    let completed = num("completed")?;
    let raw: Vec<u32> = v
        .get("raw")?
        .as_arr()?
        .iter()
        .map(Value::as_num)
        .collect::<Option<_>>()?;
    if (raw.len() as u64) > completed {
        return None;
    }
    let mut phase_profile = Vec::new();
    for p in v.get("phases")?.as_arr()? {
        let num = |key| p.get(key).and_then(Value::as_num::<u64>);
        // Resolve the phase name back to its `&'static str`; an unknown
        // name means the sidecar came from an incompatible build.
        let kind = SpanKind::parse(p.get("phase")?.as_str()?)?;
        phase_profile.push(PhaseProfile {
            phase: kind.as_str(),
            count: num("count")?,
            sim_ns: num("sim_ns")?,
            self_sim_ns: num("self_sim_ns")?,
            wall_ns: num("wall_ns")?,
            self_wall_ns: num("self_wall_ns")?,
        });
    }
    let band = match v.get("band")? {
        Value::Null => None,
        b => {
            let num = |key| b.get(key).and_then(Value::as_num::<u64>);
            Some(BandSums {
                tx_frames: num("tx_frames")?,
                scheduled_rx_starts: num("rx_starts")?,
                collisions: num("collisions")?,
            })
        }
    };
    Some(SeriesAccumulator {
        requested,
        completed,
        panicked: num("panicked")?,
        raw,
        unconfirmed_effects: num("unconfirmed")?,
        telemetry_downgrades: num("downgrades")?,
        anchor_error: hist_from_json(v.get("anchor")?)?,
        lead_time: hist_from_json(v.get("lead")?)?,
        events_sum: f64_bits_at(v, "events_sum_bits")?,
        events_n: num("events_n")?,
        phase_profile,
        band,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::TrialMetrics;
    use crate::trial::DenseTrial;

    /// Cheap deterministic synthetic outcome: a splitmix64-style scramble
    /// of the trial seed decides success, attempts and a metric block.
    fn synth_outcome(seed: u64) -> TrialOutcome {
        let mut x = seed;
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        let attempts = (!x.is_multiple_of(16)).then_some(u32::try_from(x % 50).unwrap_or(0) + 1);
        let mut lead = HistogramUs::default();
        lead.record((x % 200) as f64);
        let metrics = TrialMetrics {
            events_total: x % 1000,
            events_per_sec: (x % 1000) as f64 / 3.0,
            lead_time: Some(lead),
            ..TrialMetrics::default()
        };
        TrialOutcome {
            attempts,
            sim_seconds: (x % 500) as f64 / 10.0,
            effect_observed: attempts.is_some(),
            metrics: Some(metrics),
            telemetry_downgraded: false,
        }
    }

    #[test]
    fn engine_merges_chunks_in_order_and_respects_max_chunks() {
        let mut seen = Vec::new();
        let merged = run_chunked(11, 103, 10, 0, None, &synth_outcome, |c, buf| {
            seen.push((c, buf.len()));
        });
        assert_eq!(merged, 11);
        let chunks: Vec<u64> = seen.iter().map(|(c, _)| *c).collect();
        assert_eq!(chunks, (0..11).collect::<Vec<_>>(), "ascending chunk order");
        assert_eq!(seen.last(), Some(&(10, 3)), "tail chunk is short");
        // An early stop merges exactly `max_chunks` chunks...
        let merged = run_chunked(11, 103, 10, 0, Some(4), &synth_outcome, |_, _| {});
        assert_eq!(merged, 4);
        // ...and a resume picks up the remainder.
        let merged = run_chunked(11, 103, 10, 4, None, &synth_outcome, |_, _| {});
        assert_eq!(merged, 7);
        // A fully-consumed campaign runs nothing.
        assert_eq!(
            run_chunked(11, 103, 10, 11, None, &synth_outcome, |_, _| {}),
            0
        );
    }

    #[test]
    fn accumulator_report_matches_the_in_memory_path() {
        let outcomes: Vec<TrialOutcome> =
            (0..57).map(|i| synth_outcome(trial_seed(77, i))).collect();
        let expected = SeriesReport::from_outcomes("p", 4.0, &outcomes);
        let mut acc = SeriesAccumulator::new(57);
        for o in &outcomes {
            acc.fold(o);
        }
        let got = acc.report("p", 4.0);
        assert_eq!(
            crate::report::rows_to_json(&[got]),
            crate::report::rows_to_json(&[expected])
        );
    }

    #[test]
    fn campaign_equals_in_memory_fold_regardless_of_chunk_size() {
        let outcomes: Vec<TrialOutcome> =
            (0..101).map(|i| synth_outcome(trial_seed(5, i))).collect();
        let expected =
            crate::report::rows_to_json(&[SeriesReport::from_outcomes("p", 1.0, &outcomes)]);
        for chunk_size in [1u64, 7, 64, 200] {
            let mut acc = SeriesAccumulator::new(101);
            run_chunked(5, 101, chunk_size, 0, None, &synth_outcome, |_, buf| {
                for o in buf.iter().flatten() {
                    acc.fold(o);
                }
            });
            assert_eq!(
                crate::report::rows_to_json(&[acc.report("p", 1.0)]),
                expected,
                "chunk_size {chunk_size}"
            );
        }
        let run = run_campaign(5, 101, "p", 1.0, &CampaignConfig::default(), synth_outcome);
        assert!(run.finished);
        assert_eq!(crate::report::rows_to_json(&[run.report]), expected);
    }

    #[test]
    fn f64_bit_hex_round_trips_exactly() {
        for v in [0.0, -0.0, 1.5, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300] {
            let enc = f64_bits_hex(v);
            assert_eq!(f64_from_bits_hex(&enc).map(f64::to_bits), Some(v.to_bits()));
        }
        assert_eq!(f64_from_bits_hex("xyz"), None);
        assert_eq!(f64_from_bits_hex("00"), None);
    }

    #[test]
    fn checkpoint_line_round_trips_the_accumulator() {
        let mut acc = SeriesAccumulator::new(40);
        for i in 0..30 {
            acc.fold(&synth_outcome(trial_seed(9, i)));
        }
        acc.fold_panicked();
        acc.fold_band(&BandSums {
            tx_frames: 900,
            scheduled_rx_starts: 1_200,
            collisions: 7,
        });
        // A phase row exercises the SpanKind name round-trip.
        merge_phase_profile(
            &mut acc.phase_profile,
            &[PhaseProfile {
                phase: "trial-sync",
                count: 3,
                sim_ns: 100,
                self_sim_ns: 90,
                wall_ns: 5,
                self_wall_ns: 4,
            }],
        );
        // A parameter name with a quote, a backslash and a control
        // character exercises the shared escaper on the write side.
        let header = CampaignHeader {
            seed: 9,
            count: 40,
            chunk_size: 8,
            parameter: "p \"q\" \\ \u{1}".into(),
            value: 2.5,
        };
        let line = checkpoint_line(&header, 4, &acc);
        assert!(!line.contains('\u{1}'), "control characters are escaped");
        let obj = json::parse(&line).expect("checkpoint line parses");
        assert!(header_matches(&obj, &header));
        assert_eq!(obj.get("next_chunk").unwrap().as_num::<u64>(), Some(4));
        let decoded = acc_from_json(obj.get("acc").unwrap(), &header).unwrap();
        assert_eq!(decoded, acc);
    }

    fn sample_checkpoint_line() -> (CampaignHeader, String) {
        let header = CampaignHeader {
            seed: 3,
            count: 20,
            chunk_size: 5,
            parameter: "p".into(),
            value: 1.0,
        };
        let mut acc = SeriesAccumulator::new(20);
        for i in 0..4 {
            acc.fold(&synth_outcome(trial_seed(3, i)));
        }
        let line = checkpoint_line(&header, 1, &acc);
        (header, line)
    }

    #[test]
    fn deeply_nested_sidecar_line_is_skipped_not_fatal() {
        let dir = std::env::temp_dir().join("bench-campaign-test-nesting");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("nesting.jsonl");
        let (header, _) = sample_checkpoint_line();
        std::fs::write(&path, "[".repeat(100_000)).unwrap();
        assert!(matches!(load_checkpoint(&path, &header), Loaded::Fresh));
        // After a good line the hostile one is skipped like a torn tail.
        std::fs::remove_file(&path).ok();
        write_checkpoint(&path, &header, 1, &SeriesAccumulator::new(20));
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str(&"[".repeat(100_000));
        std::fs::write(&path, text).unwrap();
        assert!(matches!(
            load_checkpoint(&path, &header),
            Loaded::Resume(1, _)
        ));
        std::fs::remove_file(&path).ok();
    }

    proptest::proptest! {
        #[test]
        fn checkpoint_loading_survives_arbitrary_bytes(
            bytes in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..256),
        ) {
            let dir = std::env::temp_dir().join("bench-campaign-test-hostile");
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("hostile.jsonl");
            let (header, line) = sample_checkpoint_line();
            // The bytes as a whole sidecar, then spliced into a valid line
            // at a byte-derived offset (the line is ASCII, so any cut is a
            // char boundary).
            let cut = bytes.first().map_or(0, |&b| usize::from(b) * line.len() / 256);
            let mut spliced = line.as_bytes()[..cut].to_vec();
            spliced.extend_from_slice(&bytes);
            spliced.extend_from_slice(&line.as_bytes()[cut..]);
            for text in [&bytes, &spliced] {
                std::fs::write(&path, text).unwrap();
                let _ = load_checkpoint(&path, &header);
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn every_truncation_of_a_checkpoint_line_is_rejected() {
        let (header, line) = sample_checkpoint_line();
        assert!(json::parse(&line).is_ok());
        let dir = std::env::temp_dir().join("bench-campaign-test-truncations");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("truncated.jsonl");
        for cut in 0..line.len() {
            assert!(json::parse(&line[..cut]).is_err(), "prefix {cut} parsed");
        }
        // Sampled through the file path too: a torn line never resumes.
        for cut in (0..line.len()).step_by(37) {
            std::fs::write(&path, &line[..cut]).unwrap();
            assert!(matches!(load_checkpoint(&path, &header), Loaded::Fresh));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_checkpoint_takes_the_last_line_and_skips_torn_tails() {
        let dir = std::env::temp_dir().join("bench-campaign-test-torn");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sidecar.jsonl");
        let header = CampaignHeader {
            seed: 3,
            count: 20,
            chunk_size: 5,
            parameter: "p".into(),
            value: 1.0,
        };
        let mut acc = SeriesAccumulator::new(20);
        write_checkpoint(&path, &header, 1, &acc);
        acc.fold(&synth_outcome(3));
        write_checkpoint(&path, &header, 2, &acc);
        // Simulate a kill mid-append: a torn final line.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(b"{\"v\":2,\"seed\":3,\"count\":20,\"chu")
                .unwrap();
        }
        match load_checkpoint(&path, &header) {
            Loaded::Resume(next, loaded) => {
                assert_eq!(next, 2);
                assert_eq!(*loaded, acc);
            }
            _ => panic!("expected resume from the last complete line"),
        }
        // A different campaign must refuse the sidecar.
        let other = CampaignHeader {
            seed: 4,
            ..header.clone()
        };
        assert!(matches!(load_checkpoint(&path, &other), Loaded::Mismatch));
        // A missing file is a fresh start, not an error.
        assert!(matches!(
            load_checkpoint(&dir.join("absent.jsonl"), &header),
            Loaded::Fresh
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn interrupted_campaign_resumes_without_rerunning_chunks() {
        let dir = std::env::temp_dir().join("bench-campaign-test-resume");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resume.jsonl");
        std::fs::remove_file(&path).ok();
        let uninterrupted =
            run_campaign(21, 95, "p", 3.0, &CampaignConfig::default(), synth_outcome);
        assert!(uninterrupted.finished);
        // First invocation stops after 3 of 48 chunks.
        let n_chunks = 95u64.div_ceil(chunk_size_for(95));
        assert_eq!(n_chunks, 48);
        let mut cfg = CampaignConfig {
            checkpoint: Some(path.clone()),
            checkpoint_every_chunks: 2,
            max_chunks: Some(3),
        };
        let first = run_campaign(21, 95, "p", 3.0, &cfg, synth_outcome);
        assert!(!first.finished);
        assert_eq!(first.resumed_at_chunk, None);
        assert_eq!(first.report.trials, 95, "denominator stays requested");
        // Second invocation resumes at chunk 3 and finishes.
        cfg.max_chunks = None;
        let resumed = run_campaign(21, 95, "p", 3.0, &cfg, synth_outcome);
        assert!(resumed.finished);
        assert_eq!(resumed.resumed_at_chunk, Some(3));
        assert_eq!(
            crate::report::rows_to_json(&[resumed.report]),
            crate::report::rows_to_json(&[uninterrupted.report]),
            "resumed campaign must be byte-identical to an uninterrupted one"
        );
        // A third invocation sees the completed checkpoint and runs nothing.
        let done = run_campaign(21, 95, "p", 3.0, &cfg, synth_outcome);
        assert!(done.finished);
        assert_eq!(done.resumed_at_chunk, Some(n_chunks));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mismatched_sidecar_starts_fresh_and_resets_the_file() {
        let dir = std::env::temp_dir().join("bench-campaign-test-mismatch");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mismatch.jsonl");
        std::fs::remove_file(&path).ok();
        let cfg = CampaignConfig {
            checkpoint: Some(path.clone()),
            ..CampaignConfig::default()
        };
        let first = run_campaign(31, 40, "p", 1.0, &cfg, synth_outcome);
        assert!(first.finished);
        // Same sidecar, different seed: must not resume, must still finish.
        let second = run_campaign(32, 40, "p", 1.0, &cfg, synth_outcome);
        assert!(second.finished);
        assert_eq!(second.resumed_at_chunk, None);
        assert_eq!(second.report.trials, 40);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn panicking_trials_are_first_class_campaign_data() {
        let panicky = |seed: u64| -> TrialOutcome {
            if seed.is_multiple_of(3) {
                panic!("synthetic trial failure");
            }
            synth_outcome(seed)
        };
        // Silence the default panic hook for the duration: the panics here
        // are the fixture, not noise worth printing backtraces for.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let run = run_campaign(51, 30, "p", 1.0, &CampaignConfig::default(), panicky);
        std::panic::set_hook(prev);
        assert!(run.finished);
        let expected_panics = (0..30)
            .filter(|&i| trial_seed(51, i).is_multiple_of(3))
            .count() as u64;
        assert!(expected_panics > 0, "fixture must actually panic");
        assert_eq!(run.report.panicked_trials, expected_panics);
        assert_eq!(run.report.trials, 30, "denominator is requested trials");
        assert_eq!(
            run.report.succeeded as usize,
            run.report.raw.len(),
            "panicked trials never contribute attempts"
        );
    }

    /// An exp6-shaped synthetic trial: the outcome plus band counters.
    fn synth_dense(seed: u64) -> DenseTrial {
        DenseTrial {
            outcome: synth_outcome(seed),
            band: BandSums {
                tx_frames: seed % 1_000 + 1,
                scheduled_rx_starts: seed % 777,
                collisions: seed % 13,
            },
        }
    }

    #[test]
    fn banded_campaign_killed_and_resumed_matches_an_uninterrupted_row() {
        let dir = std::env::temp_dir().join("bench-campaign-test-banded");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("banded.jsonl");
        std::fs::remove_file(&path).ok();
        let uninterrupted = run_campaign(
            61,
            90,
            "background_pairs",
            8.0,
            &CampaignConfig::default(),
            synth_dense,
        );
        let names: Vec<&str> = uninterrupted
            .report
            .extras
            .iter()
            .map(|(name, _)| name.as_str())
            .collect();
        assert_eq!(
            names,
            ["co_channel_collision_rate", "mean_scheduled_rx_starts"]
        );
        let mut cfg = CampaignConfig {
            checkpoint: Some(path.clone()),
            checkpoint_every_chunks: 1,
            max_chunks: Some(5),
        };
        let first = run_campaign(61, 90, "background_pairs", 8.0, &cfg, synth_dense);
        assert!(!first.finished, "the kill must land mid-campaign");
        cfg.max_chunks = None;
        let resumed = run_campaign(61, 90, "background_pairs", 8.0, &cfg, synth_dense);
        assert_eq!(resumed.resumed_at_chunk, Some(5));
        assert_eq!(
            crate::report::rows_to_json(&[resumed.report]),
            crate::report::rows_to_json(&[uninterrupted.report]),
            "band sums must resume bit-exactly"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chunk_size_follows_the_trial_count() {
        assert_eq!(chunk_size_for(0), 1);
        assert_eq!(chunk_size_for(25), 1, "a default run fans out per trial");
        assert_eq!(chunk_size_for(64), 1);
        assert_eq!(chunk_size_for(65), 2);
        assert_eq!(chunk_size_for(1_000_000), MAX_CHUNK_SIZE);
    }

    #[test]
    fn bench_threads_clamps_to_the_unit_count() {
        assert_eq!(bench_threads(1), 1);
        assert!(bench_threads(u64::MAX) >= 1);
    }

    #[test]
    fn checkpoint_paths_are_stable_per_point() {
        let p = checkpoint_path(Some(Path::new("/tmp/cp")), "exp1", "hop_interval", 25.0);
        assert_eq!(p, Path::new("/tmp/cp/exp1_hop_interval_25.jsonl"));
        let default = checkpoint_path(None, "exp1", "hop_interval", 25.0);
        assert!(default.ends_with("campaigns/exp1_hop_interval_25.jsonl"));
    }
}
