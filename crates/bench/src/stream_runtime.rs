//! The one stream runtime behind `stream-analyze` and `stream-serve`:
//! one-pass, bounded-memory analysis of Common Log Format records read
//! from a file, from stdin, or off the network.
//!
//! Where `repro` materializes whole synthetic weeks and runs the batch
//! FULL-Web pipeline, this runtime pulls records one at a time,
//! sessionizes them through a TTL map, and keeps only fixed-memory
//! online estimators — Welford moments, top-k Hill tails, and
//! per-window variance-time / Poisson-battery analyses.
//!
//! ```text
//! stream-analyze [FILE|-] [--listen HOST:PORT] [--addr-file PATH]
//!                [--base-epoch SECS] [--threshold SECS] [--window SECS]
//!                [--tail-k N] [--lenient] [--strict] [--quiet] [--json]
//!                [--report PATH] [--snapshot-every N]
//!                [--telemetry-addr HOST:PORT] [--verify-batch]
//!                [--events PATH] [--alert-on info|warn|critical]
//!                [--seasonal-period WINDOWS]
//!                [--checkpoint PATH] [--checkpoint-every N]
//!                [--checkpoint-every-secs S] [--resume PATH]
//!                [--inject-faults SPEC] [--max-open-sessions N]
//!                [--max-restores N] [--max-retries N]
//!                [--profile] [--profile-sample N] [--profile-out PATH]
//!                [--profile-exemplars PATH]
//!                [--diagnostics] [--truth-alpha A] [--truth-h H]
//!                [--telemetry-history] [--telemetry-interval-ms MS]
//!                [--slo] [--slo-file PATH]
//!                [--governor-sessions N] [--governor-queue-bytes N]
//!                [--governor-memory-mb MB] [--watchdog-stall-secs S]
//!                [--reorder-window SECS] [--queue-capacity N]
//!                [--max-connections N] [--max-sources N]
//!                [--exit-after-sources N] [--stall-grace-ms MS]
//!                [--max-line-bytes N] [--batch-records N]
//! stream-serve   [same flags; --listen defaults to 127.0.0.1:0]
//! ```
//!
//! ## File or wire
//!
//! The source is chosen once, when it is built. `FILE` (default `-`,
//! stdin) is read in order. `--listen HOST:PORT` instead binds a TCP
//! listener, accepts concurrent log sources — the newline-delimited CLF
//! line protocol and HTTP `POST /ingest` batches — and merges them into
//! one time-ordered stream by per-source watermark (DESIGN.md §14).
//! Both feed the same `StreamAnalyzer` under the same crash-safe
//! supervisor. `stream-serve` is this runtime with `--listen
//! 127.0.0.1:0` as the default and `"tool": "stream-serve"` in its
//! reports. `FILE` together with `--listen`, a wire-only flag (the last
//! eight above, and `--addr-file`) without it, and `--verify-batch` on
//! the wire are usage errors.
//!
//! The source decides what differs:
//!
//! - **Parsing.** A file is strict unless `--lenient`: the first
//!   malformed line aborts the run. The wire is lenient unless
//!   `--strict` — one peer's bad line must not kill a shared service;
//!   under `--strict` a connection's first malformed line closes that
//!   connection (counted, with a warning). Lenient runs skip and count
//!   malformed lines.
//! - **Shutdown.** SIGTERM/SIGINT stop a file at the next record
//!   boundary. On the wire the hub stops admitting (late arrivals are
//!   counted as shutdown drops) and buffered records flow through the
//!   engine. Either way the final checkpoint and run report are written
//!   and the process exits 0.
//! - **Watchdog.** `--watchdog-stall-secs S` publishes a `Critical`
//!   watchdog event after S seconds without engine progress. On the
//!   wire only records buffered in the hub count: an idle wire is not a
//!   stall.
//! - **Report.** A wire run's `config` adds `reorder_window`,
//!   `queue_capacity`, and an `ingest` block of hub counters.
//!
//! On the wire the bound address always prints to stderr, and
//! `--addr-file PATH` writes it to a file so scripted clients can find
//! the port; nothing else runs between the bind and that write. Every
//! shed is counted, nothing is dropped silently: oversized lines, torn
//! final lines, late records outside the `--reorder-window`, resume
//! duplicates below the admit floor — each has its own `ingest/*`
//! counter on `/metrics`, next to per-source queue-depth and
//! watermark-lag gauges. The merged stream ends after
//! `--exit-after-sources N` sources have connected and all of them
//! closed, or never: a daemon without that flag runs until signalled.
//!
//! ## Drift alarms
//!
//! `--snapshot-every N` rewrites the `--report` file with a partial
//! [`obs::RunReport`] (including the mid-stream summary) every N
//! records; `--telemetry-addr` serves the same live state over HTTP
//! (including `/events?since=` for the drift ring). The drift
//! observatory (DESIGN.md §10) watches every closed window; `--events
//! PATH` appends each alarm as one JSON line, and `--alert-on SEV` turns
//! alarms into an exit status: **3** when any event at or above SEV
//! fired. `--seasonal-period N` overrides the observatory's automatic
//! 24 h differencing lag on the rate channel (`0` disables differencing
//! — more sensitive, only sound for streams known to have no daily
//! cycle). `--verify-batch` re-reads `FILE` through the batch pipeline
//! (`parse_log` → `sessionize` → `hill_plot` / `variance_time` /
//! `poisson_arrival_test`) and exits 1 if the streaming results drift
//! outside the DESIGN.md §9 tolerance bands — counts must match
//! exactly, estimators within tolerance.
//!
//! ## Crash safety (DESIGN.md §11)
//!
//! Transient I/O errors are retried with capped exponential backoff and
//! engine panics restore the last checkpoint. `--checkpoint PATH` writes
//! a versioned, checksummed snapshot of the full engine state every
//! `--checkpoint-every N` records (default 100000) and/or
//! `--checkpoint-every-secs S`; `--resume PATH` restarts from such a
//! snapshot and reproduces the uninterrupted run. A file is re-sought;
//! the wire cannot be, so the checkpoint's sessionizer watermark becomes
//! the hub's admit floor instead: senders replay from the start of their
//! logs and every record at or below the watermark is counted as a
//! duplicate and dropped. A corrupted or truncated snapshot is refused
//! with exit 1. `--inject-faults SPEC` (e.g.
//! `seed=7,transient=0.01,crash=5000`) wraps the source in the
//! deterministic fault injector for recovery drills.
//! `--max-open-sessions N` bounds sessionizer memory by shedding (and
//! counting) the oldest open sessions.
//!
//! ## Flight recorder (DESIGN.md §12)
//!
//! `--profile` records 1-in-N sampled per-stage latency histograms
//! (`--profile-sample N`, default 32), slowest-record trace exemplars,
//! and per-window stage-timing events (info severity: they count toward
//! `--alert-on info`), and prints a per-stage attribution table after
//! the summary. Before anything else, the runtime measures the
//! recorder's own cost on synthetic records (paired on/off runs) and
//! publishes it as the `profile/overhead_pct` gauge and the
//! `profile_overhead_pct` report field — the budget is ≤ 3%.
//! `--profile-out PATH` writes folded flamegraph stacks,
//! `--profile-exemplars PATH` the exemplars as schema-versioned JSONL;
//! either implies `--profile`. The snapshot is served at `/profile` and
//! embedded in the report as `config.profile`. Profiler state resets on
//! `--resume`: its histograms are wall-clock observations of *this*
//! process.
//!
//! ## Estimator diagnostics (DESIGN.md §13)
//!
//! `--diagnostics` attaches confidence evidence to every per-window
//! estimate: a Hill-plot stability scan over the session-bytes tail, the
//! variance-time regression's CI and R², Welford CIs on the per-window
//! means, and a cross-estimator verdict on `2H = 3 − α`. It prints as a
//! per-window table, is embedded in the report as the `diagnostics`
//! block, is served at `/diagnostics`, and surfaces on `/metrics` as the
//! `estimator_confidence/*` gauges. Disagreement emits a warn-severity
//! `estimator_disagreement` event, an unjudgeable window an info
//! `low_confidence` event. `--truth-alpha A` / `--truth-h H` (each
//! implies `--diagnostics`) declare a planted ground truth; exit **5**
//! means the final diagnosable window's CI failed to cover it.
//!
//! ## Telemetry history, SLOs and overload (DESIGN.md §15, §16)
//!
//! `--telemetry-history` samples the metrics registry every
//! `--telemetry-interval-ms MS` (default 1000) into the fixed-memory
//! time-series store, served at `/timeseries?metric=&since=&step=`.
//! `--slo` also evaluates burn-rate objectives from `slo.toml`
//! (`--slo-file PATH` overrides; either implies the sampler), publishes
//! `slo/*` events (which count toward `--alert-on`), prints a
//! deep-health verdict after the summary and embeds it in the report;
//! `/healthz?deep=1` serves it live. Any `--governor-*` budget installs
//! the process pressure governor: under Yellow the engine samples its
//! per-record estimators 1-in-N (counted, with honestly wider CIs) and
//! tightens the session TTL; under Red it also refuses records that
//! would open new sessions and forces a checkpoint, and the hub sheds
//! low-priority batches. The governor stage rides in the checkpoint.
//!
//! ## Exit codes
//!
//! 0 clean; 1 runtime error; 2 usage (including bad flag values);
//! 3 alarms at or above `--alert-on`; 5 planted truth not covered;
//! 4 complete but degraded (recovered or resumed *and* shed sessions).
//! 3 takes precedence over 5, which takes precedence over 4.

use std::fmt::Display;
use std::fs::File;
use std::io::{self, BufReader, Seek, SeekFrom};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::Duration;

use serde::Serialize;
use webpuzzle_core::PoissonVerdict;
use webpuzzle_ingest as ingest;
use webpuzzle_obs as obs;
use webpuzzle_stream::{
    Checkpoint, ClfSource, FaultSource, FaultSpec, RecoverableSource, Source, SourcePosition,
    StreamAnalyzer, StreamConfig, StreamSummary, Supervisor, SupervisorConfig, SupervisorReport,
    TailSnapshot, WindowConfig,
};
use webpuzzle_weblog::{LogRecord, MalformedKind, DEFAULT_SESSION_THRESHOLD};

use crate::HistoryOptions;

/// 2004-01-12 00:00:00 UTC, the paper's WVU log start (genlog default).
const DEFAULT_BASE_EPOCH: i64 = 1_073_865_600;

const USAGE: &str = "[FILE|-] [--listen HOST:PORT] [--addr-file PATH] \
     [--base-epoch SECS] [--threshold SECS] [--window SECS] [--tail-k N] \
     [--lenient] [--strict] [--quiet] [--json] [--report PATH] [--snapshot-every N] \
     [--telemetry-addr HOST:PORT] [--verify-batch] [--events PATH] \
     [--alert-on info|warn|critical] [--seasonal-period WINDOWS] \
     [--checkpoint PATH] [--checkpoint-every N] [--checkpoint-every-secs S] \
     [--resume PATH] [--inject-faults SPEC] [--max-open-sessions N] \
     [--max-restores N] [--max-retries N] [--profile] [--profile-sample N] \
     [--profile-out PATH] [--profile-exemplars PATH] [--diagnostics] \
     [--truth-alpha A] [--truth-h H] [--telemetry-history] \
     [--telemetry-interval-ms MS] [--slo] [--slo-file PATH] \
     [--governor-sessions N] [--governor-queue-bytes N] [--governor-memory-mb MB] \
     [--watchdog-stall-secs S] [--reorder-window SECS] [--queue-capacity N] \
     [--max-connections N] [--max-sources N] [--exit-after-sources N] \
     [--stall-grace-ms MS] [--max-line-bytes N] [--batch-records N]";

/// Flags that only mean something with `--listen`.
const WIRE_ONLY: [&str; 9] = [
    "--addr-file",
    "--reorder-window",
    "--queue-capacity",
    "--max-connections",
    "--max-sources",
    "--exit-after-sources",
    "--stall-grace-ms",
    "--max-line-bytes",
    "--batch-records",
];

static QUIET: AtomicBool = AtomicBool::new(false);

macro_rules! say {
    ($($arg:tt)*) => {
        if !QUIET.load(Ordering::Relaxed) {
            println!($($arg)*);
        }
    };
}

mod verify;

/// Print `tool: message` to stderr and exit with `code`.
macro_rules! fail {
    ($tool:expr, $code:expr, $($arg:tt)*) => {{
        eprintln!("{}: {}", $tool, format_args!($($arg)*));
        std::process::exit($code)
    }};
}

/// A usage error: the reason, the usage line, exit 2.
fn usage(tool: &str, msg: impl Display) -> ! {
    fail!(tool, 2, "{msg}\nusage: {tool} {USAGE}")
}

struct Args {
    input: Option<String>,
    listen: Option<String>,
    addr_file: Option<PathBuf>,
    /// Wire merge settings; `admit_floor` is set from `--resume`.
    hub: ingest::HubConfig,
    /// Wire connection settings; `base_epoch` and `lenient` are set
    /// from the run-wide values when the listener binds.
    conn: ingest::ConnConfig,
    max_connections: usize,
    base_epoch: i64,
    threshold: f64,
    window_len: f64,
    tail_k: usize,
    lenient: bool,
    quiet: bool,
    json: bool,
    report_path: PathBuf,
    snapshot_every: u64,
    telemetry_addr: Option<String>,
    verify_batch: bool,
    events_path: Option<PathBuf>,
    alert_on: Option<obs::events::Severity>,
    seasonal_period: Option<u64>,
    checkpoint: Option<PathBuf>,
    checkpoint_every: u64,
    checkpoint_every_secs: u64,
    resume: Option<PathBuf>,
    inject_faults: FaultSpec,
    max_open_sessions: usize,
    max_restores: u32,
    max_retries: u32,
    profile: bool,
    profile_sample: u64,
    profile_out: Option<PathBuf>,
    profile_exemplars: Option<PathBuf>,
    diagnostics: bool,
    truth_alpha: Option<f64>,
    truth_h: Option<f64>,
    history: HistoryOptions,
    governor: obs::governor::GovernorConfig,
    watchdog_stall_secs: u64,
}

/// The command-line tokens still to parse, and the tool name usage
/// errors are reported under.
struct Parser {
    tool: &'static str,
    rest: std::vec::IntoIter<String>,
}

impl Parser {
    /// The next token as `flag`'s value, through `parse`; a missing or
    /// unparsable value is a usage error.
    fn value_with<T, E: Display>(
        &mut self,
        flag: &str,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> T {
        let tool = self.tool;
        let raw = self
            .rest
            .next()
            .unwrap_or_else(|| usage(tool, format_args!("{flag} needs a value")));
        parse(&raw).unwrap_or_else(|e| usage(tool, format_args!("bad {flag} value {raw:?}: {e}")))
    }

    fn value<T: std::str::FromStr>(&mut self, flag: &str) -> T
    where
        T::Err: Display,
    {
        self.value_with(flag, str::parse)
    }
}

fn parse_args(tool: &'static str, default_listen: Option<&str>, argv: Vec<String>) -> Args {
    let mut a = Args {
        input: None,
        listen: default_listen.map(str::to_string),
        addr_file: None,
        hub: ingest::HubConfig::default(),
        conn: ingest::ConnConfig::default(),
        max_connections: 64,
        base_epoch: DEFAULT_BASE_EPOCH,
        threshold: DEFAULT_SESSION_THRESHOLD,
        window_len: WindowConfig::default().window_len,
        tail_k: StreamConfig::default().tail_k,
        lenient: false,
        quiet: false,
        json: false,
        report_path: PathBuf::from("report.json"),
        snapshot_every: 0,
        telemetry_addr: None,
        verify_batch: false,
        events_path: None,
        alert_on: None,
        seasonal_period: None,
        checkpoint: None,
        checkpoint_every: 0,
        checkpoint_every_secs: 0,
        resume: None,
        inject_faults: FaultSpec::default(),
        max_open_sessions: 0,
        max_restores: 3,
        max_retries: 5,
        profile: false,
        profile_sample: obs::profile::DEFAULT_SAMPLE_EVERY,
        profile_out: None,
        profile_exemplars: None,
        diagnostics: false,
        truth_alpha: None,
        truth_h: None,
        history: HistoryOptions {
            enabled: false,
            interval_ms: 1_000,
            slo: false,
            slo_file: PathBuf::from("slo.toml"),
        },
        governor: obs::governor::GovernorConfig::default(),
        watchdog_stall_secs: 0,
    };
    let mut lenient = None;
    let mut wire_flag = None;
    let mut p = Parser {
        tool,
        rest: argv.into_iter(),
    };
    while let Some(flag) = p.rest.next() {
        let f = flag.as_str();
        match f {
            "--listen" => a.listen = Some(p.value(f)),
            "--addr-file" => a.addr_file = Some(p.value(f)),
            "--base-epoch" => a.base_epoch = p.value(f),
            "--threshold" => a.threshold = p.value(f),
            "--window" => a.window_len = p.value(f),
            "--tail-k" => a.tail_k = p.value(f),
            "--lenient" => lenient = Some(true),
            "--strict" => lenient = Some(false),
            "--quiet" => a.quiet = true,
            "--json" => a.json = true,
            "--report" => a.report_path = p.value(f),
            "--snapshot-every" => a.snapshot_every = p.value(f),
            "--telemetry-addr" => a.telemetry_addr = Some(p.value(f)),
            "--verify-batch" => a.verify_batch = true,
            "--events" => a.events_path = Some(p.value(f)),
            "--alert-on" => {
                a.alert_on = Some(p.value_with(f, |s| {
                    obs::events::Severity::parse(s).ok_or("expected info|warn|critical")
                }))
            }
            "--seasonal-period" => a.seasonal_period = Some(p.value(f)),
            "--checkpoint" => a.checkpoint = Some(p.value(f)),
            "--checkpoint-every" => a.checkpoint_every = p.value(f),
            "--checkpoint-every-secs" => a.checkpoint_every_secs = p.value(f),
            "--resume" => a.resume = Some(p.value(f)),
            "--inject-faults" => a.inject_faults = p.value_with(f, FaultSpec::parse),
            "--max-open-sessions" => a.max_open_sessions = p.value(f),
            "--max-restores" => a.max_restores = p.value(f),
            "--max-retries" => a.max_retries = p.value(f),
            "--profile" => a.profile = true,
            "--profile-sample" => {
                a.profile_sample = p.value::<u64>(f).max(1);
                a.profile = true;
            }
            "--profile-out" => {
                a.profile_out = Some(p.value(f));
                a.profile = true;
            }
            "--profile-exemplars" => {
                a.profile_exemplars = Some(p.value(f));
                a.profile = true;
            }
            "--diagnostics" => a.diagnostics = true,
            "--truth-alpha" => {
                a.truth_alpha = Some(p.value(f));
                a.diagnostics = true;
            }
            "--truth-h" => {
                a.truth_h = Some(p.value(f));
                a.diagnostics = true;
            }
            "--telemetry-history" => a.history.enabled = true,
            "--telemetry-interval-ms" => {
                a.history.interval_ms = p.value::<u64>(f).max(1);
                a.history.enabled = true;
            }
            "--slo" => a.history.slo = true,
            "--slo-file" => {
                a.history.slo_file = p.value(f);
                a.history.slo = true;
            }
            "--governor-sessions" => a.governor.session_budget = p.value(f),
            "--governor-queue-bytes" => a.governor.queue_bytes_budget = p.value(f),
            "--governor-memory-mb" => {
                a.governor.memory_budget_bytes = p.value::<u64>(f).saturating_mul(1_000_000)
            }
            "--watchdog-stall-secs" => a.watchdog_stall_secs = p.value(f),
            "--reorder-window" => a.hub.reorder_window = p.value(f),
            "--queue-capacity" => a.hub.queue_capacity = p.value(f),
            "--max-connections" => a.max_connections = p.value(f),
            "--max-sources" => a.hub.max_sources = p.value(f),
            "--exit-after-sources" => a.hub.expected_sources = Some(p.value(f)),
            "--stall-grace-ms" => {
                let ms: u64 = p.value(f);
                a.hub.stall_grace = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--max-line-bytes" => a.conn.max_line_bytes = p.value(f),
            "--batch-records" => a.conn.batch_records = p.value::<usize>(f).max(1),
            _ if !f.starts_with('-') || f == "-" => {
                if a.input.replace(flag.clone()).is_some() {
                    usage(tool, "more than one FILE");
                }
            }
            _ => usage(tool, format_args!("unknown flag {f}")),
        }
        if WIRE_ONLY.contains(&flag.as_str()) {
            wire_flag.get_or_insert(flag);
        }
    }
    let stdin = a.input.as_deref().unwrap_or("-") == "-";
    match (&a.listen, wire_flag) {
        (Some(_), _) if a.input.is_some() => usage(tool, "FILE and --listen are exclusive"),
        (Some(_), _) if a.verify_batch => usage(tool, "--verify-batch needs a FILE"),
        (None, Some(flag)) => usage(tool, format_args!("{flag} needs --listen")),
        (None, _) if a.verify_batch && stdin => usage(
            tool,
            "--verify-batch needs a FILE (stdin cannot be re-read)",
        ),
        (None, _) if stdin && (a.checkpoint.is_some() || a.resume.is_some()) => usage(
            tool,
            "--checkpoint/--resume need a FILE (stdin cannot be re-sought on restart)",
        ),
        _ => {}
    }
    // A file is strict unless told otherwise; the wire is lenient.
    a.lenient = lenient.unwrap_or(a.listen.is_some());
    a
}

fn stream_config(args: &Args) -> StreamConfig {
    StreamConfig {
        session_threshold: args.threshold,
        request_window: WindowConfig {
            window_len: args.window_len,
            ..WindowConfig::default()
        },
        session_window: WindowConfig {
            window_len: args.window_len,
            fine_bin_width: None,
            ..WindowConfig::default()
        },
        tail_k: args.tail_k,
        max_open_sessions: args.max_open_sessions,
        observatory: webpuzzle_stream::ObservatoryConfig {
            seasonal_period: args.seasonal_period,
            ..webpuzzle_stream::ObservatoryConfig::default()
        },
        diagnostics: args.diagnostics,
        ..StreamConfig::default()
    }
}

/// Where the records come from, chosen once from the command line.
#[derive(Clone)]
enum Input {
    /// A log file, or `-` for stdin.
    File(String),
    /// The ingest hub that merges every wire connection.
    Wire(Arc<ingest::IngestHub>),
}

impl Input {
    /// Check the file, or bind the listener and announce its address.
    fn open(
        tool: &str,
        args: &Args,
        resume: Option<&Checkpoint>,
    ) -> (Input, Option<ingest::IngestListener>) {
        let Some(addr) = &args.listen else {
            let path = args.input.clone().unwrap_or_else(|| "-".to_string());
            if path != "-" {
                if let Err(e) = File::open(&path) {
                    fail!(tool, 2, "cannot open {path}: {e}");
                }
            }
            return (Input::File(path), None);
        };
        // The wire cannot be re-sought, so resume idempotency comes from
        // the admit floor instead: everything at or below the
        // checkpoint's sessionizer watermark is a replay duplicate and is
        // dropped (counted).
        let hub = ingest::IngestHub::new(ingest::HubConfig {
            admit_floor: resume.map_or(f64::NEG_INFINITY, |ck| ck.engine.sessionizer.watermark),
            ..args.hub.clone()
        });
        if let Some(ck) = resume {
            hub.set_baseline(ck.source);
        }
        let conn = ingest::ConnConfig {
            base_epoch: args.base_epoch,
            lenient: args.lenient,
            ..args.conn.clone()
        };
        let listener = ingest::bind(addr, Arc::clone(&hub), conn, args.max_connections)
            .unwrap_or_else(|e| fail!(tool, 2, "cannot bind ingest listener {addr}: {e}"));
        // Always announced, even under --quiet: a server whose address
        // is unknowable is useless.
        eprintln!(
            "{tool}: ingest listening on {} (line protocol + HTTP POST /ingest)",
            listener.local_addr()
        );
        if let Some(path) = &args.addr_file {
            if let Err(e) = std::fs::write(path, listener.local_addr().to_string()) {
                fail!(tool, 2, "cannot write {}: {e}", path.display());
            }
        }
        (Input::Wire(hub), Some(listener))
    }

    /// A fresh source at `pos`, for the supervisor's first start and
    /// every restart. A file re-seeks; engine restarts on the wire reuse
    /// the same hub, so records still buffered in it survive a panic
    /// recovery (records the crashed engine consumed past the last
    /// checkpoint come back only through sender replay).
    fn source(
        &self,
        args: &Args,
        pos: &SourcePosition,
        stdin_taken: &mut bool,
    ) -> webpuzzle_stream::Result<RunSource> {
        let path = match self {
            Input::Wire(hub) => return Ok(RunSource::Wire(ingest::NetSource::new(hub.clone()))),
            Input::File(path) => path,
        };
        let reader: Box<dyn io::BufRead> = if path == "-" {
            if std::mem::replace(stdin_taken, true) {
                return Err(io::Error::other(
                    "stdin cannot be reopened after a crash; use a FILE input",
                )
                .into());
            }
            Box::new(BufReader::new(io::stdin()))
        } else {
            let mut file = File::open(path)?;
            if pos.byte_offset > 0 {
                file.seek(SeekFrom::Start(pos.byte_offset))?;
            }
            Box::new(BufReader::new(file))
        };
        let clf = ClfSource::new(reader, args.base_epoch)
            .lenient(args.lenient)
            .with_position(pos);
        Ok(RunSource::File(clf))
    }

    /// Graceful shutdown: finishing the hub lets buffered records flow
    /// out and ends the merged stream. A file needs nothing here — it
    /// stops at the next record boundary (see [`RunSource`]).
    fn stop(&self) {
        if let Input::Wire(hub) = self {
            hub.finish();
        }
    }

    /// Whether a missing engine beat is expected: the wire is idle, not
    /// stalled, while the hub has nothing buffered.
    fn idle(&self) -> bool {
        matches!(self, Input::Wire(hub) if hub.stats().buffered == 0)
    }

    fn stats(&self) -> Option<ingest::HubStats> {
        match self {
            Input::Wire(hub) => Some(hub.stats()),
            Input::File(_) => None,
        }
    }
}

/// The record source the supervisor drives.
enum RunSource {
    File(ClfSource<Box<dyn io::BufRead>>),
    Wire(ingest::NetSource),
}

impl Source for RunSource {
    type Item = LogRecord;

    fn next_item(&mut self) -> Option<webpuzzle_stream::Result<LogRecord>> {
        match self {
            // Once a shutdown signal has arrived the file ends at this
            // record boundary: the supervisor sees a normal end of input
            // and takes its usual final-checkpoint-and-report exit.
            RunSource::File(_) if obs::shutdown::requested() => None,
            RunSource::File(clf) => clf.next_item(),
            RunSource::Wire(net) => net.next_item(),
        }
    }
}

impl RecoverableSource for RunSource {
    fn position(&self) -> SourcePosition {
        match self {
            RunSource::File(clf) => clf.position(),
            RunSource::Wire(net) => net.position(),
        }
    }
}

/// Builds and writes run reports: shared by the telemetry endpoint,
/// the `--snapshot-every` callback and the final `--json` report.
#[derive(Clone)]
struct Reporter {
    tool: &'static str,
    args: Arc<Args>,
    profile_overhead_pct: Option<f64>,
    raw_args: Vec<String>,
}

impl Reporter {
    /// The report's `config` block. `finished` is false for live and
    /// snapshot reports, true for the final one.
    fn config(
        &self,
        summary: Option<&StreamSummary>,
        finished: bool,
        ingest: Option<&ingest::HubStats>,
    ) -> serde::Value {
        let a = &self.args;
        let opt_f64 = |v: Option<f64>| v.map_or(serde::Value::Null, |x| x.to_value());
        let mut fields = vec![
            ("base_epoch", a.base_epoch.to_value()),
            ("threshold", a.threshold.to_value()),
            ("window_len", a.window_len.to_value()),
            ("tail_k", (a.tail_k as u64).to_value()),
            ("lenient", a.lenient.to_value()),
        ];
        if a.listen.is_some() {
            fields.push(("reorder_window", a.hub.reorder_window.to_value()));
            fields.push(("queue_capacity", (a.hub.queue_capacity as u64).to_value()));
        }
        let cfg = stream_config(a);
        fields.extend([
            ("records", summary.map_or(0, |s| s.records).to_value()),
            ("partial", (!finished).to_value()),
            ("window_seed", cfg.request_window.seed.to_value()),
            ("tail_fraction", cfg.tail_fraction.to_value()),
            (
                "seasonal_period",
                a.seasonal_period
                    .map_or(serde::Value::Null, |p| p.to_value()),
            ),
            ("checkpoint_every_records", a.checkpoint_every.to_value()),
            ("checkpoint_every_secs", a.checkpoint_every_secs.to_value()),
            ("max_open_sessions", (a.max_open_sessions as u64).to_value()),
            ("diagnostics", a.diagnostics.to_value()),
            ("truth_alpha", opt_f64(a.truth_alpha)),
            ("truth_h", opt_f64(a.truth_h)),
        ]);
        if let Some(s) = summary {
            fields.push(("summary", s.to_value()));
        }
        if a.profile {
            // Live flight-recorder snapshot plus the startup-calibrated
            // self-overhead number the CI gate asserts against.
            fields.push(("profile", obs::profile::snapshot().to_value()));
            if let Some(pct) = self.profile_overhead_pct {
                fields.push(("profile_overhead_pct", pct.to_value()));
            }
        }
        if let Some(st) = ingest {
            fields.push(("ingest", ingest_value(st)));
        }
        serde::Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    fn save(
        &self,
        summary: &StreamSummary,
        finished: bool,
        ingest: Option<&ingest::HubStats>,
    ) -> io::Result<()> {
        let config = self.config(Some(summary), finished, ingest);
        obs::RunReport::collect(self.tool, None, config, self.raw_args.clone())
            .save(&self.args.report_path)
    }
}

fn ingest_value(st: &ingest::HubStats) -> serde::Value {
    let fields = [
        ("sources_seen", st.sources_seen),
        ("admitted", st.admitted),
        ("emitted", st.emitted),
        ("late_dropped", st.late_dropped),
        ("duplicate_dropped", st.duplicate_dropped),
        ("stall_late_dropped", st.stall_late_dropped),
        ("skipped_malformed", st.skipped_malformed),
        ("oversized_lines", st.oversized_lines),
        ("torn_lines", st.torn_lines),
        ("pressure_shed", st.pressure_shed),
        ("breaker_dropped", st.breaker_dropped),
        ("breaker_trips", st.breaker_trips),
        ("shutdown_dropped", st.shutdown_dropped),
        ("bytes_received", st.bytes_received),
        ("lines_received", st.lines_received),
    ];
    serde::Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v.to_value()))
            .collect(),
    )
}

/// Keep injected-crash backtraces off stderr: the supervisor recovers
/// them, so drills read like operations, not bugs. Genuine panics
/// still print through the default hook.
fn install_panic_hook() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied());
        if msg.is_some_and(|m| m.contains("injected crash")) {
            return;
        }
        default_hook(info);
    }));
}

/// Run the stream runtime on this process's command line and exit with
/// its status. `tool` names the binary in messages and reports;
/// `default_listen` makes the wire the default source.
pub fn main(tool: &'static str, default_listen: Option<&str>) {
    let raw_args: Vec<String> = std::env::args().skip(1).collect();
    let args = Arc::new(parse_args(tool, default_listen, raw_args.clone()));
    QUIET.store(args.quiet, Ordering::Relaxed);
    if args.quiet {
        // NullSink is the default: nothing reaches stderr.
    } else if args.json {
        obs::set_sink(Box::new(obs::JsonSink));
    } else {
        obs::set_sink(Box::new(obs::StderrSink::default()));
    }
    // Flight recorder: calibrate the profiler's own cost first, on
    // synthetic records, so the published overhead number never mixes
    // with real-stream variance. This runs *before* obs::reset() and
    // before the events sink exists — everything the calibration
    // touches (metric counters, the event ring, profiler histograms)
    // is wiped below, so no synthetic sample can leak into the run.
    let overhead_pct = args.profile.then(|| {
        let pct = crate::measure_profile_overhead_pct(50_000, args.profile_sample);
        if !args.quiet {
            eprintln!(
                "{tool}: profiler self-overhead {pct:.2}% \
                 (1-in-{} sampling, 50000-record calibration)",
                args.profile_sample
            );
        }
        pct
    });
    obs::reset();
    obs::shutdown::install();
    let gov = &args.governor;
    if gov.session_budget > 0 || gov.queue_bytes_budget > 0 || gov.memory_budget_bytes > 0 {
        obs::governor::install(gov.clone());
        say!(
            "pressure governor armed: sessions {} / queue bytes {} / memory bytes {}",
            gov.session_budget,
            gov.queue_bytes_budget,
            gov.memory_budget_bytes
        );
    }
    if args.profile {
        obs::profile::enable(args.profile_sample);
        if let Some(pct) = overhead_pct {
            obs::metrics::gauge("profile/overhead_pct").set(pct);
        }
    }
    if let Some(path) = &args.events_path {
        let sink = obs::events::JsonlEventSink::create(path)
            .unwrap_or_else(|e| fail!(tool, 2, "cannot open events log {}: {e}", path.display()));
        obs::events::set_jsonl_sink(sink);
    }
    // SLO objectives must be installed before the sampler starts: its
    // immediate baseline tick is the burn-rate windows' left edge.
    let sampler =
        crate::start_history_sampler(&args.history).unwrap_or_else(|e| fail!(tool, 2, "{e}"));
    install_panic_hook();

    // Validate the engine configuration up front so bad tuning is a
    // usage error, not a mid-run failure.
    let engine_cfg = stream_config(&args);
    if let Err(e) = StreamAnalyzer::new(engine_cfg.clone()) {
        fail!(tool, 2, "{e}");
    }
    // A corrupted, truncated, or version-skewed snapshot must be
    // refused loudly — resuming from bad state would silently poison
    // every estimate downstream.
    let resume_ck = args.resume.as_ref().map(|path| {
        Checkpoint::load(path)
            .unwrap_or_else(|e| fail!(tool, 1, "cannot resume from {}: {e}", path.display()))
    });
    let resumed = resume_ck.is_some();
    let (input, listener) = Input::open(tool, &args, resume_ck.as_ref());

    let reporter = Reporter {
        tool,
        args: Arc::clone(&args),
        profile_overhead_pct: overhead_pct,
        raw_args: raw_args.clone(),
    };
    let _telemetry = args.telemetry_addr.as_ref().map(|addr| {
        let context = obs::ReportContext {
            tool: tool.to_string(),
            seed: None,
            config: reporter.config(None, false, None),
            args: raw_args,
        };
        let server = obs::serve(addr, context)
            .unwrap_or_else(|e| fail!(tool, 2, "cannot bind telemetry endpoint {addr}: {e}"));
        if !args.quiet {
            eprintln!(
                "{tool}: telemetry listening on http://{} (/metrics /healthz /report)",
                server.local_addr()
            );
        }
        server
    });

    // `--resume` keeps checkpointing to the same file unless
    // `--checkpoint` overrides it.
    let checkpoint_path = args.checkpoint.clone().or_else(|| args.resume.clone());
    let mut every_records = args.checkpoint_every;
    if checkpoint_path.is_some() && every_records == 0 && args.checkpoint_every_secs == 0 {
        every_records = 100_000;
    }
    let sup_cfg = SupervisorConfig {
        lenient: args.lenient,
        max_transient_retries: args.max_retries,
        max_restores: args.max_restores,
        checkpoint_path,
        checkpoint_every_records: every_records,
        checkpoint_every_secs: args.checkpoint_every_secs,
        ..SupervisorConfig::default()
    };
    let (factory_input, factory_args) = (input.clone(), Arc::clone(&args));
    let mut stdin_taken = false;
    let factory = move |pos: &SourcePosition| -> webpuzzle_stream::Result<FaultSource<RunSource>> {
        let inner = factory_input.source(&factory_args, pos, &mut stdin_taken)?;
        let mut source = FaultSource::new(inner, factory_args.inject_faults.clone());
        source.set_index(pos.parsed);
        Ok(source)
    };

    // Stage watchdog over the engine, which beats per record.
    let watchdog = (args.watchdog_stall_secs > 0).then(|| {
        Arc::new(webpuzzle_stream::Watchdog::new(
            webpuzzle_stream::WatchdogConfig {
                stall_after: Duration::from_secs(args.watchdog_stall_secs),
                ..webpuzzle_stream::WatchdogConfig::default()
            },
            &["engine"],
        ))
    });
    let engine_beat = watchdog.as_ref().map(|wd| wd.handle(0));
    // One housekeeping loop, joined when the run ends: stop the input on
    // SIGTERM/SIGINT, and scan the watchdog every 250 ms unless the input
    // is idle. Dropping `run_done` wakes it at once.
    let (run_done, done) = std::sync::mpsc::channel::<()>();
    let housekeeping = {
        let (input, watchdog) = (input.clone(), watchdog.clone());
        std::thread::spawn(move || {
            let (mut tick, mut stopped) = (0u64, false);
            while let Err(RecvTimeoutError::Timeout) = done.recv_timeout(Duration::from_millis(50))
            {
                tick += 1;
                if !stopped && obs::shutdown::requested() {
                    eprintln!("{tool}: shutdown signal — draining buffered records");
                    input.stop();
                    stopped = true;
                }
                match &watchdog {
                    Some(wd) if tick % 5 == 0 && input.idle() => wd.handle(0).beat(),
                    Some(wd) if tick % 5 == 0 => {
                        wd.scan();
                    }
                    _ => {}
                }
            }
        })
    };

    let mut supervisor = Supervisor::new(engine_cfg, sup_cfg, factory);
    if let Some(ck) = resume_ck {
        supervisor = supervisor.with_resume(ck);
    }
    let (snapshot, snapshot_input) = (reporter.clone(), input.clone());
    let mut progress = obs::ProgressMeter::new("stream/records", None);
    supervisor = supervisor.on_record(Box::new(move |engine| {
        progress.tick(1);
        if let Some(beat) = &engine_beat {
            beat.beat();
        }
        let every = snapshot.args.snapshot_every;
        if every > 0 && engine.records().is_multiple_of(every) {
            let stats = snapshot_input.stats();
            match snapshot.save(&engine.summary(), false, stats.as_ref()) {
                Err(e) => obs::warn(&format!("snapshot write failed: {e}")),
                Ok(()) => obs::info(&format!(
                    "partial report ({} records) written to {}",
                    engine.records(),
                    snapshot.args.report_path.display()
                )),
            }
        }
    }));

    let t0 = std::time::Instant::now();
    let report = supervisor.run().unwrap_or_else(|e| fail!(tool, 1, "{e}"));
    drop(run_done);
    housekeeping.join().expect("housekeeping thread panicked");
    // The stream has ended: stop accepting and let connection threads
    // drain out.
    input.stop();
    if let Some(listener) = listener {
        listener.shutdown();
    }
    let stats = input.stats();
    let summary = report.summary.clone();
    let skipped = report.source.skipped;
    let elapsed = t0.elapsed();
    obs::info(&format!(
        "{} records ({} skipped) in {elapsed:.1?} ({:.0} rec/s)",
        summary.records,
        skipped,
        summary.records as f64 / elapsed.as_secs_f64().max(1e-9)
    ));

    print_summary(&summary, skipped, stats.as_ref());
    print_recovery(&report, resumed);
    if let Some(stalls) = watchdog.map(|wd| wd.total_stalls()).filter(|&n| n > 0) {
        say!("  watchdog: {stalls} stall(s) detected during the run");
    }
    if obs::governor::is_installed() {
        say!(
            "  governor: final state {} (pressure {:.2}); \
             {} record(s) hard-shed, {} estimator sample(s) skipped, \
             {} session(s) evicted early",
            obs::governor::state().as_str(),
            obs::governor::pressure(),
            summary.hard_shed_records,
            summary.sampled_out,
            summary.early_evicted_sessions
        );
    }
    if obs::shutdown::requested() {
        say!("  graceful shutdown: input drained, final checkpoint and report written");
    }
    if args.diagnostics {
        print_diagnostics(&summary.diagnostics);
    }
    if args.profile {
        let prof = obs::profile::snapshot();
        print_profile(&prof, overhead_pct);
        for (path, what, body) in [
            (&args.profile_out, "folded stacks", prof.folded()),
            (
                &args.profile_exemplars,
                "exemplar traces",
                prof.exemplars_jsonl(),
            ),
        ] {
            if let Some(path) = path {
                if let Err(e) = std::fs::write(path, body) {
                    fail!(tool, 1, "failed to write {}: {e}", path.display());
                }
                say!("  {what} written to {}", path.display());
            }
        }
    }

    // Final telemetry tick + SLO pass before anything reads the verdict:
    // the run report below and the --alert-on gate both must see events
    // from the last partial sampling interval.
    if let Some(health) = crate::finish_history_sampler(sampler, args.history.slo) {
        say!("{}", health.render().trim_end());
    }

    if args.json {
        if let Err(e) = reporter.save(&summary, true, stats.as_ref()) {
            fail!(
                tool,
                1,
                "failed to write {}: {e}",
                args.report_path.display()
            );
        }
        obs::info(&format!(
            "run report written to {}",
            args.report_path.display()
        ));
    }

    if let (true, Some(path)) = (args.verify_batch, &args.input) {
        let drift = verify::verify_batch(&args, path, &summary, skipped);
        if drift > 0 {
            fail!(tool, 1, "{drift} drift(s) from the batch pipeline");
        }
        say!("verify-batch: streaming and batch pipelines agree");
    }

    if let Some(min_sev) = args.alert_on {
        let alarms = obs::events::total_at_or_above(min_sev);
        if alarms > 0 {
            // The verdict must reach CI logs even under --quiet.
            let sev = min_sev.as_str();
            fail!(tool, 3, "{alarms} drift alarm(s) at or above {sev}");
        }
        say!("alert-on: no drift alarms at or above {}", min_sev.as_str());
    }

    // Exit 5: a planted truth was declared and the final diagnosable
    // window's CI does not cover it — the estimator's stated confidence
    // is miscalibrated for this stream. Drift (3) takes precedence.
    if args.truth_alpha.is_some() || args.truth_h.is_some() {
        let failures = check_truth_coverage(&summary, args.truth_alpha, args.truth_h);
        if failures > 0 {
            fail!(tool, 5, "{failures} planted-truth coverage failure(s)");
        }
        say!("truth-coverage: final-window CIs cover the planted truth");
    }

    // Exit 4: the run is complete, but only because it recovered (or
    // resumed) *and* shed sessions along the way — degraded, not clean.
    if (report.recoveries > 0 || resumed) && report.shed_sessions > 0 {
        fail!(tool, 4, "completed after recovery with {} shed session(s) ({} records) — results are complete but degraded", report.shed_sessions, report.shed_records);
    }
}

/// Print what the supervisor had to do, if anything.
fn print_recovery(report: &SupervisorReport, resumed: bool) {
    let eventful = resumed
        || report.recoveries > 0
        || report.transient_retries > 0
        || report.poison_records() > 0
        || report.shed_sessions > 0
        || report.checkpoints_written > 0;
    if !eventful {
        return;
    }
    say!("  supervisor:");
    if let Some(records) = report.resumed_from_records {
        say!("    resumed from a checkpoint at record {records}");
    }
    say!(
        "    {} recovery(ies), {} transient retry(ies), {} checkpoint(s) written",
        report.recoveries,
        report.transient_retries,
        report.checkpoints_written
    );
    if report.poison_records() > 0 {
        let by_kind: Vec<String> = MalformedKind::ALL
            .iter()
            .filter(|k| report.poison.count(**k) > 0)
            .map(|k| format!("{} {}", k.as_str(), report.poison.count(*k)))
            .collect();
        say!(
            "    {} poison record(s) skipped ({})",
            report.poison_records(),
            by_kind.join(", ")
        );
    }
    if report.shed_sessions > 0 {
        say!(
            "    {} session(s) ({} records) shed at the open-session cap",
            report.shed_sessions,
            report.shed_records
        );
    }
}

/// Print the flight recorder's stage-attribution table: latency
/// quantiles per stage plus the single-thread throughput each
/// per-record stage alone would sustain (`count / total_time`).
fn print_profile(prof: &obs::profile::ProfileReport, overhead_pct: Option<f64>) {
    say!(
        "  flight recorder: 1-in-{} sampling, {} record(s) traced{}",
        prof.sample_every,
        prof.records_sampled,
        overhead_pct
            .map(|p| format!(", self-overhead {p:.2}%"))
            .unwrap_or_default()
    );
    say!(
        "  {:<18} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "stage",
        "count",
        "p50 µs",
        "p95 µs",
        "p99 µs",
        "p999 µs",
        "max µs",
        "~rec/s"
    );
    let us = |v: Option<f64>| {
        v.map(|x| format!("{:.1}", x / 1e3))
            .unwrap_or_else(|| "NA".to_string())
    };
    for s in &prof.stages {
        if s.count == 0 {
            continue;
        }
        let per_record = obs::profile::STAGES
            .iter()
            .any(|st| st.as_str() == s.stage && st.is_per_record());
        let rate = if per_record && s.total_ns > 0 {
            format!("{:.0}", s.count as f64 * 1e9 / s.total_ns as f64)
        } else {
            "-".to_string()
        };
        say!(
            "  {:<18} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9.1} {:>10}",
            s.stage,
            s.count,
            us(s.p50_ns),
            us(s.p95_ns),
            us(s.p99_ns),
            us(s.p999_ns),
            s.max_ns as f64 / 1e3,
            rate
        );
    }
    for e in prof.exemplars.iter().take(3) {
        let stages: Vec<String> = e
            .stages
            .iter()
            .map(|b| format!("{} {:.1}µs", b.stage, b.ns as f64 / 1e3))
            .collect();
        say!(
            "    slowest: record {} @ {:.1}s took {:.1}µs ({})",
            e.record_index,
            e.stream_time,
            e.total_ns as f64 / 1e3,
            stages.join(", ")
        );
    }
}

/// Print the per-window estimator-confidence table (DESIGN.md §13).
fn print_diagnostics(report: &obs::diagnostics::DiagnosticsReport) {
    say!(
        "  estimator diagnostics ({:.0}% CIs, schema v{}):",
        report.confidence_level * 100.0,
        report.schema
    );
    say!(
        "  {:>4} {:>7} {:>7} {:>13} {:>7} {:>7} {:>6} {:>4} {:>7} {:>14}",
        "win",
        "α",
        "±CI",
        "plateau k",
        "H",
        "±CI",
        "R²",
        "pts",
        "score",
        "verdict"
    );
    let f = |v: Option<f64>| {
        v.map(|x| format!("{x:.3}"))
            .unwrap_or_else(|| "NA".to_string())
    };
    for w in &report.windows {
        let plateau = match (w.plateau_k_lo, w.plateau_k_hi) {
            (Some(lo), Some(hi)) => format!("{lo}..{hi}"),
            _ => "NS".to_string(),
        };
        say!(
            "  {:>4} {:>7} {:>7} {:>13} {:>7} {:>7} {:>6} {:>4} {:>7} {:>14}",
            w.index,
            f(w.alpha),
            f(w.alpha_ci_half_width),
            plateau,
            f(w.h),
            f(w.h_ci_half_width),
            f(w.h_r_squared),
            w.h_points,
            f(w.agreement_score),
            w.agreement.as_str()
        );
    }
    say!(
        "  {} low-confidence, {} disagreement window(s); final 2H=3−α verdict: {}",
        report.low_confidence_windows,
        report.disagreement_windows,
        report.final_verdict.as_str()
    );
}

/// One coverage check per declared truth, against the *last* window
/// that produced the estimate with a CI; returns the failure count.
fn check_truth_coverage(
    summary: &StreamSummary,
    truth_alpha: Option<f64>,
    truth_h: Option<f64>,
) -> u32 {
    let windows = &summary.diagnostics.windows;
    let mut failures = 0;
    let mut judge = |label: &str, truth: f64, found: Option<(u64, f64, f64)>| match found {
        Some((idx, est, half)) => {
            let covered = (est - truth).abs() <= half;
            if covered {
                say!(
                    "  PASS  truth {label:<24} window {idx}: {est:.3} ± {half:.3} \
                     covers {truth:.3}"
                );
            } else {
                // Failures always print: they are the verdict.
                println!(
                    "  FAIL  truth {label:<24} window {idx}: {est:.3} ± {half:.3} \
                     misses {truth:.3}"
                );
                failures += 1;
            }
        }
        None => {
            println!("  FAIL  truth {label:<24} no window produced the estimate with a CI");
            failures += 1;
        }
    };
    if let Some(truth) = truth_alpha {
        let found = windows
            .iter()
            .rev()
            .find_map(|w| Some((w.index, w.alpha?, w.alpha_ci_half_width?)));
        judge("α (bytes tail)", truth, found);
    }
    if let Some(truth) = truth_h {
        let found = windows
            .iter()
            .rev()
            .find_map(|w| Some((w.index, w.h?, w.h_ci_half_width?)));
        judge("H (arrivals)", truth, found);
    }
    failures
}

fn verdict_str(v: PoissonVerdict) -> &'static str {
    match v {
        PoissonVerdict::ConsistentWithPoisson => "Poisson",
        PoissonVerdict::Rejected => "REJECT",
        PoissonVerdict::NotApplicable => "NA",
    }
}

fn print_summary(summary: &StreamSummary, skipped: u64, ingest: Option<&ingest::HubStats>) {
    say!("stream summary");
    say!(
        "  records {}  skipped {}  sessions {}  peak open {}  MB {:.1}",
        summary.records,
        skipped,
        summary.sessions,
        summary.peak_open_sessions,
        summary.bytes as f64 / 1e6
    );
    if let Some(stats) = ingest {
        print_ingest(stats);
    }
    say!(
        "  {:<22} {:>12} {:>14} {:>10}",
        "metric",
        "mean",
        "variance",
        "hill α"
    );
    let rows: [(&str, f64, f64, &TailSnapshot); 3] = [
        (
            "session duration (s)",
            summary.session_duration.mean,
            summary.session_duration.variance,
            &summary.duration_tail,
        ),
        (
            "requests/session",
            summary.session_requests.mean,
            summary.session_requests.variance,
            &summary.requests_tail,
        ),
        (
            "bytes/session",
            summary.session_bytes.mean,
            summary.session_bytes.variance,
            &summary.bytes_tail,
        ),
    ];
    for (name, mean, var, tail) in rows {
        let alpha = tail
            .alpha
            .map(|a| format!("{a:.3}"))
            .unwrap_or_else(|| "NA".to_string());
        say!("  {name:<22} {mean:>12.3} {var:>14.3} {alpha:>10}");
    }
    for (what, windows) in [
        ("request", &summary.request_windows),
        ("session", &summary.session_windows),
    ] {
        say!("  {what} arrival windows:");
        say!(
            "  {:>4} {:>10} {:>8} {:>8} {:>8} {:>8}",
            "win",
            "events",
            "H(1s)",
            "H(10ms)",
            "hourly",
            "10-min"
        );
        for w in windows.iter() {
            let h = |v: Option<f64>| {
                v.map(|x| format!("{x:.3}"))
                    .unwrap_or_else(|| "NA".to_string())
            };
            say!(
                "  {:>4} {:>10} {:>8} {:>8} {:>8} {:>8}",
                w.index,
                w.events,
                h(w.h_variance_time),
                h(w.h_variance_time_fine),
                verdict_str(w.poisson_hourly),
                verdict_str(w.poisson_ten_min)
            );
        }
    }
    let drift = &summary.drift;
    say!(
        "  drift observatory: {} windows, {} alarms ({} warn, {} critical){}",
        drift.windows,
        drift.alarms,
        drift.warn,
        drift.critical,
        drift
            .first_alarm_window
            .map(|w| format!(", first at window {w}"))
            .unwrap_or_default()
    );
    for ch in &drift.by_channel {
        say!(
            "    {:<12} {:<28} {:>6} alarm(s)",
            ch.detector,
            ch.metric,
            ch.alarms
        );
    }
}

/// The wire half of the summary: sources, bytes, and every shed bucket.
fn print_ingest(stats: &ingest::HubStats) {
    say!(
        "  ingest: {} source(s), {} line(s) / {:.1} MB on the wire",
        stats.sources_seen,
        stats.lines_received,
        stats.bytes_received as f64 / 1e6
    );
    let sheds = [
        ("malformed", stats.skipped_malformed),
        ("oversized", stats.oversized_lines),
        ("torn", stats.torn_lines),
        ("late", stats.late_dropped),
        ("duplicate", stats.duplicate_dropped),
        ("stall-late", stats.stall_late_dropped),
        ("pressure-shed", stats.pressure_shed),
        ("breaker-dropped", stats.breaker_dropped),
        ("shutdown-dropped", stats.shutdown_dropped),
    ];
    let shed: Vec<String> = sheds
        .iter()
        .filter(|(_, n)| *n > 0)
        .map(|(what, n)| format!("{n} {what}"))
        .collect();
    if shed.is_empty() {
        say!("  ingest sheds: none");
    } else {
        say!("  ingest sheds: {}", shed.join(", "));
    }
    if stats.breaker_trips > 0 || stats.breakers_open > 0 {
        say!(
            "  circuit breakers: {} trip(s), {} currently open/probing",
            stats.breaker_trips,
            stats.breakers_open
        );
    }
}
