//! Traced passes of the two streaming workloads.
//!
//! The main pass feeds `StreamAnalyzer::push` from the workload's real
//! source (`ClfSource` over the file, or `NetSource` behind an in-process
//! `IngestHub` fed by the `replay` binary) and times each call. A push
//! that crosses a window boundary is charged to the window layer, every
//! other push to the engine.
//!
//! The sessionizer, window estimators and drift observatory run inside
//! `push`, where no timer can reach them. So the recorded records are
//! replayed through those layers' public functions in the order the
//! engine calls them, and the replay must reproduce the engine's own
//! window reports, drift summary and session count exactly — a check
//! that the replay measured the code the engine runs.

use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use webpuzzle_core::{poisson_arrival_test, PoissonVerdict, TieSpreading};
use webpuzzle_ingest::{bind, ConnConfig, HubConfig, IngestHub, NetSource, WatermarkMerger};
use webpuzzle_lrd::variance_time_detailed;
use webpuzzle_stream::{
    Checkpoint, ClfSource, DriftObservatory, RecoverableSource, Source, SourcePosition,
    StreamAnalyzer, StreamConfig, StreamSessionizer, StreamSummary, TopK, Welford, WindowConfig,
    WindowObservation, WindowReport, WindowedArrivals,
};
use webpuzzle_weblog::LogRecord;

use crate::{quantile, Metrics, Result};

/// Base epoch the shipped binaries use for CLF timestamps.
const BASE_EPOCH: i64 = 1_073_865_600;
/// Checkpoint cadence of `stream-serve --checkpoint` without `--checkpoint-every`.
const CHECKPOINT_EVERY: u64 = 100_000;
/// Connections the wire workload opens (`replay --connections`).
const CONNECTIONS: usize = 2;

/// `stream-analyze FILE` with `StreamConfig::default()`.
pub fn file(fixture: &Path, m: &mut Metrics) -> Result<()> {
    let start = Instant::now();
    let mut source = ClfSource::new(BufReader::new(File::open(fixture)?), BASE_EPOCH);
    let (summary, records) = drive(&mut source, "reader.busy_s", None, m)?;
    m.set("trace.wall_s", start.elapsed().as_secs_f64());
    m.set("reader.records", records.len() as f64);
    m.set_coverage(&["reader.busy_s", "engine.push_busy_s", "window.close_busy_s"]);
    replay_layers(&records, &summary, m)
}

/// `replay FIXTURE --connections 2` into an in-process hub, analysed with
/// checkpoints at the `stream-serve` cadence.
pub fn wire(fixture: &Path, replay: &Path, checkpoint: &Path, m: &mut Metrics) -> Result<()> {
    let hub = IngestHub::new(HubConfig {
        expected_sources: Some(CONNECTIONS as u64),
        stall_grace: Some(Duration::from_secs(5)),
        ..HubConfig::default()
    });
    let conn = ConnConfig {
        base_epoch: BASE_EPOCH,
        lenient: true,
        ..ConnConfig::default()
    };
    let listener = bind("127.0.0.1:0", hub.clone(), conn, 64)?;
    let start = Instant::now();
    let mut sender = Command::new(replay)
        .arg(fixture)
        .arg("--addr")
        .arg(listener.local_addr().to_string())
        .args(["--connections", &CONNECTIONS.to_string(), "--quiet"])
        .stdout(Stdio::null())
        .spawn()?;
    let mut source = NetSource::new(hub.clone());
    let driven = drive(&mut source, "ingest.pop_wait_s", Some(checkpoint), m);
    m.set("trace.wall_s", start.elapsed().as_secs_f64());
    if driven.is_err() {
        // Nothing drains the hub any more, so the sender would block.
        let _ = sender.kill();
    }
    let sent = sender.wait()?;
    listener.shutdown();
    let (summary, records) = driven?;
    m.check(sent.success(), || format!("replay exited with {sent}"));

    let stats = hub.stats();
    let dropped = stats.late_dropped
        + stats.duplicate_dropped
        + stats.stall_late_dropped
        + stats.skipped_malformed
        + stats.oversized_lines
        + stats.torn_lines
        + stats.pressure_shed
        + stats.breaker_dropped
        + stats.shutdown_dropped;
    m.set("ingest.admitted", stats.admitted as f64);
    m.set("ingest.dropped", dropped as f64);
    m.check(dropped == 0, || format!("hub dropped {dropped} records"));
    m.check(stats.admitted == records.len() as u64, || {
        format!(
            "hub admitted {} but engine saw {}",
            stats.admitted,
            records.len()
        )
    });
    m.set_coverage(&[
        "ingest.pop_wait_s",
        "engine.push_busy_s",
        "window.close_busy_s",
        "checkpoint.export_s",
        "checkpoint.encode_s",
        "checkpoint.save_s",
    ]);

    // The merge runs on the hub's lock inside `pop_blocking`; replay the
    // same round-robin split through the public merger to time it alone.
    let mut merger = WatermarkMerger::new(0.0, f64::NEG_INFINITY);
    let ids: Vec<usize> = (0..CONNECTIONS)
        .map(|i| merger.register(format!("conn-{i}")))
        .collect();
    let merged = m.time("ingest.merge_busy_s", || {
        let mut popped = 0usize;
        for (i, record) in records.iter().enumerate() {
            merger.push(ids[i % CONNECTIONS], *record);
            while merger.pop().is_some() {
                popped += 1;
            }
        }
        for &id in &ids {
            merger.close(id);
        }
        while merger.pop().is_some() {
            popped += 1;
        }
        popped
    });
    m.check(merged == records.len(), || {
        format!("merger released {merged} of {} records", records.len())
    });
    replay_layers(&records, &summary, m)
}

/// Main pass: pull every record from `source` and push it into a default
/// engine, timing the source, the engine and the window closes apart.
fn drive<S>(
    source: &mut S,
    source_metric: &'static str,
    checkpoint: Option<&Path>,
    m: &mut Metrics,
) -> Result<(StreamSummary, Vec<LogRecord>)>
where
    S: Source<Item = LogRecord> + RecoverableSource,
{
    let cfg = StreamConfig::default();
    let window_len = cfg.request_window.window_len;
    let mut engine = StreamAnalyzer::new(cfg)?;
    let mut records = Vec::new();
    let mut next_close = window_len;
    let mut close_ms = Vec::new();
    let mut written = 0u64;
    while let Some(item) = m.time(source_metric, || source.next_item()) {
        let record = item?;
        let closing = record.timestamp >= next_close;
        let t = Instant::now();
        engine.push(&record)?;
        let dt = t.elapsed().as_secs_f64();
        if closing {
            close_ms.push(dt * 1e3);
            m.add("window.close_busy_s", dt);
            next_close = ((record.timestamp / window_len).floor() + 1.0) * window_len;
        } else {
            m.add("engine.push_busy_s", dt);
        }
        records.push(record);
        if let Some(path) = checkpoint {
            if engine.records() % CHECKPOINT_EVERY == 0 {
                written += 1;
                save_checkpoint(&engine, source.position(), written, path, m)?;
            }
        }
    }
    // The supervisor writes a final checkpoint before finishing.
    if let Some(path) = checkpoint {
        written += 1;
        save_checkpoint(&engine, source.position(), written, path, m)?;
    }
    let closed_before = engine.summary().request_windows.len();
    let t = Instant::now();
    let summary = engine.finish()?;
    let dt = t.elapsed().as_secs_f64();
    if summary.request_windows.len() > closed_before {
        close_ms.push(dt * 1e3);
        m.add("window.close_busy_s", dt);
    } else {
        m.add("engine.push_busy_s", dt);
    }
    m.set("window.closes", summary.request_windows.len() as f64);
    m.set("window.close_ms_p50", quantile(&close_ms, 0.50));
    m.set("window.close_ms_p75", quantile(&close_ms, 0.75));
    let cfg = engine.config();
    let ring_bins = WindowedArrivals::new(cfg.request_window.clone()).ring_bins()
        + WindowedArrivals::new(cfg.session_window.clone()).ring_bins();
    m.set("window.ring_bins", ring_bins as f64);
    m.check(summary.records == records.len() as u64, || {
        format!(
            "engine counted {} of {} records",
            summary.records,
            records.len()
        )
    });
    Ok((summary, records))
}

/// One checkpoint as the supervisor writes it: export, encode, save.
/// `save` encodes again internally; `checkpoint.save_s` is the whole call.
fn save_checkpoint(
    engine: &StreamAnalyzer,
    source: SourcePosition,
    written: u64,
    path: &Path,
    m: &mut Metrics,
) -> Result<()> {
    let state = m.time("checkpoint.export_s", || engine.export_state());
    let ck = Checkpoint {
        config: engine.config().clone(),
        engine: state,
        source,
        events_seq: 0,
        poison: Default::default(),
        recoveries: 0,
        transient_retries: 0,
        checkpoints_written: written,
        governor_state: 0,
    };
    let bytes = m.time("checkpoint.encode_s", || ck.encode());
    m.set("checkpoint.bytes", bytes.len() as f64);
    m.time("checkpoint.save_s", || ck.save(path))?;
    m.add("checkpoint.count", 1.0);
    Ok(())
}

/// Replay the records through the sessionizer, the window estimators and
/// the drift observatory, in the order `StreamAnalyzer` calls them.
fn replay_layers(records: &[LogRecord], summary: &StreamSummary, m: &mut Metrics) -> Result<()> {
    let cfg = StreamConfig::default();
    let window_len = cfg.request_window.window_len;
    let mut sessionizer =
        StreamSessionizer::new(cfg.session_threshold)?.with_max_open(cfg.max_open_sessions);
    let mut requests = WindowMirror::new(cfg.request_window.clone());
    let mut sessions = WindowMirror::new(cfg.session_window.clone());
    let mut observatory = DriftObservatory::new(&cfg.observatory, window_len);
    let mut bytes_tail = TopK::new(cfg.tail_k);
    let mut window_bytes = Welford::new();
    let mut evicted = Vec::new();
    let mut observe =
        |closed: &[WindowReport], bytes_tail: &TopK, window_bytes: &Welford, m: &mut Metrics| {
            let hill_alpha = bytes_tail.hill_with_k_max(bytes_tail.batch_k_max(cfg.tail_fraction));
            for (i, w) in closed.iter().enumerate() {
                let obs = WindowObservation {
                    index: w.index,
                    start: w.start,
                    rate: w.events as f64 / window_len,
                    bytes_mean: (i == 0 && window_bytes.count() > 0).then(|| window_bytes.mean()),
                    hill_alpha,
                    h_variance_time: w.h_variance_time,
                };
                m.time("observatory.busy_s", || observatory.observe(&obs));
            }
        };

    for record in records {
        let started = m.time("sessionizer.busy_s", || {
            sessionizer.push(record, &mut evicted)
        })?;
        let closed = requests.push(record.timestamp, m)?;
        if closed > 0 {
            let from = requests.reports.len() - closed;
            observe(&requests.reports[from..], &bytes_tail, &window_bytes, m);
            window_bytes = Welford::new();
        }
        window_bytes.push(record.bytes as f64);
        if started {
            sessions.push(record.timestamp, m)?;
        }
        for s in evicted.drain(..) {
            bytes_tail.push(s.bytes as f64);
        }
    }
    m.time("sessionizer.busy_s", || sessionizer.finish(&mut evicted));
    for s in evicted.drain(..) {
        bytes_tail.push(s.bytes as f64);
    }
    let closed = requests.finish(m)?;
    if closed > 0 {
        let from = requests.reports.len() - closed;
        observe(&requests.reports[from..], &bytes_tail, &window_bytes, m);
    }
    sessions.finish(m)?;
    m.set(
        "sessionizer.peak_open",
        sessionizer.peak_open_sessions() as f64,
    );

    m.check(requests.reports == summary.request_windows, || {
        "replayed request windows differ from the engine's".to_string()
    });
    m.check(sessions.reports == summary.session_windows, || {
        "replayed session windows differ from the engine's".to_string()
    });
    m.check(observatory.summary() == summary.drift, || {
        "replayed drift summary differs from the engine's".to_string()
    });
    m.check(sessionizer.emitted() == summary.sessions, || {
        format!(
            "replayed sessionizer emitted {} sessions, engine {}",
            sessionizer.emitted(),
            summary.sessions
        )
    });
    Ok(())
}

/// The binning of `WindowedArrivals`, with each estimator call at window
/// close made here so it can be timed.
struct WindowMirror {
    cfg: WindowConfig,
    coarse: Vec<f64>,
    fine: Vec<f64>,
    times: Vec<f64>,
    index: u64,
    last: f64,
    reports: Vec<WindowReport>,
}

impl WindowMirror {
    fn new(cfg: WindowConfig) -> Self {
        let coarse = (cfg.window_len / cfg.bin_width).ceil().max(1.0) as usize;
        let fine = cfg
            .fine_bin_width
            .map_or(0, |w| (cfg.window_len / w).ceil().max(1.0) as usize);
        WindowMirror {
            cfg,
            coarse: vec![0.0; coarse],
            fine: vec![0.0; fine],
            times: Vec::new(),
            index: 0,
            last: f64::NEG_INFINITY,
            reports: Vec::new(),
        }
    }

    /// Add one arrival; returns how many windows it closed.
    fn push(&mut self, t: f64, m: &mut Metrics) -> Result<usize> {
        self.last = t;
        let before = self.reports.len();
        while t >= (self.index + 1) as f64 * self.cfg.window_len {
            self.close(m)?;
        }
        let offset = t - self.index as f64 * self.cfg.window_len;
        if offset >= 0.0 {
            let c = ((offset / self.cfg.bin_width) as usize).min(self.coarse.len() - 1);
            self.coarse[c] += 1.0;
            if let Some(w) = self.cfg.fine_bin_width {
                let f = ((offset / w) as usize).min(self.fine.len().saturating_sub(1));
                self.fine[f] += 1.0;
            }
            self.times.push(t);
        }
        Ok(self.reports.len() - before)
    }

    /// Close the trailing window if it is at least half covered.
    fn finish(&mut self, m: &mut Metrics) -> Result<usize> {
        let covered = self.last - self.index as f64 * self.cfg.window_len;
        if !self.times.is_empty() && covered >= self.cfg.window_len / 2.0 {
            self.close(m)?;
            return Ok(1);
        }
        Ok(0)
    }

    fn close(&mut self, m: &mut Metrics) -> Result<()> {
        let start = self.index as f64 * self.cfg.window_len;
        let vt = m.time("window.vt_coarse_s", || {
            variance_time_detailed(&self.coarse).ok()
        });
        let h_variance_time_fine = if self.fine.is_empty() {
            None
        } else {
            m.time("window.vt_fine_s", || {
                variance_time_detailed(&self.fine).ok()
            })
            .map(|d| d.estimate.h)
        };
        let hourly = ((self.cfg.window_len / 3_600.0).round() as usize).max(2);
        let ten_min = ((self.cfg.window_len / 600.0).round() as usize).max(2);
        let poisson_hourly = m.time("window.poisson_s", || self.poisson(start, hourly))?;
        let poisson_ten_min = m.time("window.poisson_s", || self.poisson(start, ten_min))?;
        self.reports.push(WindowReport {
            index: self.index,
            start,
            events: self.times.len() as u64,
            h_variance_time: vt.as_ref().map(|d| d.estimate.h),
            h_ci_half_width: vt.as_ref().map(|d| d.h_ci_half_width),
            h_r_squared: vt.as_ref().map(|d| d.fit.r_squared),
            h_points: vt.as_ref().map_or(0, |d| d.points as u64),
            h_variance_time_fine,
            poisson_hourly,
            poisson_ten_min,
        });
        self.coarse.fill(0.0);
        self.fine.fill(0.0);
        self.times.clear();
        self.index += 1;
        Ok(())
    }

    fn poisson(&self, start: f64, subintervals: usize) -> Result<PoissonVerdict> {
        if self.times.is_empty() {
            return Ok(PoissonVerdict::NotApplicable);
        }
        let outcome = poisson_arrival_test(
            &self.times,
            start,
            self.cfg.window_len,
            subintervals,
            TieSpreading::Uniform,
            self.cfg.min_poisson_arrivals,
            self.cfg.seed,
        )?;
        Ok(outcome.map_or(PoissonVerdict::NotApplicable, |o| o.verdict()))
    }
}
