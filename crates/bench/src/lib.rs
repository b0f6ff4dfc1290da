//! Shared helpers for the benchmark harness and the binaries.
//!
//! The interesting entry points live in `src/bin/repro.rs` (table/figure
//! reproduction), [`stream_runtime`] (the one streaming runtime behind
//! `stream-analyze` and `stream-serve`) and `benches/` (criterion
//! performance benches); the rest of this library hosts the small
//! utilities they share.

pub mod stream_runtime;

use webpuzzle_core::Result;
use webpuzzle_obs::profile;
use webpuzzle_stream::{ClfSource, Source, StreamAnalyzer, StreamConfig, WindowConfig};
use webpuzzle_weblog::clf::format_line;
use webpuzzle_weblog::{LogRecord, Method, WeekDataset};
use webpuzzle_workload::{ServerProfile, WorkloadGenerator};

/// Generate the standard four-server datasets at the given volume scale.
///
/// # Errors
///
/// Propagates generator failures (none for the built-in profiles).
///
/// # Examples
///
/// ```
/// let sets = webpuzzle_bench::standard_datasets(0.005, 1).unwrap();
/// assert_eq!(sets.len(), 4);
/// assert_eq!(sets[0].0, "WVU");
/// ```
pub fn standard_datasets(scale: f64, seed: u64) -> Result<Vec<(&'static str, WeekDataset)>> {
    let mut out = Vec::with_capacity(4);
    for profile in ServerProfile::all() {
        let name = profile.name();
        let records = WorkloadGenerator::new(profile.with_scale(scale))
            .seed(seed)
            .generate()?;
        let dataset = WeekDataset::from_records(records, 1800.0)
            .expect("generated records lie within the week window");
        out.push((name, dataset));
    }
    Ok(out)
}

/// Render a float that may be absent (the paper's NA/NS cells).
pub fn cell(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.3}"),
        None => "NS/NA".to_string(),
    }
}

/// Synthetic CLF text for profiler calibration: `n` well-formed lines,
/// 10 ms apart, with enough client/path/byte variety to exercise the
/// sessionizer and the online estimators.
fn calibration_log(n: usize) -> String {
    const BASE_EPOCH: i64 = 1_073_865_600;
    (0..n)
        .map(|i| {
            let rec = LogRecord::new(
                i as f64 * 0.01,
                (i % 97) as u32,
                Method::Get,
                (i % 31) as u32,
                200,
                200 + (i % 1_000) as u64,
            );
            format_line(&rec, BASE_EPOCH) + "\n"
        })
        .collect()
}

/// Measure the flight recorder's own cost: run the full `ClfSource` →
/// [`StreamAnalyzer`] path over `n_records` synthetic records with
/// profiling off and on (1-in-`sample_every`), paired and alternating,
/// and return `(t_on − t_off) / t_off` as a percentage (clamped at 0).
///
/// The minimum over 5–9 paired rounds suppresses scheduler noise (a
/// one-sided load burst inflates single rounds, never the minimum;
/// late rounds are spaced out to wait bursts out); alternating arms
/// keeps cache and frequency state comparable. The measurement drives the
/// *global* profiler and metrics registry — callers should
/// [`webpuzzle_obs::reset`] (or at least [`profile::clear`]) afterwards
/// so synthetic samples never leak into a real run's report. The
/// profiler is left disabled on return.
///
/// # Panics
///
/// Panics if the synthetic log fails to parse or push — both would be
/// bugs, not runtime conditions.
pub fn measure_profile_overhead_pct(n_records: usize, sample_every: u64) -> f64 {
    paired_overhead_pct(n_records, |on| {
        if on {
            profile::enable(sample_every);
        } else {
            profile::disable();
        }
    })
}

/// Measure the telemetry-history sampler's cost to the engine: run the
/// full `ClfSource` → [`StreamAnalyzer`] path over `n_records`
/// synthetic records with the global sampler stopped and running (at
/// `interval_ms` cadence), paired and alternating, and return
/// `(t_on − t_off) / t_off` as a percentage (clamped at 0). The same
/// min-over-rounds noise rejection as [`measure_profile_overhead_pct`];
/// the sampler thread and its store are torn down on return.
///
/// # Panics
///
/// Panics if the synthetic log fails to parse or push — both would be
/// bugs, not runtime conditions.
pub fn measure_history_overhead_pct(n_records: usize, interval_ms: u64) -> f64 {
    let mut sampler = None;
    paired_overhead_pct(n_records, |on| {
        if on {
            sampler = Some(webpuzzle_obs::tsdb::start_sampler(
                webpuzzle_obs::tsdb::TsdbConfig {
                    interval: std::time::Duration::from_millis(interval_ms.max(1)),
                    ..webpuzzle_obs::tsdb::TsdbConfig::default()
                },
            ));
        } else if let Some(handle) = sampler.take() {
            handle.shutdown();
            webpuzzle_obs::tsdb::uninstall();
        }
    })
}

/// The calibration harness behind both overhead measurements: time
/// `n_records` synthetic records through `ClfSource` →
/// [`StreamAnalyzer`] with `arm(false)` and then `arm(true)` applied,
/// and return the minimum over paired rounds of `(t_on − t_off) /
/// t_off` as a percentage (clamped at 0). `arm(false)` runs after the
/// last round, so the measured feature is off on return.
fn paired_overhead_pct(n_records: usize, mut arm: impl FnMut(bool)) -> f64 {
    const BASE_EPOCH: i64 = 1_073_865_600;
    let text = calibration_log(n_records);
    // Fine (10 ms) variance-time fit off: it only runs at window close,
    // identically in both arms, so it would add work but no signal.
    let cfg = StreamConfig {
        request_window: WindowConfig {
            fine_bin_width: None,
            ..WindowConfig::default()
        },
        ..StreamConfig::default()
    };
    let run = |text: &str| -> f64 {
        let mut engine = StreamAnalyzer::new(cfg.clone()).expect("valid calibration config");
        let mut src = ClfSource::new(text.as_bytes(), BASE_EPOCH);
        let t0 = std::time::Instant::now();
        while let Some(item) = src.next_item() {
            engine
                .push(&item.expect("calibration line parses"))
                .expect("sorted calibration input");
        }
        engine.finish().expect("calibration finish");
        t0.elapsed().as_secs_f64()
    };
    // Each round times both arms back to back and yields its own
    // overhead estimate; the minimum across rounds is the answer. A
    // load burst on a shared core contaminates one arm of one round
    // and inflates only that round's estimate, which the min rejects,
    // while a real cost shows up in every round and survives it.
    // (Taking per-arm minima instead lets a burst that straddles only
    // the enabled arms of every round masquerade as overhead.)
    let mut pct = f64::INFINITY;
    for round in 0..9 {
        arm(false);
        let t_off = run(&text);
        arm(true);
        let t_on = run(&text);
        arm(false);
        pct = pct.min((t_on - t_off) / t_off.max(1e-12) * 100.0);
        if round >= 4 {
            // Five clean-ish rounds are enough; if the estimate is
            // still high, a co-tenant burst may have outlasted the
            // whole back-to-back sequence, so space the remaining
            // rounds out with growing pauses to straddle it.
            if pct <= 1.0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(50 << (round - 4)));
        }
    }
    pct.max(0.0)
}

/// What `--telemetry-history` / `--slo` ask for, shared by the
/// stream runtime (`stream-analyze`, `stream-serve`) and `repro`.
#[derive(Debug, Clone)]
pub struct HistoryOptions {
    /// `--telemetry-history`: sample the registry on a cadence.
    pub enabled: bool,
    /// `--telemetry-interval-ms`: sampling cadence (min 1 ms).
    pub interval_ms: u64,
    /// `--slo`: evaluate burn-rate objectives after every tick.
    pub slo: bool,
    /// `--slo-file`: objectives file (default `slo.toml`).
    pub slo_file: std::path::PathBuf,
}

/// Install the SLO engine (when asked) and start the telemetry-history
/// sampler. `None` when neither flag is set. The sampler takes an
/// immediate baseline tick before returning, so even a run that
/// finishes within one interval has a well-defined burn-rate window.
///
/// # Errors
///
/// A human-readable message when the objectives file is missing or
/// invalid (a usage error: the caller should exit 2).
pub fn start_history_sampler(
    opts: &HistoryOptions,
) -> std::result::Result<Option<webpuzzle_obs::tsdb::SamplerHandle>, String> {
    if !opts.enabled && !opts.slo {
        return Ok(None);
    }
    if opts.slo {
        let cfg = webpuzzle_obs::slo::SloConfig::load(&opts.slo_file)?;
        webpuzzle_obs::slo::install(cfg);
    }
    Ok(Some(webpuzzle_obs::tsdb::start_sampler(
        webpuzzle_obs::tsdb::TsdbConfig {
            interval: std::time::Duration::from_millis(opts.interval_ms.max(1)),
            ..webpuzzle_obs::tsdb::TsdbConfig::default()
        },
    )))
}

/// Stop the sampler, take one final sample+evaluation pass (the last
/// partial interval must not be lost — short CI runs may complete
/// entirely between two cadence ticks), and return the deep-health
/// verdict when SLOs were enabled. Call *before* collecting the run
/// report so `RunReport::slo` reflects the final state.
pub fn finish_history_sampler(
    handle: Option<webpuzzle_obs::tsdb::SamplerHandle>,
    slo: bool,
) -> Option<webpuzzle_obs::slo::DeepHealth> {
    let handle = handle?;
    handle.shutdown();
    webpuzzle_obs::tsdb::sample_now();
    webpuzzle_obs::slo::evaluate_now();
    slo.then(webpuzzle_obs::slo::deep_health)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_ordered_and_nonempty() {
        let sets = standard_datasets(0.002, 7).unwrap();
        let names: Vec<&str> = sets.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["WVU", "ClarkNet", "CSEE", "NASA-Pub2"]);
        for (name, ds) in &sets {
            assert!(!ds.records().is_empty(), "{name} empty");
        }
    }

    #[test]
    fn cell_formatting() {
        assert_eq!(cell(Some(1.2345)), "1.234");
        assert_eq!(cell(None), "NS/NA");
    }

    #[test]
    fn history_overhead_measurement_is_finite_and_tears_down() {
        let pct = measure_history_overhead_pct(2_000, 10);
        eprintln!("tsdb sampler overhead: {pct:.2}%");
        assert!(pct.is_finite());
        assert!(pct >= 0.0);
        assert!(!webpuzzle_obs::tsdb::is_installed());
        webpuzzle_obs::reset();
    }

    #[test]
    fn overhead_measurement_is_finite_and_leaves_profiler_disabled() {
        let pct = measure_profile_overhead_pct(2_000, 32);
        assert!(pct.is_finite());
        assert!(pct >= 0.0);
        assert!(!profile::is_enabled());
        webpuzzle_obs::reset();
    }
}
