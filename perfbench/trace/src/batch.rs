//! Traced pass of `repro --fast fig6`: the four synthetic server weeks,
//! each run through the steps of `FullWebModel::analyze` in its order,
//! with `AnalysisConfig::fast()` and every estimator called on its own so
//! it can be timed.
//!
//! All metrics are self times: a Whittle call counts in `lrd.whittle_s`
//! whether the Hurst suite or the Ĥ(m) sweep made it, and `lrd.sweep_s`
//! is only the sweep's own aggregation work. The stationary-series
//! Hurst estimates and the week's tail indices are returned as the
//! `fidelity/*` gauges `repro` publishes, so the caller can check that
//! this pass computed what the shipped binary computes.

use std::collections::BTreeMap;
use std::time::Instant;

use webpuzzle_core::{AnalysisConfig, PoissonBattery, SessionMetric};
use webpuzzle_heavytail::{
    curvature_test, hill_estimate, llcd_fit, moment_estimator, CurvatureModel,
};
use webpuzzle_lrd::{
    abry_veitch, periodogram_hurst, rescaled_range, variance_time, whittle, HurstEstimate,
    SweepEstimator,
};
use webpuzzle_stats::htest::{kpss_test, KpssType};
use webpuzzle_timeseries::{acf, aggregate, aggregation_levels, decompose, CountSeries};
use webpuzzle_weblog::{Session, WeekDataset, SECONDS_PER_WEEK};
use webpuzzle_workload::{ServerProfile, WorkloadGenerator};

use crate::{Metrics, Result};

/// Session inactivity threshold `repro` builds its datasets with.
const SESSION_THRESHOLD: f64 = 1_800.0;

type Estimator = fn(&[f64]) -> webpuzzle_lrd::Result<HurstEstimate>;

/// The Hurst suite in `HurstSuite::estimate` order: gauge name, metric, function.
const SUITE: [(&str, &str, Estimator); 5] = [
    ("variance", "lrd.variance_time_s", variance_time),
    ("rs", "lrd.rs_s", rescaled_range),
    ("periodogram", "lrd.periodogram_s", periodogram_hurst),
    ("whittle", "lrd.whittle_s", whittle),
    ("abry_veitch", "lrd.abry_veitch_s", abry_veitch),
];

/// Every layer metric this pass records; together they cover the pass.
const LAYERS: [&str; 15] = [
    "workload.generate_s",
    "weblog.dataset_s",
    "timeseries.bin_s",
    "timeseries.decompose_s",
    "timeseries.acf_s",
    "stats.kpss_s",
    "lrd.whittle_s",
    "lrd.periodogram_s",
    "lrd.variance_time_s",
    "lrd.rs_s",
    "lrd.abry_veitch_s",
    "lrd.sweep_s",
    "core.poisson_battery_s",
    "heavytail.intra_session_s",
    "heavytail.curvature_s",
];

pub fn batch(
    scale: f64,
    seed: u64,
    m: &mut Metrics,
    gauges: &mut BTreeMap<String, f64>,
) -> Result<()> {
    let cfg = AnalysisConfig::fast();
    let start = Instant::now();
    for profile in ServerProfile::all() {
        let name = profile.name();
        let records = m.time("workload.generate_s", || {
            WorkloadGenerator::new(profile.with_scale(scale))
                .seed(seed)
                .generate()
        })?;
        let dataset = m.time("weblog.dataset_s", || {
            WeekDataset::from_records(records, SESSION_THRESHOLD)
        })?;
        m.add("workload.records", dataset.records().len() as f64);

        for (prefix, times) in [
            ("fidelity/h", dataset.request_times()),
            ("fidelity/h_session", dataset.session_start_times()),
        ] {
            for (est, h) in arrival(&times, &cfg, m)? {
                gauges.insert(format!("{prefix}/{name}/{est}"), h);
            }
        }

        let (low, med, high) = dataset.select_low_med_high();
        for interval in [low, med, high] {
            let len = interval.end - interval.start;
            let requests = dataset.request_times_in(&interval);
            let starts = dataset.session_starts_in(&interval);
            m.time("core.poisson_battery_s", || {
                PoissonBattery::run(
                    &requests,
                    interval.start,
                    len,
                    cfg.min_poisson_arrivals,
                    cfg.seed,
                )
            })?;
            m.time("core.poisson_battery_s", || {
                PoissonBattery::run(
                    &starts,
                    interval.start,
                    len,
                    cfg.min_poisson_arrivals,
                    cfg.seed.wrapping_add(1),
                )
            })?;
            tails(&dataset.sessions_in(&interval), &cfg, m);
        }
        for (metric, llcd, hill) in tails(dataset.sessions(), &cfg, m) {
            if let Some(alpha) = llcd {
                gauges.insert(format!("fidelity/alpha/{name}/{metric}/llcd"), alpha);
            }
            if let Some(alpha) = hill {
                gauges.insert(format!("fidelity/alpha/{name}/{metric}/hill"), alpha);
            }
        }
    }
    m.set("trace.wall_s", start.elapsed().as_secs_f64());
    m.set_coverage(&LAYERS);
    Ok(())
}

/// The steps of `ArrivalAnalysis::analyze` over one week of arrivals;
/// returns the stationary series' Hurst estimates.
fn arrival(
    events: &[f64],
    cfg: &AnalysisConfig,
    m: &mut Metrics,
) -> Result<Vec<(&'static str, f64)>> {
    let n_bins = (SECONDS_PER_WEEK / cfg.bin_width).round() as usize;
    let series = m.time("timeseries.bin_s", || {
        CountSeries::from_event_times_in_window(events, cfg.bin_width, 0.0, n_bins)
    })?;
    let counts = series.counts();
    m.time("stats.kpss_s", || kpss_test(counts, KpssType::Level))?;
    let min_p = (cfg.period_search.0 / cfg.bin_width).max(2.1);
    let max_p = (cfg.period_search.1 / cfg.bin_width).min(counts.len() as f64 / 2.0);
    let dec = m.time("timeseries.decompose_s", || {
        decompose(counts, min_p, max_p, cfg.period_snr)
    })?;
    m.time("stats.kpss_s", || {
        kpss_test(&dec.stationary, KpssType::Level)
    })?;
    let max_lag = cfg.acf_max_lag.min(counts.len() / 2 - 1);
    m.time("timeseries.acf_s", || acf(counts, max_lag))?;
    m.time("timeseries.acf_s", || {
        acf(&dec.stationary, max_lag.min(dec.stationary.len() / 2 - 1))
    })?;
    hurst_suite(counts, m);
    let stationary = hurst_suite(&dec.stationary, m);
    sweep(
        &dec.stationary,
        SweepEstimator::Whittle,
        cfg.sweep_min_points,
        m,
    );
    sweep(
        &dec.stationary,
        SweepEstimator::AbryVeitch,
        cfg.sweep_min_points,
        m,
    );
    Ok(stationary)
}

fn hurst_suite(data: &[f64], m: &mut Metrics) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    for (name, metric, estimate) in SUITE {
        if metric == "lrd.whittle_s" {
            m.add("lrd.whittle_calls", 1.0);
        }
        if let Ok(e) = m.time(metric, || estimate(data)) {
            out.push((name, e.h));
        }
    }
    out
}

/// `aggregated_hurst_sweep`, with the estimator calls timed apart from
/// the aggregation.
fn sweep(data: &[f64], estimator: SweepEstimator, min_points: usize, m: &mut Metrics) {
    let t = Instant::now();
    let mut inner = 0.0;
    for level in aggregation_levels(data.len(), min_points.max(128)) {
        let series = if level == 1 {
            data.to_vec()
        } else {
            match aggregate(data, level) {
                Ok(series) => series,
                // `ArrivalAnalysis` keeps an empty sweep when one fails.
                Err(_) => break,
            }
        };
        let (metric, estimate): (&'static str, Estimator) = match estimator {
            SweepEstimator::Whittle => {
                m.add("lrd.whittle_calls", 1.0);
                ("lrd.whittle_s", whittle)
            }
            SweepEstimator::AbryVeitch => ("lrd.abry_veitch_s", abry_veitch),
        };
        let before = m.get(metric);
        let _ = m.time(metric, || estimate(&series));
        inner += m.get(metric) - before;
    }
    m.add("lrd.sweep_s", t.elapsed().as_secs_f64() - inner);
}

/// The three `TailAnalysis` rows over `sessions`: (metric, α_LLCD, α_Hill).
fn tails(
    sessions: &[Session],
    cfg: &AnalysisConfig,
    m: &mut Metrics,
) -> Vec<(&'static str, Option<f64>, Option<f64>)> {
    let mut out = Vec::new();
    for (metric, label) in [
        (SessionMetric::DurationSeconds, "duration"),
        (SessionMetric::RequestCount, "requests"),
        (SessionMetric::BytesTransferred, "bytes"),
    ] {
        let values: Vec<f64> = sessions.iter().filter_map(|s| metric.extract(s)).collect();
        if values.len() < cfg.min_tail_sample {
            continue;
        }
        let llcd = m.time("heavytail.intra_session_s", || {
            llcd_fit(&values, cfg.tail_fraction)
        });
        let hill = m.time("heavytail.intra_session_s", || {
            hill_estimate(&values, cfg.tail_fraction)
        });
        let _ = m.time("heavytail.intra_session_s", || {
            moment_estimator(&values, cfg.tail_fraction)
        });
        for (model, seed) in [
            (CurvatureModel::Pareto, cfg.seed),
            (CurvatureModel::LogNormal, cfg.seed.wrapping_add(1)),
        ] {
            let _ = m.time("heavytail.curvature_s", || {
                curvature_test(
                    &values,
                    model,
                    cfg.tail_fraction,
                    cfg.curvature_replicates,
                    seed,
                )
            });
        }
        out.push((
            label,
            llcd.ok().map(|f| f.alpha),
            hill.ok().and_then(|h| h.alpha),
        ));
    }
    out
}
