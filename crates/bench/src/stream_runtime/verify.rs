//! `--verify-batch`: re-run the batch pipeline over the input file and
//! check the streaming results against it (DESIGN.md §9 tolerance
//! bands).

use std::fs::File;
use std::io::Read;
use std::sync::atomic::Ordering;

use webpuzzle_core::{poisson_arrival_test, PoissonVerdict, TieSpreading};
use webpuzzle_heavytail::hill_plot;
use webpuzzle_lrd::variance_time;
use webpuzzle_stream::{StreamConfig, StreamSummary, WindowConfig, WindowReport};
use webpuzzle_timeseries::CountSeries;
use webpuzzle_weblog::clf::{parse_log, parse_log_lenient};
use webpuzzle_weblog::{sessionize, Session};

use super::{stream_config, verdict_str, Args, QUIET};

/// DESIGN.md §9 tolerance band on Hill tail indices.
const HILL_TOLERANCE: f64 = 0.15;
/// DESIGN.md §9 tolerance band on per-window variance-time H (the
/// computations are bit-identical; the band only absorbs round-off).
const H_TOLERANCE: f64 = 1e-9;
/// DESIGN.md §9 relative tolerance on Welford vs two-pass moments.
const MOMENT_RTOL: f64 = 1e-6;

/// One drift check: prints PASS/DRIFT and returns 1 on drift.
fn check(label: &str, ok: bool, detail: String) -> u32 {
    if ok {
        say!("  PASS  {label:<28} {detail}");
        0
    } else {
        // Drifts always print, even under --quiet: they are the verdict.
        println!("  DRIFT {label:<28} {detail}");
        1
    }
}

fn close_rel(a: f64, b: f64, rtol: f64) -> bool {
    (a - b).abs() <= rtol * a.abs().max(b.abs()).max(1.0)
}

fn check_optional(label: &str, stream: Option<f64>, batch: Option<f64>, tol: f64) -> u32 {
    match (stream, batch) {
        (Some(s), Some(b)) => check(
            label,
            (s - b).abs() <= tol,
            format!("stream {s:.4} batch {b:.4} (tol {tol})"),
        ),
        (None, None) => check(label, true, "both NA".to_string()),
        (s, b) => check(label, false, format!("stream {s:?} batch {b:?}")),
    }
}

/// Outer-half Hill plot mean — the same assessment the streaming top-k
/// estimator computes, without the plateau CV gate (which only decides
/// whether the batch pipeline *reports* the value).
fn batch_hill_mean(values: &[f64], tail_fraction: f64) -> Option<f64> {
    let positive: Vec<f64> = values.iter().copied().filter(|&v| v > 0.0).collect();
    let plot = hill_plot(&positive, tail_fraction).ok()?;
    let k_max = plot.last()?.0;
    let window: Vec<f64> = plot
        .iter()
        .filter(|(k, _)| *k >= k_max / 2)
        .map(|(_, a)| *a)
        .collect();
    Some(window.iter().sum::<f64>() / window.len() as f64)
}

fn batch_windows(times: &[f64], reports: &[WindowReport], cfg: &WindowConfig, label: &str) -> u32 {
    let mut drift = 0;
    for report in reports {
        let start = report.start;
        let in_window: Vec<f64> = times
            .iter()
            .copied()
            .filter(|&t| t >= start && t < start + cfg.window_len)
            .collect();
        drift += check(
            &format!("{label} win{} events", report.index),
            in_window.len() as u64 == report.events,
            format!("stream {} batch {}", report.events, in_window.len()),
        );
        let n_bins = (cfg.window_len / cfg.bin_width).ceil().max(1.0) as usize;
        let batch_h =
            CountSeries::from_event_times_in_window(&in_window, cfg.bin_width, start, n_bins)
                .ok()
                .and_then(|s| variance_time(s.counts()).ok())
                .map(|e| e.h);
        drift += check_optional(
            &format!("{label} win{} H", report.index),
            report.h_variance_time,
            batch_h,
            H_TOLERANCE,
        );
        for (name, subs, got) in [
            ("hourly", 3_600.0, report.poisson_hourly),
            ("10-min", 600.0, report.poisson_ten_min),
        ] {
            let subintervals = ((cfg.window_len / subs).round() as usize).max(2);
            let batch_verdict = if in_window.is_empty() {
                PoissonVerdict::NotApplicable
            } else {
                poisson_arrival_test(
                    &in_window,
                    start,
                    cfg.window_len,
                    subintervals,
                    TieSpreading::Uniform,
                    cfg.min_poisson_arrivals,
                    cfg.seed,
                )
                .ok()
                .flatten()
                .map_or(PoissonVerdict::NotApplicable, |o| o.verdict())
            };
            drift += check(
                &format!("{label} win{} poisson {name}", report.index),
                got == batch_verdict,
                format!(
                    "stream {} batch {}",
                    verdict_str(got),
                    verdict_str(batch_verdict)
                ),
            );
        }
    }
    drift
}

pub(super) fn verify_batch(
    args: &Args,
    path: &str,
    summary: &StreamSummary,
    stream_skipped: u64,
) -> u32 {
    say!("verify-batch: re-running the batch pipeline on {path}");
    let mut text = String::new();
    // Batch verification is inherently un-streamed: it exists to check
    // the one-pass path against the reference, so it may buffer.
    let mut file = File::open(path).expect("verify-batch: reopen input");
    file.read_to_string(&mut text)
        .expect("verify-batch: read input");
    let (records, batch_skipped) = if args.lenient {
        let lenient = parse_log_lenient(&text, args.base_epoch);
        (lenient.records, lenient.skipped)
    } else {
        (
            parse_log(&text, args.base_epoch).expect("strict batch parse"),
            0,
        )
    };
    let sessions: Vec<Session> = sessionize(&records, args.threshold).expect("batch sessionize");

    let mut drift = 0;
    drift += check(
        "records",
        summary.records == records.len() as u64,
        format!("stream {} batch {}", summary.records, records.len()),
    );
    drift += check(
        "skipped lines",
        stream_skipped == batch_skipped,
        format!("stream {stream_skipped} batch {batch_skipped}"),
    );
    drift += check(
        "sessions",
        summary.sessions == sessions.len() as u64,
        format!("stream {} batch {}", summary.sessions, sessions.len()),
    );
    let batch_bytes: u64 = records.iter().map(|r| r.bytes).sum();
    drift += check(
        "bytes",
        summary.bytes == batch_bytes,
        format!("stream {} batch {batch_bytes}", summary.bytes),
    );

    let durations: Vec<f64> = sessions.iter().map(|s| s.duration()).collect();
    let request_counts: Vec<f64> = sessions.iter().map(|s| s.request_count as f64).collect();
    let session_bytes: Vec<f64> = sessions.iter().map(|s| s.bytes as f64).collect();
    for (label, stream_mean, values) in [
        ("duration mean", summary.session_duration.mean, &durations),
        (
            "requests mean",
            summary.session_requests.mean,
            &request_counts,
        ),
        (
            "bytes/session mean",
            summary.session_bytes.mean,
            &session_bytes,
        ),
    ] {
        let batch_mean = values.iter().sum::<f64>() / values.len().max(1) as f64;
        drift += check(
            label,
            close_rel(stream_mean, batch_mean, MOMENT_RTOL),
            format!("stream {stream_mean:.6} batch {batch_mean:.6}"),
        );
    }

    let tail_fraction = StreamConfig::default().tail_fraction;
    for (label, tail, values) in [
        ("hill α duration", &summary.duration_tail, &durations),
        ("hill α requests", &summary.requests_tail, &request_counts),
        ("hill α bytes", &summary.bytes_tail, &session_bytes),
    ] {
        drift += check_optional(
            label,
            tail.alpha,
            batch_hill_mean(values, tail_fraction),
            HILL_TOLERANCE,
        );
    }

    let request_times: Vec<f64> = records.iter().map(|r| r.timestamp).collect();
    let mut session_starts: Vec<f64> = sessions.iter().map(|s| s.start).collect();
    session_starts.sort_by(|a, b| a.partial_cmp(b).expect("finite starts"));
    let cfg = stream_config(args);
    drift += batch_windows(
        &request_times,
        &summary.request_windows,
        &cfg.request_window,
        "req",
    );
    drift += batch_windows(
        &session_starts,
        &summary.session_windows,
        &cfg.session_window,
        "sess",
    );
    drift
}
