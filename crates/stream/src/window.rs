//! Windowed arrival analysis: the variance-time estimator at 1 s and
//! 10 ms and the §4.2 Poisson battery, window by window.
//!
//! The batch pipeline bins a whole week of arrivals at once; here a
//! fixed analysis window (default: the paper's 4-hour interval) keeps
//! only the raw arrival times of the *current window*. When the stream
//! crosses a window boundary the completed window's times are binned
//! on the fly and both variance-time fits run sparsely
//! ([`variance_time_sparse`]), bit-identical to fits over dense count
//! series but without materializing them: a 4-hour window at 10 ms is
//! 1.44M bins, almost all empty. Memory is `O(window arrivals)` —
//! nothing outlives its window except the small [`WindowReport`] per
//! window.

use crate::Result;
use serde::{Deserialize, Serialize};
use webpuzzle_core::{poisson_arrival_test, PoissonVerdict, TieSpreading};
use webpuzzle_lrd::{variance_time_sparse, VarianceTimeFit};

/// Configuration of the per-window analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowConfig {
    /// Window length in seconds (paper: 4-hour intervals).
    pub window_len: f64,
    /// Coarse bin width, seconds (paper: 1 s arrival counts).
    pub bin_width: f64,
    /// Optional fine bin width, seconds (default 10 ms) for a
    /// sub-second variance-time reading; `None` disables it.
    pub fine_bin_width: Option<f64>,
    /// Minimum arrivals per Poisson subinterval; below it the window
    /// verdict is NA (the paper's NASA-Pub2 situation).
    pub min_poisson_arrivals: usize,
    /// Seed for the Poisson battery's uniform tie-spreading.
    pub seed: u64,
}

impl Default for WindowConfig {
    fn default() -> Self {
        WindowConfig {
            window_len: 14_400.0,
            bin_width: 1.0,
            fine_bin_width: Some(0.01),
            min_poisson_arrivals: 50,
            seed: 0,
        }
    }
}

/// Analysis of one completed window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowReport {
    /// Zero-based window index (window `i` covers
    /// `[i·window_len, (i+1)·window_len)`).
    pub index: u64,
    /// Window start time, seconds.
    pub start: f64,
    /// Arrivals in the window.
    pub events: u64,
    /// Variance-time Hurst estimate over the coarse (per-second) counts;
    /// `None` when the window is too quiet for the estimator.
    pub h_variance_time: Option<f64>,
    /// Half-width of the 95% CI on `h_variance_time` (t-based, from
    /// the OLS residuals, inflated per `webpuzzle_lrd::VT_CI_INFLATION`).
    pub h_ci_half_width: Option<f64>,
    /// R² of the coarse variance-time regression.
    pub h_r_squared: Option<f64>,
    /// Aggregation levels used by the coarse fit (0 when the
    /// estimator did not run).
    pub h_points: u64,
    /// Variance-time Hurst estimate over the fine (per-10-ms) counts.
    pub h_variance_time_fine: Option<f64>,
    /// §4.2 Poisson verdict at hourly subinterval rates.
    pub poisson_hourly: PoissonVerdict,
    /// §4.2 Poisson verdict at 10-minute subinterval rates.
    pub poisson_ten_min: PoissonVerdict,
}

/// Complete mutable state of a [`WindowedArrivals`] accumulator, for
/// checkpointing. The raw arrival times of the current (partial)
/// window are all that its closing analysis needs: both variance-time
/// fits and the Poisson battery derive from them.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalsState {
    /// Raw arrival times of the current window.
    pub times: Vec<f64>,
    /// Index of the current (open) window.
    pub window_index: u64,
    /// Last arrival time seen (`-inf` before the first).
    pub last_time: f64,
    /// Total arrivals accepted.
    pub total_events: u64,
}

/// Streaming window accumulator over one arrival process.
///
/// Feed event times in nondecreasing order via
/// [`WindowedArrivals::push`]; completed [`WindowReport`]s are appended
/// to the supplied buffer as boundaries are crossed. The trailing
/// partial window is analyzed by [`WindowedArrivals::finish`] only if
/// it is at least half covered (a 10-minute stub of a 4-hour window
/// would produce noise, not measurement).
#[derive(Debug)]
pub struct WindowedArrivals {
    cfg: WindowConfig,
    times: Vec<f64>,
    window_index: u64,
    last_time: f64,
    total_events: u64,
}

impl WindowedArrivals {
    /// Create an accumulator with the given window configuration.
    pub fn new(cfg: WindowConfig) -> Self {
        WindowedArrivals {
            cfg,
            times: Vec::new(),
            window_index: 0,
            last_time: f64::NEG_INFINITY,
            total_events: 0,
        }
    }

    /// Feed one arrival time (seconds, nondecreasing). Completed
    /// windows are analyzed and appended to `out`.
    ///
    /// # Errors
    ///
    /// Propagates estimator failures other than the expected
    /// too-little-data cases (which map to `None`/NA in the report).
    pub fn push(&mut self, t: f64, out: &mut Vec<WindowReport>) -> Result<()> {
        debug_assert!(t >= self.last_time, "arrival times must be nondecreasing");
        self.last_time = t;
        // Close every window the stream has moved past (quiet stretches
        // produce empty windows, which are reported as such).
        while t >= (self.window_index + 1) as f64 * self.cfg.window_len {
            let report = self.close_window()?;
            out.push(report);
        }
        let start = self.window_index as f64 * self.cfg.window_len;
        if t >= start {
            self.times.push(t);
            self.total_events += 1;
        }
        Ok(())
    }

    /// Analyze the trailing partial window if it is at least half
    /// covered, then reset. Returns the final report, if any.
    ///
    /// # Errors
    ///
    /// Propagates unexpected estimator failures, as in
    /// [`WindowedArrivals::push`].
    pub fn finish(&mut self, out: &mut Vec<WindowReport>) -> Result<()> {
        let start = self.window_index as f64 * self.cfg.window_len;
        let covered = self.last_time - start;
        if !self.times.is_empty() && covered >= self.cfg.window_len / 2.0 {
            let report = self.close_window()?;
            out.push(report);
        }
        Ok(())
    }

    /// Would an arrival at time `t` close the current window? A cheap
    /// pre-check (one comparison) the engine uses to decide whether to
    /// time the window section for the flight recorder before paying
    /// for any timestamps.
    pub fn would_close(&self, t: f64) -> bool {
        t >= (self.window_index + 1) as f64 * self.cfg.window_len
    }

    /// Total arrivals accepted so far.
    pub fn total_events(&self) -> u64 {
        self.total_events
    }

    /// Count bins held resident between arrivals (diagnostic). Always
    /// 0: counts are derived from the window's arrival times at close,
    /// so memory is `O(window arrivals)`, not `O(window bins)`.
    pub fn ring_bins(&self) -> usize {
        0
    }

    /// Export the accumulator's mutable state for checkpointing.
    pub fn export_state(&self) -> ArrivalsState {
        ArrivalsState {
            times: self.times.clone(),
            window_index: self.window_index,
            last_time: self.last_time,
            total_events: self.total_events,
        }
    }

    /// Rebuild an accumulator from a configuration plus exported state.
    pub fn restore(cfg: WindowConfig, state: ArrivalsState) -> Self {
        WindowedArrivals {
            cfg,
            times: state.times,
            window_index: state.window_index,
            last_time: state.last_time,
            total_events: state.total_events,
        }
    }

    fn close_window(&mut self) -> Result<WindowReport> {
        let _span = webpuzzle_obs::span!("stream/window_analysis");
        let start = self.window_index as f64 * self.cfg.window_len;
        let events = self.times.len() as u64;

        let vt = self.variance_time(start, self.cfg.bin_width);
        let h_variance_time = vt.as_ref().map(|d| d.estimate.h);
        let h_ci_half_width = vt.as_ref().map(|d| d.h_ci_half_width);
        let h_r_squared = vt.as_ref().map(|d| d.fit.r_squared);
        let h_points = vt.as_ref().map_or(0, |d| d.points as u64);
        let h_variance_time_fine = self
            .cfg
            .fine_bin_width
            .and_then(|w| self.variance_time(start, w))
            .map(|d| d.estimate.h);

        let subs_hourly = ((self.cfg.window_len / 3_600.0).round() as usize).max(2);
        let subs_ten_min = ((self.cfg.window_len / 600.0).round() as usize).max(2);
        let poisson_hourly = self.poisson_verdict(start, subs_hourly)?;
        let poisson_ten_min = self.poisson_verdict(start, subs_ten_min)?;

        let report = WindowReport {
            index: self.window_index,
            start,
            events,
            h_variance_time,
            h_ci_half_width,
            h_r_squared,
            h_points,
            h_variance_time_fine,
            poisson_hourly,
            poisson_ten_min,
        };

        self.times.clear();
        self.window_index += 1;
        Ok(report)
    }

    /// Variance-time fit of the window's counts in bins of width `w`
    /// (`None` when the window is too quiet for the estimator). An
    /// arrival at offset `t − start` lands in bin `⌊(t − start)/w⌋`,
    /// clamped into the last bin.
    fn variance_time(&self, start: f64, w: f64) -> Option<VarianceTimeFit> {
        let n = (self.cfg.window_len / w).ceil().max(1.0) as usize;
        let bins: Vec<usize> = self
            .times
            .iter()
            .map(|&t| (((t - start) / w) as usize).min(n - 1))
            .collect();
        variance_time_sparse(&bins, n).ok()
    }

    fn poisson_verdict(&self, start: f64, subintervals: usize) -> Result<PoissonVerdict> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use webpuzzle_stats::dist::{Exponential, Sampler};

    fn cfg(window_len: f64) -> WindowConfig {
        WindowConfig {
            window_len,
            bin_width: 1.0,
            fine_bin_width: None,
            min_poisson_arrivals: 20,
            seed: 3,
        }
    }

    /// Poisson arrivals at `rate`/s over `[0, horizon)`.
    fn poisson_times(rate: f64, horizon: f64, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let exp = Exponential::new(rate).unwrap();
        let mut t = 0.0;
        let mut out = Vec::new();
        loop {
            t += exp.sample(&mut rng);
            if t >= horizon {
                return out;
            }
            out.push(t);
        }
    }

    #[test]
    fn windows_close_at_boundaries() {
        let mut w = WindowedArrivals::new(cfg(3_600.0));
        let mut out = Vec::new();
        for t in poisson_times(2.0, 9_000.0, 1) {
            w.push(t, &mut out).unwrap();
        }
        // 9000 s = 2 full hours + a 0.5-hour stub (< half: dropped).
        w.finish(&mut out).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].index, 0);
        assert_eq!(out[1].start, 3_600.0);
        assert!(out.iter().all(|r| r.events > 6_000));
    }

    #[test]
    fn true_poisson_stream_passes_the_battery() {
        let mut w = WindowedArrivals::new(cfg(14_400.0));
        let mut out = Vec::new();
        for t in poisson_times(1.5, 14_400.0, 17) {
            w.push(t, &mut out).unwrap();
        }
        w.finish(&mut out).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].poisson_hourly, PoissonVerdict::ConsistentWithPoisson);
        // Poisson counts are i.i.d.: variance-time H near 1/2.
        let h = out[0].h_variance_time.expect("14400 bins is plenty");
        assert!((h - 0.5).abs() < 0.12, "H = {h}");
        // The regression diagnostics ride along with the estimate.
        let half = out[0].h_ci_half_width.expect("fit carries a CI");
        assert!(half > 0.0 && half < 0.5, "half = {half}");
        let r2 = out[0].h_r_squared.expect("fit carries R²");
        assert!((0.0..=1.0).contains(&r2), "R² = {r2}");
        assert!(out[0].h_points >= 3);
    }

    #[test]
    fn empty_window_has_no_fit_diagnostics() {
        let mut w = WindowedArrivals::new(cfg(600.0));
        let mut out = Vec::new();
        w.push(5.0, &mut out).unwrap();
        // Jump two windows ahead: window 1 closes empty (all-zero counts
        // → degenerate variance-time input).
        w.push(1_300.0, &mut out).unwrap();
        assert_eq!(out[1].events, 0);
        assert!(out[1].h_variance_time.is_none());
        assert!(out[1].h_ci_half_width.is_none());
        assert!(out[1].h_r_squared.is_none());
        assert_eq!(out[1].h_points, 0);
    }

    #[test]
    fn quiet_windows_are_na_and_empty_windows_report_zero() {
        let mut w = WindowedArrivals::new(cfg(600.0));
        let mut out = Vec::new();
        w.push(5.0, &mut out).unwrap();
        w.push(10.0, &mut out).unwrap();
        // Jump three windows ahead: windows 0..=2 close, 1 and 2 empty.
        w.push(1_900.0, &mut out).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].events, 2);
        assert_eq!(out[0].poisson_hourly, PoissonVerdict::NotApplicable);
        assert_eq!(out[1].events, 0);
        assert_eq!(out[2].events, 0);
    }

    #[test]
    fn state_round_trip_closes_identical_windows() {
        let times = poisson_times(2.0, 9_500.0, 11);
        let split = times.len() / 3;

        let mut whole = WindowedArrivals::new(cfg(3_600.0));
        let mut whole_out = Vec::new();
        for &t in &times {
            whole.push(t, &mut whole_out).unwrap();
        }
        whole.finish(&mut whole_out).unwrap();

        let mut first = WindowedArrivals::new(cfg(3_600.0));
        let mut split_out = Vec::new();
        for &t in &times[..split] {
            first.push(t, &mut split_out).unwrap();
        }
        let state = first.export_state();
        let mut second = WindowedArrivals::restore(cfg(3_600.0), state.clone());
        assert_eq!(second.export_state(), state);
        for &t in &times[split..] {
            second.push(t, &mut split_out).unwrap();
        }
        second.finish(&mut split_out).unwrap();

        assert_eq!(split_out, whole_out);
        assert_eq!(second.total_events(), whole.total_events());
    }

    #[test]
    fn fine_ring_reports_when_enabled() {
        let mut w = WindowedArrivals::new(WindowConfig {
            window_len: 600.0,
            bin_width: 1.0,
            fine_bin_width: Some(0.1),
            min_poisson_arrivals: 20,
            seed: 0,
        });
        let mut out = Vec::new();
        let times = poisson_times(5.0, 1_200.0, 9);
        for &t in &times {
            w.push(t, &mut out).unwrap();
        }
        // Memory contract: no count bins are resident; the open window
        // holds exactly its own arrival times.
        assert_eq!(w.ring_bins(), 0);
        let open = times.iter().filter(|&&t| t >= 600.0).count();
        assert_eq!(w.export_state().times.len(), open);
        w.finish(&mut out).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out[0].h_variance_time_fine.is_some());
    }
}
