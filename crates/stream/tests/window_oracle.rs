//! Bit-exact oracle for the sparse window analysis.
//!
//! `WindowedArrivals` derives both variance-time fits from the window's
//! arrival times at close. The reference below keeps the dense layout
//! it replaced — one count ring per bin width, fed on every arrival and
//! handed to `variance_time_detailed` at close — and every report the
//! sparse accumulator emits must match it to the last bit.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use webpuzzle_core::{poisson_arrival_test, PoissonVerdict, TieSpreading};
use webpuzzle_lrd::variance_time_detailed;
use webpuzzle_stats::dist::{Exponential, Sampler};
use webpuzzle_stream::{WindowConfig, WindowReport, WindowedArrivals};

/// The dense-ring window accumulator: per-bin counts at both widths,
/// filled arrival by arrival.
struct DenseWindows {
    cfg: WindowConfig,
    coarse: Vec<f64>,
    fine: Vec<f64>,
    times: Vec<f64>,
    index: u64,
    last: f64,
    reports: Vec<WindowReport>,
}

impl DenseWindows {
    fn new(cfg: WindowConfig) -> Self {
        let coarse = (cfg.window_len / cfg.bin_width).ceil().max(1.0) as usize;
        let fine = cfg
            .fine_bin_width
            .map_or(0, |w| (cfg.window_len / w).ceil().max(1.0) as usize);
        DenseWindows {
            cfg,
            coarse: vec![0.0; coarse],
            fine: vec![0.0; fine],
            times: Vec::new(),
            index: 0,
            last: f64::NEG_INFINITY,
            reports: Vec::new(),
        }
    }

    fn push(&mut self, t: f64) {
        self.last = t;
        while t >= (self.index + 1) as f64 * self.cfg.window_len {
            self.close();
        }
        let offset = t - self.index as f64 * self.cfg.window_len;
        if offset >= 0.0 {
            let c = ((offset / self.cfg.bin_width) as usize).min(self.coarse.len() - 1);
            self.coarse[c] += 1.0;
            if let Some(w) = self.cfg.fine_bin_width {
                let f = ((offset / w) as usize).min(self.fine.len() - 1);
                self.fine[f] += 1.0;
            }
            self.times.push(t);
        }
    }

    fn finish(&mut self) {
        let covered = self.last - self.index as f64 * self.cfg.window_len;
        if !self.times.is_empty() && covered >= self.cfg.window_len / 2.0 {
            self.close();
        }
    }

    fn close(&mut self) {
        let start = self.index as f64 * self.cfg.window_len;
        let vt = variance_time_detailed(&self.coarse).ok();
        let h_variance_time_fine = if self.fine.is_empty() {
            None
        } else {
            variance_time_detailed(&self.fine)
                .ok()
                .map(|d| d.estimate.h)
        };
        let hourly = ((self.cfg.window_len / 3_600.0).round() as usize).max(2);
        let ten_min = ((self.cfg.window_len / 600.0).round() as usize).max(2);
        self.reports.push(WindowReport {
            index: self.index,
            start,
            events: self.times.len() as u64,
            h_variance_time: vt.as_ref().map(|d| d.estimate.h),
            h_ci_half_width: vt.as_ref().map(|d| d.h_ci_half_width),
            h_r_squared: vt.as_ref().map(|d| d.fit.r_squared),
            h_points: vt.as_ref().map_or(0, |d| d.points as u64),
            h_variance_time_fine,
            poisson_hourly: self.poisson(start, hourly),
            poisson_ten_min: self.poisson(start, ten_min),
        });
        self.coarse.fill(0.0);
        self.fine.fill(0.0);
        self.times.clear();
        self.index += 1;
    }

    fn poisson(&self, start: f64, subintervals: usize) -> PoissonVerdict {
        if self.times.is_empty() {
            return PoissonVerdict::NotApplicable;
        }
        poisson_arrival_test(
            &self.times,
            start,
            self.cfg.window_len,
            subintervals,
            TieSpreading::Uniform,
            self.cfg.min_poisson_arrivals,
            self.cfg.seed,
        )
        .unwrap()
        .map_or(PoissonVerdict::NotApplicable, |o| o.verdict())
    }
}

fn bits(x: Option<f64>) -> Option<u64> {
    x.map(f64::to_bits)
}

/// Every float field compared by bit pattern, every other field by value.
fn assert_bit_identical(sparse: &[WindowReport], dense: &[WindowReport]) {
    assert_eq!(sparse.len(), dense.len(), "window counts differ");
    for (s, d) in sparse.iter().zip(dense) {
        let at = s.index;
        assert_eq!(s.index, d.index);
        assert_eq!(s.start.to_bits(), d.start.to_bits(), "start, window {at}");
        assert_eq!(s.events, d.events, "events, window {at}");
        assert_eq!(
            bits(s.h_variance_time),
            bits(d.h_variance_time),
            "H, window {at}"
        );
        assert_eq!(
            bits(s.h_ci_half_width),
            bits(d.h_ci_half_width),
            "CI, window {at}"
        );
        assert_eq!(bits(s.h_r_squared), bits(d.h_r_squared), "R², window {at}");
        assert_eq!(s.h_points, d.h_points, "points, window {at}");
        assert_eq!(
            bits(s.h_variance_time_fine),
            bits(d.h_variance_time_fine),
            "fine H, window {at}"
        );
        assert_eq!(s.poisson_hourly, d.poisson_hourly, "hourly, window {at}");
        assert_eq!(s.poisson_ten_min, d.poisson_ten_min, "10-min, window {at}");
    }
}

/// Run `times` through both accumulators; return the sparse reports.
fn check(cfg: &WindowConfig, times: &[f64]) -> Vec<WindowReport> {
    let mut sparse = WindowedArrivals::new(cfg.clone());
    let mut out = Vec::new();
    let mut dense = DenseWindows::new(cfg.clone());
    for &t in times {
        sparse.push(t, &mut out).unwrap();
        dense.push(t);
    }
    sparse.finish(&mut out).unwrap();
    dense.finish();
    assert_bit_identical(&out, &dense.reports);
    assert_eq!(sparse.ring_bins(), 0);
    out
}

fn cfg(window_len: f64, bin_width: f64, fine: Option<f64>) -> WindowConfig {
    WindowConfig {
        window_len,
        bin_width,
        fine_bin_width: fine,
        min_poisson_arrivals: 20,
        seed: 5,
    }
}

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

/// On–off arrivals: bursts of dense traffic at whole-second timestamps
/// (as CLF logs carry them) separated by silences of varying length.
fn on_off_times(horizon: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    let mut out = Vec::new();
    while t < horizon {
        let end = (t + 5.0 + 115.0 * rng.random::<f64>()).min(horizon);
        while t < end {
            let burst = 1 + (rng.random::<f64>() * 11.0) as usize;
            out.extend(std::iter::repeat_n(t.floor(), burst));
            t += 0.05 + 1.45 * rng.random::<f64>();
        }
        // Heavy-ish silences: mostly short, occasionally many minutes.
        t += 10.0 / (1.0 - rng.random::<f64>()).sqrt();
    }
    out.retain(|&x| x < horizon);
    out
}

#[test]
fn default_config_poisson_matches_the_dense_rings() {
    let times = poisson_times(1.2, 2.0 * 14_400.0, 21);
    let out = check(&WindowConfig::default(), &times);
    assert_eq!(out.len(), 2);
    assert!(out.iter().all(|r| r.h_variance_time_fine.is_some()));
}

#[test]
fn bursty_on_off_arrivals_match_the_dense_rings() {
    let times = on_off_times(3.0 * 3_600.0, 8);
    let out = check(&cfg(3_600.0, 1.0, Some(0.01)), &times);
    assert_eq!(out.len(), 3);
    assert!(out.iter().any(|r| r.h_variance_time.is_some()));
}

#[test]
fn empty_and_single_event_windows_match_the_dense_rings() {
    // Window 0 holds one arrival; windows 1 and 2 are empty; window 3
    // holds one arrival and is more than half covered at finish.
    let out = check(&cfg(600.0, 1.0, Some(0.01)), &[42.0, 1_800.5, 2_150.0]);
    assert_eq!(out.len(), 4);
    assert_eq!(out[0].events, 1);
    assert_eq!(out[1].events, 0);
    assert!(out[1].h_variance_time.is_none());
    assert!(out[1].h_variance_time_fine.is_none());
    assert_eq!(out[3].events, 2);
}

/// The last arrival time in window `index` whose bin quotient
/// `(t − start)/w` rounds up to the bin count `n`, so only the clamp
/// keeps it inside the window's bins.
fn clamped_edge(index: u64, window_len: f64, w: f64) -> f64 {
    let n = (window_len / w).ceil() as usize;
    let start = index as f64 * window_len;
    let end = (index + 1) as f64 * window_len;
    (1..64)
        .map(|k| f64::from_bits(end.to_bits() - k))
        .find(|&t| ((t - start) / w) as usize >= n)
        .expect("some time below the window end rounds up to n bins")
}

#[test]
fn arrivals_clamped_into_the_last_bin_match_the_dense_rings() {
    // 333.3 / 0.3 rounds to exactly 1,111 bins, and the float just
    // below a window's end divides up to 1,111 as well.
    let (window_len, w) = (333.3, 0.3);
    let mut times = poisson_times(3.0, 3.0 * window_len, 4);
    for index in [0, 2] {
        times.extend([clamped_edge(index, window_len, w); 5]);
    }
    times.sort_by(f64::total_cmp);
    let out = check(&cfg(window_len, w, Some(w / 10.0)), &times);
    assert_eq!(out.len(), 3);
}

#[test]
fn windows_under_256_bins_have_no_coarse_fit() {
    // 200 one-second bins is below the estimator's 256-point floor; the
    // fine reading (20,000 bins) still runs.
    let out = check(&cfg(200.0, 1.0, Some(0.01)), &poisson_times(4.0, 400.0, 6));
    assert_eq!(out.len(), 2);
    for r in &out {
        assert!(r.h_variance_time.is_none());
        assert_eq!(r.h_points, 0);
        assert!(r.h_variance_time_fine.is_some());
    }
}

#[test]
fn checkpoint_restore_mid_window_matches_the_dense_rings() {
    let c = cfg(3_600.0, 1.0, Some(0.01));
    let times = poisson_times(2.0, 3.0 * 3_600.0, 13);
    // Split inside window 1, not on a boundary.
    let split = times.iter().position(|&t| t > 5_000.0).unwrap();
    let mut first = WindowedArrivals::new(c.clone());
    let mut out = Vec::new();
    for &t in &times[..split] {
        first.push(t, &mut out).unwrap();
    }
    let state = first.export_state();
    assert!(!state.times.is_empty(), "split lands mid-window");
    let mut second = WindowedArrivals::restore(c.clone(), state);
    for &t in &times[split..] {
        second.push(t, &mut out).unwrap();
    }
    second.finish(&mut out).unwrap();

    let mut dense = DenseWindows::new(c);
    for &t in &times {
        dense.push(t);
    }
    dense.finish();
    assert_eq!(out.len(), 3);
    assert_bit_identical(&out, &dense.reports);
}
