//! Calibration kernel of the perfbench end-to-end timings.
//!
//! ```text
//! perfbench-calibrate
//! ```
//!
//! Does a fixed amount of work that uses none of webpuzzle's code and
//! prints its wall time in seconds. The work mirrors the program's two
//! cost centres: variance-time scans of a freshly mapped and filled
//! 4-hour ring of 10-ms bins, as each window close makes one
//! (memory-bound), and a Whittle-style spectral sum of transcendental
//! functions (compute-bound). On a shared host the speed a process gets
//! drifts by 20–50% over minutes; this kernel's time drifts with it, so
//! `run.py` runs it between the measured repetitions and reports the
//! run's times at the reference speed, where the kernel takes
//! `CALIBRATION_REFERENCE_S`.

use std::hint::black_box;
use std::time::Instant;

/// Bins in one 4-hour window at 10-ms resolution.
const RING_BINS: usize = 1_440_000;
/// Fourier frequencies of a 10,080-point week series.
const FREQUENCIES: usize = 5_040;
const SCANS: usize = 3;
const SPECTRA: usize = 700;

/// Deterministic counts from a 64-bit LCG, 0..=31 per bin.
fn ring() -> Vec<f64> {
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    (0..RING_BINS)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 59) as f64
        })
        .collect()
}

/// Sum of the sample variances of the block sums at roughly 60
/// log-spaced block sizes, as a variance-time plot computes them.
fn variance_time_scan(x: &[f64]) -> f64 {
    let mut total = 0.0;
    let mut m = 1;
    while m <= x.len() / 10 {
        let (mut sum, mut sq) = (0.0, 0.0);
        let blocks = x.len() / m;
        for block in x.chunks_exact(m) {
            let a: f64 = block.iter().sum();
            sum += a;
            sq += a * a;
        }
        let mean = sum / blocks as f64;
        total += sq / blocks as f64 - mean * mean;
        m = m * 5 / 4 + 1;
    }
    total
}

/// Whittle-style objective at Hurst parameter `h`: the fGn spectral shape
/// against a fixed periodogram at every Fourier frequency.
fn spectral_sum(periodogram: &[f64], h: f64) -> f64 {
    let n = periodogram.len() as f64;
    let (mut log_sum, mut ratio_sum) = (0.0, 0.0);
    for (j, p) in periodogram.iter().enumerate() {
        let lambda = std::f64::consts::PI * (j + 1) as f64 / n;
        let f = (2.0 * (lambda / 2.0).sin()).powf(1.0 - 2.0 * h)
            * (1.0 - lambda.cos()).max(1e-12).ln().abs();
        log_sum += f.ln();
        ratio_sum += p / f;
    }
    log_sum / n + (ratio_sum / n).ln()
}

fn main() {
    // Kept alive until the end: while no large block has been freed, the
    // allocator maps each new ring fresh from the kernel, so every timed
    // scan pays the page faults and first writes a window close pays.
    let first = ring();
    let periodogram: Vec<f64> = first[..FREQUENCIES].iter().map(|c| 1.0 + c).collect();
    let t = Instant::now();
    let mut acc = 0.0;
    for _ in 0..SCANS {
        acc += variance_time_scan(black_box(&ring()));
    }
    for i in 0..SPECTRA {
        acc += spectral_sum(
            black_box(&periodogram),
            0.5 + 0.45 * i as f64 / SPECTRA as f64,
        );
    }
    let elapsed = t.elapsed().as_secs_f64();
    black_box((acc, &first));
    println!("{elapsed}");
}
