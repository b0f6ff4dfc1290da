//! Variance-time plot estimator of the Hurst exponent.

use crate::estimate::{EstimatorKind, HurstEstimate};
use crate::Result;
use webpuzzle_stats::regression::{ols, Regression};
use webpuzzle_stats::special::student_t_quantile;
use webpuzzle_stats::StatsError;
use webpuzzle_timeseries::{aggregate, aggregation_levels};

/// A variance-time fit with its regression diagnostics attached.
///
/// `estimate.h = 1 + fit.slope / 2`, so the H confidence half-width is
/// exactly half the slope half-width. The t quantile (rather than the
/// normal) is used because the fit typically has only a handful of
/// aggregation levels. Residuals of a variance-time regression are
/// positively correlated (the aggregated series share samples), so the
/// OLS half-width underestimates the true sampling error; callers that
/// need calibrated coverage should apply [`VT_CI_INFLATION`].
#[derive(Debug, Clone, PartialEq)]
pub struct VarianceTimeFit {
    /// The point estimate with `ci95` populated.
    pub estimate: HurstEstimate,
    /// The OLS fit of `log Var(X^{(m)})` on `log m`.
    pub fit: Regression,
    /// Aggregation levels that survived the `var > 0` filter.
    pub points: usize,
    /// Half-width of the 95% CI on H (inflated, t-based).
    pub h_ci_half_width: f64,
}

/// Empirical inflation factor applied to the OLS-derived H half-width.
///
/// Calibrated against seeded fGn coverage runs (see DESIGN.md §13 and
/// the `inflated_ci_covers_planted_h` test): the log-variance points
/// share samples, so their errors are smooth rather than independent and
/// the residual-based OLS half-width wildly understates the realization-
/// to-realization spread of the fitted slope. Over 200 seeded 14 400-
/// point fGn runs per level, the 95th percentile of
/// `|Ĥ − H| / raw half-width` was 3.0 (H = 0.6), 4.5 (0.75) and 7.7
/// (0.85, where LRD makes the block variances most correlated); 8
/// restores ≥95% coverage at every level, conservatively so at low H.
pub const VT_CI_INFLATION: f64 = 8.0;

/// Variance-time estimator: for a self-similar process the variance of the
/// m-aggregated series decays as `Var(X^{(m)}) ∝ m^{2H−2}`, so the slope β
/// of `log Var(X^{(m)})` against `log m` gives `H = 1 + β/2`.
///
/// Aggregation levels are chosen geometrically such that every aggregated
/// series retains at least 64 points (variance estimates from fewer blocks
/// are too noisy to regress on).
///
/// The returned estimate carries a 95% CI derived from the regression
/// residuals (see [`variance_time_detailed`] for the full diagnostics).
///
/// # Errors
///
/// Returns [`StatsError::InsufficientData`] for series shorter than 256
/// points and [`StatsError::DegenerateInput`] when the series has no
/// variance at some usable aggregation level.
///
/// # Examples
///
/// ```
/// use webpuzzle_lrd::{fgn::FgnGenerator, variance_time};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let x = FgnGenerator::new(0.5)?.seed(2).generate(16_384)?;
/// let est = variance_time(&x)?;
/// assert!((est.h - 0.5).abs() < 0.1, "H = {}", est.h);
/// # Ok(())
/// # }
/// ```
pub fn variance_time(data: &[f64]) -> Result<HurstEstimate> {
    variance_time_detailed(data).map(|d| d.estimate)
}

/// Variance-time estimator with regression diagnostics: slope CI from
/// the OLS residuals (t-quantile on `points − 2` degrees of freedom,
/// inflated by [`VT_CI_INFLATION`] for correlated-residual coverage),
/// R², and the number of aggregation levels used.
///
/// # Errors
///
/// Same conditions as [`variance_time`].
///
/// # Examples
///
/// ```
/// use webpuzzle_lrd::{fgn::FgnGenerator, variance_time_detailed};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let x = FgnGenerator::new(0.8)?.seed(5).generate(16_384)?;
/// let d = variance_time_detailed(&x)?;
/// assert!(d.points >= 3);
/// assert!(d.h_ci_half_width > 0.0);
/// assert!(d.fit.r_squared > 0.5);
/// # Ok(())
/// # }
/// ```
pub fn variance_time_detailed(data: &[f64]) -> Result<VarianceTimeFit> {
    fit_levels(data.len(), |m| {
        let agg = aggregate(data, m)?;
        let mean = agg.iter().sum::<f64>() / agg.len() as f64;
        Ok(agg.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / agg.len() as f64)
    })
}

/// [`variance_time_detailed`] over a count series given sparsely: the
/// series has `n_bins` bins and bin `b` holds the number of times `b`
/// occurs in `bins`. The result is bit-identical to the dense call on
/// the materialized count vector, at a cost of O(distinct bins) per
/// aggregation level rather than O(`n_bins`).
///
/// Every block value is `count as f64 * (1.0 / m as f64)`, exactly what
/// the dense aggregation yields for integer counts; the mean sums the
/// occupied blocks only (empty blocks would add ±0), and the variance
/// adds each empty block's `(0 − mean)²` in block order, because float
/// addition does not reassociate — a run of empty blocks is replayed
/// exactly by `add_repeated`, not approximated by a product.
///
/// # Errors
///
/// Same conditions as [`variance_time`] on an `n_bins`-point series,
/// plus [`StatsError::InvalidParameter`] when `bins` is not
/// nondecreasing or holds an index `>= n_bins`.
///
/// # Examples
///
/// ```
/// use webpuzzle_lrd::{variance_time_detailed, variance_time_sparse};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let bins: Vec<usize> = (0..3_000).map(|i| (i * i) % 997).collect();
/// let mut sorted = bins.clone();
/// sorted.sort_unstable();
/// let mut dense = vec![0.0; 997];
/// for &b in &sorted {
///     dense[b] += 1.0;
/// }
/// let sparse = variance_time_sparse(&sorted, 997)?;
/// assert_eq!(sparse, variance_time_detailed(&dense)?);
/// # Ok(())
/// # }
/// ```
pub fn variance_time_sparse(bins: &[usize], n_bins: usize) -> Result<VarianceTimeFit> {
    if let Some(i) = bins.windows(2).position(|w| w[0] > w[1]) {
        return Err(StatsError::InvalidParameter {
            name: "bins",
            value: bins[i + 1] as f64,
            constraint: "must be nondecreasing",
        });
    }
    if let Some(&last) = bins.last().filter(|&&b| b >= n_bins) {
        return Err(StatsError::InvalidParameter {
            name: "bins",
            value: last as f64,
            constraint: "must be < n_bins",
        });
    }
    // Run-length encode once: (bin, arrivals in it), ascending.
    let mut runs: Vec<(usize, u64)> = Vec::new();
    for &b in bins {
        match runs.last_mut() {
            Some((last, c)) if *last == b => *c += 1,
            _ => runs.push((b, 1)),
        }
    }
    let mut occupied: Vec<(usize, f64)> = Vec::new();
    fit_levels(n_bins, |m| {
        let blocks = n_bins / m;
        let limit = blocks * m;
        let inv = 1.0 / m as f64;
        // Step block boundaries over the runs; bins past the last whole
        // block are dropped, as the dense aggregation drops them.
        occupied.clear();
        let mut block = 0;
        let mut end = 0;
        let mut count = 0u64;
        for &(b, c) in runs.iter().take_while(|&&(b, _)| b < limit) {
            if b >= end {
                if count > 0 {
                    occupied.push((block, count as f64 * inv));
                }
                block = b / m;
                end = (block + 1) * m;
                count = 0;
            }
            count += c;
        }
        if count > 0 {
            occupied.push((block, count as f64 * inv));
        }
        let mean = occupied.iter().map(|&(_, x)| x).sum::<f64>() / blocks as f64;
        let empty = (0.0 - mean) * (0.0 - mean);
        let mut sum = 0.0;
        let mut next = 0;
        for &(k, x) in &occupied {
            sum = add_repeated(sum, empty, k - next);
            sum += (x - mean) * (x - mean);
            next = k + 1;
        }
        Ok(add_repeated(sum, empty, blocks - next) / blocks as f64)
    })
}

/// `acc` after `times` sequential `acc += term` steps, bit-identical
/// to the loop. While `acc` stays inside one binade (one ulp), each
/// addition rounds `term` to the same multiple of the ulp, so a run of
/// them is a single exact multiply-add; a rounding tie, a binade
/// crossing, a subnormal `acc` or a nonpositive `term` takes one plain
/// step instead. The cost is O(binades crossed), not O(`times`).
fn add_repeated(mut acc: f64, term: f64, mut times: usize) -> f64 {
    while times > 0 {
        let next = acc + term;
        if next == acc {
            return acc; // absorbed, and so is every later addition
        }
        times -= 1;
        // A normal acc ∈ [low, end) has ulp `low · 2⁻⁵²`.
        let low = f64::from_bits(acc.to_bits() & 0x7ff0_0000_0000_0000);
        let (ulp, end) = (low * f64::EPSILON, 2.0 * low);
        let step = next - acc;
        if acc >= f64::MIN_POSITIVE && term > 0.0 && next <= end && 2.0 * (term - step).abs() < ulp
        {
            // From any x on this ulp grid with x + step ≤ end, the
            // nearest float to x + term is x + step: repeat it as long
            // as that holds. Both operands are whole ulps below 2⁵³, so
            // the truncated quotient is the exact integer one.
            let bulk = times.min(((end - next) / step) as usize);
            acc = next + bulk as f64 * step;
            times -= bulk;
        } else {
            acc = next;
        }
    }
    acc
}

/// The shared body of the variance-time fits: length check, level
/// grid, `var > 0` filter, OLS, bias-correction loop and CI. `level_var`
/// returns the variance of the `m`-aggregated `n`-point series.
fn fit_levels(
    n: usize,
    mut level_var: impl FnMut(usize) -> Result<f64>,
) -> Result<VarianceTimeFit> {
    if n < 256 {
        return Err(StatsError::InsufficientData {
            needed: 256,
            got: n,
        });
    }
    let levels = aggregation_levels(n, 64);
    let mut log_m = Vec::with_capacity(levels.len());
    let mut log_var = Vec::with_capacity(levels.len());
    for &m in &levels {
        let var = level_var(m)?;
        if var > 0.0 {
            log_m.push((m as f64).ln());
            log_var.push(var.ln());
        }
    }
    if log_m.len() < 3 {
        return Err(StatsError::DegenerateInput {
            what: "too few usable aggregation levels for a variance-time fit",
        });
    }
    let mut fit = ols(&log_m, &log_var)?;
    let points = log_m.len();
    let mut h = 1.0 + fit.slope / 2.0;
    // Finite-sample bias correction. The sample variance of the N = n/m
    // block means subtracts the grand mean, whose own variance is
    // σ²·n^{2H−2} — not negligible under LRD — so
    // E[s²_m] = σ²(m^{2H−2} − n^{2H−2}) = σ²·m^{2H−2}·(1 − (m/n)^{2−2H})
    // and the raw log-variance points sag at large m, dragging Ĥ down
    // (−0.026 at H = 0.85 over 14 400-point windows). Dividing each s²_m
    // by its own attenuation factor needs H, so iterate: fit, correct
    // with the current Ĥ, refit, until the estimate settles.
    let n = n as f64;
    for _ in 0..8 {
        let exponent = 2.0 - 2.0 * h;
        let corrected: Vec<f64> = log_m
            .iter()
            .zip(&log_var)
            .map(|(&lm, &lv)| {
                // Attenuation capped at 0.9 so a wild intermediate Ĥ (or
                // Ĥ ≥ 1, where the expansion breaks down) cannot blow
                // the correction up.
                let attenuation = (lm.exp() / n).powf(exponent).min(0.9);
                lv - (1.0 - attenuation).ln()
            })
            .collect();
        let refit = ols(&log_m, &corrected)?;
        let new_h = 1.0 + refit.slope / 2.0;
        let settled = (new_h - h).abs() < 1e-4;
        h = new_h;
        fit = refit;
        if settled {
            break;
        }
    }
    // H = 1 + slope/2, so σ_H = σ_slope / 2. Use the t quantile on the
    // fit's n − 2 dof, then inflate for the correlated residuals.
    let dof = points.saturating_sub(2).max(1);
    let t = student_t_quantile(0.975, dof);
    let h_ci_half_width = VT_CI_INFLATION * t * fit.slope_std_err / 2.0;
    let estimate = HurstEstimate::with_ci(
        EstimatorKind::VarianceTime,
        h,
        h - h_ci_half_width,
        h + h_ci_half_width,
    );
    Ok(VarianceTimeFit {
        estimate,
        fit,
        points,
        h_ci_half_width,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fgn::FgnGenerator;

    #[test]
    fn recovers_h_for_fgn() {
        for &(h, tol) in &[(0.6, 0.1), (0.8, 0.12), (0.9, 0.15)] {
            let x = FgnGenerator::new(h)
                .unwrap()
                .seed(77)
                .generate(65_536)
                .unwrap();
            let est = variance_time(&x).unwrap();
            assert_eq!(est.kind, EstimatorKind::VarianceTime);
            assert!((est.h - h).abs() < tol, "true H = {h}, estimated {}", est.h);
        }
    }

    #[test]
    fn white_noise_near_half() {
        let x = FgnGenerator::new(0.5)
            .unwrap()
            .seed(78)
            .generate(65_536)
            .unwrap();
        let est = variance_time(&x).unwrap();
        assert!((est.h - 0.5).abs() < 0.08, "H = {}", est.h);
    }

    #[test]
    fn short_series_rejected() {
        assert!(variance_time(&[1.0; 100]).is_err());
    }

    #[test]
    fn constant_series_degenerate() {
        assert!(matches!(
            variance_time(&vec![1.0; 1000]),
            Err(StatsError::DegenerateInput { .. })
        ));
    }

    #[test]
    fn ci_is_reported_and_centered() {
        let x = FgnGenerator::new(0.7)
            .unwrap()
            .seed(79)
            .generate(4096)
            .unwrap();
        let est = variance_time(&x).unwrap();
        let (lo, hi) = est.ci95.expect("variance-time now carries a CI");
        assert!(lo < est.h && est.h < hi);
    }

    #[test]
    fn inflated_ci_covers_planted_h() {
        // DESIGN.md §13 calibration for VT_CI_INFLATION: over 200 seeded
        // fGn runs per Hurst level (at the streaming engine's 14 400-point
        // window length) the inflated half-width must cover the planted H
        // at least 95% of the time. If this fails after an estimator
        // change, re-tune VT_CI_INFLATION rather than widening the test.
        // The planted levels span the paper's Whittle range; coverage is
        // hardest at high H, where LRD correlates the block variances.
        for &h in &[0.6, 0.75, 0.85] {
            let runs = 200;
            let mut covered = 0;
            for seed in 0..runs {
                let x = FgnGenerator::new(h)
                    .unwrap()
                    .seed(20_000 + seed)
                    .generate(14_400)
                    .unwrap();
                let d = variance_time_detailed(&x).unwrap();
                if (d.estimate.h - h).abs() <= d.h_ci_half_width {
                    covered += 1;
                }
            }
            assert!(covered >= 190, "H={h}: coverage {covered}/{runs} < 95%");
        }
    }

    /// Materialize sparse bin indices as the dense count series.
    fn dense_counts(bins: &[usize], n_bins: usize) -> Vec<f64> {
        let mut dense = vec![0.0; n_bins];
        for &b in bins {
            dense[b] += 1.0;
        }
        dense
    }

    fn assert_sparse_matches_dense(bins: &[usize], n_bins: usize) {
        let dense = variance_time_detailed(&dense_counts(bins, n_bins));
        let sparse = variance_time_sparse(bins, n_bins);
        match (dense, sparse) {
            (Ok(d), Ok(s)) => {
                assert_eq!(d.estimate.h.to_bits(), s.estimate.h.to_bits());
                assert_eq!(d.h_ci_half_width.to_bits(), s.h_ci_half_width.to_bits());
                assert_eq!(d.fit.r_squared.to_bits(), s.fit.r_squared.to_bits());
                assert_eq!(d, s);
            }
            (Err(d), Err(s)) => assert_eq!(format!("{d}"), format!("{s}")),
            (d, s) => panic!("dense {d:?} vs sparse {s:?}"),
        }
    }

    #[test]
    fn sparse_fit_is_bit_identical_to_dense() {
        // Uneven occupancy: mostly-empty bins with clustered bursts, a
        // trailing partial block at most levels (n_bins not a power of
        // the level grid), and events in the last bin.
        let n_bins = 20_011;
        let mut bins: Vec<usize> = (0..4_000usize)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 7) % n_bins)
            .collect();
        bins.extend((0..500).map(|i| 7_000 + i % 13));
        bins.extend([n_bins - 1; 9]);
        bins.sort_unstable();
        assert_sparse_matches_dense(&bins, n_bins);
        // Dense occupancy (every bin hit at least once).
        let mut full: Vec<usize> = (0..1_024).flat_map(|b| [b, b]).chain([5, 5]).collect();
        full.sort_unstable();
        assert_sparse_matches_dense(&full, 1_024);
    }

    #[test]
    fn repeated_addition_matches_the_loop_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(91);
        let mut uniform = || rng.random::<f64>();
        for cases in 0..20_000 {
            // Magnitudes from subnormal to large, terms from negligible
            // to dominant, and exact rounding ties (term = k·ulp/2).
            let acc = match cases % 5 {
                0 => 0.0,
                1 => f64::MIN_POSITIVE * uniform(),
                _ => 10f64.powf(12.0 * uniform() - 6.0),
            };
            let term = match cases % 4 {
                0 => acc * 10f64.powf(-18.0 * uniform()),
                1 if acc >= f64::MIN_POSITIVE => {
                    let ulp = f64::from_bits(acc.to_bits() & 0x7ff0_0000_0000_0000) * f64::EPSILON;
                    ulp * (0.5 + (uniform() * 8.0).floor())
                }
                _ => 10f64.powf(12.0 * uniform() - 6.0),
            };
            let times = (uniform() * 3_000.0) as usize;
            let mut want = acc;
            for _ in 0..times {
                want += term;
            }
            let got = add_repeated(acc, term, times);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "acc {acc:e} term {term:e} times {times}: {got:e} vs {want:e}"
            );
        }
        // Binade edges: start one step short of a power of two.
        for &(acc, term) in &[
            (1.0 - 2f64.powi(-53), 2f64.powi(-53)),
            (7.75, 0.125),
            (1.5, 0.75),
        ] {
            let mut want = acc;
            for i in 1..=64 {
                want += term;
                assert_eq!(add_repeated(acc, term, i).to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn sparse_fit_shares_the_dense_errors() {
        // Too short, empty, and a single event (degenerate at every
        // level that drops it or sees one nonzero block).
        assert_sparse_matches_dense(&[3], 255);
        assert_sparse_matches_dense(&[], 4_096);
        assert_sparse_matches_dense(&[17], 4_096);
        assert!(matches!(
            variance_time_sparse(&[5, 4], 4_096),
            Err(StatsError::InvalidParameter { .. })
        ));
        assert!(matches!(
            variance_time_sparse(&[4_096], 4_096),
            Err(StatsError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn detailed_fit_is_consistent_with_the_point_estimate() {
        let x = FgnGenerator::new(0.8)
            .unwrap()
            .seed(80)
            .generate(16_384)
            .unwrap();
        let d = variance_time_detailed(&x).unwrap();
        let plain = variance_time(&x).unwrap();
        assert_eq!(d.estimate, plain);
        assert_eq!(d.estimate.h, 1.0 + d.fit.slope / 2.0);
        assert!(d.points >= 3);
        assert!(d.fit.r_squared > 0.0 && d.fit.r_squared <= 1.0);
        assert!(d.h_ci_half_width > 0.0);
    }
}
