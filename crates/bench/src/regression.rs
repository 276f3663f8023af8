//! Ordinary least-squares line fitting.
//!
//! Figure 7 of the paper plots `log H` against `log log N` and reads a
//! slope of ≈ 2 as the `O(log² N)` routing bound.  The same fit here reads
//! 2.65 for uniform objects at 300 000 (seed 2006) and 2.47 for the
//! Kleinberg grid control, whose greedy routing is `O(log² N)` by
//! Kleinberg's theorem: at these sizes the fit does not return 2 even for
//! the model the bound is proved on.  `crates/README.md`'s "The Fig. 7
//! slope is unexplained" records the gap.

/// Result of a simple linear regression `y ≈ slope · x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination R².
    pub r_squared: f64,
    /// Number of points used.
    pub n: usize,
}

/// Fits a least-squares line through `(x, y)` pairs.
///
/// Returns `None` when fewer than two distinct x values are provided (the
/// slope would be undefined).
fn linear_fit(points: &[(f64, f64)]) -> Option<LinearFit> {
    let n = points.len();
    if n < 2 {
        return None;
    }
    let nf = n as f64;
    let mean_x = points.iter().map(|p| p.0).sum::<f64>() / nf;
    let mean_y = points.iter().map(|p| p.1).sum::<f64>() / nf;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for &(x, y) in points {
        let dx = x - mean_x;
        let dy = y - mean_y;
        sxx += dx * dx;
        sxy += dx * dy;
        syy += dy * dy;
    }
    if sxx == 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let r_squared = if syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    Some(LinearFit {
        slope,
        intercept,
        r_squared,
        n,
    })
}

/// Fits `log(y) ≈ slope · log(log(x)) + c`, the exact transformation used by
/// Figure 7 (natural logarithms).  Pairs with `x ≤ e` or `y ≤ 0` are skipped
/// because their transform is undefined.
pub fn fit_loglog_exponent(points: &[(f64, f64)]) -> Option<LinearFit> {
    let transformed: Vec<(f64, f64)> = points
        .iter()
        .filter(|&&(x, y)| x > std::f64::consts::E && y > 0.0)
        .map(|&(x, y)| (x.ln().ln(), y.ln()))
        .collect();
    linear_fit(&transformed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        let pts: Vec<(f64, f64)> = (0..20).map(|i| (i as f64, 3.0 * i as f64 - 2.0)).collect();
        let fit = linear_fit(&pts).unwrap();
        assert!((fit.slope - 3.0).abs() < 1e-12);
        assert!((fit.intercept + 2.0).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs_return_none() {
        assert!(linear_fit(&[]).is_none());
        assert!(linear_fit(&[(1.0, 2.0)]).is_none());
        assert!(linear_fit(&[(1.0, 2.0), (1.0, 3.0)]).is_none());
    }

    #[test]
    fn noisy_line_slope_close() {
        let pts: Vec<(f64, f64)> = (0..100)
            .map(|i| {
                let x = i as f64 / 10.0;
                let noise = ((i * 37) % 11) as f64 / 100.0 - 0.05;
                (x, 2.0 * x + 1.0 + noise)
            })
            .collect();
        let fit = linear_fit(&pts).unwrap();
        assert!((fit.slope - 2.0).abs() < 0.05);
        assert!(fit.r_squared > 0.99);
    }

    #[test]
    fn loglog_exponent_recovers_power_of_log() {
        // y = (ln x)^2  =>  ln y = 2 ln ln x : the slope must come out as 2,
        // the reading Figure 7 takes for the O(log^2 N) bound.
        let pts: Vec<(f64, f64)> = (1..30)
            .map(|i| {
                let x = 10_000.0 * i as f64;
                (x, x.ln().powi(2))
            })
            .collect();
        let fit = fit_loglog_exponent(&pts).unwrap();
        assert!((fit.slope - 2.0).abs() < 1e-9);
    }

    #[test]
    fn loglog_exponent_skips_invalid_points() {
        let pts = vec![(1.0, 5.0), (2.0, 0.0), (1_000.0, 10.0), (100_000.0, 20.0)];
        let fit = fit_loglog_exponent(&pts).unwrap();
        assert_eq!(fit.n, 2);
    }
}
