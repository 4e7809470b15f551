//! Power-law exponent estimation.
//!
//! The paper observes "traditional power law distributions across all three
//! graphs" (Fig. 11). To make that claim checkable on synthetic data we fit
//! the discrete power-law exponent by maximum likelihood (the Clauset,
//! Shalizi & Newman approximation) and expose a crude goodness signal.

/// Result of a power-law fit `p(x) ∝ x^(−alpha)` for `x >= xmin`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLawFit {
    /// Estimated exponent (alpha).
    pub alpha: f64,
    /// The lower cut-off used for the fit.
    pub xmin: f64,
    /// Number of samples at or above `xmin`.
    pub n_tail: usize,
}

impl PowerLawFit {
    /// MLE fit for continuous/discrete data with a given `xmin`.
    ///
    /// Uses the continuous approximation
    /// `alpha = 1 + n / sum(ln(x_i / (xmin - 0.5)))` which is accurate for
    /// discrete data when `xmin >= 6` and serviceable above `xmin >= 1`.
    /// Returns `None` when fewer than 2 samples reach `xmin`.
    pub fn fit(samples: &[f64], xmin: f64) -> Option<Self> {
        assert!(xmin > 0.0, "xmin must be positive");
        let shift = (xmin - 0.5).max(f64::MIN_POSITIVE);
        let tail: Vec<f64> = samples.iter().copied().filter(|&x| x >= xmin).collect();
        if tail.len() < 2 {
            return None;
        }
        let log_sum: f64 = tail.iter().map(|&x| (x / shift).ln()).sum();
        if log_sum <= 0.0 {
            return None;
        }
        Some(Self {
            alpha: 1.0 + tail.len() as f64 / log_sum,
            xmin,
            n_tail: tail.len(),
        })
    }

    /// CCDF of the fitted (continuous) power law at `x >= xmin`.
    pub fn ccdf(&self, x: f64) -> f64 {
        if x < self.xmin {
            return 1.0;
        }
        (x / self.xmin).powf(1.0 - self.alpha)
    }

    /// Kolmogorov–Smirnov distance between the empirical tail distribution
    /// and the fitted power law (smaller = better fit).
    pub fn ks_distance(&self, samples: &[f64]) -> f64 {
        let mut tail: Vec<f64> = samples
            .iter()
            .copied()
            .filter(|&x| x >= self.xmin)
            .collect();
        if tail.is_empty() {
            return 1.0;
        }
        tail.sort_by(|a, b| a.partial_cmp(b).expect("NaN"));
        let n = tail.len() as f64;
        let mut d: f64 = 0.0;
        for (i, &x) in tail.iter().enumerate() {
            let emp_ccdf = 1.0 - (i as f64 + 1.0) / n;
            let model = self.ccdf(x);
            d = d.max((emp_ccdf - model).abs());
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Draw n deterministic samples from a discrete zeta-ish tail via inverse
    /// transform on a quasi-random sequence (no rand dependency needed here).
    fn synth_power_law(alpha: f64, n: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(n);
        // golden-ratio low-discrepancy sequence in (0,1)
        let mut u = 0.5f64;
        const PHI_CONJ: f64 = 0.618_033_988_749_894_9;
        for _ in 0..n {
            u = (u + PHI_CONJ) % 1.0;
            let uu = u.max(1e-12);
            // inverse CCDF of continuous power law with xmin = 1
            let x = uu.powf(-1.0 / (alpha - 1.0));
            out.push(x.floor().max(1.0));
        }
        out
    }

    #[test]
    fn recovers_known_exponent() {
        for alpha in [1.8, 2.2, 2.8] {
            let data = synth_power_law(alpha, 20_000);
            let fit = PowerLawFit::fit(&data, 5.0).unwrap();
            assert!(
                (fit.alpha - alpha).abs() < 0.25,
                "alpha {alpha} estimated {got}",
                got = fit.alpha
            );
        }
    }

    #[test]
    fn too_few_samples_is_none() {
        assert!(PowerLawFit::fit(&[10.0], 1.0).is_none());
        assert!(PowerLawFit::fit(&[1.0, 1.0, 1.0], 5.0).is_none());
    }

    #[test]
    fn ccdf_monotone_and_bounded() {
        let fit = PowerLawFit {
            alpha: 2.5,
            xmin: 1.0,
            n_tail: 100,
        };
        let mut prev = 1.0;
        for i in 1..100 {
            let c = fit.ccdf(i as f64);
            assert!(c <= prev + 1e-12);
            assert!((0.0..=1.0).contains(&c));
            prev = c;
        }
    }

    #[test]
    fn ks_distance_small_for_true_model() {
        let data = synth_power_law(2.3, 50_000);
        let fit = PowerLawFit::fit(&data, 8.0).unwrap();
        // Samples are floored to integers, so the continuous model deviates
        // by up to the discretisation step near xmin; 0.15 is a loose bound
        // that still cleanly separates power-law from uniform data (see
        // `uniform_data_fits_badly`).
        let d = fit.ks_distance(&data);
        assert!(d < 0.15, "KS distance {d} too large for a true power law");
    }

    #[test]
    fn uniform_data_fits_badly() {
        // Uniform data should be distinguishable from a power law by KS.
        let uniform: Vec<f64> = (1..=1000).map(|x| x as f64).collect();
        let power = synth_power_law(2.3, 1000);
        let fu = PowerLawFit::fit(&uniform, 5.0).unwrap();
        let fp = PowerLawFit::fit(&power, 5.0).unwrap();
        assert!(fu.ks_distance(&uniform) > fp.ks_distance(&power));
    }
}
