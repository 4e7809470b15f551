//! Power-law exponent estimation.
//!
//! The paper observes "traditional power law distributions across all three
//! graphs" (Fig. 11). To make that claim checkable on synthetic data we fit
//! the discrete power-law exponent by maximum likelihood (the Clauset,
//! Shalizi & Newman approximation).

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
}
