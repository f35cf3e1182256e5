//! Peaks-Over-Threshold (POT) dynamic thresholding (Siffer et al.,
//! KDD 2017), the threshold selector used by OmniAnomaly and listed as a
//! future-work direction for ImDiffusion ("dynamic thresholding
//! approaches", §5.2.1).
//!
//! POT fits a Generalized Pareto Distribution (GPD) to the exceedances of
//! an anomaly-score series over an initial high quantile `t0`, then picks
//! the final threshold as the GPD quantile at a target risk `q` (the
//! probability of a normal point exceeding the threshold).
//!
//! The GPD parameters are estimated with the method of moments — simpler
//! than Grimshaw's MLE used in the original paper, with a negligible
//! difference at the sample sizes involved here.

/// The fitted POT model.
#[derive(Debug, Clone, Copy)]
pub struct PotThreshold {
    /// Initial (quantile) threshold the exceedances were measured over.
    pub t0: f64,
    /// GPD shape parameter ξ (method-of-moments estimate).
    pub shape: f64,
    /// GPD scale parameter σ.
    pub scale: f64,
    /// The final anomaly threshold.
    pub threshold: f64,
}

/// Fits POT on a score series.
///
/// * `init_quantile` — the initial threshold quantile (e.g. 98.0);
/// * `risk` — target probability of a false alarm per point (e.g. 1e-3).
///
/// Returns `None` when there are fewer than 4 exceedances (not enough tail
/// mass to fit), in which case callers should fall back to a plain
/// percentile threshold.
pub fn pot_threshold(scores: &[f64], init_quantile: f64, risk: f64) -> Option<PotThreshold> {
    assert!(
        (0.0..=100.0).contains(&init_quantile),
        "quantile out of range"
    );
    let t0 = crate::threshold::threshold_at_percentile(scores, init_quantile);
    pot_fit(scores.iter().copied(), t0, risk)
}

/// Fits the GPD tail of `scores` over a given initial threshold `t0` —
/// [`pot_threshold`] without the quantile step, for callers that read
/// `t0` from a sorted copy they keep. Non-finite scores are ignored; the
/// exceedance moments are summed in `scores` order.
pub fn pot_fit<I>(scores: I, t0: f64, risk: f64) -> Option<PotThreshold>
where
    I: IntoIterator<Item = f64>,
    I::IntoIter: Clone,
{
    assert!(risk > 0.0 && risk < 1.0, "risk must be in (0, 1)");
    let scores = scores.into_iter();
    let exceed = scores
        .clone()
        .filter(|s| s.is_finite() && *s > t0)
        .map(|s| s - t0);
    let n_t = exceed.clone().count();
    if n_t < 4 {
        return None;
    }
    // Finite sample count: `t0` and the exceedances are computed over
    // finite scores only, so NaN-polluted series must not inflate `n`
    // and bias `tail_prob` below.
    let n = scores.filter(|s| s.is_finite()).count() as f64;
    let mean = exceed.clone().sum::<f64>() / n_t as f64;
    let var = exceed.map(|e| (e - mean) * (e - mean)).sum::<f64>() / n_t as f64;
    if var <= 0.0 || mean <= 0.0 {
        return None;
    }
    // Method of moments for the GPD:
    //   ξ = 0.5 (1 − mean²/var),  σ = 0.5 mean (mean²/var + 1).
    let ratio = mean * mean / var;
    let shape = 0.5 * (1.0 - ratio);
    let scale = 0.5 * mean * (ratio + 1.0);
    // POT quantile: z = t0 + σ/ξ ((q n / N_t)^(−ξ) − 1); the ξ→0 limit is
    // the exponential tail t0 − σ ln(q n / N_t).
    let tail_prob = risk * n / n_t as f64;
    let threshold = if shape.abs() < 1e-6 {
        t0 - scale * tail_prob.ln()
    } else {
        t0 + scale / shape * (tail_prob.powf(-shape) - 1.0)
    };
    Some(PotThreshold {
        t0,
        shape,
        scale,
        threshold: threshold.max(t0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exponential_scores(n: usize) -> Vec<f64> {
        // Deterministic pseudo-exponential sample.
        (0..n)
            .map(|i| {
                let u = (i as f64 + 0.5) / n as f64;
                -(1.0 - u).ln()
            })
            .collect()
    }

    #[test]
    fn threshold_above_initial_quantile() {
        let scores = exponential_scores(5000);
        let pot = pot_threshold(&scores, 98.0, 1e-3).expect("fit");
        assert!(pot.threshold >= pot.t0);
        assert!(pot.scale > 0.0);
    }

    #[test]
    fn lower_risk_means_higher_threshold() {
        let scores = exponential_scores(5000);
        let a = pot_threshold(&scores, 98.0, 1e-2).unwrap().threshold;
        let b = pot_threshold(&scores, 98.0, 1e-4).unwrap().threshold;
        assert!(b > a, "{b} should exceed {a}");
    }

    #[test]
    fn exponential_tail_recovered() {
        // For Exp(1), the POT threshold at risk q approximates -ln(q).
        let scores = exponential_scores(20_000);
        let pot = pot_threshold(&scores, 95.0, 1e-3).unwrap();
        let expected = -(1e-3f64).ln(); // ≈ 6.9
        assert!(
            (pot.threshold - expected).abs() < 1.0,
            "threshold {} vs expected {expected}",
            pot.threshold
        );
    }

    #[test]
    fn nan_pollution_does_not_bias_tail_prob() {
        // Injected NaNs (what the fault injector produces) must leave the
        // fit bit-identical: t0 and the exceedances already ignore them,
        // and the sample count now does too.
        let scores = exponential_scores(5000);
        let clean = pot_threshold(&scores, 98.0, 1e-3).expect("clean fit");
        let mut polluted = scores.clone();
        polluted.extend(std::iter::repeat_n(f64::NAN, 2500));
        polluted.push(f64::INFINITY);
        let noisy = pot_threshold(&polluted, 98.0, 1e-3).expect("polluted fit");
        assert_eq!(clean.t0.to_bits(), noisy.t0.to_bits());
        assert_eq!(clean.shape.to_bits(), noisy.shape.to_bits());
        assert_eq!(clean.scale.to_bits(), noisy.scale.to_bits());
        assert_eq!(clean.threshold.to_bits(), noisy.threshold.to_bits());
    }

    #[test]
    fn too_few_exceedances_returns_none() {
        let scores = vec![1.0; 100];
        assert!(pot_threshold(&scores, 99.0, 1e-3).is_none());
    }

    #[test]
    #[should_panic(expected = "risk must be in")]
    fn invalid_risk_panics() {
        let _ = pot_threshold(&[1.0, 2.0], 98.0, 0.0);
    }
}
