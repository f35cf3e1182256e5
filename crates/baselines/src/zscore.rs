//! Z-score detector — the statistical floor of the escalation ladder.
//!
//! Per-channel mean/std fitted on the training split; the anomaly score of
//! a row is the mean squared z-score across channels. Orders of magnitude
//! cheaper than any neural family, which makes it the default first rung
//! for tenants whose regime a linear profile explains well.

#[cfg(test)]
use imdiff_data::Detector;
use imdiff_data::{DetectorError, Mts};
use imdiff_nn::codec::{Dec, Enc};
use rand::rngs::StdRng;

use crate::common::{corrupt, Baseline, Family};

/// Floor on the per-channel standard deviation so constant channels don't
/// blow up the score.
const MIN_STD: f64 = 1e-6;

/// Per-channel Gaussian profile scored by mean squared z-score.
pub type ZScoreDetector = Baseline<Profile>;

/// The fitted per-channel mean and standard deviation.
pub struct Profile {
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl Family for Profile {
    const NAME: &'static str = "ZScore";
    /// The profile draws no random numbers.
    const TAG: u64 = 0;
    const MIN_ROWS: usize = 1;
    /// Scores raw values; declared-missing cells are skipped, not filled.
    const MIN_MAX: bool = false;
    /// An extra statistical family, not a row of the paper's table.
    const IN_PAPER: bool = false;

    fn fit(_: &mut StdRng, train: &Mts) -> Result<Self, DetectorError> {
        let (len, k) = (train.len(), train.dim());
        let mut mean = vec![0.0f64; k];
        for l in 0..len {
            for (c, m) in mean.iter_mut().enumerate() {
                *m += train.get(l, c) as f64;
            }
        }
        for m in &mut mean {
            *m /= len as f64;
        }
        let mut var = vec![0.0f64; k];
        for l in 0..len {
            for c in 0..k {
                let d = train.get(l, c) as f64 - mean[c];
                var[c] += d * d;
            }
        }
        let std = var
            .into_iter()
            .map(|v| (v / len as f64).sqrt().max(MIN_STD))
            .collect();
        Ok(Profile { mean, std })
    }

    /// Declared-missing cells contribute nothing; the row's score still
    /// divides by the full channel count.
    fn score(&self, test: &Mts, missing: Option<&[bool]>) -> Vec<f64> {
        let k = self.mean.len();
        let declared = |l: usize, c: usize| missing.is_some_and(|m| m[l * k + c]);
        (0..test.len())
            .map(|l| {
                let mut acc = 0.0f64;
                for c in 0..k {
                    if declared(l, c) {
                        continue;
                    }
                    let z = (test.get(l, c) as f64 - self.mean[c]) / self.std[c];
                    acc += z * z;
                }
                acc / k as f64
            })
            .collect()
    }

    /// The channel count is written by the lifecycle ahead of the body.
    fn put(&self, e: &mut Enc) {
        e.f64s(&self.mean);
        e.f64s(&self.std);
    }

    fn take(_: &mut StdRng, k: usize, d: &mut Dec) -> Result<Self, DetectorError> {
        let mean = d.f64s()?;
        let std = d.f64s()?;
        if mean.len() != k || std.len() != k {
            return Err(corrupt("z-score profile shape mismatch"));
        }
        if mean.iter().any(|m| !m.is_finite()) || std.iter().any(|s| !s.is_finite() || *s <= 0.0) {
            return Err(corrupt("non-finite z-score profile"));
        }
        Ok(Profile { mean, std })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine(len: usize) -> Vec<f32> {
        (0..len)
            .flat_map(|t| {
                let v = (t as f32 * 0.3).sin();
                [v, v * 0.5 + 1.0]
            })
            .collect()
    }

    #[test]
    fn spikes_score_higher() {
        let train = Mts::new(sine(300), 300, 2);
        let mut test = Mts::new(sine(300), 300, 2);
        test.set(100, 0, 8.0);
        let mut det = ZScoreDetector::new(1);
        det.fit(&train).unwrap();
        let d = det.detect(&test).unwrap();
        let normal = d
            .scores
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 100)
            .map(|(_, &s)| s)
            .fold(0.0f64, f64::max);
        assert!(d.scores[100] > normal);
    }

    #[test]
    fn nan_input_is_typed_error() {
        let train = Mts::new(sine(100), 100, 2);
        let mut det = ZScoreDetector::new(1);
        det.fit(&train).unwrap();
        let mut test = Mts::new(sine(50), 50, 2);
        test.set(10, 1, f32::NAN);
        assert!(matches!(
            det.detect(&test),
            Err(DetectorError::NonFiniteInput {
                index: 10,
                channel: 1
            })
        ));
        // The same cell declared missing scores fine.
        let mut mask = vec![false; 50 * 2];
        mask[10 * 2 + 1] = true;
        let scores = det.score_series(&test, Some(&mask)).unwrap();
        assert!(scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn determinism_and_snapshot_roundtrip() {
        let train = Mts::new(sine(200), 200, 2);
        let test = Mts::new(sine(80), 80, 2);
        let mut det = ZScoreDetector::new(7);
        det.fit(&train).unwrap();
        let s1 = imdiff_nn::pool::with_threads(1, || det.score_series(&test, None).unwrap());
        let s4 = imdiff_nn::pool::with_threads(4, || det.score_series(&test, None).unwrap());
        assert_eq!(s1, s4);
        let bytes = det.snapshot_payload().unwrap();
        let restored = ZScoreDetector::restore_from_payload(7, &bytes).unwrap();
        assert_eq!(s1, restored.score_series(&test, None).unwrap());
    }

    #[test]
    fn not_fitted_error() {
        let mut det = ZScoreDetector::new(1);
        assert!(matches!(
            det.detect(&Mts::zeros(5, 2)),
            Err(DetectorError::NotFitted)
        ));
    }
}
