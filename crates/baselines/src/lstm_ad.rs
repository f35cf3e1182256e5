//! LSTM-AD (Malhotra et al., 2015) — forecasting baseline (iii).
//!
//! A stacked LSTM consumes a context window and predicts the next
//! observation; the squared prediction error is the anomaly score. This is
//! also the stand-in for the paper's "legacy deep-learning detector" in the
//! Table 7 production comparison.

#[cfg(test)]
use imdiff_data::Detector;
use imdiff_data::{DetectorError, Mts};
use imdiff_nn::codec::{Dec, Enc};
use imdiff_nn::layers::{Linear, Lstm, Module};
use imdiff_nn::optim::Adam;
use imdiff_nn::{no_grad, ops, Tensor};
use rand::rngs::StdRng;

use crate::common::{
    batch_windows, forecast_scores, put_tensors, require_len, run_training, sample_starts,
    take_tensors, Baseline, Family,
};

/// Context length fed to the LSTM.
const WINDOW: usize = 16;
const HIDDEN: usize = 32;
const TRAIN_STEPS: usize = 150;
const BATCH: usize = 16;

/// LSTM next-step forecaster scored by squared prediction error.
pub type LstmAd = Baseline<Forecaster>;

/// LSTM-AD's fitted model: a stacked LSTM and its next-step head.
pub struct Forecaster {
    lstm: Lstm,
    head: Linear,
}

impl Forecaster {
    fn new(rng: &mut StdRng, k: usize) -> Self {
        Forecaster {
            lstm: Lstm::new(rng, k, HIDDEN),
            head: Linear::new(rng, HIDDEN, k),
        }
    }

    fn params(&self) -> Vec<Tensor> {
        let mut p = self.lstm.params();
        p.extend(self.head.params());
        p
    }
}

impl Family for Forecaster {
    const NAME: &'static str = "LSTM-AD";
    const TAG: u64 = 0x15a;
    const MIN_ROWS: usize = WINDOW + 1;

    fn fit(rng: &mut StdRng, train: &Mts) -> Result<Self, DetectorError> {
        require_len(train, WINDOW + 2)?;
        let k = train.dim();
        let model = Forecaster::new(rng, k);
        let mut opt = Adam::new(model.params(), 2e-3);
        run_training(&mut opt, TRAIN_STEPS, 1.0, |_| {
            let starts = sample_starts(rng, train.len() - 1, WINDOW, BATCH);
            let x = batch_windows(train, &starts, WINDOW);
            let target_rows: Vec<f32> = starts
                .iter()
                .flat_map(|&s| train.row(s + WINDOW).to_vec())
                .collect();
            let target = Tensor::from_vec(target_rows, &[BATCH, k]).expect("target shape");
            let pred = model.head.forward(&model.lstm.forward_last(&x));
            ops::mse(&pred, &target)
        });
        Ok(model)
    }

    fn score(&self, test: &Mts, _: Option<&[bool]>) -> Vec<f64> {
        let k = test.dim();
        forecast_scores(test.len(), WINDOW, 64, |chunk| {
            let x = batch_windows(test, chunk, WINDOW);
            let pred = no_grad(|| self.head.forward(&self.lstm.forward_last(&x)));
            let pd = pred.data();
            chunk
                .iter()
                .enumerate()
                .map(|(bi, &s)| {
                    test.row(s + WINDOW)
                        .iter()
                        .enumerate()
                        .map(|(c, &t)| ((t - pd[bi * k + c]) as f64).powi(2))
                        .sum::<f64>()
                        / k as f64
                })
                .collect()
        })
    }

    fn put(&self, e: &mut Enc) {
        put_tensors(e, &self.params());
    }

    fn take(rng: &mut StdRng, channels: usize, d: &mut Dec) -> Result<Self, DetectorError> {
        let model = Forecaster::new(rng, channels);
        take_tensors(d, &model.params())?;
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imdiff_data::synthetic::{generate, Benchmark, SizeProfile};

    #[test]
    fn detects_injected_spike_on_predictable_signal() {
        // Strongly periodic 2-channel signal.
        let len = 400;
        let data: Vec<f32> = (0..len)
            .flat_map(|t| {
                let v = (t as f32 * 0.3).sin();
                [v, v * 0.5 + 0.1]
            })
            .collect();
        let train = Mts::new(data.clone(), len, 2);
        let mut test = Mts::new(data, len, 2);
        test.set(200, 0, 5.0);
        test.set(201, 0, 5.0);

        let mut det = LstmAd::new(3);
        det.fit(&train).unwrap();
        let d = det.detect(&test).unwrap();
        let spike = d.scores[200].max(d.scores[201]);
        let normal_max = d
            .scores
            .iter()
            .enumerate()
            .filter(|(i, _)| !(198..=204).contains(i))
            .map(|(_, &s)| s)
            .fold(0.0f64, f64::max);
        assert!(spike > normal_max, "spike {spike} vs normal {normal_max}");
    }

    #[test]
    fn full_pipeline_on_synthetic_benchmark() {
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 200,
                test_len: 120,
            },
            4,
        );
        let mut det = LstmAd::new(1);
        det.fit(&ds.train).unwrap();
        let d = det.detect(&ds.test).unwrap();
        assert_eq!(d.scores.len(), 120);
        assert!(d.scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn determinism_and_snapshot_roundtrip() {
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 150,
                test_len: 70,
            },
            2,
        );
        let mut det = LstmAd::new(7);
        det.fit(&ds.train).unwrap();
        let s1 = imdiff_nn::pool::with_threads(1, || det.score_series(&ds.test, None).unwrap());
        let s4 = imdiff_nn::pool::with_threads(4, || det.score_series(&ds.test, None).unwrap());
        assert_eq!(s1, s4, "scores must be bit-identical across thread counts");
        let bytes = det.snapshot_payload().unwrap();
        let restored = LstmAd::restore_from_payload(7, &bytes).unwrap();
        assert_eq!(s1, restored.score_series(&ds.test, None).unwrap());
    }

    #[test]
    fn errors_before_fit() {
        let mut det = LstmAd::new(1);
        assert!(matches!(
            det.detect(&Mts::zeros(50, 2)),
            Err(DetectorError::NotFitted)
        ));
    }
}
