//! MSCRED (Zhang et al., AAAI 2019) — reconstruction baseline (ix).
//!
//! The original builds multi-scale *signature matrices* (pairwise inner
//! products of recent channel segments) and reconstructs them with a
//! ConvLSTM autoencoder; anomalies are scored by the residual of the
//! reconstructed matrices. This reproduction keeps the signature-matrix
//! front end (three scales) and reconstructs with a convolutional
//! autoencoder over a random-projected signature vector — the ConvLSTM is
//! simplified away (DESIGN.md, substitution 5). Scoring is the signature
//! residual, mapped back to timestamps.

#[cfg(test)]
use imdiff_data::Detector;
use imdiff_data::{DetectorError, Mts};
use imdiff_nn::codec::{Dec, Enc};
use imdiff_nn::layers::{Conv1d, Linear, Module};
use imdiff_nn::ops::mse;
use imdiff_nn::optim::Adam;
use imdiff_nn::rng::normal_vec;
use imdiff_nn::{no_grad, Tensor};
use rand::rngs::StdRng;
use rand::Rng;

#[cfg(test)]
use crate::common::rng_for;
use crate::common::{
    corrupt, forecast_scores, put_tensors, require_len, run_training, take_tensors, Baseline,
    Family,
};

/// Segment lengths of the three signature scales.
const SCALES: [usize; 3] = [8, 16, 32];
/// The largest scale: rows of context before the first signature.
const MAX_SCALE: usize = SCALES[SCALES.len() - 1];
/// Random-projection width per scale.
const PROJ: usize = 24;
const HIDDEN: usize = 48;
const TRAIN_STEPS: usize = 120;
const BATCH: usize = 16;

/// Signature vector at position `t` (end-exclusive) for one scale:
/// the upper triangle of the channel inner-product matrix, randomly
/// projected to `PROJ` dims with a fixed seeded matrix.
struct SignatureExtractor {
    /// `[n_pairs, PROJ]` per scale.
    projections: Vec<Vec<f32>>,
    k: usize,
}

impl SignatureExtractor {
    fn new(k: usize, rng: &mut StdRng) -> Self {
        let n_pairs = k * (k + 1) / 2;
        let scale_factor = 1.0 / (n_pairs as f32).sqrt();
        let projections = SCALES
            .iter()
            .map(|_| {
                normal_vec(rng, n_pairs * PROJ)
                    .into_iter()
                    .map(|v| v * scale_factor)
                    .collect()
            })
            .collect();
        SignatureExtractor { projections, k }
    }

    /// Feature vector (3 * PROJ) at end-position `t` (needs `t >= max scale`).
    fn features(&self, x: &Mts, t: usize) -> Vec<f32> {
        let k = self.k;
        let mut out = Vec::with_capacity(SCALES.len() * PROJ);
        for (si, &w) in SCALES.iter().enumerate() {
            // Signature matrix entries: s_ij = <x_i, x_j> / w over [t-w, t).
            let mut sig = Vec::with_capacity(k * (k + 1) / 2);
            for i in 0..k {
                for j in i..k {
                    let mut acc = 0.0f32;
                    for l in (t - w)..t {
                        acc += x.get(l, i) * x.get(l, j);
                    }
                    sig.push(acc / w as f32);
                }
            }
            let proj = &self.projections[si];
            for p in 0..PROJ {
                let mut acc = 0.0f32;
                for (e, &s) in sig.iter().enumerate() {
                    acc += s * proj[e * PROJ + p];
                }
                out.push(acc);
            }
        }
        out
    }
}

struct AutoEncoder {
    conv: Conv1d,
    enc: Linear,
    dec1: Linear,
    dec2: Linear,
}

impl AutoEncoder {
    fn new(rng: &mut StdRng) -> Self {
        let feat_dim = SCALES.len() * PROJ;
        AutoEncoder {
            conv: Conv1d::new(rng, SCALES.len(), SCALES.len(), 3, 1),
            enc: Linear::new(rng, feat_dim, HIDDEN),
            dec1: Linear::new(rng, HIDDEN, HIDDEN),
            dec2: Linear::new(rng, HIDDEN, feat_dim),
        }
    }

    /// `[B, 3*PROJ]` -> reconstruction of the same shape.
    fn forward(&self, x: &Tensor) -> Tensor {
        let b = x.dims()[0];
        // Treat the three scales as channels for the conv front end.
        let conv_in = x.reshape(&[b, SCALES.len(), PROJ]);
        let h = self.conv.forward(&conv_in).relu().reshape(&[b, SCALES.len() * PROJ]);
        let z = self.enc.forward(&h).relu();
        self.dec2.forward(&self.dec1.forward(&z).relu())
    }

    fn params(&self) -> Vec<Tensor> {
        let mut p = self.conv.params();
        p.extend(self.enc.params());
        p.extend(self.dec1.params());
        p.extend(self.dec2.params());
        p
    }
}

/// Signature-matrix convolutional autoencoder.
pub type Mscred = Baseline<SignatureAutoEncoder>;

/// MSCRED's fitted state: the signature front end and its autoencoder.
pub struct SignatureAutoEncoder {
    extractor: SignatureExtractor,
    ae: AutoEncoder,
}

impl Family for SignatureAutoEncoder {
    const NAME: &'static str = "MSCRED";
    const TAG: u64 = 0x35c7ed;
    const MIN_ROWS: usize = MAX_SCALE + 1;

    fn fit(rng: &mut StdRng, train: &Mts) -> Result<Self, DetectorError> {
        require_len(train, MAX_SCALE + 2)?;
        let extractor = SignatureExtractor::new(train.dim(), rng);
        let feat_dim = SCALES.len() * PROJ;
        let ae = AutoEncoder::new(rng);
        // Precompute training features on a stride-2 grid.
        let positions: Vec<usize> = (MAX_SCALE..train.len()).step_by(2).collect();
        let feats: Vec<Vec<f32>> = positions
            .iter()
            .map(|&t| extractor.features(train, t))
            .collect();
        let mut opt = Adam::new(ae.params(), 2e-3);
        run_training(&mut opt, TRAIN_STEPS, 1.0, |_| {
            let batch: Vec<f32> = (0..BATCH)
                .flat_map(|_| feats[rng.gen_range(0..feats.len())].clone())
                .collect();
            let x = Tensor::from_vec(batch, &[BATCH, feat_dim]).expect("batch shape");
            mse(&ae.forward(&x), &x)
        });
        Ok(SignatureAutoEncoder { extractor, ae })
    }

    /// Scores each row by the residual of the signature that ends on it,
    /// so the first `MAX_SCALE - 1` rows are the warm-up.
    fn score(&self, test: &Mts, _: Option<&[bool]>) -> Vec<f64> {
        let feat_dim = SCALES.len() * PROJ;
        forecast_scores(test.len(), MAX_SCALE - 1, 64, |chunk| {
            let batch: Vec<f32> = chunk
                .iter()
                .flat_map(|&s| self.extractor.features(test, s + MAX_SCALE))
                .collect();
            let x = Tensor::from_vec(batch, &[chunk.len(), feat_dim]).expect("batch");
            let recon = no_grad(|| self.ae.forward(&x));
            let (xd, rd) = (x.data(), recon.data());
            (0..chunk.len())
                .map(|bi| {
                    (0..feat_dim)
                        .map(|j| ((xd[bi * feat_dim + j] - rd[bi * feat_dim + j]) as f64).powi(2))
                        .sum::<f64>()
                        / feat_dim as f64
                })
                .collect()
        })
    }

    /// The random projections are stored explicitly so a restored detector
    /// is independent of the RNG draw order at fit time.
    fn put(&self, e: &mut Enc) {
        e.u32(self.extractor.projections.len() as u32);
        for p in &self.extractor.projections {
            e.f32s(p);
        }
        put_tensors(e, &self.ae.params());
    }

    fn take(rng: &mut StdRng, k: usize, d: &mut Dec) -> Result<Self, DetectorError> {
        let n_scales = d.u32()? as usize;
        if n_scales != SCALES.len() {
            return Err(corrupt("signature scale count mismatch"));
        }
        let n_pairs = k * (k + 1) / 2;
        let mut projections = Vec::with_capacity(n_scales);
        for _ in 0..n_scales {
            let p = d.f32s()?;
            if p.len() != n_pairs * PROJ {
                return Err(corrupt("projection matrix shape mismatch"));
            }
            projections.push(p);
        }
        let extractor = SignatureExtractor { projections, k };
        let ae = AutoEncoder::new(rng);
        take_tensors(d, &ae.params())?;
        Ok(SignatureAutoEncoder { extractor, ae })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imdiff_data::synthetic::{generate, Benchmark, SizeProfile};

    #[test]
    fn signature_features_are_deterministic() {
        let m = Mts::new((0..200).map(|v| (v as f32 * 0.1).sin()).collect(), 100, 2);
        let mut rng = rng_for(1, 2);
        let ex = SignatureExtractor::new(2, &mut rng);
        assert_eq!(ex.features(&m, 40), ex.features(&m, 40));
        assert_ne!(ex.features(&m, 40), ex.features(&m, 60));
    }

    #[test]
    fn correlation_break_raises_score() {
        let len = 400;
        let mut data = Vec::new();
        for t in 0..len {
            let v = (t as f32 * 0.2).sin();
            data.push(v);
            data.push(v * 0.8);
        }
        let train = Mts::new(data.clone(), len, 2);
        let mut test = Mts::new(data, len, 2);
        for l in 250..300 {
            let v = test.get(l, 1);
            test.set(l, 1, -v);
        }
        let mut det = Mscred::new(3);
        det.fit(&train).unwrap();
        let d = det.detect(&test).unwrap();
        let anom: f64 = d.scores[260..295].iter().sum::<f64>() / 35.0;
        let norm: f64 = d.scores[50..240].iter().sum::<f64>() / 190.0;
        assert!(anom > norm, "anomaly {anom} vs normal {norm}");
    }

    #[test]
    fn determinism_and_snapshot_roundtrip() {
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 150,
                test_len: 80,
            },
            4,
        );
        let mut det = Mscred::new(7);
        det.fit(&ds.train).unwrap();
        let s1 = imdiff_nn::pool::with_threads(1, || det.score_series(&ds.test, None).unwrap());
        let s4 = imdiff_nn::pool::with_threads(4, || det.score_series(&ds.test, None).unwrap());
        assert_eq!(s1, s4, "scores must be bit-identical across thread counts");
        let bytes = det.snapshot_payload().unwrap();
        let restored = Mscred::restore_from_payload(7, &bytes).unwrap();
        assert_eq!(s1, restored.score_series(&ds.test, None).unwrap());
    }

    #[test]
    fn benchmark_shapes() {
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 150,
                test_len: 80,
            },
            4,
        );
        let mut det = Mscred::new(1);
        det.fit(&ds.train).unwrap();
        let d = det.detect(&ds.test).unwrap();
        assert_eq!(d.scores.len(), 80);
    }
}
