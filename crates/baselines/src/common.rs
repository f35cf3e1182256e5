//! The lifecycle every baseline family shares, and the plumbing the neural
//! families share: input scaling, the payload frame, window batching, a
//! generic training loop and the two scoring scaffolds.

use std::borrow::Cow;

use imdiff_data::{
    coverage_starts, Detection, Detector, DetectorError, Mts, NormMethod, Normalizer,
};
use imdiff_nn::codec::{Dec, Enc};
use imdiff_nn::optim::Optimizer;
use imdiff_nn::rng::seeded;
use imdiff_nn::{backward, Tensor};
use rand::rngs::StdRng;
use rand::Rng;

/// One baseline family as the shared lifecycle ([`Baseline`]) drives it:
/// the fitted model, how it trains and scores, and its payload body.
pub trait Family: Sized + 'static {
    /// The family's name, as tables, health endpoints and logs spell it.
    const NAME: &'static str;
    /// Role tag of the family's RNG stream: `fit` and the payload
    /// decoder both draw from `rng_for(seed, TAG)`.
    const TAG: u64;
    /// Fewest rows [`Family::score`] accepts.
    const MIN_ROWS: usize;
    /// Whether the lifecycle min-max normalises series (filling
    /// declared-missing cells) before `fit` and `score`. A family that
    /// keeps raw values reads the missing mask itself.
    const MIN_MAX: bool = true;
    /// Whether the family is one of the paper's Table 2 baselines.
    const IN_PAPER: bool = true;

    /// Trains on a validated (and, under [`Family::MIN_MAX`], normalised)
    /// training series.
    fn fit(rng: &mut StdRng, train: &Mts) -> Result<Self, DetectorError>;

    /// One score per row of a validated series of at least
    /// [`Family::MIN_ROWS`] rows. `missing` is the caller's declared-missing
    /// mask; min-max families see its cells already filled.
    fn score(&self, test: &Mts, missing: Option<&[bool]>) -> Vec<f64>;

    /// Writes the family's payload body, which follows the input scaling
    /// state in the snapshot payload.
    fn put(&self, e: &mut Enc);

    /// Reads what [`Family::put`] wrote; neural families rebuild their
    /// module skeleton from `rng` before loading the stored weights.
    fn take(rng: &mut StdRng, channels: usize, d: &mut Dec) -> Result<Self, DetectorError>;
}

/// A baseline detector of family `F`: the seed, the fitted state and the
/// snapshot payload frame (input scaling state, then the family's body).
pub struct Baseline<F> {
    seed: u64,
    fitted: Option<(NormState, F)>,
}

impl<F: Family> Baseline<F> {
    /// Creates the detector.
    pub fn new(seed: u64) -> Self {
        Baseline { seed, fitted: None }
    }

    fn fitted(&self) -> Result<&(NormState, F), DetectorError> {
        self.fitted.as_ref().ok_or(DetectorError::NotFitted)
    }

    /// Read-only scoring with an optional declared-missing mask
    /// (row-major `[L, K]`, `true` = value absent).
    pub fn score_series(
        &self,
        test: &Mts,
        missing: Option<&[bool]>,
    ) -> Result<Vec<f64>, DetectorError> {
        let (norm, model) = self.fitted()?;
        let test = norm.input(test, missing)?;
        require_len(&test, F::MIN_ROWS)?;
        Ok(model.score(&test, missing))
    }

    /// Serializes the fitted state as the family's registry payload.
    pub fn snapshot_payload(&self) -> Result<Vec<u8>, DetectorError> {
        let (norm, model) = self.fitted()?;
        let mut e = Enc::new();
        norm.encode(&mut e);
        model.put(&mut e);
        Ok(e.into_vec())
    }

    /// Rebuilds a fitted detector from [`Self::snapshot_payload`] bytes.
    pub fn restore_from_payload(seed: u64, bytes: &[u8]) -> Result<Self, DetectorError> {
        let mut d = Dec::new(bytes);
        let norm = NormState::decode(&mut d, F::MIN_MAX)?;
        let model = F::take(&mut rng_for(seed, F::TAG), norm.channels, &mut d)?;
        d.finish()?;
        Ok(Baseline {
            seed,
            fitted: Some((norm, model)),
        })
    }
}

impl<F: Family> Detector for Baseline<F> {
    fn name(&self) -> &'static str {
        F::NAME
    }

    fn fit(&mut self, train: &Mts) -> Result<(), DetectorError> {
        let rng = &mut rng_for(self.seed, F::TAG);
        self.fitted = Some(if F::MIN_MAX {
            let (norm, train_n) = NormState::fit(train)?;
            let model = F::fit(rng, &train_n)?;
            (norm, model)
        } else {
            (NormState::raw(train)?, F::fit(rng, train)?)
        });
        Ok(())
    }

    fn detect(&mut self, test: &Mts) -> Result<Detection, DetectorError> {
        Ok(Detection::from_scores(self.score_series(test, None)?))
    }
}

/// A baseline of any family behind one object-safe face: what the family
/// table ([`crate::FAMILIES`]) constructs and restores.
pub trait BaselineDetector: Detector {
    /// See [`Baseline::score_series`].
    fn score_series(&self, test: &Mts, missing: Option<&[bool]>)
        -> Result<Vec<f64>, DetectorError>;
    /// See [`Baseline::snapshot_payload`].
    fn snapshot_payload(&self) -> Result<Vec<u8>, DetectorError>;
}

impl<F: Family> BaselineDetector for Baseline<F> {
    fn score_series(
        &self,
        test: &Mts,
        missing: Option<&[bool]>,
    ) -> Result<Vec<f64>, DetectorError> {
        Baseline::score_series(self, test, missing)
    }

    fn snapshot_payload(&self) -> Result<Vec<u8>, DetectorError> {
        Baseline::snapshot_payload(self)
    }
}

/// Input scaling fitted at `fit` time and reused at `detect` time:
/// min-max normalisation, or none for a family that keeps raw values.
struct NormState {
    normalizer: Option<Normalizer>,
    channels: usize,
}

/// Rejects an empty or non-finite training series.
fn check_train(train: &Mts) -> Result<(), DetectorError> {
    if train.is_empty() || train.dim() == 0 {
        return Err(DetectorError::InvalidTrainingData(
            "empty training series".into(),
        ));
    }
    // Finiteness boundary: a NaN/∞ would silently poison the min/max
    // statistics here and then every distance, split threshold and
    // gradient downstream — several families (IForest's `gen_range`
    // on NaN bounds, GDN's correlation sort) would outright panic.
    for l in 0..train.len() {
        for c in 0..train.dim() {
            if !train.get(l, c).is_finite() {
                return Err(DetectorError::NonFiniteInput {
                    index: l,
                    channel: c,
                });
            }
        }
    }
    Ok(())
}

impl NormState {
    fn fit(train: &Mts) -> Result<(Self, Mts), DetectorError> {
        check_train(train)?;
        let normalizer = Normalizer::fit(train, NormMethod::MinMax);
        let train_n = normalizer.transform(train);
        Ok((
            NormState {
                normalizer: Some(normalizer),
                channels: train.dim(),
            },
            train_n,
        ))
    }

    /// The state of a family that keeps raw values: the training series is
    /// validated like [`Self::fit`] validates it, and only its channel
    /// count is kept.
    fn raw(train: &Mts) -> Result<Self, DetectorError> {
        check_train(train)?;
        Ok(NormState {
            normalizer: None,
            channels: train.dim(),
        })
    }

    /// The series a family scores: [`Self::transform_masked`] under
    /// min-max, otherwise the input as is, validated the same way.
    fn input<'a>(
        &self,
        test: &'a Mts,
        missing: Option<&[bool]>,
    ) -> Result<Cow<'a, Mts>, DetectorError> {
        if self.normalizer.is_some() {
            return self.transform_masked(test, missing).map(Cow::Owned);
        }
        self.check(test, missing)?;
        Ok(Cow::Borrowed(test))
    }

    /// Validates geometry and rejects non-finite values outside declared-
    /// missing cells with a typed error (the mask is row-major `[L, K]`,
    /// `true` = value absent — the convention of `imdiff_data::mask` and
    /// the streaming monitor).
    fn check(&self, test: &Mts, missing: Option<&[bool]>) -> Result<(), DetectorError> {
        if test.dim() != self.channels {
            return Err(DetectorError::DimensionMismatch {
                expected: self.channels,
                actual: test.dim(),
            });
        }
        let (len, k) = (test.len(), test.dim());
        if let Some(m) = missing {
            if m.len() != len * k {
                return Err(DetectorError::InvalidTrainingData(format!(
                    "missing mask has {} cells, series has {}",
                    m.len(),
                    len * k
                )));
            }
        }
        let declared = |l: usize, c: usize| missing.is_some_and(|m| m[l * k + c]);
        for l in 0..len {
            for c in 0..k {
                if !test.get(l, c).is_finite() && !declared(l, c) {
                    return Err(DetectorError::NonFiniteInput {
                        index: l,
                        channel: c,
                    });
                }
            }
        }
        Ok(())
    }

    /// Mask-aware ingestion boundary of every min-max family's scoring
    /// path: [`Self::check`]s the input, fills declared cells
    /// deterministically (carry-forward → backfill → channel mid-range),
    /// and normalizes. The baselines have no native notion of imputation,
    /// so a placeholder value keeps their arithmetic finite while staying
    /// inside the training data's value envelope.
    fn transform_masked(
        &self,
        test: &Mts,
        missing: Option<&[bool]>,
    ) -> Result<Mts, DetectorError> {
        self.check(test, missing)?;
        let normalizer = self.normalizer.as_ref().expect("min-max state");
        if missing.is_none_or(|m| m.iter().all(|&b| !b)) {
            return Ok(normalizer.transform(test));
        }
        let missing = missing.expect("checked above");
        let (len, k) = (test.len(), test.dim());
        let (offset, scale) = normalizer.stats();
        let mut filled = test.clone();
        for c in 0..k {
            // Carry-forward within the channel; leading holes backfill
            // from the first observation; a fully-missing channel sits at
            // the training mid-range (offset + scale/2 under min-max).
            let first_obs = (0..len).find(|&l| !missing[l * k + c]);
            let mut last: Option<f32> = None;
            for l in 0..len {
                if missing[l * k + c] {
                    let v = last
                        .or_else(|| first_obs.map(|f| test.get(f, c)))
                        .unwrap_or(offset[c] + 0.5 * scale[c]);
                    filled.set(l, c, v);
                } else {
                    last = Some(test.get(l, c));
                }
            }
        }
        Ok(normalizer.transform(&filled))
    }

    /// Serializes the scaling state: the channel count, then the min-max
    /// statistics when there are any.
    fn encode(&self, e: &mut Enc) {
        e.u32(self.channels as u32);
        if let Some(normalizer) = &self.normalizer {
            let (offset, scale) = normalizer.stats();
            e.f32s(&offset);
            e.f32s(&scale);
        }
    }

    /// Inverse of [`Self::encode`].
    fn decode(d: &mut Dec, min_max: bool) -> Result<Self, DetectorError> {
        let channels = d.u32()? as usize;
        let normalizer = if min_max {
            let offset = d.f32s()?;
            let scale = d.f32s()?;
            if offset.len() != channels || scale.len() != channels {
                return Err(corrupt("normalizer state shape mismatch"));
            }
            Some(Normalizer::from_stats(NormMethod::MinMax, offset, scale))
        } else {
            None
        };
        if channels == 0 {
            return Err(corrupt("normalizer state shape mismatch"));
        }
        Ok(NormState {
            normalizer,
            channels,
        })
    }
}

/// Typed corruption error for snapshot payload decoding.
pub(crate) fn corrupt(msg: &str) -> DetectorError {
    DetectorError::CorruptCheckpoint(format!("baseline payload: {msg}"))
}

/// Module parameters in `params()` order: count, then each tensor as a
/// length-prefixed value blob. Shapes are *not* stored — the reader
/// rebuilds the module skeleton from seed + config and only checks
/// element counts, exactly like the IMDF loader's arity check.
pub(crate) fn put_tensors(e: &mut Enc, params: &[Tensor]) {
    e.u32(params.len() as u32);
    for p in params {
        e.f32s(&p.to_vec());
    }
}

/// Loads tensors written by [`put_tensors`] into a freshly constructed
/// skeleton's parameter list, checking arity and element counts.
pub(crate) fn take_tensors(d: &mut Dec, params: &[Tensor]) -> Result<(), DetectorError> {
    let n = d.u32()? as usize;
    if n != params.len() {
        return Err(corrupt(&format!(
            "payload has {n} tensors, model expects {}",
            params.len()
        )));
    }
    for p in params {
        let data = d.f32s()?;
        let want: usize = p.dims().iter().product();
        if data.len() != want {
            return Err(corrupt(&format!(
                "tensor has {} values, model expects {want}",
                data.len()
            )));
        }
        p.set_data(&data);
    }
    Ok(())
}

/// Validates the series is long enough for windowed training or scoring.
pub(crate) fn require_len(series: &Mts, min: usize) -> Result<(), DetectorError> {
    if series.len() < min {
        return Err(DetectorError::InvalidTrainingData(format!(
            "series length {} below required {min}",
            series.len()
        )));
    }
    Ok(())
}

/// Time-major `[B, W, K]` batch tensor from window start offsets.
pub(crate) fn batch_windows(data: &Mts, starts: &[usize], w: usize) -> Tensor {
    let k = data.dim();
    let mut buf = Vec::with_capacity(starts.len() * w * k);
    for &s in starts {
        for l in 0..w {
            buf.extend_from_slice(data.row(s + l));
        }
    }
    Tensor::from_vec(buf, &[starts.len(), w, k]).expect("batch window shape")
}

/// Uniformly sampled window start offsets for training.
pub(crate) fn sample_starts(rng: &mut StdRng, len: usize, w: usize, batch: usize) -> Vec<usize> {
    assert!(len >= w, "series shorter than window");
    (0..batch).map(|_| rng.gen_range(0..=len - w)).collect()
}

/// Generic training loop: `step_fn` builds the loss for each step; the
/// loop backprops, clips and applies the optimizer.
pub(crate) fn run_training<O: Optimizer>(
    opt: &mut O,
    steps: usize,
    grad_clip: f32,
    mut step_fn: impl FnMut(usize) -> Tensor,
) -> Vec<f32> {
    let mut losses = Vec::with_capacity(steps);
    for s in 0..steps {
        let loss = step_fn(s);
        losses.push(loss.item());
        backward(&loss);
        opt.clip_grad_norm(grad_clip);
        opt.step();
        opt.zero_grad();
    }
    losses
}

/// Reconstruction scaffold: covers the series with `window`-row windows
/// at stride `window / 2` (end-aligned tail), batches 32 of them at a time
/// as `[B, window, K]`, and averages each row's errors over the windows
/// that cover it. `errors(x)` returns one error per (window, row) of the
/// batch, window-major.
pub(crate) fn reconstruction_scores(
    test: &Mts,
    window: usize,
    mut errors: impl FnMut(&Tensor) -> Vec<f64>,
) -> Vec<f64> {
    let starts = coverage_starts(test.len(), window, window / 2);
    let mut ps = PointScores::new(test.len());
    for chunk in starts.chunks(32) {
        let errs = errors(&batch_windows(test, chunk, window));
        for (bi, &s) in chunk.iter().enumerate() {
            for l in 0..window {
                ps.add(s + l, errs[bi * window + l]);
            }
        }
    }
    ps.finish()
}

/// Per (window, row) mean over channels of the squared difference between
/// a batch and its reconstruction (same element order, `k` channels).
pub(crate) fn row_mse(x: &Tensor, recon: &Tensor, k: usize) -> Vec<f64> {
    let (xd, rd) = (x.data(), recon.data());
    xd.chunks(k)
        .zip(rd.chunks(k))
        .map(|(xr, rr)| {
            let mut err = 0.0f64;
            for c in 0..k {
                err += ((xr[c] - rr[c]) as f64).powi(2);
            }
            err / k as f64
        })
        .collect()
}

/// Forecast scaffold: scores every row from `context` on from the
/// `context` rows before it. `errors(starts)` receives up to `batch`
/// context-window starts and returns the score of row `start + context`
/// for each. The warm-up rows before `context` take the first computed
/// score.
pub(crate) fn forecast_scores(
    len: usize,
    context: usize,
    batch: usize,
    mut errors: impl FnMut(&[usize]) -> Vec<f64>,
) -> Vec<f64> {
    let mut scores = vec![0.0f64; len];
    let starts: Vec<usize> = (0..len - context).collect();
    for chunk in starts.chunks(batch) {
        for (&s, err) in chunk.iter().zip(errors(chunk)) {
            scores[s + context] = err;
        }
    }
    let first = scores[context];
    scores[..context].fill(first);
    scores
}

/// Accumulates per-window, per-position errors back onto the timeline,
/// averaging where windows overlap. `cell_err[b][l]` is the error window
/// `b` assigns to its local position `l`.
struct PointScores {
    sum: Vec<f64>,
    count: Vec<f64>,
}

impl PointScores {
    fn new(len: usize) -> Self {
        PointScores {
            sum: vec![0.0; len],
            count: vec![0.0; len],
        }
    }

    fn add(&mut self, global_pos: usize, err: f64) {
        self.sum[global_pos] += err;
        self.count[global_pos] += 1.0;
    }

    /// Final per-point scores; uncovered points receive the mean score.
    fn finish(self) -> Vec<f64> {
        let covered: f64 = self.count.iter().filter(|&&c| c > 0.0).count() as f64;
        let mean = if covered > 0.0 {
            self.sum
                .iter()
                .zip(&self.count)
                .filter(|(_, &c)| c > 0.0)
                .map(|(&s, &c)| s / c)
                .sum::<f64>()
                / covered
        } else {
            0.0
        };
        self.sum
            .iter()
            .zip(&self.count)
            .map(|(&s, &c)| if c > 0.0 { s / c } else { mean })
            .collect()
    }
}

/// Deterministic RNG derived from a detector seed and a role tag.
pub(crate) fn rng_for(seed: u64, tag: u64) -> StdRng {
    seeded(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_scores_average_overlaps() {
        let mut ps = PointScores::new(4);
        ps.add(1, 2.0);
        ps.add(1, 4.0);
        ps.add(2, 6.0);
        let out = ps.finish();
        assert_eq!(out[1], 3.0);
        assert_eq!(out[2], 6.0);
        // Uncovered points get the mean of covered ones: (3 + 6) / 2.
        assert_eq!(out[0], 4.5);
        assert_eq!(out[3], 4.5);
    }

    #[test]
    fn batch_windows_layout() {
        let m = Mts::new((0..12).map(|v| v as f32).collect(), 6, 2);
        let t = batch_windows(&m, &[0, 3], 2);
        assert_eq!(t.dims(), &[2, 2, 2]);
        let d = t.to_vec();
        assert_eq!(&d[..4], &[0.0, 1.0, 2.0, 3.0]); // window at 0
        assert_eq!(&d[4..], &[6.0, 7.0, 8.0, 9.0]); // window at 3
    }

    #[test]
    fn norm_state_roundtrip() {
        let train = Mts::new(vec![0.0, 10.0, 1.0, 20.0], 2, 2);
        let (ns, train_n) = NormState::fit(&train).unwrap();
        assert_eq!(train_n.dim(), 2);
        assert!(ns.transform_masked(&Mts::zeros(3, 3), None).is_err());
        assert!(ns.transform_masked(&Mts::zeros(3, 2), None).is_ok());
    }

    #[test]
    fn fit_rejects_non_finite_training_data() {
        let train = Mts::new(vec![0.0, 1.0, f32::INFINITY, 2.0], 2, 2);
        assert!(matches!(
            NormState::fit(&train),
            Err(DetectorError::NonFiniteInput {
                index: 1,
                channel: 0
            })
        ));
    }

    #[test]
    fn transform_masked_rejects_undeclared_nan_and_fills_declared() {
        let train = Mts::new(vec![0.0, 0.0, 10.0, 10.0, 5.0, 5.0], 3, 2);
        let (ns, _) = NormState::fit(&train).unwrap();

        // Undeclared NaN is a typed error naming the cell.
        let mut test = Mts::new(vec![1.0; 8], 4, 2);
        test.set(2, 1, f32::NAN);
        assert!(matches!(
            ns.transform_masked(&test, None),
            Err(DetectorError::NonFiniteInput {
                index: 2,
                channel: 1
            })
        ));

        // Declared missing: carry-forward fills the hole, so the filled
        // series transforms exactly like the series without the hole.
        let mut mask = vec![false; 8];
        mask[2 * 2 + 1] = true;
        let filled = ns.transform_masked(&test, Some(&mask)).unwrap();
        let mut reference = test.clone();
        reference.set(2, 1, reference.get(1, 1));
        let expected = ns.transform_masked(&reference, None).unwrap();
        for l in 0..4 {
            for c in 0..2 {
                assert_eq!(filled.get(l, c), expected.get(l, c));
            }
        }

        // Leading hole backfills from the first observation.
        let mut lead = Mts::new(vec![f32::NAN, 1.0, 3.0, 1.0], 2, 2);
        let mut lead_mask = vec![false; 4];
        lead_mask[0] = true;
        let out = ns.transform_masked(&lead, Some(&lead_mask)).unwrap();
        lead.set(0, 0, 3.0);
        let expect = ns.transform_masked(&lead, None).unwrap();
        assert_eq!(out.get(0, 0), expect.get(0, 0));

        // A mask of the wrong geometry is rejected.
        let short_mask = vec![false; 3];
        assert!(ns.transform_masked(&test, Some(&short_mask)).is_err());
    }

    #[test]
    fn tensor_payload_roundtrip_and_corruption() {
        let src = [
            Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap(),
            Tensor::from_vec(vec![4.0, 5.0], &[1, 2]).unwrap(),
        ];
        let mut e = Enc::new();
        put_tensors(&mut e, &src);
        let bytes = e.into_vec();
        let dst = [Tensor::zeros(&[3]), Tensor::zeros(&[1, 2])];
        let mut d = Dec::new(&bytes);
        take_tensors(&mut d, &dst).unwrap();
        assert!(d.finish().is_ok());
        assert_eq!(dst[1].to_vec(), vec![4.0, 5.0]);

        // Truncation and a wrong skeleton are typed corruption.
        let mut d = Dec::new(&bytes[..bytes.len() - 1]);
        assert!(matches!(
            take_tensors(&mut d, &dst),
            Err(DetectorError::CorruptCheckpoint(_))
        ));
        let mut d = Dec::new(&bytes);
        assert!(matches!(
            take_tensors(&mut d, &dst[..1]),
            Err(DetectorError::CorruptCheckpoint(_))
        ));
        let wrong = [Tensor::zeros(&[2]), Tensor::zeros(&[1, 2])];
        let mut d = Dec::new(&bytes);
        assert!(matches!(
            take_tensors(&mut d, &wrong),
            Err(DetectorError::CorruptCheckpoint(_))
        ));
    }
}
