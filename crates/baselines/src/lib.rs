//! `imdiff-baselines` — the ten MTS anomaly-detection baselines of the
//! paper's offline evaluation (§5.1).
//!
//! Every baseline implements the shared [`imdiff_data::Detector`] trait so
//! the evaluation harness can drive them interchangeably with ImDiffusion.
//! Each follows the *method* of its original paper (forecasting vs
//! reconstruction vs isolation, the model family, the scoring rule) at a
//! reduced scale sized for single-core CPU runs; simplifications are noted
//! per module and in DESIGN.md.
//!
//! | Detector | Family | Core model |
//! |---|---|---|
//! | [`IsolationForest`] | isolation | randomized isolation trees |
//! | [`BeatGan`] | reconstruction | adversarially-regularized autoencoder |
//! | [`LstmAd`] | forecasting | stacked LSTM next-step predictor |
//! | [`InterFusion`] | reconstruction | hierarchical inter-metric + temporal VAE |
//! | [`OmniAnomaly`] | reconstruction | GRU + VAE |
//! | [`Gdn`] | forecasting | sensor-embedding graph attention |
//! | [`MadGan`] | reconstruction | LSTM GAN with latent-search scoring |
//! | [`MtadGat`] | hybrid | feature + temporal attention, joint objectives |
//! | [`Mscred`] | reconstruction | signature correlation matrices + conv AE |
//! | [`TranAd`] | reconstruction | two-phase adversarial transformer |
//!
//! [`ZScoreDetector`] is an extra statistical family (not part of the
//! paper's table): the cheapest rung of the serving layer's escalation
//! ladder.
//!
//! Every family is a [`Baseline`] over its own fitted model: the lifecycle
//! owns the seed, the fitted state, min-max input scaling, the mask-aware
//! `score_series`, the `snapshot_payload`/`restore_from_payload` frame (the
//! family's native byte payload inside the registry's checkpoint envelope)
//! and the `Detector` face. [`FAMILIES`] lists every family once; the
//! evaluation suite and the registry read it.
//!
//! # Adding a family
//!
//! 1. Write its module: the fitted model type, and `impl Family` with its
//!    name, RNG tag, scoring minimum, `fit(rng, train)`, `score(test, _)`
//!    (the reconstruction or forecast scaffold in `common` does the
//!    windowing) and its payload body (`put`/`take`). Export
//!    `pub type MyFamily = Baseline<MyModel>`.
//! 2. Add one [`FAMILIES`] row, `row::<MyModel>()`.
//! 3. Add one `DetectorKind` variant in `imdiff-registry`, with a new
//!    envelope tag and the same name.

mod beatgan;
mod common;
mod gdn;
mod iforest;
mod interfusion;
mod lstm_ad;
mod madgan;
mod mscred;
mod mtad_gat;
mod omni;
mod tranad;
mod zscore;

pub use beatgan::BeatGan;
pub use common::{Baseline, BaselineDetector};
pub use gdn::Gdn;
pub use iforest::IsolationForest;
pub use interfusion::InterFusion;
pub use lstm_ad::LstmAd;
pub use madgan::MadGan;
pub use mscred::Mscred;
pub use mtad_gat::MtadGat;
pub use omni::OmniAnomaly;
pub use tranad::TranAd;
pub use zscore::ZScoreDetector;

use common::Family;
use imdiff_data::{Detector, DetectorError};

/// A baseline detector of any family.
pub type BoxedBaseline = Box<dyn BaselineDetector>;

/// One row of the family table.
pub struct BaselineFamily {
    /// The family name (`Detector::name`).
    pub name: &'static str,
    /// Fewest rows the fitted detector scores.
    pub min_rows: usize,
    /// Whether the family is one of the paper's Table 2 baselines.
    pub in_paper: bool,
    /// An unfitted detector with the given seed.
    pub new: fn(u64) -> BoxedBaseline,
    /// A fitted detector rebuilt from its seed and `snapshot_payload`.
    pub restore: fn(u64, &[u8]) -> Result<BoxedBaseline, DetectorError>,
}

const fn row<F: Family>() -> BaselineFamily {
    BaselineFamily {
        name: F::NAME,
        min_rows: F::MIN_ROWS,
        in_paper: F::IN_PAPER,
        new: |seed| Box::new(Baseline::<F>::new(seed)),
        restore: |seed, bytes| Ok(Box::new(Baseline::<F>::restore_from_payload(seed, bytes)?)),
    }
}

/// Every baseline family, cheapest first; the paper's baselines in its
/// table order.
pub static FAMILIES: [BaselineFamily; 11] = [
    row::<zscore::Profile>(),
    row::<iforest::Forest>(),
    row::<beatgan::AutoEncoder>(),
    row::<lstm_ad::Forecaster>(),
    row::<interfusion::Model>(),
    row::<omni::Vae>(),
    row::<gdn::GraphDeviation>(),
    row::<madgan::Gan>(),
    row::<mtad_gat::Model>(),
    row::<mscred::SignatureAutoEncoder>(),
    row::<tranad::Model>(),
];

/// The family table row of `name`, if it names a baseline family.
pub fn family(name: &str) -> Option<&'static BaselineFamily> {
    FAMILIES.iter().find(|f| f.name == name)
}

/// Instantiates all ten baselines with a common seed, in the paper's table
/// order.
pub fn all_baselines(seed: u64) -> Vec<Box<dyn Detector>> {
    FAMILIES
        .iter()
        .filter(|f| f.in_paper)
        .map(|f| (f.new)(seed) as Box<dyn Detector>)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_distinct_baselines() {
        let bs = all_baselines(1);
        assert_eq!(bs.len(), 10);
        let mut names: Vec<_> = bs.iter().map(|b| b.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 10);
    }

    #[test]
    fn non_finite_training_data_is_a_typed_error_for_every_family() {
        use imdiff_data::{DetectorError, Mts};
        let mut data: Vec<f32> = (0..200).map(|t| (t as f32 * 0.1).sin()).collect();
        data[41] = f32::NAN;
        let train = Mts::new(data, 100, 2);
        let mut families = all_baselines(1);
        families.push(Box::new(ZScoreDetector::new(1)));
        for mut det in families {
            let name = det.name();
            assert!(
                matches!(
                    det.fit(&train),
                    Err(DetectorError::NonFiniteInput {
                        index: 20,
                        channel: 1
                    })
                ),
                "{name} must reject NaN training input with NonFiniteInput"
            );
        }
    }
}
