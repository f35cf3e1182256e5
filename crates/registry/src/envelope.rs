//! The IMDE checkpoint envelope — one CRC-checked container format for
//! every detector family.
//!
//! An [`IMDE`] frame (see `imdiff_nn::codec`) whose payload is (all
//! integers little-endian):
//!
//! | field | size | meaning |
//! |---|---|---|
//! | family | u8 | [`DetectorKind::tag`] |
//! | seed | u64 | construction seed (restore rebuilds RNG state from it) |
//! | serving window | u32 | rows per streaming evaluation |
//! | channels | u32 | channel count K of the fitted model |
//! | τ | f64 | synthesized vote threshold (baselines; 0 for ImDiffusion) |
//! | drift flag | u8 | 1 ⇒ a `[4, K]` f32 drift reference follows |
//! | payload len | u32 | length of the family-native payload |
//! | payload | … | `snapshot_payload` bytes, or the IMDF image |
//!
//! Legacy raw `IMDF` checkpoints (written before the registry existed) are
//! accepted by magic sniffing: they restore as ImDiffusion with the
//! caller-supplied seed/channel fallbacks, exactly as
//! [`ImDiffusionDetector::load_bytes`] always did.

use std::path::Path;

use imdiff_data::{Detector, DetectorError, Mts};
use imdiff_nn::codec::{open, seal, HEADER_LEN, IMDE, IMDF};
use imdiff_nn::serialize::atomic_write;
use imdiffusion::{DriftReference, ImDiffusionConfig, WindowScorer};

use crate::any::{AnyDetector, Model};
use crate::kind::DetectorKind;

fn corrupt(msg: impl std::fmt::Display) -> DetectorError {
    DetectorError::CorruptCheckpoint(format!("registry envelope: {msg}"))
}

impl AnyDetector {
    /// The full envelope image as an in-memory byte buffer — exactly what
    /// [`Self::save`] writes to disk.
    pub fn save_bytes(&self) -> Result<Vec<u8>, DetectorError> {
        let channels = self.channels().ok_or(DetectorError::NotFitted)?;
        let payload = self.native_payload()?;
        Ok(seal(&IMDE, |e| {
            e.u8(self.kind().tag());
            e.u64(self.seed());
            e.u32(self.window() as u32);
            e.u32(channels as u32);
            e.f64(self.tau());
            match self.drift_reference() {
                Some(r) => {
                    e.u8(1);
                    for v in r.to_flat() {
                        e.f32(v);
                    }
                }
                None => e.u8(0),
            }
            e.bytes(&payload);
        }))
    }

    /// Persists the envelope atomically (write-to-temp + rename).
    pub fn save(&self, path: &Path) -> Result<(), DetectorError> {
        let bytes = self.save_bytes()?;
        atomic_write(path, &bytes)
            .map_err(|e| DetectorError::Io(format!("cannot write envelope: {e}")))
    }

    /// Restores a detector from envelope bytes.
    ///
    /// `cfg` rebuilds the ImDiffusion architecture when the envelope holds
    /// that family (and supplies the serving window for its validation);
    /// `fallback_seed`/`fallback_channels` are used **only** for legacy
    /// raw-IMDF checkpoints, which don't record them. IMDE envelopes carry
    /// their own.
    pub fn load_bytes(
        cfg: &ImDiffusionConfig,
        fallback_seed: u64,
        fallback_channels: usize,
        bytes: &[u8],
    ) -> Result<AnyDetector, DetectorError> {
        if bytes.starts_with(&IMDF.magic) {
            let model = Model::restore(
                DetectorKind::ImDiffusion,
                cfg,
                fallback_seed,
                fallback_channels,
                bytes,
            )?;
            return Ok(AnyDetector::from_parts(
                DetectorKind::ImDiffusion,
                cfg.clone(),
                fallback_seed,
                cfg.window,
                0.0,
                None,
                fallback_channels,
                model,
            ));
        }
        let (_, mut d) = open(&IMDE, bytes)?;
        let kind = DetectorKind::from_tag(d.u8()?)
            .ok_or_else(|| corrupt("unknown family tag"))?;
        let seed = d.u64()?;
        let serving_window = d.u32()? as usize;
        let channels = d.u32()? as usize;
        let tau = d.f64()?;
        if channels == 0 {
            return Err(corrupt("zero channels"));
        }
        if !tau.is_finite() {
            return Err(corrupt("non-finite tau"));
        }
        if kind == DetectorKind::ImDiffusion {
            if serving_window != cfg.window {
                return Err(DetectorError::InvalidTrainingData(format!(
                    "envelope serving window {serving_window} does not match \
                     configured diffusion window {}",
                    cfg.window
                )));
            }
        } else if serving_window < kind.min_serving_window() {
            return Err(corrupt(format!(
                "serving window {serving_window} below the {} family floor {}",
                kind.name(),
                kind.min_serving_window()
            )));
        }
        let drift_ref = match d.u8()? {
            0 => None,
            1 => {
                let flat = d.f32s_n(channels.saturating_mul(4))?;
                Some(
                    DriftReference::from_flat(&flat, channels)
                        .ok_or_else(|| corrupt("malformed drift reference"))?,
                )
            }
            other => return Err(corrupt(format!("bad drift flag {other}"))),
        };
        let payload = d.bytes()?;
        d.finish()?;
        let model = Model::restore(kind, cfg, seed, channels, payload)?;
        // ImDiffusion's drift reference lives inside its IMDF payload; the
        // envelope copy is authoritative only for baseline families.
        let drift_ref = if kind == DetectorKind::ImDiffusion {
            None
        } else {
            drift_ref
        };
        Ok(AnyDetector::from_parts(
            kind,
            cfg.clone(),
            seed,
            serving_window,
            tau,
            drift_ref,
            channels,
            model,
        ))
    }

    /// File form of [`Self::load_bytes`].
    pub fn load(
        cfg: &ImDiffusionConfig,
        fallback_seed: u64,
        fallback_channels: usize,
        path: &Path,
    ) -> Result<AnyDetector, DetectorError> {
        let bytes = std::fs::read(path)
            .map_err(|e| DetectorError::Io(format!("cannot read {}: {e}", path.display())))?;
        Self::load_bytes(cfg, fallback_seed, fallback_channels, &bytes)
    }

    /// A [`Send`]-safe snapshot of this detector (the cross-thread
    /// currency of the serving stack — model tensors are not `Send`).
    pub fn to_spec(&self) -> Result<AnySpec, DetectorError> {
        Ok(AnySpec {
            cfg: self.config().clone(),
            seed: self.seed(),
            channels: self.channels().ok_or(DetectorError::NotFitted)?,
            bytes: self.save_bytes()?,
        })
    }
}

/// A `Send`-safe detector snapshot: the full IMDE envelope plus the
/// configuration needed to rebuild architecture skeletons. Build on the
/// destination thread with [`AnySpec::build`].
#[derive(Clone)]
pub struct AnySpec {
    /// Configuration (architecture + serving window source).
    pub cfg: ImDiffusionConfig,
    /// Construction seed (legacy-IMDF fallback; envelopes embed their own).
    pub seed: u64,
    /// Channel count (legacy-IMDF fallback).
    pub channels: usize,
    /// The envelope image ([`AnyDetector::save_bytes`]) — or a legacy raw
    /// IMDF image, accepted identically.
    pub bytes: Vec<u8>,
}

impl AnySpec {
    /// Reconstructs the detector (typically on another thread).
    pub fn build(&self) -> Result<AnyDetector, DetectorError> {
        AnyDetector::load_bytes(&self.cfg, self.seed, self.channels, &self.bytes)
    }

    /// The family recorded in the snapshot (envelope tag, or ImDiffusion
    /// for legacy images); `None` when the bytes are unparseable.
    pub fn kind(&self) -> Option<DetectorKind> {
        sniff_family(&self.bytes)
    }
}

/// Reads only the family tag from an envelope (or legacy) image without
/// full decoding — what supervisors use to report the family of an
/// on-disk checkpoint they haven't adopted yet.
pub fn sniff_family(bytes: &[u8]) -> Option<DetectorKind> {
    if bytes.starts_with(&IMDF.magic) {
        return Some(DetectorKind::ImDiffusion);
    }
    if bytes.starts_with(&IMDE.magic) {
        return DetectorKind::from_tag(*bytes.get(HEADER_LEN)?);
    }
    None
}

/// Convenience for tests and examples: fit a fresh detector of `kind` on
/// `train` and return it.
pub fn fit_detector(
    kind: DetectorKind,
    cfg: &ImDiffusionConfig,
    seed: u64,
    train: &Mts,
) -> Result<AnyDetector, DetectorError> {
    let mut det = AnyDetector::new(kind, cfg.clone(), seed);
    det.fit(train)?;
    Ok(det)
}
