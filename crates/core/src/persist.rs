//! Checkpointing for trained ImDiffusion detectors and live monitors.
//!
//! A detector checkpoint stores the ImTransformer weights plus the fitted
//! normalization statistics, so a production deployment can train once and
//! reload across process restarts (the §6 scenario). The configuration is
//! *not* stored — reconstruct the detector with the same
//! [`crate::ImDiffusionConfig`]; mismatches are caught by shape checks.
//!
//! A *monitor* checkpoint ([`StreamingMonitor::checkpoint`]) additionally
//! persists the full streaming state — window buffer, missing flags,
//! error/fallback histories, health state and fault counters — in a
//! sidecar file, so a restarted serving process resumes mid-stream and
//! produces byte-identical subsequent verdicts (inference is reseeded per
//! call, so the buffered window fully determines the output).
//!
//! Both artifacts are `imdiff_nn::codec` frames (`IMDF` and `IMSM`),
//! written atomically, so a mid-write crash or bit rot surfaces as
//! [`DetectorError::CorruptCheckpoint`] — never as silently altered
//! weights or monitor state. Pre-CRC version-1 files still load.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};

use imdiff_data::DetectorError;
use imdiff_nn::codec::{open, seal, Dec, Enc, IMDF, IMSM};
use imdiff_nn::layers::Module;
use imdiff_nn::serialize::{atomic_write, params_image, read_params};
use imdiff_nn::{NnError, Tensor};

use crate::detector::ImDiffusionDetector;
use crate::history::RollingHistory;
use crate::scorer::WindowScorer;
use crate::streaming::{
    ChannelStats, DriftReference, HealthState, StreamingMonitor, ThresholdMode,
    HISTORY_CAP,
};

/// Maps an [`NnError`] from the weight-file layer onto the detector error
/// taxonomy: I/O stays I/O, damage stays damage, and everything else is an
/// architecture/config mismatch.
fn map_nn(e: NnError) -> DetectorError {
    match e {
        NnError::Io(msg) => DetectorError::Io(msg),
        NnError::Corrupt(msg) => DetectorError::CorruptCheckpoint(msg),
        other => DetectorError::InvalidTrainingData(format!("checkpoint mismatch: {other}")),
    }
}

impl ImDiffusionDetector {
    /// Saves the fitted model and normalizer to `path` as an `IMDF` image
    /// (atomic write).
    ///
    /// Returns [`DetectorError::NotFitted`] when called before
    /// [`Detector::fit`].
    pub fn save(&self, path: &Path) -> Result<(), DetectorError> {
        let bytes = self.save_bytes()?;
        atomic_write(path, &bytes)
            .map_err(|e| DetectorError::Io(format!("cannot write checkpoint: {e}")))
    }

    /// The full IMDF checkpoint image as an in-memory byte buffer —
    /// exactly what [`Self::save`] would write to disk. This is the
    /// ImDiffusion payload of the detector-registry envelope.
    pub fn save_bytes(&self) -> Result<Vec<u8>, DetectorError> {
        let (model, normalizer) = self
            .fitted_parts()
            .ok_or(DetectorError::NotFitted)?;
        let mut params = model.params();
        let (offset, scale) = normalizer_vectors(normalizer);
        params.push(Tensor::from_vec(offset.clone(), &[offset.len()]).expect("offset"));
        params.push(Tensor::from_vec(scale.clone(), &[scale.len()]).expect("scale"));
        // Drift reference rides as one trailing `[4, K]` tensor (mean,
        // std, q25, q75). Readers detect its presence by tensor count, so
        // legacy checkpoints (without it) keep loading.
        if let Some(r) = self.drift_reference() {
            let k = r.channels();
            params.push(Tensor::from_vec(r.to_flat(), &[4, k]).expect("drift ref"));
        }
        Ok(params_image(&params))
    }

    /// Restores a detector from a checkpoint written by [`Self::save`].
    ///
    /// `cfg` and `seed` must match the saving detector's configuration
    /// (the architecture is rebuilt from them); `channels` is the channel
    /// count of the training data. Shape mismatches surface as
    /// [`DetectorError::InvalidTrainingData`], damaged files as
    /// [`DetectorError::CorruptCheckpoint`].
    pub fn load(
        cfg: crate::ImDiffusionConfig,
        seed: u64,
        channels: usize,
        path: &Path,
    ) -> Result<Self, DetectorError> {
        let bytes = std::fs::read(path)
            .map_err(|e| DetectorError::Io(format!("cannot read {}: {e}", path.display())))?;
        Self::load_bytes(cfg, seed, channels, &bytes)
    }

    /// Byte-buffer form of [`Self::load`] (the registry envelope carries
    /// IMDF images in memory). Identical validation and error taxonomy.
    pub fn load_bytes(
        cfg: crate::ImDiffusionConfig,
        seed: u64,
        channels: usize,
        bytes: &[u8],
    ) -> Result<Self, DetectorError> {
        let mut det = ImDiffusionDetector::new(cfg, seed);
        // Build an architecture-matching skeleton by "fitting" statistics
        // placeholders, then overwrite everything from the checkpoint.
        det.init_untrained(channels);
        let (model, _) = det.fitted_parts().expect("skeleton just initialised");
        let mut params = model.params();
        let offset = Tensor::zeros(&[channels]);
        let scale = Tensor::ones(&[channels]);
        params.push(offset.clone());
        params.push(scale.clone());
        // One extra trailing tensor = the drift reference; its absence is
        // a legacy checkpoint, not an error (drift detection stays
        // unarmed). Any other count mismatch falls through to the strict
        // loader's architecture check.
        let (_, mut d) = open(&IMDF, bytes)?;
        let drift = if d.clone().u32()? as usize == params.len() + 1 {
            let t = Tensor::zeros(&[4, channels]);
            params.push(t.clone());
            Some(t)
        } else {
            None
        };
        read_params(&mut d, &params).map_err(map_nn)?;
        det.set_normalizer_vectors(&offset.to_vec(), &scale.to_vec());
        if let Some(t) = drift {
            det.set_drift_reference(DriftReference::from_flat(&t.to_vec(), channels));
        }
        Ok(det)
    }
}

/// Extracts the normalizer's per-channel offset/scale.
fn normalizer_vectors(norm: &imdiff_data::Normalizer) -> (Vec<f32>, Vec<f32>) {
    norm.stats()
}

// ---------------------------------------------------------------------------
// Streaming-state checkpointing
// ---------------------------------------------------------------------------

/// The sidecar path holding streaming state for a detector checkpoint at
/// `path` (`<path>.stream`). Public so supervisors and fault-injection
/// harnesses can archive, inspect or (deliberately) damage the sidecar
/// without re-deriving the naming convention.
pub fn stream_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".stream");
    PathBuf::from(os)
}

impl<D: WindowScorer> StreamingMonitor<D> {
    /// Writes the streaming state (the `IMSM` payload). Fields up to the
    /// drift block are the v1/v2 layout unchanged; v3 appends the block.
    fn encode_stream_payload(&self, e: &mut Enc) {
        e.u32(self.window as u32);
        e.u32(self.hop as u32);
        e.u32(self.channels as u32);
        let (mode, risk) = match self.threshold_mode {
            ThresholdMode::Native => (0, 0.0),
            ThresholdMode::PotDynamic { risk } => (1, risk),
        };
        e.u8(mode);
        e.f64(risk);
        e.u64(self.seen);
        e.u32(self.since_eval as u32);
        e.u8(match self.health {
            HealthState::Healthy => 0,
            HealthState::Degraded => 1,
            HealthState::Warming => 2,
        });
        e.u32(self.pending_gap as u32);
        e.u32(self.max_bridge as u32);
        for counter in [
            self.rows_rejected,
            self.cells_imputed,
            self.gaps_bridged,
            self.rows_bridged,
            self.rewarms,
            self.degraded_evals,
            self.recoveries,
        ] {
            e.u64(counter);
        }
        e.u8(u8::from(self.fallback_tau.is_some()));
        e.f64(self.fallback_tau.unwrap_or(0.0));
        e.str32(self.last_degraded_reason.as_deref().unwrap_or(""));

        e.u32(self.buffer.len() as u32);
        for (row, miss) in self.buffer.iter().zip(&self.missing) {
            put_row(e, row, miss);
        }
        for history in [&self.error_history, &self.fallback_history] {
            e.u32(history.len() as u32);
            for v in history.iter() {
                e.f64(v);
            }
        }
        for st in &self.fallback_stats {
            e.u64(st.count);
            e.f64(st.mean);
            e.f64(st.m2);
        }

        // v3: drift-tracker state. The reference is excluded — it lives
        // in the weight file and re-arms the tracker on restore.
        match &self.drift {
            Some(t) => {
                e.u8(1);
                e.u32(t.capacity as u32);
                e.f64(t.threshold);
                e.u32(t.debounce);
                e.u32(t.consecutive);
                e.u32(t.clear_streak);
                e.u8(u8::from(t.latched));
                e.u64(t.evals);
                e.u64(t.trips);
                e.f64(t.last_score);
                e.u32(t.ring.len() as u32);
                for (row, miss) in &t.ring {
                    put_row(e, row, miss);
                }
            }
            None => e.u8(0),
        }
    }

    /// Writes **only** the IMSM streaming-state sidecar at
    /// `<path>.stream`, leaving the weight file untouched. This is the
    /// periodic-snapshot path of the serving layer: weights change only on
    /// hot reload (and the checkpoint file on disk is already the source
    /// of those weights), while the stream state advances with every row —
    /// so the cadenced write covers just the cheap, frequently-changing
    /// half. Atomic (temp file + rename), CRC-protected.
    pub fn checkpoint_stream(&self, path: &Path) -> Result<(), DetectorError> {
        let image = seal(&IMSM, |e| self.encode_stream_payload(e));
        atomic_write(&stream_path(path), &image)
            .map_err(|e| DetectorError::Io(format!("cannot write stream checkpoint: {e}")))
    }

    /// Restores a monitor around an **already loaded** detector from the
    /// IMSM sidecar at `<path>.stream` — the family-agnostic restore path
    /// used by the detector registry and the serving layer's failover
    /// adoption. The detector must be fitted and match the sidecar's
    /// window/channel geometry; everything else — hop, buffer, histories,
    /// health, counters, drift tracker — comes from the sidecar.
    pub fn restore_with(detector: D, path: &Path) -> Result<Self, DetectorError> {
        let bytes = std::fs::read(stream_path(path)).map_err(|e| {
            DetectorError::Io(format!("cannot read stream checkpoint: {e}"))
        })?;
        let st = parse_stream_sidecar(&bytes)?;
        if detector.window() != st.window {
            return Err(DetectorError::InvalidTrainingData(format!(
                "checkpoint window {} != detector window {}",
                st.window,
                detector.window()
            )));
        }
        Self::attach_state(detector, st)
    }

    /// Builds a monitor from a fitted detector plus parsed sidecar state.
    fn attach_state(detector: D, st: StreamState) -> Result<Self, DetectorError> {
        let mut monitor = StreamingMonitor::new(detector, st.channels, st.hop)?;
        monitor.buffer = st.buffer;
        monitor.missing = st.missing;
        monitor.seen = st.seen;
        monitor.since_eval = st.since_eval;
        monitor.threshold_mode = st.threshold_mode;
        monitor.error_history = RollingHistory::from_ring(st.error_history, HISTORY_CAP);
        monitor.health = st.health;
        monitor.pending_gap = st.pending_gap;
        monitor.max_bridge = st.max_bridge;
        monitor.fallback_stats = st.fallback_stats;
        monitor.fallback_history = RollingHistory::from_ring(st.fallback_history, HISTORY_CAP);
        monitor.fallback_tau = st.fallback_tau;
        monitor.last_degraded_reason = st.last_degraded_reason;
        monitor.rows_rejected = st.rows_rejected;
        monitor.cells_imputed = st.cells_imputed;
        monitor.gaps_bridged = st.gaps_bridged;
        monitor.rows_bridged = st.rows_bridged;
        monitor.rewarms = st.rewarms;
        monitor.degraded_evals = st.degraded_evals;
        monitor.recoveries = st.recoveries;
        // A sidecar drift block means the saved monitor had drift armed:
        // re-arm against the weight file's reference, then restore the
        // tracker's mutable state on top. The sidecar carries no reference
        // of its own — a weight file without one leaves drift unarmed
        // (that monitor could never have armed it in the first place).
        if let Some(ds) = st.drift {
            monitor.set_drift_policy(ds.threshold, ds.debounce);
            if let Some(tracker) = &mut monitor.drift {
                tracker.capacity = ds.capacity;
                tracker.consecutive = ds.consecutive;
                tracker.clear_streak = ds.clear_streak;
                tracker.latched = ds.latched;
                tracker.evals = ds.evals;
                tracker.trips = ds.trips;
                tracker.last_score = ds.last_score;
                tracker.ring = ds.ring.into_iter().collect();
            }
        }
        Ok(monitor)
    }
}

impl StreamingMonitor {
    /// Checkpoints the monitor: model weights + normalizer at `path`
    /// (readable by [`ImDiffusionDetector::load`]) and the complete
    /// streaming state — buffer, missing flags, histories, health state,
    /// counters, thresholds — at `<path>.stream` (`IMSM`, atomic write).
    pub fn checkpoint(&self, path: &Path) -> Result<(), DetectorError> {
        self.detector.save(path)?;
        self.checkpoint_stream(path)
    }

    /// Restores a monitor from a checkpoint written by
    /// [`Self::checkpoint`]. `cfg` and `seed` must match the saving
    /// detector (as for [`ImDiffusionDetector::load`]); everything else —
    /// channel count, hop, buffer, histories, health, counters — comes
    /// from the checkpoint. Subsequent verdicts are identical to the ones
    /// the saved monitor would have produced. Reads v3 (drift-tracker
    /// state), v2 (CRC-checked) and legacy v1 sidecars; pre-v3 files
    /// restore with a freshly armed drift tracker.
    pub fn restore(
        cfg: crate::ImDiffusionConfig,
        seed: u64,
        path: &Path,
    ) -> Result<StreamingMonitor, DetectorError> {
        let bytes = std::fs::read(stream_path(path)).map_err(|e| {
            DetectorError::Io(format!("cannot read stream checkpoint: {e}"))
        })?;
        let st = parse_stream_sidecar(&bytes)?;
        if st.window != cfg.window {
            return Err(DetectorError::InvalidTrainingData(format!(
                "checkpoint window {} != config window {}",
                st.window, cfg.window
            )));
        }
        let detector = ImDiffusionDetector::load(cfg, seed, st.channels, path)?;
        Self::attach_state(detector, st)
    }
}

/// Fully parsed IMSM sidecar state, detector-independent: everything
/// [`StreamingMonitor`] persists besides the model weights.
struct StreamState {
    window: usize,
    hop: usize,
    channels: usize,
    threshold_mode: ThresholdMode,
    seen: u64,
    since_eval: usize,
    health: HealthState,
    pending_gap: usize,
    max_bridge: usize,
    rows_rejected: u64,
    cells_imputed: u64,
    gaps_bridged: u64,
    rows_bridged: u64,
    rewarms: u64,
    degraded_evals: u64,
    recoveries: u64,
    fallback_tau: Option<f64>,
    last_degraded_reason: Option<String>,
    buffer: VecDeque<Vec<f32>>,
    missing: VecDeque<Vec<bool>>,
    error_history: VecDeque<f64>,
    fallback_history: VecDeque<f64>,
    fallback_stats: Vec<ChannelStats>,
    drift: Option<DriftState>,
}

/// The v3 drift-tracker block of a sidecar.
struct DriftState {
    capacity: usize,
    threshold: f64,
    debounce: u32,
    consecutive: u32,
    clear_streak: u32,
    latched: bool,
    evals: u64,
    trips: u64,
    last_score: f64,
    ring: Vec<Row>,
}

/// A buffered row: its values and per-cell missing flags.
type Row = (Vec<f32>, Vec<bool>);

/// One buffered row: `channels` values, then one missing flag per cell.
fn put_row(e: &mut Enc, row: &[f32], miss: &[bool]) {
    for &v in row {
        e.f32(v);
    }
    for &m in miss {
        e.u8(u8::from(m));
    }
}

/// Reads `n` rows written by [`put_row`]; the caller bounds `n` against
/// the remaining bytes.
fn take_rows(d: &mut Dec, n: usize, channels: usize) -> Result<Vec<Row>, DetectorError> {
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let row = d.f32s_n(channels)?;
        let miss = d.take(channels)?.iter().map(|&m| m == 1).collect();
        rows.push((row, miss));
    }
    Ok(rows)
}

/// Reads one length-prefixed score history, refusing more entries than
/// the monitor's rolling cap (no writer emits more).
fn take_history(d: &mut Dec) -> Result<VecDeque<f64>, DetectorError> {
    let n = d.count(8)?;
    if n > HISTORY_CAP {
        return Err(DetectorError::CorruptCheckpoint(format!(
            "checkpoint history has {n} entries, cap is {HISTORY_CAP}"
        )));
    }
    (0..n).map(|_| Ok(d.f64()?)).collect()
}

/// Parses an IMSM sidecar image (any supported version) into
/// [`StreamState`]: the frame check, then structural bounds on the buffer
/// and drift ring.
fn parse_stream_sidecar(bytes: &[u8]) -> Result<StreamState, DetectorError> {
    let (version, mut d) = open(&IMSM, bytes)?;
    let window = d.u32()? as usize;
    let hop = d.u32()? as usize;
    let channels = d.u32()? as usize;
    let threshold_mode = match d.u8()? {
        0 => {
            d.f64()?;
            ThresholdMode::Native
        }
        1 => ThresholdMode::PotDynamic { risk: d.f64()? },
        t => {
            return Err(DetectorError::CorruptCheckpoint(format!(
                "unknown threshold mode tag {t}"
            )))
        }
    };
    let seen = d.u64()?;
    let since_eval = d.u32()? as usize;
    let health = match d.u8()? {
        0 => HealthState::Healthy,
        1 => HealthState::Degraded,
        2 => HealthState::Warming,
        t => {
            return Err(DetectorError::CorruptCheckpoint(format!(
                "unknown health state tag {t}"
            )))
        }
    };
    let pending_gap = d.u32()? as usize;
    let max_bridge = d.u32()? as usize;
    let rows_rejected = d.u64()?;
    let cells_imputed = d.u64()?;
    let gaps_bridged = d.u64()?;
    let rows_bridged = d.u64()?;
    let rewarms = d.u64()?;
    let degraded_evals = d.u64()?;
    let recoveries = d.u64()?;
    let fallback_tau = {
        let has = d.u8()? == 1;
        let tau = d.f64()?;
        has.then_some(tau)
    };
    let reason = d.str32()?;
    let last_degraded_reason = (!reason.is_empty()).then(|| reason.to_owned());

    // Each row is `channels` f32 values plus `channels` flag bytes.
    let row_bytes = channels.saturating_mul(5);
    let n_rows = d.count(row_bytes)?;
    if n_rows > window {
        return Err(DetectorError::CorruptCheckpoint(format!(
            "checkpoint buffer has {n_rows} rows, window is {window}"
        )));
    }
    let (buffer, missing) = take_rows(&mut d, n_rows, channels)?.into_iter().unzip();
    let error_history = take_history(&mut d)?;
    let fallback_history = take_history(&mut d)?;
    let fallback_stats = (0..d.fits(channels, 24)?)
        .map(|_| {
            Ok(ChannelStats {
                count: d.u64()?,
                mean: d.f64()?,
                m2: d.f64()?,
            })
        })
        .collect::<Result<Vec<_>, DetectorError>>()?;

    // v3 drift-tracker block; pre-v3 sidecars restore with whatever
    // fresh tracker the (possibly drift-bearing) weight file arms.
    let drift_state = if version >= 3 && d.u8()? == 1 {
        let capacity = d.u32()? as usize;
        let threshold = d.f64()?;
        let debounce = d.u32()?;
        let consecutive = d.u32()?;
        let clear_streak = d.u32()?;
        let latched = d.u8()? == 1;
        let evals = d.u64()?;
        let trips = d.u64()?;
        let last_score = d.f64()?;
        let n_ring = d.count(row_bytes)?;
        if n_ring > capacity {
            return Err(DetectorError::CorruptCheckpoint(format!(
                "drift ring has {n_ring} rows, capacity is {capacity}"
            )));
        }
        Some(DriftState {
            capacity,
            threshold,
            debounce,
            consecutive,
            clear_streak,
            latched,
            evals,
            trips,
            last_score,
            ring: take_rows(&mut d, n_ring, channels)?,
        })
    } else {
        None
    };
    // Pre-v3 readers stopped ahead of the drift block, so only a v3 image
    // must end here.
    if version >= 3 {
        d.finish()?;
    }

    Ok(StreamState {
        window,
        hop,
        channels,
        threshold_mode,
        seen,
        since_eval,
        health,
        pending_gap,
        max_bridge,
        rows_rejected,
        cells_imputed,
        gaps_bridged,
        rows_bridged,
        rewarms,
        degraded_evals,
        recoveries,
        fallback_tau,
        last_degraded_reason,
        buffer,
        missing,
        error_history,
        fallback_history,
        fallback_stats,
        drift: drift_state,
    })
}

/// A `fit`-free smoke check used in tests: a checkpoint roundtrip must
/// reproduce identical detections.
#[cfg(test)]
fn roundtrip_equivalent(
    original: &mut ImDiffusionDetector,
    restored: &mut ImDiffusionDetector,
    test: &imdiff_data::Mts,
) -> bool {
    use imdiff_data::Detector;
    let a = original.detect(test).expect("original detect");
    let b = restored.detect(test).expect("restored detect");
    a.scores == b.scores && a.labels == b.labels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ImDiffusionConfig;
    use imdiff_data::synthetic::{generate, Benchmark, SizeProfile};
    use imdiff_data::Detector;

    fn tiny_cfg() -> ImDiffusionConfig {
        ImDiffusionConfig {
            window: 16,
            train_stride: 8,
            hidden: 8,
            heads: 2,
            residual_blocks: 1,
            diffusion_steps: 5,
            train_steps: 10,
            batch_size: 2,
            vote_span: 5,
            vote_every: 2,
            ..ImDiffusionConfig::quick()
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("imdiffusion-{}-{name}", std::process::id()))
    }

    #[test]
    fn save_requires_fit() {
        let det = ImDiffusionDetector::new(tiny_cfg(), 1);
        assert!(matches!(
            det.save(&tmp("unfitted.ckpt")),
            Err(DetectorError::NotFitted)
        ));
    }

    #[test]
    fn drift_reference_roundtrips_and_legacy_weights_stay_unarmed() {
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 64,
                test_len: 16,
            },
            21,
        );
        let k = ds.train.dim();
        let mut det = ImDiffusionDetector::new(tiny_cfg(), 13);
        det.fit(&ds.train).unwrap();
        let reference = det.drift_reference().cloned().expect("fit computes it");

        let path = tmp("drift-ref.ckpt");
        det.save(&path).unwrap();
        let loaded = ImDiffusionDetector::load(tiny_cfg(), 13, k, &path).unwrap();
        assert_eq!(loaded.drift_reference(), Some(&reference));

        // A checkpoint written without a reference (the pre-drift layout)
        // loads fine and simply leaves drift detection unarmed.
        det.set_drift_reference(None);
        let legacy = tmp("drift-legacy.ckpt");
        det.save(&legacy).unwrap();
        let mut old = ImDiffusionDetector::load(tiny_cfg(), 13, k, &legacy).unwrap();
        assert!(old.drift_reference().is_none());
        assert!(old.detect(&ds.test).is_ok());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&legacy).ok();
    }

    #[test]
    fn armed_drift_tracker_survives_monitor_checkpoint() {
        use crate::streaming::StreamingMonitor;

        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 80,
                test_len: 64,
            },
            23,
        );
        let k = ds.train.dim();
        let mut det = ImDiffusionDetector::new(tiny_cfg(), 17);
        det.fit(&ds.train).unwrap();
        let mut monitor = StreamingMonitor::new(det, k, 8).unwrap();
        assert!(monitor.set_drift_policy(2.5, 2));
        for l in 0..40 {
            monitor.push(ds.test.row(l)).unwrap();
        }
        let path = tmp("drift-monitor.ckpt");
        monitor.checkpoint(&path).unwrap();
        let mut restored = StreamingMonitor::restore(tiny_cfg(), 17, &path).unwrap();
        assert_eq!(restored.drift_status(), monitor.drift_status());
        // The tracker keeps evolving identically after the restore.
        for l in 40..ds.test.len() {
            let a = monitor.push(ds.test.row(l)).unwrap();
            let b = restored.push(ds.test.row(l)).unwrap();
            assert_eq!(a, b, "verdicts diverged at row {l}");
        }
        assert_eq!(restored.drift_status(), monitor.drift_status());
        assert_eq!(restored.health(), monitor.health());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(path.with_extension("ckpt.stream")).ok();
    }

    #[test]
    fn checkpoint_roundtrip_reproduces_detections() {
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 64,
                test_len: 32,
            },
            3,
        );
        let path = tmp("roundtrip.ckpt");
        let mut det = ImDiffusionDetector::new(tiny_cfg(), 9);
        det.fit(&ds.train).unwrap();
        det.save(&path).unwrap();

        let mut restored =
            ImDiffusionDetector::load(tiny_cfg(), 9, ds.train.dim(), &path).unwrap();
        assert!(roundtrip_equivalent(&mut det, &mut restored, &ds.test));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn monitor_checkpoint_restores_identical_verdicts() {
        use crate::streaming::StreamingMonitor;

        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 80,
                test_len: 64,
            },
            5,
        );
        let mut det = ImDiffusionDetector::new(tiny_cfg(), 5);
        det.fit(&ds.train).unwrap();
        let k = ds.train.dim();
        let mut monitor = StreamingMonitor::new(det, k, 8).unwrap();

        // Stream half the data (with a NaN cell to exercise the missing
        // path), then kill the process at an arbitrary mid-stream point.
        for l in 0..30 {
            let mut row = ds.test.row(l).to_vec();
            if l == 10 {
                row[0] = f32::NAN;
            }
            monitor.push(&row).unwrap();
        }
        let path = tmp("monitor.ckpt");
        monitor.checkpoint(&path).unwrap();
        let mut restored = StreamingMonitor::restore(tiny_cfg(), 5, &path).unwrap();
        assert_eq!(restored.seen(), monitor.seen());
        assert_eq!(restored.health(), monitor.health());

        // The restored monitor must produce byte-identical verdicts for
        // the rest of the stream.
        for l in 30..ds.test.len() {
            let a = monitor.push(ds.test.row(l)).unwrap();
            let b = restored.push(ds.test.row(l)).unwrap();
            assert_eq!(a, b, "diverged at row {l}");
        }
        assert_eq!(restored.health(), monitor.health());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(path.with_extension("ckpt.stream")).ok();
    }

    /// Failover can land while a tenant is Degraded. The restored monitor
    /// must come back *in* Degraded — with the z-score fallback
    /// statistics, calibrated fallback threshold and health counters
    /// intact — not silently reset to Warming (which would drop verdicts
    /// for a full window and erase the fault history operators alarm on).
    #[test]
    fn restore_mid_stream_preserves_degraded_state() {
        use crate::streaming::StreamingMonitor;

        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 80,
                test_len: 64,
            },
            11,
        );
        let mut det = ImDiffusionDetector::new(tiny_cfg(), 11);
        det.fit(&ds.train).unwrap();
        let k = ds.train.dim();
        let mut monitor = StreamingMonitor::new(det, k, 8).unwrap();

        // Healthy warm-up, then blind the stream (majority-missing
        // windows) until the health machine degrades.
        for l in 0..24 {
            monitor.push(ds.test.row(l)).unwrap();
        }
        assert_eq!(monitor.health().state, HealthState::Healthy);
        for _ in 24..40 {
            monitor.push(&vec![f32::NAN; k]).unwrap();
        }
        let before = monitor.health();
        assert_eq!(before.state, HealthState::Degraded);
        assert!(before.degraded_evals > 0);

        let path = tmp("degraded-monitor.ckpt");
        monitor.checkpoint(&path).unwrap();
        let mut restored = StreamingMonitor::restore(tiny_cfg(), 11, &path).unwrap();

        let after = restored.health();
        assert_eq!(after.state, HealthState::Degraded, "restore reset health");
        assert_eq!(after.degraded_evals, before.degraded_evals);
        assert_eq!(after.rows_seen, before.rows_seen);
        assert_eq!(after.cells_imputed, before.cells_imputed);
        assert_eq!(after.recoveries, before.recoveries);
        assert_eq!(
            restored.last_degraded_reason(),
            monitor.last_degraded_reason(),
            "degraded reason lost"
        );

        // Still blind: both monitors must keep serving through the
        // fallback path with bit-identical scores (same Welford stats and
        // calibrated tau survived the roundtrip).
        for _ in 0..16 {
            let a = monitor.push(&vec![f32::NAN; k]).unwrap();
            let b = restored.push(&vec![f32::NAN; k]).unwrap();
            assert_eq!(a, b, "fallback verdicts diverged after restore");
            assert!(a.iter().all(|v| v.degraded));
        }
        assert_eq!(restored.health().state, HealthState::Degraded);

        // Clean data returns: both recover in lockstep (counters advanced
        // from the restored values, not from zero).
        for l in 40..ds.test.len() {
            let a = monitor.push(ds.test.row(l)).unwrap();
            let b = restored.push(ds.test.row(l)).unwrap();
            assert_eq!(a, b, "diverged at recovery row {l}");
        }
        assert_eq!(restored.health(), monitor.health());
        assert!(restored.health().recoveries > before.recoveries);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(stream_path(&path)).ok();
    }

    /// The serving layer's periodic snapshots rewrite only the sidecar;
    /// the cadence trigger is pure policy and never persisted.
    #[test]
    fn sidecar_only_checkpoint_and_cadence() {
        use crate::streaming::StreamingMonitor;

        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 80,
                test_len: 48,
            },
            13,
        );
        let mut det = ImDiffusionDetector::new(tiny_cfg(), 13);
        det.fit(&ds.train).unwrap();
        let k = ds.train.dim();
        let mut monitor = StreamingMonitor::new(det, k, 8).unwrap();
        monitor.set_snapshot_cadence(Some(10));

        let path = tmp("cadence-monitor.ckpt");
        monitor.checkpoint(&path).unwrap();
        monitor.mark_snapshotted();
        let weight_bytes = std::fs::read(&path).unwrap();

        assert!(!monitor.snapshot_due());
        for l in 0..24 {
            monitor.push(ds.test.row(l)).unwrap();
            if monitor.snapshot_due() {
                monitor.checkpoint_stream(&path).unwrap();
                monitor.mark_snapshotted();
            }
        }
        // 24 rows at a cadence of 10 → sidecar rewrites at rows 10 and
        // 20, and the trigger re-arms after each one (4 < 10 ⇒ not due).
        assert!(!monitor.snapshot_due());

        // Drain-time flush, as a serving host would do on shutdown: the
        // cadenced snapshots cover only up to row 20, so an explicit
        // final write captures rows 21..24.
        monitor.checkpoint_stream(&path).unwrap();
        monitor.mark_snapshotted();

        // The weight file was never rewritten by any sidecar snapshot.
        assert_eq!(std::fs::read(&path).unwrap(), weight_bytes);

        // The sidecar alone restores the advanced stream position.
        let mut restored = StreamingMonitor::restore(tiny_cfg(), 13, &path).unwrap();
        assert_eq!(restored.seen(), monitor.seen());
        assert!(!restored.snapshot_due(), "cadence must not persist");
        for l in 24..ds.test.len() {
            let a = monitor.push(ds.test.row(l)).unwrap();
            let b = restored.push(ds.test.row(l)).unwrap();
            assert_eq!(a, b, "diverged at row {l}");
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(stream_path(&path)).ok();
    }

    #[test]
    fn v1_stream_sidecars_still_restore() {
        use crate::streaming::StreamingMonitor;

        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 80,
                test_len: 48,
            },
            7,
        );
        let mut det = ImDiffusionDetector::new(tiny_cfg(), 7);
        det.fit(&ds.train).unwrap();
        let k = ds.train.dim();
        let mut monitor = StreamingMonitor::new(det, k, 8).unwrap();
        for l in 0..24 {
            monitor.push(ds.test.row(l)).unwrap();
        }
        let path = tmp("v1-monitor.ckpt");
        monitor.checkpoint(&path).unwrap();

        // Rewrite the sidecar in the legacy v1 layout: magic + version,
        // no CRC, same payload.
        let mut v1: Vec<u8> = Vec::new();
        v1.extend_from_slice(&IMSM.magic);
        v1.extend_from_slice(&1u32.to_le_bytes());
        let mut payload = Enc::new();
        monitor.encode_stream_payload(&mut payload);
        v1.extend_from_slice(&payload.into_vec());
        std::fs::write(stream_path(&path), v1).unwrap();

        let mut restored = StreamingMonitor::restore(tiny_cfg(), 7, &path).unwrap();
        assert_eq!(restored.seen(), monitor.seen());
        for l in 24..ds.test.len() {
            let a = monitor.push(ds.test.row(l)).unwrap();
            let b = restored.push(ds.test.row(l)).unwrap();
            assert_eq!(a, b, "diverged at row {l}");
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(stream_path(&path)).ok();
    }

    /// CRC-valid sidecars whose window and channel counts claim
    /// `u32::MAX` are corrupt, not allocations of that many rows or cells.
    #[test]
    fn oversized_window_and_channels_are_corrupt() {
        for n_rows in [0u32, 1] {
            let image = seal(&IMSM, |e| {
                e.u32(u32::MAX); // window
                e.u32(1); // hop
                e.u32(u32::MAX); // channels
                e.u8(0);
                e.f64(0.0);
                e.u64(0); // seen
                e.u32(0); // since_eval
                e.u8(2); // Warming
                e.u32(0);
                e.u32(0);
                for _ in 0..7 {
                    e.u64(0);
                }
                e.u8(0);
                e.f64(0.0);
                e.str32("");
                e.u32(n_rows);
                e.raw(&[0; 64]);
            });
            assert!(matches!(
                parse_stream_sidecar(&image),
                Err(DetectorError::CorruptCheckpoint(_))
            ));
        }
    }

    /// A history longer than the rolling cap is corrupt: no writer emits
    /// one, and the monitor's sorted copies assume the cap holds.
    #[test]
    fn history_over_cap_is_corrupt() {
        let cap = HISTORY_CAP;
        for (n_err, n_fb) in [(cap + 1, 0), (0, cap + 1), (cap, cap)] {
            let image = seal(&IMSM, |e| {
                e.u32(16); // window
                e.u32(4); // hop
                e.u32(1); // channels
                e.u8(0);
                e.f64(0.0);
                e.u64(0); // seen
                e.u32(0); // since_eval
                e.u8(2); // Warming
                e.u32(0);
                e.u32(4);
                for _ in 0..7 {
                    e.u64(0);
                }
                e.u8(0);
                e.f64(0.0);
                e.str32("");
                e.u32(0); // no buffered rows
                e.f64s(&vec![1.0; n_err]);
                e.f64s(&vec![1.0; n_fb]);
                e.u64(0);
                e.f64(0.0);
                e.f64(0.0);
                e.u8(0); // no drift block
            });
            let parsed = parse_stream_sidecar(&image);
            if n_err > cap || n_fb > cap {
                assert!(matches!(parsed, Err(DetectorError::CorruptCheckpoint(_))));
            } else {
                assert!(parsed.is_ok());
            }
        }
    }

    #[test]
    fn monitor_restore_rejects_missing_or_garbage_state() {
        use crate::streaming::StreamingMonitor;

        let path = tmp("missing-monitor.ckpt");
        assert!(matches!(
            StreamingMonitor::restore(tiny_cfg(), 5, &path),
            Err(DetectorError::Io(_))
        ));
        let stream = stream_path(&path);
        std::fs::write(&stream, b"garbage").unwrap();
        let err = match StreamingMonitor::restore(tiny_cfg(), 5, &path) {
            Ok(_) => panic!("garbage stream state must not restore"),
            Err(e) => e,
        };
        assert!(matches!(err, DetectorError::CorruptCheckpoint(_)));
        assert!(err.to_string().contains("stream checkpoint"));
        std::fs::remove_file(&stream).ok();
    }

    #[test]
    fn wrong_architecture_rejected() {
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 64,
                test_len: 32,
            },
            3,
        );
        let path = tmp("wrong-arch.ckpt");
        let mut det = ImDiffusionDetector::new(tiny_cfg(), 9);
        det.fit(&ds.train).unwrap();
        det.save(&path).unwrap();

        let bigger = ImDiffusionConfig {
            hidden: 16,
            ..tiny_cfg()
        };
        let err = match ImDiffusionDetector::load(bigger, 9, ds.train.dim(), &path) {
            Ok(_) => panic!("mismatched architecture must not load"),
            Err(e) => e,
        };
        assert!(matches!(err, DetectorError::InvalidTrainingData(_)));
        std::fs::remove_file(&path).ok();
    }
}
