//! Numeric pin for the inference hot path at the shapes the `detect_batch`
//! benchmark runs: one `ImTransformer::forward` at `quick()` over an
//! 8-window group of 38-channel, 48-row windows, and one `ensemble_infer`
//! over a short SMD series.
//!
//! Each run is reduced to an FNV-1a digest of its output bits and checked
//! against a constant per dispatch tier, at one and several pool threads.
//! A kernel rewrite that claims to be bit-identical must leave every
//! digest here unchanged; a deliberate numerics change repins them and
//! says so in CHANGES.md.
//!
//! The same file pins one byte image of every checkpoint format (IMDF
//! weights, IMSM stream sidecar, IMDE registry envelope, IMTS trainer
//! state): a change to how a format is written must leave those digests
//! unchanged.
//!
//! It pins every verdict of a streaming monitor fed past its rolling
//! history capacity, in both threshold modes and across a sidecar
//! restore: a change to how the monitor keeps its thresholds must leave
//! those digests unchanged.
//!
//! Last, it pins every baseline family's whole-series scores (with and
//! without declared-missing cells), one served window and its IMDE
//! envelope bytes, per tier: a change to how the baselines are built,
//! scored or persisted must leave those digests unchanged.

use imdiffusion_repro::core::{
    ensemble_infer_for_tests, stream_path, BatchItem, HealthState, ImDiffusionConfig,
    ImTransformer, StreamingMonitor, ThresholdMode, Trainer, TrainerOptions, WindowScorer,
};
use imdiffusion_repro::data::synthetic::{generate, Benchmark, SizeProfile};
use imdiffusion_repro::data::{Detector, Mts};
use imdiffusion_repro::diffusion::NoiseSchedule;
use imdiffusion_repro::nn::layers::{Linear, Module};
use imdiffusion_repro::nn::serialize::save_params;
use imdiffusion_repro::nn::simd::{self, Tier};
use imdiffusion_repro::nn::{forward_only, pool, rng::seeded, Tensor};
use imdiffusion_repro::registry::{AnyDetector, DetectorKind};

/// SMD channel count, as in the benchmark.
const K: usize = 38;
/// Windows per group, as in the benchmark.
const GROUP: usize = 8;
const MODEL_SEED: u64 = 7;

/// Pinned digests: `(tier, forward, ensemble_infer)`.
const PINS: [(Tier, u64, u64); 2] = [
    (Tier::Scalar, 0x2808_d4c9_a6b4_208f, 0xb2aa_0bfa_f68b_4e3c),
    (Tier::Avx2Fma, 0xaa25_7f3b_e1f7_a070, 0x8c1c_232e_c362_0eeb),
];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

fn tiers() -> Vec<Tier> {
    let mut t = vec![Tier::Scalar];
    if simd::avx2_available() {
        t.push(Tier::Avx2Fma);
    }
    t
}

fn pin(tier: Tier) -> (u64, u64) {
    let &(_, fwd, ens) = PINS.iter().find(|p| p.0 == tier).expect("pinned tier");
    (fwd, ens)
}

/// Runs `f` at the ambient pool width (`t == 0`, so `IMDIFF_THREADS`
/// applies) or capped at `t` threads.
fn at_threads<R>(t: usize, f: impl FnOnce() -> R) -> R {
    if t == 0 {
        f()
    } else {
        pool::with_threads(t, f)
    }
}

/// Thread counts every digest must hold at: ambient, one, and three.
const THREADS: [usize; 3] = [0, 1, 3];

fn forward_digest(model: &ImTransformer, cfg: &ImDiffusionConfig) -> u64 {
    let mut rng = seeded(MODEL_SEED ^ 0xF0);
    let l = cfg.window;
    let x_val = Tensor::randn(&mut rng, &[GROUP, K, l]);
    let x_ref = Tensor::randn(&mut rng, &[GROUP, K, l]);
    let steps: Vec<usize> = (0..GROUP).map(|i| 1 + i * 2).collect();
    let policies: Vec<usize> = (0..GROUP).map(|i| i % 2).collect();
    let out = forward_only(|| model.forward(&x_val, &x_ref, &steps, &policies).to_vec());
    assert_eq!(out.len(), GROUP * K * l);
    assert!(
        out.iter().all(|v| v.is_finite()),
        "non-finite forward output"
    );
    assert!(
        out.iter().any(|&v| v != out[0]),
        "constant forward output pins nothing"
    );
    let mut h = Fnv::new();
    for v in &out {
        h.eat(v.to_bits() as u64);
    }
    h.0
}

#[test]
fn quick_forward_digest_is_pinned() {
    let cfg = ImDiffusionConfig::quick();
    let model = ImTransformer::new(&cfg, K, MODEL_SEED);
    for tier in tiers() {
        for t in THREADS {
            let got = simd::with_tier(tier, || at_threads(t, || forward_digest(&model, &cfg)));
            println!(
                "forward tier={} threads={t} digest={got:#018x}",
                tier.name()
            );
            assert_eq!(
                got,
                pin(tier).0,
                "forward digest, tier={tier:?} threads={t}"
            );
        }
    }
}

#[test]
fn ensemble_infer_digest_is_pinned() {
    let cfg = ImDiffusionConfig {
        ddim_steps: Some(4),
        ..ImDiffusionConfig::quick()
    };
    let data = generate(
        Benchmark::Smd,
        &SizeProfile {
            train_len: 48,
            test_len: 96,
        },
        MODEL_SEED,
    );
    assert_eq!(data.test.dim(), K);
    let model = ImTransformer::new(&cfg, K, MODEL_SEED);
    let schedule = NoiseSchedule::new(cfg.schedule, cfg.diffusion_steps);
    for tier in tiers() {
        for t in THREADS {
            let out = simd::with_tier(tier, || {
                at_threads(t, || {
                    ensemble_infer_for_tests(&model, &cfg, &schedule, &data.test, 11)
                })
            });
            let mut h = Fnv::new();
            for s in &out.scores {
                h.eat(s.to_bits());
            }
            for &v in &out.votes {
                h.eat(v as u64);
            }
            for e in &out.cell_error {
                h.eat(e.to_bits());
            }
            println!(
                "ensemble tier={} threads={t} digest={:#018x}",
                tier.name(),
                h.0
            );
            assert_eq!(
                h.0,
                pin(tier).1,
                "ensemble_infer digest, tier={tier:?} threads={t}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Checkpoint byte images
// ---------------------------------------------------------------------------
//
// One image of each persisted format, built from fixed seeds and inputs,
// reduced to an FNV-1a digest of its bytes. A change to how a format is
// written must leave these unchanged: every one of them is read back by
// deployed code. Images whose content comes from training (the ImDiffusion
// envelope and the trainer state) are pinned per tier; the rest hold on
// every tier.

/// Tier-independent image digests: `(IMDF, IMSM, IMDE ZScore, IMDE IForest)`.
const IMAGE_PINS: (u64, u64, u64, u64) = (
    0x67a1_c7fd_c954_6b47,
    0x4f0a_771d_c3cb_7273,
    0xca7d_4b8a_4dd7_e36c,
    0x5bf0_874d_c451_fac8,
);

/// Per-tier image digests: `(tier, IMDE ImDiffusion, IMTS)`.
const TRAINED_IMAGE_PINS: [(Tier, u64, u64); 2] = [
    (Tier::Scalar, 0xe458_6951_df08_27a4, 0xc7fb_7718_d401_4c5d),
    (Tier::Avx2Fma, 0x7128_888c_32f9_2614, 0xa8df_4dcd_21e8_541d),
];

fn bytes_digest(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    for &b in bytes {
        h.eat(b as u64);
    }
    h.eat(bytes.len() as u64);
    h.0
}

fn scratch(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("imdf-pin-{}-{name}", std::process::id()))
}

/// A small, fast configuration for the trained images.
fn tiny_cfg() -> ImDiffusionConfig {
    ImDiffusionConfig {
        window: 16,
        train_stride: 8,
        hidden: 8,
        heads: 2,
        residual_blocks: 1,
        diffusion_steps: 5,
        train_steps: 6,
        batch_size: 2,
        vote_span: 5,
        vote_every: 2,
        ..ImDiffusionConfig::quick()
    }
}

fn gcp() -> (Mts, Mts) {
    let ds = generate(
        Benchmark::Gcp,
        &SizeProfile {
            train_len: 64,
            test_len: 40,
        },
        MODEL_SEED,
    );
    (ds.train, ds.test)
}

fn fitted(kind: DetectorKind, train: &Mts) -> AnyDetector {
    let mut det = AnyDetector::new(kind, tiny_cfg(), MODEL_SEED);
    det.fit(train).expect("fit");
    det
}

#[test]
fn tier_independent_images_are_pinned() {
    // IMDF: two seeded layers through the standalone weight writer.
    let a = Linear::new(&mut seeded(MODEL_SEED), 5, 3);
    let b = Linear::new(&mut seeded(MODEL_SEED + 1), 3, 2);
    let mut params = a.params();
    params.extend(b.params());
    let path = scratch("weights.imdf");
    save_params(&path, &params).unwrap();
    let imdf = bytes_digest(&std::fs::read(&path).unwrap());
    std::fs::remove_file(&path).ok();

    // IMSM: the sidecar of a z-score monitor fed part of a stream, with a
    // missing cell and a drift tracker armed.
    let (train, test) = gcp();
    let det = fitted(DetectorKind::ZScore, &train);
    let zscore = bytes_digest(&det.save_bytes().unwrap());
    let mut monitor = StreamingMonitor::new(det, train.dim(), 4).unwrap();
    assert!(monitor.set_drift_policy(2.5, 2));
    for l in 0..30 {
        let mut row = test.row(l).to_vec();
        if l == 7 {
            row[0] = f32::NAN;
        }
        monitor.push(&row).unwrap();
    }
    let path = scratch("monitor.ckpt");
    monitor.checkpoint_stream(&path).unwrap();
    let sidecar = stream_path(&path);
    let imsm = bytes_digest(&std::fs::read(&sidecar).unwrap());
    std::fs::remove_file(&sidecar).ok();

    let iforest = bytes_digest(&fitted(DetectorKind::IForest, &train).save_bytes().unwrap());

    let got = (imdf, imsm, zscore, iforest);
    println!(
        "images imdf={imdf:#018x} imsm={imsm:#018x} zscore={zscore:#018x} iforest={iforest:#018x}"
    );
    assert_eq!(got, IMAGE_PINS, "(IMDF, IMSM, IMDE ZScore, IMDE IForest)");
}

#[test]
fn trained_images_are_pinned() {
    let (train, _) = gcp();
    let cfg = tiny_cfg();
    for tier in tiers() {
        let (imde, imts) = simd::with_tier(tier, || {
            let imde = bytes_digest(
                &fitted(DetectorKind::ImDiffusion, &train)
                    .save_bytes()
                    .unwrap(),
            );
            let path = scratch(&format!("trainer-{}.imts", tier.name()));
            let model = ImTransformer::new(&cfg, train.dim(), MODEL_SEED);
            let schedule = NoiseSchedule::new(cfg.schedule, cfg.diffusion_steps);
            Trainer::new(TrainerOptions {
                checkpoint_every: 3,
                checkpoint_path: Some(path.clone()),
                stop_after: Some(3),
                ema: Some(0.9),
                ..TrainerOptions::default()
            })
            .run(&model, &cfg, &schedule, &train, MODEL_SEED)
            .unwrap();
            let imts = bytes_digest(&std::fs::read(&path).unwrap());
            std::fs::remove_file(&path).ok();
            (imde, imts)
        });
        println!(
            "trained images tier={} imde={imde:#018x} imts={imts:#018x}",
            tier.name()
        );
        let &(_, want_imde, want_imts) = TRAINED_IMAGE_PINS
            .iter()
            .find(|p| p.0 == tier)
            .expect("pinned tier");
        assert_eq!(imde, want_imde, "IMDE ImDiffusion, tier={tier:?}");
        assert_eq!(imts, want_imts, "IMTS, tier={tier:?}");
    }
}

// ---------------------------------------------------------------------------
// Streaming monitor verdicts
// ---------------------------------------------------------------------------
//
// A z-score monitor fed well past its rolling-history capacity, so both
// histories evict, with NaN cells, short bridged gaps, one long gap that
// re-warms, and shed items whose verdicts come from the fallback
// threshold. Every verdict is folded into one digest per threshold mode.

/// The monitor's rolling-history capacity (`HISTORY_CAP` in the core
/// crate's streaming module).
const HISTORY_CAP: usize = 4096;

/// Verdict digests: `(Native, PotDynamic { risk: 1e-3 })`.
const MONITOR_PINS: (u64, u64) = (0x3858_9f90_4099_369e, 0x9014_4d1b_80c8_4313);

/// Feeds the scripted stream through `push_batch`, checkpointing and
/// restoring once after the histories have filled; returns the digest of
/// every verdict, in order.
fn monitor_verdict_digest(mode: ThresholdMode) -> u64 {
    let (train, _) = gcp();
    let stream = generate(
        Benchmark::Gcp,
        &SizeProfile {
            train_len: 64,
            test_len: HISTORY_CAP + 1400,
        },
        MODEL_SEED,
    )
    .test;
    let k = stream.dim();
    let mut monitor = StreamingMonitor::new(fitted(DetectorKind::ZScore, &train), k, 4)
        .unwrap()
        .with_threshold_mode(mode);
    let path = scratch(&format!(
        "verdicts-{}.ckpt",
        u8::from(mode != ThresholdMode::Native)
    ));
    let restore_after = HISTORY_CAP + 300;
    let mut restored = false;

    let mut h = Fnv::new();
    let (mut degraded, mut degraded_alarms, mut verdicts) = (0usize, 0usize, 0usize);
    let (mut next_row, mut next_item) = (0usize, 0usize);
    while next_row < stream.len() {
        // Three requests per batch, 1-7 rows each.
        let mut items = Vec::new();
        for _ in 0..3 {
            let gap_before = match next_item {
                400 => 40,
                i if i % 97 == 50 => 2,
                _ => 0,
            };
            next_row += gap_before;
            let end = (next_row + 1 + next_item % 7).min(stream.len());
            let rows = (next_row.min(end)..end)
                .map(|l| {
                    let mut row = stream.row(l).to_vec();
                    if l % 11 == 0 {
                        row[l % k] = f32::NAN;
                    }
                    // Spikes of graded heights that grow along the stream:
                    // the fallback p99 sits among them and moves as old
                    // scores are evicted.
                    if l % 13 == 5 {
                        let grade = ((l * 7919) % 101) as f32 / 20.0;
                        row[(l / 13) % k] += (0.5 + grade) * (1.0 + l as f32 / 1500.0);
                    }
                    row
                })
                .collect();
            items.push(BatchItem {
                gap_before,
                rows,
                shed: next_item % 3 == 1,
            });
            next_row = end.max(next_row);
            next_item += 1;
        }
        for reply in monitor.push_batch(&items) {
            assert!(reply.error.is_none(), "{:?}", reply.error);
            for v in reply.verdicts {
                h.eat(v.index);
                h.eat(v.score.to_bits());
                h.eat(v.votes as u64);
                h.eat(u64::from(v.anomalous) | u64::from(v.degraded) << 1);
                verdicts += 1;
                if v.degraded {
                    degraded += 1;
                    degraded_alarms += usize::from(v.anomalous);
                }
            }
        }
        if !restored && next_row >= restore_after {
            monitor.checkpoint_stream(&path).unwrap();
            monitor = StreamingMonitor::restore_with(fitted(DetectorKind::ZScore, &train), &path)
                .unwrap();
            std::fs::remove_file(stream_path(&path)).ok();
            restored = true;
        }
    }
    let health = monitor.health();
    assert!(restored);
    assert_eq!(health.rewarms, 1, "one long gap re-warms");
    assert!(health.gaps_bridged > 0, "short gaps are bridged");
    assert!(verdicts > HISTORY_CAP + 1000, "{verdicts} verdicts");
    assert!(
        degraded > 0 && degraded_alarms > 0,
        "the fallback threshold decides some verdicts ({degraded_alarms}/{degraded})"
    );
    assert_ne!(health.state, HealthState::Warming);
    h.0
}

#[test]
fn monitor_verdicts_are_pinned() {
    let native = monitor_verdict_digest(ThresholdMode::Native);
    let pot = monitor_verdict_digest(ThresholdMode::PotDynamic { risk: 1e-3 });
    println!("monitor verdicts native={native:#018x} pot={pot:#018x}");
    assert_eq!((native, pot), MONITOR_PINS, "(Native, PotDynamic)");
}

// ---------------------------------------------------------------------------
// Baseline families
// ---------------------------------------------------------------------------
//
// Every baseline family fitted through the registry on the same seeded
// series, then scored whole (with and without declared-missing cells),
// scored as one serving window, and saved as an IMDE envelope. The
// neural families train and score through matmul, so each digest is
// pinned per tier.

/// Per-family digests: `(family, Scalar, Avx2Fma)`.
const BASELINE_PINS: [(DetectorKind, u64, u64); 11] = [
    (
        DetectorKind::ZScore,
        0xbc8a_6310_66f2_6934,
        0xbc8a_6310_66f2_6934,
    ),
    (
        DetectorKind::IForest,
        0xc691_5f09_e072_960f,
        0xc691_5f09_e072_960f,
    ),
    (
        DetectorKind::BeatGan,
        0xc7f0_da83_0a78_df35,
        0xbdb9_83a4_f99f_2494,
    ),
    (
        DetectorKind::LstmAd,
        0x4ca3_bb64_e401_e1ce,
        0x7f40_f2a6_370c_f26a,
    ),
    (
        DetectorKind::InterFusion,
        0x4bf1_0644_b562_93b8,
        0xe010_e6fd_a26b_3949,
    ),
    (
        DetectorKind::OmniAnomaly,
        0x5b18_26f8_e25e_a62c,
        0x61bc_ce65_8cfd_1b60,
    ),
    (
        DetectorKind::Gdn,
        0xc739_16cc_cea2_c840,
        0x3396_2044_17a7_5a80,
    ),
    (
        DetectorKind::MadGan,
        0xc1c1_5f8f_d13a_c07b,
        0xf219_94f6_0784_f3e9,
    ),
    (
        DetectorKind::MtadGat,
        0x71ab_4246_7452_bf7e,
        0x6a6d_e7fe_48da_789c,
    ),
    (
        DetectorKind::Mscred,
        0x9b97_13bb_cc6f_3a2d,
        0x4188_8dcf_80d1_3fde,
    ),
    (
        DetectorKind::TranAd,
        0x3e5a_8d91_f3ec_2ba8,
        0xf408_b25a_cf24_bbc3,
    ),
];

fn baseline_digest(kind: DetectorKind, train: &Mts, test: &Mts) -> u64 {
    let det = fitted(kind, train);
    let mut h = Fnv::new();
    for s in det.score_series(test, None).unwrap() {
        h.eat(s.to_bits());
    }
    let k = test.dim();
    let mut holed = test.clone();
    let mut mask = vec![false; test.len() * k];
    for (l, c) in [(0, 0), (5, 3), (6, 3), (21, k - 1)] {
        holed.set(l, c, f32::NAN);
        mask[l * k + c] = true;
    }
    for s in det.score_series(&holed, Some(&mask)).unwrap() {
        h.eat(s.to_bits());
    }
    let w = det.window();
    let tail = holed.slice_time(test.len() - w, w);
    let out = det
        .score_windows(&[(&tail, Some(&mask[(test.len() - w) * k..]))])
        .unwrap();
    assert_eq!(out.len(), 1);
    for s in &out[0].scores {
        h.eat(s.to_bits());
    }
    for &v in &out[0].votes {
        h.eat(v as u64);
    }
    for e in &out[0].cell_error {
        h.eat(e.to_bits());
    }
    h.eat(bytes_digest(&det.save_bytes().unwrap()));
    h.0
}

#[test]
fn baseline_families_are_pinned() {
    let (train, test) = gcp();
    let floor = BASELINE_PINS
        .iter()
        .map(|p| p.0.min_serving_window())
        .max()
        .unwrap();
    assert!(test.len() > floor, "the series must outlast every floor");
    let mut wrong = Vec::new();
    for tier in tiers() {
        for &(kind, scalar, avx2) in &BASELINE_PINS {
            let want = if tier == Tier::Scalar { scalar } else { avx2 };
            for t in [0, 1] {
                let got = simd::with_tier(tier, || {
                    at_threads(t, || baseline_digest(kind, &train, &test))
                });
                println!(
                    "baseline {} tier={} threads={t} digest={got:#018x}",
                    kind.name(),
                    tier.name()
                );
                if got != want {
                    wrong.push(format!("{} tier={} threads={t}", kind.name(), tier.name()));
                }
            }
        }
    }
    assert!(wrong.is_empty(), "baseline digests moved: {wrong:?}");
}
