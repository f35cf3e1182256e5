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

use imdiffusion_repro::core::{ensemble_infer_for_tests, ImDiffusionConfig, ImTransformer};
use imdiffusion_repro::data::synthetic::{generate, Benchmark, SizeProfile};
use imdiffusion_repro::diffusion::NoiseSchedule;
use imdiffusion_repro::nn::simd::{self, Tier};
use imdiffusion_repro::nn::{forward_only, pool, rng::seeded, Tensor};

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
