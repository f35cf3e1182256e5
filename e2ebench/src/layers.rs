//! Per-layer probes for the traced run. Each one times calls into a
//! module's public functions from here, at the shapes the workload runs,
//! or reads the counters and spans the program already records; none
//! adds instrumentation inside the program.

use std::cell::Cell;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use imdiff_data::{DetectorError, Mts};
use imdiff_metrics::point::{confusion, PrF1};
use imdiff_metrics::{best_f1_threshold, threshold_at_percentile};
use imdiff_nn::obs::Snapshot;
use imdiff_nn::{forward_only, pool, Tensor};
use imdiff_registry::{AnyDetector, DetectorKind};
use imdiffusion::{
    DriftReference, EnsembleOutput, ImDiffusionConfig, ImDiffusionDetector, ImTransformer,
    WindowScorer,
};

use crate::metrics::Outcome;
use crate::stats::median;

/// Median wall time of `f` in microseconds: one warm-up call, then at
/// least `min_reps` calls and until `budget_ms` of calls have run (capped
/// at 10 000 calls).
pub fn time_us(min_reps: usize, budget_ms: f64, mut f: impl FnMut()) -> f64 {
    f();
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < min_reps
        || (start.elapsed().as_secs_f64() * 1e3 < budget_ms && samples.len() < 10_000)
    {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&samples)
}

/// Difference of one span between two snapshots: `(count, total_ns,
/// self_ns)`.
pub fn span_delta(before: &Snapshot, after: &Snapshot, name: &str) -> (u64, u64, u64) {
    let get = |s: &Snapshot| {
        s.span(name)
            .map_or((0, 0, 0), |x| (x.count, x.total_ns, x.self_ns))
    };
    let (a, b) = (get(before), get(after));
    (
        b.0.saturating_sub(a.0),
        b.1.saturating_sub(a.1),
        b.2.saturating_sub(a.2),
    )
}

/// Difference of one counter between two snapshots.
pub fn counter_delta(before: &Snapshot, after: &Snapshot, name: &str) -> u64 {
    after
        .counter(name)
        .unwrap_or(0)
        .saturating_sub(before.counter(name).unwrap_or(0))
}

/// Difference of one histogram's `(count, sum)` between two snapshots.
pub fn hist_delta(before: &Snapshot, after: &Snapshot, name: &str) -> (u64, f64) {
    let get = |s: &Snapshot| s.histogram(name).map_or((0, 0.0), |h| (h.count, h.sum));
    let (a, b) = (get(before), get(after));
    (b.0.saturating_sub(a.0), b.1 - a.1)
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Inference work counts and the pool's share of span time between two
/// snapshots taken around the workload's traced phase.
pub fn inference_counts(out: &mut Outcome, before: &Snapshot, after: &Snapshot) {
    let windows = counter_delta(before, after, "infer.windows") as f64;
    let groups = counter_delta(before, after, "infer.window_groups") as f64;
    let calls = (counter_delta(before, after, "infer.runs")
        + counter_delta(before, after, "infer.batched_runs")) as f64;
    out.set("infer.windows_per_call", ratio(windows, calls));
    out.set("infer.groups_per_call", ratio(groups, calls));
    // One denoise-step span is one model forward over a window group, so
    // spans per group is how many forwards every window goes through.
    let steps = span_delta(before, after, "infer.denoise_step").0 as f64;
    out.set("model.forwards_per_window", ratio(steps, groups));
    let total_self: u64 = after
        .spans
        .iter()
        .map(|(name, _)| span_delta(before, after, name).2)
        .sum();
    let worker_self = span_delta(before, after, "pool.worker").2;
    out.set(
        "pool.worker_share",
        ratio(worker_self as f64, total_self as f64),
    );
}

/// Kernel timings at the shapes one denoise step of `cfg` runs over a
/// group of `b` windows of `k` channels: the residual block's mid
/// projection as a matmul, the encoder layer norm, and fused attention
/// along time and across channels. The model runs no convolution, so
/// none is timed.
pub fn kernels(out: &mut Outcome, cfg: &ImDiffusionConfig, b: usize, k: usize, seed: u64) {
    let (l, d, h) = (cfg.window, cfg.hidden, cfg.heads);
    let dh = d / h;
    let mut rng = imdiff_nn::rng::seeded(seed);
    let budget = 150.0;
    forward_only(|| {
        let m = b * k * l;
        let a = Tensor::randn(&mut rng, &[m, d]);
        let w = Tensor::randn(&mut rng, &[d, 2 * d]);
        let us = time_us(20, budget, || {
            black_box(a.matmul(&w));
        });
        let flops = 2.0 * m as f64 * d as f64 * (2 * d) as f64;
        out.set("kernel.matmul_gflops", flops / (us * 1e3));

        let x = Tensor::randn(&mut rng, &[b * k, l, d]);
        let (gamma, beta) = (Tensor::ones(&[d]), Tensor::zeros(&[d]));
        out.set(
            "kernel.layer_norm_us",
            time_us(20, budget, || {
                black_box(x.layer_norm(&gamma, &beta, 1e-5));
            }),
        );

        let scale = 1.0 / (dh as f32).sqrt();
        for (name, bh, len) in [
            ("kernel.sdpa_temporal_us", b * k * h, l),
            ("kernel.sdpa_spatial_us", b * l * h, k),
        ] {
            let q = Tensor::randn(&mut rng, &[bh, len, dh]);
            let kk = Tensor::randn(&mut rng, &[bh, len, dh]);
            let v = Tensor::randn(&mut rng, &[bh, len, dh]);
            out.set(
                name,
                time_us(20, budget, || {
                    black_box(Tensor::sdpa(&q, &kk, &v, scale));
                }),
            );
        }
    });
}

/// One ImTransformer forward over `b` windows of `k` channels, and how
/// many kernel calls it makes (from the `nn.*` spans, so only when
/// observability is on).
pub fn model_forward(out: &mut Outcome, cfg: &ImDiffusionConfig, b: usize, k: usize, seed: u64) {
    let model = ImTransformer::new(cfg, k, seed);
    let mut rng = imdiff_nn::rng::seeded(seed ^ 0xF0);
    let l = cfg.window;
    let x_val = Tensor::randn(&mut rng, &[b, k, l]);
    let x_ref = Tensor::randn(&mut rng, &[b, k, l]);
    let steps = vec![cfg.diffusion_steps; b];
    let policies: Vec<usize> = (0..b).map(|i| i % 2).collect();
    let forward = || forward_only(|| black_box(model.forward(&x_val, &x_ref, &steps, &policies)));
    out.set(
        "model.forward_ms",
        time_us(5, 300.0, || drop(forward())) / 1e3,
    );
    let before = imdiff_nn::obs::snapshot();
    drop(forward());
    let after = imdiff_nn::obs::snapshot();
    for (metric, span) in [
        ("kernel.matmul_calls_per_forward", "nn.matmul"),
        ("kernel.layer_norm_calls_per_forward", "nn.layer_norm"),
        ("kernel.sdpa_calls_per_forward", "nn.sdpa"),
    ] {
        out.set(metric, span_delta(&before, &after, span).0 as f64);
    }
}

/// Batched window inference at batch 1 and 8, and the gain batching buys.
pub fn infer_batching(out: &mut Outcome, det: &ImDiffusionDetector, windows: &[Mts]) {
    let one: Vec<(&Mts, Option<&[bool]>)> = windows[..1].iter().map(|w| (w, None)).collect();
    let eight: Vec<(&Mts, Option<&[bool]>)> = windows[..8].iter().map(|w| (w, None)).collect();
    let b1 = time_us(5, 300.0, || drop(black_box(det.detect_windows(&one)))) / 1e3;
    let b8 = time_us(3, 300.0, || drop(black_box(det.detect_windows(&eight)))) / 8e3;
    out.set("infer.ms_per_window.b1", b1);
    out.set("infer.ms_per_window.b8", b8);
    out.set("infer.batch_gain", ratio(b1, b8));
}

/// Cost of an empty parallel region as wide as the pool.
pub fn pool_region(out: &mut Outcome) {
    let n = pool::max_threads();
    out.set(
        "pool.region_us",
        time_us(200, 100.0, || {
            pool::parallel_for(n, 1, |r| {
                black_box(r);
            })
        }),
    );
}

/// Registry load time of a family's checkpoint, in milliseconds.
pub fn registry_load_ms(cfg: &ImDiffusionConfig, seed: u64, channels: usize, path: &Path) -> f64 {
    time_us(5, 200.0, || {
        black_box(AnyDetector::load(cfg, seed, channels, path).expect("checkpoint loads"));
    }) / 1e3
}

/// Single-window scoring cost of a detector, in microseconds.
pub fn scorer_us_per_window(det: &AnyDetector, window: &Mts) -> f64 {
    time_us(5, 200.0, || {
        black_box(det.score_windows(&[(window, None)]).expect("window scores"));
    })
}

/// Metric-name suffix of a family.
pub fn family_metric(prefix: &str, kind: DetectorKind) -> &'static str {
    let name = format!("{prefix}.{}", kind.name());
    crate::metrics::def(&name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .name
}

/// Best point-adjusted and best raw F1 of `scores` against `truth`, over
/// the same 201-quantile threshold grid `imdiff-metrics` searches.
pub fn quality(out: &mut Outcome, scores: &[f64], truth: &[bool]) {
    let (_, pa) = best_f1_threshold(scores, truth);
    let mut raw = PrF1::default();
    let mut last = f64::NAN;
    for i in 0..=200 {
        let th = threshold_at_percentile(scores, 100.0 * i as f64 / 200.0);
        if th == last {
            continue;
        }
        last = th;
        let pred: Vec<bool> = scores.iter().map(|&s| s > th).collect();
        let (tp, fp, fn_) = confusion(&pred, truth);
        let m = PrF1::from_counts(tp, fp, fn_);
        if m.f1 > raw.f1 {
            raw = m;
        }
    }
    out.set("quality.f1_pa", pa.f1);
    out.set("quality.f1_raw", raw.f1);
}

/// A [`WindowScorer`] that forwards to a registry detector and counts the
/// time and windows spent inside it, so a monitor's own cost can be
/// separated from its scorer's.
pub struct TimedScorer {
    pub inner: AnyDetector,
    pub ns: Cell<u64>,
    pub windows: Cell<u64>,
}

impl TimedScorer {
    pub fn new(inner: AnyDetector) -> TimedScorer {
        TimedScorer {
            inner,
            ns: Cell::new(0),
            windows: Cell::new(0),
        }
    }
}

impl WindowScorer for TimedScorer {
    fn family(&self) -> &'static str {
        self.inner.family()
    }

    fn is_fitted(&self) -> bool {
        self.inner.is_fitted()
    }

    fn window(&self) -> usize {
        WindowScorer::window(&self.inner)
    }

    fn channels(&self) -> Option<usize> {
        WindowScorer::channels(&self.inner)
    }

    fn drift_reference(&self) -> Option<&DriftReference> {
        self.inner.drift_reference()
    }

    fn score_windows(
        &self,
        windows: &[(&Mts, Option<&[bool]>)],
    ) -> Result<Vec<EnsembleOutput>, DetectorError> {
        let t = Instant::now();
        let r = self.inner.score_windows(windows);
        self.ns.set(self.ns.get() + t.elapsed().as_nanos() as u64);
        self.windows.set(self.windows.get() + windows.len() as u64);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_f1_never_exceeds_point_adjusted_f1() {
        let truth: Vec<bool> = (0..200)
            .map(|i| (50..60).contains(&i) || (120..150).contains(&i))
            .collect();
        let scores: Vec<f64> = (0..200)
            .map(|i| {
                if i == 55 || i == 130 {
                    5.0
                } else {
                    (i % 7) as f64 * 0.1
                }
            })
            .collect();
        let mut out = Outcome::default();
        quality(&mut out, &scores, &truth);
        let (pa, raw) = (out.values["quality.f1_pa"], out.values["quality.f1_raw"]);
        assert!(raw > 0.0 && raw < pa && pa <= 1.0, "raw {raw} pa {pa}");
    }

    #[test]
    fn time_us_runs_at_least_min_reps() {
        let mut n = 0;
        time_us(7, 0.0, || n += 1);
        assert_eq!(n, 8);
    }
}
