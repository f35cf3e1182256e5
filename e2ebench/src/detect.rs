//! `detect_batch`: offline `detect` over a long synthetic SMD series —
//! the paper's Table 7 inference path. Every call covers four 8-window
//! groups, so the worker pool, the model forward and the kernels do
//! almost all the work; no serving layer runs.

use std::path::Path;
use std::time::Instant;

use imdiff_data::synthetic::{generate, Benchmark, SizeProfile};
use imdiff_data::{Detection, Detector, Mts};
use imdiff_nn::{obs, pool};
use imdiff_registry::{AnyDetector, DetectorKind};
use imdiffusion::ImDiffusionConfig;

use crate::layers;
use crate::metrics::{peak_rss_mb, Outcome};
use crate::stats::{latency_note, median, percentile, tail_percentile};
use crate::{Args, SETUP_REPS};

/// Rows per `detect` call: 32 windows of 48 rows, four 8-window groups.
const SERIES_ROWS: usize = 1536;
/// Distinct test series the calls cycle through (quality is pooled over
/// all of them).
const SERIES: usize = 8;
const TRAIN_ROWS: usize = 600;
/// Fixed latency limit for one `detect` call: about 1.6 times the p50
/// of a 2-core host (1.0-1.2 s, slowest call within 1.3 s), so calls
/// about 1.5 times slower count as misses.
const LATENCY_LIMIT_MS: f64 = 1800.0;
/// Fixed expected number of calls per run, which fixes the tail
/// percentile (see `stats::tail_percentile`).
const EXPECTED_CALLS: f64 = 20.0;

/// The quick configuration with DDIM sampling; training is shortened so
/// set-up stays a small part of a run.
pub fn config() -> ImDiffusionConfig {
    ImDiffusionConfig {
        ddim_steps: Some(4),
        train_steps: 16,
        ..ImDiffusionConfig::quick()
    }
}

struct Setup {
    det: AnyDetector,
    fit_s: f64,
    checkpoint_ms: f64,
    total_s: f64,
}

/// Fit, write the IMDE checkpoint, load it back: the detector every call
/// then uses is the loaded one.
fn set_up(train: &Mts, seed: u64, dir: &Path) -> Setup {
    let t0 = Instant::now();
    let cfg = config();
    let mut det = AnyDetector::new(DetectorKind::ImDiffusion, cfg.clone(), seed);
    det.fit(train).expect("fit");
    let fit_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    std::fs::create_dir_all(dir).expect("work directory");
    let path = dir.join("detector.imde");
    det.save(&path).expect("save checkpoint");
    let det = AnyDetector::load(&cfg, seed, train.dim(), &path).expect("load checkpoint");
    let checkpoint_ms = t1.elapsed().as_secs_f64() * 1e3;
    Setup {
        det,
        fit_s,
        checkpoint_ms,
        total_s: t0.elapsed().as_secs_f64(),
    }
}

/// FNV-1a over the score bits and labels of a detection.
fn digest(d: &Detection) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for s in &d.scores {
        eat(s.to_bits());
    }
    for &l in d.labels.iter().flatten() {
        eat(l as u64);
    }
    h
}

struct Loop {
    latencies_ms: Vec<f64>,
    /// Time between one call returning and the next starting.
    gaps_ms: Vec<f64>,
    elapsed_s: f64,
    errors: u64,
    /// `(series, digest)` per successful call.
    digests: Vec<(usize, u64)>,
    /// First detection of each series.
    first: Vec<Option<Detection>>,
}

/// Calls `detect` back to back, cycling through the series, until
/// `seconds` have passed.
fn run_loop(det: &mut AnyDetector, series: &[Mts], seconds: f64) -> Loop {
    let mut l = Loop {
        latencies_ms: Vec::new(),
        gaps_ms: Vec::new(),
        elapsed_s: 0.0,
        errors: 0,
        digests: Vec::new(),
        first: (0..series.len()).map(|_| None).collect(),
    };
    let start = Instant::now();
    let mut last_end: Option<Instant> = None;
    let mut i = 0;
    while start.elapsed().as_secs_f64() < seconds {
        let s = i % series.len();
        let t = Instant::now();
        if let Some(e) = last_end {
            l.gaps_ms.push((t - e).as_secs_f64() * 1e3);
        }
        let r = det.detect(&series[s]);
        let end = Instant::now();
        last_end = Some(end);
        match r {
            Ok(d) => {
                l.latencies_ms.push((end - t).as_secs_f64() * 1e3);
                l.digests.push((s, digest(&d)));
                if l.first[s].is_none() {
                    l.first[s] = Some(d);
                }
            }
            Err(_) => l.errors += 1,
        }
        i += 1;
    }
    l.elapsed_s = start.elapsed().as_secs_f64();
    l
}

pub fn run(args: &Args, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let data = generate(
        Benchmark::Smd,
        &SizeProfile {
            train_len: TRAIN_ROWS,
            test_len: SERIES_ROWS * SERIES,
        },
        args.seed,
    );
    let series: Vec<Mts> = (0..SERIES)
        .map(|i| data.test.slice_time(i * SERIES_ROWS, SERIES_ROWS))
        .collect();

    let setups: Vec<Setup> = (0..SETUP_REPS)
        .map(|rep| set_up(&data.train, args.seed, &work.join(format!("setup{rep}"))))
        .collect();
    let setup_s = median(&setups.iter().map(|s| s.total_s).collect::<Vec<_>>());
    let fit_s = median(&setups.iter().map(|s| s.fit_s).collect::<Vec<_>>());
    let checkpoint_ms = median(&setups.iter().map(|s| s.checkpoint_ms).collect::<Vec<_>>());
    let mut det = setups.into_iter().last().expect("at least one setup").det;

    // Traced runs first measure untraced for a quarter of the time, so
    // the tracing overhead is a ratio of two runs of the same code.
    let untraced = args
        .trace
        .then(|| run_loop(&mut det, &series, args.seconds * 0.25));
    let before = obs::snapshot();
    obs::set_enabled(args.trace);
    let main = run_loop(&mut det, &series, args.seconds);
    obs::set_enabled(false);
    let after = obs::snapshot();

    // Correctness: every call on a series agrees bit for bit, and the
    // first series scores identically on one pool thread.
    let mut reference: Vec<Option<u64>> = vec![None; SERIES];
    for &(s, d) in main
        .digests
        .iter()
        .chain(untraced.iter().flat_map(|u| &u.digests))
    {
        match reference[s] {
            None => reference[s] = Some(d),
            Some(r) if r != d => {
                out.mismatch(format!("series {s}: detect digest changed between calls"))
            }
            Some(_) => {}
        }
    }
    let t1 = Instant::now();
    let one_thread = pool::with_threads(1, || det.detect(&series[0]));
    let one_thread_ms = t1.elapsed().as_secs_f64() * 1e3;
    match (one_thread, reference[0]) {
        (Ok(d), Some(r)) if digest(&d) != r => out.mismatch(format!(
            "series 0: digest at 1 pool thread differs from {} threads",
            pool::max_threads()
        )),
        (Err(e), _) => out.mismatch(format!("detect at 1 pool thread failed: {e}")),
        (_, None) => out.mismatch("no successful detect call to compare".into()),
        _ => {}
    }

    let calls = main.latencies_ms.len() as u64 + main.errors;
    out.attempted = calls;
    out.failed = main.errors;
    let tail_p = tail_percentile(EXPECTED_CALLS);
    out.note(format!(
        "detect_batch: {} calls of {SERIES_ROWS} rows x {} channels; tail percentile p{tail_p} \
         (fixed for {EXPECTED_CALLS} expected calls)",
        calls,
        data.test.dim()
    ));
    out.note(latency_note(&main.latencies_ms, LATENCY_LIMIT_MS));

    if !args.trace {
        let rows_per_s: Vec<f64> = main
            .latencies_ms
            .iter()
            .map(|ms| SERIES_ROWS as f64 / (ms / 1e3))
            .collect();
        let within = main
            .latencies_ms
            .iter()
            .filter(|&&ms| ms <= LATENCY_LIMIT_MS)
            .count();
        out.set("setup_s", setup_s);
        out.set("peak_rss_mb", peak_rss_mb());
        out.set("detect_rows_per_s", median(&rows_per_s));
        out.set(
            "capacity_rps",
            main.latencies_ms.len() as f64 / main.elapsed_s,
        );
        out.set("score_p50_ms", median(&main.latencies_ms));
        out.set("slo_met_frac", layers::ratio(within as f64, calls as f64));
        out.set(
            "ok_frac",
            layers::ratio(main.latencies_ms.len() as f64, calls as f64),
        );
        return out;
    }

    let untraced = untraced.expect("traced runs measure untraced first");
    out.set(
        "trace.overhead_frac",
        layers::ratio(median(&main.latencies_ms), median(&untraced.latencies_ms)),
    );
    out.set("score_tail_ms", percentile(&main.latencies_ms, tail_p));
    out.set("loadgen.late_p99_ms", percentile(&main.gaps_ms, 99.0));
    out.set("loadgen.sent", calls as f64);
    out.set("loadgen.ok", main.latencies_ms.len() as f64);
    out.set("loadgen.refused", 0.0);
    out.set("loadgen.degraded", 0.0);
    out.set("loadgen.errors", main.errors as f64);
    layers::inference_counts(&mut out, &before, &after);
    out.set(
        "pool.speedup",
        layers::ratio(one_thread_ms, median(&untraced.latencies_ms)),
    );
    layers::pool_region(&mut out);
    out.set("setup.fit_s", fit_s);
    out.set("setup.checkpoint_ms", checkpoint_ms);

    let cfg = config();
    let k = data.test.dim();
    let path = work
        .join(format!("setup{}", SETUP_REPS - 1))
        .join("detector.imde");
    out.set(
        "registry.load_ms.ImDiffusion",
        layers::registry_load_ms(&cfg, args.seed, k, &path),
    );
    let windows: Vec<Mts> = (0..8)
        .map(|i| series[0].slice_time(i * cfg.window, cfg.window))
        .collect();
    out.set(
        "scorer.us_per_window.ImDiffusion",
        layers::scorer_us_per_window(&det, &windows[0]),
    );
    let im = det.as_imdiffusion().expect("an ImDiffusion detector");
    layers::infer_batching(&mut out, im, &windows);
    obs::set_enabled(true);
    layers::model_forward(&mut out, &cfg, 8, k, args.seed);
    obs::set_enabled(false);
    layers::kernels(&mut out, &cfg, 8, k, args.seed);

    // Quality over every series, pooled.
    let mut scores = Vec::with_capacity(SERIES * SERIES_ROWS);
    for (s, first) in main.first.iter().enumerate() {
        let d = match first {
            Some(d) => d.scores.clone(),
            None => det.detect(&series[s]).expect("detect").scores,
        };
        scores.extend(d);
    }
    layers::quality(&mut out, &scores, &data.labels);
    // A detect call never waits in a queue and crosses no wire.
    out.zero_bypassed(&[
        "wire.",
        "server.",
        "monitor.",
        "persist.",
        "registry.load_ms.ZScore",
        "registry.load_ms.IForest",
        "scorer.us_per_window.ZScore",
        "scorer.us_per_window.IForest",
        "setup.server_start_ms",
        "setup.warm_ms",
    ]);
    out
}
