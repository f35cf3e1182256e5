//! The benchmark's own arithmetic: medians, quartiles, the tail
//! percentile rule, open-loop latency and lateness, and the residual
//! latency split. Kept free of I/O so every rule here is unit-tested.

use std::time::Instant;

/// Percentiles a tail metric may be reported at, lowest first. A
/// workload's tail percentile is the highest of these that its fixed
/// expected sample count supports.
pub const TAIL_LADDER: [f64; 9] = [50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.8, 99.9];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: f64 = 10.0;

/// Median of `xs` (mean of the middle pair for even counts); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// spreads printed here match the ones the acceptance rule computes.
/// Needs at least two samples; with fewer both quartiles are the value.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let ld = s.len();
    if ld < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let m = ld as i64 + 1;
    let q = |i: i64| -> f64 {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Inter-quartile distance as a share of the median (0 when the median
/// is 0).
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    let m = median(xs);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// The highest ladder percentile that leaves at least
/// [`TAIL_MIN_BEYOND`] of `expected_samples` beyond it; the median when
/// even that is not supported. The argument is the workload's *fixed*
/// expected count, never a run's measured count, so the percentile does
/// not move between runs or commits.
pub fn tail_percentile(expected_samples: f64) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        // The tolerance absorbs rounding in `1 - p/100` (p99.9 of 10 000).
        .find(|p| expected_samples * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND - 1e-6)
        .unwrap_or(TAIL_LADDER[0])
}

/// Expected samples each tail slice must hold.
pub const TAIL_SLICE_MIN: f64 = 1000.0;
/// Most slices a tail is cut into.
pub const TAIL_SLICES_MAX: usize = 16;

/// How many equal time slices a window with `expected_samples` is cut
/// into for [`sliced_tail`]: as many as keep [`TAIL_SLICE_MIN`] samples
/// each, between 1 and [`TAIL_SLICES_MAX`].
pub fn tail_slices(expected_samples: f64) -> usize {
    ((expected_samples / TAIL_SLICE_MIN) as usize).clamp(1, TAIL_SLICES_MAX)
}

/// A tail that one stalled moment cannot dominate: `samples` are
/// `(offset_s, value)` over a window of `window_s` seconds, cut into
/// `slices` equal time slices; each slice's tail is its nearest-rank
/// value at `p`, and the median slice tail is returned.
pub fn sliced_tail(samples: &[(f64, f64)], window_s: f64, slices: usize, p: f64) -> f64 {
    let slices = slices.max(1);
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); slices];
    for &(t, v) in samples {
        let i = ((t / window_s) * slices as f64) as usize;
        per[i.min(slices - 1)].push(v);
    }
    let tails: Vec<f64> = per
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| percentile(s, p))
        .collect();
    median(&tails)
}

/// Nearest-rank value at percentile `p` (0 < p ≤ 100): the smallest
/// sample with at least `p`% of the samples at or below it. 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// One line placing a run's latencies against its fixed limit, so a
/// limit can be checked against what the workload actually measures.
pub fn latency_note(ms: &[f64], limit_ms: f64) -> String {
    format!(
        "latency p50 {:.2} ms, p90 {:.2} ms, p99 {:.2} ms, max {:.2} ms; limit {limit_ms} ms, \
         {} of {} over",
        percentile(ms, 50.0),
        percentile(ms, 90.0),
        percentile(ms, 99.0),
        percentile(ms, 100.0),
        ms.iter().filter(|&&x| x > limit_ms).count(),
        ms.len()
    )
}

/// Open-loop latency in milliseconds, timed from when the request was
/// *due*, so a stalled generator or server charges its wait to every
/// request scheduled behind it.
pub fn latency_from_due_ms(due: Instant, done: Instant) -> f64 {
    done.saturating_duration_since(due).as_secs_f64() * 1e3
}

/// How late the generator sent a request, in milliseconds (0 when on
/// time or early).
pub fn lateness_ms(due: Instant, sent: Instant) -> f64 {
    sent.saturating_duration_since(due).as_secs_f64() * 1e3
}

/// Completion rate of a closed loop, robust to a stall in part of the
/// phase: the sorted completion times (seconds from the start of the
/// measured window) are cut into `blocks` consecutive blocks of equal
/// count; a block's rate is its count over the time since the previous
/// block's last completion (or the window start); the median block rate
/// is returned. 0 with no completions.
pub fn block_median_rate(done_s: &[f64], blocks: usize) -> f64 {
    let t = sorted(done_s);
    if t.is_empty() {
        return 0.0;
    }
    let size = (t.len() / blocks.max(1)).max(1);
    let mut rates = Vec::new();
    let mut prev = 0.0;
    for chunk in t.chunks_exact(size) {
        let end = chunk[size - 1];
        if end > prev {
            rates.push(size as f64 / (end - prev));
        }
        prev = end;
    }
    median(&rates)
}

/// The unattributed share of a request's latency: client-observed mean
/// latency minus the time attributed to measured stages (wire codec,
/// monitor and scorer). It is what the event loop, queues and sockets
/// cost, and may be slightly negative when the stages were timed in
/// isolation and overlap less than in service.
pub fn residual_us(client_latency_us: f64, attributed_us: &[f64]) -> f64 {
    client_latency_us - attributed_us.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), (1.25, 3.75));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]: the
        // exclusive method extrapolates beyond the sample range.
        assert_eq!(quartiles(&[7.0, 5.0]), (4.5, 7.5));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 1000 samples: p99 leaves 10 beyond, p99.5 only 5.
        assert_eq!(tail_percentile(1000.0), 99.0);
        assert_eq!(tail_percentile(999.0), 98.0);
        assert_eq!(tail_percentile(200.0), 95.0);
        assert_eq!(tail_percentile(10_000.0), 99.9);
        assert_eq!(tail_percentile(40.0), 75.0);
        // Too few samples for any tail: fall back to the median.
        assert_eq!(tail_percentile(12.0), 50.0);
        for n in [20.0, 57.0, 333.0, 4321.0] {
            let p = tail_percentile(n);
            assert!(n * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        // With 1000 samples the p99 value has exactly 10 samples above it.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let v = percentile(&xs, tail_percentile(1000.0));
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
    }

    #[test]
    fn latency_counts_from_due_time_not_send_time() {
        let due = Instant::now();
        let sent = due + Duration::from_millis(30);
        let done = sent + Duration::from_millis(5);
        assert!((latency_from_due_ms(due, done) - 35.0).abs() < 1e-9);
        assert!((lateness_ms(due, sent) - 30.0).abs() < 1e-9);
    }

    #[test]
    fn early_send_is_not_late() {
        let sent = Instant::now();
        let due = sent + Duration::from_millis(3);
        assert_eq!(lateness_ms(due, sent), 0.0);
        assert_eq!(latency_from_due_ms(due, sent), 0.0);
    }

    #[test]
    fn sliced_tail_is_the_median_slice_tail() {
        // Four 1 s slices of 100 samples; one slice holds a 500 ms stall.
        let mut xs: Vec<(f64, f64)> = (0..400)
            .map(|i| (i as f64 / 100.0, (i % 100) as f64))
            .collect();
        for x in xs.iter_mut().skip(100).take(20) {
            x.1 = 500.0;
        }
        assert_eq!(
            percentile(&xs.iter().map(|x| x.1).collect::<Vec<_>>(), 99.0),
            500.0
        );
        assert_eq!(sliced_tail(&xs, 4.0, 4, 99.0), 98.0);
        assert_eq!(sliced_tail(&xs, 4.0, 1, 90.0), 94.0);
        assert_eq!(tail_slices(210.0), 1);
        assert_eq!(tail_slices(2500.0), 2);
        assert_eq!(tail_slices(14_000.0), 14);
        assert_eq!(tail_slices(1e6), TAIL_SLICES_MAX);
    }

    #[test]
    fn block_rate_ignores_a_stalled_block() {
        // 100 completions per second for 10 s, with a 2 s stall after the
        // first 300: the mean rate drops, the block median does not.
        let mut t: Vec<f64> = (1..=1000).map(|i| i as f64 / 100.0).collect();
        for x in t.iter_mut().skip(300) {
            *x += 2.0;
        }
        let mean_rate = 1000.0 / t[999];
        assert!(mean_rate < 85.0);
        assert!((block_median_rate(&t, 10) - 100.0).abs() < 1e-6);
        assert_eq!(block_median_rate(&[], 10), 0.0);
        assert!((block_median_rate(&[0.5], 10) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn residual_subtracts_every_attributed_stage() {
        assert_eq!(residual_us(100.0, &[10.0, 20.0, 30.0]), 40.0);
        assert_eq!(residual_us(50.0, &[]), 50.0);
        assert_eq!(residual_us(10.0, &[12.0]), -2.0);
    }
}
