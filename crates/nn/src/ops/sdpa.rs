//! Fused scaled-dot-product attention (inference only).
//!
//! `softmax(scale · Q Kᵀ) V` computed a few query rows at a time without
//! materializing the `[L, L]` score matrix or its softmax — the
//! intermediates the unfused `layers::attention` path allocates per head.
//! Score rows live in reused per-worker scratch (four padded rows plus a
//! transposed K on Avx2Fma, one row on Scalar); the weighted V-sum
//! accumulates straight into the output rows.
//!
//! The op is forward-only by design: training keeps the unfused graph path
//! (which records per-op backward closures), inference — tape or tape-free,
//! it is gated on gradient *tracking* being off, not on the arena — always
//! takes this kernel, so both inference modes see identical arithmetic and
//! stay bit-identical to each other on a given dispatch tier.

use crate::pool;
use crate::shape::Shape;
use crate::simd::{self, Tier};
use crate::tensor::Tensor;

/// FLOPs below which one `[L, Dh]` block is not worth a worker.
const MIN_PAR_FLOPS: usize = 1 << 19;

/// Fused attention for one `[L, Dh]` block on the Avx2Fma tier, for any
/// head width (tests run `Dh` 4, `quick()` 8, `paper()` 16). Lanes run
/// over keys: `kt` is a `dh × lp` transpose of K (lp = L padded to 8), so
/// one vector holds a Q·K dot for eight keys at once, and four query rows
/// share every K and V load.
///
/// Every element follows the arithmetic of an 8-wide fma dot product and
/// an 8-wide fma axpy, so the result does not depend on how rows, keys or
/// blocks are grouped:
/// * scores — per key lane and per chunk position `p` in `0..8`, an fma
///   chain `a_p = fma(q[8c+p], k[8c+p], a_p)` over the `dh / 8` full
///   chunks from +0.0; then the horizontal-sum tree
///   `((a0+a4)+(a2+a6)) + ((a1+a5)+(a3+a7))` as vertical adds; then the
///   ascending scalar-order fma tail over the last `dh % 8` elements;
///   then `scale ·`. For `dh < 8` the chunk chains are empty and the tree
///   is +0.0, so only the tail chain remains;
/// * softmax — the same per-element steps as `softmax_last` on this tier:
///   ascending max, subtract, `vexp_avx2`, ascending sum, `p · (1/sum)`;
/// * V-sum — per output element, an ascending-`j` chain
///   `o = fma(alpha_j, v_jd, o)` from +0.0, held in `ceil(dh/8)`
///   accumulators per row with the last one masked.
///
/// Padded key lanes of `kt` hold zeros; their scores are never read.
/// `srow` holds four padded score rows (`4 · lp`).
///
/// # Safety
///
/// The CPU must support AVX2 and FMA (the Avx2Fma tier). `qb`, `vb` and
/// `ob` must hold `l · dh` values, `kt` at least `dh · lp` and `srow` at
/// least `4 · lp`, with `l ≥ 1` and `lp` a multiple of 8 that is at
/// least `l`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn sdpa_block_avx2(
    qb: &[f32],
    kt: &[f32],
    vb: &[f32],
    ob: &mut [f32],
    srow: &mut [f32],
    l: usize,
    dh: usize,
    lp: usize,
    scale: f32,
) {
    use std::arch::x86_64::*;
    debug_assert!(l > 0 && lp >= l && lp.is_multiple_of(8));
    debug_assert!(qb.len() == l * dh && vb.len() == l * dh && ob.len() == l * dh);
    debug_assert!(srow.len() >= 4 * lp && kt.len() >= dh * lp);
    let nv = lp / 8;
    let full = dh / 8;
    let vscale = _mm256_set1_ps(scale);
    // Masks for the V-side chunks: all lanes, except the last chunk when
    // `dh % 8 != 0`.
    let lanes = |n: usize| {
        let mut m = [0i32; 8];
        for slot in m.iter_mut().take(n) {
            *slot = -1;
        }
        m
    };
    let (all, tail) = (lanes(8), lanes(dh % 8));
    let all = _mm256_loadu_si256(all.as_ptr() as *const __m256i);
    let tail = _mm256_loadu_si256(tail.as_ptr() as *const __m256i);
    // Four query rows per pass: each element's chain is serial by
    // construction (its order is the contract), so independent rows are
    // what fills the FMA pipes. A short last pass repeats its final row in
    // the spare slots, keeping every loop bound constant; only real rows
    // are stored.
    let mut i = 0;
    while i < l {
        let nr = 4.min(l - i);
        let qrow = [0, 1, 2, 3].map(|r| qb.as_ptr().add((i + r.min(nr - 1)) * dh));
        for v in 0..nv {
            let kcol = kt.as_ptr().add(v * 8);
            let mut s = [_mm256_setzero_ps(); 4];
            if full > 0 {
                // half[p] = a_p + a_{p+4}, the tree's first level.
                let mut half = [[_mm256_setzero_ps(); 4]; 4];
                for (p, hp) in half.iter_mut().enumerate() {
                    let mut lo = [_mm256_setzero_ps(); 4];
                    let mut hi = [_mm256_setzero_ps(); 4];
                    for c in 0..full {
                        let (d0, d4) = (c * 8 + p, c * 8 + p + 4);
                        let k0 = _mm256_loadu_ps(kcol.add(d0 * lp));
                        let k4 = _mm256_loadu_ps(kcol.add(d4 * lp));
                        for r in 0..4 {
                            lo[r] = _mm256_fmadd_ps(_mm256_set1_ps(*qrow[r].add(d0)), k0, lo[r]);
                            hi[r] = _mm256_fmadd_ps(_mm256_set1_ps(*qrow[r].add(d4)), k4, hi[r]);
                        }
                    }
                    for r in 0..4 {
                        hp[r] = _mm256_add_ps(lo[r], hi[r]);
                    }
                }
                for (r, sr) in s.iter_mut().enumerate() {
                    *sr = _mm256_add_ps(
                        _mm256_add_ps(half[0][r], half[2][r]),
                        _mm256_add_ps(half[1][r], half[3][r]),
                    );
                }
            }
            for d in full * 8..dh {
                let kd = _mm256_loadu_ps(kcol.add(d * lp));
                for (r, sr) in s.iter_mut().enumerate() {
                    *sr = _mm256_fmadd_ps(_mm256_set1_ps(*qrow[r].add(d)), kd, *sr);
                }
            }
            for (r, sr) in s.iter().enumerate() {
                _mm256_storeu_ps(
                    srow.as_mut_ptr().add(r * lp + v * 8),
                    _mm256_mul_ps(vscale, *sr),
                );
            }
        }
        // Softmax per row. The four rows' serial max/sum folds run
        // interleaved (each still ascending over its own elements), and
        // one `vexp_avx2` covers all four padded rows — exp is
        // lane-independent, so padding changes nothing for real elements.
        let mut maxs = [f32::NEG_INFINITY; 4];
        for j in 0..l {
            for (r, m) in maxs.iter_mut().enumerate() {
                *m = m.max(*srow.get_unchecked(r * lp + j));
            }
        }
        for (r, &m) in maxs.iter().enumerate() {
            let vm = _mm256_set1_ps(m);
            for v in 0..nv {
                let p = srow.as_mut_ptr().add(r * lp + v * 8);
                _mm256_storeu_ps(p, _mm256_sub_ps(_mm256_loadu_ps(p), vm));
            }
        }
        simd::vexp_avx2(&mut srow[..4 * lp]);
        let mut sums = [0.0f32; 4];
        for j in 0..l {
            for (r, acc) in sums.iter_mut().enumerate() {
                *acc += *srow.get_unchecked(r * lp + j);
            }
        }
        for (r, &sum) in sums.iter().enumerate() {
            let inv = 1.0 / sum;
            for p in srow[r * lp..r * lp + l].iter_mut() {
                *p *= inv;
            }
        }
        // V-sum, one 8-wide column chunk at a time: one accumulator per
        // row, shared V loads.
        for c in 0..dh.div_ceil(8) {
            let mask = if c < full { all } else { tail };
            let mut o = [_mm256_setzero_ps(); 4];
            for j in 0..l {
                let vj = _mm256_maskload_ps(vb.as_ptr().add(j * dh + c * 8), mask);
                for (r, or) in o.iter_mut().enumerate() {
                    let alpha = _mm256_set1_ps(*srow.get_unchecked(r * lp + j));
                    *or = _mm256_fmadd_ps(alpha, vj, *or);
                }
            }
            for (r, or) in o.iter().enumerate().take(nr) {
                _mm256_maskstore_ps(ob.as_mut_ptr().add((i + r) * dh + c * 8), mask, *or);
            }
        }
        i += nr;
    }
}

impl Tensor {
    /// Fused attention over head-major `[BH, L, Dh]` operands:
    /// `softmax(scale · q kᵀ) v`, sharded across the worker pool by
    /// `(batch · head)` block. Per-tier bit-deterministic at any thread
    /// count (each output block is computed by exactly one worker in a
    /// fixed order).
    ///
    /// Panics if gradient tracking is enabled and an operand requires
    /// gradients — use the unfused matmul/softmax path for training.
    pub fn sdpa(q: &Tensor, k: &Tensor, v: &Tensor, scale: f32) -> Tensor {
        assert!(
            !crate::is_grad_enabled()
                || !(q.requires_grad() || k.requires_grad() || v.requires_grad()),
            "sdpa is forward-only; use the unfused attention path for training"
        );
        let (qd, kd, vd) = (q.dims(), k.dims(), v.dims());
        assert!(
            qd.len() == 3 && qd == kd && kd == vd,
            "sdpa expects matching [BH, L, Dh] operands, got {} {} {}",
            q.shape(),
            k.shape(),
            v.shape()
        );
        let (bh, l, dh) = (qd[0], qd[1], qd[2]);

        let _kernel = crate::obs::span("nn.sdpa");
        let simd_on = simd::tier() == Tier::Avx2Fma && cfg!(target_arch = "x86_64");
        let mut out = crate::arena::zeroed(bh * l * dh);
        {
            let (qr, kr, vr) = (q.data(), k.data(), v.data());
            let (qs, ks, vs): (&[f32], &[f32], &[f32]) = (&qr, &kr, &vr);
            let block = l * dh;
            let grain = MIN_PAR_FLOPS.div_ceil((4 * l * block).max(1)).max(1);
            // The Avx2Fma kernel needs L padded to full vectors, four score
            // rows and a K-transpose scratch; all are reused across the
            // chunk (padded key lanes of `kt` stay zero).
            let lp = l.next_multiple_of(8);
            pool::parallel_slices_mut(&mut out, block, grain, |b0, blocks| {
                let mut srow = vec![0.0f32; if simd_on { 4 * lp } else { l }];
                let mut kt = vec![0.0f32; if simd_on { dh * lp } else { 0 }];
                for (off, ob) in blocks.chunks_mut(block).enumerate() {
                    let base = (b0 + off) * block;
                    let (qb, kb, vb) = (
                        &qs[base..base + block],
                        &ks[base..base + block],
                        &vs[base..base + block],
                    );
                    #[cfg(target_arch = "x86_64")]
                    if simd_on {
                        for (j, krow) in kb.chunks_exact(dh).enumerate() {
                            for (d, &kv) in krow.iter().enumerate() {
                                kt[d * lp + j] = kv;
                            }
                        }
                        // Safety: simd_on holds only under the Avx2Fma tier;
                        // the block slices are `l · dh` long and the scratch
                        // sizes match `lp`, which pads `l` to a multiple of 8.
                        unsafe { sdpa_block_avx2(qb, &kt, vb, ob, &mut srow, l, dh, lp, scale) };
                        continue;
                    }
                    // Scalar tier: the same stable-softmax arithmetic as
                    // `softmax_last` on this tier, one query row at a time.
                    for i in 0..l {
                        let qrow = &qb[i * dh..(i + 1) * dh];
                        for (j, s) in srow.iter_mut().enumerate() {
                            let mut acc = 0.0f32;
                            for (a, b) in qrow.iter().zip(&kb[j * dh..(j + 1) * dh]) {
                                acc += a * b;
                            }
                            *s = scale * acc;
                        }
                        let max = srow.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                        let mut sum = 0.0f32;
                        for s in srow.iter_mut() {
                            let e = (*s - max).exp();
                            *s = e;
                            sum += e;
                        }
                        let inv = 1.0 / sum;
                        let orow = &mut ob[i * dh..(i + 1) * dh];
                        for (j, &p) in srow.iter().enumerate() {
                            let alpha = p * inv;
                            for (o, &x) in orow.iter_mut().zip(&vb[j * dh..(j + 1) * dh]) {
                                *o += alpha * x;
                            }
                        }
                    }
                }
            });
        }
        Tensor::leaf(out, Shape::new(&[bh, l, dh]), false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::with_threads;
    use crate::rng::seeded;
    use crate::{no_grad, simd::with_tier};

    /// Unfused reference: explicit matmul → scale → softmax → matmul.
    fn reference(q: &Tensor, k: &Tensor, v: &Tensor, scale: f32) -> Vec<f32> {
        no_grad(|| {
            q.matmul(&k.transpose_last2())
                .scale(scale)
                .softmax_last()
                .matmul(v)
                .to_vec()
        })
    }

    #[test]
    fn matches_unfused_path_within_tolerance() {
        let mut rng = seeded(11);
        for &(bh, l, dh) in &[(1usize, 3usize, 4usize), (8, 16, 8), (4, 31, 16)] {
            let q = Tensor::randn(&mut rng, &[bh, l, dh]);
            let k = Tensor::randn(&mut rng, &[bh, l, dh]);
            let v = Tensor::randn(&mut rng, &[bh, l, dh]);
            let scale = 1.0 / (dh as f32).sqrt();
            let want = reference(&q, &k, &v, scale);
            let got = Tensor::sdpa(&q, &k, &v, scale).to_vec();
            for (g, w) in got.iter().zip(&want) {
                assert!(
                    (g - w).abs() <= 1e-4 * w.abs().max(1.0),
                    "bh={bh} l={l} dh={dh}: {g} vs {w}"
                );
            }
        }
    }

    #[test]
    fn bit_identical_across_thread_counts_per_tier() {
        let mut rng = seeded(12);
        let q = Tensor::randn(&mut rng, &[6, 24, 8]);
        let k = Tensor::randn(&mut rng, &[6, 24, 8]);
        let v = Tensor::randn(&mut rng, &[6, 24, 8]);
        let mut tiers = vec![Tier::Scalar];
        if simd::avx2_available() {
            tiers.push(Tier::Avx2Fma);
        }
        for tier in tiers {
            let reference = with_tier(tier, || {
                with_threads(1, || Tensor::sdpa(&q, &k, &v, 0.35).to_vec())
            });
            for t in [2usize, 4, 8] {
                let got = with_tier(tier, || {
                    with_threads(t, || Tensor::sdpa(&q, &k, &v, 0.35).to_vec())
                });
                assert_eq!(got, reference, "tier={tier:?} threads={t}");
            }
        }
    }

    /// An 8-wide fma dot product, lane by lane: per chunk position `p`
    /// an fma chain over the full chunks, the horizontal-sum tree, then
    /// the ascending `mul_add` tail.
    fn dot8_emulated(x: &[f32], y: &[f32]) -> f32 {
        let full = x.len() / 8;
        let mut a = [0.0f32; 8];
        for c in 0..full {
            for (p, ap) in a.iter_mut().enumerate() {
                *ap = x[c * 8 + p].mul_add(y[c * 8 + p], *ap);
            }
        }
        let mut sum = ((a[0] + a[4]) + (a[2] + a[6])) + ((a[1] + a[5]) + (a[3] + a[7]));
        for j in full * 8..x.len() {
            sum = x[j].mul_add(y[j], sum);
        }
        sum
    }

    /// An 8-wide fma axpy: `y[i] = fma(alpha, x[i], y[i])` for every
    /// element, vector body and scalar tail alike.
    fn axpy8_emulated(alpha: f32, x: &[f32], y: &mut [f32]) {
        for (yv, &xv) in y.iter_mut().zip(x) {
            *yv = alpha.mul_add(xv, *yv);
        }
    }

    /// The Avx2Fma kernel against a per-row emulation of its contract:
    /// scores from [`dot8_emulated`], softmax through `vexp_avx2` with
    /// ascending max and sum, the V-sum from [`axpy8_emulated`] into a
    /// zeroed row. Bit for bit, over head widths below, at and above one
    /// vector (with and without a tail), lengths that do and do not fill
    /// a 4-row pass or an 8-key vector, and several thread counts.
    #[test]
    fn avx2_kernel_matches_dot_axpy_arithmetic() {
        if !simd::avx2_available() {
            return;
        }
        let mut rng = seeded(13);
        for dh in [1usize, 4, 5, 8, 12, 16] {
            for l in [1usize, 7, 38, 48] {
                // Enough blocks that 2 and 3 threads really split them.
                let bh = 24;
                let q = Tensor::randn(&mut rng, &[bh, l, dh]);
                let k = Tensor::randn(&mut rng, &[bh, l, dh]);
                let v = Tensor::randn(&mut rng, &[bh, l, dh]);
                let scale = 1.0 / (dh as f32).sqrt();
                let (qd, kd, vd) = (q.to_vec(), k.to_vec(), v.to_vec());
                let block = l * dh;
                let mut want = vec![0.0f32; bh * block];
                for b in 0..bh {
                    let (qb, kb, vb) = (
                        &qd[b * block..(b + 1) * block],
                        &kd[b * block..(b + 1) * block],
                        &vd[b * block..(b + 1) * block],
                    );
                    let ob = &mut want[b * block..(b + 1) * block];
                    let mut srow = vec![0.0f32; l];
                    for i in 0..l {
                        let qrow = &qb[i * dh..(i + 1) * dh];
                        for (j, s) in srow.iter_mut().enumerate() {
                            *s = scale * dot8_emulated(qrow, &kb[j * dh..(j + 1) * dh]);
                        }
                        let max = srow.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                        for s in srow.iter_mut() {
                            *s -= max;
                        }
                        // Safety: guarded by avx2_available above.
                        unsafe { simd::vexp_avx2(&mut srow) };
                        let mut sum = 0.0f32;
                        for &e in srow.iter() {
                            sum += e;
                        }
                        let inv = 1.0 / sum;
                        for (j, &p) in srow.iter().enumerate() {
                            axpy8_emulated(
                                p * inv,
                                &vb[j * dh..(j + 1) * dh],
                                &mut ob[i * dh..(i + 1) * dh],
                            );
                        }
                    }
                }
                let want: Vec<u32> = want.iter().map(|x| x.to_bits()).collect();
                for t in [1usize, 2, 3] {
                    let got = with_tier(Tier::Avx2Fma, || {
                        with_threads(t, || Tensor::sdpa(&q, &k, &v, scale).to_vec())
                    });
                    let got: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(got, want, "dh={dh} l={l} threads={t}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "forward-only")]
    fn rejects_training_operands() {
        let q = Tensor::param_from_vec(vec![0.0; 8], &[1, 2, 4]).unwrap();
        let k = q.clone();
        let v = q.clone();
        let _ = Tensor::sdpa(&q, &k, &v, 0.5);
    }
}
