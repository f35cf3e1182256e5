//! Seeded input generation: the benchmark's own random stream, the
//! open-loop Poisson arrival schedule, and each tenant's request chunks
//! with their missing cells and declared gaps. Everything derives from
//! the `--seed` argument; the program under test only ever sees the
//! generated rows.

use imdiff_data::Mts;

/// SplitMix64: a tiny, fully specified generator, so a seed gives the
/// same inputs on every platform and at every commit.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated from other streams by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Open-loop arrivals: Poisson at `rate` per second over `duration_s`,
/// each assigned uniformly to one of `tenants`. Returns `(offset_s,
/// tenant)` in send order.
pub fn poisson_schedule(
    seed: u64,
    rate: f64,
    duration_s: f64,
    tenants: usize,
) -> Vec<(f64, usize)> {
    let mut rng = Rng::new(seed, 0x5C4E_D01E);
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate * duration_s * 1.2) as usize + 16);
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= duration_s {
            return out;
        }
        out.push((t, rng.below(tenants)));
    }
}

/// How a tenant's stream is perturbed on its way to the server.
#[derive(Debug, Clone, Copy)]
pub struct Perturb {
    /// Share of requests carrying NaN (declared-missing) cells.
    pub nan_request_frac: f64,
    /// Share of requests preceded by a declared transport gap.
    pub gap_request_frac: f64,
    /// Longest declared gap, in rows (kept below the monitor's bridge
    /// limit, so gaps are interpolated rather than re-warming).
    pub max_gap: usize,
}

/// One score request: the rows it carries and the rows declared lost
/// immediately before it.
#[derive(Debug, Clone, PartialEq)]
pub struct Chunk {
    pub gap_before: u32,
    pub rows: Vec<Vec<f32>>,
}

/// A tenant's view of the shared source series: it starts at its own
/// offset, wraps at the end, and draws its perturbations from its own
/// stream, so the k-th chunk of a tenant is the same whatever order the
/// tenants are served in.
#[derive(Debug, Clone)]
pub struct TenantStream {
    offset: usize,
    /// Source rows consumed so far (sent or declared lost).
    consumed: usize,
    hop: usize,
    perturb: Perturb,
    rng: Rng,
}

impl TenantStream {
    pub fn new(seed: u64, tenant: usize, offset: usize, hop: usize, perturb: Perturb) -> Self {
        TenantStream {
            offset,
            consumed: 0,
            hop,
            perturb,
            rng: Rng::new(seed, 0x7E4A_0000 + tenant as u64),
        }
    }

    /// Source index of stream position `pos` (stream positions count
    /// every row sent or declared lost, like the monitor's row index).
    pub fn source_index(&self, pos: u64, source_len: usize) -> usize {
        (self.offset + pos as usize) % source_len
    }

    /// The next chunk: `hop` source rows, after an optional declared gap,
    /// with an optional single row carrying one or two NaN cells.
    /// `clean` chunks (monitor warm-up) carry neither.
    pub fn next_chunk(&mut self, source: &Mts, clean: bool) -> Chunk {
        let n = source.len();
        let mut gap_before = 0;
        if !clean && self.rng.next_f64() < self.perturb.gap_request_frac {
            gap_before = 1 + self.rng.below(self.perturb.max_gap);
            self.consumed += gap_before;
        }
        let mut rows: Vec<Vec<f32>> = (0..self.hop)
            .map(|i| source.row((self.offset + self.consumed + i) % n).to_vec())
            .collect();
        self.consumed += self.hop;
        if !clean && self.rng.next_f64() < self.perturb.nan_request_frac {
            let r = self.rng.below(rows.len());
            let k = rows[r].len();
            for _ in 0..1 + self.rng.below(2) {
                let c = self.rng.below(k);
                rows[r][c] = f32::NAN;
            }
        }
        Chunk {
            gap_before: gap_before as u32,
            rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn source() -> Mts {
        let (len, dim) = (50, 3);
        Mts::new((0..len * dim).map(|v| v as f32).collect(), len, dim)
    }

    const PERTURB: Perturb = Perturb {
        nan_request_frac: 0.3,
        gap_request_frac: 0.2,
        max_gap: 2,
    };

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let a = poisson_schedule(7, 200.0, 2.0, 3);
        let b = poisson_schedule(7, 200.0, 2.0, 3);
        let c = poisson_schedule(8, 200.0, 2.0, 3);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn schedule_has_the_stated_rate_and_stays_in_bounds() {
        let s = poisson_schedule(3, 500.0, 20.0, 4);
        let n = s.len() as f64;
        // 10 000 expected arrivals; Poisson sd is 100.
        assert!((n - 10_000.0).abs() < 500.0, "{n} arrivals");
        assert!(s.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(s.iter().all(|&(t, k)| (0.0..20.0).contains(&t) && k < 4));
        for k in 0..4 {
            let share = s.iter().filter(|e| e.1 == k).count() as f64 / n;
            assert!((share - 0.25).abs() < 0.03, "tenant {k} share {share}");
        }
    }

    #[test]
    fn tenant_chunks_are_deterministic_and_perturbed_at_the_set_rates() {
        let src = source();
        let mut a = TenantStream::new(11, 1, 5, 4, PERTURB);
        let mut b = TenantStream::new(11, 1, 5, 4, PERTURB);
        let ca: Vec<Chunk> = (0..400).map(|_| a.next_chunk(&src, false)).collect();
        let cb: Vec<Chunk> = (0..400).map(|_| b.next_chunk(&src, false)).collect();
        // NaN != NaN, so compare bit patterns.
        let bits = |c: &[Chunk]| -> Vec<(u32, Vec<u32>)> {
            c.iter()
                .map(|c| {
                    (
                        c.gap_before,
                        c.rows.iter().flatten().map(|v| v.to_bits()).collect(),
                    )
                })
                .collect()
        };
        assert_eq!(bits(&ca), bits(&cb));
        let gaps = ca.iter().filter(|c| c.gap_before > 0).count() as f64 / 400.0;
        let nans = ca
            .iter()
            .filter(|c| c.rows.iter().flatten().any(|v| v.is_nan()))
            .count() as f64
            / 400.0;
        assert!((gaps - 0.2).abs() < 0.07, "gap share {gaps}");
        assert!((nans - 0.3).abs() < 0.07, "nan share {nans}");
        assert!(ca.iter().all(|c| c.gap_before as usize <= PERTURB.max_gap));
    }

    #[test]
    fn chunks_follow_the_source_with_gaps_skipping_rows() {
        let src = source();
        let mut s = TenantStream::new(1, 0, 48, 3, PERTURB);
        let mut pos = 0u64;
        for _ in 0..200 {
            let c = s.next_chunk(&src, false);
            pos += c.gap_before as u64;
            for row in &c.rows {
                let want = src.row(s.source_index(pos, src.len()));
                for (v, w) in row.iter().zip(want) {
                    assert!(v.is_nan() || v == w);
                }
                pos += 1;
            }
        }
    }

    #[test]
    fn clean_chunks_carry_no_gap_and_no_nan() {
        let src = source();
        let mut s = TenantStream::new(2, 0, 0, 4, PERTURB);
        for _ in 0..100 {
            let c = s.next_chunk(&src, true);
            assert_eq!(c.gap_before, 0);
            assert!(c.rows.iter().flatten().all(|v| v.is_finite()));
        }
    }
}
