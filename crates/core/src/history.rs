//! Bounded score history with its order statistics kept up to date.
//!
//! The streaming monitor calibrates thresholds from percentiles of its
//! last [`crate::streaming::HISTORY_CAP`] scores on every evaluation, a
//! few rows apart. [`RollingHistory`] keeps a sorted copy beside the ring
//! and updates it per push, so a percentile is one index lookup instead
//! of a sort of the whole history per evaluation.

use std::cmp::Ordering;
use std::collections::VecDeque;

use imdiff_metrics::percentile_of_sorted;

/// A FIFO ring of at most `cap` scores plus a sorted copy of its finite
/// entries.
///
/// The ring, in arrival order, is the source of truth and the only part
/// a sidecar persists; `sorted` is derived state. It always equals a
/// stable `sort_by(partial_cmp)` of the ring's finite entries — the order
/// [`imdiff_metrics::threshold_at_percentile`] sorts into — ties and
/// ±0.0 included: a push lands after every entry `<=` it (the newest of
/// its equals), and an eviction removes the first entry `==` the evicted
/// one (the oldest of its equals, which is the evicted one).
#[derive(Debug, Clone)]
pub(crate) struct RollingHistory {
    ring: VecDeque<f64>,
    sorted: Vec<f64>,
    cap: usize,
}

impl RollingHistory {
    /// An empty history holding at most `cap` scores.
    pub(crate) fn new(cap: usize) -> Self {
        RollingHistory {
            ring: VecDeque::with_capacity(cap),
            sorted: Vec::with_capacity(cap),
            cap,
        }
    }

    /// Rebuilds a history from a restored ring (oldest first, at most
    /// `cap` entries). Non-finite entries stay in the ring but never
    /// reach the sorted copy.
    pub(crate) fn from_ring(ring: VecDeque<f64>, cap: usize) -> Self {
        debug_assert!(ring.len() <= cap, "ring over capacity");
        let mut sorted = Vec::with_capacity(cap);
        sorted.extend(ring.iter().copied().filter(|v| v.is_finite()));
        // Finite values always compare; `Equal` keeps the sort total.
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
        RollingHistory { ring, sorted, cap }
    }

    /// Appends `v`, evicting the oldest score once the ring is full.
    pub(crate) fn push(&mut self, v: f64) {
        if self.ring.len() == self.cap {
            if let Some(old) = self.ring.pop_front() {
                if old.is_finite() {
                    let i = self.sorted.partition_point(|x| *x < old);
                    debug_assert!(self.sorted[i] == old, "sorted copy out of step");
                    self.sorted.remove(i);
                }
            }
        }
        self.ring.push_back(v);
        if v.is_finite() {
            let i = self.sorted.partition_point(|x| *x <= v);
            self.sorted.insert(i, v);
        }
    }

    /// Scores held, finite or not.
    pub(crate) fn len(&self) -> usize {
        self.ring.len()
    }

    /// The scores in arrival order, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = f64> + Clone + '_ {
        self.ring.iter().copied()
    }

    /// The percentile `q` (0–100) of the finite scores, by the rank rule
    /// of [`percentile_of_sorted`]; 0.0 when none is finite.
    pub(crate) fn quantile(&self, q: f64) -> f64 {
        percentile_of_sorted(&self.sorted, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imdiff_metrics::threshold_at_percentile;
    use proptest::prelude::*;

    const QS: [f64; 7] = [0.0, 25.0, 50.0, 95.0, 98.0, 99.0, 100.0];

    /// Values drawn by index: duplicates, both zeros and every
    /// non-finite kind.
    const PALETTE: [f64; 12] = [
        -0.0,
        0.0,
        1.0,
        1.0,
        2.5,
        -3.0,
        1e-300,
        7.25,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
    ];

    fn check_against_sort(h: &RollingHistory) -> Result<(), TestCaseError> {
        let ring: Vec<f64> = h.iter().collect();
        for q in QS {
            prop_assert_eq!(
                h.quantile(q).to_bits(),
                threshold_at_percentile(&ring, q).to_bits()
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn quantiles_match_a_full_sort(
            cap in 1usize..9,
            picks in proptest::collection::vec(0usize..12, 0..64),
        ) {
            let mut h = RollingHistory::new(cap);
            check_against_sort(&h)?;
            for &p in &picks {
                h.push(PALETTE[p]);
                prop_assert!(h.len() <= cap);
                check_against_sort(&h)?;
                // A rebuild from the ring, as a sidecar restore does,
                // lands on the same order statistics.
                let rebuilt = RollingHistory::from_ring(h.ring.clone(), cap);
                prop_assert_eq!(
                    rebuilt.sorted.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    h.sorted.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn empty_and_non_finite_histories_read_zero() {
        let mut h = RollingHistory::new(3);
        for q in QS {
            assert_eq!(h.quantile(q).to_bits(), 0.0f64.to_bits());
        }
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 5.0] {
            h.push(v);
        }
        // 5.0 is the only finite entry; evicting it leaves none.
        assert_eq!(h.quantile(50.0), 5.0);
        for _ in 0..3 {
            h.push(f64::NAN);
        }
        assert_eq!(h.len(), 3);
        for q in QS {
            assert_eq!(h.quantile(q).to_bits(), 0.0f64.to_bits());
        }
    }
}
