//! The sparse aggregator unit (§V-D, Fig. 8).
//!
//! Aggregation consumes feature rows in BEICSR directly: ① fetch the first
//! cacheline of the entry (bitmap head + leading non-zeros); ② broadcast
//! the edge weight into the 16 multiplier lanes; ②′ run the bitmap through
//! the prefix-sum unit to obtain reversed indices; ③ scatter-accumulate
//! multiplier outputs into the positions whose bitmap bit is 1; ④ hand the
//! completed vertex to combination; ⑤ if non-zeros remain beyond the
//! fetched cacheline, fetch the next and repeat.
//!
//! This module implements the functional scatter-accumulate exactly and
//! reports the cost the cycle model charges.

use sgcn_formats::{Beicsr, ColRange, FeatureFormat as _};

use crate::prefix_sum::PrefixSumUnit;
use crate::simd::SimdMacs;

/// Cost of one sparse-aggregation operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AggregateCost {
    /// Multiplications issued (one per non-zero — the compute saving over
    /// dense aggregation).
    pub multiplies: u64,
    /// SIMD cycles consumed.
    pub cycles: u64,
    /// Cachelines of the entry streamed through the engine.
    pub cachelines: u64,
}

impl AggregateCost {
    /// Accumulates another cost.
    pub fn add(&mut self, other: AggregateCost) {
        self.multiplies += other.multiplies;
        self.cycles += other.cycles;
        self.cachelines += other.cachelines;
    }
}

/// The sparse aggregator engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SparseAggregator {
    simd: SimdMacs,
}

impl SparseAggregator {
    /// Aggregates slice `slice_idx` of `src_row` from `features` into
    /// `acc` with edge weight `weight`: `acc += weight · X[src_row, slice]`.
    ///
    /// `acc` must cover exactly the slice's columns.
    ///
    /// # Panics
    ///
    /// Panics if `acc` does not match the slice width.
    pub fn aggregate_slice(
        &self,
        acc: &mut [f32],
        features: &Beicsr,
        src_row: usize,
        slice_idx: usize,
        weight: f32,
    ) -> AggregateCost {
        let bitmap = features.slot_bitmap(src_row, slice_idx);
        assert_eq!(
            acc.len(),
            bitmap.len(),
            "accumulator width must match slice"
        );
        let values = features.slot_values(src_row, slice_idx);
        // ②′ prefix sum over the bitmap → reversed indices.
        let unit = PrefixSumUnit::new(bitmap.len().max(1));
        let scan = unit.scan(bitmap);
        // ② / ③ multiply-broadcast and scatter-accumulate.
        for pos in bitmap.iter_ones() {
            acc[pos] += weight * values[scan[pos] as usize];
        }
        let nnz = values.len();
        AggregateCost {
            multiplies: nnz as u64,
            cycles: self.simd.cycles_for(nnz).max(1),
            cachelines: features.slot_read_span(src_row, slice_idx).cachelines(),
        }
    }

    /// Aggregates an entire row (all slices) into a full-width accumulator.
    ///
    /// # Panics
    ///
    /// Panics if `acc.len() != features.cols()`.
    pub fn aggregate_row(
        &self,
        acc: &mut [f32],
        features: &Beicsr,
        src_row: usize,
        weight: f32,
    ) -> AggregateCost {
        assert_eq!(acc.len(), features.cols(), "accumulator must be full width");
        let mut cost = AggregateCost::default();
        for s in 0..features.num_slices() {
            let range = ColRange::new(
                s * features.slice_elems(),
                ((s + 1) * features.slice_elems()).min(features.cols()),
            );
            cost.add(self.aggregate_slice(
                &mut acc[range.start..range.end],
                features,
                src_row,
                s,
                weight,
            ));
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgcn_formats::{BeicsrConfig, DenseMatrix};

    fn sample(cols: usize) -> (DenseMatrix, Beicsr) {
        let mut m = DenseMatrix::zeros(3, cols);
        for c in 0..cols {
            if c % 3 != 0 {
                m.set(1, c, c as f32 * 0.5 + 1.0);
            }
            if c % 4 == 0 {
                m.set(2, c, -(c as f32) - 1.0);
            }
        }
        let b = Beicsr::encode(&m, BeicsrConfig::sliced(32));
        (m, b)
    }

    #[test]
    fn sparse_matches_dense_reference() {
        let (m, b) = sample(100);
        let agg = SparseAggregator::default();
        for row in 0..3 {
            let mut sparse_acc = vec![0.25; 100];
            let mut dense_acc = vec![0.25; 100];
            agg.aggregate_row(&mut sparse_acc, &b, row, 0.7);
            SimdMacs::axpy(&mut dense_acc, &m.row(row), 0.7);
            for (s, d) in sparse_acc.iter().zip(&dense_acc) {
                assert!((s - d).abs() < 1e-5, "row {row}: {s} vs {d}");
            }
        }
    }

    #[test]
    fn multiplies_equal_nnz_only() {
        let (m, b) = sample(96);
        let agg = SparseAggregator::default();
        let mut acc = vec![0.0; 96];
        let cost = agg.aggregate_row(&mut acc, &b, 1, 1.0);
        let nnz = m.row(1).iter().filter(|&&v| v != 0.0).count() as u64;
        assert_eq!(cost.multiplies, nnz);
        // Dense aggregation would pay the full width.
        assert!(cost.multiplies < 96);
    }

    #[test]
    fn empty_slice_costs_one_cycle() {
        let m = DenseMatrix::zeros(1, 32);
        let b = Beicsr::encode(&m, BeicsrConfig::sliced(32));
        let agg = SparseAggregator::default();
        let mut acc = vec![0.0; 32];
        let cost = agg.aggregate_slice(&mut acc, &b, 0, 0, 2.0);
        assert_eq!(cost.multiplies, 0);
        assert_eq!(cost.cycles, 1); // bitmap inspection still takes a beat
        assert!(acc.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn cachelines_track_occupancy() {
        let mut m = DenseMatrix::zeros(1, 96);
        // 90 of 96 non-zero: bitmap 12 B + 360 B values → 6 lines.
        for c in 0..90 {
            m.set(0, c, 1.0);
        }
        let b = Beicsr::encode(&m, BeicsrConfig::sliced(96));
        let agg = SparseAggregator::default();
        let mut acc = vec![0.0; 96];
        let dense_lines = agg.aggregate_slice(&mut acc, &b, 0, 0, 1.0).cachelines;
        assert_eq!(dense_lines, 6);
        // 10 of 96 → 12 + 40 = 52 B → 1 line.
        let mut m2 = DenseMatrix::zeros(1, 96);
        for c in 0..10 {
            m2.set(0, c, 1.0);
        }
        let b2 = Beicsr::encode(&m2, BeicsrConfig::sliced(96));
        let mut acc2 = vec![0.0; 96];
        assert_eq!(agg.aggregate_slice(&mut acc2, &b2, 0, 0, 1.0).cachelines, 1);
    }

    #[test]
    #[should_panic(expected = "accumulator width")]
    fn wrong_acc_width_panics() {
        let (_, b) = sample(64);
        let agg = SparseAggregator::default();
        let mut acc = vec![0.0; 7];
        let _ = agg.aggregate_slice(&mut acc, &b, 0, 0, 1.0);
    }
}
