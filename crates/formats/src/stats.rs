//! Occupancy statistics over compressed feature matrices.
//!
//! §V-B justifies in-place slice slots by observing that "the number of
//! non-zero elements has a small variance and there are only a few
//! outliers" — so reserving dense capacity per slice wastes little
//! *transferred* data. [`SliceStats`] measures exactly that distribution
//! so the claim can be checked per workload (and is, in tests and the
//! Fig. 17 analysis).

use crate::beicsr::Beicsr;
use crate::traits::FeatureFormat as _;

/// Distribution of non-zeros per unit slice of a BEICSR matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceStats {
    count: usize,
    mean: f64,
    variance: f64,
    min: usize,
    max: usize,
    /// Histogram over occupancy deciles of the slice width (11 bins:
    /// 0–10%, …, 90–100%, exactly-full).
    histogram: [u64; 11],
    slice_elems: usize,
}

impl SliceStats {
    /// Computes the distribution over every (row, slice) slot.
    pub fn measure(b: &Beicsr) -> Self {
        let slice_elems = b.slice_elems().max(1);
        let mut histogram = [0u64; 11];
        let mut min = usize::MAX;
        let mut max = 0usize;
        let mut sum = 0f64;
        let mut sum_sq = 0f64;
        let mut count = 0usize;
        for r in 0..b.rows() {
            for s in 0..b.num_slices() {
                let nnz = b.slot_nnz(r, s);
                min = min.min(nnz);
                max = max.max(nnz);
                sum += nnz as f64;
                sum_sq += (nnz * nnz) as f64;
                count += 1;
                let bin = (nnz * 10 / slice_elems).min(10);
                histogram[bin] += 1;
            }
        }
        let mean = if count == 0 { 0.0 } else { sum / count as f64 };
        let variance = if count == 0 {
            0.0
        } else {
            (sum_sq / count as f64 - mean * mean).max(0.0)
        };
        SliceStats {
            count,
            mean,
            variance,
            min: if count == 0 { 0 } else { min },
            max,
            histogram,
            slice_elems,
        }
    }

    /// Mean non-zeros per slot.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Standard deviation of non-zeros per slot.
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }

    /// Coefficient of variation (σ/µ); the §V-B claim is that this is
    /// small for real intermediate features.
    pub fn coefficient_of_variation(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std_dev() / self.mean
        }
    }

    /// Fraction of slots whose occupancy exceeds `fraction` of the slice
    /// width — the "outliers" of §V-B.
    pub fn outlier_fraction(&self, fraction: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let threshold = (self.slice_elems as f64 * fraction) as usize;
        let mut over = 0u64;
        for (bin, &n) in self.histogram.iter().enumerate() {
            if bin * self.slice_elems / 10 >= threshold {
                over += n;
            }
        }
        over as f64 / self.count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beicsr::BeicsrConfig;
    use crate::DenseMatrix;

    fn uniform_half(rows: usize, cols: usize) -> DenseMatrix {
        let mut m = DenseMatrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if (r + c) % 2 == 0 {
                    m.set(r, c, 1.0);
                }
            }
        }
        m
    }

    #[test]
    fn uniform_pattern_has_zero_variance() {
        let b = Beicsr::encode(&uniform_half(16, 96), BeicsrConfig::sliced(96));
        let s = SliceStats::measure(&b);
        assert_eq!(s.count, 16);
        assert!((s.mean() - 48.0).abs() < 1e-9);
        assert!(s.variance < 1e-9);
        assert_eq!((s.min, s.max), (48, 48));
        assert!(s.coefficient_of_variation() < 1e-6);
    }

    #[test]
    fn random_features_have_small_cv() {
        // The §V-B claim: per-slice occupancy concentrates around the
        // mean for unstructured activation sparsity.
        use sgcn_model_free_rand::synthesize;
        let m = synthesize(64, 288, 0.5);
        let b = Beicsr::encode(&m, BeicsrConfig::sliced(96));
        let s = SliceStats::measure(&b);
        assert!(
            s.coefficient_of_variation() < 0.25,
            "cv {}",
            s.coefficient_of_variation()
        );
        assert!(s.outlier_fraction(0.9) < 0.05);
    }

    #[test]
    fn empty_matrix() {
        let b = Beicsr::encode(&DenseMatrix::zeros(4, 32), BeicsrConfig::default());
        let s = SliceStats::measure(&b);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.histogram[0], 4);
        assert_eq!(s.outlier_fraction(0.5), 0.0);
    }

    /// Tiny local generator so this crate's tests stay independent of
    /// `sgcn-model` (which depends on us).
    mod sgcn_model_free_rand {
        use crate::DenseMatrix;

        pub fn synthesize(rows: usize, cols: usize, sparsity: f64) -> DenseMatrix {
            let mut state = 0x2545F491_4F6CDD1Du64;
            let mut m = DenseMatrix::zeros(rows, cols);
            for r in 0..rows {
                for c in 0..cols {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    if (state as f64 / u64::MAX as f64) > sparsity {
                        m.set(r, c, (state % 97) as f32 / 97.0 + 0.01);
                    }
                }
            }
            m
        }
    }
}
