//! Output-stationary systolic-array cycle model.
//!
//! The combination engine "contains a systolic array for matrix
//! multiplications at its core, similar to conventional DNN accelerators"
//! (§III-B); the paper models it with SCALE-Sim (§VI-A). This module
//! re-derives SCALE-Sim's analytical output-stationary timing: for each
//! `R×C` output tile the array streams `K` partial products through every
//! PE, with skewed fill and drain.
//!
//! For SGCN, the accumulation registers are initialized with the residual
//! `S^l` instead of zero (§V-F) — that changes no timing, only the
//! functional result, and is handled by the caller.

/// Systolic array geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SystolicConfig {
    /// PE rows (Table III: 32).
    pub rows: usize,
    /// PE columns (Table III: 32).
    pub cols: usize,
}

impl Default for SystolicConfig {
    fn default() -> Self {
        SystolicConfig { rows: 32, cols: 32 }
    }
}

/// The output-stationary combination engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SystolicArray {
    config: SystolicConfig,
}

impl SystolicArray {
    /// Creates the engine.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(config: SystolicConfig) -> Self {
        assert!(
            config.rows > 0 && config.cols > 0,
            "degenerate systolic array"
        );
        SystolicArray { config }
    }

    /// Cycles to compute an `M×K · K×N` GeMM, output-stationary.
    ///
    /// SCALE-Sim's OS timing per output fold is `2·R + C + K - 2` (skewed
    /// fill of both operand edges, `K` accumulation beats, skewed drain);
    /// folds are `ceil(M/R) · ceil(N/C)` and execute back-to-back.
    pub fn gemm_cycles(&self, m: usize, k: usize, n: usize) -> u64 {
        if m == 0 || k == 0 || n == 0 {
            return 0;
        }
        let folds = (m.div_ceil(self.config.rows) * n.div_ceil(self.config.cols)) as u64;
        let per_fold = (2 * self.config.rows + self.config.cols + k - 2) as u64;
        folds * per_fold
    }

    /// MAC operations performed by the same GeMM.
    pub fn gemm_macs(m: usize, k: usize, n: usize) -> u64 {
        m as u64 * k as u64 * n as u64
    }

    /// Functional GeMM with accumulator initialization — computes
    /// `init + A·B` where `A` is `m×k` row-major and `B` is `k×n`
    /// row-major. `init` models the residual-initialized accumulation
    /// registers (§V-F); pass zeros for a plain GeMM.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths are inconsistent.
    pub fn gemm(a: &[f32], b: &[f32], init: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        assert_eq!(a.len(), m * k, "A must be m×k");
        assert_eq!(b.len(), k * n, "B must be k×n");
        assert_eq!(init.len(), m * n, "init must be m×n");
        let mut out = init.to_vec();
        for i in 0..m {
            for p in 0..k {
                let av = a[i * k + p];
                if av == 0.0 {
                    continue;
                }
                let brow = &b[p * n..(p + 1) * n];
                let orow = &mut out[i * n..(i + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_fold_timing() {
        let sa = SystolicArray::new(SystolicConfig { rows: 4, cols: 4 });
        // One fold: 2*4 + 4 + 8 - 2 = 18.
        assert_eq!(sa.gemm_cycles(4, 8, 4), 18);
    }

    #[test]
    fn folds_multiply() {
        let sa = SystolicArray::new(SystolicConfig { rows: 4, cols: 4 });
        assert_eq!(sa.gemm_cycles(8, 8, 8), 4 * 18);
        // Ragged dimensions round up.
        assert_eq!(sa.gemm_cycles(5, 8, 4), 2 * 18);
    }

    #[test]
    fn zero_dims_cost_nothing() {
        let sa = SystolicArray::new(SystolicConfig::default());
        assert_eq!(sa.gemm_cycles(0, 16, 16), 0);
        assert_eq!(sa.gemm_cycles(16, 0, 16), 0);
    }

    #[test]
    fn table3_array_peak() {
        let sa = SystolicArray::new(SystolicConfig::default());
        assert_eq!(sa.config.rows * sa.config.cols, 1024);
    }

    #[test]
    fn utilization_improves_with_larger_k() {
        let sa = SystolicArray::new(SystolicConfig::default());
        let short = sa.gemm_cycles(32, 8, 32);
        let long = sa.gemm_cycles(32, 256, 32);
        let peak = (sa.config.rows * sa.config.cols) as f64;
        let eff_short = SystolicArray::gemm_macs(32, 8, 32) as f64 / (short as f64 * peak);
        let eff_long = SystolicArray::gemm_macs(32, 256, 32) as f64 / (long as f64 * peak);
        assert!(eff_long > eff_short, "{eff_long} vs {eff_short}");
    }

    #[test]
    fn functional_gemm_matches_manual() {
        // [1 2; 3 4] · [5 6; 7 8] = [19 22; 43 50]
        let out = SystolicArray::gemm(
            &[1.0, 2.0, 3.0, 4.0],
            &[5.0, 6.0, 7.0, 8.0],
            &[0.0; 4],
            2,
            2,
            2,
        );
        assert_eq!(out, vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn residual_init_adds() {
        let out = SystolicArray::gemm(
            &[1.0, 0.0, 0.0, 1.0],
            &[1.0, 0.0, 0.0, 1.0],
            &[10.0, 20.0, 30.0, 40.0],
            2,
            2,
            2,
        );
        assert_eq!(out, vec![11.0, 20.0, 30.0, 41.0]);
    }

    #[test]
    #[should_panic(expected = "A must be")]
    fn bad_shapes_panic() {
        let _ = SystolicArray::gemm(&[1.0], &[1.0], &[1.0], 2, 2, 2);
    }
}
