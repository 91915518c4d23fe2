//! The post-combination ReLU + in-place compressor (§V-E, Fig. 9).
//!
//! One compressor entry sits at the output of each systolic-array row:
//! ① combination results stream out after residual addition and ReLU;
//! ② each value is zero-checked; ③ zeros append a '0' to the bitmap index;
//! ③′/④ non-zeros append a '1' and land at the position the running
//! counter points to; ⑤ after a unit slice the buffer flushes to DRAM and
//! the entry re-initializes. Compression therefore costs **no extra memory
//! traffic** — the output was heading to DRAM anyway, just compressed now.

use sgcn_formats::Beicsr;

/// Counters describing one compressed row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompressStats {
    /// Values that survived ReLU (non-zeros stored).
    pub nonzeros: u64,
    /// Values zeroed (negative pre-activations plus exact zeros).
    pub zeros: u64,
    /// Streaming cycles (one value per cycle per entry).
    pub cycles: u64,
    /// Unit-slice flushes to DRAM.
    pub flushes: u64,
}

/// The ReLU + compressor unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Compressor;

impl Compressor {
    /// Creates the unit.
    pub fn new() -> Self {
        Compressor
    }

    /// Applies ReLU to the streamed pre-activations `pre` (already
    /// residual-added, §V-F) and writes row `row` of `out` in place,
    /// returning the counters.
    ///
    /// # Panics
    ///
    /// Panics if `pre.len() != out.cols()` or `row` is out of range.
    pub fn relu_compress_row(&self, pre: &[f32], out: &mut Beicsr, row: usize) -> CompressStats {
        let activated: Vec<f32> = pre.iter().map(|&v| v.max(0.0)).collect();
        let nonzeros = activated.iter().filter(|&&v| v != 0.0).count() as u64;
        out.set_row_from_dense(row, &activated);
        CompressStats {
            nonzeros,
            zeros: pre.len() as u64 - nonzeros,
            cycles: pre.len() as u64,
            flushes: out.num_slices() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgcn_formats::{BeicsrConfig, FeatureFormat as _};

    #[test]
    fn relu_zeroes_negatives_and_compresses() {
        let mut out = Beicsr::with_shape(2, 6, BeicsrConfig::non_sliced());
        let c = Compressor::new();
        let stats = c.relu_compress_row(&[1.0, -2.0, 0.0, 3.0, -0.5, 2.0], &mut out, 0);
        assert_eq!(stats.nonzeros, 3);
        assert_eq!(stats.zeros, 3);
        assert_eq!(stats.zeros, 3);
        assert_eq!(out.decode_row(0), vec![1.0, 0.0, 0.0, 3.0, 0.0, 2.0]);
    }

    #[test]
    fn compressed_output_readable_by_aggregator() {
        // The compressor's output is the next layer's aggregation input —
        // round-trip through the format.
        let mut out = Beicsr::with_shape(1, 96, BeicsrConfig::default());
        let pre: Vec<f32> = (0..96)
            .map(|i| if i % 2 == 0 { i as f32 } else { -1.0 })
            .collect();
        Compressor::new().relu_compress_row(&pre, &mut out, 0);
        let expect: Vec<f32> = pre.iter().map(|&v| v.max(0.0)).collect();
        assert_eq!(out.decode_row(0), expect);
    }

    #[test]
    fn flushes_count_unit_slices() {
        let mut out = Beicsr::with_shape(1, 256, BeicsrConfig::sliced(96));
        let stats = Compressor::new().relu_compress_row(&vec![1.0; 256], &mut out, 0);
        assert_eq!(stats.flushes, 3);
        assert_eq!(stats.cycles, 256);
    }
}
