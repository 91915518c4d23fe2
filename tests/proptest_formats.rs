//! Property-based tests on the storage formats: every format must
//! round-trip arbitrary matrices, and BEICSR's structural invariants
//! (in-place offsets, alignment, bitmap consistency) must hold for all
//! shapes and sparsity patterns.

use proptest::prelude::*;
use sgcn_formats::{
    Beicsr, BeicsrConfig, Bitmap, BlockedEllpack, BsrFeatures, ColRange, CooFeatures, CsrFeatures,
    DenseMatrix, FeatureFormat, PackedBeicsr, SeparateBitmapCsr, CACHELINE_BYTES,
};
use sgcn_mem::{Cache, CacheConfig, CacheModel, DramConfig, ListCache, MemorySystem, Traffic};

/// Strategy: a small dense matrix with a mix of zeros and non-zeros.
fn matrix_strategy() -> impl Strategy<Value = DenseMatrix> {
    (1usize..12, 1usize..40).prop_flat_map(|(rows, cols)| {
        proptest::collection::vec(
            prop_oneof![3 => Just(0.0f32), 2 => -10.0f32..10.0],
            rows * cols,
        )
        .prop_map(move |data| {
            // Avoid -0.0 (compares equal to 0.0 but is not bit-identical,
            // and the formats canonicalize it away as a zero).
            let data = data
                .into_iter()
                .map(|v| if v == 0.0 { 0.0 } else { v })
                .collect();
            DenseMatrix::from_vec(rows, cols, data)
        })
    })
}

/// Every storage encoding the simulator can drive: one per
/// [`sgcn_formats::FormatKind`] (sliced BEICSR at both the default and a
/// random slice width) plus Dense.
fn every_format(m: &DenseMatrix, slice: usize) -> Vec<Box<dyn FeatureFormat>> {
    vec![
        Box::new(m.clone()),
        Box::new(CsrFeatures::encode(m)),
        Box::new(CooFeatures::encode(m)),
        Box::new(BsrFeatures::encode(m)),
        Box::new(BlockedEllpack::encode(m)),
        Box::new(Beicsr::encode(m, BeicsrConfig::non_sliced())),
        Box::new(Beicsr::encode(m, BeicsrConfig::default())),
        Box::new(Beicsr::encode(m, BeicsrConfig::sliced(slice))),
        Box::new(SeparateBitmapCsr::encode(m)),
        Box::new(PackedBeicsr::encode(m)),
    ]
}

/// A small cache (frequent evictions) over HBM2 on model `C`.
fn small_mem<C: CacheModel>() -> MemorySystem<C> {
    MemorySystem::new(
        CacheConfig {
            capacity_bytes: 2 * 1024,
            ways: 4,
            line_bytes: 64,
            ..CacheConfig::default()
        },
        DramConfig::hbm2(),
    )
}

/// Replays the `(row, window start, window length)` ops of
/// `run_iterators_replay_like_their_spans` through `f`'s compacted runs
/// and through its spans on model `C`, and demands identical counters
/// and DRAM state.
fn runs_replay_like_spans<C: CacheModel>(
    model: &str,
    f: &dyn FeatureFormat,
    m: &DenseMatrix,
    ops: &[(usize, usize, usize)],
) {
    const BASE: u64 = 1 << 20;
    let mut by_run = small_mem::<C>();
    let mut by_span = small_mem::<C>();
    let line = by_run.line_bytes();
    for &(row, start, len) in ops {
        let row = row % m.rows();
        // Full, partial, straddling and empty windows.
        let start = start.min(m.cols());
        let range = ColRange::new(start, (start + len).min(m.cols()));
        f.for_each_row_run(row, line, &mut |r| {
            by_run.access_lines(BASE, r, Traffic::FeatureRead);
        });
        f.for_each_slice_run(row, range, line, &mut |r| {
            by_run.access_lines(BASE, r, Traffic::FeatureRead);
        });
        f.for_each_write_run(row, line, &mut |r| {
            by_run.write_lines(BASE, r, Traffic::FeatureWrite);
        });
        for s in f
            .row_spans(row)
            .into_iter()
            .chain(f.slice_spans(row, range))
        {
            by_span.read_span(BASE + s.offset, u64::from(s.bytes), Traffic::FeatureRead);
        }
        for s in f.row_spans(row) {
            by_span.write_span(BASE + s.offset, u64::from(s.bytes), Traffic::FeatureWrite);
        }
    }
    let name = f.format_name();
    assert_eq!(
        by_run.report(),
        by_span.report(),
        "{name} on {model}: run replay diverged from span replay"
    );
    assert_eq!(
        format!("{:?}", by_run.dram()),
        format!("{:?}", by_span.dram()),
        "{name} on {model}: DRAM state diverged"
    );
}

proptest! {
    #[test]
    fn csr_roundtrip(m in matrix_strategy()) {
        let f = CsrFeatures::encode(&m);
        for r in 0..m.rows() {
            prop_assert_eq!(f.decode_row(r), m.row(r));
        }
    }

    #[test]
    fn coo_roundtrip(m in matrix_strategy()) {
        let f = CooFeatures::encode(&m);
        for r in 0..m.rows() {
            prop_assert_eq!(f.decode_row(r), m.row(r));
        }
    }

    #[test]
    fn bsr_roundtrip(m in matrix_strategy()) {
        let f = BsrFeatures::encode(&m);
        for r in 0..m.rows() {
            prop_assert_eq!(f.decode_row(r), m.row(r));
        }
    }

    #[test]
    fn ellpack_roundtrip(m in matrix_strategy()) {
        let f = BlockedEllpack::encode(&m);
        for r in 0..m.rows() {
            prop_assert_eq!(f.decode_row(r), m.row(r));
        }
    }

    #[test]
    fn ablation_formats_roundtrip(m in matrix_strategy()) {
        // The design-ablation variants (separate bitmap array, packed
        // variable-length rows) must also reproduce every row exactly.
        let sep = SeparateBitmapCsr::encode(&m);
        let packed = PackedBeicsr::encode(&m);
        for r in 0..m.rows() {
            prop_assert_eq!(sep.decode_row(r), m.row(r), "separate-bitmap row {}", r);
            prop_assert_eq!(packed.decode_row(r), m.row(r), "packed row {}", r);
        }
    }

    #[test]
    fn beicsr_roundtrip_all_configs(m in matrix_strategy(), slice in 1usize..20) {
        for cfg in [BeicsrConfig::non_sliced(), BeicsrConfig::sliced(slice), BeicsrConfig::default()] {
            let f = Beicsr::encode(&m, cfg);
            for r in 0..m.rows() {
                prop_assert_eq!(f.decode_row(r), m.row(r));
            }
        }
    }

    #[test]
    fn beicsr_slots_are_aligned_and_disjoint(m in matrix_strategy(), slice in 1usize..20) {
        let f = Beicsr::encode(&m, BeicsrConfig::sliced(slice));
        let mut prev_end = 0u64;
        for r in 0..m.rows() {
            for s in 0..f.num_slices() {
                let off = f.slot_offset(r, s);
                prop_assert_eq!(off % CACHELINE_BYTES, 0, "slot ({}, {}) unaligned", r, s);
                prop_assert!(off >= prev_end || off == 0 && prev_end == 0);
                let span = f.slot_read_span(r, s);
                prop_assert!(span.end() <= off + f.slot_bytes());
                prev_end = off + f.slot_bytes();
            }
        }
        prop_assert_eq!(f.capacity_bytes(), prev_end);
    }

    #[test]
    fn beicsr_nnz_consistent_with_bitmap(m in matrix_strategy()) {
        let f = Beicsr::encode(&m, BeicsrConfig::sliced(8));
        for r in 0..m.rows() {
            for s in 0..f.num_slices() {
                prop_assert_eq!(f.slot_nnz(r, s), f.slot_bitmap(r, s).count_ones());
                prop_assert_eq!(f.slot_values(r, s).len(), f.slot_nnz(r, s));
                // Packed values are exactly the non-zeros in order.
                let start = s * f.slice_elems();
                let end = (start + f.slice_elems()).min(m.cols());
                let expect: Vec<f32> = m.row(r)[start..end]
                    .iter()
                    .copied()
                    .filter(|&v| v != 0.0)
                    .collect();
                prop_assert_eq!(f.slot_values(r, s), &expect[..]);
            }
        }
    }

    #[test]
    fn slice_spans_subset_of_row_spans_bytes(m in matrix_strategy()) {
        // Reading a window never costs more raw bytes than the whole row
        // plus one bitmap re-read per covering slice.
        let f = Beicsr::encode(&m, BeicsrConfig::sliced(8));
        let cols = m.cols();
        for r in 0..m.rows() {
            let full: u64 = f.row_spans(r).iter().map(|s| u64::from(s.bytes)).sum();
            let half: u64 = f
                .slice_spans(r, ColRange::new(0, cols / 2))
                .iter()
                .map(|s| u64::from(s.bytes))
                .sum();
            prop_assert!(half <= full + f.bitmap_bytes() * f.num_slices() as u64);
        }
    }

    #[test]
    fn capacity_is_at_least_payload(m in matrix_strategy()) {
        // Every format must reserve at least the bytes of its non-zeros.
        let payload = m.count_nonzeros() as u64 * 4;
        let formats: Vec<Box<dyn FeatureFormat>> = vec![
            Box::new(CsrFeatures::encode(&m)),
            Box::new(CooFeatures::encode(&m)),
            Box::new(BsrFeatures::encode(&m)),
            Box::new(BlockedEllpack::encode(&m)),
            Box::new(Beicsr::encode(&m, BeicsrConfig::default())),
            Box::new(SeparateBitmapCsr::encode(&m)),
            Box::new(PackedBeicsr::encode(&m)),
        ];
        for f in formats {
            prop_assert!(
                f.capacity_bytes() >= payload,
                "{} capacity {} < payload {}",
                f.format_name(),
                f.capacity_bytes(),
                payload
            );
        }
    }

    #[test]
    fn word_level_iter_ones_matches_naive_bit_loop(values in proptest::collection::vec(
        prop_oneof![2 => Just(0.0f32), 1 => -4.0f32..4.0],
        0..300,
    )) {
        // The trailing_zeros-based iterator must enumerate exactly the
        // positions a per-bit get() loop finds, in order — including
        // bitmaps whose length is not a multiple of 64.
        let bm = Bitmap::from_values(&values);
        let word_level: Vec<usize> = bm.iter_ones().collect();
        let naive: Vec<usize> = (0..bm.len()).filter(|&i| bm.get(i)).collect();
        prop_assert_eq!(&word_level, &naive);
        prop_assert_eq!(word_level.len(), bm.count_ones());
    }

    #[test]
    fn word_level_from_values_matches_per_bit_set(values in proptest::collection::vec(
        prop_oneof![1 => Just(0.0f32), 1 => -2.0f32..2.0],
        0..300,
    )) {
        // Word-at-a-time construction must equal a bitmap built bit by bit.
        let word_level = Bitmap::from_values(&values);
        let mut per_bit = Bitmap::new(values.len());
        for (i, &v) in values.iter().enumerate() {
            if v != 0.0 {
                per_bit.set(i, true);
            }
        }
        prop_assert_eq!(word_level, per_bit);
    }

    #[test]
    fn word_level_encoder_matches_reference(m in matrix_strategy(), slice in 1usize..20) {
        // The in-place word-level encoder must produce a value equal to
        // the original per-bit reference encoder for every config.
        for cfg in [BeicsrConfig::non_sliced(), BeicsrConfig::sliced(slice), BeicsrConfig::default()] {
            let fast = Beicsr::encode(&m, cfg);
            let reference = Beicsr::encode_reference(&m, cfg);
            for r in 0..m.rows() {
                prop_assert_eq!(fast.decode_row(r), reference.decode_row(r));
                for s in 0..fast.num_slices() {
                    prop_assert_eq!(fast.slot_nnz(r, s), reference.slot_nnz(r, s));
                    prop_assert_eq!(fast.slot_bitmap(r, s), reference.slot_bitmap(r, s));
                    prop_assert_eq!(fast.slot_values(r, s), reference.slot_values(r, s));
                }
            }
        }
    }

    #[test]
    fn run_iterators_replay_like_their_spans(
        m in matrix_strategy(),
        slice in 1usize..20,
        ops in proptest::collection::vec((0usize..64, 0usize..48, 0usize..48), 1..24),
    ) {
        // The simulator replays each format's compacted line runs
        // (`for_each_{row,slice,write}_run` → `access_lines` /
        // `write_lines`); the spans the runs were compacted from
        // (`row_spans` / `slice_spans` → `read_span`, and `row_spans` →
        // `write_span` for the write-back) are the reference. Both replays of the same random row/window sequence
        // must leave identical counters and DRAM state on both cache
        // models — covering the formats' hand-written run overrides
        // (Dense's among them) as well as the compacting defaults.
        for f in every_format(&m, slice) {
            runs_replay_like_spans::<Cache>("Cache", f.as_ref(), &m, &ops);
            runs_replay_like_spans::<ListCache>("ListCache", f.as_ref(), &m, &ops);
        }
    }
}
