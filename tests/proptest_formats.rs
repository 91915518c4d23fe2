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

/// Strategy: a dense matrix of 1–12 rows (odd counts included) and 1–229
/// columns — wide enough for multi-word bitmaps, a ragged final slice at
/// the default `C = 96` and ragged 2×2 block edges — mixing zeros of both
/// signs with non-zeros.
fn signed_matrix_strategy() -> impl Strategy<Value = DenseMatrix> {
    (1usize..13, 1usize..230).prop_flat_map(|(rows, cols)| {
        proptest::collection::vec(
            prop_oneof![2 => Just(0.0f32), 1 => Just(-0.0f32), 2 => -10.0f32..10.0],
            rows * cols,
        )
        .prop_map(move |data| DenseMatrix::from_vec(rows, cols, data))
    })
}

/// `m` with every `-0.0` made `+0.0`.
fn positive_zeros(m: &DenseMatrix) -> DenseMatrix {
    let data = m.as_slice().iter().map(|&v| v + 0.0).collect();
    DenseMatrix::from_vec(m.rows(), m.cols(), data)
}

/// Strategy: [`signed_matrix_strategy`] with positive zeros only, so a
/// decoded row equals the source row bit for bit.
fn matrix_strategy() -> impl Strategy<Value = DenseMatrix> {
    signed_matrix_strategy().prop_map(|m| positive_zeros(&m))
}

// The encoders' original loops, one branch per element and a fresh
// allocation per bitmap or block: the oracles the running-counter kernels
// must equal, field for field.

fn beicsr_old_loop(m: &DenseMatrix, config: BeicsrConfig) -> Beicsr {
    let shape = Beicsr::with_shape(m.rows(), m.cols(), config);
    let (se, nslices) = (shape.slice_elems(), shape.num_slices());
    let mut bitmaps = Vec::new();
    let mut values = vec![0.0f32; m.rows() * nslices * se];
    let mut nnz = Vec::new();
    for row in 0..m.rows() {
        let data = m.row_slice(row);
        for s in 0..nslices {
            let start = s * se;
            let window = &data[start..(start + se).min(m.cols())];
            let vbase = (row * nslices + s) * se;
            let mut bm = Bitmap::new(window.len());
            let mut count = 0usize;
            for (i, &v) in window.iter().enumerate() {
                if v != 0.0 {
                    bm.set(i, true);
                    values[vbase + count] = v;
                    count += 1;
                }
            }
            bitmaps.push(bm);
            nnz.push(count as u32);
        }
    }
    Beicsr::from_parts(m.rows(), m.cols(), config, bitmaps, values, nnz)
}

fn csr_old_loop(m: &DenseMatrix) -> CsrFeatures {
    let mut row_ptr = vec![0];
    let mut col_idx = Vec::new();
    let mut values = Vec::new();
    for r in 0..m.rows() {
        for (c, &v) in m.row_slice(r).iter().enumerate() {
            if v != 0.0 {
                col_idx.push(c as u32);
                values.push(v);
            }
        }
        row_ptr.push(col_idx.len() as u32);
    }
    CsrFeatures::from_parts(m.rows(), m.cols(), row_ptr, col_idx, values)
}

fn coo_old_loop(m: &DenseMatrix) -> CooFeatures {
    let (mut entry_rows, mut entry_cols, mut entry_vals) = (Vec::new(), Vec::new(), Vec::new());
    let mut directory = vec![0];
    for r in 0..m.rows() {
        for (c, &v) in m.row_slice(r).iter().enumerate() {
            if v != 0.0 {
                entry_rows.push(r as u32);
                entry_cols.push(c as u32);
                entry_vals.push(v);
            }
        }
        directory.push(entry_rows.len() as u32);
    }
    CooFeatures::from_parts(
        m.rows(),
        m.cols(),
        entry_rows,
        entry_cols,
        entry_vals,
        directory,
    )
}

/// Every `br×bc` block of `m`, per block-row, as `(block-column,
/// payload)` for the blocks holding a non-zero.
fn nonempty_blocks_old_loop(m: &DenseMatrix, br: usize, bc: usize) -> Vec<Vec<(u32, Vec<f32>)>> {
    let mut per_row = Vec::new();
    for bri in 0..m.rows().div_ceil(br) {
        let mut blocks = Vec::new();
        for bci in 0..m.cols().div_ceil(bc) {
            let mut block = vec![0.0f32; br * bc];
            let mut any = false;
            for dr in 0..br {
                let r = bri * br + dr;
                if r >= m.rows() {
                    continue;
                }
                for dc in 0..bc {
                    let c = bci * bc + dc;
                    if c >= m.cols() {
                        continue;
                    }
                    let v = m.get(r, c);
                    if v != 0.0 {
                        any = true;
                    }
                    block[dr * bc + dc] = v;
                }
            }
            if any {
                blocks.push((bci as u32, block));
            }
        }
        per_row.push(blocks);
    }
    per_row
}

fn bsr_old_loop(m: &DenseMatrix, br: usize, bc: usize) -> BsrFeatures {
    let mut block_ptr = vec![0];
    let mut block_cols = Vec::new();
    let mut block_vals = Vec::new();
    for blocks in nonempty_blocks_old_loop(m, br, bc) {
        for (bci, block) in blocks {
            block_cols.push(bci);
            block_vals.extend_from_slice(&block);
        }
        block_ptr.push(block_cols.len() as u32);
    }
    BsrFeatures::from_parts(
        m.rows(),
        m.cols(),
        br,
        bc,
        block_ptr,
        block_cols,
        block_vals,
    )
}

fn ellpack_old_loop(m: &DenseMatrix, br: usize, bc: usize) -> BlockedEllpack {
    let per_row = nonempty_blocks_old_loop(m, br, bc);
    let k = per_row.iter().map(Vec::len).max().unwrap_or(0);
    let mut slot_cols = vec![u32::MAX; per_row.len() * k];
    let mut slot_vals = vec![0.0f32; per_row.len() * k * br * bc];
    for (bri, blocks) in per_row.iter().enumerate() {
        for (slot, (bci, block)) in blocks.iter().enumerate() {
            slot_cols[bri * k + slot] = *bci;
            let base = (bri * k + slot) * br * bc;
            slot_vals[base..base + br * bc].copy_from_slice(block);
        }
    }
    BlockedEllpack::from_parts(m.rows(), m.cols(), br, bc, k, slot_cols, slot_vals)
}

fn separate_bitmap_old_loop(m: &DenseMatrix) -> SeparateBitmapCsr {
    let (rows, cols) = (m.rows(), m.cols());
    let mut bitmaps = Vec::new();
    let mut values = vec![0.0f32; rows * cols];
    let mut nnz = Vec::new();
    for r in 0..rows {
        let row = m.row_slice(r);
        let mut count = 0usize;
        for &v in row {
            if v != 0.0 {
                values[r * cols + count] = v;
                count += 1;
            }
        }
        nnz.push(count as u32);
        bitmaps.push(Bitmap::from_values(row));
    }
    SeparateBitmapCsr::from_parts(rows, cols, bitmaps, values, nnz)
}

fn packed_beicsr_old_loop(m: &DenseMatrix) -> PackedBeicsr {
    let mut bitmaps = Vec::new();
    let mut values = Vec::new();
    let mut value_starts = Vec::new();
    for r in 0..m.rows() {
        let row = m.row_slice(r);
        value_starts.push(values.len() as u32);
        values.extend(row.iter().copied().filter(|&v| v != 0.0));
        bitmaps.push(Bitmap::from_values(row));
    }
    PackedBeicsr::from_parts(m.rows(), m.cols(), bitmaps, values, value_starts)
}

/// The `Debug` rendering of every encoder's output for `m`. It prints a
/// stored `-0.0` as `-0.0`, so it tells the two zeros apart where
/// `PartialEq` does not.
fn every_encoding(m: &DenseMatrix, slice: usize) -> Vec<String> {
    vec![
        format!("{:?}", CsrFeatures::encode(m)),
        format!("{:?}", CooFeatures::encode(m)),
        format!("{:?}", BsrFeatures::encode(m)),
        format!("{:?}", BlockedEllpack::encode(m)),
        format!("{:?}", Beicsr::encode(m, BeicsrConfig::non_sliced())),
        format!("{:?}", Beicsr::encode(m, BeicsrConfig::default())),
        format!("{:?}", Beicsr::encode(m, BeicsrConfig::sliced(slice))),
        format!("{:?}", SeparateBitmapCsr::encode(m)),
        format!("{:?}", PackedBeicsr::encode(m)),
    ]
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
    fn every_encoder_matches_its_old_loop(
        m in signed_matrix_strategy(),
        slice in 1usize..20,
        br in 1usize..4,
        bc in 1usize..4,
    ) {
        // Whole-struct equality: besides every stored value and index it
        // covers the zero tail of each in-place slot, so a kernel that
        // left a stale or stray value past a slot's non-zeros fails here.
        for cfg in [BeicsrConfig::non_sliced(), BeicsrConfig::sliced(slice), BeicsrConfig::default()] {
            prop_assert_eq!(Beicsr::encode(&m, cfg), beicsr_old_loop(&m, cfg), "{:?}", cfg);
        }
        prop_assert_eq!(CsrFeatures::encode(&m), csr_old_loop(&m));
        prop_assert_eq!(CooFeatures::encode(&m), coo_old_loop(&m));
        prop_assert_eq!(BsrFeatures::encode(&m), bsr_old_loop(&m, 2, 2));
        prop_assert_eq!(BlockedEllpack::encode(&m), ellpack_old_loop(&m, 2, 2));
        prop_assert_eq!(BsrFeatures::encode_with_blocks(&m, br, bc), bsr_old_loop(&m, br, bc));
        prop_assert_eq!(
            BlockedEllpack::encode_with_blocks(&m, br, bc),
            ellpack_old_loop(&m, br, bc)
        );
        prop_assert_eq!(SeparateBitmapCsr::encode(&m), separate_bitmap_old_loop(&m));
        prop_assert_eq!(PackedBeicsr::encode(&m), packed_beicsr_old_loop(&m));
    }

    #[test]
    fn negative_zero_encodes_like_positive_zero(m in signed_matrix_strategy(), slice in 1usize..20) {
        // `-0.0 == 0.0`, so every format must store a negative zero
        // exactly as a positive one: same bitmap, same indices, and no
        // `-0.0` left in a slot tail or a block payload.
        prop_assert_eq!(every_encoding(&m, slice), every_encoding(&positive_zeros(&m), slice));
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
