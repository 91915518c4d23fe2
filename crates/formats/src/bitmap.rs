//! Bitmap indices for BEICSR.
//!
//! BEICSR replaces CSR's per-non-zero column indices with a single bit per
//! element (§V-A): bit *i* is set iff element *i* of the (row-)slice is
//! non-zero. At the ~50% sparsity of deep-GCN intermediate features this
//! costs `n` bits instead of CSR's `32·n/2` bits — the 6.25% overhead the
//! paper derives.
//!
//! The hardware reads bitmaps through a parallel prefix-sum unit
//! (`sgcn-engines::prefix_sum`); this module provides the functional
//! bit-level operations that unit and the software encoder share.

use std::fmt;

/// A fixed-width bitmap index over the elements of one feature slice.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Bitmap {
    len: usize,
    words: Vec<u64>,
}

impl Bitmap {
    /// Creates an all-zero bitmap over `len` elements.
    pub fn new(len: usize) -> Self {
        Bitmap {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Builds a bitmap from the non-zero pattern of `values`, assembling
    /// one 64-bit word at a time (no per-bit bounds checks or
    /// read-modify-write of the word array).
    pub fn from_values(values: &[f32]) -> Self {
        let mut bm = Bitmap::new(values.len());
        bm.fill_from_values(values);
        bm
    }

    /// Overwrites the bitmap in place from the non-zero pattern of
    /// `values` — the allocation-free form of [`Bitmap::from_values`]
    /// used by the compressor when re-encoding into an existing slot.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.len()`.
    pub fn fill_from_values(&mut self, values: &[f32]) {
        assert_eq!(
            values.len(),
            self.len,
            "value count must match bitmap length"
        );
        for (word, chunk) in self.words.iter_mut().zip(values.chunks(64)) {
            let mut w = 0u64;
            for (b, &v) in chunk.iter().enumerate() {
                w |= u64::from(v != 0.0) << b;
            }
            *word = w;
        }
    }

    /// Number of elements covered by the bitmap.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap covers zero elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `idx` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len`.
    pub fn set(&mut self, idx: usize, value: bool) {
        assert!(idx < self.len, "bit index {idx} out of range {}", self.len);
        let (w, b) = (idx / 64, idx % 64);
        if value {
            self.words[w] |= 1 << b;
        } else {
            self.words[w] &= !(1 << b);
        }
    }

    /// Returns bit `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len`.
    pub fn get(&self, idx: usize) -> bool {
        assert!(idx < self.len, "bit index {idx} out of range {}", self.len);
        (self.words[idx / 64] >> (idx % 64)) & 1 == 1
    }

    /// Number of set bits (non-zero elements).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of set bits strictly before `idx` — the "reversed index" the
    /// paper's prefix-sum unit computes to locate a non-zero value inside
    /// the packed value array (§V-D step 2').
    ///
    /// # Panics
    ///
    /// Panics if `idx > len`.
    pub fn rank(&self, idx: usize) -> usize {
        assert!(
            idx <= self.len,
            "rank index {idx} out of range {}",
            self.len
        );
        let (full, rem) = (idx / 64, idx % 64);
        let mut count: usize = self.words[..full]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        if rem > 0 {
            count += (self.words[full] & ((1u64 << rem) - 1)).count_ones() as usize;
        }
        count
    }

    /// Iterates over the indices of set bits in ascending order.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes {
            bitmap: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Number of positions set in **both** bitmaps — a word-at-a-time
    /// `popcount(self & other)`. This is the O(words) primitive behind
    /// shard-residency and cache-affinity queries: intersecting a
    /// request's vertex set with a shard's residency index costs
    /// `len/64` AND+popcount steps instead of a per-vertex probe.
    ///
    /// # Panics
    ///
    /// Panics if the bitmaps cover different lengths.
    pub fn and_count(&self, other: &Bitmap) -> u64 {
        assert_eq!(
            self.len, other.len,
            "and_count requires equal-length bitmaps"
        );
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| u64::from((a & b).count_ones()))
            .sum()
    }

    /// The exclusive prefix-sum over bits, as produced by the hardware
    /// prefix-sum unit: `out[i]` = number of ones before position `i`.
    /// Walks the packed words directly instead of probing bit by bit.
    pub fn prefix_sums(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len);
        let mut acc = 0u32;
        for (wi, &word) in self.words.iter().enumerate() {
            let bits = (self.len - wi * 64).min(64);
            for b in 0..bits {
                out.push(acc);
                acc += (word >> b) as u32 & 1;
            }
        }
        out
    }
}

impl fmt::Debug for Bitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bitmap({} bits:", self.len)?;
        for i in 0..self.len.min(64) {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        if self.len > 64 {
            write!(f, "…")?;
        }
        write!(f, ")")
    }
}

/// Iterator over set-bit positions, returned by [`Bitmap::iter_ones`].
#[derive(Debug)]
pub struct IterOnes<'a> {
    bitmap: &'a Bitmap,
    word_idx: usize,
    current: u64,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                let idx = self.word_idx * 64 + bit;
                // Guard against stray bits beyond `len` (none are ever set by
                // the public API, but stay defensive).
                if idx < self.bitmap.len {
                    return Some(idx);
                }
                return None;
            }
            self.word_idx += 1;
            if self.word_idx >= self.bitmap.words.len() {
                return None;
            }
            self.current = self.bitmap.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut bm = Bitmap::new(130);
        for i in [0, 1, 63, 64, 65, 127, 128, 129] {
            bm.set(i, true);
            assert!(bm.get(i));
        }
        bm.set(64, false);
        assert!(!bm.get(64));
        assert_eq!(bm.count_ones(), 7);
    }

    #[test]
    fn from_values_matches_nonzero_pattern() {
        let bm = Bitmap::from_values(&[0.0, 0.3, 0.5, 0.0]);
        assert!(!bm.get(0));
        assert!(bm.get(1));
        assert!(bm.get(2));
        assert!(!bm.get(3));
        assert_eq!(bm.count_ones(), 2);
    }

    #[test]
    fn rank_counts_strictly_before() {
        let bm = Bitmap::from_values(&[1.0, 0.0, 1.0, 1.0]);
        assert_eq!(bm.rank(0), 0);
        assert_eq!(bm.rank(1), 1);
        assert_eq!(bm.rank(2), 1);
        assert_eq!(bm.rank(3), 2);
        assert_eq!(bm.rank(4), 3);
    }

    #[test]
    fn rank_across_word_boundary() {
        let mut bm = Bitmap::new(200);
        for i in (0..200).step_by(3) {
            bm.set(i, true);
        }
        for idx in [0, 1, 63, 64, 65, 128, 199, 200] {
            let expect = (0..idx).filter(|i| i % 3 == 0).count();
            assert_eq!(bm.rank(idx), expect, "rank({idx})");
        }
    }

    #[test]
    fn iter_ones_matches_get() {
        let mut bm = Bitmap::new(150);
        let ones = [0usize, 5, 63, 64, 99, 149];
        for &i in &ones {
            bm.set(i, true);
        }
        let collected: Vec<usize> = bm.iter_ones().collect();
        assert_eq!(collected, ones);
    }

    #[test]
    fn prefix_sums_are_exclusive() {
        let bm = Bitmap::from_values(&[1.0, 1.0, 0.0, 1.0]);
        assert_eq!(bm.prefix_sums(), vec![0, 1, 2, 2]);
    }

    #[test]
    fn empty_bitmap() {
        let bm = Bitmap::new(0);
        assert!(bm.is_empty());
        assert_eq!(bm.count_ones(), 0);
        assert_eq!(bm.iter_ones().count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let bm = Bitmap::new(4);
        let _ = bm.get(4);
    }

    #[test]
    fn words_expose_packed_bits() {
        let mut bm = Bitmap::new(130);
        bm.set(0, true);
        bm.set(64, true);
        bm.set(129, true);
        assert_eq!(bm.words, [1, 1, 2]);
    }

    #[test]
    fn and_count_matches_per_bit_intersection() {
        let mut a = Bitmap::new(200);
        let mut b = Bitmap::new(200);
        for i in (0..200).step_by(3) {
            a.set(i, true);
        }
        for i in (0..200).step_by(5) {
            b.set(i, true);
        }
        let expect = (0..200).filter(|i| i % 3 == 0 && i % 5 == 0).count() as u64;
        assert_eq!(a.and_count(&b), expect);
        assert_eq!(b.and_count(&a), expect);
        assert_eq!(a.and_count(&a), a.count_ones() as u64);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn and_count_length_mismatch_panics() {
        let _ = Bitmap::new(4).and_count(&Bitmap::new(5));
    }
}
