//! 2-D tiling of the adjacency matrix.
//!
//! GCNAX-style accelerators partition `Ã` into row (destination) × column
//! (source) tiles so the feature working set of one tile fits in the global
//! cache (§V-C, Fig. 7a). SGCN keeps the same tiling but changes *how
//! engines sweep inside a tile* (sparsity-aware cooperation, implemented in
//! the core crate).

/// A half-open vertex ID range `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct VertexRange {
    /// First vertex (inclusive).
    pub start: usize,
    /// Last vertex (exclusive).
    pub end: usize,
}

impl VertexRange {
    /// Creates a range.
    ///
    /// # Panics
    ///
    /// Panics if `start > end`.
    pub fn new(start: usize, end: usize) -> Self {
        assert!(start <= end, "invalid vertex range {start}..{end}");
        VertexRange { start, end }
    }

    /// Number of vertices covered.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the range is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Whether `v` lies in the range.
    pub fn contains(&self, v: usize) -> bool {
        v >= self.start && v < self.end
    }

    /// Iterates the vertex IDs.
    pub fn iter(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }
}

/// One tile of the 2-D partition: a destination-range × source-range block
/// of `Ã`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Tile {
    /// Destination (row) vertex range.
    pub dst: VertexRange,
    /// Source (column) vertex range.
    pub src: VertexRange,
}

/// A regular 2-D tiling of an `n × n` adjacency matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tiling {
    vertices: usize,
    dst_tile: usize,
    src_tile: usize,
}

impl Tiling {
    /// Creates a tiling with the given tile heights/widths (in vertices).
    ///
    /// # Panics
    ///
    /// Panics if either tile dimension is zero.
    pub fn new(vertices: usize, dst_tile: usize, src_tile: usize) -> Self {
        assert!(
            dst_tile > 0 && src_tile > 0,
            "tile dimensions must be non-zero"
        );
        Tiling {
            vertices,
            dst_tile,
            src_tile,
        }
    }

    /// Number of destination (row) tiles.
    pub fn dst_tiles(&self) -> usize {
        self.vertices.div_ceil(self.dst_tile).max(1)
    }

    /// Number of source (column) tiles.
    pub fn src_tiles(&self) -> usize {
        self.vertices.div_ceil(self.src_tile).max(1)
    }

    /// Destination range of row-tile `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn dst_range(&self, i: usize) -> VertexRange {
        assert!(i < self.dst_tiles(), "dst tile {i} out of range");
        VertexRange::new(
            i * self.dst_tile,
            ((i + 1) * self.dst_tile).min(self.vertices),
        )
    }

    /// Source range of column-tile `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn src_range(&self, j: usize) -> VertexRange {
        assert!(j < self.src_tiles(), "src tile {j} out of range");
        VertexRange::new(
            j * self.src_tile,
            ((j + 1) * self.src_tile).min(self.vertices),
        )
    }

    /// Iterates tiles in the row-product order the paper's baseline uses:
    /// for each destination tile, sweep source tiles.
    pub fn iter_row_major(&self) -> impl Iterator<Item = Tile> + '_ {
        (0..self.dst_tiles()).flat_map(move |i| {
            (0..self.src_tiles()).map(move |j| Tile {
                dst: self.dst_range(i),
                src: self.src_range(j),
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{GraphBuilder, Normalization};

    #[test]
    fn ranges_cover_exactly() {
        let t = Tiling::new(10, 4, 3);
        assert_eq!(t.dst_tiles(), 3);
        assert_eq!(t.src_tiles(), 4);
        assert_eq!(t.dst_range(2), VertexRange::new(8, 10));
        assert_eq!(t.src_range(3), VertexRange::new(9, 10));
        let total: usize = (0..t.dst_tiles()).map(|i| t.dst_range(i).len()).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn edges_in_tiles_partition_edge_set() {
        let g = GraphBuilder::new(6)
            .undirected_edge(0, 5)
            .undirected_edge(1, 2)
            .undirected_edge(3, 4)
            .build(Normalization::Unit);
        let t = Tiling::new(6, 2, 3);
        let sum: usize = t
            .iter_row_major()
            .flat_map(|tile| tile.dst.iter().map(move |v| (v, tile.src)))
            .map(|(v, src)| g.neighbors_in(v, src).0.len())
            .sum();
        assert_eq!(sum, g.num_edges());
    }

    #[test]
    fn row_major_iteration_order() {
        let t = Tiling::new(4, 2, 2);
        let tiles: Vec<Tile> = t.iter_row_major().collect();
        assert_eq!(tiles.len(), 4);
        assert_eq!(tiles[0].dst, VertexRange::new(0, 2));
        assert_eq!(tiles[0].src, VertexRange::new(0, 2));
        assert_eq!(tiles[1].src, VertexRange::new(2, 4));
        assert_eq!(tiles[2].dst, VertexRange::new(2, 4));
    }

    #[test]
    fn vertex_range_helpers() {
        let r = VertexRange::new(3, 7);
        assert_eq!(r.len(), 4);
        assert!(r.contains(3) && r.contains(6) && !r.contains(7));
    }
}
