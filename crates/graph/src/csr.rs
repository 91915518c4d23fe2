//! The normalized adjacency matrix in compressed sparse row form.

use crate::partition::VertexRange;

/// A graph topology in CSR with per-edge weights — the paper's `Ã` matrix,
/// kept in CSR "to employ the high \[topology\] sparsity" (§III-B).
///
/// Rows are destination vertices; `neighbors(v)` lists the source vertices
/// whose features are aggregated into `v`. Construct via
/// [`crate::GraphBuilder`] or the generators in [`crate::generate`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CsrGraph {
    pub(crate) row_ptr: Vec<usize>,
    pub(crate) col_idx: Vec<u32>,
    pub(crate) weights: Vec<f32>,
}

impl CsrGraph {
    /// Builds directly from CSR arrays.
    ///
    /// # Panics
    ///
    /// Panics if the arrays are inconsistent (non-monotonic `row_ptr`,
    /// mismatched lengths, or column indices out of range).
    pub fn from_parts(row_ptr: Vec<usize>, col_idx: Vec<u32>, weights: Vec<f32>) -> Self {
        assert!(!row_ptr.is_empty(), "row_ptr must have at least one entry");
        assert_eq!(
            *row_ptr.last().unwrap(),
            col_idx.len(),
            "row_ptr end must equal nnz"
        );
        assert_eq!(
            col_idx.len(),
            weights.len(),
            "col_idx and weights must align"
        );
        assert!(
            row_ptr.windows(2).all(|w| w[0] <= w[1]),
            "row_ptr must be monotonic"
        );
        let n = row_ptr.len() - 1;
        assert!(
            col_idx.iter().all(|&c| (c as usize) < n),
            "column index out of range"
        );
        CsrGraph {
            row_ptr,
            col_idx,
            weights,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of directed edges (stored non-zeros of `Ã`).
    pub fn num_edges(&self) -> usize {
        self.col_idx.len()
    }

    /// In-degree of vertex `v` (row length).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: usize) -> usize {
        let (s, e) = self.row_bounds(v);
        e - s
    }

    /// Neighbor (source-vertex) list of `v`, sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        let (s, e) = self.row_bounds(v);
        &self.col_idx[s..e]
    }

    /// Edge weights aligned with [`Self::neighbors`].
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn edge_weights(&self, v: usize) -> &[f32] {
        let (s, e) = self.row_bounds(v);
        &self.weights[s..e]
    }

    /// Average in-degree.
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_vertices() as f64
        }
    }

    /// Neighbors of `v` restricted to sources within `range`
    /// (a column tile), via binary search on the sorted neighbor list.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors_in(&self, v: usize, range: VertexRange) -> (&[u32], &[f32]) {
        let (s, e) = self.row_bounds(v);
        let cols = &self.col_idx[s..e];
        let lo = cols.partition_point(|&c| (c as usize) < range.start);
        let hi = cols.partition_point(|&c| (c as usize) < range.end);
        (&cols[lo..hi], &self.weights[s + lo..s + hi])
    }

    fn row_bounds(&self, v: usize) -> (usize, usize) {
        assert!(
            v < self.num_vertices(),
            "vertex {v} out of range {}",
            self.num_vertices()
        );
        (self.row_ptr[v], self.row_ptr[v + 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> CsrGraph {
        // 0-1-2 path, unit weights, no self loops.
        CsrGraph::from_parts(vec![0, 1, 3, 4], vec![1, 0, 2, 1], vec![1.0; 4])
    }

    #[test]
    fn basic_accessors() {
        let g = path3();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert!((g.avg_degree() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn neighbors_in_range() {
        let g = path3();
        let (n, w) = g.neighbors_in(1, VertexRange::new(0, 1));
        assert_eq!(n, &[0]);
        assert_eq!(w.len(), 1);
        let (n, _) = g.neighbors_in(1, VertexRange::new(2, 3));
        assert_eq!(n, &[2]);
        let (n, _) = g.neighbors_in(1, VertexRange::new(1, 2));
        assert!(n.is_empty());
    }

    #[test]
    #[should_panic(expected = "monotonic")]
    fn non_monotonic_row_ptr_panics() {
        let _ = CsrGraph::from_parts(vec![0, 2, 1, 2], vec![0, 0], vec![1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_col_idx_panics() {
        let _ = CsrGraph::from_parts(vec![0, 1], vec![5], vec![1.0]);
    }
}
