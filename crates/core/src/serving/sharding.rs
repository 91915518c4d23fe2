//! Sharded feature stores for million-vertex serving.
//!
//! The paper's datasets fit one accelerator's memory system; a
//! production deployment does not. This module partitions a graph's
//! input-feature store into contiguous per-shard vertex ranges (over
//! [`sgcn_graph::partition::VertexRange`]), replicates the highest-degree
//! *hub* vertices to every shard (power-law graphs concentrate sampling
//! traffic on a handful of hubs, so replicating them converts most
//! cross-shard hops into local reads), and prices the hops that remain
//! remote with a simple interconnect model: one round-trip latency per
//! distinct remote shard touched plus the feature bytes at link
//! bandwidth.
//!
//! Residency is indexed with word-level bitmaps ([`sgcn_formats::Bitmap`]):
//! one bitmap per shard marks every vertex whose feature row that shard
//! holds (its own range plus the replicated hubs). Intersecting a
//! request's sampled-vertex bitmap against a shard's residency bitmap
//! ([`Bitmap::and_count`]) answers "how many of this request's rows are
//! local to that shard?" in O(vertices / 64) word operations — the
//! primitive behind the `shard-affinity` routing policy, which stays
//! cheap even at fleet × million-vertex scale where per-vertex cache
//! peeks would not.
//!
//! Everything here is a pure function of `(degrees, shards, hubs)`:
//! plans, residency bitmaps and network costs are deterministic and
//! thread-count independent by construction.

use sgcn_formats::Bitmap;
use sgcn_graph::csr::CsrGraph;
use sgcn_graph::partition::VertexRange;

/// The modeled shard interconnect: every request pays one round-trip
/// per distinct remote shard it samples from, plus its remote feature
/// bytes at the link bandwidth. Integer-only arithmetic keeps the cost
/// bit-identical across platforms and thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkModel {
    /// Round-trip latency to a remote shard (cycles).
    pub rtt_cycles: u64,
    /// Link bandwidth (bytes per cycle).
    pub bytes_per_cycle: u64,
}

impl Default for NetworkModel {
    /// A datacenter-style link: 500-cycle round trips, 16 B/cycle.
    fn default() -> Self {
        NetworkModel {
            rtt_cycles: 500,
            bytes_per_cycle: 16,
        }
    }
}

/// The network bill of serving one request from one shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetCost {
    /// Feature bytes fetched from remote shards.
    pub bytes: u64,
    /// Modeled transfer time: `rtt × touched_shards + ⌈bytes / bw⌉`.
    pub cycles: u64,
    /// Sampled vertices whose feature row was not resident locally.
    pub remote_vertices: u64,
    /// Distinct remote shards the request pulled rows from.
    pub touched_shards: u64,
}

/// A sharding of one graph's feature store: contiguous vertex ranges,
/// hub replication, per-shard residency bitmaps and the interconnect
/// model pricing cross-shard hops.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    vertices: usize,
    chunk: usize,
    ranges: Vec<VertexRange>,
    /// Replicated hub vertex ids, highest degree first (ties to the
    /// lower id).
    hubs: Vec<u32>,
    /// Per-shard residency over all vertices: the shard's own range
    /// plus every replicated hub.
    residency: Vec<Bitmap>,
    net: NetworkModel,
}

impl ShardPlan {
    /// Builds a plan from a degree sequence: `degrees[v]` is vertex
    /// `v`'s degree, vertices split into `shards` contiguous
    /// near-equal ranges, and the `replicate_hubs` highest-degree
    /// vertices (ties to the lower id) replicated to every shard.
    ///
    /// # Panics
    ///
    /// Panics if `degrees` is empty or `shards == 0`.
    pub fn from_degrees(
        degrees: &[usize],
        shards: usize,
        replicate_hubs: usize,
        net: NetworkModel,
    ) -> Self {
        let n = degrees.len();
        assert!(n > 0, "a shard plan needs at least one vertex");
        assert!(shards > 0, "a shard plan needs at least one shard");
        let chunk = n.div_ceil(shards);
        let ranges: Vec<VertexRange> = (0..shards)
            .map(|s| VertexRange::new((s * chunk).min(n), ((s + 1) * chunk).min(n)))
            .collect();
        let mut by_degree: Vec<u32> = (0..n as u32).collect();
        by_degree.sort_unstable_by_key(|&v| (std::cmp::Reverse(degrees[v as usize]), v));
        by_degree.truncate(replicate_hubs.min(n));
        let residency: Vec<Bitmap> = ranges
            .iter()
            .map(|r| {
                let mut bm = Bitmap::new(n);
                for v in r.iter() {
                    bm.set(v, true);
                }
                for &h in &by_degree {
                    bm.set(h as usize, true);
                }
                bm
            })
            .collect();
        ShardPlan {
            vertices: n,
            chunk,
            ranges,
            hubs: by_degree,
            residency,
            net,
        }
    }

    /// [`ShardPlan::from_degrees`] over a graph's own degree sequence,
    /// with the default interconnect.
    pub fn from_graph(graph: &CsrGraph, shards: usize, replicate_hubs: usize) -> Self {
        let degrees: Vec<usize> = (0..graph.num_vertices()).map(|v| graph.degree(v)).collect();
        ShardPlan::from_degrees(&degrees, shards, replicate_hubs, NetworkModel::default())
    }

    /// Vertex count of the sharded feature store.
    pub fn vertices(&self) -> usize {
        self.vertices
    }

    /// Shard count.
    pub fn shards(&self) -> usize {
        self.ranges.len()
    }

    /// The replicated hub vertices, highest degree first.
    pub fn hubs(&self) -> &[u32] {
        &self.hubs
    }

    /// Shard `s`'s home vertex range.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn range(&self, s: usize) -> VertexRange {
        self.ranges[s]
    }

    /// The home shard of vertex `v` — O(1) range arithmetic, no lookup
    /// table.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn shard_of(&self, v: usize) -> usize {
        assert!(
            v < self.vertices,
            "vertex {v} out of range {}",
            self.vertices
        );
        v / self.chunk
    }

    /// The shard engine `e` serves from: engines are striped over
    /// shards round-robin, so any fleet width covers every shard.
    pub fn engine_shard(&self, e: usize) -> usize {
        e % self.ranges.len()
    }

    /// Whether shard `s` holds vertex `v`'s feature row.
    ///
    /// # Panics
    ///
    /// Panics if `s` or `v` is out of range.
    pub fn is_resident(&self, s: usize, v: usize) -> bool {
        self.residency[s].get(v)
    }

    /// Feature rows stored on shard `s` (home range + hubs replicated
    /// from elsewhere) — the capacity-planning view of replication.
    pub fn stored_rows(&self, s: usize) -> u64 {
        self.residency[s].count_ones() as u64
    }

    /// A request's sampled-vertex bitmap over the full vertex space —
    /// the word-level operand for [`ShardPlan::resident_count`].
    /// Duplicate vertices collapse to one bit, matching the feature
    /// store's one-row-per-vertex layout.
    ///
    /// # Panics
    ///
    /// Panics if any vertex is out of range.
    pub fn request_residency(&self, vertices: &[u32]) -> Bitmap {
        let mut bm = Bitmap::new(self.vertices);
        for &v in vertices {
            bm.set(v as usize, true);
        }
        bm
    }

    /// How many of a request's sampled rows shard `s` holds locally —
    /// one word-level AND+popcount sweep.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range or the bitmap length disagrees
    /// with the plan's vertex count.
    pub fn resident_count(&self, s: usize, request: &Bitmap) -> u64 {
        self.residency[s].and_count(request)
    }

    /// Prices serving `vertices` from shard `s`: every non-resident
    /// row is fetched from its home shard, costing one round trip per
    /// distinct remote shard plus `row_bytes` per remote row at link
    /// bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `s` or any vertex is out of range.
    pub fn remote_cost(&self, s: usize, vertices: &[u32], row_bytes: u64) -> NetCost {
        let home = &self.residency[s];
        let mut touched = vec![false; self.ranges.len()];
        let mut remote = 0u64;
        for &v in vertices {
            let v = v as usize;
            if home.get(v) {
                continue;
            }
            remote += 1;
            touched[self.shard_of(v)] = true;
        }
        let shards = touched.iter().filter(|&&t| t).count() as u64;
        let bytes = remote * row_bytes;
        let transfer = if self.net.bytes_per_cycle > 0 {
            bytes.div_ceil(self.net.bytes_per_cycle)
        } else {
            0
        };
        NetCost {
            bytes,
            cycles: self.net.rtt_cycles * shards + transfer,
            remote_vertices: remote,
            touched_shards: shards,
        }
    }

    /// Stable display label (appears in queue summaries and golden
    /// snapshots): `"<shards>x<hubs>hub"`.
    pub fn label(&self) -> String {
        format!("{}x{}hub", self.ranges.len(), self.hubs.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgcn_graph::builder::Normalization;
    use sgcn_graph::generate::power_law;

    fn plan_4x2() -> ShardPlan {
        // 10 vertices, degrees peak at 3 and 7.
        let degrees = [1, 2, 1, 9, 0, 2, 1, 8, 2, 1];
        ShardPlan::from_degrees(&degrees, 4, 2, NetworkModel::default())
    }

    #[test]
    fn ranges_partition_and_shard_of_agrees() {
        let plan = plan_4x2();
        assert_eq!(plan.shards(), 4);
        let total: usize = (0..4).map(|s| plan.range(s).len()).sum();
        assert_eq!(total, 10);
        for v in 0..10 {
            let s = plan.shard_of(v);
            assert!(plan.range(s).contains(v), "vertex {v} not in shard {s}");
        }
    }

    #[test]
    fn hubs_are_top_degree_and_replicated_everywhere() {
        let plan = plan_4x2();
        assert_eq!(plan.hubs(), &[3, 7]);
        for s in 0..4 {
            assert!(plan.is_resident(s, 3));
            assert!(plan.is_resident(s, 7));
        }
        // A non-hub vertex lives only on its home shard.
        for s in 0..4 {
            assert_eq!(plan.is_resident(s, 0), s == plan.shard_of(0));
        }
        // Stored rows = home range + foreign hubs.
        let s0 = plan.stored_rows(0) as usize;
        let foreign_hubs = [3usize, 7]
            .iter()
            .filter(|&&h| !plan.range(0).contains(h))
            .count();
        assert_eq!(s0, plan.range(0).len() + foreign_hubs);
    }

    #[test]
    fn remote_cost_prices_rtt_and_bytes() {
        let plan = plan_4x2();
        // Shard 0 homes 0..3 (chunk ⌈10/4⌉ = 3) and replicates hubs 3, 7.
        // Request touching {0, 3, 4, 9}: 0 and 3 local, 4 (shard 1) and
        // 9 (shard 3) remote → 2 remote rows from 2 distinct shards.
        let cost = plan.remote_cost(0, &[0, 3, 4, 9], 64);
        assert_eq!(cost.remote_vertices, 2);
        assert_eq!(cost.touched_shards, 2);
        assert_eq!(cost.bytes, 2 * 64);
        assert_eq!(cost.cycles, 2 * 500 + (128u64).div_ceil(16));
        // An all-local request is free.
        let free = plan.remote_cost(0, &[0, 1, 2, 3, 7], 64);
        assert_eq!(free, NetCost::default());
    }

    #[test]
    fn resident_count_matches_scalar_probe() {
        let plan = plan_4x2();
        let req = plan.request_residency(&[0, 3, 4, 9, 3]); // dup collapses
        assert_eq!(req.count_ones(), 4);
        for s in 0..4 {
            let expect = [0usize, 3, 4, 9]
                .iter()
                .filter(|&&v| plan.is_resident(s, v))
                .count() as u64;
            assert_eq!(plan.resident_count(s, &req), expect, "shard {s}");
        }
    }

    #[test]
    fn replication_monotonically_localizes_power_law_sampling() {
        let g = power_law(2048, 8.0, 2.0, 13, Normalization::Unit);
        let plain = ShardPlan::from_graph(&g, 4, 0);
        let replicated = ShardPlan::from_graph(&g, 4, 64);
        // Price a heavy multi-vertex request from every shard: hub
        // replication can only reduce the remote byte count.
        let sample: Vec<u32> = (0..2048).step_by(7).map(|v| v as u32).collect();
        for s in 0..4 {
            let a = plain.remote_cost(s, &sample, 64);
            let b = replicated.remote_cost(s, &sample, 64);
            assert!(b.bytes <= a.bytes, "shard {s}: {} > {}", b.bytes, a.bytes);
        }
        assert_eq!(replicated.hubs().len(), 64);
    }

    #[test]
    fn engine_striping_covers_all_shards() {
        let plan = plan_4x2();
        let covered: std::collections::BTreeSet<usize> =
            (0..6).map(|e| plan.engine_shard(e)).collect();
        assert_eq!(covered.len(), 4);
    }

    #[test]
    fn label_is_stable() {
        assert_eq!(plan_4x2().label(), "4x2hub");
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = ShardPlan::from_degrees(&[1, 2], 0, 0, NetworkModel::default());
    }

    #[test]
    fn single_shard_is_all_local() {
        let plan = ShardPlan::from_degrees(&[1, 2, 3], 1, 0, NetworkModel::default());
        assert_eq!(plan.remote_cost(0, &[0, 1, 2], 64), NetCost::default());
        assert_eq!(plan.stored_rows(0), 3);
    }
}
