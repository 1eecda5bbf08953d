//! Distributed-graph construction: per-rank local graphs with ghost
//! vertices.
//!
//! §3.3 of the paper: "Cross edges are represented using ghost vertices: a
//! boundary vertex u is stored on its corresponding processor p(u) as well
//! as on every other processor p(v) such that (u, v) is a cross edge. On
//! processor p(v) vertex u represents a ghost vertex."
//!
//! Local index layout on each rank: owned vertices occupy `0..n_local`,
//! ghosts occupy `n_local..n_local + n_ghost`. Only owned vertices carry an
//! adjacency row.

use crate::Partition;
use cmg_graph::util::FxHashMap;
use cmg_graph::{CsrGraph, VertexId, Weight};

/// A rank (re-declared locally to avoid a dependency on `cmg-runtime`;
/// the numeric type matches `cmg_runtime::Rank`).
pub type Rank = u32;

/// Empty slot of the global→local table [`DistGraph::build_all`] uses
/// while it builds a rank.
const UNMAPPED: u32 = u32::MAX;

/// One rank's piece of a distributed graph.
#[derive(Clone, Debug, PartialEq)]
pub struct DistGraph {
    /// This rank's id.
    pub rank: Rank,
    /// Total number of ranks.
    pub num_ranks: Rank,
    /// Number of owned (local) vertices.
    pub n_local: usize,
    /// CSR offsets over owned vertices (length `n_local + 1`).
    pub xadj: Vec<usize>,
    /// Adjacency in *local indices* (owned or ghost).
    pub adj: Vec<u32>,
    /// Edge weights parallel to `adj` (empty if the global graph is
    /// unweighted).
    pub weights: Vec<Weight>,
    /// Global id of each local index (owned then ghosts).
    pub global_ids: Vec<VertexId>,
    /// Owner rank of each ghost, indexed by `local - n_local`.
    pub ghost_owner: Vec<Rank>,
    /// Global id → local index, for owned and ghost vertices of this rank.
    pub global_to_local: FxHashMap<VertexId, u32>,
    /// `is_boundary[v]` for owned `v`: has at least one ghost neighbor.
    pub is_boundary: Vec<bool>,
    /// Sorted list of neighboring ranks (ranks owning at least one ghost).
    pub neighbor_ranks: Vec<Rank>,
}

impl DistGraph {
    /// Builds every rank's local graph from a global graph and partition
    /// (the paper assumes "the input graph is pre-distributed").
    ///
    /// # Panics
    /// Panics if graph and partition disagree on the vertex count.
    pub fn build_all(g: &CsrGraph, partition: &Partition) -> Vec<DistGraph> {
        assert_eq!(g.num_vertices(), partition.num_vertices());
        let p = partition.num_parts();

        // Owned vertices per rank, in global-id order (deterministic).
        let mut owned: Vec<Vec<VertexId>> = vec![Vec::new(); p as usize];
        for v in 0..g.num_vertices() as VertexId {
            owned[partition.owner(v) as usize].push(v);
        }

        // One global→local table shared by every rank; each build
        // resets the entries it set, so the table is clean again for
        // the next rank.
        let mut local = vec![UNMAPPED; g.num_vertices()];
        (0..p)
            .map(|rank| Self::build_one(g, partition, rank, &owned[rank as usize], &mut local))
            .collect()
    }

    /// Builds a single rank's local graph. A rank's [`DistGraph`]
    /// depends only on the edges incident to its owned vertices, so an
    /// incremental caller (cmg-serve) can refresh just the ranks whose
    /// owned vertices touched a mutation instead of rebuilding all `p`
    /// slices.
    ///
    /// # Panics
    /// Panics if graph and partition disagree on the vertex count.
    pub fn build_for_rank(g: &CsrGraph, partition: &Partition, rank: Rank) -> DistGraph {
        assert_eq!(g.num_vertices(), partition.num_vertices());
        let owned: Vec<VertexId> = (0..g.num_vertices() as VertexId)
            .filter(|&v| partition.owner(v) == rank)
            .collect();
        let mut local = vec![UNMAPPED; g.num_vertices()];
        Self::build_one(g, partition, rank, &owned, &mut local)
    }

    /// Builds `rank`'s local graph from `owned`, which must hold every
    /// vertex the partition assigns to `rank`. `local` is an
    /// n-length global→local table that is all [`UNMAPPED`] on entry
    /// and is left that way on return.
    fn build_one(
        g: &CsrGraph,
        partition: &Partition,
        rank: Rank,
        owned: &[VertexId],
        local: &mut [u32],
    ) -> DistGraph {
        let n_local = owned.len();
        let mut global_ids: Vec<VertexId> = owned.to_vec();
        for (i, &v) in owned.iter().enumerate() {
            local[v as usize] = i as u32;
        }

        // Discover ghosts in deterministic order (scan owned adjacency).
        // Every vertex of this rank is already mapped, so an unmapped
        // neighbor is a ghost seen for the first time.
        let mut ghost_owner: Vec<Rank> = Vec::new();
        let mut n_adj = 0;
        for &v in owned {
            let nbrs = g.neighbors(v);
            n_adj += nbrs.len();
            for &u in nbrs {
                if local[u as usize] == UNMAPPED {
                    local[u as usize] = (n_local + ghost_owner.len()) as u32;
                    global_ids.push(u);
                    ghost_owner.push(partition.owner(u));
                }
            }
        }

        // Local CSR over owned vertices.
        let weighted = g.is_weighted();
        let mut xadj = Vec::with_capacity(n_local + 1);
        xadj.push(0usize);
        let mut adj = Vec::with_capacity(n_adj);
        let mut weights = Vec::with_capacity(if weighted { n_adj } else { 0 });
        let mut is_boundary = vec![false; n_local];
        for (i, &v) in owned.iter().enumerate() {
            let row = adj.len();
            adj.extend(g.neighbors(v).iter().map(|&u| local[u as usize]));
            weights.extend_from_slice(g.neighbor_weights(v));
            is_boundary[i] = adj[row..].iter().any(|&lu| lu as usize >= n_local);
            xadj.push(adj.len());
        }

        let mut global_to_local: FxHashMap<VertexId, u32> = FxHashMap::default();
        global_to_local.reserve(global_ids.len());
        for (i, &v) in global_ids.iter().enumerate() {
            global_to_local.insert(v, i as u32);
            local[v as usize] = UNMAPPED;
        }

        let mut neighbor_ranks: Vec<Rank> = ghost_owner.clone();
        neighbor_ranks.sort_unstable();
        neighbor_ranks.dedup();

        DistGraph {
            rank,
            num_ranks: partition.num_parts(),
            n_local,
            xadj,
            adj,
            weights,
            global_ids,
            ghost_owner,
            global_to_local,
            is_boundary,
            neighbor_ranks,
        }
    }

    /// Number of ghost vertices.
    #[inline]
    pub fn n_ghost(&self) -> usize {
        self.ghost_owner.len()
    }

    /// Total local indices (owned + ghost).
    #[inline]
    pub fn n_total(&self) -> usize {
        self.n_local + self.n_ghost()
    }

    /// `true` if local index `v` refers to a ghost.
    #[inline]
    pub fn is_ghost(&self, v: u32) -> bool {
        v as usize >= self.n_local
    }

    /// Owner rank of local index `v` (self for owned vertices).
    #[inline]
    pub fn owner(&self, v: u32) -> Rank {
        if self.is_ghost(v) {
            self.ghost_owner[v as usize - self.n_local]
        } else {
            self.rank
        }
    }

    /// Degree of owned vertex `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        self.xadj[v as usize + 1] - self.xadj[v as usize]
    }

    /// Neighbors (local indices) of owned vertex `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.adj[self.xadj[v as usize]..self.xadj[v as usize + 1]]
    }

    /// Neighbor weights parallel to [`Self::neighbors`] (empty if
    /// unweighted).
    #[inline]
    pub fn neighbor_weights(&self, v: u32) -> &[Weight] {
        if self.weights.is_empty() {
            &[]
        } else {
            &self.weights[self.xadj[v as usize]..self.xadj[v as usize + 1]]
        }
    }

    /// Iterates `(neighbor_local, weight)` of owned vertex `v` (weight 1.0
    /// if unweighted).
    pub fn neighbors_weighted(&self, v: u32) -> impl Iterator<Item = (u32, Weight)> + '_ {
        let lo = self.xadj[v as usize];
        let hi = self.xadj[v as usize + 1];
        let weighted = !self.weights.is_empty();
        (lo..hi).map(move |i| (self.adj[i], if weighted { self.weights[i] } else { 1.0 }))
    }

    /// Number of owned boundary vertices.
    pub fn num_boundary(&self) -> usize {
        self.is_boundary.iter().filter(|&&b| b).count()
    }
}

/// Sanity-checks a set of rank-local graphs against the global graph they
/// were built from (test helper; exercised heavily in the integration
/// suite).
pub fn validate_distribution(g: &CsrGraph, parts: &[DistGraph]) -> Result<(), String> {
    let mut seen = vec![false; g.num_vertices()];
    let mut edge_count = 0usize;
    for dg in parts {
        for vl in 0..dg.n_local as u32 {
            let vg = dg.global_ids[vl as usize];
            if seen[vg as usize] {
                return Err(format!("vertex {vg} owned twice"));
            }
            seen[vg as usize] = true;
            if dg.degree(vl) != g.degree(vg) {
                return Err(format!("vertex {vg}: degree mismatch"));
            }
            let mut nbrs: Vec<VertexId> = dg
                .neighbors(vl)
                .iter()
                .map(|&ul| dg.global_ids[ul as usize])
                .collect();
            nbrs.sort_unstable();
            if nbrs != g.neighbors(vg) {
                return Err(format!("vertex {vg}: neighbor set mismatch"));
            }
            edge_count += dg.degree(vl);
        }
        for (gi, &owner) in dg.ghost_owner.iter().enumerate() {
            if owner == dg.rank {
                return Err(format!(
                    "rank {}: ghost {} owned by itself",
                    dg.rank,
                    dg.global_ids[dg.n_local + gi]
                ));
            }
        }
    }
    if seen.iter().any(|&s| !s) {
        return Err("some vertex owned by no rank".into());
    }
    if edge_count != 2 * g.num_edges() {
        return Err(format!(
            "directed edge count mismatch: {} vs {}",
            edge_count,
            2 * g.num_edges()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multilevel_partition;
    use crate::simple::{block_partition, grid2d_partition, hash_partition};
    use cmg_graph::generators::{erdos_renyi, grid2d};
    use cmg_graph::weights::{assign_weights, WeightScheme};

    #[test]
    fn grid_distribution_is_consistent() {
        let g = grid2d(6, 6);
        let p = grid2d_partition(6, 6, 2, 2);
        let parts = DistGraph::build_all(&g, &p);
        assert_eq!(parts.len(), 4);
        validate_distribution(&g, &parts).unwrap();
        // Each rank owns a 3x3 subgrid; corner subgrids have 5 boundary
        // vertices (the two interior-facing sides).
        for dg in &parts {
            assert_eq!(dg.n_local, 9);
            assert_eq!(dg.num_boundary(), 5);
            // 5-point stencil: only the two side-adjacent ranks, no diagonal.
            assert_eq!(dg.neighbor_ranks.len(), 2);
        }
    }

    #[test]
    fn five_point_grid_has_no_diagonal_rank_neighbors() {
        // On a 4x4 grid split 2x2, each rank's ghosts come only from the 2
        // side-adjacent ranks (5-point stencil has no diagonals).
        let g = grid2d(4, 4);
        let p = grid2d_partition(4, 4, 2, 2);
        let parts = DistGraph::build_all(&g, &p);
        for dg in &parts {
            assert_eq!(dg.neighbor_ranks.len(), 2, "rank {}", dg.rank);
        }
    }

    #[test]
    fn weights_survive_distribution() {
        let g = assign_weights(&grid2d(5, 5), WeightScheme::Uniform { lo: 0.0, hi: 1.0 }, 3);
        let p = block_partition(25, 3);
        let parts = DistGraph::build_all(&g, &p);
        validate_distribution(&g, &parts).unwrap();
        for dg in &parts {
            for vl in 0..dg.n_local as u32 {
                let vg = dg.global_ids[vl as usize];
                for (ul, w) in dg.neighbors_weighted(vl) {
                    let ug = dg.global_ids[ul as usize];
                    assert_eq!(g.edge_weight(vg, ug), Some(w));
                }
            }
        }
    }

    #[test]
    fn ghost_maps_are_inverse() {
        let g = grid2d(8, 8);
        let p = hash_partition(64, 4, 9);
        let parts = DistGraph::build_all(&g, &p);
        validate_distribution(&g, &parts).unwrap();
        for dg in &parts {
            for (gid, &lid) in &dg.global_to_local {
                assert_eq!(dg.global_ids[lid as usize], *gid);
            }
            assert_eq!(dg.global_to_local.len(), dg.n_total());
        }
    }

    #[test]
    fn empty_rank_is_fine() {
        // 3 vertices, 4 ranks: one rank owns nothing.
        let g = grid2d(1, 3);
        let p = block_partition(3, 4);
        let parts = DistGraph::build_all(&g, &p);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[3].n_local, 0);
        assert_eq!(parts[3].n_ghost(), 0);
        validate_distribution(&g, &parts).unwrap();
    }

    /// Checks one rank's local graph against `g` and `partition` from
    /// first principles (no shared code with `build_one`).
    fn check_rank(g: &CsrGraph, partition: &Partition, dg: &DistGraph) {
        let rank = dg.rank;
        let owned: Vec<VertexId> = (0..g.num_vertices() as VertexId)
            .filter(|&v| partition.owner(v) == rank)
            .collect();
        assert_eq!(dg.n_local, owned.len());
        assert_eq!(&dg.global_ids[..dg.n_local], &owned[..]);

        // Ghosts in first-discovery order over the owned adjacency.
        let mut ghosts: Vec<VertexId> = Vec::new();
        for &v in &owned {
            for &u in g.neighbors(v) {
                if partition.owner(u) != rank && !ghosts.contains(&u) {
                    ghosts.push(u);
                }
            }
        }
        assert_eq!(&dg.global_ids[dg.n_local..], &ghosts[..]);
        let owners: Vec<Rank> = ghosts.iter().map(|&u| partition.owner(u)).collect();
        assert_eq!(dg.ghost_owner, owners);

        // Local CSR maps back to g's adjacency, in order, with weights.
        assert_eq!(dg.xadj.len(), dg.n_local + 1);
        for (vl, &vg) in owned.iter().enumerate() {
            let nbrs: Vec<VertexId> = dg
                .neighbors(vl as u32)
                .iter()
                .map(|&ul| dg.global_ids[ul as usize])
                .collect();
            assert_eq!(nbrs, g.neighbors(vg));
            assert_eq!(dg.neighbor_weights(vl as u32), g.neighbor_weights(vg));
            let boundary = g.neighbors(vg).iter().any(|&u| partition.owner(u) != rank);
            assert_eq!(dg.is_boundary[vl], boundary);
        }
        assert_eq!(dg.adj.len(), *dg.xadj.last().unwrap());
        assert_eq!(
            dg.weights.len(),
            if g.is_weighted() { dg.adj.len() } else { 0 }
        );

        assert_eq!(dg.global_to_local.len(), dg.n_total());
        for (i, gid) in dg.global_ids.iter().enumerate() {
            assert_eq!(dg.global_to_local.get(gid), Some(&(i as u32)));
        }
        let mut neighbor_ranks = owners;
        neighbor_ranks.sort_unstable();
        neighbor_ranks.dedup();
        assert_eq!(dg.neighbor_ranks, neighbor_ranks);
        assert!(!dg.neighbor_ranks.contains(&rank));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn halo_build_matches_first_principles(
            n in 1usize..90,
            density in 0usize..4,
            k in 1u32..7,
            scheme in 0u8..3,
            weighted in proptest::prelude::any::<bool>(),
            seed in 0u64..1_000,
        ) {
            let g = erdos_renyi(n, density * n, seed);
            let g = if weighted {
                assign_weights(&g, WeightScheme::Uniform { lo: 0.0, hi: 1.0 }, seed)
            } else {
                g
            };
            let partition = match scheme {
                0 => block_partition(n, k),
                1 => hash_partition(n, k, seed),
                _ => multilevel_partition(&g, k, seed),
            };
            let parts = DistGraph::build_all(&g, &partition);
            proptest::prop_assert_eq!(parts.len(), k as usize);
            for (r, dg) in parts.iter().enumerate() {
                proptest::prop_assert_eq!(dg.rank, r as Rank);
                proptest::prop_assert_eq!(dg.num_ranks, k);
                check_rank(&g, &partition, dg);
                proptest::prop_assert_eq!(&DistGraph::build_for_rank(&g, &partition, r as Rank), dg);
            }
            validate_distribution(&g, &parts).unwrap();
        }
    }

    #[test]
    fn single_rank_has_no_ghosts() {
        let g = grid2d(4, 4);
        let p = Partition::single(16);
        let parts = DistGraph::build_all(&g, &p);
        assert_eq!(parts[0].n_ghost(), 0);
        assert_eq!(parts[0].num_boundary(), 0);
        assert!(parts[0].neighbor_ranks.is_empty());
    }
}
