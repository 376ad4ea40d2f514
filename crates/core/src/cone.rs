//! Shared cone-recurrence arithmetic for batch-granular sweep masks.
//!
//! Two sweeps on one `Session` prune by `(layer, batch)` masks that are
//! duals of each other over the chunk topology:
//!
//! * the **downward-closed query cone** ([`ServeMask::from_queries`]):
//!   a vertex-subset logit query needs the ≤ L-hop *in*-neighborhood of
//!   the queried vertices, walked top-down — `active[l] ⊇ active[l+1]`;
//! * the **upward-closed delta cone** ([`ServeMask::from_dirty`]): a
//!   graph mutation invalidates the ≤ L-hop *out*-neighborhood of the
//!   dirty vertices, walked bottom-up — `active[l] ⊆ active[l+1]`.
//!
//! Both recurrences live here so query pruning and delta invalidation
//! can never diverge: they share the vertex→batch map and the
//! mark-active step, and differ only in the walk direction and which
//! edge direction grows the frontier.
//!
//! [`ServeMask::from_queries`]: crate::ServeMask::from_queries
//! [`ServeMask::from_dirty`]: crate::ServeMask::from_dirty

use hongtu_partition::TwoLevelPartition;
use hongtu_sim::SimError;

/// Batch (chunk index) of each vertex: destination sets partition the
/// vertex set across `(gpu, chunk)`, with the chunk id shared across
/// GPUs.
pub fn batch_of_vertices(plan: &TwoLevelPartition) -> Vec<u32> {
    let num_v = plan.assignment.partition_of.len();
    let mut batch_of = vec![0u32; num_v];
    for c in plan.all_chunks() {
        for &v in &c.dests {
            batch_of[v as usize] = c.chunk as u32;
        }
    }
    batch_of
}

/// Marks active every batch owning a member of `set`.
fn mark_active(batch_of: &[u32], set: &[bool], act: &mut [bool]) {
    for (v, &member) in set.iter().enumerate() {
        if member {
            act[batch_of[v] as usize] = true;
        }
    }
}

/// Checks the seed set is non-empty and in range, returning it as a
/// membership vector.
fn seed_set(what: &'static str, num_v: usize, vertices: &[usize]) -> Result<Vec<bool>, SimError> {
    if vertices.is_empty() {
        return Err(SimError::EmptyVertexSet { what });
    }
    let mut set = vec![false; num_v];
    for &v in vertices {
        if v >= num_v {
            return Err(SimError::VertexOutOfRange {
                what,
                vertex: v,
                num_vertices: num_v,
            });
        }
        set[v] = true;
    }
    Ok(set)
}

/// The downward-closed query cone: active batches per layer for a
/// pruned serving sweep (module docs give the duality; the serve-path
/// docs in [`crate::serve`] give the recurrence):
///
/// ```text
/// needed[L]  = Q
/// active[l]  = { j | batch_of(v) = j for some v ∈ needed[l+1] }
/// needed[l]  = needed[l+1] ∪ ⋃_{j ∈ active[l], i < m} (V_ij ∪ N_ij)
/// ```
///
/// Including the destination sets `V_ij` (not just the neighbor lists
/// `N_ij`) makes the mask downward closed — `active[l] ⊇ active[l+1]` —
/// which keeps the executor's layer-0 topology H2D covering every batch
/// that is ever active, and gives the correctness induction: every row
/// an active chunk reads at layer `l+1` was recomputed at layer `l`.
///
/// # Errors
///
/// [`SimError::EmptyVertexSet`] if `vertices` is empty,
/// [`SimError::VertexOutOfRange`] if it contains an out-of-range id.
pub fn downward_closed(
    plan: &TwoLevelPartition,
    layers: usize,
    vertices: &[usize],
) -> Result<Vec<Vec<bool>>, SimError> {
    let num_v = plan.assignment.partition_of.len();
    let batch_of = batch_of_vertices(plan);
    let mut needed = seed_set("query", num_v, vertices)?;
    let mut active = vec![vec![false; plan.n]; layers];
    for l in (0..layers).rev() {
        // Batches holding any currently-needed vertex. `needed` only
        // grows walking down, so active[l] ⊇ active[l+1].
        let act = &mut active[l];
        mark_active(&batch_of, &needed, act);
        // Layer l recomputes every row layer l+1's active chunks
        // read: grow `needed` by those chunks' dests and neighbors.
        for c in plan.all_chunks() {
            if act[c.chunk] {
                for &v in c.dests.iter().chain(&c.neighbors) {
                    needed[v as usize] = true;
                }
            }
        }
    }
    Ok(active)
}

/// The upward-closed delta cone: active batches per layer for an
/// incremental recompute sweep after a graph mutation.
///
/// `dirty` seeds the vertices whose layer-1 rows (or whose producing
/// computation, for weight-touching topology edits) are invalid:
///
/// ```text
/// R[0]    = dirty
/// active[l] = { j | batch_of(v) = j for some v ∈ R[l] }
/// R[l+1]  = R[l] ∪ { d ∈ V_ij | N(d) ∩ R[l] ≠ ∅ }
/// ```
///
/// The frontier grows along *out*-edges (a dest is invalidated when any
/// of its in-neighbors holds a dirty row), resolved exactly per dest
/// through the chunks' local CSC structure — no chunk-granular
/// over-approximation on the growth step. Keeping `R[l]` in `R[l+1]`
/// makes the mask upward closed — `active[l] ⊆ active[l+1]` — the dual
/// of the query cone's downward closure, giving the replay induction:
/// every row a replayed chunk reads at layer `l` is either untouched in
/// `h^l` or was recomputed at layer `l−1`.
///
/// # Errors
///
/// [`SimError::EmptyVertexSet`] if `dirty` is empty,
/// [`SimError::VertexOutOfRange`] if it contains an out-of-range id.
pub fn upward_closed(
    plan: &TwoLevelPartition,
    layers: usize,
    dirty: &[usize],
) -> Result<Vec<Vec<bool>>, SimError> {
    let num_v = plan.assignment.partition_of.len();
    let batch_of = batch_of_vertices(plan);
    let mut invalid = seed_set("dirty set", num_v, dirty)?;
    let mut active = vec![vec![false; plan.n]; layers];
    for l in 0..layers {
        // Batches holding any currently-invalid row. `invalid` only
        // grows walking up, so active[l] ⊆ active[l+1].
        let act = &mut active[l];
        mark_active(&batch_of, &invalid, act);
        if l + 1 == layers {
            break;
        }
        // Layer l+1 reads the rows layer l rewrote: a dest whose
        // in-neighbor list touches the invalid set joins it.
        let mut next = invalid.clone();
        for c in plan.all_chunks() {
            for (k, &d) in c.dests.iter().enumerate() {
                if !next[d as usize]
                    && c.nbr_index[c.in_edges_of(k)]
                        .iter()
                        .any(|&t| invalid[c.neighbors[t as usize] as usize])
                {
                    next[d as usize] = true;
                }
            }
        }
        invalid = next;
    }
    Ok(active)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hongtu_graph::GraphBuilder;

    /// 8-vertex ring 0→1→…→7→0, 4 chunks of 2 on 1 partition.
    fn ring_plan() -> TwoLevelPartition {
        let mut b = GraphBuilder::new(8);
        for v in 0..8 {
            b.add_edge(v, (v + 1) % 8);
        }
        TwoLevelPartition::build(&b.build(), 1, 4, 7)
    }

    #[test]
    fn duality_on_the_ring() {
        let plan = ring_plan();
        // Downward: the query cone of v grows along in-edges toward
        // layer 0; upward: the dirty cone of v grows along out-edges
        // toward layer L−1. On a directed ring these sweep opposite
        // directions from the same seed.
        let down = downward_closed(&plan, 3, &[4]).unwrap();
        let up = upward_closed(&plan, 3, &[4]).unwrap();
        for l in 0..2 {
            for j in 0..plan.n {
                assert!(!down[l + 1][j] || down[l][j], "downward closure broken");
                assert!(!up[l][j] || up[l + 1][j], "upward closure broken");
            }
        }
        // Both start from the seed's own batch at their narrow end.
        let batch_of = batch_of_vertices(&plan);
        let j4 = batch_of[4] as usize;
        assert!(down[2][j4]);
        assert!(up[0][j4]);
    }

    #[test]
    fn upward_growth_follows_out_edges() {
        let plan = ring_plan();
        let batch_of = batch_of_vertices(&plan);
        // Dirty {0}: layer 0 recomputes 0's batch; out-neighbor 1 is
        // invalid from layer 1 on.
        let up = upward_closed(&plan, 2, &[0]).unwrap();
        assert!(up[0][batch_of[0] as usize]);
        assert!(up[1][batch_of[1] as usize]);
        // Vertex 2 is two out-hops away — not reached in 2 layers
        // unless it shares a batch with {0, 1}.
        let j2 = batch_of[2] as usize;
        if j2 != batch_of[0] as usize && j2 != batch_of[1] as usize {
            assert!(!up[1][j2]);
        }
    }

    #[test]
    fn bad_seed_sets_are_typed_errors() {
        let plan = ring_plan();
        assert_eq!(
            upward_closed(&plan, 1, &[99]),
            Err(SimError::VertexOutOfRange {
                what: "dirty set",
                vertex: 99,
                num_vertices: 8
            })
        );
        assert_eq!(
            downward_closed(&plan, 1, &[]),
            Err(SimError::EmptyVertexSet { what: "query" })
        );
    }
}
