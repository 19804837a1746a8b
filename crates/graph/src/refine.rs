//! Equitable-partition refinement (1-dimensional Weisfeiler–Leman).
//!
//! The same refinement loop underlies three pieces of the paper's theory:
//!
//! * view equivalence (`~view`, Section 2) — refine with port-pair arc
//!   colors until stable; the stable classes are exactly the classes of
//!   equal view (Norris: depth `n − 1` suffices, and refinement stabilizes
//!   at least that fast);
//! * automorphism search and canonical labeling — refinement is the
//!   workhorse that shrinks the individualization-refinement search tree;
//! * surroundings — pre-partitioning nodes before exact canonicalization.
//!
//! Classes are renumbered each round by *sorting signatures*, which keeps
//! the partition isomorphism-invariant: two nodes of isomorphic digraphs
//! receive the same class index sequence.
//!
//! ### The worklist kernel (DESIGN §13)
//!
//! [`refine_to_stable`] no longer re-sorts every node's signature every
//! round. It runs the *same synchronous rounds* as the original loop
//! (frozen in [`crate::oracle`]) but only recomputes signatures inside
//! cells *touched* by the previous round — cells containing a node with
//! an in- or out-neighbor in a cell that just split. Untouched cells
//! provably cannot split: their members' signatures reference only
//! classes whose numbering changed by a strictly monotone map, and
//! signature comparisons are invariant under entrywise monotone
//! renumbering. The produced [`Partition`] is therefore *byte-identical*
//! to the original loop's for every input — the differential suite
//! (`tests/differential_canon.rs`) pins this against the frozen oracle.
//!
//! [`refine_individualized`] is the individualization-refinement fast
//! path on the same engine: when the starting partition is a stable
//! partition with one vertex split off, only cells adjacent to that
//! vertex's old cell can split in round one, so the first round is
//! seeded with that light cone instead of every cell.

use crate::digraph::ColoredDigraph;
use std::collections::BTreeMap;

/// A partition of the nodes into classes `0..k`, isomorphism-invariantly
/// numbered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// `class[v]` = class index of node `v`.
    pub class: Vec<u32>,
    /// Number of classes.
    pub k: usize,
}

impl Partition {
    /// Build the normalized partition induced by arbitrary per-node keys.
    pub fn from_keys<K: Ord>(keys: &[K]) -> Partition {
        let mut sorted: Vec<&K> = keys.iter().collect();
        sorted.sort();
        sorted.dedup_by(|a, b| a == b);
        let index: BTreeMap<&K, u32> = sorted
            .into_iter()
            .enumerate()
            .map(|(i, k)| (k, i as u32))
            .collect();
        let class: Vec<u32> = keys.iter().map(|k| index[k]).collect();
        let k = index.len();
        Partition { class, k }
    }

    /// The classes as sorted vectors of node ids, ordered by class index.
    pub fn cells(&self) -> Vec<Vec<usize>> {
        let mut cells = vec![Vec::new(); self.k];
        for (v, &c) in self.class.iter().enumerate() {
            cells[c as usize].push(v);
        }
        cells
    }

    /// Whether all classes are singletons.
    pub fn is_discrete(&self) -> bool {
        self.k == self.class.len()
    }

    /// Sizes of the classes, indexed by class.
    pub fn sizes(&self) -> Vec<usize> {
        let mut s = vec![0usize; self.k];
        for &c in &self.class {
            s[c as usize] += 1;
        }
        s
    }
}

/// One signature entry: `(direction, arc color, class of the other end)`.
/// Direction 0 = outgoing, 1 = incoming, so the multiset distinguishes
/// in-neighborhoods from out-neighborhoods.
type SigEntry = (u8, u64, u32);

fn signature(d: &ColoredDigraph, class: &[u32], v: usize) -> Vec<SigEntry> {
    let mut sig: Vec<SigEntry> = Vec::with_capacity(d.out_degree(v) + d.in_degree(v));
    for a in d.out_arcs(v) {
        sig.push((0, a.color, class[a.to as usize]));
    }
    for a in d.in_arcs(v) {
        sig.push((1, a.color, class[a.from as usize]));
    }
    sig.sort_unstable();
    sig
}

/// Perform one refinement round. Returns the refined partition and whether
/// it changed.
pub fn refine_once(d: &ColoredDigraph, part: &Partition) -> (Partition, bool) {
    let keys: Vec<(u32, Vec<SigEntry>)> = (0..d.n())
        .map(|v| (part.class[v], signature(d, &part.class, v)))
        .collect();
    let next = Partition::from_keys(&keys);
    let changed = next.k != part.k;
    (next, changed)
}

/// Split one cell by member signatures under the *current* class vector.
/// Returns the ordered subcells (signature-ascending; each subcell keeps
/// its members sorted) — exactly the per-cell grouping the original
/// `(old class, signature)` sort produced, because the old class is the
/// sort's primary key and this cell is one old class.
fn split_cell(d: &ColoredDigraph, class: &[u32], cell: &[usize]) -> Vec<Vec<usize>> {
    let mut keyed: Vec<(Vec<SigEntry>, usize)> =
        cell.iter().map(|&v| (signature(d, class, v), v)).collect();
    keyed.sort();
    let mut out: Vec<Vec<usize>> = Vec::new();
    let mut i = 0;
    while i < keyed.len() {
        let mut j = i + 1;
        while j < keyed.len() && keyed[j].0 == keyed[i].0 {
            j += 1;
        }
        out.push(keyed[i..j].iter().map(|&(_, v)| v).collect());
        i = j;
    }
    out
}

/// [`split_cell`], recomputing signatures only for `dirty` members.
///
/// Sound only under the worklist invariant (DESIGN §13): every clean
/// member's signature is the entrywise monotone image of last round's,
/// and a surviving cell's members all compared equal last round — so the
/// clean members share *one* signature this round, and one representative
/// computation places the whole clean block among the recomputed dirty
/// members. Byte-identical to [`split_cell`] whenever that invariant
/// holds; callers that cannot establish it must mark every member dirty.
fn split_cell_partial(
    d: &ColoredDigraph,
    class: &[u32],
    cell: &[usize],
    dirty: &[bool],
) -> Vec<Vec<usize>> {
    let clean: Vec<usize> = cell.iter().copied().filter(|&v| !dirty[v]).collect();
    if clean.len() < 2 {
        // Nothing saved by the representative trick — fall back.
        return split_cell(d, class, cell);
    }
    let mut keyed: Vec<(Vec<SigEntry>, usize)> = cell
        .iter()
        .copied()
        .filter(|&v| dirty[v])
        .map(|v| (signature(d, class, v), v))
        .collect();
    keyed.sort();
    // Group the dirty members into signature runs (ascending, members
    // node-sorted within a run — `keyed` ties break by node id).
    let mut runs: Vec<(Vec<SigEntry>, Vec<usize>)> = Vec::new();
    for (sig, v) in keyed {
        match runs.last_mut() {
            Some((s, vs)) if *s == sig => vs.push(v),
            _ => runs.push((sig, vec![v])),
        }
    }
    // Place the clean block (one shared signature) at its sorted slot,
    // merging by node id if a dirty run has the same signature.
    let rep = signature(d, class, clean[0]);
    let pos = runs.partition_point(|(s, _)| *s < rep);
    if pos < runs.len() && runs[pos].0 == rep {
        let mut merged = Vec::with_capacity(runs[pos].1.len() + clean.len());
        let (mut i, mut j) = (0, 0);
        while i < runs[pos].1.len() && j < clean.len() {
            if runs[pos].1[i] < clean[j] {
                merged.push(runs[pos].1[i]);
                i += 1;
            } else {
                merged.push(clean[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&runs[pos].1[i..]);
        merged.extend_from_slice(&clean[j..]);
        runs[pos].1 = merged;
    } else {
        runs.insert(pos, (rep, clean));
    }
    runs.into_iter().map(|(_, vs)| vs).collect()
}

/// The worklist engine shared by every stable-refinement entry point:
/// runs synchronous rounds, recomputing signatures only for `dirty`
/// nodes (one representative stands in for each cell's clean block, see
/// [`split_cell_partial`]), until a round produces no split. Round one
/// must mark every node whose signature is not known-equal to its
/// cellmates' dirty; all nodes is always safe.
///
/// Internally each cell is labeled by its *start index* in class order
/// rather than its compact class number: starts are strictly increasing
/// in cell order, so every signature comparison sees an entrywise
/// monotone relabeling of the compact numbering and decides splits
/// identically, while a split only ever rewrites the split cell's own
/// range — unsplit cells are never copied, cloned, or renumbered. The
/// compact numbering is materialized once at exit, keeping the result
/// byte-identical to iterating [`refine_once`] (see module docs).
fn refine_worklist(
    d: &ColoredDigraph,
    init_cells: Vec<Vec<usize>>,
    mut dirty_nodes: Vec<usize>,
) -> Partition {
    let n = d.n();
    if n == 0 {
        return Partition {
            class: Vec::new(),
            k: 0,
        };
    }
    // `members[s]` = the cell starting at position `s` (empty slot
    // otherwise); `class[v]` = start of `v`'s cell. Members ascending.
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut class: Vec<u32> = vec![0; n];
    {
        let mut s = 0usize;
        for cell in init_cells {
            for &v in &cell {
                class[v] = s as u32;
            }
            let len = cell.len();
            members[s] = cell;
            s += len;
        }
    }
    let mut dirty = vec![false; n];
    let mut touched_mark = vec![false; n];
    loop {
        for &v in &dirty_nodes {
            dirty[v] = true;
        }
        let mut touched: Vec<usize> = Vec::new();
        for &v in &dirty_nodes {
            let s = class[v] as usize;
            if !touched_mark[s] {
                touched_mark[s] = true;
                touched.push(s);
            }
        }
        touched.sort_unstable();
        // Decide every split under the frozen pre-round labels first;
        // rounds are synchronous.
        let mut pending: Vec<(usize, Vec<Vec<usize>>)> = Vec::new();
        for &s in &touched {
            if members[s].len() == 1 {
                continue;
            }
            let subcells = split_cell_partial(d, &class, &members[s], &dirty);
            if subcells.len() > 1 {
                pending.push((s, subcells));
            }
        }
        for &v in &dirty_nodes {
            dirty[v] = false;
        }
        for &s in &touched {
            touched_mark[s] = false;
        }
        if pending.is_empty() {
            break;
        }
        // Apply the splits and seed the next round. The first subcell
        // keeps the parent's start label, so its members' labels — and
        // every signature entry referencing them — are *literally
        // unchanged*; only members of later subcells change label, and
        // only their neighbors can see a changed signature next round
        // (self-loops mark their own node).
        dirty_nodes.clear();
        for (s, subcells) in pending {
            members[s].clear();
            let mut off = s;
            for sub in subcells {
                if off != s {
                    for &w in &sub {
                        for a in d.out_arcs(w) {
                            dirty_nodes.push(a.to as usize);
                        }
                        for a in d.in_arcs(w) {
                            dirty_nodes.push(a.from as usize);
                        }
                    }
                }
                for &v in &sub {
                    class[v] = off as u32;
                }
                let len = sub.len();
                members[off] = sub;
                off += len;
            }
        }
        dirty_nodes.sort_unstable();
        dirty_nodes.dedup();
    }
    // Materialize the exact compact numbering from cell order.
    let mut out = vec![0u32; n];
    let mut k = 0u32;
    for cell in members.iter().filter(|c| !c.is_empty()) {
        for &v in cell {
            out[v] = k;
        }
        k += 1;
    }
    Partition {
        class: out,
        k: k as usize,
    }
}

/// Refine to the coarsest equitable partition refining `initial`.
///
/// If `initial` is `None`, starts from the partition induced by node
/// colors. `initial` must be a normalized partition (as produced by
/// [`Partition::from_keys`]). Byte-identical to the frozen
/// [`crate::oracle::refine_to_stable`] loop on every input, but each
/// round after the first costs only the light cone of the previous
/// round's splits instead of a full `n`-signature sort.
pub fn refine_to_stable(d: &ColoredDigraph, initial: Option<Partition>) -> Partition {
    let part = initial.unwrap_or_else(|| Partition::from_keys(d.node_colors()));
    let cells = part.cells();
    refine_worklist(d, cells, (0..d.n()).collect())
}

/// Individualize `v` inside the *stable* partition `stable` and refine
/// back to stability — the inner step of the IR search.
///
/// Byte-identical to `refine_to_stable(d, Some(individualize(stable,
/// v)))`, but round one is seeded with only the cells adjacent to `v`'s
/// old cell: since `stable` is equitable, every other cell's signatures
/// are untouched by the split (monotone-renumbering argument, DESIGN
/// §13) and cannot separate.
pub fn refine_individualized(d: &ColoredDigraph, stable: &Partition, v: usize) -> Partition {
    let cv = stable.class[v] as usize;
    let old_cells = stable.cells();
    if old_cells[cv].len() == 1 {
        return stable.clone();
    }
    let mut cells: Vec<Vec<usize>> = Vec::with_capacity(stable.k + 1);
    for (ci, cell) in old_cells.iter().enumerate() {
        if ci == cv {
            cells.push(vec![v]);
            cells.push(cell.iter().copied().filter(|&w| w != v).collect());
        } else {
            cells.push(cell.clone());
        }
    }
    // Only a neighbor of the split cell sees a non-monotone renumbering;
    // every other node keeps its (cell-wide equal) stable signature, so
    // the clean-representative invariant holds from round one.
    let mut dirty_nodes = Vec::new();
    for &w in &old_cells[cv] {
        for a in d.out_arcs(w) {
            dirty_nodes.push(a.to as usize);
        }
        for a in d.in_arcs(w) {
            dirty_nodes.push(a.from as usize);
        }
    }
    refine_worklist(d, cells, dirty_nodes)
}

/// Refine for exactly `rounds` rounds (used to expose the per-depth view
/// classes of the Fig. 2 demonstrations).
pub fn refine_rounds(d: &ColoredDigraph, rounds: usize) -> Vec<Partition> {
    let mut part = Partition::from_keys(d.node_colors());
    let mut history = vec![part.clone()];
    for _ in 0..rounds {
        let (next, _) = refine_once(d, &part);
        part = next;
        history.push(part.clone());
    }
    history
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::Arc;
    use crate::oracle;

    /// Path 0-1-2 with uniform arc colors: ends vs middle split.
    fn path3() -> ColoredDigraph {
        ColoredDigraph::new(
            vec![0, 0, 0],
            vec![
                Arc {
                    from: 0,
                    to: 1,
                    color: 0,
                },
                Arc {
                    from: 1,
                    to: 0,
                    color: 0,
                },
                Arc {
                    from: 1,
                    to: 2,
                    color: 0,
                },
                Arc {
                    from: 2,
                    to: 1,
                    color: 0,
                },
            ],
        )
    }

    fn cycle(n: usize, colors: Vec<u64>) -> ColoredDigraph {
        let mut arcs = Vec::new();
        for v in 0..n {
            let w = (v + 1) % n;
            arcs.push(Arc {
                from: v as u32,
                to: w as u32,
                color: 0,
            });
            arcs.push(Arc {
                from: w as u32,
                to: v as u32,
                color: 0,
            });
        }
        ColoredDigraph::new(colors, arcs)
    }

    #[test]
    fn path_splits_by_degree() {
        let p = refine_to_stable(&path3(), None);
        assert_eq!(p.k, 2);
        assert_eq!(p.class[0], p.class[2]);
        assert_ne!(p.class[0], p.class[1]);
    }

    #[test]
    fn cycle_stays_uniform() {
        let p = refine_to_stable(&cycle(6, vec![0; 6]), None);
        assert_eq!(p.k, 1);
    }

    #[test]
    fn node_colors_seed_partition() {
        // Mark node 0 black: the 4-cycle splits by distance from node 0.
        let p = refine_to_stable(&cycle(4, vec![1, 0, 0, 0]), None);
        assert_eq!(p.k, 3); // {0}, {1, 3}, {2}
        assert_eq!(p.class[1], p.class[3]);
    }

    #[test]
    fn arc_colors_refine() {
        // Directed 3-cycle with one distinguished arc color.
        let d = ColoredDigraph::new(
            vec![0, 0, 0],
            vec![
                Arc {
                    from: 0,
                    to: 1,
                    color: 9,
                },
                Arc {
                    from: 1,
                    to: 2,
                    color: 0,
                },
                Arc {
                    from: 2,
                    to: 0,
                    color: 0,
                },
            ],
        );
        let p = refine_to_stable(&d, None);
        assert_eq!(p.k, 3);
    }

    #[test]
    fn discrete_partition_detected() {
        let d = path3();
        let p = Partition::from_keys(&[0u32, 1, 2]);
        assert!(p.is_discrete());
        let (next, changed) = refine_once(&d, &p);
        assert!(!changed);
        assert_eq!(next.k, 3);
    }

    #[test]
    fn history_monotonically_refines() {
        let hist = refine_rounds(&path3(), 3);
        for w in hist.windows(2) {
            assert!(w[1].k >= w[0].k);
        }
    }

    #[test]
    fn sizes_sum_to_n() {
        let p = refine_to_stable(&path3(), None);
        assert_eq!(p.sizes().iter().sum::<usize>(), 3);
    }

    #[test]
    fn worklist_matches_oracle_on_marked_cycles() {
        for n in 2..20 {
            for marked in 0..n.min(3) {
                let mut colors = vec![0u64; n];
                for c in colors.iter_mut().take(marked) {
                    *c = 1;
                }
                let d = cycle(n, colors);
                assert_eq!(
                    refine_to_stable(&d, None),
                    oracle::refine_to_stable(&d, None),
                    "n={n} marked={marked}"
                );
            }
        }
    }

    #[test]
    fn worklist_matches_oracle_from_individualized_partitions() {
        let d = cycle(8, vec![0; 8]);
        let stable = refine_to_stable(&d, None);
        for v in 0..8 {
            let keys: Vec<(u32, u8)> = stable
                .class
                .iter()
                .enumerate()
                .map(|(w, &c)| (c, u8::from(w != v)))
                .collect();
            let ind = Partition::from_keys(&keys);
            let fast = refine_individualized(&d, &stable, v);
            let slow = oracle::refine_to_stable(&d, Some(ind));
            assert_eq!(fast, slow, "individualized at {v}");
        }
    }

    #[test]
    fn empty_graph_refines_to_empty_partition() {
        let d = ColoredDigraph::new(vec![], vec![]);
        let p = refine_to_stable(&d, None);
        assert_eq!(p.k, 0);
        assert!(p.class.is_empty());
    }
}
