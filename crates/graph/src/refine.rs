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
//! ### The flat kernel (DESIGN §13)
//!
//! [`refine_to_stable`] runs the *same synchronous rounds* as the
//! original loop (frozen in [`crate::oracle`]), on flat arrays that one
//! `Refiner` allocates once per digraph:
//!
//! * a cell is a range of one permutation array, labeled by its start
//!   position. Starts increase in cell order, so every comparison sees a
//!   monotone image of the compact class numbering and decides each
//!   split as the oracle does;
//! * a round recomputes signatures only for *dirty* nodes, packed as
//!   `u64` keys (direction, arc-color rank, cell start) into one buffer.
//!   When a cell splits, the neighbors of every subcell but the largest
//!   become dirty. A clean node has no arc into those subcells, so its
//!   signature changed exactly as each of its clean cellmates' did, and
//!   the clean members of a cell still share one signature;
//! * a cell splits by sorting only its dirty members and placing the
//!   clean block by one representative signature. The clean block stays
//!   in place, and keeps the parent's start label unless some dirty
//!   member sorts before it.
//!
//! The compact numbering is materialized once at exit, so the produced
//! [`Partition`] is *byte-identical* to the original loop's for every
//! input; `tests/differential_canon.rs` pins this against the oracle.
//! The IR search in [`crate::canon`] drives the same `Refiner`:
//! individualizing a vertex dirties only its neighbors.

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

/// The upper half of a packed neighbor entry: the direction bit over
/// the arc color's rank. A signature key keeps it and puts the other
/// end's cell start in the lower half, where the entry has the node.
const KEY_MASK: u64 = !0xffff_ffff;
/// Direction bit of an incoming arc: in-arcs sort after out-arcs, as in
/// the oracle's `(direction, color, class)` signature entries.
const INCOMING: u64 = 1 << 63;

/// A dirty member of the cell being split: the range of its signature
/// keys in the signature buffer, and the node.
type Keyed = (u32, u32, u32);

/// The signature keys of a dirty member.
fn keys<'a>(sigs: &'a [u64], member: &Keyed) -> &'a [u64] {
    &sigs[member.0 as usize..member.1 as usize]
}

/// One subcell of a round's split, applied once every split of the
/// round is decided (rounds are synchronous).
#[derive(Clone, Copy)]
struct Split {
    start: u32,
    len: u32,
    /// Its start is not the parent's, so its members change label.
    relabel: bool,
    /// Its members' neighbors become dirty: every subcell but the
    /// largest.
    mark: bool,
}

/// The cell arrays of a partition, saved and restored by the IR search
/// around each child.
#[derive(Default)]
pub(crate) struct Snapshot {
    lab: Vec<u32>,
    pos: Vec<u32>,
    cell: Vec<u32>,
    len: Vec<u32>,
}

/// Refinement state for one digraph: the current partition as cells
/// over a permutation array, plus every scratch buffer a round needs.
/// Nothing is allocated after construction except the buffers' growth.
pub(crate) struct Refiner<'d> {
    d: &'d ColoredDigraph,
    /// `nbr[nbr_start[v]..nbr_start[v + 1]]`: the out-arcs of `v` in the
    /// digraph's order, then its in-arcs, each packed as `direction |
    /// color rank << 32 | other end`.
    nbr_start: Vec<u32>,
    nbr: Vec<u64>,
    /// The arc color of each rank, when some color does not fit in 31
    /// bits; otherwise every color is its own rank.
    palette: Option<Vec<u64>>,
    /// The node at each position; every cell is a range of it.
    pub(crate) lab: Vec<u32>,
    /// The position of each node in `lab`.
    pos: Vec<u32>,
    /// Each node's cell label: its cell's start position.
    pub(crate) cell: Vec<u32>,
    /// `len[s]`: the size of the cell starting at `s` (stale elsewhere).
    pub(crate) len: Vec<u32>,
    /// Nodes whose signature may differ from their cellmates'.
    dirty: Vec<u32>,
    is_dirty: Vec<bool>,
    /// Per cell start: its dirty members, moved to the back of the cell.
    moved: Vec<u32>,
    touched: Vec<u32>,
    /// Signature keys of the dirty members of the cell being split.
    sigs: Vec<u64>,
    keyed: Vec<Keyed>,
    splits: Vec<Split>,
}

impl<'d> Refiner<'d> {
    /// Scratch for refining `d`; [`Refiner::init`] loads a partition.
    pub(crate) fn new(d: &'d ColoredDigraph) -> Self {
        let n = d.n();
        assert!(u32::try_from(n).is_ok(), "too many nodes");
        let palette = d.arcs().iter().any(|a| a.color >= 1 << 31).then(|| {
            let mut colors: Vec<u64> = d.arcs().iter().map(|a| a.color).collect();
            colors.sort_unstable();
            colors.dedup();
            assert!(colors.len() <= 1 << 31, "too many arc colors");
            colors
        });
        let rank = |color: u64| match &palette {
            None => color,
            Some(p) => p.binary_search(&color).expect("color in palette") as u64,
        };
        let mut nbr_start = Vec::with_capacity(n + 1);
        let mut nbr = Vec::with_capacity(2 * d.arc_count());
        nbr_start.push(0);
        for v in 0..n {
            for a in d.out_arcs(v) {
                nbr.push(rank(a.color) << 32 | u64::from(a.to));
            }
            for a in d.in_arcs(v) {
                nbr.push(INCOMING | rank(a.color) << 32 | u64::from(a.from));
            }
            nbr_start.push(nbr.len() as u32);
        }
        Refiner {
            d,
            nbr_start,
            nbr,
            palette,
            lab: vec![0; n],
            pos: vec![0; n],
            cell: vec![0; n],
            len: vec![0; n],
            dirty: Vec::with_capacity(n),
            is_dirty: vec![false; n],
            moved: vec![0; n],
            touched: Vec::new(),
            sigs: Vec::new(),
            keyed: Vec::new(),
            splits: Vec::new(),
        }
    }

    /// The digraph being refined.
    pub(crate) fn digraph(&self) -> &'d ColoredDigraph {
        self.d
    }

    /// Load the normalized partition `part`, with every node dirty.
    pub(crate) fn init(&mut self, part: &Partition) {
        let mut start = vec![0u32; part.k + 1];
        for &c in &part.class {
            start[c as usize + 1] += 1;
        }
        for c in 0..part.k {
            start[c + 1] += start[c];
            self.len[start[c] as usize] = start[c + 1] - start[c];
        }
        let mut next = start.clone();
        for (v, &c) in part.class.iter().enumerate() {
            let p = next[c as usize];
            next[c as usize] += 1;
            self.lab[p as usize] = v as u32;
            self.pos[v] = p;
            self.cell[v] = start[c as usize];
        }
        self.dirty.clear();
        self.dirty.extend(0..part.class.len() as u32);
        self.is_dirty.fill(true);
    }

    /// The current partition, numbered compactly in cell order.
    pub(crate) fn partition(&self) -> Partition {
        let n = self.d.n();
        let mut class = vec![0u32; n];
        let (mut k, mut s) = (0, 0);
        while s < n {
            let l = self.len[s] as usize;
            for &v in &self.lab[s..s + l] {
                class[v as usize] = k;
            }
            k += 1;
            s += l;
        }
        Partition {
            class,
            k: k as usize,
        }
    }

    /// The out-arcs of `v` as packed entries (color rank in the upper
    /// half, head in the lower), in the digraph's `(to, color)` order.
    pub(crate) fn out_entries(&self, v: usize) -> &[u64] {
        let lo = self.nbr_start[v] as usize;
        &self.nbr[lo..lo + self.d.out_degree(v)]
    }

    /// The arc color of a rank.
    pub(crate) fn color(&self, rank: u64) -> u64 {
        match &self.palette {
            None => rank,
            Some(p) => p[rank as usize],
        }
    }

    /// Copy the cell arrays into `to`.
    pub(crate) fn save(&self, to: &mut Snapshot) {
        for (dst, src) in [
            (&mut to.lab, &self.lab),
            (&mut to.pos, &self.pos),
            (&mut to.cell, &self.cell),
            (&mut to.len, &self.len),
        ] {
            dst.clear();
            dst.extend_from_slice(src);
        }
    }

    /// Return to the partition saved in `from` (no node is dirty
    /// between refinements, so the cell arrays are the whole state).
    pub(crate) fn restore(&mut self, from: &Snapshot) {
        self.lab.copy_from_slice(&from.lab);
        self.pos.copy_from_slice(&from.pos);
        self.cell.copy_from_slice(&from.cell);
        self.len.copy_from_slice(&from.len);
    }

    /// Split `v` off the front of its (non-singleton) cell, as the
    /// oracle's individualization orders it. Only `v`'s neighbors become
    /// dirty: the rest of the cell is the subcell left out.
    pub(crate) fn individualize(&mut self, v: usize) {
        let s = self.cell[v];
        let l = self.len[s as usize];
        debug_assert!(l > 1, "individualizing a singleton");
        self.place(v as u32, s);
        self.len[s as usize] = 1;
        self.len[s as usize + 1] = l - 1;
        for p in s + 1..s + l {
            self.cell[self.lab[p as usize] as usize] = s + 1;
        }
        self.mark_neighbors(v);
    }

    /// Run synchronous rounds until one splits nothing.
    pub(crate) fn refine(&mut self) {
        while !self.dirty.is_empty() {
            self.gather_dirty();
            for i in 0..self.touched.len() {
                self.split(self.touched[i]);
            }
            self.touched.clear();
            self.apply_splits();
        }
    }

    /// Swap `v` into position `p`.
    fn place(&mut self, v: u32, p: u32) {
        let q = self.pos[v as usize];
        let w = self.lab[p as usize];
        self.lab[p as usize] = v;
        self.pos[v as usize] = p;
        self.lab[q as usize] = w;
        self.pos[w as usize] = q;
    }

    fn mark_neighbors(&mut self, v: usize) {
        let (lo, hi) = (self.nbr_start[v], self.nbr_start[v + 1]);
        for &e in &self.nbr[lo as usize..hi as usize] {
            let u = e as u32 as usize;
            if !self.is_dirty[u] {
                self.is_dirty[u] = true;
                self.dirty.push(u as u32);
            }
        }
    }

    /// Move each dirty node of a non-singleton cell to the back of its
    /// cell, and list the cells that hold one.
    fn gather_dirty(&mut self) {
        for i in 0..self.dirty.len() {
            let v = self.dirty[i];
            self.is_dirty[v as usize] = false;
            let s = self.cell[v as usize];
            let l = self.len[s as usize];
            if l == 1 {
                continue;
            }
            let m = self.moved[s as usize];
            if m == 0 {
                self.touched.push(s);
            }
            self.moved[s as usize] = m + 1;
            self.place(v, s + l - 1 - m);
        }
        self.dirty.clear();
    }

    /// Write the signature keys of `v` to `sigs`, sorted; returns their
    /// range.
    fn signature(&mut self, v: u32) -> (u32, u32) {
        let a = self.sigs.len();
        let (lo, hi) = (self.nbr_start[v as usize], self.nbr_start[v as usize + 1]);
        for &e in &self.nbr[lo as usize..hi as usize] {
            self.sigs
                .push(e & KEY_MASK | u64::from(self.cell[e as u32 as usize]));
        }
        self.sigs[a..].sort_unstable();
        (a as u32, self.sigs.len() as u32)
    }

    /// Decide how the cell starting at `s` splits under the round's
    /// frozen labels, lay it out in signature order, and queue its
    /// subcells.
    fn split(&mut self, s: u32) {
        let l = self.len[s as usize];
        let k = self.moved[s as usize];
        self.moved[s as usize] = 0;
        let c = l - k;
        self.sigs.clear();
        self.keyed.clear();
        for p in s + c..s + l {
            let v = self.lab[p as usize];
            let (a, b) = self.signature(v);
            self.keyed.push((a, b, v));
        }
        self.keyed
            .sort_unstable_by(|x, y| keys(&self.sigs, x).cmp(keys(&self.sigs, y)));
        // The clean members share one signature: their block goes after
        // the `lt` dirty members below it, merged with the `eq` equal to
        // it.
        let (lt, eq) = if c == 0 {
            (0, 0)
        } else {
            let (a, b) = self.signature(self.lab[s as usize]);
            let rep = &self.sigs[a as usize..b as usize];
            let lt = self.keyed.partition_point(|x| keys(&self.sigs, x) < rep);
            let eq = self.keyed[lt..].partition_point(|x| keys(&self.sigs, x) == rep);
            (lt as u32, eq as u32)
        };
        let uniform = if c == 0 {
            keys(&self.sigs, &self.keyed[0]) == keys(&self.sigs, &self.keyed[k as usize - 1])
        } else {
            lt == 0 && eq == k
        };
        if uniform {
            return;
        }
        // Lay the cell out in order: `lt` dirty members, the clean
        // block, the other dirty members. Clean members move only from
        // the front positions the dirty ones take.
        let (lo, hi) = (lt.min(c), lt.max(c));
        for i in 0..lo {
            self.place(self.lab[(s + i) as usize], s + hi + i);
        }
        for i in 0..k {
            let v = self.keyed[i as usize].2;
            let p = if i < lt { s + i } else { s + c + i };
            self.place(v, p);
        }
        let first = self.splits.len();
        let mut t = s;
        self.queue_runs(0, lt, &mut t);
        if c > 0 {
            self.splits.push(Split {
                start: t,
                len: c + eq,
                relabel: false,
                mark: false,
            });
            t += c + eq;
        }
        self.queue_runs(lt + eq, k, &mut t);
        let subcells = &mut self.splits[first..];
        let mut largest = 0;
        for (i, sub) in subcells.iter().enumerate() {
            if sub.len > subcells[largest].len {
                largest = i;
            }
        }
        for (i, sub) in subcells.iter_mut().enumerate() {
            sub.relabel = sub.start != s;
            sub.mark = i != largest;
            self.len[sub.start as usize] = sub.len;
        }
    }

    /// Queue one subcell per run of equal signatures in `keyed[i..j]`,
    /// which sits at position `t` onwards.
    fn queue_runs(&mut self, mut i: u32, j: u32, t: &mut u32) {
        while i < j {
            let run = keys(&self.sigs, &self.keyed[i as usize]);
            let mut e = i + 1;
            while e < j && keys(&self.sigs, &self.keyed[e as usize]) == run {
                e += 1;
            }
            self.splits.push(Split {
                start: *t,
                len: e - i,
                relabel: false,
                mark: false,
            });
            *t += e - i;
            i = e;
        }
    }

    /// Relabel the queued subcells and dirty the neighbors of all but
    /// each split's largest.
    fn apply_splits(&mut self) {
        for i in 0..self.splits.len() {
            let sub = self.splits[i];
            if !sub.relabel && !sub.mark {
                // The largest subcell, at the parent's start: unchanged.
                continue;
            }
            for p in sub.start..sub.start + sub.len {
                let v = self.lab[p as usize] as usize;
                if sub.relabel {
                    self.cell[v] = sub.start;
                }
                if sub.mark {
                    self.mark_neighbors(v);
                }
            }
        }
        self.splits.clear();
    }
}

/// Refine to the coarsest equitable partition refining `initial`.
///
/// If `initial` is `None`, starts from the partition induced by node
/// colors. `initial` must be a normalized partition (as produced by
/// [`Partition::from_keys`]). Byte-identical to the frozen
/// [`crate::oracle::refine_to_stable`] loop on every input; each round
/// after the first costs only its dirty nodes (module docs).
pub fn refine_to_stable(d: &ColoredDigraph, initial: Option<Partition>) -> Partition {
    let part = initial.unwrap_or_else(|| Partition::from_keys(d.node_colors()));
    let mut r = Refiner::new(d);
    r.init(&part);
    r.refine();
    r.partition()
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

    /// Individualizing inside a stable partition dirties only the
    /// vertex's neighbors; the result must still be the oracle's.
    #[test]
    fn worklist_matches_oracle_from_individualized_partitions() {
        let mut colors = vec![0u64; 12];
        colors[0] = 1;
        for d in [cycle(8, vec![0; 8]), cycle(12, colors), path3()] {
            let n = d.n();
            let mut r = Refiner::new(&d);
            r.init(&Partition::from_keys(d.node_colors()));
            r.refine();
            let stable = r.partition();
            assert_eq!(stable, oracle::refine_to_stable(&d, None));
            for v in 0..n {
                if stable.sizes()[stable.class[v] as usize] == 1 {
                    continue;
                }
                let keys: Vec<(u32, u8)> = stable
                    .class
                    .iter()
                    .enumerate()
                    .map(|(w, &c)| (c, u8::from(w != v)))
                    .collect();
                let slow = oracle::refine_to_stable(&d, Some(Partition::from_keys(&keys)));
                let mut r = Refiner::new(&d);
                r.init(&stable);
                r.refine();
                r.individualize(v);
                r.refine();
                assert_eq!(r.partition(), slow, "n={n}: individualized at {v}");
            }
        }
    }

    /// Arc colors that do not fit in 31 bits are ranked through a
    /// palette; the ranks must order exactly as the colors do.
    #[test]
    fn wide_arc_colors_refine_like_the_oracle() {
        let mut x = 7u64;
        for n in [5usize, 9, 16] {
            let mut arcs = Vec::new();
            for _ in 0..3 * n {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                arcs.push(Arc {
                    from: ((x >> 33) % n as u64) as u32,
                    to: ((x >> 13) % n as u64) as u32,
                    color: [0, 1 << 31, u64::MAX, 5 << 40][(x >> 60) as usize % 4],
                });
            }
            let d = ColoredDigraph::new(vec![0; n], arcs);
            assert_eq!(
                refine_to_stable(&d, None),
                oracle::refine_to_stable(&d, None),
                "n={n}"
            );
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
