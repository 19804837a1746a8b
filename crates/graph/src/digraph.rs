//! Colored digraphs: the common structure behind canonical forms.
//!
//! Lemma 3.1 of the paper orders *bi-colored digraphs* (the surroundings
//! `S(u)` of Definition 3.1); Definition 2.2 needs *label-preserving*
//! automorphisms of port-labeled graphs; Definition 2.1 needs plain
//! color-preserving automorphisms. All three reduce to one object: a
//! directed graph with `u64` node colors and `u64` arc colors.
//!
//! * plain bi-colored graph  → node colors = black/white, every undirected
//!   edge becomes two arcs of color `0`;
//! * port-labeled graph      → arcs colored by the port label *at the tail*
//!   (a label-preserving automorphism must preserve `l_x(e)`, i.e. the
//!   tail-port of every arc);
//! * surrounding `S(u)`      → exactly the arcs of Definition 3.1.
//!
//! The canonicalization and automorphism machinery in [`crate::canon`] and
//! [`crate::automorphism`] operates on this type.

use std::collections::BTreeSet;

/// A directed arc with a color.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Arc {
    /// Tail node.
    pub from: u32,
    /// Head node.
    pub to: u32,
    /// Arc color (port label, direction marker, … — any `u64`).
    pub color: u64,
}

/// A node- and arc-colored directed multigraph.
///
/// Adjacency is stored flat (CSR): the arcs are sorted by tail, so the
/// out-arcs of `v` are the range `arcs[out_start[v]..out_start[v + 1]]`,
/// and `in_arcs[in_start[v]..in_start[v + 1]]` lists the indices of the
/// in-arcs of `v` in ascending order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColoredDigraph {
    n: usize,
    node_colors: Vec<u64>,
    arcs: Vec<Arc>,
    out_start: Vec<u32>,
    in_start: Vec<u32>,
    in_arcs: Vec<u32>,
}

impl ColoredDigraph {
    /// Build a digraph from node colors and arcs.
    ///
    /// Duplicate arcs are permitted (multi-digraph). Panics if an arc
    /// references a node out of range.
    pub fn new(node_colors: Vec<u64>, arcs: Vec<Arc>) -> Self {
        let n = node_colors.len();
        assert!(u32::try_from(arcs.len()).is_ok(), "too many arcs");
        let mut out_start = vec![0u32; n + 1];
        let mut in_start = vec![0u32; n + 1];
        for a in &arcs {
            assert!(
                (a.from as usize) < n && (a.to as usize) < n,
                "arc out of range"
            );
            out_start[a.from as usize + 1] += 1;
            in_start[a.to as usize + 1] += 1;
        }
        for v in 0..n {
            out_start[v + 1] += out_start[v];
            in_start[v + 1] += in_start[v];
        }
        // Sort by tail with one counting pass, then each tail's run by
        // (head, color): the same order as sorting the whole list.
        let arcs = if arcs.is_sorted() {
            arcs
        } else {
            let mut sorted = vec![arcs[0]; arcs.len()];
            let mut next = out_start.clone();
            for a in arcs {
                sorted[next[a.from as usize] as usize] = a;
                next[a.from as usize] += 1;
            }
            for v in 0..n {
                sorted[out_start[v] as usize..out_start[v + 1] as usize].sort_unstable();
            }
            sorted
        };
        let mut in_arcs = vec![0u32; arcs.len()];
        let mut next = in_start.clone();
        for (i, a) in arcs.iter().enumerate() {
            in_arcs[next[a.to as usize] as usize] = i as u32;
            next[a.to as usize] += 1;
        }
        ColoredDigraph {
            n,
            node_colors,
            arcs,
            out_start,
            in_start,
            in_arcs,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of arcs.
    #[inline]
    pub fn arc_count(&self) -> usize {
        self.arcs.len()
    }

    /// All arcs, sorted by `(from, to, color)`.
    #[inline]
    pub fn arcs(&self) -> &[Arc] {
        &self.arcs
    }

    /// The color of node `v`.
    #[inline]
    pub fn node_color(&self, v: usize) -> u64 {
        self.node_colors[v]
    }

    /// All node colors.
    #[inline]
    pub fn node_colors(&self) -> &[u64] {
        &self.node_colors
    }

    /// Outgoing arcs of `v`, sorted by `(to, color)`.
    pub fn out_arcs(&self, v: usize) -> impl Iterator<Item = &Arc> + '_ {
        self.arcs[self.out_start[v] as usize..self.out_start[v + 1] as usize].iter()
    }

    /// Incoming arcs of `v`, sorted by `(from, color)`.
    pub fn in_arcs(&self, v: usize) -> impl Iterator<Item = &Arc> + '_ {
        self.in_arcs[self.in_start[v] as usize..self.in_start[v + 1] as usize]
            .iter()
            .map(move |&i| &self.arcs[i as usize])
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: usize) -> usize {
        (self.in_start[v + 1] - self.in_start[v]) as usize
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: usize) -> usize {
        (self.out_start[v + 1] - self.out_start[v]) as usize
    }

    /// Check whether `perm` (as a mapping `v → perm[v]`) is an automorphism:
    /// it must preserve node colors and map the arc multiset onto itself.
    pub fn is_automorphism(&self, perm: &[usize]) -> bool {
        if perm.len() != self.n {
            return false;
        }
        // Bijectivity.
        let mut seen = vec![false; self.n];
        for &img in perm {
            if img >= self.n || seen[img] {
                return false;
            }
            seen[img] = true;
        }
        for (v, &pv) in perm.iter().enumerate() {
            if self.node_colors[v] != self.node_colors[pv] {
                return false;
            }
        }
        let mut mapped: Vec<Arc> = self
            .arcs
            .iter()
            .map(|a| Arc {
                from: perm[a.from as usize] as u32,
                to: perm[a.to as usize] as u32,
                color: a.color,
            })
            .collect();
        mapped.sort_unstable();
        mapped == self.arcs
    }

    /// Apply a relabeling: node `v` of the result is node `perm_inv[v]` of
    /// `self`; i.e. `perm[v]` is the new name of old node `v`.
    pub fn relabel(&self, perm: &[usize]) -> ColoredDigraph {
        let mut colors = vec![0u64; self.n];
        for v in 0..self.n {
            colors[perm[v]] = self.node_colors[v];
        }
        let arcs = self
            .arcs
            .iter()
            .map(|a| Arc {
                from: perm[a.from as usize] as u32,
                to: perm[a.to as usize] as u32,
                color: a.color,
            })
            .collect();
        ColoredDigraph::new(colors, arcs)
    }

    /// The distinct arc colors present.
    pub fn arc_color_set(&self) -> BTreeSet<u64> {
        self.arcs.iter().map(|a| a.color).collect()
    }

    /// Build the symmetric (two arcs per edge, color 0) digraph of a plain
    /// bi-colored graph — the structure whose automorphisms are exactly the
    /// color-preserving automorphisms of Definition 2.1.
    pub fn from_bicolored(bc: &crate::bicolored::Bicolored) -> ColoredDigraph {
        let g = bc.graph();
        let mut arcs = Vec::with_capacity(2 * g.m());
        for e in g.edges() {
            arcs.push(Arc {
                from: e.u as u32,
                to: e.v as u32,
                color: 0,
            });
            arcs.push(Arc {
                from: e.v as u32,
                to: e.u as u32,
                color: 0,
            });
        }
        ColoredDigraph::new(bc.node_colors(), arcs)
    }

    /// Build the *port-colored* digraph of a bi-colored graph: each
    /// undirected edge `{x, y}` becomes the arc `x → y` colored `l_x(e)`
    /// plus the arc `y → x` colored `l_y(e)`. Its automorphisms are exactly
    /// the label-preserving automorphisms of Definition 2.2.
    pub fn from_port_labeled(bc: &crate::bicolored::Bicolored) -> ColoredDigraph {
        let g = bc.graph();
        let mut arcs = Vec::with_capacity(2 * g.m());
        for e in g.edges() {
            arcs.push(Arc {
                from: e.u as u32,
                to: e.v as u32,
                color: u64::from(e.pu.0),
            });
            arcs.push(Arc {
                from: e.v as u32,
                to: e.u as u32,
                color: u64::from(e.pv.0),
            });
        }
        ColoredDigraph::new(bc.node_colors(), arcs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bicolored::Bicolored;
    use crate::graph::GraphBuilder;

    fn two_cycle() -> ColoredDigraph {
        ColoredDigraph::new(
            vec![0, 0],
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
            ],
        )
    }

    #[test]
    fn basic_degrees() {
        let d = two_cycle();
        assert_eq!(d.n(), 2);
        assert_eq!(d.out_degree(0), 1);
        assert_eq!(d.in_degree(0), 1);
    }

    #[test]
    fn swap_is_automorphism_of_symmetric_pair() {
        let d = two_cycle();
        assert!(d.is_automorphism(&[1, 0]));
        assert!(d.is_automorphism(&[0, 1]));
    }

    #[test]
    fn node_colors_break_automorphism() {
        let d = ColoredDigraph::new(
            vec![0, 1],
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
            ],
        );
        assert!(!d.is_automorphism(&[1, 0]));
        assert!(d.is_automorphism(&[0, 1]));
    }

    #[test]
    fn arc_colors_break_automorphism() {
        let d = ColoredDigraph::new(
            vec![0, 0],
            vec![
                Arc {
                    from: 0,
                    to: 1,
                    color: 5,
                },
                Arc {
                    from: 1,
                    to: 0,
                    color: 7,
                },
            ],
        );
        assert!(!d.is_automorphism(&[1, 0]));
    }

    #[test]
    fn relabel_then_check_iso() {
        let d = ColoredDigraph::new(
            vec![3, 4, 5],
            vec![
                Arc {
                    from: 0,
                    to: 1,
                    color: 1,
                },
                Arc {
                    from: 1,
                    to: 2,
                    color: 2,
                },
            ],
        );
        let r = d.relabel(&[2, 0, 1]);
        assert_eq!(r.node_color(2), 3);
        assert_eq!(r.node_color(0), 4);
        assert!(r.arcs().contains(&Arc {
            from: 2,
            to: 0,
            color: 1
        }));
    }

    #[test]
    fn from_port_labeled_encodes_tail_ports() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1).unwrap(); // ports 0/0
        let g = b.finish().unwrap();
        let bc = Bicolored::new(g, &[0]).unwrap();
        let d = ColoredDigraph::from_port_labeled(&bc);
        assert_eq!(d.arc_count(), 2);
        assert_eq!(d.node_color(0), 1);
        assert_eq!(d.node_color(1), 0);
    }
}
