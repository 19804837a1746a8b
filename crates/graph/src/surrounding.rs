//! Surroundings (Definition 3.1) and the ordered equivalence classes.
//!
//! The surrounding of a node `u` in a bi-colored network `G` is the digraph
//! `S(u)` on the same node set, same node coloring, with an arc `(x, y)`
//! whenever `{x, y} ∈ E` and `d(u, x) ≤ d(u, y)`. The node `u` is the
//! unique node of in-degree 0 in `S(u)`, and two nodes are equivalent
//! (Definition 2.1) iff their surroundings are isomorphic — the key fact in
//! the proof of Lemma 3.1. Equivalent nodes are exactly the orbits of
//! `Aut(G, p)`, which one canonicalization of `(G, p)` already returns.
//!
//! Protocol ELECT's `COMPUTE & ORDER` step is [`ordered_classes`]: agents
//! run it locally on their maps after MAP-DRAWING. [`classes_from_canon`]
//! reads the classes off a [`CanonResult`] and orders them by keys that
//! are invariant under isomorphism (color, size, smallest canonical
//! position), so all agents agree on which node belongs to which class and
//! on the class order, despite having drawn their maps independently.
//! The Lemma 3.1 Remark asks for no more: any deterministic,
//! labeling-independent total order serves.

use crate::bicolored::Bicolored;
use crate::canon::{canonicalize, CanonResult};
use crate::digraph::{Arc, ColoredDigraph};
use crate::graph::NodeId;

/// Build the surrounding digraph `S(u)` of Definition 3.1.
pub fn surrounding(bc: &Bicolored, u: NodeId) -> ColoredDigraph {
    let g = bc.graph();
    let dist = g.distances_from(u);
    let mut arcs = Vec::with_capacity(2 * g.m());
    for e in g.edges() {
        let (x, y) = (e.u, e.v);
        if dist[x] <= dist[y] {
            arcs.push(Arc {
                from: x as u32,
                to: y as u32,
                color: 0,
            });
        }
        if dist[y] <= dist[x] {
            arcs.push(Arc {
                from: y as u32,
                to: x as u32,
                color: 0,
            });
        }
    }
    ColoredDigraph::new(bc.node_colors(), arcs)
}

/// One equivalence class of `(G, p)` and whether its nodes are
/// home-bases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivClass {
    /// The nodes of the class, sorted.
    pub nodes: Vec<NodeId>,
    /// `true` iff the class consists of home-bases (black nodes).
    pub black: bool,
}

impl EquivClass {
    /// Class size.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the class is empty (never true for produced classes).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// The ordered classes of `(G, p)`: agent (black) classes
/// `C_1 ≺ … ≺ C_ℓ` first, then node (white) classes
/// `C_{ℓ+1} ≺ … ≺ C_k`, exactly the arrangement Protocol ELECT consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderedClasses {
    /// All classes; the first [`OrderedClasses::ell`] are black.
    pub classes: Vec<EquivClass>,
    /// Number of black (agent) classes `ℓ`.
    pub ell: usize,
}

impl OrderedClasses {
    /// Total number of classes `k`.
    pub fn k(&self) -> usize {
        self.classes.len()
    }

    /// `gcd(|C_1|, …, |C_k|)` — 1 iff ELECT succeeds (Theorem 3.1).
    pub fn gcd_of_sizes(&self) -> usize {
        self.classes.iter().map(|c| c.len()).fold(0usize, gcd)
    }

    /// The class index of a node.
    pub fn class_of(&self, v: NodeId) -> usize {
        self.classes
            .iter()
            .position(|c| c.nodes.binary_search(&v).is_ok())
            .expect("every node belongs to a class")
    }
}

/// Greatest common divisor.
pub fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// COMPUTE & ORDER from one canonicalization of `(G, p)`: `canon` must be
/// the canonicalization of `ColoredDigraph::from_bicolored(bc)`.
///
/// The classes are its orbits. They are ordered black first, then by
/// size, then by the smallest canonical position `labeling[v]` in the
/// class. All three keys are isomorphism-invariant: if `φ` maps `(G, p)`
/// onto `(G', p')`, the canonical labelings satisfy `λ'∘φ = λ∘α` for some
/// automorphism `α` of `(G, p)`, and `α` maps every orbit onto itself, so
/// an orbit and its image occupy the same set of canonical positions.
/// Distinct orbits occupy disjoint sets, so the order is total.
///
/// Size comes before position so that a singleton black class, when one
/// exists, is `C_1` and ELECT's schedule needs no reduction phase.
pub fn classes_from_canon(bc: &Bicolored, canon: &CanonResult) -> OrderedClasses {
    debug_assert_eq!(canon.orbits.len(), bc.n(), "canon is of another instance");
    let mut orbits: Vec<Vec<NodeId>> = vec![Vec::new(); canon.orbit_count];
    for (v, &o) in canon.orbits.iter().enumerate() {
        orbits[o as usize].push(v);
    }
    let mut keyed: Vec<((bool, usize, usize), EquivClass)> = orbits
        .into_iter()
        .map(|nodes| {
            let black = bc.is_black(nodes[0]);
            let first = nodes.iter().map(|&v| canon.labeling[v]).min();
            let key = (!black, nodes.len(), first.expect("orbits are non-empty"));
            (key, EquivClass { nodes, black })
        })
        .collect();
    keyed.sort_unstable_by_key(|(key, _)| *key);
    let classes: Vec<EquivClass> = keyed.into_iter().map(|(_, c)| c).collect();
    let ell = classes.iter().filter(|c| c.black).count();
    OrderedClasses { classes, ell }
}

/// The ordered classes of `(G, p)` from one eager canonicalization (the
/// memoized equivalent is `cache::ordered_classes_cached`).
pub fn ordered_classes(bc: &Bicolored) -> OrderedClasses {
    classes_from_canon(bc, &canonicalize(&ColoredDigraph::from_bicolored(bc)))
}

/// Equivalence classes as plain node sets (no ordering metadata).
pub fn equivalence_classes(bc: &Bicolored) -> Vec<Vec<NodeId>> {
    ordered_classes(bc)
        .classes
        .into_iter()
        .map(|c| c.nodes)
        .collect()
}

/// The Definition 3.1 partition, computed the long way: group the nodes
/// by the canonical form of their surroundings. Test-only fidelity check
/// for [`classes_from_canon`]; sorted by smallest node.
#[cfg(test)]
pub(crate) fn surrounding_form_partition(bc: &Bicolored) -> Vec<Vec<NodeId>> {
    let mut by_form: Vec<(crate::canon::CanonicalForm, Vec<NodeId>)> = Vec::new();
    for u in 0..bc.n() {
        let form = canonicalize(&surrounding(bc, u)).form;
        match by_form.iter_mut().find(|(f, _)| *f == form) {
            Some((_, nodes)) => nodes.push(u),
            None => by_form.push((form, vec![u])),
        }
    }
    by_form.into_iter().map(|(_, nodes)| nodes).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automorphism::node_equivalence;
    use crate::canon::{brute_force_automorphisms, Dsu};
    use crate::families;
    use proptest::prelude::*;

    /// The classes as a partition sorted by smallest node.
    fn partition(oc: &OrderedClasses) -> Vec<Vec<NodeId>> {
        let mut p: Vec<Vec<NodeId>> = oc.classes.iter().map(|c| c.nodes.clone()).collect();
        p.sort();
        p
    }

    fn classes_agree_with_orbits(bc: &Bicolored) {
        let oc = ordered_classes(bc);
        let orbits = node_equivalence(bc);
        // Same partition: each class is exactly one orbit.
        assert_eq!(oc.k(), orbits.k, "class count mismatch");
        for c in &oc.classes {
            let orbit = orbits.class[c.nodes[0]];
            for &v in &c.nodes {
                assert_eq!(orbits.class[v], orbit);
            }
        }
        assert_eq!(partition(&oc), surrounding_form_partition(bc));
    }

    /// A random connected instance with `n` in `lo..hi` nodes and up to
    /// three home-bases spread from the seed.
    fn instance(lo: usize, hi: usize) -> impl Strategy<Value = Bicolored> {
        (lo..hi, 0.05f64..0.6, any::<u64>(), 0usize..4).prop_map(|(n, p, seed, r)| {
            let g = families::random_connected(n, p, seed).unwrap();
            let mut homes: Vec<usize> = Vec::new();
            let mut x = seed;
            while homes.len() < r.min(n) {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let v = (x >> 33) as usize % n;
                if !homes.contains(&v) {
                    homes.push(v);
                }
            }
            Bicolored::new(g, &homes).unwrap()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The orbit classes are the Definition 3.1 partition: nodes
        /// with isomorphic surroundings, for n ≤ 24.
        #[test]
        fn classes_equal_the_surrounding_form_partition(bc in instance(2, 25)) {
            let oc = ordered_classes(&bc);
            prop_assert_eq!(partition(&oc), surrounding_form_partition(&bc));
        }
    }

    proptest! {
        // Each case enumerates all n! permutations.
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The orbit classes equal the orbits of the brute-force
        /// automorphism group, for n ≤ 8 (independent of the IR search
        /// that produced `CanonResult::orbits`).
        #[test]
        fn classes_equal_brute_force_orbits(bc in instance(2, 9)) {
            let d = ColoredDigraph::from_bicolored(&bc);
            let mut dsu = Dsu::new(bc.n());
            for a in brute_force_automorphisms(&d) {
                for (v, &av) in a.iter().enumerate() {
                    dsu.union(v, av);
                }
            }
            let labels = dsu.labels();
            let mut orbits: Vec<Vec<NodeId>> = Vec::new();
            for v in 0..bc.n() {
                match orbits.iter_mut().find(|o| labels[o[0]] == labels[v]) {
                    Some(o) => o.push(v),
                    None => orbits.push(vec![v]),
                }
            }
            prop_assert_eq!(partition(&ordered_classes(&bc)), orbits);
        }
    }

    #[test]
    fn surrounding_root_has_indegree_zero() {
        let g = families::cycle(5).unwrap();
        let bc = Bicolored::new(g, &[0]).unwrap();
        let s = surrounding(&bc, 2);
        assert_eq!(s.in_degree(2), 0);
        for v in 0..5 {
            if v != 2 {
                assert!(s.in_degree(v) > 0, "only the root has in-degree 0");
            }
        }
    }

    #[test]
    fn equidistant_arcs_are_bidirectional() {
        // In C4 from node 0, nodes 1 and 3 are both at distance 1 and the
        // node 2 is at distance 2; the edge {1,2} gets arc 1→2 only.
        let g = families::cycle(4).unwrap();
        let bc = Bicolored::new(g, &[]).unwrap();
        let s = surrounding(&bc, 0);
        assert!(s.arcs().contains(&Arc {
            from: 1,
            to: 2,
            color: 0
        }));
        assert!(!s.arcs().contains(&Arc {
            from: 2,
            to: 1,
            color: 0
        }));
    }

    #[test]
    fn classes_match_orbits_on_cycle() {
        let g = families::cycle(6).unwrap();
        classes_agree_with_orbits(&Bicolored::new(g, &[0, 3]).unwrap());
    }

    #[test]
    fn classes_match_orbits_on_hypercube() {
        let g = families::hypercube(3).unwrap();
        classes_agree_with_orbits(&Bicolored::new(g, &[0, 7]).unwrap());
        let g = families::hypercube(3).unwrap();
        classes_agree_with_orbits(&Bicolored::new(g, &[0, 1, 2]).unwrap());
    }

    #[test]
    fn classes_match_orbits_on_petersen() {
        let g = families::petersen().unwrap();
        classes_agree_with_orbits(&Bicolored::new(g, &[0, 1]).unwrap());
    }

    #[test]
    fn black_classes_come_first() {
        let g = families::cycle(6).unwrap();
        let bc = Bicolored::new(g, &[0, 3]).unwrap();
        let oc = ordered_classes(&bc);
        assert_eq!(oc.ell, 1);
        assert!(oc.classes[0].black);
        assert!(!oc.classes[1].black);
    }

    #[test]
    fn classes_are_ordered_by_size_within_each_color() {
        // C9 with homes {0,1,2,3,4}: black classes {2}, {1,3}, {0,4} and
        // white classes {6,7}, {5,8}. The singleton black class leads.
        let g = families::cycle(9).unwrap();
        let bc = Bicolored::new(g, &[0, 1, 2, 3, 4]).unwrap();
        let oc = ordered_classes(&bc);
        let sizes: Vec<usize> = oc.classes.iter().map(|c| c.len()).collect();
        assert_eq!(sizes, vec![1, 2, 2, 2, 2]);
        assert_eq!(oc.ell, 3);
        assert_eq!(oc.classes[0].nodes, vec![2]);
    }

    #[test]
    fn gcd_of_sizes_matches_paper_examples() {
        // C6 with antipodal agents: classes {0,3} and the 4 white nodes
        // {1,2,4,5} → gcd(2, 4) = 2 → election impossible.
        let g = families::cycle(6).unwrap();
        let bc = Bicolored::new(g, &[0, 3]).unwrap();
        assert_eq!(ordered_classes(&bc).gcd_of_sizes(), 2);

        // C5 with one agent: classes {0}, {1,4}, {2,3} → gcd 1.
        let g = families::cycle(5).unwrap();
        let bc = Bicolored::new(g, &[0]).unwrap();
        assert_eq!(ordered_classes(&bc).gcd_of_sizes(), 1);
    }

    #[test]
    fn petersen_two_agents_has_gcd_two() {
        // The Fig. 5 configuration: two adjacent home-bases on the
        // Petersen graph give classes of sizes 2, 4, 4 → gcd 2.
        let g = families::petersen().unwrap();
        let bc = Bicolored::new(g, &[0, 1]).unwrap();
        let oc = ordered_classes(&bc);
        let mut sizes: Vec<usize> = oc.classes.iter().map(|c| c.len()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![2, 4, 4]);
        assert_eq!(oc.gcd_of_sizes(), 2);
    }

    #[test]
    fn class_of_is_consistent() {
        let g = families::cycle(6).unwrap();
        let bc = Bicolored::new(g, &[0, 3]).unwrap();
        let oc = ordered_classes(&bc);
        for v in 0..6 {
            let c = oc.class_of(v);
            assert!(oc.classes[c].nodes.contains(&v));
        }
    }

    #[test]
    fn orbit_classes_match_surrounding_forms_on_large_cycle() {
        // Past the sizes the proptests reach: every class must still be
        // one surrounding-form class of Definition 3.1.
        let g = families::cycle(34).unwrap();
        let bc = Bicolored::new(g, &[0, 17]).unwrap();
        let oc = ordered_classes(&bc);
        assert_eq!(partition(&oc), surrounding_form_partition(&bc));
        assert_eq!(oc.gcd_of_sizes(), 2, "antipodal homes stay unsolvable");
    }

    #[test]
    fn gcd_helper() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(7, 0), 7);
        assert_eq!(gcd(1, 999), 1);
    }
}
