//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use qelect_graph::cache::{
    canonicalize_cached, encode_digraph, ordered_classes_cached, ShardedCache,
};
use qelect_graph::canon::{are_isomorphic, canonicalize};
use qelect_graph::digraph::Arc;
use qelect_graph::refine::refine_to_stable;
use qelect_graph::surrounding::{classes_from_canon, ordered_classes, surrounding};
use qelect_graph::view::{view_partition, views_equal_by_trees};
use qelect_graph::{families, labeling, Bicolored, ColoredDigraph};

/// A random connected bicolored instance.
fn instance() -> impl Strategy<Value = Bicolored> {
    (3usize..9, 0.1f64..0.6, any::<u64>(), 0usize..3).prop_map(|(n, p, seed, r)| {
        let g = families::random_connected(n, p, seed).unwrap();
        let homes: Vec<usize> = (0..r.min(n)).collect();
        Bicolored::new(g, &homes).unwrap()
    })
}

/// A random small colored digraph.
fn digraph() -> impl Strategy<Value = ColoredDigraph> {
    (2usize..7, any::<u64>()).prop_map(|(n, seed)| {
        let mut colors = Vec::with_capacity(n);
        let mut arcs = Vec::new();
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..n {
            colors.push(next() % 3);
        }
        for u in 0..n {
            for v in 0..n {
                if u != v && next() % 3 == 0 {
                    arcs.push(Arc {
                        from: u as u32,
                        to: v as u32,
                        color: next() % 2,
                    });
                }
            }
        }
        ColoredDigraph::new(colors, arcs)
    })
}

/// A random permutation of 0..n derived from a seed.
fn perm_of(n: usize, seed: u64) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    let mut x = seed | 1;
    for i in (1..n).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        p.swap(i, (x % (i as u64 + 1)) as usize);
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn canonical_form_invariant_under_relabeling(d in digraph(), seed in any::<u64>()) {
        let p = perm_of(d.n(), seed);
        let shuffled = d.relabel(&p);
        prop_assert_eq!(canonicalize(&d).form, canonicalize(&shuffled).form);
    }

    #[test]
    fn isomorphism_is_reflexive(d in digraph()) {
        prop_assert!(are_isomorphic(&d, &d));
    }

    #[test]
    fn harvested_generators_are_automorphisms(d in digraph()) {
        let result = canonicalize(&d);
        for g in &result.generators {
            prop_assert!(d.is_automorphism(g));
        }
    }

    #[test]
    fn orbits_are_fixed_by_generators(d in digraph()) {
        let result = canonicalize(&d);
        for g in &result.generators {
            for (v, &gv) in g.iter().enumerate() {
                prop_assert_eq!(result.orbits[v], result.orbits[gv]);
            }
        }
    }

    #[test]
    fn stable_partition_is_equitable(d in digraph()) {
        // Within a class, every node must have the same multiset of
        // (direction, arc color, neighbor class) — re-refining changes
        // nothing.
        let part = refine_to_stable(&d, None);
        let (again, changed) = qelect_graph::refine::refine_once(&d, &part);
        prop_assert!(!changed);
        prop_assert_eq!(again.k, part.k);
    }

    #[test]
    fn view_refinement_matches_tree_oracle(bc in instance()) {
        let part = view_partition(&bc);
        for x in 0..bc.n() {
            for y in (x + 1)..bc.n() {
                prop_assert_eq!(
                    part.class[x] == part.class[y],
                    views_equal_by_trees(&bc, x, y),
                    "nodes {} and {}", x, y
                );
            }
        }
    }

    #[test]
    fn surrounding_has_unique_source(bc in instance(), u in 0usize..8) {
        let u = u % bc.n();
        let s = surrounding(&bc, u);
        let sources: Vec<usize> =
            (0..bc.n()).filter(|&v| s.in_degree(v) == 0).collect();
        prop_assert_eq!(sources, vec![u]);
    }

    #[test]
    fn scramble_preserves_structure(bc in instance(), seed in any::<u64>()) {
        let s = labeling::scramble(bc.graph(), seed).unwrap();
        prop_assert_eq!(s.n(), bc.n());
        prop_assert_eq!(s.m(), bc.graph().m());
        for v in 0..s.n() {
            prop_assert_eq!(s.degree(v), bc.graph().degree(v));
        }
        // Structure (not just counts): port-forgetting isomorphism.
        let a = ColoredDigraph::from_bicolored(&Bicolored::new(s, &[]).unwrap());
        let b = ColoredDigraph::from_bicolored(
            &Bicolored::new(bc.graph().clone(), &[]).unwrap(),
        );
        prop_assert!(are_isomorphic(&a, &b));
    }

    // ---- cache layer: the differential properties -------------------

    #[test]
    fn cached_canonicalize_is_byte_identical(d in digraph()) {
        let eager = canonicalize(&d);
        let cached = canonicalize_cached(&d);
        // CanonResult derives no PartialEq — compare every field.
        prop_assert_eq!(&cached.form, &eager.form);
        prop_assert_eq!(&cached.labeling, &eager.labeling);
        prop_assert_eq!(&cached.generators, &eager.generators);
        prop_assert_eq!(&cached.orbits, &eager.orbits);
        prop_assert_eq!(cached.orbit_count, eager.orbit_count);
    }

    #[test]
    fn cached_ordered_classes_are_byte_identical(bc in instance()) {
        // Twice through the cached path: the first call may populate the
        // global memo, the second must answer from it — both identical
        // to the eager computation (classes, membership, order, ℓ).
        let eager = ordered_classes(&bc);
        prop_assert_eq!(&ordered_classes_cached(&bc), &eager);
        prop_assert_eq!(&ordered_classes_cached(&bc), &eager);
    }

    #[test]
    fn collision_fallback_preserves_byte_identity(a in instance(), b in instance()) {
        // Force every key onto one fingerprint: all entries share one
        // collision chain and lookups must fall back to full-key
        // comparison. Results must still be exact per instance.
        fn constant(_: &[u64]) -> u64 { 0 }
        let cache: ShardedCache<qelect_graph::canon::CanonResult> =
            ShardedCache::with_fingerprinter(2, 64, constant);
        for bc in [&a, &b, &a, &b] {
            let d = ColoredDigraph::from_bicolored(bc);
            let got = cache.get_or_insert_with(encode_digraph(&d), || canonicalize(&d));
            prop_assert_eq!(&classes_from_canon(bc, &got), &ordered_classes(bc));
        }
        let s = cache.stats();
        prop_assert_eq!(s.lookups(), 4);
        prop_assert!(s.misses <= 2, "at most one entry per distinct instance");
        prop_assert!(s.hits >= 2, "the repeat lookups answer from the chain");
    }

    #[test]
    fn distances_are_symmetric_metric(bc in instance()) {
        let g = bc.graph();
        for u in 0..g.n() {
            let du = g.distances_from(u);
            prop_assert_eq!(du[u], 0);
            for v in 0..g.n() {
                let dv = g.distances_from(v);
                prop_assert_eq!(du[v], dv[u], "symmetry");
                // Triangle inequality through any edge from v.
                for w in g.neighbors(v) {
                    prop_assert!(du[w] + 1 >= du[v]);
                }
            }
        }
    }
}
