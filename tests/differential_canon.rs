//! Differential pin of the worklist/pruned canonicalization kernel
//! against the frozen IR oracle (`qelect_graph::oracle`).
//!
//! The kernel (DESIGN §13) replaces the oracle's sort-everything
//! refinement with start-index cell labels, node-level dirty tracking
//! and quotient-word pruning — all of which are *speed-only* by
//! construction. This suite pins that claim as byte-identity:
//!
//! * every field of [`CanonResult`] agrees with the oracle on a fixed
//!   cross-family suite and on random instances × random port
//!   relabelings (pruning may only *remove* visited leaves);
//! * the deterministic total order `≺` of Lemma 3.1 — pairwise
//!   comparison of emitted words — is unchanged;
//! * capped searches (the view-bounded mode, where pruning is disabled)
//!   are byte-identical *including* leaf counts;
//! * on relabeled symmetric instances, the agents' maps elect-cold
//!   canonicalizes, the leaf and prune counts are pinned to recorded
//!   constants, so the search tree itself cannot move;
//! * for `n ≤ 8` the emitted word equals the brute-force minimum over
//!   all `n!` labelings, and the harvested generators generate the full
//!   automorphism group;
//! * golden words for the paper's standard families are committed under
//!   `tests/golden/` (re-bless with `QELECT_BLESS=1`).

use std::path::PathBuf;

use proptest::prelude::*;
use qelect_graph::canon::{
    self, brute_force_automorphisms, brute_force_canonical_form, group_order, CanonResult,
    CanonicalForm,
};
use qelect_graph::surrounding::surrounding;
use qelect_graph::{families, labeling, oracle, Bicolored, ColoredDigraph, Graph};

/// The plain bi-colored digraph of `(g, homes)`.
fn digraph(g: Graph, homes: &[usize]) -> ColoredDigraph {
    ColoredDigraph::from_bicolored(&Bicolored::new(g, homes).unwrap())
}

/// Fixed cross-family suite: every topology class the paper names, at
/// sizes small enough to keep the oracle fast but large enough to drive
/// multi-round refinement and non-trivial search trees.
fn fixed_suite() -> Vec<(&'static str, ColoredDigraph)> {
    vec![
        ("C6@0,3", digraph(families::cycle(6).unwrap(), &[0, 3])),
        ("C8@0,1", digraph(families::cycle(8).unwrap(), &[0, 1])),
        (
            "C10@0,2,5",
            digraph(families::cycle(10).unwrap(), &[0, 2, 5]),
        ),
        (
            "C12@0,4,8",
            digraph(families::cycle(12).unwrap(), &[0, 4, 8]),
        ),
        (
            "circulant16:1,3@0,1",
            digraph(families::circulant(16, &[1, 3]).unwrap(), &[0, 1]),
        ),
        (
            "petersen@0,1",
            digraph(families::petersen().unwrap(), &[0, 1]),
        ),
        (
            "torus4x4@0,5",
            digraph(families::torus(&[4, 4]).unwrap(), &[0, 5]),
        ),
        (
            "Q4@0,15",
            digraph(families::hypercube(4).unwrap(), &[0, 15]),
        ),
        (
            "butterfly3@0,1",
            digraph(families::wrapped_butterfly(3).unwrap(), &[0, 1]),
        ),
        (
            "ccc3@0,1",
            digraph(families::cube_connected_cycles(3).unwrap(), &[0, 1]),
        ),
        ("K6@0", digraph(families::complete(6).unwrap(), &[0])),
        (
            "rand14@0,3",
            digraph(families::random_connected(14, 0.25, 11).unwrap(), &[0, 3]),
        ),
    ]
}

/// Full byte-identity of the kernel against the oracle on one digraph.
fn assert_byte_identical(label: &str, d: &ColoredDigraph) -> (CanonResult, CanonResult) {
    let fast = canon::canonicalize(d);
    let slow = oracle::canonicalize(d);
    assert_eq!(fast.form, slow.form, "{label}: canonical word");
    assert_eq!(fast.labeling, slow.labeling, "{label}: labeling");
    assert_eq!(fast.generators, slow.generators, "{label}: generators");
    assert_eq!(fast.orbits, slow.orbits, "{label}: orbits");
    assert_eq!(fast.orbit_count, slow.orbit_count, "{label}: orbit count");
    assert!(
        fast.leaves_visited <= slow.leaves_visited,
        "{label}: pruning may only remove leaves ({} > {})",
        fast.leaves_visited,
        slow.leaves_visited
    );
    assert_eq!(slow.pruned_branches, 0, "{label}: the oracle never prunes");
    (fast, slow)
}

#[test]
fn kernel_is_byte_identical_to_oracle_on_the_fixed_suite() {
    for (label, d) in fixed_suite() {
        assert_byte_identical(label, &d);
    }
}

/// The `≺` order of Lemma 3.1 is pairwise comparison of emitted words;
/// both engines must induce the identical order over the whole suite.
#[test]
fn kernel_and_oracle_induce_the_same_total_order() {
    let suite = fixed_suite();
    let fast: Vec<CanonicalForm> = suite
        .iter()
        .map(|(_, d)| canon::canonicalize(d).form)
        .collect();
    let slow: Vec<CanonicalForm> = suite
        .iter()
        .map(|(_, d)| oracle::canonicalize(d).form)
        .collect();
    for i in 0..suite.len() {
        for j in 0..suite.len() {
            assert_eq!(
                fast[i].cmp(&fast[j]),
                slow[i].cmp(&slow[j]),
                "order of {} vs {}",
                suite[i].0,
                suite[j].0
            );
        }
    }
}

/// Every root's surrounding `S(u)` (Definition 3.1, the digraphs whose
/// forms decide node equivalence) canonicalizes to the same word under
/// both engines.
#[test]
fn surrounding_words_match_the_oracle_on_every_root() {
    let instances = [
        Bicolored::new(families::cycle(8).unwrap(), &[0, 1]).unwrap(),
        Bicolored::new(families::petersen().unwrap(), &[0, 1]).unwrap(),
        Bicolored::new(families::torus(&[4, 4]).unwrap(), &[0, 5]).unwrap(),
    ];
    for bc in &instances {
        for u in 0..bc.n() {
            assert_byte_identical(&format!("S({u})"), &surrounding(bc, u));
        }
    }
}

/// View-bounded searches disable pruning so the capped kernel walks the
/// oracle's exact tree — leaf counts included.
#[test]
fn capped_searches_are_byte_identical_including_leaf_counts() {
    let cases = [
        ("C8@0,1", digraph(families::cycle(8).unwrap(), &[0, 1])),
        (
            "petersen@0,1",
            digraph(families::petersen().unwrap(), &[0, 1]),
        ),
    ];
    for (label, d) in &cases {
        for cap in [1usize, 2, 5, 16] {
            let fast = canon::canonicalize_with_cap(d, cap);
            let slow = oracle::canonicalize_with_cap(d, cap);
            assert_eq!(fast.form, slow.form, "{label} cap={cap}");
            assert_eq!(fast.labeling, slow.labeling, "{label} cap={cap}");
            assert_eq!(fast.generators, slow.generators, "{label} cap={cap}");
            assert_eq!(fast.orbits, slow.orbits, "{label} cap={cap}");
            assert_eq!(
                fast.leaves_visited, slow.leaves_visited,
                "{label} cap={cap}: capped searches visit identical leaves"
            );
            assert_eq!(fast.pruned_branches, 0, "{label} cap={cap}");
            assert_eq!(slow.pruned_branches, 0, "{label} cap={cap}");
        }
    }
}

/// Ground truth for small instances (`n ≤ 8`): the kernel's word and
/// the exhaustive n!-minimum word induce the *same isomorphy relation*
/// over the suite (the IR word is canonical within its refinement
/// scheme, not the global minimum, so only the induced equivalence is
/// comparable), and the harvested generators generate the whole
/// automorphism group.
#[test]
fn brute_force_cross_check_on_fixed_small_instances() {
    let cases = [
        ("C4@0", digraph(families::cycle(4).unwrap(), &[0])),
        ("C6@0,3", digraph(families::cycle(6).unwrap(), &[0, 3])),
        ("C8@0,4", digraph(families::cycle(8).unwrap(), &[0, 4])),
        ("K4@0", digraph(families::complete(4).unwrap(), &[0])),
        ("P5@0,4", digraph(families::path(5).unwrap(), &[0, 4])),
        ("star4@0", digraph(families::star(4).unwrap(), &[0])),
        ("Q3@0,7", digraph(families::hypercube(3).unwrap(), &[0, 7])),
        (
            "rand8@0,2",
            digraph(families::random_connected(8, 0.3, 5).unwrap(), &[0, 2]),
        ),
    ];
    let mut kernel_forms = Vec::new();
    let mut brute_forms = Vec::new();
    for (label, d) in &cases {
        let (fast, _) = assert_byte_identical(label, d);
        let autos = brute_force_automorphisms(d);
        assert_eq!(
            group_order(d.n(), &fast.generators, 1 << 20),
            Some(autos.len()),
            "{label}: generators span the full automorphism group"
        );
        kernel_forms.push(fast.form);
        brute_forms.push(brute_force_canonical_form(d));
    }
    for i in 0..cases.len() {
        for j in 0..cases.len() {
            assert_eq!(
                kernel_forms[i] == kernel_forms[j],
                brute_forms[i] == brute_forms[j],
                "{} vs {}: kernel and exhaustive words disagree on isomorphy",
                cases[i].0,
                cases[j].0
            );
        }
    }
}

/// The inputs elect-cold canonicalizes are agents' maps: relabeled
/// copies of symmetric instances, whose search trees depend on the
/// labeling. Every field must equal the oracle's, and the leaf and
/// prune counts must equal the recorded constants, which pins the
/// search tree itself, not just its result.
#[test]
fn kernel_is_byte_identical_on_relabeled_symmetric_instances() {
    // (label, digraph, [(leaves_visited, pruned_branches)] as generated
    // and under `random_perm` seeds 1, 2, 3).
    let cases = [
        (
            "Q6@0,63",
            digraph(families::hypercube(6).unwrap(), &[0, 63]),
            [(17, 0), (47, 0), (83, 0), (83, 0)],
        ),
        (
            "Q5@0,31",
            digraph(families::hypercube(5).unwrap(), &[0, 31]),
            [(12, 0), (27, 0), (25, 0), (25, 0)],
        ),
        (
            "petersen@0,1",
            digraph(families::petersen().unwrap(), &[0, 1]),
            [(4, 0), (4, 0), (5, 0), (5, 0)],
        ),
        (
            "torus8x8@0,9",
            digraph(families::torus(&[8, 8]).unwrap(), &[0, 9]),
            [(3, 0), (3, 0), (3, 0), (3, 0)],
        ),
        (
            "cycle300@0,1,5",
            digraph(families::cycle(300).unwrap(), &[0, 1, 5]),
            [(1, 0), (1, 0), (1, 0), (1, 0)],
        ),
    ];
    for (label, d, counts) in &cases {
        for (seed, &(leaves, pruned)) in counts.iter().enumerate() {
            let relabeled = match seed {
                0 => d.clone(),
                s => d.relabel(&random_perm(d.n(), s as u64)),
            };
            let label = format!("{label} seed {seed}");
            let (fast, _) = assert_byte_identical(&label, &relabeled);
            assert_eq!(
                (fast.leaves_visited, fast.pruned_branches),
                (leaves, pruned),
                "{label}: search tree moved"
            );
        }
    }
}

/// Location of a committed golden word file (repo-root `tests/golden/`).
fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

/// Compare `form` against its committed pin — or rewrite the pin when
/// `QELECT_BLESS` is set in the environment.
fn check_golden(name: &str, form: &CanonicalForm) {
    let path = golden_path(name);
    let mut rendered = String::new();
    for w in &form.0 {
        rendered.push_str(&w.to_string());
        rendered.push('\n');
    }
    if std::env::var_os("QELECT_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with \
             QELECT_BLESS=1 cargo test -p qelect-graph --test differential_canon",
            path.display()
        )
    });
    assert_eq!(
        rendered, want,
        "canonical word for {name} drifted from its committed pin — every \
         cache key and trace artifact depends on it; if the change is \
         intentional, re-bless with QELECT_BLESS=1"
    );
}

/// Golden pins: the exact canonical words of the paper's standard
/// families, committed so any byte-level drift of the kernel (or the
/// oracle) fails loudly even if both drift together.
#[test]
fn golden_canonical_words_are_pinned() {
    let pins = [
        (
            "canon_c6.txt",
            digraph(families::cycle(6).unwrap(), &[0, 1]),
        ),
        (
            "canon_c8.txt",
            digraph(families::cycle(8).unwrap(), &[0, 1]),
        ),
        (
            "canon_c10.txt",
            digraph(families::cycle(10).unwrap(), &[0, 1]),
        ),
        (
            "canon_c12.txt",
            digraph(families::cycle(12).unwrap(), &[0, 1]),
        ),
        (
            "canon_petersen.txt",
            digraph(families::petersen().unwrap(), &[0, 1]),
        ),
        (
            "canon_torus4x4.txt",
            digraph(families::torus(&[4, 4]).unwrap(), &[0, 1]),
        ),
        (
            "canon_q4.txt",
            digraph(families::hypercube(4).unwrap(), &[0, 1]),
        ),
    ];
    for (name, d) in pins {
        let res = canon::canonicalize(&d);
        assert_eq!(res.form, oracle::canonicalize(&d).form, "{name}");
        check_golden(name, &res.form);
    }
}

/// A random connected instance (same idiom as `properties_cross_crate`).
fn instance_strategy(sizes: std::ops::Range<usize>) -> impl Strategy<Value = Bicolored> {
    (sizes, 0.05f64..0.5, any::<u64>(), 1usize..4).prop_map(|(n, p, seed, r)| {
        let g = families::random_connected(n, p, seed).unwrap();
        let r = r.min(n);
        // Spread home-bases deterministically from the seed.
        let mut homes: Vec<usize> = Vec::new();
        let mut x = seed;
        while homes.len() < r {
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

/// A seed-derived permutation of `0..n` (Fisher–Yates over an LCG).
fn random_perm(n: usize, seed: u64) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    let mut x = seed | 1;
    for i in (1..n).rev() {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (x >> 33) as usize % (i + 1);
        perm.swap(i, j);
    }
    perm
}

/// Byte-identity as a proptest assertion (so shrinking works).
fn prop_byte_identical(label: &str, d: &ColoredDigraph) -> Result<(), TestCaseError> {
    let fast = canon::canonicalize(d);
    let slow = oracle::canonicalize(d);
    prop_assert_eq!(&fast.form, &slow.form, "{}: word", label);
    prop_assert_eq!(&fast.labeling, &slow.labeling, "{}: labeling", label);
    prop_assert_eq!(&fast.generators, &slow.generators, "{}: generators", label);
    prop_assert_eq!(&fast.orbits, &slow.orbits, "{}: orbits", label);
    prop_assert!(
        fast.leaves_visited <= slow.leaves_visited,
        "{}: leaves",
        label
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random bi-colored digraphs × random port relabelings: the
    /// port-colored digraph of a scrambled instance is an arbitrary
    /// arc-colored input, and the kernel must track the oracle on all
    /// of them. Port relabelings never touch the plain bi-colored word.
    #[test]
    fn kernel_matches_oracle_on_random_instances(
        bc in instance_strategy(4..12),
        seed in any::<u64>(),
    ) {
        let scrambled = labeling::scramble(bc.graph(), seed).unwrap();
        let sc = Bicolored::new(scrambled, bc.homebases()).unwrap();
        let plain = ColoredDigraph::from_bicolored(&bc);
        prop_byte_identical("plain", &plain)?;
        prop_byte_identical("ports", &ColoredDigraph::from_port_labeled(&bc))?;
        prop_byte_identical("scrambled ports", &ColoredDigraph::from_port_labeled(&sc))?;
        prop_assert_eq!(
            canon::canonicalize(&ColoredDigraph::from_bicolored(&sc)).form,
            canon::canonicalize(&plain).form,
            "port relabelings are invisible to the plain bi-colored word"
        );
    }
}

proptest! {
    // Brute force walks n! labelings — few cases, tiny n.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random instances with `n ≤ 8`, cross-checked against exhaustive
    /// enumeration and against a random relabeling of themselves: both
    /// the kernel word and the brute-force n!-minimum word must be
    /// relabeling-invariant, and the harvested generators must span the
    /// exact automorphism group.
    #[test]
    fn brute_force_agrees_on_random_small_instances(
        bc in instance_strategy(4..9),
        seed in any::<u64>(),
    ) {
        let d = ColoredDigraph::from_bicolored(&bc);
        let fast = canon::canonicalize(&d);
        let autos = brute_force_automorphisms(&d);
        prop_assert_eq!(group_order(d.n(), &fast.generators, 1 << 20), Some(autos.len()));
        let perm = random_perm(d.n(), seed);
        let shuffled = d.relabel(&perm);
        prop_assert_eq!(
            canon::canonicalize(&shuffled).form,
            fast.form,
            "kernel word is relabeling-invariant"
        );
        prop_assert_eq!(
            brute_force_canonical_form(&shuffled),
            brute_force_canonical_form(&d),
            "exhaustive word is relabeling-invariant"
        );
    }
}
