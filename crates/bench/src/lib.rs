//! # qelect-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper (see `DESIGN.md` §4
//! and `EXPERIMENTS.md`). The binaries print the paper-shaped rows:
//!
//! * `table1` — the possibility matrix (Table 1), decided empirically;
//! * `fig2` — the quantitative-vs-qualitative labeling demonstrations
//!   (Fig. 2(a,b)) and the same-views gadget (Fig. 2(c));
//! * `fig1_transform` — the mobile→message-passing transformation
//!   (Fig. 1), native vs transformed outcomes and message counts;
//! * `table_moves` — Theorem 3.1's O(r·|E|) envelope, measured;
//! * `table_effectual` — Theorem 4.1 on Cayley suites, protocol vs
//!   oracles (with the regular-subgroup quantification);
//! * `fig5_petersen` — the Fig. 5 divergence: ELECT fails, the bespoke
//!   protocol elects;
//! * `qelectctl` — run any protocol on any family from the command line
//!   (parsing in [`cli`]); its `audit` subcommand emits the
//!   phase-resolved JSON reports of [`report`] and gates CI on the
//!   fitted Theorem 3.1 constant, its `faults` subcommand runs the
//!   crash sweeps of [`faults`] and gates on the gcd oracle, and its
//!   `sweep` subcommand stress-tests ELECT against the oracle on random
//!   instances ([`sweep`]).
//!
//! The criterion benches (`benches/`) measure the same pipelines for
//! performance tracking.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benchgate;
pub mod canonbench;
pub mod cli;
pub mod explore;
pub mod faults;
pub mod load;
pub mod measure;
pub mod report;
pub mod serve;
pub mod simbench;
pub mod spec;
pub mod store;
pub mod sweep;
pub mod zoo;

use qelect_graph::{families, Bicolored, Graph};

/// A named instance for suite-style experiments.
pub struct Instance {
    /// Display label.
    pub label: String,
    /// The bi-colored instance.
    pub bc: Bicolored,
    /// Whether the underlying graph is a Cayley graph (by construction).
    pub cayley: bool,
}

impl Instance {
    /// Build an instance.
    pub fn new(label: impl Into<String>, g: Graph, hbs: &[usize], cayley: bool) -> Instance {
        Instance {
            label: label.into(),
            bc: Bicolored::new(g, hbs).expect("valid instance"),
            cayley,
        }
    }
}

/// The standard cross-family suite used by Table 1 and the cost tables.
pub fn standard_suite() -> Vec<Instance> {
    vec![
        Instance::new("C5 r=1", families::cycle(5).unwrap(), &[0], true),
        Instance::new(
            "C6 r=2 antipodal",
            families::cycle(6).unwrap(),
            &[0, 3],
            true,
        ),
        Instance::new(
            "C6 r=3 broken",
            families::cycle(6).unwrap(),
            &[0, 2, 3],
            true,
        ),
        Instance::new("C7 r=3", families::cycle(7).unwrap(), &[0, 1, 3], true),
        Instance::new("K2 r=2", families::complete(2).unwrap(), &[0, 1], true),
        Instance::new("K4 r=2", families::complete(4).unwrap(), &[0, 1], true),
        Instance::new(
            "Q3 r=2 antipodal",
            families::hypercube(3).unwrap(),
            &[0, 7],
            true,
        ),
        Instance::new("Q3 r=3", families::hypercube(3).unwrap(), &[0, 1, 3], true),
        Instance::new(
            "Torus3x3 r=2",
            families::torus(&[3, 3]).unwrap(),
            &[0, 4],
            true,
        ),
        Instance::new(
            "CCC3 r=2",
            families::cube_connected_cycles(3).unwrap(),
            &[0, 9],
            true,
        ),
        Instance::new(
            "StarGraph S3 r=2",
            families::star_graph(3).unwrap(),
            &[0, 5],
            true,
        ),
        Instance::new(
            "Petersen r=2 adj",
            families::petersen().unwrap(),
            &[0, 1],
            false,
        ),
        Instance::new("Path4 r=2", families::path(4).unwrap(), &[0, 1], false),
        Instance::new("Star K1,4 r=2", families::star(4).unwrap(), &[0, 1], false),
        Instance::new(
            "Tree d=2 r=2",
            families::binary_tree(2).unwrap(),
            &[0, 3],
            false,
        ),
    ]
}

/// The cost-scaling suite: (label, instance) with growing `r·|E|`.
pub fn scaling_suite() -> Vec<Instance> {
    let mut out = Vec::new();
    for n in [8usize, 12, 16, 20, 24] {
        out.push(Instance::new(
            format!("C{n} r=3"),
            families::cycle(n).unwrap(),
            &[0, 1, 3],
            true,
        ));
    }
    for d in [3usize, 4] {
        let n = 1 << d;
        out.push(Instance::new(
            format!("Q{d} r=3"),
            families::hypercube(d).unwrap(),
            &[0, 1, 3],
            true,
        ));
        let _ = n;
    }
    for r in [2usize, 4, 6] {
        let hbs: Vec<usize> = (0..r).map(|i| 2 * i).collect();
        out.push(Instance::new(
            format!("C16 r={r}"),
            families::cycle(16).unwrap(),
            &hbs,
            true,
        ));
    }
    out
}

/// Render a Markdown-ish table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

/// A simple fixed-width header + separator.
pub fn header(cols: &[&str]) -> String {
    let head = row(&cols.iter().map(|c| c.to_string()).collect::<Vec<_>>());
    let sep = row(&cols.iter().map(|c| "-".repeat(c.len())).collect::<Vec<_>>());
    format!("{head}\n{sep}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_are_well_formed() {
        for inst in standard_suite().into_iter().chain(scaling_suite()) {
            assert!(inst.bc.graph().is_connected(), "{}", inst.label);
            assert!(inst.bc.r() >= 1, "{}", inst.label);
        }
    }

    #[test]
    fn table_helpers() {
        let h = header(&["a", "bb"]);
        assert!(h.contains("| a | bb |"));
        assert!(h.contains("| - | -- |"));
    }
}
