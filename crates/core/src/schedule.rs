//! The deterministic phase/round schedule of Protocol ELECT.
//!
//! Everything about ELECT's control flow is a function of the ordered
//! class sizes `|C_1|, …, |C_k|` (with the first `ℓ` classes black):
//! which classes meet in which phase, how many subtractive-Euclid rounds
//! AGENT-REDUCE runs, how many division-Euclid rounds NODE-REDUCE runs,
//! and the number of active agents after each phase
//! (`d_i = gcd(|C_1|, …, |C_{i+1}|)`). Every agent computes this schedule
//! locally from its map — sizes are isomorphism-invariant, so all agents
//! agree — and the oracle tests recompute it independently.

use qelect_graph::surrounding::gcd;

/// One AGENT-REDUCE round: `|S|` searchers match into `|W|` waiting
/// agents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgentRound {
    /// Searchers this round.
    pub s: usize,
    /// Waiting agents this round.
    pub w: usize,
    /// Whether roles swap afterwards (`|W| − |S| < |S|`).
    pub swap: bool,
}

/// One NODE-REDUCE round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeRound {
    /// Active agents entering the round.
    pub alpha: usize,
    /// Selected nodes entering the round.
    pub beta: usize,
    /// The quotient `q` of the paper's division (`α = qβ + ρ` or
    /// `β = qα + ρ` with `0 < ρ ≤ min`).
    pub q: usize,
    /// The remainder `ρ`.
    pub rho: usize,
    /// `true` iff `α > β` (Case 1: agents acquire one node each, `q` per
    /// node; `ρ` agents survive). Otherwise Case 2: each agent acquires
    /// `q` nodes; `ρ` nodes stay selected.
    pub agents_exceed_nodes: bool,
}

/// What a phase reduces over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PhaseKind {
    /// Stage agent-agent: AGENT-REDUCE against a black class.
    AgentAgent {
        /// The subtractive-Euclid rounds.
        rounds: Vec<AgentRound>,
    },
    /// Stage agent-node: NODE-REDUCE against a white class.
    AgentNode {
        /// The division-Euclid rounds.
        rounds: Vec<NodeRound>,
    },
}

/// One phase of ELECT.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phase {
    /// 1-based phase number (phase `i` merges class `C_{i+1}`).
    pub number: usize,
    /// 0-based index of the class being merged.
    pub class_index: usize,
    /// `|D|` entering the phase.
    pub d_in: usize,
    /// `|D| = gcd` after the phase.
    pub d_out: usize,
    /// The reduction rounds.
    pub kind: PhaseKind,
}

/// The full schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Ordered class sizes (black classes first).
    pub class_sizes: Vec<usize>,
    /// Number of black classes.
    pub ell: usize,
    /// The phases actually executed (stops early once `|D| = 1`).
    pub phases: Vec<Phase>,
    /// Final number of active agents:
    /// `gcd(|C_1|, …, |C_j|)` at the stopping point.
    pub final_d: usize,
}

/// Subtractive Euclid as AGENT-REDUCE runs it.
pub fn agent_rounds(a: usize, b: usize) -> Vec<AgentRound> {
    let (mut s, mut w) = (a.min(b), a.max(b));
    let mut rounds = Vec::new();
    while s < w {
        let swap = w - s < s;
        rounds.push(AgentRound { s, w, swap });
        if swap {
            let ns = w - s;
            w = s;
            s = ns;
        } else {
            w -= s;
        }
    }
    rounds
}

/// Division Euclid as NODE-REDUCE runs it (`0 < ρ ≤ min` convention).
pub fn node_rounds(agents: usize, nodes: usize) -> Vec<NodeRound> {
    let (mut alpha, mut beta) = (agents, nodes);
    let mut rounds = Vec::new();
    while alpha != beta {
        if alpha > beta {
            let mut q = alpha / beta;
            let mut rho = alpha % beta;
            if rho == 0 {
                q -= 1;
                rho = beta;
            }
            rounds.push(NodeRound {
                alpha,
                beta,
                q,
                rho,
                agents_exceed_nodes: true,
            });
            alpha = rho;
        } else {
            let mut q = beta / alpha;
            let mut rho = beta % alpha;
            if rho == 0 {
                q -= 1;
                rho = alpha;
            }
            rounds.push(NodeRound {
                alpha,
                beta,
                q,
                rho,
                agents_exceed_nodes: false,
            });
            beta = rho;
        }
    }
    rounds
}

impl Schedule {
    /// Build the schedule from the ordered class sizes.
    pub fn from_class_sizes(class_sizes: &[usize], ell: usize) -> Schedule {
        assert!(ell >= 1, "at least one agent class");
        assert!(ell <= class_sizes.len());
        let mut phases = Vec::new();
        let mut d = class_sizes[0];
        let k = class_sizes.len();
        let mut number = 0;
        // Stage agent-agent over C_2..C_ℓ.
        for (i, &c) in class_sizes.iter().enumerate().take(ell).skip(1) {
            if d == 1 {
                break;
            }
            number += 1;
            phases.push(Phase {
                number,
                class_index: i,
                d_in: d,
                d_out: gcd(d, c),
                kind: PhaseKind::AgentAgent {
                    rounds: agent_rounds(d, c),
                },
            });
            d = gcd(d, c);
        }
        // Stage agent-node over C_{ℓ+1}..C_k.
        for (i, &c) in class_sizes.iter().enumerate().take(k).skip(ell) {
            if d == 1 {
                break;
            }
            number += 1;
            phases.push(Phase {
                number,
                class_index: i,
                d_in: d,
                d_out: gcd(d, c),
                kind: PhaseKind::AgentNode {
                    rounds: node_rounds(d, c),
                },
            });
            d = gcd(d, c);
        }
        Schedule {
            class_sizes: class_sizes.to_vec(),
            ell,
            phases,
            final_d: d,
        }
    }

    /// Whether the schedule ends in a successful election.
    pub fn elects(&self) -> bool {
        self.final_d == 1
    }

    /// Total agents `r`.
    pub fn r(&self) -> usize {
        self.class_sizes[..self.ell].iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_black_class_leads_and_no_phase_runs() {
        // cycle:9@0,1,2,3,4 (the explore-swarm instance): black classes
        // {2}, {1,3}, {0,4}. Ordering classes by size before canonical
        // position makes {2} the first class, so |D| = 1 from the start.
        use qelect_graph::surrounding::ordered_classes;
        use qelect_graph::{families, Bicolored};
        let bc = Bicolored::new(families::cycle(9).unwrap(), &[0, 1, 2, 3, 4]).unwrap();
        let oc = ordered_classes(&bc);
        assert_eq!(oc.classes[0].nodes, vec![2]);
        let sizes: Vec<usize> = oc.classes.iter().map(|c| c.len()).collect();
        let schedule = Schedule::from_class_sizes(&sizes, oc.ell);
        assert!(schedule.phases.is_empty(), "{:?}", schedule.phases);
        assert_eq!(schedule.final_d, 1);
    }

    #[test]
    fn agent_rounds_compute_gcd() {
        for (a, b) in [(6, 4), (4, 6), (9, 6), (5, 5), (1, 7), (12, 18), (7, 13)] {
            let rounds = agent_rounds(a, b);
            // Replay to the fixpoint and compare with gcd.
            let (mut s, mut w) = (a.min(b), a.max(b));
            for r in &rounds {
                assert_eq!((r.s, r.w), (s, w));
                if r.swap {
                    let ns = w - s;
                    w = s;
                    s = ns;
                } else {
                    w -= s;
                }
            }
            assert_eq!(s, w);
            assert_eq!(s, gcd(a, b), "gcd({a},{b})");
        }
    }

    #[test]
    fn equal_sizes_need_no_rounds() {
        assert!(agent_rounds(5, 5).is_empty());
        assert!(node_rounds(3, 3).is_empty());
    }

    #[test]
    fn node_rounds_compute_gcd_with_positive_remainders() {
        for (a, b) in [(2, 4), (4, 2), (3, 7), (7, 3), (6, 9), (1, 5), (10, 4)] {
            let rounds = node_rounds(a, b);
            let (mut alpha, mut beta) = (a, b);
            for r in &rounds {
                assert_eq!((r.alpha, r.beta), (alpha, beta));
                assert!(r.rho >= 1, "remainder must be positive");
                if r.agents_exceed_nodes {
                    assert_eq!(r.q * beta + r.rho, alpha);
                    assert!(r.rho <= beta);
                    alpha = r.rho;
                } else {
                    assert_eq!(r.q * alpha + r.rho, beta);
                    assert!(r.rho <= alpha);
                    beta = r.rho;
                }
            }
            assert_eq!(alpha, beta);
            assert_eq!(alpha, gcd(a, b), "gcd({a},{b})");
        }
    }

    #[test]
    fn schedule_tracks_running_gcd_and_stops_early() {
        // Classes: black 4, 6; white 9, 5.
        // d: 4 → gcd(4,6) = 2 (agent-agent) → gcd(2,9) = 1 (agent-node),
        // stop before C_4.
        let s = Schedule::from_class_sizes(&[4, 6, 9, 5], 2);
        assert_eq!(s.phases.len(), 2);
        assert_eq!(s.phases[0].d_out, 2);
        assert!(matches!(s.phases[0].kind, PhaseKind::AgentAgent { .. }));
        assert_eq!(s.phases[1].class_index, 2);
        assert_eq!(s.phases[1].d_out, 1);
        assert!(matches!(s.phases[1].kind, PhaseKind::AgentNode { .. }));
        assert!(s.elects());
        assert_eq!(s.final_d, 1);
    }

    #[test]
    fn schedule_failure_case() {
        // C6 antipodal agents: classes {0,3} size 2 and whites size 4 →
        // gcd 2: no election.
        let s = Schedule::from_class_sizes(&[2, 4], 1);
        assert_eq!(s.final_d, 2);
        assert!(!s.elects());
        assert_eq!(s.phases.len(), 1);
        assert!(matches!(s.phases[0].kind, PhaseKind::AgentNode { .. }));
    }

    #[test]
    fn single_agent_elects_immediately() {
        let s = Schedule::from_class_sizes(&[1, 3, 3], 1);
        assert!(s.phases.is_empty());
        assert!(s.elects());
        assert_eq!(s.r(), 1);
    }

    #[test]
    fn r_counts_black_classes() {
        let s = Schedule::from_class_sizes(&[2, 3, 4], 2);
        assert_eq!(s.r(), 5);
    }

    /// Running gcd over the whole vector: the schedule elects exactly on
    /// gcd-1 vectors and otherwise stops at the overall gcd, whatever
    /// the mix of AGENT-REDUCE and NODE-REDUCE phases.
    #[test]
    fn gcd_one_vs_gcd_many_vectors() {
        let cases: &[(&[usize], usize)] = &[
            (&[2, 3], 1),    // ℓ=1: one agent-node phase reaches 1
            (&[4, 9, 6], 1), // reaches 1 mid-schedule, stops early
            (&[3, 5, 7], 1),
            (&[2, 4], 2), // C6 antipodal shape
            (&[4, 6, 8], 2),
            (&[6, 9, 12], 3),
            (&[4, 8, 12], 4),
        ];
        for &(sizes, g) in cases {
            for ell in 1..=sizes.len().min(2) {
                let s = Schedule::from_class_sizes(sizes, ell);
                assert_eq!(s.final_d, g, "{sizes:?} ell={ell}");
                assert_eq!(s.elects(), g == 1, "{sizes:?} ell={ell}");
            }
        }
    }

    /// A single (black) class: no reduce phase can run, so `|D|` stays
    /// the class size — election iff the lone class is a singleton.
    #[test]
    fn single_class_vectors() {
        for r in 1..=5 {
            let s = Schedule::from_class_sizes(&[r], 1);
            assert!(s.phases.is_empty(), "nothing to reduce against");
            assert_eq!(s.final_d, r);
            assert_eq!(s.elects(), r == 1);
            assert_eq!(s.r(), r);
        }
    }

    /// All classes the same size: every phase divides equals by equals,
    /// so `|D|` never drops below the common size (Theorem 3.1's gcd is
    /// the size itself) — and the degenerate all-singleton vector elects
    /// before any phase runs.
    #[test]
    fn all_equal_size_vectors() {
        for (sizes, ell) in [
            (vec![2usize, 2, 2], 1),
            (vec![3, 3], 1),
            (vec![4, 4, 4, 4], 2),
        ] {
            let s = Schedule::from_class_sizes(&sizes, ell);
            assert_eq!(s.final_d, sizes[0], "{sizes:?}");
            assert!(!s.elects());
            // Equal pairs need zero rounds in either reduce flavor.
            assert!(agent_rounds(sizes[0], sizes[0]).is_empty());
            assert!(node_rounds(sizes[0], sizes[0]).is_empty());
        }
        let trivial = Schedule::from_class_sizes(&[1, 1, 1], 1);
        assert!(trivial.phases.is_empty());
        assert!(trivial.elects());
    }

    /// A singleton searcher class drains any opposing class in one
    /// subtraction per unit: gcd(1, b) = 1 after exactly b − 1 rounds,
    /// never swapping (the remainder `w − s = w − 1 ≥ s` until the end).
    #[test]
    fn singleton_against_anything_reaches_one() {
        for b in 2..=7 {
            let rounds = agent_rounds(1, b);
            assert_eq!(rounds.len(), b - 1);
            assert!(rounds.iter().all(|r| r.s == 1 && !r.swap));
            let node = node_rounds(1, b);
            assert_eq!(node.len(), 1, "β = q·1 + 1 in a single division");
            assert_eq!(node[0].rho, 1);
        }
    }
}
