//! Property-based cross-crate invariants (proptest).
//!
//! Random connected graphs and placements; the paper's structural
//! invariants must hold on all of them:
//!
//! * Lemma 2.1 — label-equivalence classes have one common size;
//! * Equation 1 — `~lab` refines `~view`;
//! * surroundings decide Definition 2.1 equivalence (classes = orbits);
//! * the ELECT schedule's final `d` equals `gcd(|C_i|)`;
//! * MAP-DRAWING reconstructs the instance up to isomorphism, under any
//!   seed/scrambling;
//! * ELECT's verdict equals the gcd oracle on random instances.

use proptest::prelude::*;
use qelect::prelude::*;
// These properties drive scheduler-level knobs (policies, explicit
// seeds, bounded exploration), so they use the engine's per-run config
// struct rather than the unified builder.
use qelect::schedule::Schedule;
use qelect::solvability::elect_succeeds;
use qelect_agentsim::sim::{run_sim_faulty, RunConfig};
use qelect_graph::canon::are_isomorphic;
use qelect_graph::surrounding::{gcd, ordered_classes};
use qelect_graph::{automorphism, families, symmetricity, Bicolored, ColoredDigraph};

/// Crash-free ELECT on the sim engine.
fn run_elect(bc: &Bicolored, cfg: RunConfig) -> RunReport {
    let agents = vec![ElectProtocol::default(); bc.r()];
    run_sim_faulty(bc, cfg, &FaultPlan::none(), agents).expect("sim run failed")
}

/// Draw the map and hand it to the collector.
struct DrawMap(std::sync::mpsc::Sender<qelect::AgentMap>);

impl Protocol for DrawMap {
    async fn run_async<C: MobileCtxAsync>(
        &self,
        ctx: &mut C,
    ) -> Result<qelect_agentsim::AgentOutcome, qelect_agentsim::Interrupt> {
        let map = qelect::mapdraw::map_drawing_async(ctx).await?;
        self.0.send(map).ok();
        Ok(qelect_agentsim::AgentOutcome::Defeated)
    }
}

/// A random connected graph + placement strategy.
fn instance_strategy() -> impl Strategy<Value = Bicolored> {
    (4usize..10, 0.05f64..0.5, any::<u64>(), 1usize..4).prop_map(|(n, p, seed, r)| {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lemma_2_1_equal_lab_class_sizes(bc in instance_strategy()) {
        let size = automorphism::lab_class_common_size(&bc);
        prop_assert!(size.is_ok(), "Lemma 2.1 violated: {size:?}");
    }

    #[test]
    fn equation_1_lab_refines_view(bc in instance_strategy()) {
        prop_assert!(symmetricity::equation_1_holds(&bc));
    }

    #[test]
    fn lab_refines_node_equivalence(bc in instance_strategy()) {
        prop_assert!(automorphism::lab_refines_node_equivalence(&bc));
    }

    #[test]
    fn surroundings_agree_with_orbits(bc in instance_strategy()) {
        let oc = ordered_classes(&bc);
        let orbits = automorphism::node_equivalence(&bc);
        prop_assert_eq!(oc.k(), orbits.k);
        for class in &oc.classes {
            let o = orbits.class[class.nodes[0]];
            for &v in &class.nodes {
                prop_assert_eq!(orbits.class[v], o);
            }
        }
    }

    #[test]
    fn schedule_final_d_is_the_gcd(bc in instance_strategy()) {
        let oc = ordered_classes(&bc);
        let sizes: Vec<usize> = oc.classes.iter().map(|c| c.len()).collect();
        let schedule = Schedule::from_class_sizes(&sizes, oc.ell);
        let expected = sizes.iter().fold(0usize, |a, &b| gcd(a, b));
        prop_assert_eq!(schedule.final_d, expected);
    }

    #[test]
    fn classes_are_labeling_invariant(bc in instance_strategy(), seed in any::<u64>()) {
        let scrambled = qelect_graph::labeling::scramble(bc.graph(), seed).unwrap();
        let sc = Bicolored::new(scrambled, bc.homebases()).unwrap();
        let a: Vec<usize> = ordered_classes(&bc).classes.iter().map(|c| c.len()).collect();
        let b: Vec<usize> = ordered_classes(&sc).classes.iter().map(|c| c.len()).collect();
        prop_assert_eq!(a, b);
    }
}

proptest! {
    // Simulation-heavy properties get fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn map_drawing_reconstructs_instance(bc in instance_strategy(), seed in any::<u64>()) {
        let (tx, rx) = std::sync::mpsc::channel();
        let agents: Vec<DrawMap> = (0..bc.r()).map(|_| DrawMap(tx.clone())).collect();
        let cfg = RunConfig { seed, ..RunConfig::default() };
        let report = run_sim_faulty(&bc, cfg, &FaultPlan::none(), agents)
            .expect("sim run failed");
        prop_assert!(report.interrupted.is_none());
        drop(tx);
        for map in rx {
            let drawn = map.to_bicolored();
            let a = ColoredDigraph::from_bicolored(&drawn);
            let b = ColoredDigraph::from_bicolored(&bc);
            prop_assert!(are_isomorphic(&a, &b));
        }
    }

    #[test]
    fn elect_matches_oracle_on_random_instances(bc in instance_strategy(), seed in any::<u64>()) {
        let report = run_elect(&bc, RunConfig { seed, ..RunConfig::default() });
        let expected = elect_succeeds(&bc);
        prop_assert!(report.interrupted.is_none(), "interrupted: {:?}", report.interrupted);
        if expected {
            prop_assert!(report.clean_election(), "{:?}", report.outcomes);
        } else {
            prop_assert!(report.unanimous_unsolvable(), "{:?}", report.outcomes);
        }
    }
}

proptest! {
    // The schedule-adversary matrix: ELECT's verdict is a property of
    // the *instance* (Theorem 3.1), so it must not depend on which
    // adversary drives the interleaving. Each random instance is run
    // under the deterministic policies, several random schedules, and a
    // small bounded exploration — all must agree with the gcd oracle.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn elect_verdict_survives_every_scheduling_adversary(
        bc in instance_strategy(),
        seed in any::<u64>(),
    ) {
        use qelect_agentsim::sched::Policy;
        let expected = elect_succeeds(&bc);

        for policy in [Policy::Lockstep, Policy::RoundRobin, Policy::GreedyLowest] {
            let report = run_elect(&bc, RunConfig { seed, policy, ..RunConfig::default() });
            prop_assert!(report.interrupted.is_none(), "{policy:?} interrupted");
            prop_assert_eq!(
                report.clean_election(), expected,
                "{:?} disagrees with the oracle: {:?}", policy, report.outcomes
            );
            if !expected {
                prop_assert!(report.unanimous_unsolvable(), "{:?}: {:?}", policy, report.outcomes);
            }
        }

        for k in 0..3u64 {
            let cfg = RunConfig {
                seed: seed ^ (k.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                policy: Policy::Random,
                ..RunConfig::default()
            };
            let report = run_elect(&bc, cfg);
            prop_assert_eq!(
                report.clean_election(), expected,
                "random schedule #{} disagrees: {:?}", k, report.outcomes
            );
        }

        let ecfg = ExploreConfig {
            preemption_bound: 1,
            max_schedules: 12,
            swarm_runs: 4,
            swarm_seed: seed,
            ..ExploreConfig::default()
        };
        let report = explore_elect(&bc, RunConfig { seed, ..RunConfig::default() }, &ecfg);
        prop_assert!(
            report.counterexample().is_none(),
            "exploration found a schedule disagreeing with the oracle: {:?}",
            report.counterexample().map(|ce| &ce.violation)
        );
    }
}
