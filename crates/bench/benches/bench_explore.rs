//! Harness costs of the determinism machinery: the overhead of trace
//! recording on a normal run, the cost of a strict bit-for-bit replay,
//! and how bounded schedule exploration scales with the preemption
//! bound.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qelect::prelude::*;
// The recording/replay/exploration drivers take the engine's per-run
// config struct.
use qelect_agentsim::sim::RunConfig;
use qelect_graph::{families, Bicolored};

/// Crash-free ELECT on the sim engine.
fn run_elect(bc: &Bicolored, cfg: RunConfig) -> RunReport {
    let agents = vec![ElectProtocol::default(); bc.r()];
    qelect_agentsim::run_sim_faulty(bc, cfg, &FaultPlan::none(), agents).expect("sim run failed")
}

fn bench_recording_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("explore/recording-overhead");
    let bc = Bicolored::new(families::cycle(8).unwrap(), &[0, 1, 3]).unwrap();
    for record in [false, true] {
        group.bench_with_input(
            BenchmarkId::from_parameter(if record { "recorded" } else { "plain" }),
            &bc,
            |b, bc| {
                b.iter(|| {
                    let cfg = RunConfig {
                        seed: 1,
                        record_trace: record,
                        ..RunConfig::default()
                    };
                    let report = run_elect(bc, cfg);
                    assert!(report.clean_election());
                    report.metrics.steps
                })
            },
        );
    }
    group.finish();
}

fn bench_strict_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("explore/strict-replay");
    let bc = Bicolored::new(families::cycle(8).unwrap(), &[0, 1, 3]).unwrap();
    let cfg = RunConfig {
        seed: 1,
        ..RunConfig::default()
    };
    let (original, trace) = run_elect_recorded(&bc, cfg, "bench witness");
    assert!(original.clean_election());
    group.bench_function("replay", |b| {
        b.iter(|| {
            let report = replay_elect(&bc, &trace, true);
            assert_eq!(report.leader, original.leader);
            report.metrics.steps
        })
    });
    group.finish();
}

fn bench_bounded_exploration(c: &mut Criterion) {
    let mut group = c.benchmark_group("explore/bounded-dfs");
    let bc = Bicolored::new(families::cycle(5).unwrap(), &[0, 1]).unwrap();
    for bound in [0usize, 1, 2] {
        group.bench_with_input(BenchmarkId::from_parameter(bound), &bc, |b, bc| {
            b.iter(|| {
                let ecfg = ExploreConfig {
                    preemption_bound: bound,
                    max_schedules: 24,
                    swarm_runs: 0,
                    swarm_seed: 1,
                    ..ExploreConfig::default()
                };
                let cfg = RunConfig {
                    seed: 1,
                    ..RunConfig::default()
                };
                let report = explore_elect(bc, cfg, &ecfg);
                assert!(report.passed());
                report.schedules_explored
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1500));
    targets = bench_recording_overhead, bench_strict_replay, bench_bounded_exploration
}
criterion_main!(benches);
