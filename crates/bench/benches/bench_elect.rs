//! E4 — end-to-end protocol ELECT runs (Theorem 3.1's pipeline), per
//! family and size. Criterion tracks wall time; the `table_moves` binary
//! reports the move/access counts the theorem actually bounds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qelect::prelude::*;
// These benches time the engine directly, so they use its per-run
// config struct.
use qelect_agentsim::sim::RunConfig;
use qelect_graph::{families, Bicolored};

/// Crash-free ELECT on the sim engine.
fn run_elect(bc: &Bicolored, cfg: RunConfig) -> RunReport {
    let agents = vec![ElectProtocol::default(); bc.r()];
    qelect_agentsim::run_sim_faulty(bc, cfg, &FaultPlan::none(), agents).expect("sim run failed")
}

fn bench_elect_cycles(c: &mut Criterion) {
    let mut group = c.benchmark_group("elect/cycle");
    for n in [8usize, 12, 16] {
        let bc = Bicolored::new(families::cycle(n).unwrap(), &[0, 1, 3]).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(n), &bc, |b, bc| {
            b.iter(|| {
                let report = run_elect(bc, RunConfig::default());
                assert!(report.clean_election());
                report.metrics.total_work()
            })
        });
    }
    group.finish();
}

fn bench_elect_families(c: &mut Criterion) {
    let mut group = c.benchmark_group("elect/family");
    let cases = vec![
        (
            "Q3-r3",
            Bicolored::new(families::hypercube(3).unwrap(), &[0, 1, 3]).unwrap(),
        ),
        (
            "torus3x3-r2",
            Bicolored::new(families::torus(&[3, 3]).unwrap(), &[0, 4]).unwrap(),
        ),
        (
            "petersen-r2",
            Bicolored::new(families::petersen().unwrap(), &[0, 1]).unwrap(),
        ),
    ];
    for (label, bc) in cases {
        group.bench_with_input(BenchmarkId::from_parameter(label), &bc, |b, bc| {
            b.iter(|| {
                let report = run_elect(bc, RunConfig::default());
                assert!(report.interrupted.is_none());
                report.metrics.total_work()
            })
        });
    }
    group.finish();
}

fn bench_quantitative_baseline(c: &mut Criterion) {
    let mut group = c.benchmark_group("elect/quantitative-baseline");
    for n in [8usize, 16] {
        let bc = Bicolored::new(families::cycle(n).unwrap(), &[0, 1, 3]).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(n), &bc, |b, bc| {
            b.iter(|| {
                let report = run_quantitative(bc, &Default::default(), &[5, 9, 2])
                    .expect("crash-free runs cannot fail")
                    .report;
                assert!(report.clean_election());
                report.metrics.total_work()
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
    targets = bench_elect_cycles, bench_elect_families, bench_quantitative_baseline
}
criterion_main!(benches);
