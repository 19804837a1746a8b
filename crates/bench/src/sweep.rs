//! The parallel batch sweep engine.
//!
//! E5-style sweeps evaluate Protocol ELECT against the gcd oracle over
//! large families of random instances. This module is the scalable
//! engine behind `qelectctl sweep` and the `bench_sweep` criterion
//! target:
//!
//! * **Work-stealing fan-out** — trials are dealt round-robin onto
//!   per-worker deques; a worker pops its own queue from the front and,
//!   when empty, steals from the back of a victim's. Workers are plain
//!   `std::thread`s reporting over a channel (the workspace builds
//!   offline against the vendored `compat` crates, so no rayon).
//! * **Deterministic aggregation** — every trial is a pure function of
//!   `(config, bucket, trial-index)`, results are reassembled into
//!   trial order before any statistic is folded, and floating-point
//!   sums therefore associate identically for 1, 2, or 64 workers. The
//!   N-thread vs 1-thread equivalence suite pins this.
//! * **Cache-aware** — the hot path (`COMPUTE & ORDER` via
//!   `qelect_graph::cache`) is memoized process-wide; the report carries
//!   the hit/miss/eviction/collision delta observed across the sweep.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crossbeam::channel::unbounded;
use parking_lot::Mutex;
use qelect::prelude::*;
use qelect_agentsim::sched::Policy;
use qelect_graph::cache::{self, ordered_classes_cached, CacheStats};
use qelect_graph::{families, Bicolored};

use crate::{header, row};

/// The scheduler policies a sweep rotates through.
pub const SWEEP_POLICIES: [Policy; 4] = [
    Policy::Random,
    Policy::RoundRobin,
    Policy::Lockstep,
    Policy::GreedyLowest,
];

/// One size/density bucket of random instances.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepBucket {
    /// Smallest node count (inclusive).
    pub n_lo: usize,
    /// Largest node count (exclusive).
    pub n_hi: usize,
    /// Extra-edge probability of the random connected graph.
    pub p: f64,
}

impl SweepBucket {
    /// Display label, e.g. `n∈[8,12) p=0.3`.
    pub fn label(&self) -> String {
        format!("n∈[{},{}) p={}", self.n_lo, self.n_hi, self.p)
    }
}

/// The E5-style default buckets.
pub fn default_buckets() -> Vec<SweepBucket> {
    vec![
        SweepBucket {
            n_lo: 5,
            n_hi: 8,
            p: 0.2,
        },
        SweepBucket {
            n_lo: 8,
            n_hi: 12,
            p: 0.3,
        },
        SweepBucket {
            n_lo: 12,
            n_hi: 16,
            p: 0.15,
        },
    ]
}

/// Configuration of a sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Trials per bucket.
    pub trials: usize,
    /// Worker threads (≥ 1).
    pub workers: usize,
    /// Base seed; every trial derives its instance and run seeds from it.
    pub seed0: u64,
    /// Protocol runs per instance (rotating policies). Values > 1
    /// re-evaluate the same instance under different schedules — the
    /// robustness matrix E5 sweeps, and the memo cache's best case.
    pub repeats: usize,
    /// The size/density buckets.
    pub buckets: Vec<SweepBucket>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            trials: 60,
            workers: 1,
            seed0: 0,
            repeats: 2,
            buckets: default_buckets(),
        }
    }
}

/// The outcome of one trial — a pure function of `(config, bucket,
/// trial)`, independent of worker count, scheduling, and cache state.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialOutcome {
    /// Bucket index.
    pub bucket: usize,
    /// Trial index within the bucket.
    pub trial: usize,
    /// Whether the derived placement was collision-free (counted trial).
    pub valid: bool,
    /// Whether every repeat agreed with the gcd oracle.
    pub agree: bool,
    /// The oracle's verdict.
    pub solvable: bool,
    /// Mean `total_work / (r·|E|)` over the repeats.
    pub work_ratio: f64,
}

/// Aggregated statistics of one bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct BucketStats {
    /// Bucket label.
    pub label: String,
    /// Collision-free trials.
    pub valid: usize,
    /// Trials whose every repeat agreed with the oracle.
    pub agree: usize,
    /// Oracle-solvable trials.
    pub solvable: usize,
    /// Oracle-unsolvable trials.
    pub unsolvable: usize,
    /// Mean work ratio over valid trials.
    pub avg_work_ratio: f64,
}

/// The result of a sweep.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Per-bucket aggregates, in bucket order.
    pub buckets: Vec<BucketStats>,
    /// Total valid trials.
    pub total_valid: usize,
    /// Total agreeing trials (must equal `total_valid`).
    pub total_agree: usize,
    /// Canonical-form cache activity observed across the sweep
    /// (process-global counters; delta from sweep start to end).
    pub cache: CacheStats,
    /// Wall-clock duration of the sweep.
    pub wall: Duration,
    /// Worker threads used.
    pub workers: usize,
}

impl SweepReport {
    /// Whether ELECT agreed with the gcd oracle on every valid trial.
    pub fn all_agree(&self) -> bool {
        self.total_agree == self.total_valid
    }

    /// Render the paper-shaped table plus the cache/wall summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&header(&[
            "bucket",
            "valid trials",
            "agree",
            "solvable",
            "unsolvable",
            "avg work/(r·|E|)",
        ]));
        out.push('\n');
        for b in &self.buckets {
            out.push_str(&row(&[
                b.label.clone(),
                b.valid.to_string(),
                b.agree.to_string(),
                b.solvable.to_string(),
                b.unsolvable.to_string(),
                format!("{:.1}", b.avg_work_ratio),
            ]));
            out.push('\n');
        }
        out.push_str(&format!(
            "\ntotal agreement: {}/{} · workers: {} · wall: {:.2?}\n",
            self.total_agree, self.total_valid, self.workers, self.wall
        ));
        out.push_str(&format!(
            "canon cache: {} hits / {} misses (hit rate {:.1}%), {} evictions, {} fingerprint collisions\n",
            self.cache.hits,
            self.cache.misses,
            100.0 * self.cache.hit_rate(),
            self.cache.evictions,
            self.cache.collisions,
        ));
        out
    }
}

/// Run one trial. Pure in `(cfg, bucket-index, trial-index)`: the
/// instance, the run seeds and the rotating policies all derive from
/// the indices, so the outcome is identical no matter which worker
/// executes it or what the memo cache contains.
pub fn run_trial(cfg: &SweepConfig, bi: usize, t: usize) -> TrialOutcome {
    let bucket = &cfg.buckets[bi];
    let seed = cfg.seed0 + (bi * 1_000 + t) as u64;
    let span = bucket.n_hi - bucket.n_lo;
    let n = bucket.n_lo + (seed as usize % span.max(1));
    let g = families::random_connected(n, bucket.p, seed).expect("valid bucket parameters");
    let r = 1 + (seed as usize % 3.min(n));
    let homes: Vec<usize> = (0..r).map(|i| (i * 7 + t) % n).collect();
    let mut dedup = homes.clone();
    dedup.sort_unstable();
    dedup.dedup();
    if dedup.len() != homes.len() {
        return TrialOutcome {
            bucket: bi,
            trial: t,
            valid: false,
            agree: false,
            solvable: false,
            work_ratio: 0.0,
        };
    }
    let bc = Bicolored::new(g, &homes).expect("collision-free placement");
    // The gcd oracle (Theorem 3.1).
    let expected = ordered_classes_cached(&bc).gcd_of_sizes() == 1;
    let mut agree = true;
    let mut ratio_sum = 0.0f64;
    for rep in 0..cfg.repeats.max(1) {
        let run_cfg = RunConfig::new(seed ^ ((rep as u64) << 32))
            .policy(SWEEP_POLICIES[(t + rep) % SWEEP_POLICIES.len()]);
        let report = run_election(&bc, &run_cfg)
            .expect("crash-free deterministic runs cannot fail")
            .report;
        let got = if report.clean_election() {
            Some(true)
        } else if report.unanimous_unsolvable() {
            Some(false)
        } else {
            None
        };
        agree = agree && got == Some(expected);
        ratio_sum += report.metrics.total_work() as f64 / (bc.r() * bc.graph().m()) as f64;
    }
    TrialOutcome {
        bucket: bi,
        trial: t,
        valid: true,
        agree,
        solvable: expected,
        work_ratio: ratio_sum / cfg.repeats.max(1) as f64,
    }
}

/// The work-stealing task pool: per-worker deques of task indices.
struct StealPool {
    queues: Vec<Mutex<VecDeque<usize>>>,
    /// Tasks not yet completed — lets idle workers distinguish "all
    /// queues momentarily empty" from "sweep finished".
    remaining: AtomicUsize,
}

impl StealPool {
    fn new(tasks: usize, workers: usize) -> Self {
        let queues: Vec<Mutex<VecDeque<usize>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        // Deal tasks round-robin so every worker starts loaded and
        // stealing only happens at the tail of uneven buckets.
        for task in 0..tasks {
            queues[task % workers].lock().push_back(task);
        }
        StealPool {
            queues,
            remaining: AtomicUsize::new(tasks),
        }
    }

    /// Pop my own queue front, else steal from a victim's back.
    fn take(&self, me: usize) -> Option<usize> {
        if let Some(t) = self.queues[me].lock().pop_front() {
            return Some(t);
        }
        let w = self.queues.len();
        for offset in 1..w {
            let victim = (me + offset) % w;
            if let Some(t) = self.queues[victim].lock().pop_back() {
                return Some(t);
            }
        }
        None
    }

    fn done_one(&self) {
        self.remaining.fetch_sub(1, Ordering::SeqCst);
    }

    fn finished(&self) -> bool {
        self.remaining.load(Ordering::SeqCst) == 0
    }
}

/// Run a sweep with `cfg.workers` threads and aggregate deterministically.
pub fn run_sweep(cfg: &SweepConfig) -> SweepReport {
    assert!(cfg.workers >= 1, "sweep needs at least one worker");
    assert!(!cfg.buckets.is_empty(), "sweep needs at least one bucket");
    let start = Instant::now();
    let cache_before = cache::global().stats();

    let task_count = cfg.buckets.len() * cfg.trials;
    let pool = StealPool::new(task_count, cfg.workers);
    let (tx, rx) = unbounded::<(usize, TrialOutcome)>();

    std::thread::scope(|scope| {
        for me in 0..cfg.workers {
            let pool = &pool;
            let tx = tx.clone();
            let cfg = &*cfg;
            scope.spawn(move || {
                loop {
                    match pool.take(me) {
                        Some(task) => {
                            let bi = task / cfg.trials;
                            let t = task % cfg.trials;
                            let outcome = run_trial(cfg, bi, t);
                            pool.done_one();
                            if tx.send((task, outcome)).is_err() {
                                return; // collector gone — abandon ship
                            }
                        }
                        None => {
                            if pool.finished() {
                                return;
                            }
                            // Another worker still owns in-flight work
                            // that could, in a generalization, spawn
                            // subtasks; yield and re-scan.
                            std::thread::yield_now();
                        }
                    }
                }
            });
        }
        drop(tx);
    });

    // Reassemble into trial order before folding anything: aggregation
    // must not depend on completion order.
    let mut slots: Vec<Option<TrialOutcome>> = vec![None; task_count];
    while let Ok((task, outcome)) = rx.recv() {
        slots[task] = Some(outcome);
    }
    let outcomes: Vec<TrialOutcome> = slots
        .into_iter()
        .map(|s| s.expect("every dealt task reports exactly once"))
        .collect();

    let buckets = aggregate(cfg, &outcomes);
    let total_valid = buckets.iter().map(|b| b.valid).sum();
    let total_agree = buckets.iter().map(|b| b.agree).sum();
    SweepReport {
        buckets,
        total_valid,
        total_agree,
        cache: cache_before.delta(&cache::global().stats()),
        wall: start.elapsed(),
        workers: cfg.workers,
    }
}

/// Fold outcomes (already in trial order) into per-bucket statistics.
fn aggregate(cfg: &SweepConfig, outcomes: &[TrialOutcome]) -> Vec<BucketStats> {
    cfg.buckets
        .iter()
        .enumerate()
        .map(|(bi, bucket)| {
            let mut stats = BucketStats {
                label: bucket.label(),
                valid: 0,
                agree: 0,
                solvable: 0,
                unsolvable: 0,
                avg_work_ratio: 0.0,
            };
            let mut ratio_sum = 0.0f64;
            for o in outcomes.iter().filter(|o| o.bucket == bi && o.valid) {
                stats.valid += 1;
                if o.agree {
                    stats.agree += 1;
                }
                if o.solvable {
                    stats.solvable += 1;
                } else {
                    stats.unsolvable += 1;
                }
                ratio_sum += o.work_ratio;
            }
            if stats.valid > 0 {
                stats.avg_work_ratio = ratio_sum / stats.valid as f64;
            }
            stats
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(workers: usize) -> SweepConfig {
        SweepConfig {
            trials: 6,
            workers,
            seed0: 0,
            repeats: 2,
            buckets: vec![SweepBucket {
                n_lo: 5,
                n_hi: 8,
                p: 0.2,
            }],
        }
    }

    #[test]
    fn sweep_agrees_with_oracle() {
        let report = run_sweep(&small_cfg(2));
        assert!(report.all_agree(), "{}", report.render());
        assert!(report.total_valid > 0);
    }

    #[test]
    fn trial_outcomes_are_pure() {
        let cfg = small_cfg(1);
        let a = run_trial(&cfg, 0, 3);
        let b = run_trial(&cfg, 0, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn steal_pool_drains_exactly_once() {
        let pool = StealPool::new(10, 3);
        let mut seen: Vec<usize> = Vec::new();
        // Worker 1 drains everything (its own queue plus steals).
        while let Some(t) = pool.take(1) {
            seen.push(t);
            pool.done_one();
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert!(pool.finished());
    }

    #[test]
    fn render_mentions_cache_counters() {
        let report = run_sweep(&small_cfg(1));
        let text = report.render();
        assert!(text.contains("canon cache:"));
        assert!(text.contains("hit rate"));
    }
}
