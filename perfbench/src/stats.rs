//! Order statistics, the host-speed probe, and the small seeded
//! generator every workload draws its inputs from.

use std::time::{Duration, Instant};

/// SplitMix64: a tiny, fully specified PRNG, so a workload's inputs are
/// a function of `--seed` alone and never of a library's RNG choice.
#[derive(Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Exponential with the given rate (inter-arrival time of a Poisson
    /// process).
    pub fn exp(&mut self, rate: f64) -> f64 {
        -(1.0 - self.f64()).ln() / rate
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.range(0, i));
        }
    }
}

/// Seconds a fixed piece of the benchmark's own work takes: sorting and
/// hashing pseudo-random integers, the kind of work graph code does. It
/// does not call the program, so it times the host alone.
pub fn host_probe() -> f64 {
    let t = Instant::now();
    let mut rng = Rng::new(0xCA11B);
    let mut v: Vec<u64> = (0..1 << 15).map(|_| rng.next_u64()).collect();
    v.sort_unstable();
    let set: std::collections::HashSet<u64> = v.iter().map(|x| x % 50_000).collect();
    std::hint::black_box(set.len());
    t.elapsed().as_secs_f64()
}

/// How fast the host ran during a run, from `host_probe` samples taken
/// between timed operations.
///
/// The shared host runs a fixed loop up to a quarter slower for minutes
/// at a time, longer than a run, so no statistic within one run removes
/// it. The in-process workloads therefore scale their times by this
/// run's probe time against `REFERENCE_S`: a time is reported as it
/// would read on the host running at reference speed.
pub struct HostSpeed {
    samples: Vec<f64>,
    last: Instant,
}

impl HostSpeed {
    /// The probe's p10 on the development host (2-core x86-64) when
    /// quiet.
    const REFERENCE_S: f64 = 1.2e-3;
    /// Probe at most this often: about 1 % of the run.
    const EVERY: Duration = Duration::from_millis(150);

    pub fn new() -> HostSpeed {
        HostSpeed {
            samples: vec![host_probe()],
            last: Instant::now(),
        }
    }

    /// Probe again if the last probe is old enough; call between timed
    /// operations.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= Self::EVERY {
            self.samples.push(host_probe());
            self.last = Instant::now();
        }
    }

    /// How many times slower than the reference the host ran: the p10
    /// of the probes, which like a best time over repeats is the probe
    /// the host disturbed least, over the reference.
    pub fn slowdown(&self) -> f64 {
        percentile(&sorted(self.samples.clone()), 0.1) / Self::REFERENCE_S
    }

    pub fn note(&self) -> String {
        format!(
            "host probe: {} samples, p10 {:.4} ms, slowdown {:.4} against {} ms",
            self.samples.len(),
            percentile(&sorted(self.samples.clone()), 0.1) * 1e3,
            self.slowdown(),
            Self::REFERENCE_S * 1e3
        )
    }
}

/// Nearest-rank percentile of a sorted sample, `q` in `(0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(sorted: &[f64]) -> f64 {
    percentile(sorted, 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Samples strictly above the nearest-rank `q` percentile of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// Percentiles a report may use, highest first.
const LADDER: [f64; 5] = [0.99, 0.95, 0.9, 0.75, 0.5];

/// The tail percentile to report for `n` samples: the highest ladder
/// percentile not above `wanted` that still has at least ten samples
/// beyond it. A workload sizes its runs so that `wanted` itself holds.
pub fn tail_quantile(n: usize, wanted: f64) -> f64 {
    LADDER
        .iter()
        .copied()
        .filter(|&q| q <= wanted)
        .find(|&q| beyond(n, q) >= 10)
        .unwrap_or(0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(tail_quantile(100, 0.9), 0.9);
        assert_eq!(tail_quantile(99, 0.9), 0.75);
        assert_eq!(tail_quantile(1000, 0.99), 0.99);
        assert_eq!(tail_quantile(999, 0.99), 0.95);
        assert_eq!(
            tail_quantile(100_000, 0.9),
            0.9,
            "never above the wanted tail"
        );
        assert_eq!(tail_quantile(5, 0.99), 0.5, "falls back to the median");
        for n in [40, 100, 250, 1000, 5000] {
            let q = tail_quantile(n, 0.99);
            assert!(beyond(n, q) >= 10 || q == 0.5, "n={n} q={q}");
        }
    }

    #[test]
    fn rng_is_deterministic_and_in_range() {
        let a: Vec<u64> = {
            let mut r = Rng::new(5);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(5);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut r = Rng::new(9);
        for _ in 0..1000 {
            let x = r.range(2, 6);
            assert!((2..=6).contains(&x));
            let f = r.f64();
            assert!((0.0..1.0).contains(&f));
        }
    }
}
