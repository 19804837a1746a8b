//! The seeded instance generator shared by `elect-cold` and the cold
//! arrivals of `serve-mixed`.
//!
//! Instances come in rounds: one per (family, size stratum), shuffled.
//! Sizes are log-uniform between `N_MIN` and the generator's maximum,
//! stratified so every round covers the whole range. Stratifying is what
//! keeps medians and tails comparable across seeds: ELECT's preparation
//! cost grows like n^2.7, so an unstratified draw of a hundred sizes moves
//! the median election by tens of percent from seed to seed.
//!
//! Every instance is new: its canonical form (of the bi-colored digraph,
//! so of `(G, p)` up to isomorphism) is checked against all earlier ones.
//! Its verdict comes from an oracle that does not touch COMPUTE & ORDER:
//! the gcd of the orbit sizes of the colour-preserving automorphism
//! group, computed once here, outside any timing.

use std::collections::HashSet;

use qelect_bench::spec::InstanceSpec;
use qelect_graph::automorphism::node_equivalence_full;
use qelect_graph::surrounding::gcd;

use crate::stats::Rng;

pub const FAMILIES: [&str; 7] = [
    "cycle",
    "circulant",
    "torus",
    "grid",
    "hypercube",
    "gp",
    "random",
];

const N_MIN: f64 = 16.0;

/// One generated instance with its oracle verdict.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Spec in the `family:params@agents` grammar.
    pub spec: String,
    /// gcd of the automorphism-orbit sizes: ELECT must elect iff 1.
    pub gcd: usize,
}

impl Instance {
    pub fn solvable(&self) -> bool {
        self.gcd == 1
    }
}

/// Canonical form and oracle gcd of a spec, or `None` if it does not
/// build.
pub fn oracle(spec: &str) -> Option<(Vec<u64>, usize)> {
    let bc = InstanceSpec::parse(spec).ok()?.bicolored().ok()?;
    let res = node_equivalence_full(&bc);
    let mut sizes = vec![0usize; res.orbit_count];
    for &o in &res.orbits {
        sizes[o as usize] += 1;
    }
    Some((res.form.0, sizes.into_iter().fold(0, gcd)))
}

pub struct Generator {
    rng: Rng,
    n_max: f64,
    strata: usize,
    seen: HashSet<Vec<u64>>,
    round_no: usize,
}

/// The cost-relevant choices for one slot of a round.
#[derive(Clone, Copy)]
struct Shape {
    /// Node count to aim for.
    target: f64,
    /// In `[0, 1)`: aspect ratio of tori and grids.
    aspect: f64,
    /// Order of the placement's symmetry (1 = none).
    d: usize,
    /// Selects the agent count.
    pick: usize,
}

impl Generator {
    pub fn new(seed: u64, n_max: usize, strata: usize) -> Generator {
        Generator {
            rng: Rng::new(seed),
            n_max: n_max as f64,
            strata,
            seen: HashSet::new(),
            round_no: 0,
        }
    }

    /// Never generate an instance isomorphic to `spec`.
    pub fn exclude(&mut self, spec: &str) {
        if let Some((form, _)) = oracle(spec) {
            self.seen.insert(form);
        }
    }

    /// Instances per round.
    pub fn round_len(&self) -> usize {
        FAMILIES.len() * self.strata
    }

    /// The next round: one fresh instance per (family, stratum), in a
    /// seeded order.
    ///
    /// What drives an election's cost (family, size, agent count, shape)
    /// is a function of the round number and the slot, not of the seed:
    /// within-stratum positions follow a golden-ratio sequence over the
    /// rounds. The seed picks everything else: which nodes hold agents,
    /// circulant and `gp` offsets, random graphs. So every seed sees the
    /// same cost profile on different instances.
    pub fn round(&mut self) -> Vec<Instance> {
        let mut out = Vec::with_capacity(self.round_len());
        for (fi, &family) in FAMILIES.iter().enumerate() {
            for s in 0..self.strata {
                let slot = fi * self.strata + s;
                let spread =
                    |k: f64| (k * 0.618_033_988_75 + slot as f64 * 0.414_213_562_4).fract();
                let t = (s as f64 + spread(self.round_no as f64)) / self.strata as f64;
                let shape = Shape {
                    target: N_MIN * (self.n_max / N_MIN).powf(t),
                    aspect: spread(self.round_no as f64 + 0.5),
                    // A third of the slots use a placement symmetric
                    // under a rotation or reflection of order `d`, the
                    // source of gcd > 1 verdicts.
                    d: if (fi + s) % 3 == 0 {
                        2 + (self.round_no + s) % 2
                    } else {
                        1
                    },
                    pick: self.round_no + slot,
                };
                out.push(self.fresh(family, &shape));
            }
        }
        self.round_no += 1;
        self.rng.shuffle(&mut out);
        out
    }

    fn fresh(&mut self, family: &str, shape: &Shape) -> Instance {
        for attempt in 0..200 {
            // Small families run out of placements (Q4 has four for two
            // agents): after repeated duplicates, vary the agent count,
            // then grow the graph.
            let shape = Shape {
                pick: shape.pick + attempt / 10,
                target: shape.target * 2f64.powi(attempt as i32 / 40),
                ..*shape
            };
            let spec = self.candidate(family, &shape);
            let (form, gcd) = oracle(&spec).expect("generated specs build");
            if self.seen.insert(form) {
                return Instance { spec, gcd };
            }
        }
        panic!(
            "no new {family} instance near n = {:.0} after 200 draws",
            shape.target
        );
    }

    /// A second offset `k` in `lo..n/2` for a circulant `(1, k)` or a
    /// generalized Petersen graph, skipping offsets that add symmetry:
    /// with `k*k = ±1 (mod n)` multiplying by `k` is an automorphism, and
    /// the circulant `(1, n/2 - 1)` has twin nodes `i`, `i + n/2` and so
    /// 2^(n/2) automorphisms. COMPUTE & ORDER on those takes seconds
    /// instead of milliseconds, so one of them would make most of a run.
    fn offset(&mut self, n: usize, lo: usize) -> usize {
        loop {
            let k = self.rng.range(lo, (n - 1) / 2);
            let sq = k * k % n;
            let twins = lo > 1 && n.is_multiple_of(2) && k == n / 2 - 1;
            if k == 1 || (sq != 1 && sq != n - 1 && !twins) {
                return k;
            }
        }
    }

    /// `k` distinct nodes drawn from `0..n` whose images under `orbit`
    /// are all distinct too, then the full orbits.
    fn place(&mut self, n: usize, k: usize, orbit: impl Fn(usize) -> Vec<usize>) -> Vec<usize> {
        let mut taken: HashSet<usize> = HashSet::new();
        let mut agents = Vec::new();
        while agents.len() < k * orbit(0).len() {
            let v = self.rng.range(0, n - 1);
            let images = orbit(v);
            let distinct: HashSet<usize> = images.iter().copied().collect();
            if distinct.len() == images.len() && images.iter().all(|x| !taken.contains(x)) {
                taken.extend(images.iter().copied());
                agents.extend(images);
            }
        }
        agents
    }

    fn candidate(&mut self, family: &str, shape: &Shape) -> String {
        let (target, d) = (shape.target, shape.d);
        // 2..=6 agents: with a symmetry of order d, a multiple of d.
        let r = match d {
            1 => 2 + shape.pick % 5,
            2 => 2 + 2 * (shape.pick % 3),
            _ => 3 + 3 * (shape.pick % 2),
        };
        let round_to = |x: f64, m: usize, lo: usize| ((x / m as f64).round() as usize * m).max(lo);
        let (fam, agents) = match family {
            "cycle" | "circulant" => {
                let n = round_to(target, d, 8);
                let step = n / d;
                let agents = self.place(n, r / d, |v| (0..d).map(|j| (v + j * step) % n).collect());
                let fam = if family == "cycle" {
                    format!("cycle:{n}")
                } else {
                    format!("circulant:{n}:1,{}", self.offset(n, 2))
                };
                (fam, agents)
            }
            "torus" => {
                let a = round_to(
                    target.sqrt() * (0.8 + 0.4 * shape.aspect),
                    d,
                    if d == 2 { 4 } else { 3 },
                );
                let b = ((target / a as f64).round() as usize).max(3);
                let n = a * b;
                let step = a / d;
                let agents = self.place(n, r / d, |v| {
                    (0..d)
                        .map(|j| (v % a + j * step) % a + (v / a) * a)
                        .collect()
                });
                (format!("torus:{a}x{b}"), agents)
            }
            "grid" | "hypercube" => {
                // Order-2 symmetries only: the grid's half-turn and the
                // hypercube's antipodal map, both `v -> n - 1 - v`.
                let d = d.min(2);
                let r = if d == 2 { 2 * r.div_ceil(2) } else { r };
                let (fam, n) = if family == "grid" {
                    let w = ((target.sqrt() * (0.7 + 0.6 * shape.aspect)).round() as usize).max(2);
                    let h = ((target / w as f64).round() as usize).max(2);
                    (format!("grid:{w}x{h}"), w * h)
                } else {
                    // Q8 elects in 0.3 to 1.2 s depending on the placement:
                    // one such outlier would dominate a run's mean.
                    let cap = (self.n_max.log2().floor() as usize).min(7);
                    let dim = (target.log2().round() as usize).clamp(4, cap);
                    (format!("hypercube:{dim}"), 1 << dim)
                };
                let agents =
                    self.place(
                        n,
                        r / d,
                        |v| {
                            if d == 2 {
                                vec![v, n - 1 - v]
                            } else {
                                vec![v]
                            }
                        },
                    );
                (fam, agents)
            }
            "gp" => {
                let m = round_to(target / 2.0, d, 6);
                let k = self.offset(m, 1);
                let step = m / d;
                let agents = self.place(2 * m, r / d, |v| {
                    (0..d)
                        .map(|j| (v / m) * m + (v % m + j * step) % m)
                        .collect()
                });
                (format!("gp:{m}:{k}"), agents)
            }
            "random" => {
                let n = (target.round() as usize).max(8);
                let p = 2.0 / n as f64;
                let seed = self.rng.next_u64() % 1_000_000;
                let agents = self.place(n, r, |v| vec![v]);
                (format!("random:{n}:{p:.5}:{seed}"), agents)
            }
            other => unreachable!("unknown family {other}"),
        };
        let list: Vec<String> = agents.iter().map(|a| a.to_string()).collect();
        format!("{fam}@{}", list.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qelect_bench::spec::family_of;

    #[test]
    fn same_seed_same_instances() {
        let a: Vec<String> = Generator::new(3, 120, 2)
            .round()
            .into_iter()
            .map(|i| i.spec)
            .collect();
        let b: Vec<String> = Generator::new(3, 120, 2)
            .round()
            .into_iter()
            .map(|i| i.spec)
            .collect();
        let c: Vec<String> = Generator::new(4, 120, 2)
            .round()
            .into_iter()
            .map(|i| i.spec)
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn rounds_cover_every_family_and_never_repeat_an_instance() {
        let mut g = Generator::new(11, 120, 2);
        g.exclude("cycle:12@0,1,3");
        let mut forms = HashSet::new();
        forms.insert(oracle("cycle:12@0,1,3").unwrap().0);
        let mut solvable = 0;
        let mut unsolvable = 0;
        for _ in 0..4 {
            let round = g.round();
            assert_eq!(round.len(), g.round_len());
            for family in FAMILIES {
                let count = round
                    .iter()
                    .filter(|i| family_of(&i.spec) == family)
                    .count();
                assert_eq!(count, 2, "{family}");
            }
            for inst in round {
                let (form, gcd) = oracle(&inst.spec).unwrap();
                let n = InstanceSpec::parse(&inst.spec).unwrap().graph.n();
                assert!(forms.insert(form), "isomorphic duplicate {}", inst.spec);
                assert_eq!(gcd, inst.gcd);
                let r = inst.spec.split('@').nth(1).unwrap().split(',').count();
                assert!((2..=6).contains(&r), "{}", inst.spec);
                assert!(n <= 130, "{}", inst.spec);
                if inst.solvable() {
                    solvable += 1;
                } else {
                    unsolvable += 1;
                }
            }
        }
        assert!(solvable > 0 && unsolvable > 0, "{solvable} / {unsolvable}");
    }

    #[test]
    fn small_families_do_not_run_out() {
        // Far more rounds than Q4 and Q5 have placements for.
        let mut g = Generator::new(5, 40, 1);
        let mut forms = HashSet::new();
        for _ in 0..40 {
            for inst in g.round() {
                assert!(forms.insert(oracle(&inst.spec).unwrap().0), "{}", inst.spec);
            }
        }
    }

    #[test]
    fn oracle_matches_known_verdicts() {
        assert_eq!(oracle("cycle:9@0,1,3").unwrap().1, 1);
        assert_eq!(oracle("cycle:6@0,3").unwrap().1, 2);
        assert_eq!(oracle("petersen@0,1").unwrap().1, 2);
    }
}
