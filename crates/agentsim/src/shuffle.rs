//! Deterministic per-(agent, node) port scrambling.
//!
//! Each agent's private encoding of the port symbols at a node is a
//! Fisher–Yates shuffle driven by a splitmix64 counter RNG, so that every
//! bit of `(seed, agent, node)` influences every swap — two agents at the
//! same node see independent orders, and one agent sees the same order on
//! every visit.

use qelect_graph::Port;

#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Permute `items` in place by the agent's scramble at a node. The
/// permutation depends only on `(seed, agent, node)` and `items.len()`,
/// so scrambling any list of a node's incidences (symbols, slots) in
/// increasing port order moves entry `k` to the same local port.
pub fn scramble<T>(seed: u64, agent: usize, node: usize, items: &mut [T]) {
    let base = mix(seed)
        ^ mix((agent as u64).wrapping_add(0xA6E17))
        ^ mix((node as u64).wrapping_add(0x170DE));
    let mut ctr = 0u64;
    for i in (1..items.len()).rev() {
        ctr += 1;
        let j = (mix(base.wrapping_add(ctr)) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// The agent's local-port → symbol table at a node: index `i` of the
/// result is the symbol behind the agent's `LocalPort(i)`.
pub fn scrambled_ports(seed: u64, agent: usize, node: usize, mut syms: Vec<Port>) -> Vec<Port> {
    scramble(seed, agent, node, &mut syms);
    syms
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ports(n: u32) -> Vec<Port> {
        (0..n).map(Port).collect()
    }

    #[test]
    fn stable_per_key() {
        assert_eq!(
            scrambled_ports(1, 2, 3, ports(5)),
            scrambled_ports(1, 2, 3, ports(5))
        );
    }

    #[test]
    fn agents_differ_somewhere_even_at_degree_two() {
        // Regression: the previous xorshift never mixed the agent id into
        // the low bits, making all degree-2 scrambles agree.
        let differs = (0..6).any(|node| {
            scrambled_ports(99, 0, node, ports(2)) != scrambled_ports(99, 1, node, ports(2))
        });
        assert!(differs);
    }

    #[test]
    fn result_is_permutation() {
        let mut s = scrambled_ports(7, 3, 11, ports(8));
        s.sort();
        assert_eq!(s, ports(8));
    }

    #[test]
    fn seeds_differ() {
        let a = scrambled_ports(1, 0, 0, ports(6));
        let b = scrambled_ports(2, 0, 0, ports(6));
        assert_ne!(a, b);
    }
}
