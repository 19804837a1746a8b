//! The map an agent draws of the anonymous network.
//!
//! After MAP-DRAWING, an agent owns a private chart of `G`: nodes are
//! numbered in its own DFS-discovery order, and every edge is recorded
//! with the agent's **local port numbers at both extremities**. The map
//! also records which nodes are home-bases and the colors of their
//! residents. All subsequent computation — equivalence classes, class
//! ordering, routing — is local work on this structure.
//!
//! Map-node numbering is private to the agent; two agents' maps of the
//! same network are isomorphic but generally numbered differently. The
//! protocols never exchange map-node numbers: whiteboard signs carry only
//! colors and protocol-manufactured tags, and agreement across agents
//! rests on isomorphism-invariant computations (canonical class order).

use qelect_agentsim::{Color, LocalPort};
use qelect_graph::{Bicolored, GraphBuilder, Port};

/// One recorded edge endpoint: which map node lies across which local
/// port, and through which of *its* local ports the agent arrives there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapEdge {
    /// The node across the edge.
    pub to: usize,
    /// The agent's local port at the far end (its entry port when
    /// traversing this edge).
    pub far_port: LocalPort,
}

/// An agent's private chart of the network.
#[derive(Debug, Clone)]
pub struct AgentMap {
    /// The edge behind every port, flat: map node `v`'s local ports
    /// `0, 1, …` are the entries `starts[v]..starts[v + 1]` (`None` until
    /// explored; complete maps have no `None`s).
    edges: Vec<Option<MapEdge>>,
    /// Where each map node's ports begin in `edges`, plus the end.
    starts: Vec<usize>,
    /// Home-bases discovered: `(map node, resident color)`.
    homebases: Vec<(usize, Color)>,
}

impl Default for AgentMap {
    fn default() -> AgentMap {
        AgentMap {
            edges: Vec::new(),
            starts: vec![0],
            homebases: Vec::new(),
        }
    }
}

/// Reusable breadth-first-search state for [`AgentMap::route`]: one
/// scratch serves any number of routes, on maps of any size.
#[derive(Debug, Clone, Default)]
pub struct RouteScratch {
    /// `seen[v] == epoch` iff the current search has reached `v`.
    seen: Vec<u32>,
    epoch: u32,
    /// The search-tree edge into each reached node.
    prev: Vec<(usize, LocalPort)>,
    /// The FIFO queue, consumed from the front by index.
    queue: Vec<usize>,
    /// The last route computed.
    route: Vec<LocalPort>,
}

impl AgentMap {
    /// Create an empty map.
    pub fn new() -> AgentMap {
        AgentMap::default()
    }

    /// Register a newly discovered node with the given degree; returns
    /// its map id.
    pub fn add_node(&mut self, degree: usize) -> usize {
        self.edges.resize(self.edges.len() + degree, None);
        self.starts.push(self.edges.len());
        self.n() - 1
    }

    /// Number of nodes discovered so far.
    pub fn n(&self) -> usize {
        self.starts.len() - 1
    }

    /// Degree of a map node.
    pub fn degree(&self, v: usize) -> usize {
        self.starts[v + 1] - self.starts[v]
    }

    /// The edges behind a map node's ports, in local-port order.
    fn ports(&self, v: usize) -> &[Option<MapEdge>] {
        &self.edges[self.starts[v]..self.starts[v + 1]]
    }

    /// Where port `p` of map node `v` sits in `edges`.
    fn slot(&self, v: usize, p: LocalPort) -> usize {
        assert!(
            (p.0 as usize) < self.degree(v),
            "no port {p} at map node {v}"
        );
        self.starts[v] + p.0 as usize
    }

    /// Record the edge `(u, p) ↔ (v, q)` (both directions). Idempotent.
    pub fn record_edge(&mut self, u: usize, p: LocalPort, v: usize, q: LocalPort) {
        let (here, there) = (self.slot(u, p), self.slot(v, q));
        debug_assert!(
            self.edges[here].is_none() || self.edges[here] == Some(MapEdge { to: v, far_port: q }),
            "conflicting edge record at ({u}, {p})"
        );
        self.edges[here] = Some(MapEdge { to: v, far_port: q });
        self.edges[there] = Some(MapEdge { to: u, far_port: p });
    }

    /// The edge behind a port, if explored.
    pub fn edge(&self, v: usize, p: LocalPort) -> Option<MapEdge> {
        self.edges[self.slot(v, p)]
    }

    /// First unexplored port at a node, if any.
    pub fn unexplored_port(&self, v: usize) -> Option<LocalPort> {
        self.ports(v)
            .iter()
            .position(|e| e.is_none())
            .map(|i| LocalPort(i as u32))
    }

    /// Whether every port of every node is explored.
    pub fn is_complete(&self) -> bool {
        self.edges.iter().all(Option::is_some)
    }

    /// Record a home-base (idempotent per node).
    pub fn record_homebase(&mut self, v: usize, color: Color) {
        if !self.homebases.iter().any(|&(w, _)| w == v) {
            self.homebases.push((v, color));
        }
    }

    /// All home-bases as `(map node, color)`, sorted by map node.
    pub fn homebases(&self) -> Vec<(usize, Color)> {
        let mut hb = self.homebases.clone();
        hb.sort_by_key(|&(v, _)| v);
        hb
    }

    /// Number of agents `r`.
    pub fn r(&self) -> usize {
        self.homebases.len()
    }

    /// The resident color of a home-base map node.
    pub fn color_at(&self, v: usize) -> Option<Color> {
        self.homebases
            .iter()
            .find(|&&(w, _)| w == v)
            .map(|&(_, c)| c)
    }

    /// The home-base map node carrying the given color.
    pub fn home_of(&self, color: Color) -> Option<usize> {
        self.homebases
            .iter()
            .find(|&&(_, c)| c == color)
            .map(|&(v, _)| v)
    }

    /// Convert to a bi-colored `qelect-graph` instance (ports = the
    /// agent's local port numbers) for class computation.
    pub fn to_bicolored(&self) -> Bicolored {
        assert!(self.is_complete(), "map must be complete");
        let mut b = GraphBuilder::new(self.n());
        for u in 0..self.n() {
            for (p, e) in self.ports(u).iter().enumerate() {
                let e = e.expect("complete");
                // Add each edge once, at its first end in (node, port)
                // order (the two ends of a loop differ in their ports).
                if (u, p as u32) < (e.to, e.far_port.0) {
                    b.add_edge_with_ports(u, e.to, Port(p as u32), Port(e.far_port.0))
                        .expect("map edges are valid");
                }
            }
        }
        let homes: Vec<usize> = self.homebases().iter().map(|&(v, _)| v).collect();
        Bicolored::new(b.finish().expect("a complete map is connected"), &homes)
            .expect("home-bases are valid map nodes")
    }

    /// Shortest route (sequence of local ports) from `from` to `to`,
    /// computed on `scratch` and returned from it. Breadth-first, with
    /// each node's neighbours in local-port order; a node's route goes
    /// through the first predecessor that reaches it.
    pub fn route<'s>(
        &self,
        from: usize,
        to: usize,
        scratch: &'s mut RouteScratch,
    ) -> &'s [LocalPort] {
        let RouteScratch {
            seen,
            epoch,
            prev,
            queue,
            route,
        } = scratch;
        route.clear();
        if from == to {
            return route;
        }
        let n = self.n();
        if seen.len() < n {
            seen.resize(n, 0);
            prev.resize(n, (0, LocalPort(0)));
        }
        *epoch = epoch.wrapping_add(1);
        if *epoch == 0 {
            seen.fill(0);
            *epoch = 1;
        }
        let epoch = *epoch;
        queue.clear();
        queue.push(from);
        seen[from] = epoch;
        let mut head = 0;
        'bfs: while let Some(&u) = queue.get(head) {
            head += 1;
            for (p, e) in self.ports(u).iter().enumerate() {
                let e = e.expect("complete map");
                if seen[e.to] != epoch {
                    seen[e.to] = epoch;
                    prev[e.to] = (u, LocalPort(p as u32));
                    if e.to == to {
                        break 'bfs;
                    }
                    queue.push(e.to);
                }
            }
        }
        assert_eq!(seen[to], epoch, "connected map");
        let mut v = to;
        while v != from {
            let (u, p) = prev[v];
            route.push(p);
            v = u;
        }
        route.reverse();
        route
    }

    /// An Euler-tour route over a DFS spanning tree starting and ending
    /// at `root`, visiting every node: the cheap full sweep
    /// (≤ `2(n−1)` moves) used for synchronization and announcements.
    ///
    /// The DFS keeps an explicit stack of `(node, next port)` frames, so
    /// its depth is bounded by memory rather than by the thread's stack:
    /// a path or cycle of `n` nodes is `n` frames deep.
    pub fn sweep_route(&self, root: usize) -> Vec<LocalPort> {
        let mut visited = vec![false; self.n()];
        let mut route = Vec::new();
        visited[root] = true;
        let mut stack = vec![(root, 0usize)];
        while let Some(frame) = stack.last_mut() {
            let (v, p) = *frame;
            if p == self.degree(v) {
                stack.pop();
                if let Some(&(u, q)) = stack.last() {
                    // Walk back up the tree edge `u` left through.
                    let e = self.ports(u)[q - 1].expect("complete map");
                    route.push(e.far_port);
                }
                continue;
            }
            frame.1 += 1;
            let e = self.ports(v)[p].expect("complete map");
            if !visited[e.to] {
                visited[e.to] = true;
                route.push(LocalPort(p as u32));
                stack.push((e.to, 0));
            }
        }
        route
    }

    /// The node sequence a route visits, starting from `from` (excludes
    /// the start).
    pub fn trace(&self, from: usize, route: &[LocalPort]) -> Vec<usize> {
        let mut v = from;
        let mut out = Vec::with_capacity(route.len());
        for &p in route {
            v = self.edge(v, p).expect("explored").to;
            out.push(v);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qelect_agentsim::ColorRegistry;
    use qelect_graph::{families, Graph};

    /// Build the map of a triangle by hand.
    fn triangle_map() -> AgentMap {
        let mut m = AgentMap::new();
        let a = m.add_node(2);
        let b = m.add_node(2);
        let c = m.add_node(2);
        m.record_edge(a, LocalPort(0), b, LocalPort(0));
        m.record_edge(b, LocalPort(1), c, LocalPort(0));
        m.record_edge(c, LocalPort(1), a, LocalPort(1));
        m
    }

    #[test]
    fn completeness_and_conversion() {
        let m = triangle_map();
        assert!(m.is_complete());
        let bc = m.to_bicolored();
        assert_eq!(bc.n(), 3);
        assert_eq!(bc.graph().m(), 3);
    }

    #[test]
    fn unexplored_tracking() {
        let mut m = AgentMap::new();
        let a = m.add_node(2);
        assert_eq!(m.unexplored_port(a), Some(LocalPort(0)));
        let b = m.add_node(1);
        m.record_edge(a, LocalPort(0), b, LocalPort(0));
        assert_eq!(m.unexplored_port(a), Some(LocalPort(1)));
        assert_eq!(m.unexplored_port(b), None);
        assert!(!m.is_complete());
    }

    #[test]
    fn routes_are_shortest() {
        let m = triangle_map();
        let mut scratch = RouteScratch::default();
        let r = m.route(0, 2, &mut scratch).to_vec();
        assert_eq!(r.len(), 1);
        assert_eq!(m.trace(0, &r), vec![2]);
        assert!(m.route(1, 1, &mut scratch).is_empty());
    }

    /// The complete map of `g` numbered as `g` is, with local ports in
    /// increasing port order.
    fn map_of(g: &Graph) -> AgentMap {
        let mut m = AgentMap::new();
        for v in 0..g.n() {
            m.add_node(g.degree(v));
        }
        for v in 0..g.n() {
            for (p, &inc) in g.incidences(v).iter().enumerate() {
                let (w, arrival) = g.across(inc);
                let q = g.ports_at(w).iter().position(|&x| x == arrival).unwrap();
                m.record_edge(v, LocalPort(p as u32), w, LocalPort(q as u32));
            }
        }
        m
    }

    /// The shortest routes from `from` to every node, by a plain
    /// breadth-first search: neighbours in port order, first predecessor
    /// wins.
    fn reference_routes(m: &AgentMap, from: usize) -> Vec<Vec<LocalPort>> {
        let mut prev: Vec<Option<(usize, LocalPort)>> = vec![None; m.n()];
        let mut seen = vec![false; m.n()];
        let mut queue = std::collections::VecDeque::from([from]);
        seen[from] = true;
        while let Some(u) = queue.pop_front() {
            for p in 0..m.degree(u) {
                let e = m.edge(u, LocalPort(p as u32)).unwrap();
                if !seen[e.to] {
                    seen[e.to] = true;
                    prev[e.to] = Some((u, LocalPort(p as u32)));
                    queue.push_back(e.to);
                }
            }
        }
        let route_to = |mut v: usize| {
            let mut route = Vec::new();
            while v != from {
                let (u, p) = prev[v].unwrap();
                route.push(p);
                v = u;
            }
            route.reverse();
            route
        };
        (0..m.n()).map(route_to).collect()
    }

    #[test]
    fn routes_match_a_reference_bfs_with_one_scratch_across_maps() {
        let mut scratch = RouteScratch::default();
        for g in [
            families::fig2c_gadget().unwrap(),
            families::cycle(300).unwrap(),
            families::fig2c_gadget().unwrap(),
        ] {
            let m = map_of(&g);
            for from in 0..m.n() {
                for (to, want) in reference_routes(&m, from).iter().enumerate() {
                    assert_eq!(
                        m.route(from, to, &mut scratch),
                        want,
                        "n = {}: {from} → {to}",
                        m.n()
                    );
                }
            }
        }
    }

    #[test]
    fn sweep_visits_everything_and_returns() {
        let m = triangle_map();
        let route = m.sweep_route(0);
        let visited = m.trace(0, &route);
        assert!(visited.contains(&1));
        assert!(visited.contains(&2));
        assert_eq!(*visited.last().unwrap(), 0, "sweep returns to root");
        assert!(route.len() <= 2 * (m.n() - 1));
    }

    /// A path of `n` nodes as a complete map: node `i` reaches `i + 1`
    /// through its last port.
    fn path_map(n: usize) -> AgentMap {
        let mut m = AgentMap::new();
        for i in 0..n {
            let degree = usize::from(i > 0) + usize::from(i + 1 < n);
            m.add_node(degree);
        }
        for i in 0..n - 1 {
            let out = LocalPort(u32::from(i > 0));
            m.record_edge(i, out, i + 1, LocalPort(0));
        }
        m
    }

    #[test]
    fn sweep_of_a_long_path_fits_a_small_stack() {
        let n = 100_000;
        let route = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || path_map(n).sweep_route(0))
            .unwrap()
            .join()
            .expect("the sweep must not overflow a 256 KiB stack");
        assert_eq!(route.len(), 2 * (n - 1));
        let there = &route[..n - 1];
        assert_eq!(there[0], LocalPort(0));
        assert!(there[1..].iter().all(|&p| p == LocalPort(1)));
        assert!(route[n - 1..].iter().all(|&p| p == LocalPort(0)));
    }

    #[test]
    fn homebases_and_colors() {
        let mut m = triangle_map();
        let mut reg = ColorRegistry::new(3);
        let c0 = reg.fresh();
        let c2 = reg.fresh();
        m.record_homebase(0, c0);
        m.record_homebase(2, c2);
        m.record_homebase(0, c0); // idempotent
        assert_eq!(m.r(), 2);
        assert_eq!(m.color_at(0), Some(c0));
        assert_eq!(m.color_at(1), None);
        assert_eq!(m.home_of(c2), Some(2));
        let bc = m.to_bicolored();
        assert!(bc.is_black(0));
        assert!(!bc.is_black(1));
        assert!(bc.is_black(2));
    }

    #[test]
    fn loops_and_parallel_edges_supported() {
        let mut m = AgentMap::new();
        let a = m.add_node(4);
        let b = m.add_node(2);
        // Parallel edges a↔b.
        m.record_edge(a, LocalPort(0), b, LocalPort(0));
        m.record_edge(a, LocalPort(1), b, LocalPort(1));
        // Loop at a.
        m.record_edge(a, LocalPort(2), a, LocalPort(3));
        assert!(m.is_complete());
        let bc = m.to_bicolored();
        assert_eq!(bc.graph().m(), 3);
        assert!(!bc.graph().is_simple());
    }
}
