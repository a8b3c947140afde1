//! Serial BFS with reusable scratch space.

use super::hybrid::{KernelConfig, SerialBfsKernel};
use crate::{CsrGraph, Dist, NodeId, INFINITE_DIST};

/// Reusable BFS state: a distance array and a queue.
///
/// Running many BFS traversals (one per sampled source) dominates the
/// estimator's runtime; reusing the buffers avoids one `O(n)` allocation per
/// source. Reset between runs is `O(visited)`, not `O(n)`, via the touched
/// list.
#[derive(Clone, Debug)]
pub struct Bfs {
    dist: Vec<Dist>,
    queue: Vec<NodeId>,
    touched: Vec<NodeId>,
}

impl Bfs {
    /// Creates scratch space for graphs with up to `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            dist: vec![INFINITE_DIST; n],
            queue: Vec::with_capacity(n),
            touched: Vec::with_capacity(n),
        }
    }

    /// Grows the scratch space if the graph is larger than at construction.
    ///
    /// Also reserves queue/touched capacity up front so the first traversal
    /// of a larger graph doesn't reallocate mid-BFS (both can hold up to
    /// `n` entries by the time a run finishes).
    pub fn resize(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, INFINITE_DIST);
        }
        if self.queue.capacity() < n {
            self.queue.reserve(n - self.queue.len());
        }
        if self.touched.capacity() < n {
            self.touched.reserve(n - self.touched.len());
        }
    }

    /// Runs BFS from `source`, returning the distance array
    /// (`INFINITE_DIST` for unreachable vertices).
    ///
    /// The returned slice is valid until the next `run`/`run_with` call.
    pub fn run(&mut self, g: &CsrGraph, source: NodeId) -> &[Dist] {
        self.run_with(g, source, |_, _| {});
        &self.dist[..g.num_nodes()]
    }

    /// Runs BFS from `source`, invoking `visit(v, d)` for every reached
    /// vertex `v` at distance `d` (including the source at distance 0).
    ///
    /// Returns `(reached_count, sum_of_distances)` — exactly the quantities
    /// farness accumulation needs, computed inline so callers do not rescan
    /// the distance array.
    pub fn run_with<F: FnMut(NodeId, Dist)>(
        &mut self,
        g: &CsrGraph,
        source: NodeId,
        mut visit: F,
    ) -> (usize, u64) {
        debug_assert!((source as usize) < g.num_nodes());
        self.resize(g.num_nodes());
        // O(previously visited) reset.
        for &v in &self.touched {
            self.dist[v as usize] = INFINITE_DIST;
        }
        self.touched.clear();
        self.queue.clear();

        self.dist[source as usize] = 0;
        self.touched.push(source);
        self.queue.push(source);
        visit(source, 0);

        let mut head = 0usize;
        let mut reached = 1usize;
        let mut sum = 0u64;
        while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            let du = self.dist[u as usize];
            for &v in g.neighbors(u) {
                if self.dist[v as usize] == INFINITE_DIST {
                    let dv = du + 1;
                    self.dist[v as usize] = dv;
                    self.touched.push(v);
                    self.queue.push(v);
                    visit(v, dv);
                    reached += 1;
                    sum += dv as u64;
                }
            }
        }
        (reached, sum)
    }

    /// Distance array from the most recent run.
    pub fn distances(&self) -> &[Dist] {
        &self.dist
    }

    /// Mutable distance array. Callers that write through this (e.g. the
    /// reduction-reconstruction replay) must restore any entry outside the
    /// visited set to `INFINITE_DIST` before the next run, because reset is
    /// tracked through the visited list only.
    pub fn distances_mut(&mut self) -> &mut [Dist] {
        &mut self.dist
    }
}

impl SerialBfsKernel for Bfs {
    fn for_config(n: usize, _cfg: &KernelConfig) -> Self {
        Self::new(n)
    }

    fn traverse(&mut self, g: &CsrGraph, source: NodeId) -> (usize, u64) {
        self.run_with(g, source, |_, _| {})
    }

    fn visited(&self) -> (&[NodeId], &[Dist]) {
        (&self.touched, &self.dist)
    }
}

/// One-shot BFS: allocates fresh scratch, returns an owned distance vector.
pub fn bfs_distances(g: &CsrGraph, source: NodeId) -> Vec<Dist> {
    let mut bfs = Bfs::new(g.num_nodes());
    bfs.run(g, source);
    bfs.dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn cycle(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n {
            b.add_edge(i as NodeId, ((i + 1) % n) as NodeId);
        }
        b.build()
    }

    #[test]
    fn path_distances() {
        let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3]);
        assert_eq!(bfs_distances(&g, 2), vec![2, 1, 0, 1]);
    }

    #[test]
    fn cycle_distances() {
        let g = cycle(6);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3, 2, 1]);
    }

    #[test]
    fn unreachable_is_infinite() {
        let g = GraphBuilder::from_edges(4, &[(0, 1), (2, 3)]);
        let d = bfs_distances(&g, 0);
        assert_eq!(d[0], 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], INFINITE_DIST);
        assert_eq!(d[3], INFINITE_DIST);
    }

    #[test]
    fn reuse_resets_state() {
        let g = cycle(5);
        let mut bfs = Bfs::new(5);
        let d0: Vec<_> = bfs.run(&g, 0).to_vec();
        let d3: Vec<_> = bfs.run(&g, 3).to_vec();
        assert_eq!(d0, vec![0, 1, 2, 2, 1]);
        assert_eq!(d3, vec![2, 2, 1, 0, 1]);
    }

    #[test]
    fn run_with_reports_reached_and_sum() {
        let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut bfs = Bfs::new(4);
        let (reached, sum) = bfs.run_with(&g, 0, |_, _| {});
        assert_eq!(reached, 4);
        assert_eq!(sum, 1 + 2 + 3);
    }

    #[test]
    fn run_with_visits_every_vertex_once() {
        let g = cycle(7);
        let mut bfs = Bfs::new(7);
        let mut seen = [0u32; 7];
        bfs.run_with(&g, 2, |v, d| {
            seen[v as usize] += 1;
            assert_eq!(d, bfs_distances(&cycle(7), 2)[v as usize]);
        });
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn single_vertex() {
        let g = GraphBuilder::new(1).build();
        assert_eq!(bfs_distances(&g, 0), vec![0]);
    }

    #[test]
    fn resize_reserves_traversal_capacity() {
        let mut bfs = Bfs::new(0);
        bfs.resize(64);
        assert_eq!(bfs.dist.len(), 64);
        assert!(bfs.queue.capacity() >= 64, "queue capacity reserved");
        assert!(bfs.touched.capacity() >= 64, "touched capacity reserved");
    }

    #[test]
    fn scratch_grows_for_larger_graph() {
        let small = cycle(3);
        let big = cycle(10);
        let mut bfs = Bfs::new(3);
        bfs.run(&small, 0);
        let d = bfs.run(&big, 0).to_vec();
        assert_eq!(d.len(), 10);
        assert_eq!(d[5], 5);
    }
}
