//! Shortest-path distances.
//!
//! Costs in network creation games only depend on the moving agent's own distance
//! vector, so the hot operation is a single-source BFS that is executed thousands of
//! times per dynamics step. [`BfsBuffer`] keeps the queue and distance array alive
//! across calls so the inner loop performs no allocation.

use crate::graph::{NodeId, OwnedGraph};

/// Marker distance for unreachable vertices.
///
/// Distances are stored as `u16` end-to-end (BFS buffers and the all-pairs
/// [`DistanceMatrix`], which also holds the oracle's per-source rows): a
/// hop count is at most `n - 1`, so graphs up to [`MAX_NODES`] vertices fit
/// with room for the marker, and the halved storage doubles how many
/// per-source rows fit in cache for the same memory.
pub const UNREACHABLE: u16 = u16::MAX;

/// Largest supported vertex count of the `u16` distance representation
/// (every finite distance is `≤ MAX_NODES - 1 = 65534 < UNREACHABLE`).
pub const MAX_NODES: usize = u16::MAX as usize;

/// Aggregate of a single-source distance vector: the SUM and MAX distance cost.
///
/// `None` encodes the paper's convention that a disconnected agent has infinite
/// distance cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistanceSummary {
    /// Sum of distances to all other agents (`None` if some agent is unreachable).
    pub sum: Option<u64>,
    /// Maximum distance / eccentricity (`None` if some agent is unreachable).
    pub max: Option<u32>,
}

impl DistanceSummary {
    /// Summary for a completely disconnected source.
    pub const DISCONNECTED: DistanceSummary = DistanceSummary {
        sum: None,
        max: None,
    };

    /// True if every other agent is reachable.
    #[inline]
    pub fn is_connected(&self) -> bool {
        self.sum.is_some()
    }
}

/// Reusable single-source BFS workspace.
///
/// The buffer is sized for a fixed number of vertices; [`BfsBuffer::resize`] adapts
/// it when the graph size changes.
#[derive(Debug, Clone)]
pub struct BfsBuffer {
    dist: Vec<u16>,
    queue: Vec<NodeId>,
}

impl BfsBuffer {
    /// Creates a workspace for graphs on `n` vertices.
    ///
    /// Panics when `n > MAX_NODES` — a hard assert, not a debug one: past
    /// the u16 range distances would silently truncate, and wrong-but-
    /// plausible distances are far worse than a loud failure.
    pub fn new(n: usize) -> Self {
        assert!(
            n <= MAX_NODES,
            "u16 distances support at most {MAX_NODES} vertices (got {n})"
        );
        BfsBuffer {
            dist: vec![UNREACHABLE; n],
            queue: Vec::with_capacity(n),
        }
    }

    /// Adapts the workspace to a graph on `n` vertices.
    ///
    /// Panics when `n > MAX_NODES`, like [`BfsBuffer::new`].
    pub fn resize(&mut self, n: usize) {
        assert!(
            n <= MAX_NODES,
            "u16 distances support at most {MAX_NODES} vertices (got {n})"
        );
        self.dist.resize(n, UNREACHABLE);
        if self.queue.capacity() < n {
            // `reserve` takes the *additional* head-room relative to `len`;
            // reserving relative to the capacity would leave the queue free to
            // reallocate mid-BFS once it fills up.
            let len = self.queue.len();
            self.queue.reserve(n - len);
        }
    }

    /// Runs a BFS from `src` and returns the distance vector
    /// (`UNREACHABLE` for vertices in other components).
    pub fn run<'a>(&'a mut self, g: &OwnedGraph, src: NodeId) -> &'a [u16] {
        let n = g.num_nodes();
        self.resize(n);
        for d in self.dist.iter_mut().take(n) {
            *d = UNREACHABLE;
        }
        self.queue.clear();
        self.dist[src] = 0;
        self.queue.push(src);
        let mut head = 0usize;
        while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            let du = self.dist[u];
            for &v in g.neighbors(u) {
                if self.dist[v] == UNREACHABLE {
                    self.dist[v] = du + 1;
                    self.queue.push(v);
                }
            }
        }
        &self.dist[..n]
    }

    /// Runs a BFS from `src` and aggregates the result into a [`DistanceSummary`].
    pub fn summary(&mut self, g: &OwnedGraph, src: NodeId) -> DistanceSummary {
        let n = g.num_nodes();
        let dist = self.run(g, src);
        let mut sum: u64 = 0;
        let mut max: u16 = 0;
        let mut reached = 0usize;
        for &d in dist {
            if d != UNREACHABLE {
                sum += u64::from(d);
                max = max.max(d);
                reached += 1;
            }
        }
        if reached < n {
            DistanceSummary::DISCONNECTED
        } else {
            DistanceSummary {
                sum: Some(sum),
                max: Some(u32::from(max)),
            }
        }
    }

    /// The distance vector computed by the most recent [`run`](Self::run).
    pub fn last_distances(&self) -> &[u16] {
        &self.dist
    }
}

/// Dense all-pairs shortest path matrix, row-major: row `u` is `u`'s
/// distance vector.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DistanceMatrix {
    n: usize,
    d: Vec<u16>,
}

impl DistanceMatrix {
    /// An `n × n` matrix with every entry `UNREACHABLE`, for callers that
    /// fill the rows themselves.
    pub fn new(n: usize) -> Self {
        DistanceMatrix {
            n,
            d: vec![UNREACHABLE; n * n],
        }
    }

    /// Computes all-pairs shortest paths of `g` with `n` BFS traversals.
    pub fn compute(g: &OwnedGraph) -> Self {
        let n = g.num_nodes();
        let mut m = DistanceMatrix::new(n);
        let mut buf = BfsBuffer::new(n);
        for s in 0..n {
            m.row_mut(s).copy_from_slice(buf.run(g, s));
        }
        m
    }

    /// Number of vertices.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Distance from `u` to `v` (`UNREACHABLE` if disconnected).
    #[inline]
    pub fn dist(&self, u: NodeId, v: NodeId) -> u16 {
        self.d[u * self.n + v]
    }

    /// The full distance row of vertex `u`.
    #[inline]
    pub fn row(&self, u: NodeId) -> &[u16] {
        &self.d[u * self.n..(u + 1) * self.n]
    }

    /// The full distance row of vertex `u`, writable.
    #[inline]
    pub fn row_mut(&mut self, u: NodeId) -> &mut [u16] {
        &mut self.d[u * self.n..(u + 1) * self.n]
    }

    /// The rows of the vertices in `rows`, back to back.
    pub fn rows_mut(&mut self, rows: std::ops::Range<NodeId>) -> &mut [u16] {
        &mut self.d[rows.start * self.n..rows.end * self.n]
    }

    /// Eccentricity (MAX cost) of vertex `u`, `None` if `u` cannot reach everyone.
    pub fn eccentricity(&self, u: NodeId) -> Option<u32> {
        let mut max = 0u16;
        for &d in self.row(u) {
            if d == UNREACHABLE {
                return None;
            }
            max = max.max(d);
        }
        Some(u32::from(max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_on_path() {
        let g = generators::path(5);
        let mut buf = BfsBuffer::new(5);
        let d = buf.run(&g, 0);
        assert_eq!(d, &[0, 1, 2, 3, 4]);
        let d = buf.run(&g, 2);
        assert_eq!(d, &[2, 1, 0, 1, 2]);
    }

    #[test]
    fn bfs_disconnected() {
        let mut g = OwnedGraph::new(4);
        g.add_edge(0, 1);
        let mut buf = BfsBuffer::new(4);
        let d = buf.run(&g, 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], UNREACHABLE);
        let s = buf.summary(&g, 0);
        assert_eq!(s, DistanceSummary::DISCONNECTED);
        assert!(!s.is_connected());
    }

    #[test]
    fn summary_on_star() {
        let g = generators::star(6);
        let mut buf = BfsBuffer::new(6);
        let hub = buf.summary(&g, 0);
        assert_eq!(hub.sum, Some(5));
        assert_eq!(hub.max, Some(1));
        let leaf = buf.summary(&g, 3);
        assert_eq!(leaf.sum, Some(1 + 2 * 4));
        assert_eq!(leaf.max, Some(2));
    }

    #[test]
    fn matrix_matches_bfs() {
        let g = generators::cycle(7);
        let m = DistanceMatrix::compute(&g);
        let mut buf = BfsBuffer::new(7);
        for s in 0..7 {
            assert_eq!(m.row(s), buf.run(&g, s));
        }
        assert_eq!(m.dist(0, 3), 3);
        assert_eq!(m.dist(0, 4), 3);
        assert_eq!(m.eccentricity(0), Some(3));
    }

    #[test]
    fn singleton_graph() {
        let g = OwnedGraph::new(1);
        let s = BfsBuffer::new(1).summary(&g, 0);
        assert_eq!(s.sum, Some(0));
        assert_eq!(s.max, Some(0));
    }

    #[test]
    fn buffer_resizes_between_graphs() {
        let mut buf = BfsBuffer::new(2);
        let small = generators::path(2);
        assert_eq!(buf.run(&small, 0), &[0, 1]);
        let big = generators::path(6);
        assert_eq!(buf.run(&big, 0).len(), 6);
        assert_eq!(buf.run(&big, 0)[5], 5);
    }
}
