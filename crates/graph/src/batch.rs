//! Word-parallel multi-source BFS: up to 64 sources per wave.
//!
//! The persistent oracle repeatedly needs *many* exact single-source distance
//! vectors of the same graph at once — bulk-pinning every agent at trial
//! start, and re-deriving vectors whose journal window has grown past the
//! replay limit. Running those as independent scalar BFS traversals walks the
//! adjacency structure once per source. [`MultiSourceBfs`] instead assigns
//! each source one bit of a `u64` and advances all of them through a single
//! level-synchronous wave over shared bitset frontiers: one pass over the CSR
//! per level regardless of how many of the 64 sources are still active, with
//! the per-source SUM / MAX / reached aggregates and the per-level counters
//! fused into the same wave (distances are only written when a bit first
//! reaches a vertex, so the extra bookkeeping costs exactly one visit per
//! `(source, vertex)` pair — work any method must do to fill the vectors).
//!
//! Distances are `u16` ([`crate::distances::UNREACHABLE`]), matching the
//! oracle's distance matrix, and the level counters have the oracle's
//! [`LEVELS`]-bucket format, so a wave fills the oracle's rows in place.

use crate::csr::CsrAdjacency;
use crate::distances::{MAX_NODES, UNREACHABLE};
use crate::graph::NodeId;

/// Width of one wave: one bit per source in a `u64` frontier word.
pub const BATCH_WIDTH: usize = 64;

/// Level counters per distance row: one cache line of `u16` counts. The
/// last bucket counts every level from `LEVELS - 1` on.
pub const LEVELS: usize = 32;

/// The level-counter bucket of a finite distance `d`.
#[inline]
pub(crate) fn level_bucket(d: u16) -> usize {
    usize::from(d).min(LEVELS - 1)
}

/// Aggregates of one distance row: what a wave returns per source, and
/// what the persistent oracle keeps per row. A wave leaves `max_hint`
/// exact; the oracle keeps it as an upper bound.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchSummary {
    /// Sum of all finite distances from the source.
    pub sum: u64,
    /// Number of vertices the source reaches (including itself).
    pub reached: usize,
    /// Maximum finite distance from the source.
    pub max_hint: u16,
}

/// Reusable workspace of the 64-wide bitset BFS.
#[derive(Debug, Clone, Default)]
pub struct MultiSourceBfs {
    /// `reached[v]` bit `s` set ⇔ source `s` has settled vertex `v`.
    reached: Vec<u64>,
    /// Bits that settled `v` in the *current* level (the expanding frontier).
    frontier: Vec<u64>,
    /// Bits arriving at `v` for the *next* level; doubles as the "already
    /// queued" marker (`next[v] != 0` ⇔ `v` is in `next_active`).
    next: Vec<u64>,
    /// Vertices with a non-empty current frontier word.
    active: Vec<u32>,
    next_active: Vec<u32>,
}

impl MultiSourceBfs {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        MultiSourceBfs::default()
    }

    /// Runs one wave from `sources` (distinct vertices, at most
    /// [`BATCH_WIDTH`] of them) over `csr`, overwriting its outputs.
    ///
    /// For each source `s`, entries `s·n .. (s + 1)·n` of `rows` get its
    /// full distance vector (`UNREACHABLE` for unreachable vertices),
    /// `counts[s]` its [`LEVELS`]-bucket level counts and `summaries[s]` its
    /// aggregates. Returns the number of vertex expansions performed (the
    /// shared-wave work measure).
    pub fn run(
        &mut self,
        csr: &CsrAdjacency,
        sources: &[NodeId],
        rows: &mut [u16],
        counts: &mut [[u16; LEVELS]],
        summaries: &mut [BatchSummary],
    ) -> u64 {
        ncg_trace::record(ncg_trace::HistId::WaveWidth, sources.len() as u64);
        let n = csr.num_nodes();
        assert!(
            n <= MAX_NODES,
            "u16 distances support at most {MAX_NODES} vertices (got {n})"
        );
        let k = sources.len();
        assert!(k <= BATCH_WIDTH, "at most {BATCH_WIDTH} sources per wave");
        debug_assert_eq!(rows.len(), k * n);
        debug_assert_eq!(counts.len(), k);
        debug_assert_eq!(summaries.len(), k);
        rows.fill(UNREACHABLE);
        counts.fill([0; LEVELS]);
        self.reached.clear();
        self.reached.resize(n, 0);
        self.frontier.clear();
        self.frontier.resize(n, 0);
        self.next.clear();
        self.next.resize(n, 0);
        self.active.clear();
        for (s, &src) in sources.iter().enumerate() {
            debug_assert!(src < n);
            let bit = 1u64 << s;
            if self.frontier[src] == 0 {
                self.active.push(src as u32);
            }
            self.reached[src] |= bit;
            self.frontier[src] |= bit;
            rows[s * n + src] = 0;
            counts[s][0] = 1;
            summaries[s] = BatchSummary {
                sum: 0,
                reached: 1,
                max_hint: 0,
            };
        }
        let mut expanded = 0u64;
        let mut d: u16 = 0;
        while !self.active.is_empty() {
            self.next_active.clear();
            for &v in &self.active {
                expanded += 1;
                let bits = self.frontier[v as usize];
                self.frontier[v as usize] = 0;
                for &w in csr.neighbors(v as usize) {
                    let fresh = bits & !self.reached[w as usize];
                    if fresh != 0 {
                        if self.next[w as usize] == 0 {
                            self.next_active.push(w);
                        }
                        self.next[w as usize] |= fresh;
                    }
                }
            }
            d += 1;
            let bucket = level_bucket(d);
            for &w in &self.next_active {
                let fresh = self.next[w as usize];
                self.next[w as usize] = 0;
                self.reached[w as usize] |= fresh;
                self.frontier[w as usize] = fresh;
                let mut bits = fresh;
                while bits != 0 {
                    let s = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    rows[s * n + w as usize] = d;
                    counts[s][bucket] += 1;
                    summaries[s].sum += u64::from(d);
                    summaries[s].reached += 1;
                    summaries[s].max_hint = d;
                }
            }
            std::mem::swap(&mut self.active, &mut self.next_active);
        }
        expanded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distances::BfsBuffer;
    use crate::generators;
    use crate::graph::OwnedGraph;

    fn check_against_scalar(g: &OwnedGraph, sources: &[NodeId]) {
        let n = g.num_nodes();
        let k = sources.len();
        let mut csr = CsrAdjacency::new();
        csr.rebuild_from(g);
        // Stale contents, which the wave must overwrite.
        let mut rows = vec![7u16; k * n];
        let mut counts = vec![[7u16; LEVELS]; k];
        let mut summaries = vec![BatchSummary::default(); k];
        let mut wave = MultiSourceBfs::new();
        wave.run(&csr, sources, &mut rows, &mut counts, &mut summaries);
        let mut buf = BfsBuffer::new(n);
        for (s, &src) in sources.iter().enumerate() {
            let expect = buf.run(g, src);
            assert_eq!(&rows[s * n..(s + 1) * n], expect, "source {src}");
            let mut sum = 0u64;
            let mut max = 0u16;
            let mut reached = 0usize;
            let mut lc = [0u16; LEVELS];
            for &dist in expect {
                if dist != UNREACHABLE {
                    sum += u64::from(dist);
                    max = max.max(dist);
                    reached += 1;
                    lc[usize::from(dist).min(LEVELS - 1)] += 1;
                }
            }
            assert_eq!(summaries[s].sum, sum, "source {src}");
            assert_eq!(summaries[s].reached, reached, "source {src}");
            assert_eq!(summaries[s].max_hint, max, "source {src}");
            assert_eq!(counts[s], lc, "source {src}");
        }
    }

    #[test]
    fn wave_matches_scalar_bfs_on_path_cycle_star() {
        check_against_scalar(&generators::path(9), &[0, 4, 8]);
        check_against_scalar(&generators::cycle(12), &(0..12).collect::<Vec<_>>());
        check_against_scalar(&generators::star(7), &[0, 1, 6]);
        // Eccentricities up to 69: the last level bucket holds every level
        // from 31 on.
        check_against_scalar(&generators::path(70), &[0, 35, 69]);
    }

    #[test]
    fn wave_handles_disconnected_components() {
        let mut g = OwnedGraph::new(10);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(5, 6);
        check_against_scalar(&g, &[0, 2, 5, 9]);
    }

    #[test]
    fn full_width_wave_on_random_graph() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(7);
        let g = generators::random_with_m_edges(64, 120, &mut rng);
        let sources: Vec<NodeId> = (0..64).collect();
        check_against_scalar(&g, &sources);
    }
}
