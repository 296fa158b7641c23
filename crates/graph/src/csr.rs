//! Flat CSR (compressed sparse row) adjacency snapshots with in-place patching.
//!
//! [`OwnedGraph`] stores one `Vec` per vertex, which is convenient for mutation
//! but scatters the adjacency lists across the heap. The distance oracles of
//! [`crate::oracle`] traverse the whole graph thousands of times per dynamics
//! step, so they operate on a [`CsrAdjacency`] snapshot instead: all neighbour
//! lists live in one contiguous `u32` buffer, indexed by a flat offsets array.
//!
//! Two ways of keeping the snapshot current:
//!
//! * [`CsrAdjacency::rebuild_from`] — the classic `O(n + m)` rebuild (the cost
//!   of a single BFS); buffers are reused, so it never allocates in steady
//!   state.
//! * [`CsrAdjacency::patch_from_journal`] — applies the exact
//!   [`EdgeChange`]s of a graph's change journal **in place**. Each vertex
//!   segment keeps a little slack, so a single-edge change edits two segments
//!   in `O(deg)` and the once-per-version rebuild of the persistent oracle
//!   becomes a once-per-version patch proportional to what actually changed.
//!   A full segment triggers one amortized *regrow* (a rebuild that grants
//!   every vertex fresh slack), and journals denser than
//!   [`CsrAdjacency::patch_limit`] fall back to the plain rebuild, so the
//!   patch path is never asymptotically worse than rebuilding.
//!
//! The patch window is **shared** across everything the persistent oracle
//! does at one graph version: its sync point runs one `patch_from_journal`
//! to bring the snapshot current, after which the replay of every parked
//! vector and every scan of that version traverse the same flat buffers.
//! Keeping the snapshot a pure function of the graph (never of which
//! vectors were replayed) is what lets the replays run against the
//! *post-window* snapshot via the overlay-rewind trick in
//! `ncg_graph::oracle`.

use crate::graph::{EdgeChange, NodeId, OwnedGraph};

/// How [`CsrAdjacency::patch_from_journal`] brought the snapshot up to date.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatchOutcome {
    /// Every change was applied in place (`O(changes · deg)` total).
    Patched,
    /// A segment ran out of slack mid-patch: the snapshot was regrown from the
    /// target graph with fresh per-vertex slack (`O(n + m)`, amortized over
    /// the inserts the slack will absorb).
    Compacted,
    /// The journal was denser than [`CsrAdjacency::patch_limit`] (or the node
    /// count changed), so the snapshot was rebuilt outright.
    Rebuilt,
}

impl PatchOutcome {
    /// True if the snapshot was brought up to date without an `O(n + m)` pass.
    #[inline]
    pub fn in_place(self) -> bool {
        self == PatchOutcome::Patched
    }
}

/// A cache-friendly, read-only adjacency snapshot of an [`OwnedGraph`].
///
/// Vertex ids are stored as `u32` (network creation instances are far below
/// `u32::MAX` agents); `neighbors(u)` is a contiguous, sorted slice. The
/// segment of vertex `u` spans `offsets[u]..offsets[u + 1]` of which the first
/// `lens[u]` entries are live — the remainder is slack for in-place inserts.
#[derive(Debug, Clone, Default)]
pub struct CsrAdjacency {
    n: usize,
    /// `offsets[u]..offsets[u + 1]` is the (capacity) segment of vertex `u`.
    offsets: Vec<u32>,
    /// `lens[u]` live entries at the front of `u`'s segment, kept sorted.
    lens: Vec<u32>,
    /// Concatenated neighbour segments (live prefix + slack per vertex).
    targets: Vec<u32>,
    /// Total number of live entries (`2 m`).
    live: usize,
}

impl CsrAdjacency {
    /// An empty snapshot; call [`CsrAdjacency::rebuild_from`] before use.
    pub fn new() -> Self {
        CsrAdjacency::default()
    }

    /// Builds a snapshot of `g`.
    pub fn build(g: &OwnedGraph) -> Self {
        let mut csr = CsrAdjacency::new();
        csr.rebuild_from(g);
        csr
    }

    /// Re-populates the snapshot from `g`, reusing the existing buffers.
    ///
    /// The rebuild is *packed* (no slack): the first in-place insert per
    /// vertex will regrow with slack, so read-only consumers never pay for
    /// headroom they do not use.
    pub fn rebuild_from(&mut self, g: &OwnedGraph) {
        let _sp = ncg_trace::span(ncg_trace::Phase::CsrRebuild);
        self.populate(g, |_| 0);
    }

    /// Rebuilds from `g` granting every vertex `max(2, deg / 4)` slack slots,
    /// so subsequent patches absorb a constant fraction of the degree in
    /// inserts before the next regrow (amortized `O(1)` regrows per insert).
    fn regrow_from(&mut self, g: &OwnedGraph) {
        self.populate(g, |deg| (deg / 4).max(2));
    }

    fn populate(&mut self, g: &OwnedGraph, slack: impl Fn(usize) -> usize) {
        let n = g.num_nodes();
        self.n = n;
        self.offsets.clear();
        self.lens.clear();
        self.targets.clear();
        self.offsets.reserve(n + 1);
        self.lens.reserve(n);
        self.offsets.push(0);
        self.live = 0;
        for u in 0..n {
            let neighbors = g.neighbors(u);
            for &v in neighbors {
                self.targets.push(v as u32);
            }
            let pad = slack(neighbors.len());
            for _ in 0..pad {
                self.targets.push(u32::MAX);
            }
            self.lens.push(neighbors.len() as u32);
            self.live += neighbors.len();
            self.offsets.push(self.targets.len() as u32);
        }
    }

    /// Maximum number of journal entries worth patching before the plain
    /// rebuild is cheaper: each change edits two `O(deg)` segments, so past a
    /// small fraction of `n` the `O(n + m)` rebuild wins.
    #[inline]
    pub fn patch_limit(&self) -> usize {
        (self.n / 8).max(8)
    }

    /// Brings the snapshot from the state *before* `changes` to the state of
    /// `g` (which must already include them), editing segments in place.
    ///
    /// The caller guarantees the snapshot currently mirrors `g` minus
    /// `changes` (the contract of [`OwnedGraph::changes_since`]). Node-count
    /// mismatches, journals denser than [`CsrAdjacency::patch_limit`] and
    /// exhausted segment slack all degrade gracefully to a rebuild — the
    /// snapshot always ends up equal to `g`.
    pub fn patch_from_journal(&mut self, g: &OwnedGraph, changes: &[EdgeChange]) -> PatchOutcome {
        if g.num_nodes() != self.n || changes.len() > self.patch_limit() {
            self.rebuild_from(g);
            return PatchOutcome::Rebuilt;
        }
        let _sp = ncg_trace::span(ncg_trace::Phase::CsrPatch);
        for change in changes {
            let ok = match *change {
                EdgeChange::Added { u, v } => {
                    self.insert_half(u as u32, v as u32) && self.insert_half(v as u32, u as u32)
                }
                EdgeChange::Removed { u, v } => {
                    self.remove_half(u as u32, v as u32) && self.remove_half(v as u32, u as u32)
                }
            };
            if !ok {
                // Out of slack (or an inconsistent journal): regrow from the
                // target state, which already contains every change — the
                // partially applied prefix is simply absorbed.
                self.regrow_from(g);
                return PatchOutcome::Compacted;
            }
        }
        PatchOutcome::Patched
    }

    /// Inserts `v` into `u`'s sorted live prefix; `false` when the segment has
    /// no slack left (or `v` is unexpectedly present — a journal mismatch).
    fn insert_half(&mut self, u: u32, v: u32) -> bool {
        let lo = self.offsets[u as usize] as usize;
        let len = self.lens[u as usize] as usize;
        let cap = self.offsets[u as usize + 1] as usize - lo;
        if len == cap {
            return false;
        }
        let seg = &mut self.targets[lo..lo + len];
        let pos = match seg.binary_search(&v) {
            Err(pos) => pos,
            Ok(_) => return false,
        };
        self.targets.copy_within(lo + pos..lo + len, lo + pos + 1);
        self.targets[lo + pos] = v;
        self.lens[u as usize] += 1;
        self.live += 1;
        true
    }

    /// Removes `v` from `u`'s sorted live prefix; `false` when absent.
    fn remove_half(&mut self, u: u32, v: u32) -> bool {
        let lo = self.offsets[u as usize] as usize;
        let len = self.lens[u as usize] as usize;
        let seg = &mut self.targets[lo..lo + len];
        let Ok(pos) = seg.binary_search(&v) else {
            return false;
        };
        self.targets.copy_within(lo + pos + 1..lo + len, lo + pos);
        self.lens[u as usize] -= 1;
        self.live -= 1;
        true
    }

    /// Number of vertices in the snapshot.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Total number of stored edge endpoints (`2 m`).
    #[inline]
    pub fn endpoint_count(&self) -> usize {
        self.live
    }

    /// The sorted neighbours of `u` as a contiguous slice.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[u32] {
        let lo = self.offsets[u] as usize;
        let hi = lo + self.lens[u] as usize;
        &self.targets[lo..hi]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn assert_matches(csr: &CsrAdjacency, g: &OwnedGraph, what: &str) {
        assert_eq!(csr.num_nodes(), g.num_nodes(), "{what}: node count");
        assert_eq!(csr.endpoint_count(), g.endpoint_count(), "{what}: 2m");
        for u in 0..g.num_nodes() {
            let expected: Vec<u32> = g.neighbors(u).iter().map(|&v| v as u32).collect();
            assert_eq!(csr.neighbors(u), expected.as_slice(), "{what}: vertex {u}");
        }
    }

    #[test]
    fn snapshot_matches_graph() {
        let g = generators::double_star(3, 4);
        let csr = CsrAdjacency::build(&g);
        assert_matches(&csr, &g, "build");
    }

    #[test]
    fn rebuild_reuses_buffers_and_tracks_mutations() {
        let mut g = generators::path(6);
        let mut csr = CsrAdjacency::build(&g);
        assert_eq!(csr.neighbors(0), &[1]);
        g.add_edge(0, 5);
        csr.rebuild_from(&g);
        assert_eq!(csr.neighbors(0), &[1, 5]);
        assert_eq!(csr.neighbors(5), &[0, 4]);
        // Shrinking graphs are handled too.
        let small = generators::path(2);
        csr.rebuild_from(&small);
        assert_eq!(csr.num_nodes(), 2);
        assert_eq!(csr.neighbors(1), &[0]);
    }

    #[test]
    fn empty_graph_snapshot() {
        let g = OwnedGraph::new(3);
        let csr = CsrAdjacency::build(&g);
        for u in 0..3 {
            assert!(csr.neighbors(u).is_empty());
        }
    }

    #[test]
    fn patch_applies_single_changes_in_place() {
        let mut g = generators::cycle(12);
        let mut csr = CsrAdjacency::build(&g);
        // The packed build has no slack: the first insert-bearing patch
        // regrows once, after which patches are in place.
        let v0 = g.version();
        g.add_edge(0, 6);
        let outcome = csr.patch_from_journal(&g, g.changes_since(v0).unwrap());
        assert_eq!(outcome, PatchOutcome::Compacted);
        assert_matches(&csr, &g, "first insert");
        for step in 0..8 {
            let v = g.version();
            let (a, b) = (step % 12, (step + 5) % 12);
            if g.has_edge(a, b) {
                g.remove_edge(a, b);
            } else {
                g.add_edge(a, b);
            }
            let outcome = csr.patch_from_journal(&g, g.changes_since(v).unwrap());
            assert!(
                outcome.in_place(),
                "step {step}: slack absorbs single-edge changes, got {outcome:?}"
            );
            assert_matches(&csr, &g, "patched step");
        }
    }

    #[test]
    fn dense_journals_fall_back_to_rebuild() {
        let mut g = generators::path(16);
        let mut csr = CsrAdjacency::build(&g);
        let v0 = g.version();
        for i in 0..8 {
            g.add_edge(i, i + 8);
        }
        // 8 changes > patch_limit() = max(8, 16/8) = 8? No: 8 > 8 is false, so
        // force clearly past the limit.
        for i in 0..4 {
            g.add_edge(i, i + 4);
        }
        let changes = g.changes_since(v0).unwrap();
        assert!(changes.len() > csr.patch_limit());
        let outcome = csr.patch_from_journal(&g, changes);
        assert_eq!(outcome, PatchOutcome::Rebuilt);
        assert_matches(&csr, &g, "dense fallback");
    }

    #[test]
    fn node_count_change_falls_back_to_rebuild() {
        let g = generators::path(6);
        let mut csr = CsrAdjacency::build(&g);
        let bigger = generators::path(9);
        let outcome = csr.patch_from_journal(&bigger, &[]);
        assert_eq!(outcome, PatchOutcome::Rebuilt);
        assert_matches(&csr, &bigger, "grown");
        let smaller = generators::path(4);
        let outcome = csr.patch_from_journal(&smaller, &[]);
        assert_eq!(outcome, PatchOutcome::Rebuilt);
        assert_matches(&csr, &smaller, "shrunk");
    }

    #[test]
    fn exhausted_slack_regrows_and_stays_correct() {
        // Keep inserting around one hub: each regrow grants deg/4 slack, so
        // the hub exhausts it repeatedly; every state must still match.
        let mut g = OwnedGraph::new(24);
        for v in 1..4 {
            g.add_edge(0, v);
        }
        let mut csr = CsrAdjacency::build(&g);
        for v in 4..24 {
            let ver = g.version();
            g.add_edge(0, v);
            csr.patch_from_journal(&g, g.changes_since(ver).unwrap());
            assert_matches(&csr, &g, "hub growth");
        }
    }
}
