//! Pluggable single-source distance oracles for candidate-move scoring.
//!
//! The hot operation of best-response dynamics is: *given the current network
//! `G` and an agent `u`, what is `u`'s distance summary in `G ± a few edges`?*
//! Historically every candidate move paid a full apply → BFS → undo cycle.
//! This module turns that cost into a pluggable engine:
//!
//! * [`FullBfsOracle`] — the reference: every evaluation is a fresh BFS over
//!   a [`CsrAdjacency`] snapshot patched with the candidate's edge deltas.
//! * [`PersistentOracle`] — keeps the source's exact distance vector for the
//!   *base* graph and repairs it under each candidate's [`EdgeDelta`]s with
//!   truncated BFS: inserts run a decrease-only relaxation from the improved
//!   endpoint, deletions find the orphaned region (the vertices whose every
//!   shortest path used the deleted edge) and re-settle it with a bucket
//!   Dijkstra seeded from its unaffected boundary. All repairs are journaled
//!   and rolled back after scoring, so hundreds of candidates are evaluated
//!   against one base vector without re-running a single full BFS. The
//!   SUM / MAX aggregates are maintained incrementally (a running sum plus
//!   per-level counters), so a candidate evaluation touching `k` vertices
//!   costs `O(k + affected edges)` rather than `O(n)`.
//!
//! The oracles are deliberately *what-if* engines: [`DistanceOracle::begin`]
//! pins the base state and [`DistanceOracle::evaluate`] answers one candidate
//! against it. The persistent backend additionally keeps the previous
//! candidate's deltas applied and only rolls back to the longest common delta
//! prefix, so candidate enumerations of the form `(from, to₁), (from, to₂), …`
//! pay the expensive removal repair once per `from`. Correctness of the
//! repairs against from-scratch BFS is enforced by the randomized
//! equivalence tests in the facade crate.
//!
//! Distance vectors are carried **across** `begin` calls in a per-source
//! cache, synchronized *lazily*: each vector carries its own [`GraphVersion`]
//! stamp and is only
//! repaired — by replaying the journal window between its stamp and the
//! current version — when it is next needed (`begin`, `pin_sources`, the
//! cache-arithmetic path) or when the caller bulk-warms it
//! ([`DistanceOracle::warm_sources`], which also advances provably-unchanged
//! vectors by a stamp bump alone). The staleness fallback is per-vector: a
//! window longer than `max(8, n/8)` changes makes *that* vector re-pin with
//! one full BFS, without touching its neighbours in the cache.

use crate::batch::{BatchSummary, MultiSourceBfs, BATCH_WIDTH};
use crate::csr::{CsrAdjacency, PatchOutcome};
use crate::distances::{DistanceSummary, MAX_NODES, UNREACHABLE};
use crate::graph::{EdgeChange, GraphVersion, NodeId, OwnedGraph};
use ncg_trace as trace;

/// A single undirected edge change relative to the base graph.
///
/// Deltas are applied in order by [`DistanceOracle::evaluate`]; an `Insert`
/// must name an edge absent from (and a `Remove` an edge present in) the graph
/// obtained from the base by the preceding deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeDelta {
    /// Add the undirected edge `{u, v}`.
    Insert {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
    /// Remove the undirected edge `{u, v}`.
    Remove {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
}

/// Which distance-oracle backend a workspace uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OracleKind {
    /// Full BFS per candidate evaluation: the reference the fast backend is
    /// checked against.
    FullBfs,
    /// Journaled truncated-BFS repair per candidate evaluation, with distance
    /// vectors carried **across** `begin` calls: each source's vector is
    /// cached together with the graph's [`GraphVersion`], and the next
    /// `begin` for that source replays the applied [`EdgeChange`]s from the
    /// graph's change journal instead of re-running the full BFS (with a
    /// staleness fallback when too many changes accumulated).
    #[default]
    Persistent,
}

impl OracleKind {
    /// Short label used in reports and benchmarks.
    pub fn label(&self) -> &'static str {
        match self {
            OracleKind::FullBfs => "full-bfs",
            OracleKind::Persistent => "persistent",
        }
    }

    /// Inverse of [`OracleKind::label`] (plan-spec round trips).
    pub fn parse(s: &str) -> Option<OracleKind> {
        match s {
            "full-bfs" => Some(OracleKind::FullBfs),
            "persistent" => Some(OracleKind::Persistent),
            _ => None,
        }
    }
}

/// Work counters of an oracle, for ablation measurements.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Full BFS traversals performed (one per [`DistanceOracle::begin`], plus
    /// one per evaluation for the full-BFS backend).
    pub full_bfs_runs: u64,
    /// Candidate evaluations answered.
    pub evaluations: u64,
    /// Vertices expanded across all traversals and repairs — the
    /// backend-comparable measure of work done.
    pub nodes_expanded: u64,
    /// `begin` calls served by replaying the graph's change journal onto a
    /// cached distance vector instead of a full BFS (persistent backend only).
    pub replayed_begins: u64,
    /// CSR snapshot syncs served by in-place journal patching — `O(changes)`
    /// instead of the `O(n + m)` rebuild (persistent backend only).
    pub csr_patches: u64,
    /// CSR snapshot syncs that had to rebuild (or regrow) the flat buffers:
    /// version jumps, dense journals, exhausted segment slack, and every
    /// `begin` of the stateless backends.
    pub csr_rebuilds: u64,
    /// Parked vectors advanced to the current graph version by replaying
    /// their own journal window *outside* a [`DistanceOracle::begin`] — the
    /// lazy path: bulk warming ([`DistanceOracle::warm_sources`]) and
    /// on-demand warming inside
    /// [`DistanceOracle::evaluate_insert_via_cache`] / `pin_sources`.
    pub lazy_replays: u64,
    /// Parked vectors advanced by a trusted *stamp bump* alone: the caller's
    /// dirty set excluded the source, so the vector is provably unchanged
    /// over the window and no repair ran at all.
    pub warm_bumps: u64,
    /// [`DistanceOracle::warm_sources`] passes that advanced at least one
    /// vector (one shared CSR sync, many per-vector repairs).
    pub warm_batches: u64,
    /// Cache-arithmetic what-if queries that were served only because an
    /// on-demand lazy warm first brought the target's parked vector to the
    /// pinned version — queries the eager-sync model would have missed.
    pub lazy_hits: u64,
    /// Parked vectors recomputed by the word-parallel bulk waves (up to
    /// [`BATCH_WIDTH`] sources per shared bitset BFS) instead of one scalar
    /// traversal each: cold bulk pins and vectors whose journal window grew
    /// past the replay limit.
    pub batched_repins: u64,
    /// High-water mark of the parked per-source cache, in bytes: the peak
    /// number of occupied slots times `2·(2n + 2)` bytes per slot (a `u16`
    /// distance vector plus `n + 2` `u16` level counters).
    pub peak_parked_bytes: u64,
    /// Fused `O(n)` insertion kernels run by
    /// [`DistanceOracle::evaluate_insert_via_cache`].
    pub kernel_calls: u64,
    /// `O(D)` level-histogram lower bounds answered by
    /// [`DistanceOracle::insert_level_bound`] (`D` = number of distance
    /// levels).
    pub bound_queries: u64,
    /// Candidates whose level-histogram bound kept them from the insertion
    /// kernel: proven non-improving, or unable to reach the best cost of a
    /// best-response scan. Only the caller can decide a prune, because the
    /// cost model belongs to the game. The scoring layer
    /// (`ncg_core::evaluator::CostEvaluator::stats`) fills this field in;
    /// an oracle's own counters always report 0 here.
    pub bound_pruned: u64,
    /// Histogram of warm-pass widths: how many parked vectors each
    /// [`DistanceOracle::warm_sources`] pass had to *repair* (scalar replays
    /// plus batched recomputes; trusted stamp bumps are free and excluded).
    /// Bucket `i` counts passes of width `w` with `ceil(log2(w)) == i`
    /// (bucket 0: `w == 1`, bucket 1: `w == 2`, bucket 2: `3..=4`, …,
    /// bucket 6: `33..=64`, bucket 7: `w > 64`).
    pub warm_batch_width: [u64; 8],
}

/// Histogram bucket of a warm-pass width (see
/// [`OracleStats::warm_batch_width`]).
fn width_bucket(w: usize) -> usize {
    if w <= 1 {
        0
    } else {
        ((usize::BITS - (w - 1).leading_zeros()) as usize).min(7)
    }
}

impl OracleStats {
    /// Internal-consistency invariants that hold for any counter state the
    /// oracle code can produce — and, because each is a linear inequality
    /// over summed fields, for any [`OracleStats::merge`] of such states:
    ///
    /// * every warm pass tallied in the width histogram repaired at least
    ///   one vector, so it also counted as a `warm_batches` pass (bump-only
    ///   passes count toward `warm_batches` but have width 0);
    /// * a `lazy_hits` query first lazily replayed the target's parked
    ///   vector, so each one is covered by a `lazy_replays` increment;
    /// * a candidate is pruned by its level-histogram bound only after that
    ///   bound was answered.
    pub fn consistent(&self) -> bool {
        let width_passes: u64 = self.warm_batch_width.iter().sum();
        width_passes <= self.warm_batches
            && self.lazy_hits <= self.lazy_replays
            && self.bound_pruned <= self.bound_queries
    }

    /// Debug assertion of [`OracleStats::consistent`]; free in release
    /// builds, and cheap enough for every [`DistanceOracle::stats`] read.
    pub fn debug_validate(&self) {
        debug_assert!(self.consistent(), "inconsistent oracle counters: {self:?}");
    }

    /// Field-wise sum, for aggregating counters across trials.
    pub fn merge(&mut self, other: &OracleStats) {
        self.full_bfs_runs += other.full_bfs_runs;
        self.evaluations += other.evaluations;
        self.nodes_expanded += other.nodes_expanded;
        self.replayed_begins += other.replayed_begins;
        self.csr_patches += other.csr_patches;
        self.csr_rebuilds += other.csr_rebuilds;
        self.lazy_replays += other.lazy_replays;
        self.warm_bumps += other.warm_bumps;
        self.warm_batches += other.warm_batches;
        self.lazy_hits += other.lazy_hits;
        self.batched_repins += other.batched_repins;
        self.kernel_calls += other.kernel_calls;
        self.bound_queries += other.bound_queries;
        self.bound_pruned += other.bound_pruned;
        self.peak_parked_bytes = self.peak_parked_bytes.max(other.peak_parked_bytes);
        for (a, b) in self
            .warm_batch_width
            .iter_mut()
            .zip(&other.warm_batch_width)
        {
            *a += b;
        }
    }
}

/// A single-source distance engine answering what-if queries about edge deltas.
pub trait DistanceOracle: Send {
    /// The backend this oracle implements.
    fn kind(&self) -> OracleKind;

    /// Pins the base state `(g, src)` and returns the source's base summary.
    ///
    /// Must be called before [`DistanceOracle::evaluate`] and again whenever
    /// the underlying graph or source changes.
    fn begin(&mut self, g: &OwnedGraph, src: NodeId) -> DistanceSummary;

    /// Distance summary of `src` in the base graph modified by `deltas`
    /// (applied in order). A pure what-if query: the next call sees the same
    /// base state (backends may defer the rollback and reuse the longest
    /// common delta prefix between consecutive evaluations).
    fn evaluate(&mut self, deltas: &[EdgeDelta]) -> DistanceSummary;

    /// Warms the backend's per-source state for every vertex of `sources` at
    /// the current version of `g`.
    ///
    /// For the persistent backend each source's distance vector ends up
    /// parked in the per-source cache stamped with `g`'s current version, so
    /// a later [`DistanceOracle::evaluate_for_source`] (or re-`begin`) of the
    /// same source is served by journal replay in `O(changes)` instead of a
    /// full BFS. Sources whose vector is already parked at an older version
    /// are repaired *in place* by replaying their own journal window, without
    /// churning the pinned working vector. Stateless backends simply run one
    /// BFS per source.
    fn pin_sources(&mut self, g: &OwnedGraph, sources: &[NodeId]) {
        for &src in sources {
            self.begin(g, src);
        }
    }

    /// The source's distance summary served *without pinning*: from its
    /// parked vector when that is stamped at the current version of `g` (or
    /// from the working vector when `src` is pinned there). `None` whenever
    /// answering would require any repair or BFS — the caller then falls
    /// back to a full [`DistanceOracle::begin`]. Under post-move warming
    /// this turns the dirty engine's per-step cost refresh into `O(1)` reads
    /// instead of source-switching re-pins.
    fn cached_summary(&mut self, _g: &OwnedGraph, _src: NodeId) -> Option<DistanceSummary> {
        None
    }

    /// The fused post-move pass of the persistent backend: replays the
    /// vectors of `seeds` (a committed move's endpoints, which the caller
    /// pinned at the *pre-move* version) over the move's journal window,
    /// collecting into `changed` the exact union of the seeds and every
    /// vertex whose distance to a seed net-changed — precisely the
    /// invalidation set of the dirty engine — and then advances every other
    /// parked vector like [`DistanceOracle::warm_sources`] with that union
    /// as the dirty set, all in one pass over the shared delta window.
    ///
    /// Returns `false` (with `changed` unspecified and no warming chain
    /// advanced past what was already done) when any seed's window cannot be
    /// replayed — the caller must then invalidate conservatively and call
    /// `warm_sources` with an all-dirty set. Stateless backends always
    /// return `false`.
    fn warm_after_move(
        &mut self,
        _g: &OwnedGraph,
        _seeds: &[NodeId],
        _changed: &mut Vec<NodeId>,
    ) -> bool {
        false
    }

    /// Bulk warming hook of the persistent backend: advances every parked
    /// vector to the current version of `g` in one grouped pass over the
    /// shared delta window (one CSR patch, many per-vector repairs). A no-op
    /// for the stateless backends.
    ///
    /// `dirty` is the caller's promise about what actually moved: it must
    /// contain **every vertex whose distance vector may have changed** since
    /// the previous `warm_sources` call on the same graph (for the dynamics
    /// engine: since the last committed move, whose change union the
    /// dirty-agent machinery computes anyway). Vectors of dirty sources are
    /// repaired by replaying their journal window; vectors of sources *not*
    /// listed are — when the oracle can prove the warming chain is unbroken —
    /// advanced by a stamp bump alone, which is what keeps the pass
    /// `O(changes + |dirty| · repair)` instead of `O(parked · changes)`.
    /// When the chain cannot be trusted (first call, a version gap, a foreign
    /// graph) every parked vector is repaired from its own stamp instead, so
    /// a wrong *gap* degrades to extra work, never to wrong distances; a
    /// dirty set that under-reports the changes of its own window is a
    /// caller bug the randomized warming tests guard against.
    fn warm_sources(&mut self, _g: &OwnedGraph, _dirty: &[NodeId]) {}

    /// Multi-source what-if query: re-pins `(g, src)` and scores `deltas`
    /// against it, returning the source's `(base, modified)` summaries.
    ///
    /// This is the primitive behind consent checks: "what does agent `src`
    /// pay *after* candidate move `deltas`?" answered without materialising
    /// the post-move graph. The persistent backend serves the re-pin from its
    /// per-source cache by replaying the graph's change journal, so the whole
    /// query costs `O(changes + affected region)`; stateless backends pay one
    /// full BFS for the re-pin.
    fn evaluate_for_source(
        &mut self,
        g: &OwnedGraph,
        src: NodeId,
        deltas: &[EdgeDelta],
    ) -> (DistanceSummary, DistanceSummary) {
        let base = self.begin(g, src);
        let modified = self.evaluate(deltas);
        (base, modified)
    }

    /// Arithmetic what-if for a **trailing edge insertion** `{u, v}` applied
    /// on top of `prefix`: the candidate `prefix ++ [Insert {u, v}]` scored
    /// from the pinned source's delta-stack state and `v`'s *parked* base
    /// vector, with no graph traversal at all — one `O(n)` fused min/sum/max
    /// pass over two flat arrays.
    ///
    /// Returns `(summary, exact)`:
    /// * `exact == true` (empty `prefix`) — the summary is the exact
    ///   post-insertion summary, by the single-insertion identity
    ///   `d'(x) = min(d(src, x), 1 + d(v, x))`.
    /// * `exact == false` (removal-only `prefix`) — the parked vector of `v`
    ///   predates the removals, which can only *lengthen* `v`'s distances, so
    ///   the summary is a **lower bound** on the true one: callers may prune
    ///   candidates whose lower-bound cost is already not an improvement, and
    ///   must re-score the rest exactly.
    ///
    /// A stale parked vector of `v` does not miss outright: the persistent
    /// backend first tries to *lazily warm* it by replaying `v`'s own journal
    /// window against `g` (which must be the pinned graph, unchanged since
    /// the last `begin`), so the fast path stays lit even for sources the
    /// caller has not re-pinned in many steps.
    ///
    /// `None` whenever the backend cannot serve the query (stateless
    /// backends; `u` not the pinned source; `v`'s vector neither parked at
    /// the pinned version nor lazily warmable to it; `prefix` containing
    /// insertions, which would flip the bound's direction).
    ///
    /// Scans put a cheaper `O(D)` tier in front of this `O(n)` pass:
    /// [`DistanceOracle::insert_level_bound`] bounds the same candidate from
    /// level histograms alone, and most candidates never get here.
    fn evaluate_insert_via_cache(
        &mut self,
        _g: &OwnedGraph,
        _prefix: &[EdgeDelta],
        _u: NodeId,
        _v: NodeId,
    ) -> Option<(DistanceSummary, bool)> {
        None
    }

    /// `O(D)` lower bound (`D` = number of distance levels) on the summary
    /// of the same candidate [`DistanceOracle::evaluate_insert_via_cache`]
    /// scores: the trailing insertion `{u, v}` on top of a removal-only
    /// `prefix`. Reads no distance vector. It pairs the pinned source's
    /// per-level vertex counts after `prefix` (unreached vertices at level
    /// +∞) with `v`'s parked per-level counts in opposite order. With
    /// `U(k) = #{x : d_u(x) ≥ k}` and `W(k) = #{x : d_v(x) ≥ k − 1}`, that is
    /// `SUM = Σ_{k≥1} max(0, U(k) + W(k) − n)` and `MAX` = the largest `k`
    /// with a positive term. The pairing minimises SUM and MAX of
    /// `min(a, 1 + b)` over all pairings, so both fields are `≤` the
    /// kernel's, and hence `≤` the exact post-move summary.
    ///
    /// `None` whenever the backend cannot serve the query: every case where
    /// the kernel returns `None`, plus a disconnected parked vector of `v`.
    /// Callers then take the kernel path.
    fn insert_level_bound(
        &mut self,
        _g: &OwnedGraph,
        _prefix: &[EdgeDelta],
        _u: NodeId,
        _v: NodeId,
    ) -> Option<DistanceSummary> {
        None
    }

    /// Like [`DistanceOracle::evaluate`], additionally copying the full
    /// modified distance vector into `out` (used by equivalence tests).
    fn evaluate_into(&mut self, deltas: &[EdgeDelta], out: &mut Vec<u16>) -> DistanceSummary;

    /// The base distance vector pinned by the last [`DistanceOracle::begin`].
    fn base_distances(&mut self) -> &[u16];

    /// Work counters accumulated since the last reset.
    fn stats(&self) -> OracleStats;

    /// Clears the work counters.
    fn reset_stats(&mut self);
}

/// Creates a boxed oracle of the requested backend for graphs on `n` vertices.
pub fn make_oracle(kind: OracleKind, n: usize) -> Box<dyn DistanceOracle> {
    match kind {
        OracleKind::FullBfs => Box::new(FullBfsOracle::new(n)),
        OracleKind::Persistent => Box::new(PersistentOracle::new(n)),
    }
}

/// The set of edge deltas currently overlaid on a CSR snapshot.
///
/// Kept tiny (candidate moves touch at most a handful of edges), so membership
/// tests are linear scans over at most a few entries.
#[derive(Debug, Clone, Default)]
struct DeltaOverlay {
    added: Vec<(u32, u32)>,
    removed: Vec<(u32, u32)>,
}

impl DeltaOverlay {
    fn clear(&mut self) {
        self.added.clear();
        self.removed.clear();
    }

    fn key(u: u32, v: u32) -> (u32, u32) {
        if u < v {
            (u, v)
        } else {
            (v, u)
        }
    }

    fn activate(&mut self, delta: &EdgeDelta) {
        match *delta {
            EdgeDelta::Insert { u, v } => {
                let k = Self::key(u as u32, v as u32);
                if let Some(pos) = self.removed.iter().position(|&e| e == k) {
                    self.removed.swap_remove(pos);
                } else {
                    self.added.push(k);
                }
            }
            EdgeDelta::Remove { u, v } => {
                let k = Self::key(u as u32, v as u32);
                if let Some(pos) = self.added.iter().position(|&e| e == k) {
                    self.added.swap_remove(pos);
                } else {
                    self.removed.push(k);
                }
            }
        }
    }

    #[inline]
    fn is_removed(&self, x: u32, y: u32) -> bool {
        self.removed.contains(&Self::key(x, y))
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// The [`EdgeDelta`] that undoes a journal entry.
fn invert(change: &EdgeChange) -> EdgeDelta {
    match *change {
        EdgeChange::Added { u, v } => EdgeDelta::Remove { u, v },
        EdgeChange::Removed { u, v } => EdgeDelta::Insert { u, v },
    }
}

/// Iterates the neighbours of `x` in the overlaid graph.
#[inline]
fn for_each_neighbor<F: FnMut(u32)>(csr: &CsrAdjacency, overlay: &DeltaOverlay, x: u32, mut f: F) {
    if overlay.removed.is_empty() {
        for &y in csr.neighbors(x as usize) {
            f(y);
        }
    } else {
        for &y in csr.neighbors(x as usize) {
            if !overlay.is_removed(x, y) {
                f(y);
            }
        }
    }
    for &(a, b) in &overlay.added {
        if a == x {
            f(b);
        } else if b == x {
            f(a);
        }
    }
}

/// Baseline backend: one full BFS per evaluation.
pub struct FullBfsOracle {
    csr: CsrAdjacency,
    src: u32,
    base: Vec<u16>,
    scratch: Vec<u16>,
    queue: Vec<u32>,
    overlay: DeltaOverlay,
    stats: OracleStats,
}

impl FullBfsOracle {
    /// Creates a full-BFS oracle for graphs on `n` vertices.
    pub fn new(n: usize) -> Self {
        assert!(
            n <= MAX_NODES,
            "u16 distances support at most {MAX_NODES} vertices (got {n})"
        );
        FullBfsOracle {
            csr: CsrAdjacency::new(),
            src: 0,
            base: vec![UNREACHABLE; n],
            scratch: Vec::new(),
            queue: Vec::with_capacity(n),
            overlay: DeltaOverlay::default(),
            stats: OracleStats::default(),
        }
    }

    /// BFS over the overlaid snapshot into `dist`, returning the summary.
    fn bfs(
        csr: &CsrAdjacency,
        overlay: &DeltaOverlay,
        src: u32,
        dist: &mut Vec<u16>,
        queue: &mut Vec<u32>,
        stats: &mut OracleStats,
    ) -> DistanceSummary {
        let n = csr.num_nodes();
        dist.clear();
        dist.resize(n, UNREACHABLE);
        queue.clear();
        dist[src as usize] = 0;
        queue.push(src);
        let mut head = 0usize;
        let mut sum = 0u64;
        let mut max = 0u16;
        while head < queue.len() {
            let x = queue[head];
            head += 1;
            stats.nodes_expanded += 1;
            let dx = dist[x as usize];
            sum += u64::from(dx);
            max = max.max(dx);
            for_each_neighbor(csr, overlay, x, |y| {
                if dist[y as usize] == UNREACHABLE {
                    dist[y as usize] = dx + 1;
                    queue.push(y);
                }
            });
        }
        stats.full_bfs_runs += 1;
        if queue.len() < n {
            DistanceSummary::DISCONNECTED
        } else {
            DistanceSummary {
                sum: Some(sum),
                max: Some(u32::from(max)),
            }
        }
    }
}

impl DistanceOracle for FullBfsOracle {
    fn kind(&self) -> OracleKind {
        OracleKind::FullBfs
    }

    fn begin(&mut self, g: &OwnedGraph, src: NodeId) -> DistanceSummary {
        let _sp = trace::span(trace::Phase::OracleBegin);
        self.csr.rebuild_from(g);
        self.stats.csr_rebuilds += 1;
        self.src = src as u32;
        self.overlay.clear();
        Self::bfs(
            &self.csr,
            &self.overlay,
            self.src,
            &mut self.base,
            &mut self.queue,
            &mut self.stats,
        )
    }

    fn evaluate(&mut self, deltas: &[EdgeDelta]) -> DistanceSummary {
        let _sp = trace::span(trace::Phase::DeltaRepair);
        self.stats.evaluations += 1;
        for delta in deltas {
            self.overlay.activate(delta);
        }
        let summary = Self::bfs(
            &self.csr,
            &self.overlay,
            self.src,
            &mut self.scratch,
            &mut self.queue,
            &mut self.stats,
        );
        self.overlay.clear();
        summary
    }

    fn evaluate_into(&mut self, deltas: &[EdgeDelta], out: &mut Vec<u16>) -> DistanceSummary {
        let summary = self.evaluate(deltas);
        out.clear();
        out.extend_from_slice(&self.scratch);
        summary
    }

    fn base_distances(&mut self) -> &[u16] {
        &self.base
    }

    fn stats(&self) -> OracleStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = OracleStats::default();
    }
}

/// Distance vector with incrementally maintained SUM / MAX aggregates and an
/// undo journal.
#[derive(Debug, Clone, Default)]
struct DistState {
    dist: Vec<u16>,
    /// Sum of all finite distances.
    sum: u64,
    /// Number of vertices with finite distance (including the source).
    reached: usize,
    /// `level_counts[d]` = number of vertices at distance `d`.
    level_counts: Vec<u16>,
    /// Upper bound on the current maximum finite distance.
    max_hint: u16,
    /// `(vertex, previous distance)` pairs for rollback.
    journal: Vec<(u32, u16)>,
    /// When `true`, assignments are applied *permanently*: the undo journal is
    /// bypassed even when the caller requests journaling. Used while replaying
    /// applied graph changes.
    replaying: bool,
    /// While `replaying`, every touched vertex is recorded once together with
    /// its pre-replay distance, for the exact changed-vertex export.
    touched: Vec<u32>,
    touch_stamp: Vec<u32>,
    touch_old: Vec<u16>,
    touch_epoch: u32,
}

impl DistState {
    fn reset(&mut self, n: usize) {
        self.dist.clear();
        self.dist.resize(n, UNREACHABLE);
        self.level_counts.clear();
        self.level_counts.resize(n + 2, 0);
        self.sum = 0;
        self.reached = 0;
        self.max_hint = 0;
        self.journal.clear();
    }

    /// Enters replay mode: journaling off, change tracking on.
    fn begin_replay(&mut self, n: usize) {
        debug_assert!(self.journal.is_empty(), "replay on top of candidate deltas");
        self.replaying = true;
        self.touched.clear();
        if self.touch_stamp.len() < n {
            self.touch_stamp.resize(n, 0);
            self.touch_old.resize(n, 0);
        }
        self.touch_epoch = self.touch_epoch.wrapping_add(1);
        if self.touch_epoch == 0 {
            self.touch_stamp.fill(0);
            self.touch_epoch = 1;
        }
    }

    /// Leaves replay mode, retaining only the vertices whose distance really
    /// differs from its pre-replay value (touch-and-restore cancels out).
    fn end_replay(&mut self) {
        self.replaying = false;
        let DistState {
            touched,
            dist,
            touch_old,
            ..
        } = self;
        touched.retain(|&x| dist[x as usize] != touch_old[x as usize]);
    }

    #[inline]
    fn get(&self, x: u32) -> u16 {
        self.dist[x as usize]
    }

    /// Sets `dist[x] = new`, keeping the aggregates in sync; `journal = true`
    /// records the old value for rollback (unless a replay is in progress, in
    /// which case the assignment is permanent and the vertex is tracked as
    /// touched instead).
    #[inline]
    fn assign(&mut self, x: u32, new: u16, journal: bool) {
        let old = self.dist[x as usize];
        if self.replaying {
            if self.touch_stamp[x as usize] != self.touch_epoch {
                self.touch_stamp[x as usize] = self.touch_epoch;
                self.touch_old[x as usize] = old;
                self.touched.push(x);
            }
        } else if journal {
            self.journal.push((x, old));
        }
        if old != UNREACHABLE {
            self.sum -= u64::from(old);
            self.level_counts[old as usize] -= 1;
            self.reached -= 1;
        }
        if new != UNREACHABLE {
            self.sum += u64::from(new);
            self.level_counts[new as usize] += 1;
            self.reached += 1;
            self.max_hint = self.max_hint.max(new);
        }
        self.dist[x as usize] = new;
    }

    /// Reverts journaled assignments down to `journal_len` entries;
    /// `max_hint` restores the max bound recorded at that point.
    fn rollback_to(&mut self, journal_len: usize, max_hint: u16) {
        while self.journal.len() > journal_len {
            let (x, old) = self.journal.pop().expect("journal length checked");
            self.assign(x, old, false);
        }
        self.max_hint = max_hint;
    }

    /// Current summary; tightens `max_hint` to the true maximum.
    fn summary(&mut self, n: usize) -> DistanceSummary {
        if self.reached < n {
            return DistanceSummary::DISCONNECTED;
        }
        let mut m = self.max_hint;
        while m > 0 && self.level_counts[m as usize] == 0 {
            m -= 1;
        }
        self.max_hint = m;
        DistanceSummary {
            sum: Some(self.sum),
            max: Some(u32::from(m)),
        }
    }
}

/// A resume point of the delta stack: the journal length and max bound right
/// before the corresponding delta was applied.
#[derive(Debug, Clone, Copy)]
struct Checkpoint {
    journal_len: usize,
    max_hint: u16,
}

/// A cached per-source distance vector of the persistent backend, valid at
/// `version` of the pinned graph's change journal. The level counters are
/// cached alongside the vector so activating a source is a pair of `O(1)`
/// buffer swaps rather than an `O(n)` rebuild.
#[derive(Debug, Clone, Default)]
struct SourceCache {
    dist: Vec<u16>,
    level_counts: Vec<u16>,
    sum: u64,
    reached: usize,
    max_hint: u16,
    version: Option<GraphVersion>,
    /// Monotonic recency stamp of the last park/activate, for LRU eviction.
    last_used: u64,
}

/// Persistent backend ([`OracleKind::Persistent`]): journaled truncated-BFS
/// repair of the base vector, with per-source vectors carried across
/// `begin` calls.
///
/// Consecutive evaluations share work through the *delta stack*: the deltas of
/// the previous evaluation stay applied, and the next evaluation only rolls
/// back to the longest common prefix before repairing its own suffix. A
/// best-response scan enumerating swaps as `(from, to₁), (from, to₂), …` thus
/// pays the expensive `Remove {u, from}` repair once per `from`, not once per
/// candidate.
///
/// `begin` carries each source's distance vector **across** calls: the vector
/// is cached together with the graph's [`GraphVersion`], and the next `begin`
/// for that source replays the edge changes recorded in the graph's journal
/// through the same repair machinery instead of re-running the full BFS. A
/// staleness heuristic (too many accumulated changes, a foreign lineage, or a
/// discarded journal window) falls back to the full BFS, so the backend is
/// never slower than re-pinning asymptotically and is exact in all cases.
pub struct PersistentOracle {
    csr: CsrAdjacency,
    src: u32,
    state: DistState,
    /// Deltas currently applied on top of the base vector.
    active: Vec<EdgeDelta>,
    /// `checkpoints[i]` restores the state right before `active[i]`.
    checkpoints: Vec<Checkpoint>,
    queue: Vec<u32>,
    /// Epoch stamps: `mark[x] == epoch` ⇔ `x` is affected by the current
    /// delete repair.
    mark: Vec<u32>,
    /// Epoch stamps: `x` has already been orphan-checked this repair.
    checked: Vec<u32>,
    /// Tentative distances of affected vertices; entries are (re)initialised
    /// for every vertex marked affected in the current repair, so validity is
    /// implied by `mark[x] == epoch`.
    tent: Vec<u16>,
    /// Affected vertices of the current delete repair.
    affected: Vec<u32>,
    /// Neighbour scratch buffer of the delete repair's phase 1.
    cand: Vec<u32>,
    /// Dial buckets for the bounded re-settling Dijkstra.
    buckets: Vec<Vec<u32>>,
    epoch: u32,
    overlay: DeltaOverlay,
    stats: OracleStats,
    /// Per-source cached vectors (lazily populated).
    cache: Vec<SourceCache>,
    /// Requested cap on the number of occupied cache slots (`None` = the
    /// default rule: unlimited at `n ≤ 8192`, capped at 8192 beyond).
    slot_cap: Option<usize>,
    /// Number of cache slots currently holding a parked vector.
    cached_count: usize,
    /// Monotonic clock driving the LRU recency stamps.
    lru_tick: u64,
    /// Version the working [`DistState`] reflects; `None` until the first
    /// successful `begin`.
    pinned_version: Option<GraphVersion>,
    /// Version the CSR snapshot was built at.
    csr_version: Option<GraphVersion>,
    /// Spare [`DistState`] the lazy-warm path swaps in so a parked vector can
    /// be repaired without disturbing the pinned working vector (or its
    /// active candidate deltas).
    warm_state: DistState,
    /// Spare overlay of the lazy-warm path (the working overlay may hold the
    /// pinned source's candidate deltas mid-scan).
    warm_overlay: DeltaOverlay,
    /// Version up to which the trusted warming chain is unbroken: every
    /// parked vector was advanced (bump or replay) by the `warm_sources`
    /// call that stamped this version, so the *next* call's dirty set fully
    /// describes the window from here to its own version. `None` until the
    /// first warming pass (and after any cache reset).
    warm_floor: Option<GraphVersion>,
    /// Epoch stamps marking membership in the current warming call's dirty
    /// set (`dirty_stamp[x] == dirty_epoch`).
    dirty_stamp: Vec<u32>,
    dirty_epoch: u32,
    /// Shared bitset-frontier workspace of the bulk waves.
    wave: MultiSourceBfs,
    /// Sources queued for the next bulk wave (cold or past the replay limit).
    batch_pending: Vec<u32>,
}

impl PersistentOracle {
    /// Creates a persistent oracle for graphs on `n` vertices under the
    /// default slot cap: unlimited at `n ≤ 8192`, capped at 8192 sources
    /// beyond.
    pub fn new(n: usize) -> Self {
        PersistentOracle::with_slot_cap(n, None)
    }

    /// Like [`PersistentOracle::new`], with an explicit cap on the number of
    /// sources whose vectors may stay parked in the per-source cache at once
    /// (`None` = the default rule). Each parked vector costs `2·(2n + 2)`
    /// bytes (distances + level counters). Over the cap the stalest, then
    /// least recently used, vector is evicted; evicted sources return through
    /// the 64-wide batch waves or a full re-pin. Purely a memory knob:
    /// summaries are exact under any cap.
    pub fn with_slot_cap(n: usize, slot_cap: Option<usize>) -> Self {
        assert!(
            n <= MAX_NODES,
            "u16 distances support at most {MAX_NODES} vertices (got {n})"
        );
        let mut oracle = PersistentOracle {
            csr: CsrAdjacency::new(),
            src: 0,
            state: DistState::default(),
            active: Vec::with_capacity(4),
            checkpoints: Vec::with_capacity(4),
            queue: Vec::with_capacity(n),
            mark: Vec::new(),
            checked: Vec::new(),
            tent: Vec::new(),
            affected: Vec::new(),
            cand: Vec::new(),
            buckets: Vec::new(),
            epoch: 0,
            overlay: DeltaOverlay::default(),
            stats: OracleStats::default(),
            cache: Vec::new(),
            slot_cap,
            cached_count: 0,
            lru_tick: 0,
            pinned_version: None,
            csr_version: None,
            warm_state: DistState::default(),
            warm_overlay: DeltaOverlay::default(),
            warm_floor: None,
            dirty_stamp: Vec::new(),
            dirty_epoch: 0,
            wave: MultiSourceBfs::new(),
            batch_pending: Vec::new(),
        };
        oracle.resize_scratch(n);
        oracle.cache.resize_with(n, SourceCache::default);
        oracle
    }

    /// The effective slot cap for the current graph size.
    fn slot_cap(&self) -> usize {
        const DEFAULT_UNLIMITED_UP_TO: usize = 8192;
        self.slot_cap.unwrap_or({
            if self.cache.len() <= DEFAULT_UNLIMITED_UP_TO {
                usize::MAX
            } else {
                DEFAULT_UNLIMITED_UP_TO
            }
        })
    }

    /// Evicts parked vectors until the occupied slots fit the cap, then
    /// updates the parked-cache high-water mark.
    ///
    /// Victim selection is *staleness-aware*: vectors that have drifted the
    /// furthest behind `current` (measured in journal changes; a foreign
    /// lineage counts as infinitely stale) go first — they are the ones whose
    /// next activation is most likely to pay a full BFS anyway, so parking
    /// them buys the least. Among equally stale vectors the least recently
    /// used one loses, which reduces to plain LRU when the cache is kept warm
    /// (every stamp current).
    fn enforce_slot_cap(&mut self, current: Option<GraphVersion>) {
        let staleness = |slot: &SourceCache| -> u64 {
            match (current, slot.version) {
                (Some(cur), Some(v)) => cur.changes_since(v).unwrap_or(u64::MAX),
                _ => u64::MAX,
            }
        };
        while self.cached_count > self.slot_cap() {
            let victim = self
                .cache
                .iter()
                .enumerate()
                .filter(|(_, slot)| slot.version.is_some())
                .max_by_key(|(_, slot)| (staleness(slot), std::cmp::Reverse(slot.last_used)))
                .map(|(i, _)| i)
                .expect("an occupied slot exists while the count is positive");
            let slot = &mut self.cache[victim];
            slot.version = None;
            slot.dist = Vec::new();
            slot.level_counts = Vec::new();
            self.cached_count -= 1;
        }
        let n = self.cache.len() as u64;
        let bytes = self.cached_count as u64 * 2 * (2 * n + 2);
        self.stats.peak_parked_bytes = self.stats.peak_parked_bytes.max(bytes);
    }

    /// Maximum number of journal entries worth replaying before a full BFS is
    /// cheaper: each replayed change costs a truncated repair, so past a small
    /// fraction of `n` the fallback wins.
    fn stale_limit(&self) -> usize {
        (self.mark.len() / 8).max(8)
    }

    fn resize_scratch(&mut self, n: usize) {
        self.mark.clear();
        self.mark.resize(n, 0);
        self.checked.clear();
        self.checked.resize(n, 0);
        self.tent.clear();
        self.tent.resize(n, UNREACHABLE);
        if self.buckets.len() < n + 2 {
            self.buckets.resize_with(n + 2, Vec::new);
        }
        self.epoch = 0;
    }

    fn bump_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.mark.fill(0);
            self.checked.fill(0);
            self.epoch = 1;
        }
    }

    /// Decrease-only relaxation after inserting `{u, v}` (already in the
    /// overlay): distances can only shrink, and only inside the region whose
    /// shortest paths now run through the new edge.
    fn repair_insert(&mut self, u: u32, v: u32) {
        let (du, dv) = (self.state.get(u), self.state.get(v));
        let (far, dn) = if du <= dv { (v, du) } else { (u, dv) };
        if dn == UNREACHABLE || dn + 1 >= self.state.get(far) {
            return;
        }
        self.state.assign(far, dn + 1, true);
        self.queue.clear();
        self.queue.push(far);
        let mut head = 0usize;
        while head < self.queue.len() {
            let x = self.queue[head];
            head += 1;
            self.stats.nodes_expanded += 1;
            let dx = self.state.get(x);
            let state = &mut self.state;
            let queue = &mut self.queue;
            for_each_neighbor(&self.csr, &self.overlay, x, |y| {
                if state.get(y) > dx + 1 {
                    state.assign(y, dx + 1, true);
                    queue.push(y);
                }
            });
        }
    }

    /// Repair after removing `{u, v}` (already gone from the overlay).
    ///
    /// Phase 1 finds the *orphaned* region: vertices whose every shortest
    /// path from the source used the deleted edge. Processing candidates in
    /// BFS order guarantees that when a vertex is orphan-checked, the affected
    /// status of the previous level is final. Phase 2 re-settles the region
    /// with a Dial (bucket) Dijkstra seeded from its unaffected boundary;
    /// orphans with no boundary stay unreachable.
    fn repair_delete(&mut self, u: u32, v: u32) {
        let (du, dv) = (self.state.get(u), self.state.get(v));
        if du == UNREACHABLE || dv == UNREACHABLE || du == dv {
            // The edge was on no shortest path from the source.
            return;
        }
        let child = if du < dv { v } else { u };
        debug_assert_eq!(self.state.get(child), du.min(dv) + 1);
        self.bump_epoch();

        // Phase 1: collect the orphaned region, level by level.
        if self.has_live_parent(child) {
            return;
        }
        self.affected.clear();
        self.mark[child as usize] = self.epoch;
        self.checked[child as usize] = self.epoch;
        self.affected.push(child);
        self.queue.clear();
        self.queue.push(child);
        let mut head = 0usize;
        while head < self.queue.len() {
            let x = self.queue[head];
            head += 1;
            self.stats.nodes_expanded += 1;
            let dx = self.state.get(x);
            self.cand.clear();
            let cand = &mut self.cand;
            for_each_neighbor(&self.csr, &self.overlay, x, |y| {
                cand.push(y);
            });
            for i in 0..self.cand.len() {
                let y = self.cand[i];
                if self.state.get(y) == dx + 1 && self.checked[y as usize] != self.epoch {
                    self.checked[y as usize] = self.epoch;
                    if !self.has_live_parent(y) {
                        self.mark[y as usize] = self.epoch;
                        self.affected.push(y);
                        self.queue.push(y);
                    }
                }
            }
        }

        // Phase 2: re-settle the orphans from their unaffected boundary.
        let mut min_t = UNREACHABLE;
        let mut max_t = 0u16;
        for i in 0..self.affected.len() {
            let x = self.affected[i];
            let mut best = UNREACHABLE;
            let state = &self.state;
            let mark = &self.mark;
            let epoch = self.epoch;
            for_each_neighbor(&self.csr, &self.overlay, x, |z| {
                if mark[z as usize] != epoch {
                    let dz = state.get(z);
                    if dz != UNREACHABLE && dz + 1 < best {
                        best = dz + 1;
                    }
                }
            });
            self.tent[x as usize] = best;
            if best != UNREACHABLE {
                self.buckets[best as usize].push(x);
                min_t = min_t.min(best);
                max_t = max_t.max(best);
            }
            self.state.assign(x, UNREACHABLE, true);
        }
        if min_t == UNREACHABLE {
            return; // The whole region is disconnected from the source now.
        }
        let mut d = min_t;
        while d <= max_t {
            while let Some(x) = self.buckets[d as usize].pop() {
                if self.state.get(x) != UNREACHABLE || self.tent[x as usize] != d {
                    continue; // settled earlier or stale bucket entry
                }
                self.stats.nodes_expanded += 1;
                self.state.assign(x, d, true);
                let mark = &self.mark;
                let epoch = self.epoch;
                let state = &self.state;
                let tent = &mut self.tent;
                let buckets = &mut self.buckets;
                for_each_neighbor(&self.csr, &self.overlay, x, |y| {
                    if mark[y as usize] == epoch
                        && state.get(y) == UNREACHABLE
                        && d + 1 < tent[y as usize]
                    {
                        tent[y as usize] = d + 1;
                        buckets[(d + 1) as usize].push(y);
                        max_t = max_t.max(d + 1);
                    }
                });
            }
            d += 1;
        }
    }

    /// True if `x` has a neighbour one level closer to the source that is not
    /// (currently marked) affected.
    fn has_live_parent(&self, x: u32) -> bool {
        let dx = self.state.get(x);
        let mut live = false;
        for_each_neighbor(&self.csr, &self.overlay, x, |z| {
            if !live
                && self.mark[z as usize] != self.epoch
                && self.state.get(z) != UNREACHABLE
                && self.state.get(z) + 1 == dx
            {
                live = true;
            }
        });
        live
    }

    /// Applies one delta on top of the stack, recording its resume point.
    fn push_delta(&mut self, delta: EdgeDelta) {
        self.checkpoints.push(Checkpoint {
            journal_len: self.state.journal.len(),
            max_hint: self.state.max_hint,
        });
        self.active.push(delta);
        self.overlay.activate(&delta);
        match delta {
            EdgeDelta::Insert { u, v } => self.repair_insert(u as u32, v as u32),
            EdgeDelta::Remove { u, v } => self.repair_delete(u as u32, v as u32),
        }
    }

    /// Rolls the delta stack back to its first `prefix` entries.
    fn rollback_to_prefix(&mut self, prefix: usize) {
        if prefix >= self.active.len() {
            return;
        }
        let cp = self.checkpoints[prefix];
        self.state.rollback_to(cp.journal_len, cp.max_hint);
        self.active.truncate(prefix);
        self.checkpoints.truncate(prefix);
        self.overlay.clear();
        let active = std::mem::take(&mut self.active);
        for delta in &active {
            self.overlay.activate(delta);
        }
        self.active = active;
    }

    /// Moves the delta stack to exactly `deltas`, reusing the longest common
    /// prefix with the previous evaluation, and counts one evaluation.
    fn run_deltas(&mut self, deltas: &[EdgeDelta]) {
        self.stats.evaluations += 1;
        self.seat_deltas(deltas);
    }

    /// [`PersistentOracle::run_deltas`] without the evaluation count: the
    /// level-histogram bound reads the state after a candidate's prefix
    /// but answers no evaluation.
    fn seat_deltas(&mut self, deltas: &[EdgeDelta]) {
        let mut common = 0usize;
        while common < self.active.len()
            && common < deltas.len()
            && self.active[common] == deltas[common]
        {
            common += 1;
        }
        self.rollback_to_prefix(common);
        for &delta in &deltas[common..] {
            self.push_delta(delta);
        }
    }

    /// Brings the CSR snapshot to the pinned graph's current version: within
    /// one dynamics step the graph is immutable, so the `n` per-agent re-pins
    /// of a scan share a single sync. When the
    /// version moved, the sync is served by patching the journal's exact edge
    /// deltas into the flat buffers in place — the `O(n + m)` per-step rebuild
    /// becomes `O(changes)` — with the patcher's own rebuild fallback covering
    /// dense journals, foreign lineages and exhausted segment slack.
    fn sync_csr(&mut self, g: &OwnedGraph) {
        let v = g.version();
        if self.csr_version == Some(v) && self.csr.num_nodes() == g.num_nodes() {
            return;
        }
        let outcome = match self.csr_version {
            Some(from) => match g.changes_since(from) {
                Some(changes) => self.csr.patch_from_journal(g, changes),
                None => {
                    self.csr.rebuild_from(g);
                    PatchOutcome::Rebuilt
                }
            },
            None => {
                self.csr.rebuild_from(g);
                PatchOutcome::Rebuilt
            }
        };
        if outcome.in_place() {
            self.stats.csr_patches += 1;
        } else {
            self.stats.csr_rebuilds += 1;
        }
        self.csr_version = Some(v);
    }

    /// Re-pins `(g, src)` with one full BFS.
    fn full_repin(&mut self, g: &OwnedGraph, src: NodeId) {
        self.sync_csr(g);
        let n = g.num_nodes();
        self.src = src as u32;
        self.state.reset(n);
        self.resize_scratch(n);
        self.overlay.clear();
        self.active.clear();
        self.checkpoints.clear();
        self.queue.clear();
        self.state.assign(self.src, 0, false);
        self.queue.push(self.src);
        let mut head = 0usize;
        while head < self.queue.len() {
            let x = self.queue[head];
            head += 1;
            self.stats.nodes_expanded += 1;
            let dx = self.state.get(x);
            let state = &mut self.state;
            let queue = &mut self.queue;
            for &y in self.csr.neighbors(x as usize) {
                if state.get(y) == UNREACHABLE {
                    state.assign(y, dx + 1, false);
                    queue.push(y);
                }
            }
        }
        self.stats.full_bfs_runs += 1;
    }

    /// Parks the working distance vector (valid for `self.src` at
    /// `self.pinned_version`) in the per-source cache. The working vector must
    /// already be rolled back to the base (no active candidate deltas).
    fn save_working(&mut self) {
        let Some(version) = self.pinned_version.take() else {
            return;
        };
        let src = self.src as usize;
        if src >= self.cache.len() {
            return;
        }
        let slot = &mut self.cache[src];
        // The pinned source's slot is always empty: activating it cleared the
        // slot, and no warming path re-parks the pinned source.
        debug_assert!(slot.version.is_none(), "parking over an occupied slot");
        std::mem::swap(&mut slot.dist, &mut self.state.dist);
        std::mem::swap(&mut slot.level_counts, &mut self.state.level_counts);
        slot.sum = self.state.sum;
        slot.reached = self.state.reached;
        slot.max_hint = self.state.max_hint;
        slot.version = Some(version);
        slot.last_used = self.lru_tick;
        self.lru_tick += 1;
        self.cached_count += 1;
        // The just-parked slot carries the newest stamp and recency, so it is
        // never the victim unless the cap is zero (cache disabled).
        self.enforce_slot_cap(Some(version));
    }

    /// Recomputes the parked vectors of `pending` (distinct, not-currently-
    /// pinned sources) from scratch in word-parallel waves of up to
    /// [`BATCH_WIDTH`] sources, parking each at the current version of `g`.
    /// The CSR snapshot must already be synced to `g`. This replaces one
    /// scalar BFS *per source* with one shared bitset wave per 64 sources —
    /// the batch-parallel path for cold bulk pins and vectors whose journal
    /// window outgrew the replay limit.
    fn batch_repin(&mut self, g: &OwnedGraph, pending: &[u32]) {
        let _sp = trace::span(trace::Phase::BatchWave);
        debug_assert_eq!(self.csr_version, Some(g.version()));
        let n = g.num_nodes();
        let cur = g.version();
        for chunk in pending.chunks(BATCH_WIDTH) {
            let mut rows: Vec<Vec<u16>> = Vec::with_capacity(chunk.len());
            let mut counts: Vec<Vec<u16>> = Vec::with_capacity(chunk.len());
            for &src in chunk {
                debug_assert!(
                    self.cache[src as usize].version != Some(cur),
                    "batching a source that is already current"
                );
                let slot = &mut self.cache[src as usize];
                let mut row = std::mem::take(&mut slot.dist);
                let mut lc = std::mem::take(&mut slot.level_counts);
                MultiSourceBfs::prepare_row(&mut row, &mut lc, n);
                rows.push(row);
                counts.push(lc);
            }
            let sources: Vec<NodeId> = chunk.iter().map(|&s| s as NodeId).collect();
            let mut summaries = vec![BatchSummary::default(); chunk.len()];
            let mut row_refs: Vec<&mut [u16]> = rows.iter_mut().map(|r| r.as_mut_slice()).collect();
            let mut count_refs: Vec<&mut [u16]> =
                counts.iter_mut().map(|c| c.as_mut_slice()).collect();
            let expanded = self.wave.run(
                &self.csr,
                &sources,
                &mut row_refs,
                &mut count_refs,
                &mut summaries,
            );
            self.stats.nodes_expanded += expanded;
            self.stats.batched_repins += chunk.len() as u64;
            for ((&src, row), (lc, summary)) in chunk
                .iter()
                .zip(rows)
                .zip(counts.into_iter().zip(summaries))
            {
                let slot = &mut self.cache[src as usize];
                slot.dist = row;
                slot.level_counts = lc;
                slot.sum = summary.sum;
                slot.reached = summary.reached;
                slot.max_hint = summary.max_hint;
                if slot.version.is_none() {
                    self.cached_count += 1;
                }
                slot.version = Some(cur);
                slot.last_used = self.lru_tick;
                self.lru_tick += 1;
            }
            self.enforce_slot_cap(Some(cur));
        }
    }

    /// Activates the cached vector of `src` as the working state — two buffer
    /// swaps and three scalar copies, no per-vertex work at all.
    fn load_cached(&mut self, src: usize, n: usize) {
        let slot = &mut self.cache[src];
        debug_assert_eq!(slot.dist.len(), n, "cached vectors track the graph size");
        debug_assert_eq!(slot.level_counts.len(), n + 2);
        std::mem::swap(&mut slot.dist, &mut self.state.dist);
        std::mem::swap(&mut slot.level_counts, &mut self.state.level_counts);
        slot.version = None;
        self.cached_count -= 1;
        self.state.sum = slot.sum;
        self.state.reached = slot.reached;
        self.state.max_hint = slot.max_hint;
        self.state.journal.clear();
    }

    /// Attempts to advance the working vector (valid at `from`) to the current
    /// graph by replaying the journal's edge changes through the repair
    /// machinery. Returns `false` — leaving the state untouched — when the
    /// journal cannot serve the window (foreign lineage, discarded entries) or
    /// replaying would be slower than a fresh BFS.
    ///
    /// The CSR reflects the *current* graph, so the overlay is first rewound
    /// by the inverted pending changes; re-activating each change then
    /// advances the overlaid graph one step right before its repair runs, and
    /// the rewind cancels out entirely by the end.
    fn try_replay(&mut self, g: &OwnedGraph, from: GraphVersion) -> bool {
        let Some(changes) = g.changes_since(from) else {
            return false;
        };
        if changes.len() > self.stale_limit() {
            return false;
        }
        self.sync_csr(g);
        self.replay_changes(changes);
        true
    }

    /// Runs the journal window `changes` through the repair machinery against
    /// the current working [`DistState`] and overlay. The CSR must already be
    /// synced to the *post-window* graph; the overlay must be empty.
    fn replay_changes(&mut self, changes: &[EdgeChange]) {
        let _sp = trace::span(trace::Phase::ScalarReplay);
        debug_assert!(self.overlay.is_empty());
        for change in changes.iter().rev() {
            self.overlay.activate(&invert(change));
        }
        self.state.begin_replay(self.csr.num_nodes());
        for change in changes {
            match *change {
                EdgeChange::Added { u, v } => {
                    self.overlay.activate(&EdgeDelta::Insert { u, v });
                    self.repair_insert(u as u32, v as u32);
                }
                EdgeChange::Removed { u, v } => {
                    self.overlay.activate(&EdgeDelta::Remove { u, v });
                    self.repair_delete(u as u32, v as u32);
                }
            }
        }
        self.state.end_replay();
        debug_assert!(self.overlay.is_empty(), "replay must cancel the rewind");
    }

    /// Lazily repairs the *parked* vector of `src` to the current version of
    /// `g` by replaying its own journal window — without disturbing the
    /// pinned working vector, its candidate delta stack, or the overlay
    /// (both are swapped aside for the duration, so this is safe to call
    /// mid-scan from the cache-arithmetic path). Returns `false` — leaving
    /// the slot exactly as it was — when the window is unavailable (foreign
    /// lineage, discarded entries) or longer than the per-vector staleness
    /// limit, in which case the vector's next activation pays the usual full
    /// BFS.
    fn warm_slot(&mut self, g: &OwnedGraph, src: usize) -> bool {
        self.warm_slot_collect(g, src, None)
    }

    /// [`PersistentOracle::warm_slot`] with an optional export of the exact
    /// net-changed vertex set of the replay (the per-seed diff of
    /// [`DistanceOracle::warm_after_move`]).
    fn warm_slot_collect(
        &mut self,
        g: &OwnedGraph,
        src: usize,
        collect: Option<&mut Vec<NodeId>>,
    ) -> bool {
        let Some(from) = self.cache[src].version else {
            return false;
        };
        let cur = g.version();
        if from == cur {
            return collect.is_none();
        }
        let Some(changes) = g.changes_since(from) else {
            return false;
        };
        if changes.len() > self.stale_limit() {
            return false;
        }
        self.sync_csr(g);
        // Work on the slot's vector through the spare state/overlay pair so
        // the pinned working vector stays untouched.
        std::mem::swap(&mut self.state, &mut self.warm_state);
        std::mem::swap(&mut self.overlay, &mut self.warm_overlay);
        let slot = &mut self.cache[src];
        std::mem::swap(&mut slot.dist, &mut self.state.dist);
        std::mem::swap(&mut slot.level_counts, &mut self.state.level_counts);
        self.state.sum = slot.sum;
        self.state.reached = slot.reached;
        self.state.max_hint = slot.max_hint;
        self.state.journal.clear();
        self.replay_changes(changes);
        if let Some(out) = collect {
            out.extend(self.state.touched.iter().map(|&x| x as NodeId));
        }
        let slot = &mut self.cache[src];
        std::mem::swap(&mut slot.dist, &mut self.state.dist);
        std::mem::swap(&mut slot.level_counts, &mut self.state.level_counts);
        slot.sum = self.state.sum;
        slot.reached = self.state.reached;
        slot.max_hint = self.state.max_hint;
        slot.version = Some(cur);
        slot.last_used = self.lru_tick;
        self.lru_tick += 1;
        std::mem::swap(&mut self.overlay, &mut self.warm_overlay);
        std::mem::swap(&mut self.state, &mut self.warm_state);
        self.stats.lazy_replays += 1;
        true
    }

    /// The fused post-move pass behind [`DistanceOracle::warm_after_move`]:
    /// replay each seed's vector over the move's window collecting the exact
    /// per-seed diffs, then run the ordinary warming pass with the collected
    /// union as the dirty set.
    fn warm_after_move_collect(
        &mut self,
        g: &OwnedGraph,
        seeds: &[NodeId],
        changed: &mut Vec<NodeId>,
    ) -> bool {
        if g.num_nodes() != self.cache.len() {
            return false;
        }
        let cur = g.version();
        changed.clear();
        changed.extend_from_slice(seeds);
        for &e in seeds {
            if self.pinned_version.is_some() && self.src == e as u32 {
                let from = self.pinned_version.expect("just checked");
                if from == cur {
                    // Someone already advanced the working vector past the
                    // move: its diff is gone, the caller must be conservative.
                    return false;
                }
                self.rollback_to_prefix(0);
                if !self.try_replay(g, from) {
                    self.pinned_version = None;
                    return false;
                }
                self.pinned_version = Some(cur);
                self.stats.lazy_replays += 1;
                changed.extend(self.state.touched.iter().map(|&x| x as NodeId));
            } else if e >= self.cache.len() || !self.warm_slot_collect(g, e, Some(changed)) {
                return false;
            }
        }
        self.warm_all(g, changed);
        true
    }

    /// Marks `dirty` in the epoch-stamped membership scratch.
    fn mark_dirty_set(&mut self, dirty: &[NodeId]) {
        let n = self.cache.len();
        if self.dirty_stamp.len() < n {
            self.dirty_stamp.resize(n, 0);
        }
        self.dirty_epoch = self.dirty_epoch.wrapping_add(1);
        if self.dirty_epoch == 0 {
            self.dirty_stamp.fill(0);
            self.dirty_epoch = 1;
        }
        for &d in dirty {
            if d < n {
                self.dirty_stamp[d] = self.dirty_epoch;
            }
        }
    }

    /// The bulk warming pass behind [`DistanceOracle::warm_sources`]: see the
    /// trait documentation for the caller contract on `dirty`.
    fn warm_all(&mut self, g: &OwnedGraph, dirty: &[NodeId]) {
        let _sp = trace::span(trace::Phase::WarmPass);
        let n = g.num_nodes();
        if n != self.cache.len() || n != self.mark.len() {
            // A mismatched graph: the next `begin` resets the cache anyway.
            self.warm_floor = None;
            return;
        }
        let cur = g.version();
        self.mark_dirty_set(dirty);
        // Stamp bumps are only sound while the warming chain is unbroken:
        // a vector stamped exactly at the previous pass's version is covered
        // by this pass's dirty set. Anything else is repaired from its own
        // stamp (or left for the full-BFS fallback on demand).
        let trusted_floor = self.warm_floor.filter(|&f| g.changes_since(f).is_some());
        let mut worked = false;
        let mut width = 0usize;
        // The pinned working vector gets the same treatment as the slots.
        if let Some(pv) = self.pinned_version {
            if pv != cur {
                let src = self.src as usize;
                if self.dirty_stamp[src] != self.dirty_epoch && Some(pv) == trusted_floor {
                    self.pinned_version = Some(cur);
                    self.stats.warm_bumps += 1;
                    worked = true;
                } else {
                    self.rollback_to_prefix(0);
                    if self.try_replay(g, pv) {
                        self.pinned_version = Some(cur);
                        self.stats.lazy_replays += 1;
                        worked = true;
                        width += 1;
                    } else {
                        // Unreplayable: drop the pin so the stale working
                        // vector can never be mistaken for current state.
                        self.pinned_version = None;
                    }
                }
            }
        }
        let mut pending = std::mem::take(&mut self.batch_pending);
        pending.clear();
        for src in 0..n {
            let Some(sv) = self.cache[src].version else {
                continue;
            };
            if sv == cur {
                continue;
            }
            if self.dirty_stamp[src] != self.dirty_epoch && Some(sv) == trusted_floor {
                self.cache[src].version = Some(cur);
                self.stats.warm_bumps += 1;
                worked = true;
            } else if self.warm_slot(g, src) {
                worked = true;
                width += 1;
            } else {
                // Unreplayable window: queue the slot for the shared bitset
                // wave instead of leaving it stale.
                pending.push(src as u32);
            }
        }
        if !pending.is_empty() {
            self.sync_csr(g);
            self.batch_repin(g, &pending);
            worked = true;
            width += pending.len();
        }
        self.batch_pending = pending;
        self.warm_floor = Some(cur);
        if worked {
            self.stats.warm_batches += 1;
        }
        if width > 0 {
            self.stats.warm_batch_width[width_bucket(width)] += 1;
        }
    }

    /// Shared front half of the cache-arithmetic insertion queries
    /// ([`DistanceOracle::evaluate_insert_via_cache`] and
    /// [`DistanceOracle::insert_level_bound`]): `true` iff the query is
    /// servable, with `v`'s parked vector at the pinned version. A stale
    /// vector is lazily warmed first by replaying its own journal window
    /// (the working state and its candidate deltas are swapped aside, so
    /// the pin is undisturbed). `g` is the pinned graph, so success lands
    /// the slot exactly on the pinned version.
    fn prepare_insert_query(
        &mut self,
        g: &OwnedGraph,
        prefix: &[EdgeDelta],
        u: NodeId,
        v: NodeId,
    ) -> bool {
        if u as u32 != self.src
            || self.pinned_version.is_none()
            || v >= self.cache.len()
            || prefix.iter().any(|d| matches!(d, EdgeDelta::Insert { .. }))
        {
            return false;
        }
        if self.cache[v].version != self.pinned_version {
            if self.cache[v].version.is_none()
                || Some(g.version()) != self.pinned_version
                || !self.warm_slot(g, v)
            {
                return false;
            }
            debug_assert_eq!(self.cache[v].version, self.pinned_version);
            self.stats.lazy_hits += 1;
        }
        true
    }
}

/// Chunk length of [`fused_insert_summary`]'s u32 accumulator lanes: the
/// lanes are flushed into the u64 totals every `FUSED_CHUNK` entries, so the
/// kernel's SUM is exact for **any** input length — not just `n ≤ 4096`.
const FUSED_CHUNK: usize = 4096;

/// A u32 lane must hold `FUSED_CHUNK` worst-case u16 summands between
/// flushes. This breaks the build loudly if either width is ever changed —
/// the silent alternative is a wrapped, wrong SUM at large `n`.
const _: () = assert!(FUSED_CHUNK as u128 * u16::MAX as u128 <= u32::MAX as u128);

/// Fused `min(src, far + 1)` SUM/MAX/reached pass of the cache-arithmetic
/// insertion scorer — the hot kernel of the persistent engine (one `O(n)`
/// pass per scored candidate). Branchless and chunked so it autovectorizes
/// over the u16 vectors: each [`FUSED_CHUNK`]-entry chunk accumulates into
/// u32 lanes and is flushed into u64 totals before a lane could wrap (the
/// compile-time assertion above pins the bound, and the `*_past_u32` kernel
/// tests drive it beyond `u32::MAX` total mass), and unreachable entries
/// are *counted* rather than branched around per element (`UNREACHABLE`
/// saturates through the `+ 1`, so `d == UNREACHABLE` exactly marks
/// vertices neither side reaches).
fn fused_insert_summary(src_dist: &[u16], far_dist: &[u16]) -> DistanceSummary {
    debug_assert_eq!(src_dist.len(), far_dist.len());
    let n = src_dist.len();
    let mut unreach = 0u64;
    let mut sum = 0u64;
    let mut max = 0u16;
    let mut i = 0;
    while i < n {
        let end = (i + FUSED_CHUNK).min(n);
        let mut csum = 0u32;
        let mut cunr = 0u32;
        for (&a, &b) in src_dist[i..end].iter().zip(&far_dist[i..end]) {
            let d = a.min(b.saturating_add(1));
            csum += u32::from(d);
            cunr += u32::from(d == UNREACHABLE);
            max = max.max(d);
        }
        sum += u64::from(csum);
        unreach += u64::from(cunr);
        i = end;
    }
    if unreach > 0 {
        return DistanceSummary::DISCONNECTED;
    }
    DistanceSummary {
        sum: Some(sum),
        max: Some(u32::from(max)),
    }
}

/// Closed form of the level-histogram insertion bound behind
/// [`DistanceOracle::insert_level_bound`]. `src_levels[d]` counts the pinned
/// source's vertices at distance `d`. The `n − Σ src_levels` vertices it
/// does not reach sit at level +∞. `far_levels[d]` counts `v`'s vertices,
/// and `v` must reach all `n`.
///
/// With `U(k) = #{x : d_u(x) ≥ k}` and `W(k) = #{x : d_v(x) ≥ k − 1}`, the
/// bound is `SUM = Σ_{k≥1} max(0, U(k) + W(k) − n)`, and `MAX` is the largest
/// `k` with a positive term. Term `k` is the least number of vertices that
/// any pairing of the two level multisets can place at
/// `min(a, 1 + b) ≥ k` (inclusion–exclusion). The opposite-order pairing
/// attains it at every `k` at once, because `min(a, 1 + b)` has increasing
/// differences. Summing `#{x : value ≥ k}` over `k` gives the SUM, so both
/// fields are `≤` those of any pairing, including the kernel's
/// vertex-by-vertex one.
fn level_pair_bound(n: usize, src_levels: &[u16], far_levels: &[u16]) -> DistanceSummary {
    // term(k) = n − Σ_{d<k} src_levels[d] − Σ_{d<k−1} far_levels[d] only
    // shrinks as `k` grows, and reaches ≤ 0 once every far level is counted.
    // Step `k` subtracts `(src_levels[k], far_levels[k − 1])`; both
    // histograms are padded past the last level (`n + 2` entries in the
    // oracle), so the zipped steps never run out first.
    let (&first, rest) = src_levels.split_first().expect("level 0 holds the source");
    let mut steps = rest.iter().zip(far_levels);
    let mut term = n as i64 - i64::from(first);
    let (mut sum, mut k) = (0u64, 0u32);
    while term > 0 {
        k += 1;
        sum += term as u64;
        let Some((&src, &far)) = steps.next() else {
            break;
        };
        term -= i64::from(src) + i64::from(far);
    }
    DistanceSummary {
        sum: Some(sum),
        max: Some(k),
    }
}

impl DistanceOracle for PersistentOracle {
    fn kind(&self) -> OracleKind {
        OracleKind::Persistent
    }

    fn begin(&mut self, g: &OwnedGraph, src: NodeId) -> DistanceSummary {
        // Serve from the per-source cache + journal replay when possible,
        // falling back to one full BFS.
        let _sp = trace::span(trace::Phase::OracleBegin);
        let n = g.num_nodes();
        if n != self.mark.len() || self.cache.len() != n {
            // The graph size changed: every cached vector is meaningless.
            self.resize_scratch(n);
            self.cache.clear();
            self.cache.resize_with(n, SourceCache::default);
            self.cached_count = 0;
            self.pinned_version = None;
            self.csr_version = None;
            self.warm_floor = None;
        }
        self.rollback_to_prefix(0);
        let mut base_version = None;
        if self.pinned_version.is_some() && self.src == src as u32 {
            base_version = self.pinned_version;
        } else {
            self.save_working();
            self.src = src as u32;
            if let Some(v) = self.cache[src].version {
                self.load_cached(src, n);
                base_version = Some(v);
            }
        }
        let replayed = base_version.is_some_and(|v| self.try_replay(g, v));
        if replayed {
            self.stats.replayed_begins += 1;
        } else {
            self.full_repin(g, src);
        }
        self.pinned_version = Some(g.version());
        self.state.summary(n)
    }

    fn cached_summary(&mut self, g: &OwnedGraph, src: NodeId) -> Option<DistanceSummary> {
        if g.num_nodes() != self.cache.len() || src >= self.cache.len() {
            return None;
        }
        let n = self.cache.len();
        let cur = g.version();
        if self.pinned_version == Some(cur) && self.src == src as u32 {
            self.rollback_to_prefix(0);
            return Some(self.state.summary(n));
        }
        let tick = self.lru_tick;
        let slot = &mut self.cache[src];
        if slot.version != Some(cur) {
            return None;
        }
        // A summary read is a use: without the recency bump, the hottest
        // read path would look LRU-cold to the staleness-aware eviction.
        slot.last_used = tick;
        self.lru_tick += 1;
        if slot.reached < n {
            return Some(DistanceSummary::DISCONNECTED);
        }
        // Tighten the parked max bound exactly like `DistState::summary`.
        let mut m = slot.max_hint;
        while m > 0 && slot.level_counts[m as usize] == 0 {
            m -= 1;
        }
        slot.max_hint = m;
        Some(DistanceSummary {
            sum: Some(slot.sum),
            max: Some(u32::from(m)),
        })
    }

    fn pin_sources(&mut self, g: &OwnedGraph, sources: &[NodeId]) {
        let _sp = trace::span(trace::Phase::PinSources);
        if g.num_nodes() != self.cache.len() {
            for &src in sources {
                self.begin(g, src);
            }
            return;
        }
        let cur = g.version();
        let mut pending = std::mem::take(&mut self.batch_pending);
        pending.clear();
        for &src in sources {
            // Already current — parked or pinned — costs nothing; a vector
            // at an older stamp is repaired in place by scalar lazy replay.
            // Cold or unreplayable sources are queued for the shared 64-wide
            // bitset waves, except the currently pinned source, whose working
            // vector `begin` reuses.
            if self.cache[src].version == Some(cur)
                || (self.pinned_version == Some(cur) && self.src == src as u32)
            {
                continue;
            }
            if self.warm_slot(g, src) {
                continue;
            }
            if !(self.pinned_version.is_some() && self.src == src as u32) {
                pending.push(src as u32);
            } else {
                self.begin(g, src);
            }
        }
        if !pending.is_empty() {
            pending.sort_unstable();
            pending.dedup();
            self.sync_csr(g);
            self.batch_repin(g, &pending);
        }
        self.batch_pending = pending;
    }

    fn warm_sources(&mut self, g: &OwnedGraph, dirty: &[NodeId]) {
        self.warm_all(g, dirty);
    }

    fn warm_after_move(
        &mut self,
        g: &OwnedGraph,
        seeds: &[NodeId],
        changed: &mut Vec<NodeId>,
    ) -> bool {
        self.warm_after_move_collect(g, seeds, changed)
    }

    fn evaluate(&mut self, deltas: &[EdgeDelta]) -> DistanceSummary {
        let _sp = trace::span(trace::Phase::DeltaRepair);
        self.run_deltas(deltas);
        self.state.summary(self.csr.num_nodes())
    }

    fn evaluate_insert_via_cache(
        &mut self,
        g: &OwnedGraph,
        prefix: &[EdgeDelta],
        u: NodeId,
        v: NodeId,
    ) -> Option<(DistanceSummary, bool)> {
        let _sp = trace::span(trace::Phase::FusedKernel);
        if !self.prepare_insert_query(g, prefix, u, v) {
            return None;
        }
        // Bring the delta stack to exactly `prefix` (for the swap enumeration
        // `(from, to₁), (from, to₂), …` this is a no-op after the first
        // candidate: the shared removal stays applied, and no insertion is
        // ever pushed or rolled back).
        self.run_deltas(prefix);
        let n = self.csr.num_nodes();
        let summary = fused_insert_summary(&self.state.dist[..n], &self.cache[v].dist[..n]);
        self.stats.kernel_calls += 1;
        self.stats.nodes_expanded += n as u64;
        Some((summary, prefix.is_empty()))
    }

    fn insert_level_bound(
        &mut self,
        g: &OwnedGraph,
        prefix: &[EdgeDelta],
        u: NodeId,
        v: NodeId,
    ) -> Option<DistanceSummary> {
        if !self.prepare_insert_query(g, prefix, u, v) {
            return None;
        }
        let n = self.csr.num_nodes();
        if self.cache[v].reached < n {
            return None;
        }
        if self.active.as_slice() != prefix {
            // Only a stack that actually moves (the first swap of each
            // removed edge) pays for a span.
            let _sp = trace::span(trace::Phase::DeltaRepair);
            self.seat_deltas(prefix);
        }
        let slot = &self.cache[v];
        let bound = level_pair_bound(n, &self.state.level_counts, &slot.level_counts);
        self.stats.bound_queries += 1;
        if cfg!(debug_assertions) {
            // Soundness cross-check against the kernel on the same prefix
            // state (kept out of the counters, so debug and release builds
            // count the same work).
            let kernel = fused_insert_summary(&self.state.dist[..n], &slot.dist[..n]);
            assert!(
                bound.sum <= kernel.sum && bound.max <= kernel.max,
                "level bound {bound:?} exceeds the kernel's {kernel:?} \
                 (src {u}, v {v}, prefix {prefix:?})"
            );
        }
        Some(bound)
    }

    fn evaluate_into(&mut self, deltas: &[EdgeDelta], out: &mut Vec<u16>) -> DistanceSummary {
        self.run_deltas(deltas);
        out.clear();
        out.extend_from_slice(&self.state.dist);
        self.state.summary(self.csr.num_nodes())
    }

    fn base_distances(&mut self) -> &[u16] {
        self.rollback_to_prefix(0);
        &self.state.dist
    }

    fn stats(&self) -> OracleStats {
        self.stats.debug_validate();
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = OracleStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distances::BfsBuffer;
    use crate::generators;

    /// Ground truth via a fresh BFS on a mutated clone of the graph.
    fn truth(g: &OwnedGraph, src: NodeId, deltas: &[EdgeDelta]) -> (Vec<u16>, DistanceSummary) {
        let mut h = g.clone();
        for delta in deltas {
            match *delta {
                EdgeDelta::Insert { u, v } => assert!(h.add_edge(u, v), "insert {u},{v}"),
                EdgeDelta::Remove { u, v } => assert!(h.remove_edge(u, v), "remove {u},{v}"),
            }
        }
        let mut buf = BfsBuffer::new(h.num_nodes());
        let summary = buf.summary(&h, src);
        (buf.last_distances()[..h.num_nodes()].to_vec(), summary)
    }

    fn check_both(g: &OwnedGraph, src: NodeId, deltas: &[EdgeDelta]) {
        let (expect_dist, expect_summary) = truth(g, src, deltas);
        for kind in [OracleKind::FullBfs, OracleKind::Persistent] {
            let mut oracle = make_oracle(kind, g.num_nodes());
            let base = oracle.begin(g, src);
            let mut buf = BfsBuffer::new(g.num_nodes());
            assert_eq!(base, buf.summary(g, src), "{} base summary", kind.label());
            let mut dist = Vec::new();
            let summary = oracle.evaluate_into(deltas, &mut dist);
            assert_eq!(
                summary,
                expect_summary,
                "{} summary for {deltas:?}",
                kind.label()
            );
            assert_eq!(
                dist,
                expect_dist,
                "{} distances for {deltas:?}",
                kind.label()
            );
            // The base must be restored: re-evaluating nothing gives the base.
            assert_eq!(oracle.evaluate(&[]), base, "{} base restore", kind.label());
            assert_eq!(
                oracle.base_distances(),
                &buf.run(g, src)[..g.num_nodes()],
                "{} base distances",
                kind.label()
            );
        }
    }

    #[test]
    fn insert_shortcut_on_path() {
        let g = generators::path(8);
        check_both(&g, 0, &[EdgeDelta::Insert { u: 0, v: 7 }]);
        check_both(&g, 3, &[EdgeDelta::Insert { u: 0, v: 7 }]);
        check_both(&g, 0, &[EdgeDelta::Insert { u: 0, v: 4 }]);
    }

    #[test]
    fn remove_edge_with_detour() {
        let mut g = generators::cycle(9);
        g.add_edge(0, 4);
        for src in 0..9 {
            check_both(&g, src, &[EdgeDelta::Remove { u: 0, v: 1 }]);
            check_both(&g, src, &[EdgeDelta::Remove { u: 0, v: 4 }]);
        }
    }

    #[test]
    fn remove_bridge_disconnects() {
        let g = generators::path(6);
        check_both(&g, 0, &[EdgeDelta::Remove { u: 2, v: 3 }]);
        check_both(&g, 5, &[EdgeDelta::Remove { u: 2, v: 3 }]);
    }

    #[test]
    fn stats_consistency_invariants_hold_and_detect_corruption() {
        // A real persistent workload: bulk pin, mutate, warm, score — every
        // counter class fires, and the invariants must hold throughout.
        let mut g = generators::cycle(24);
        let mut oracle = make_oracle(OracleKind::Persistent, g.num_nodes());
        let sources: Vec<NodeId> = (0..g.num_nodes()).collect();
        oracle.pin_sources(&g, &sources);
        for step in 0..12 {
            let u = step % 24;
            let v = (u + 7) % 24;
            if g.add_edge(u, v) {
                oracle.warm_sources(&g, &[u, v]);
            }
            oracle.begin(&g, u);
            let _ = oracle.insert_level_bound(&g, &[], u, (u + 11) % 24);
            let _ = oracle.evaluate_insert_via_cache(&g, &[], u, (u + 11) % 24);
            assert!(
                oracle.stats().consistent(),
                "step {step}: {:?}",
                oracle.stats()
            );
        }
        let mut stats = oracle.stats();
        assert!(stats.warm_batches > 0 && stats.replayed_begins > 0);
        assert!(stats.kernel_calls > 0 && stats.bound_queries > 0);
        // The prune count comes from the scoring layer; any count up to the
        // answered bounds is consistent.
        stats.bound_pruned = stats.bound_queries;
        // Merging self-consistent stats stays consistent (the invariants are
        // linear inequalities over summed fields).
        let mut merged = stats;
        merged.merge(&stats);
        assert!(merged.consistent());
        assert_eq!(merged.kernel_calls, 2 * stats.kernel_calls);
        assert_eq!(merged.bound_queries, 2 * stats.bound_queries);
        assert_eq!(merged.bound_pruned, 2 * stats.bound_pruned);
        // And each invariant actually bites on corrupted counters.
        let mut bad = stats;
        bad.warm_batch_width[0] = bad.warm_batches + 1;
        assert!(!bad.consistent(), "width histogram over warm_batches");
        let mut bad = stats;
        bad.lazy_hits = bad.lazy_replays + 1;
        assert!(!bad.consistent(), "lazy hit without a lazy replay");
        let mut bad = stats;
        bad.bound_pruned = bad.bound_queries + 1;
        assert!(!bad.consistent(), "prune without an answered bound");
    }

    #[test]
    fn swap_as_remove_plus_insert() {
        let g = generators::path(7);
        let deltas = [
            EdgeDelta::Remove { u: 0, v: 1 },
            EdgeDelta::Insert { u: 0, v: 3 },
        ];
        for src in 0..7 {
            check_both(&g, src, &deltas);
        }
    }

    #[test]
    fn insert_reconnects_component() {
        let mut g = generators::path(6);
        g.remove_edge(2, 3); // components {0,1,2} and {3,4,5}
        check_both(&g, 0, &[EdgeDelta::Insert { u: 2, v: 3 }]);
        check_both(&g, 0, &[EdgeDelta::Insert { u: 0, v: 5 }]);
        // An edge inside the far component changes nothing for the source.
        check_both(&g, 0, &[EdgeDelta::Insert { u: 3, v: 5 }]);
    }

    #[test]
    fn star_center_swaps() {
        let g = generators::star(10);
        for leaf in [1usize, 5, 9] {
            check_both(
                &g,
                leaf,
                &[
                    EdgeDelta::Remove { u: 0, v: leaf },
                    EdgeDelta::Insert {
                        u: leaf,
                        v: (leaf % 9) + 1,
                    },
                ],
            );
        }
    }

    #[test]
    fn incremental_expands_fewer_nodes_than_full() {
        // From the middle of a path, an edge between two equal-level vertices
        // changes no distance at all: the incremental repair does (almost) no
        // work while the full backend re-walks the whole graph. This is the
        // common case in best-response scans — most candidates barely move
        // the distance vector.
        let g = generators::path(65);
        let src = 32;
        let deltas = [EdgeDelta::Insert { u: 31, v: 33 }];
        let mut full = FullBfsOracle::new(65);
        let mut inc = PersistentOracle::new(65);
        full.begin(&g, src);
        inc.begin(&g, src);
        full.reset_stats();
        inc.reset_stats();
        for _ in 0..10 {
            assert_eq!(full.evaluate(&deltas), inc.evaluate(&deltas));
        }
        let (fs, is_) = (full.stats(), inc.stats());
        assert_eq!(fs.evaluations, 10);
        assert_eq!(is_.evaluations, 10);
        assert!(
            is_.nodes_expanded * 5 < fs.nodes_expanded,
            "incremental {} vs full {}",
            is_.nodes_expanded,
            fs.nodes_expanded
        );
    }

    #[test]
    fn oracle_kind_labels() {
        assert_eq!(OracleKind::FullBfs.label(), "full-bfs");
        assert_eq!(OracleKind::Persistent.label(), "persistent");
        assert_eq!(OracleKind::default(), OracleKind::Persistent);
        for kind in [OracleKind::FullBfs, OracleKind::Persistent] {
            assert_eq!(OracleKind::parse(kind.label()), Some(kind));
        }
    }

    #[test]
    fn persistent_begin_replays_instead_of_re_running_bfs() {
        let mut g = generators::cycle(16);
        let mut oracle = PersistentOracle::new(16);
        assert_eq!(oracle.kind(), OracleKind::Persistent);
        let mut buf = BfsBuffer::new(16);
        oracle.begin(&g, 3);
        assert_eq!(oracle.stats().full_bfs_runs, 1);
        // Mutate the graph a little and re-pin the same source: the distance
        // vector must be repaired by journal replay, not recomputed.
        for step in 0..12 {
            let a = step % 16;
            let b = (step + 5) % 16;
            if g.has_edge(a, b) {
                g.remove_edge(a, b);
            } else {
                g.add_edge(a, b);
            }
            let summary = oracle.begin(&g, 3);
            assert_eq!(summary, buf.summary(&g, 3), "step {step}");
            assert_eq!(
                oracle.base_distances(),
                &buf.run(&g, 3)[..16],
                "step {step}"
            );
        }
        let stats = oracle.stats();
        assert_eq!(stats.full_bfs_runs, 1, "only the initial pin runs a BFS");
        assert_eq!(stats.replayed_begins, 12);
    }

    #[test]
    fn persistent_cache_survives_source_switches() {
        let mut g = generators::path(20);
        let mut oracle = PersistentOracle::new(20);
        let mut buf = BfsBuffer::new(20);
        // Pin a handful of sources, then interleave mutations with re-pins of
        // the same sources: every re-pin should be a replay.
        for src in [0usize, 5, 19] {
            oracle.begin(&g, src);
        }
        let baseline_bfs = oracle.stats().full_bfs_runs;
        for round in 0..6 {
            let (a, b) = (round, round + 7);
            if g.has_edge(a, b) {
                g.remove_edge(a, b);
            } else {
                g.add_edge(a, b);
            }
            for src in [0usize, 5, 19] {
                let summary = oracle.begin(&g, src);
                assert_eq!(summary, buf.summary(&g, src), "round {round} src {src}");
                assert_eq!(
                    oracle.base_distances(),
                    &buf.run(&g, src)[..20],
                    "round {round} src {src}"
                );
            }
        }
        let stats = oracle.stats();
        assert_eq!(stats.full_bfs_runs, baseline_bfs, "all re-pins replayed");
        assert_eq!(stats.replayed_begins, 18);
    }

    /// The exact change-set export of `warm_after_move`, which is all the
    /// dirty engine's invalidation rests on: after each random single-edge
    /// move, `changed` must hold exactly the seeds plus every vertex whose
    /// BFS distance to a seed differs before and after the move.
    #[test]
    fn persistent_exports_the_exact_changed_vertex_set() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        fn as_set(mut v: Vec<NodeId>) -> Vec<NodeId> {
            v.sort_unstable();
            v.dedup();
            v
        }
        // Deterministic case: a chord on a path, seeded at its endpoints.
        let mut g = generators::path(12);
        let mut oracle = PersistentOracle::new(12);
        let mut buf = BfsBuffer::new(12);
        oracle.pin_sources(&g, &[0, 8]);
        oracle.begin(&g, 0);
        let before: Vec<Vec<u16>> = [0, 8].iter().map(|&s| buf.run(&g, s).to_vec()).collect();
        g.add_edge(0, 8);
        let mut changed = Vec::new();
        assert!(oracle.warm_after_move(&g, &[0, 8], &mut changed));
        let mut expect = vec![0, 8];
        for (i, &seed) in [0usize, 8].iter().enumerate() {
            let after = buf.run(&g, seed);
            expect.extend((0..12).filter(|&x| before[i][x] != after[x]));
        }
        assert_eq!(as_set(changed.clone()), as_set(expect));
        // The diff of a window is exported once: a second call for the same
        // move finds the seeds already current and refuses.
        assert!(!oracle.warm_after_move(&g, &[0, 8], &mut changed));

        let mut rng = StdRng::seed_from_u64(0xc4a9);
        let (mut moves, mut nonempty) = (0usize, 0usize);
        for case in 0..40 {
            let n = rng.gen_range(4usize..30);
            let mut g = if case % 2 == 0 {
                generators::random_spanning_tree(n, None, &mut rng)
            } else {
                generators::random_with_m_edges(n, rng.gen_range(n..2 * n), &mut rng)
            };
            let mut oracle = PersistentOracle::new(n);
            let mut buf = BfsBuffer::new(n);
            let all: Vec<NodeId> = (0..n).collect();
            oracle.pin_sources(&g, &all);
            for step in 0..12 {
                // One random single-edge move: drop an edge or add a missing
                // one. The seeds are its endpoints, sometimes with a third
                // vertex (a swap's other endpoint).
                let u = rng.gen_range(0..n);
                let v = (u + rng.gen_range(1..n)) % n;
                let mut seeds = vec![u, v];
                let w = rng.gen_range(0..n);
                if rng.gen_bool(0.3) && !seeds.contains(&w) {
                    seeds.push(w);
                }
                // The engine pins the seeds at the pre-move version, often
                // with the mover as the working vector.
                oracle.pin_sources(&g, &seeds);
                if rng.gen_bool(0.5) {
                    oracle.begin(&g, u);
                }
                let before: Vec<Vec<u16>> =
                    seeds.iter().map(|&s| buf.run(&g, s).to_vec()).collect();
                if g.has_edge(u, v) {
                    g.remove_edge(u, v);
                } else {
                    g.add_edge(u, v);
                }
                let mut changed = Vec::new();
                let ctx = format!("case {case} step {step} seeds {seeds:?}");
                assert!(oracle.warm_after_move(&g, &seeds, &mut changed), "{ctx}");
                let mut expect = seeds.clone();
                for (i, &seed) in seeds.iter().enumerate() {
                    let after = buf.run(&g, seed);
                    expect.extend((0..n).filter(|&x| before[i][x] != after[x]));
                }
                let expect = as_set(expect);
                nonempty += usize::from(expect.len() > seeds.len());
                assert_eq!(as_set(changed), expect, "{ctx}");
                // The same pass warmed every parked vector to the new state.
                for x in 0..n {
                    assert_eq!(
                        oracle.cached_summary(&g, x),
                        Some(buf.summary(&g, x)),
                        "{ctx}"
                    );
                }
                moves += 1;
            }
            // A seed whose slot is cold has no pre-move vector to diff: the
            // call must refuse rather than under-report.
            let mut cold = PersistentOracle::new(n);
            let cold_seed = rng.gen_range(0..n);
            let warm: Vec<NodeId> = (0..n).filter(|&x| x != cold_seed).collect();
            cold.pin_sources(&g, &warm);
            let other = (cold_seed + 1) % n;
            if g.has_edge(cold_seed, other) {
                g.remove_edge(cold_seed, other);
            } else {
                g.add_edge(cold_seed, other);
            }
            let mut changed = Vec::new();
            assert!(
                !cold.warm_after_move(&g, &[other, cold_seed], &mut changed),
                "case {case}: cold seed {cold_seed}"
            );
        }
        assert_eq!(moves, 40 * 12);
        assert!(
            nonempty > moves / 2,
            "only {nonempty} moves changed a distance"
        );
    }

    #[test]
    fn persistent_falls_back_on_stale_or_foreign_histories() {
        let mut g = generators::path(32);
        let mut oracle = PersistentOracle::new(32);
        oracle.begin(&g, 0);
        let bfs_before = oracle.stats().full_bfs_runs;
        // Far more changes than the staleness limit: replay would be slower
        // than a fresh BFS, so the oracle must re-pin.
        for i in 0..16 {
            g.add_edge(i, i + 16);
        }
        let mut buf = BfsBuffer::new(32);
        assert_eq!(oracle.begin(&g, 0), buf.summary(&g, 0));
        assert!(
            oracle.stats().full_bfs_runs > bfs_before,
            "stale → full BFS"
        );
        // A clone has a fresh lineage: its journal can never serve a version
        // taken on the original, so the oracle re-pins rather than replaying
        // against an unrelated history.
        let mut clone = g.clone();
        clone.swap_edge(0, 1, 20);
        let bfs_mid = oracle.stats().full_bfs_runs;
        assert_eq!(oracle.begin(&clone, 0), buf.summary(&clone, 0));
        assert!(oracle.stats().full_bfs_runs > bfs_mid);
    }

    #[test]
    fn lru_budget_caps_parked_vectors_and_stays_exact() {
        // Budget 2, three sources pinned round-robin: every re-pin of the
        // evicted source must fall back to a full BFS, and every summary must
        // stay exact. An unbounded twin oracle replays everything.
        let mut g = generators::cycle(18);
        let mut capped = PersistentOracle::with_slot_cap(18, Some(2));
        let mut unbounded = PersistentOracle::new(18);
        let mut buf = BfsBuffer::new(18);
        let sources = [0usize, 6, 12];
        for &src in &sources {
            capped.begin(&g, src);
            unbounded.begin(&g, src);
        }
        let (capped_cold, unbounded_cold) = (
            capped.stats().full_bfs_runs,
            unbounded.stats().full_bfs_runs,
        );
        for round in 0..4 {
            let (a, b) = (round, (round + 9) % 18);
            if g.has_edge(a, b) {
                g.remove_edge(a, b);
            } else {
                g.add_edge(a, b);
            }
            for &src in &sources {
                assert_eq!(capped.begin(&g, src), buf.summary(&g, src));
                assert_eq!(unbounded.begin(&g, src), buf.summary(&g, src));
                assert_eq!(capped.base_distances(), &buf.run(&g, src)[..18]);
            }
        }
        assert_eq!(
            unbounded.stats().full_bfs_runs,
            unbounded_cold,
            "unbounded cache replays every re-pin"
        );
        assert!(
            capped.stats().full_bfs_runs > capped_cold,
            "a 2-slot cache over 3 sources must evict and re-pin"
        );
        assert!(capped.cached_count <= 2, "budget respected");
    }

    #[test]
    fn zero_budget_disables_the_cache_without_losing_exactness() {
        let mut g = generators::path(12);
        let mut oracle = PersistentOracle::with_slot_cap(12, Some(0));
        let mut buf = BfsBuffer::new(12);
        oracle.begin(&g, 0);
        g.add_edge(0, 7);
        // Same source re-pinned: the working vector is still live (it is only
        // parked on a source switch), so this replays; switching away and
        // back cannot be served from the (disabled) cache.
        assert_eq!(oracle.begin(&g, 0), buf.summary(&g, 0));
        let bfs_before = oracle.stats().full_bfs_runs;
        oracle.begin(&g, 5);
        assert_eq!(oracle.begin(&g, 0), buf.summary(&g, 0));
        assert_eq!(oracle.cached_count, 0);
        assert!(oracle.stats().full_bfs_runs > bfs_before);
        assert_eq!(oracle.base_distances(), &buf.run(&g, 0)[..12]);
    }

    #[test]
    fn persistent_csr_syncs_by_patching_not_rebuilding() {
        let mut g = generators::cycle(32);
        let mut oracle = PersistentOracle::new(32);
        let mut buf = BfsBuffer::new(32);
        oracle.begin(&g, 0);
        for step in 0..10 {
            let (a, b) = (step % 32, (step + 9) % 32);
            if g.has_edge(a, b) {
                g.remove_edge(a, b);
            } else {
                g.add_edge(a, b);
            }
            let src = (step * 5) % 32;
            assert_eq!(oracle.begin(&g, src), buf.summary(&g, src), "step {step}");
        }
        let stats = oracle.stats();
        // One initial build, at most one slack-granting regrow; every other
        // version sync is an in-place patch.
        assert!(
            stats.csr_patches >= 8,
            "expected patched syncs, got {stats:?}"
        );
        assert!(
            stats.csr_rebuilds <= 2,
            "persistent mode must not rebuild per version: {stats:?}"
        );
    }

    #[test]
    fn evaluate_for_source_matches_fresh_bfs_for_every_backend() {
        let mut g = generators::path(11);
        g.add_edge(2, 8);
        let deltas = [
            EdgeDelta::Remove { u: 4, v: 5 },
            EdgeDelta::Insert { u: 0, v: 6 },
        ];
        let mut buf = BfsBuffer::new(11);
        for kind in [OracleKind::FullBfs, OracleKind::Persistent] {
            let mut oracle = make_oracle(kind, 11);
            oracle.pin_sources(&g, &[0, 4, 9]);
            for src in [4usize, 9, 0, 7] {
                let (base, modified) = oracle.evaluate_for_source(&g, src, &deltas);
                assert_eq!(base, buf.summary(&g, src), "{} src {src}", kind.label());
                let (_, expect) = truth(&g, src, &deltas);
                assert_eq!(modified, expect, "{} src {src}", kind.label());
            }
        }
        // Persistent: pinned sources answer later what-ifs by replay, and the
        // answers stay exact after the graph moved on.
        let mut oracle = PersistentOracle::new(11);
        oracle.pin_sources(&g, &[0, 4, 9]);
        let cold_bfs = oracle.stats().full_bfs_runs;
        g.add_edge(1, 10);
        for src in [0usize, 4, 9] {
            let (base, modified) = oracle.evaluate_for_source(&g, src, &deltas);
            assert_eq!(base, buf.summary(&g, src), "replayed src {src}");
            let (_, expect) = truth(&g, src, &deltas);
            assert_eq!(modified, expect, "replayed src {src}");
        }
        assert_eq!(
            oracle.stats().full_bfs_runs,
            cold_bfs,
            "pinned sources are served by journal replay"
        );
    }

    #[test]
    fn warm_sources_bumps_clean_vectors_and_replays_dirty_ones() {
        // Two components: moves inside one leave the other's vectors
        // untouched, so the warming pass must stamp-bump the clean side and
        // replay only the dirty side.
        let mut g = OwnedGraph::new(12);
        for u in 0..5 {
            g.add_edge(u, u + 1); // first component: a path on {0..5}
        }
        for v in 7..12 {
            g.add_edge(6, v); // second component: a star on {6..11}
        }
        let mut oracle = PersistentOracle::new(12);
        let mut buf = BfsBuffer::new(12);
        let all: Vec<usize> = (0..12).collect();
        oracle.pin_sources(&g, &all);
        // First move + warm establishes the trusted floor.
        g.add_edge(7, 8);
        oracle.warm_sources(&g, &[6, 7, 8, 9, 10, 11]);
        let before = oracle.stats();
        // Second move inside the star: path vectors are clean.
        g.add_edge(9, 10);
        oracle.warm_sources(&g, &[6, 7, 8, 9, 10, 11]);
        let after = oracle.stats();
        assert!(after.warm_batches > before.warm_batches);
        assert!(
            after.warm_bumps >= before.warm_bumps + 6,
            "the six path vectors must be stamp-bumped: {after:?}"
        );
        assert!(
            after.lazy_replays > before.lazy_replays,
            "the star vectors must be replayed: {after:?}"
        );
        let bfs_before = after.full_bfs_runs;
        for src in 0..12 {
            assert_eq!(oracle.begin(&g, src), buf.summary(&g, src), "src {src}");
            assert_eq!(oracle.base_distances(), &buf.run(&g, src)[..12]);
        }
        assert_eq!(
            oracle.stats().full_bfs_runs,
            bfs_before,
            "every re-pin after warming must be an (empty) replay"
        );
    }

    #[test]
    fn cached_summary_answers_without_pinning() {
        let mut g = generators::cycle(14);
        let mut oracle = PersistentOracle::new(14);
        let mut buf = BfsBuffer::new(14);
        let all: Vec<usize> = (0..14).collect();
        oracle.pin_sources(&g, &all);
        let before = oracle.stats();
        for src in 0..14 {
            assert_eq!(
                oracle.cached_summary(&g, src),
                Some(buf.summary(&g, src)),
                "src {src}"
            );
        }
        let after = oracle.stats();
        assert_eq!(after.full_bfs_runs, before.full_bfs_runs);
        assert_eq!(
            after.replayed_begins, before.replayed_begins,
            "summary reads never re-pin"
        );
        // A stale vector refuses — answering would need repair work…
        g.add_edge(0, 7);
        assert_eq!(oracle.cached_summary(&g, 3), None);
        // …and warming restores the O(1) answers.
        oracle.warm_sources(&g, &all);
        assert_eq!(oracle.cached_summary(&g, 3), Some(buf.summary(&g, 3)));
    }

    #[test]
    fn warm_sources_is_sound_without_a_trusted_floor() {
        // The first warming call has no floor: nothing may be stamp-bumped;
        // every parked vector must be repaired from its own stamp instead.
        let mut g = generators::cycle(10);
        let mut oracle = PersistentOracle::new(10);
        let mut buf = BfsBuffer::new(10);
        oracle.pin_sources(&g, &[0, 3, 7]);
        g.add_edge(0, 5);
        // Deliberately empty dirty set — still exact, because an untrusted
        // pass never bumps, it replays.
        oracle.warm_sources(&g, &[]);
        assert_eq!(oracle.stats().warm_bumps, 0, "no floor, no bumps");
        assert!(oracle.stats().lazy_replays >= 3);
        for src in [0usize, 3, 7] {
            assert_eq!(oracle.begin(&g, src), buf.summary(&g, src), "src {src}");
        }
    }

    #[test]
    fn eviction_prefers_stale_vectors_over_plain_lru() {
        // Source 0 is parked *first* (oldest recency) but at the current
        // version; source 2 is parked later (newer recency) but at an older
        // version. Cap pressure must evict the stale vector 2, not the
        // least-recently-used 0.
        let mut g = OwnedGraph::new(12);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        for v in 5..12 {
            g.add_edge(4, v);
        }
        let mut oracle = PersistentOracle::with_slot_cap(12, Some(2));
        oracle.begin(&g, 2); // working vector 2, pinned at this version
        g.add_edge(5, 6);
        // A bulk pin parks 0 at the new version without touching the pin.
        oracle.pin_sources(&g, &[0]);
        oracle.begin(&g, 4); // parks 2 at its old version; cache = {0, 2}
        assert_eq!(oracle.cache[0].version, Some(g.version()));
        assert!(oracle.cache[0].last_used < oracle.cache[2].last_used);
        assert_ne!(oracle.cache[2].version, Some(g.version()), "2 is stale");
        oracle.begin(&g, 5); // parks 4 → cap 2 exceeded → evict
        assert!(
            oracle.cache[0].version.is_some(),
            "the least-recently-used but *current* vector survives"
        );
        assert!(
            oracle.cache[2].version.is_none(),
            "the stale vector is the eviction victim"
        );
        assert_eq!(oracle.cached_count, 2);
    }

    #[test]
    fn batched_warm_recomputes_unreplayable_slots() {
        // Same shape as `eviction_prefers_stale_vectors_over_plain_lru`, but
        // with batching on (the default): the slot whose journal window grew
        // past the replay limit is recomputed by a shared bitset wave and
        // lands on the current version with exact contents, instead of being
        // left behind stale.
        let mut g = OwnedGraph::new(12);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        for v in 5..12 {
            g.add_edge(4, v);
        }
        let mut oracle = PersistentOracle::new(12);
        oracle.begin(&g, 0);
        oracle.begin(&g, 2);
        oracle.begin(&g, 4);
        oracle.warm_sources(&g, &[]);
        for (a, b) in [
            (5, 7),
            (6, 8),
            (7, 9),
            (8, 10),
            (9, 11),
            (5, 8),
            (6, 9),
            (7, 10),
            (8, 11),
        ] {
            g.add_edge(a, b);
        }
        let mut dirty: Vec<usize> = (4..12).collect();
        dirty.push(2);
        oracle.warm_sources(&g, &dirty);
        assert_eq!(
            oracle.cache[2].version,
            Some(g.version()),
            "unreplayable slot recomputed by the bulk wave"
        );
        assert!(oracle.stats().batched_repins >= 1);
        assert!(oracle.stats().peak_parked_bytes > 0);
        let mut buf = BfsBuffer::new(12);
        let expect = buf.run(&g, 2).to_vec();
        assert_eq!(&oracle.cache[2].dist[..12], &expect[..]);
        assert_eq!(oracle.cached_summary(&g, 2), Some(buf.summary(&g, 2)));
    }

    #[test]
    fn batched_bulk_pin_matches_scalar_bulk_pin() {
        // Cold bulk pin: every source recomputed. The batched waves and one
        // scalar `begin` per source must park the BFS-exact vectors and
        // summaries, and the batched oracle must report the wave work in its
        // counters.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(11);
        let g = generators::random_with_m_edges(100, 180, &mut rng);
        let all: Vec<NodeId> = (0..100).collect();
        let mut batched = PersistentOracle::new(100);
        let mut scalar = PersistentOracle::new(100);
        batched.pin_sources(&g, &all);
        for &src in &all {
            scalar.begin(&g, src);
        }
        assert!(batched.stats().batched_repins >= 100 - 1);
        assert_eq!(batched.stats().full_bfs_runs, 0, "no scalar traversals");
        assert_eq!(scalar.stats().batched_repins, 0);
        let mut buf = BfsBuffer::new(100);
        for &src in &all {
            let expect = buf.summary(&g, src);
            assert_eq!(batched.cached_summary(&g, src), Some(expect), "src {src}");
            assert_eq!(scalar.cached_summary(&g, src), Some(expect), "src {src}");
            let dist = &buf.run(&g, src)[..100];
            assert_eq!(&batched.cache[src].dist[..], dist, "src {src}");
            if src != 99 {
                // Every source but the last (still the working vector) is
                // parked on the scalar oracle too.
                assert_eq!(&scalar.cache[src].dist[..], dist, "src {src}");
            }
        }
    }

    #[test]
    fn persistent_candidate_evaluations_match_after_replay() {
        // Replay and candidate scoring compose: pin, mutate, re-pin (replay),
        // then evaluate what-if deltas — everything must match fresh BFS.
        let mut g = generators::cycle(10);
        let mut oracle = PersistentOracle::new(10);
        oracle.begin(&g, 2);
        g.add_edge(2, 7);
        oracle.begin(&g, 2);
        assert_eq!(oracle.stats().replayed_begins, 1);
        let deltas = [
            EdgeDelta::Remove { u: 2, v: 7 },
            EdgeDelta::Insert { u: 2, v: 6 },
        ];
        let (expect_dist, expect_summary) = truth(&g, 2, &deltas);
        let mut got = Vec::new();
        assert_eq!(oracle.evaluate_into(&deltas, &mut got), expect_summary);
        assert_eq!(got, expect_dist);
        // The replayed base is restored after the what-if query.
        let mut buf = BfsBuffer::new(10);
        assert_eq!(oracle.evaluate(&[]), buf.summary(&g, 2));
    }

    #[test]
    fn width_bucket_pins_the_histogram_mapping() {
        // Bucket i covers widths with ceil(log2(w)) == i; a full 64-source
        // wave must land in the top *in-range* bucket 6, with bucket 7
        // reserved for the >64 overflow — no off-by-one at powers of two.
        assert_eq!(width_bucket(0), 0);
        assert_eq!(width_bucket(1), 0);
        assert_eq!(width_bucket(2), 1);
        assert_eq!(width_bucket(3), 2);
        assert_eq!(width_bucket(4), 2);
        assert_eq!(width_bucket(5), 3);
        assert_eq!(width_bucket(8), 3);
        assert_eq!(width_bucket(9), 4);
        assert_eq!(width_bucket(16), 4);
        assert_eq!(width_bucket(17), 5);
        assert_eq!(width_bucket(32), 5);
        assert_eq!(width_bucket(33), 6);
        assert_eq!(width_bucket(BATCH_WIDTH), 6, "full wave in the top bucket");
        assert_eq!(width_bucket(BATCH_WIDTH + 1), 7);
        assert_eq!(width_bucket(10_000), 7);
    }

    #[test]
    fn fused_kernel_sum_is_exact_past_u32_mass() {
        // Drive the kernel's chunk-flush past u32::MAX of total mass — with
        // one unflushed u32 accumulator the sum wraps and this fails. The
        // kernel is length-generic, so the invariant is exercised directly
        // at its boundary, beyond what any single graph would feed it.
        let len = 70_000usize;
        let src: Vec<u16> = (0..len).map(|i| 65_000 + (i % 400) as u16).collect();
        let far = vec![UNREACHABLE - 1; len]; // far + 1 saturates to 65535
        let mut expect = 0u64;
        let mut expect_max = 0u16;
        for (&a, &b) in src.iter().zip(&far) {
            let d = a.min(b.saturating_add(1));
            expect += u64::from(d);
            expect_max = expect_max.max(d);
        }
        assert!(
            expect > u64::from(u32::MAX),
            "the test must cross the u32 boundary"
        );
        let got = fused_insert_summary(&src, &far);
        assert_eq!(got.sum, Some(expect));
        assert_eq!(got.max, Some(u32::from(expect_max)));
    }

    #[test]
    fn fused_kernel_matches_naive_reference_on_mixed_vectors() {
        // Deterministic mixed vectors (finite + unreachable entries) across
        // chunk-boundary lengths, checked against a from-scratch u64 pass.
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as u32
        };
        for len in [
            0usize,
            1,
            5,
            FUSED_CHUNK - 1,
            FUSED_CHUNK,
            FUSED_CHUNK + 1,
            10_000,
        ] {
            let mut gen = |unreach_period: u32| -> Vec<u16> {
                (0..len)
                    .map(|_| {
                        let r = next();
                        if r % unreach_period == 0 {
                            UNREACHABLE
                        } else {
                            (r % 1000) as u16
                        }
                    })
                    .collect()
            };
            for period in [7u32, 1_000_000] {
                let src = gen(period);
                let far = gen(period);
                let mut sum = 0u64;
                let mut max = 0u16;
                let mut unreach = 0usize;
                for (&a, &b) in src.iter().zip(&far) {
                    let d = a.min(b.saturating_add(1));
                    if d == UNREACHABLE {
                        unreach += 1;
                    } else {
                        sum += u64::from(d);
                        max = max.max(d);
                    }
                }
                let expect = if unreach > 0 {
                    DistanceSummary::DISCONNECTED
                } else {
                    DistanceSummary {
                        sum: Some(sum),
                        max: Some(u32::from(max)),
                    }
                };
                assert_eq!(fused_insert_summary(&src, &far), expect, "len {len}");
            }
        }
    }

    /// Reference for [`level_pair_bound`]: expand both level histograms into
    /// value lists, pair them in opposite order, and sum/max
    /// `min(a, 1 + b)` explicitly (`None` marks an unreached `a`).
    fn sort_and_pair(a: &[Option<u16>], b: &[u16]) -> (u64, u64) {
        let mut a: Vec<u64> = a.iter().map(|x| x.map_or(u64::MAX, u64::from)).collect();
        let mut b: Vec<u64> = b.iter().map(|&x| u64::from(x)).collect();
        a.sort_unstable_by(|x, y| y.cmp(x));
        b.sort_unstable();
        a.iter()
            .zip(&b)
            .map(|(&x, &y)| x.min(1 + y))
            .fold((0, 0), |(sum, max), d| (sum + d, max.max(d)))
    }

    fn level_histogram(values: impl Iterator<Item = u16>, n: usize) -> Vec<u16> {
        let mut counts = vec![0u16; n + 10];
        for d in values {
            counts[d as usize] += 1;
        }
        counts
    }

    #[test]
    fn level_bound_closed_form_matches_sort_and_pair() {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x1e7e1);
        for case in 0..400 {
            let n = rng.gen_range(1usize..48);
            let levels = rng.gen_range(1u16..9);
            let unreached = [0.0, 0.1, 0.5][case % 3];
            let a: Vec<Option<u16>> = (0..n)
                .map(|_| (!rng.gen_bool(unreached)).then(|| rng.gen_range(0..levels)))
                .collect();
            let b: Vec<u16> = (0..n).map(|_| rng.gen_range(0..levels)).collect();
            let src = level_histogram(a.iter().flatten().copied(), n);
            let far = level_histogram(b.iter().copied(), n);
            let bound = level_pair_bound(n, &src, &far);
            let (sum, max) = sort_and_pair(&a, &b);
            assert_eq!(bound.sum, Some(sum), "case {case}: {a:?} / {b:?}");
            assert_eq!(bound.max, Some(max as u32), "case {case}: {a:?} / {b:?}");
            // No other pairing goes below it.
            let mut shuffled = b.clone();
            shuffled.shuffle(&mut rng);
            let other: u64 = a
                .iter()
                .zip(&shuffled)
                .map(|(&x, &y)| x.map_or(u64::MAX, u64::from).min(1 + u64::from(y)))
                .sum();
            assert!(sum <= other, "case {case}: a pairing beat the bound");
        }
    }

    #[test]
    fn level_bound_never_exceeds_bfs_truth_under_removal_prefixes() {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xb0b0);
        let (mut answered, mut cut_off) = (0usize, 0usize);
        for case in 0..60 {
            let n = rng.gen_range(4usize..36);
            // Trees make every removal a cut, leaf edges included.
            let g = if case % 2 == 0 {
                generators::random_spanning_tree(n, None, &mut rng)
            } else {
                generators::random_with_m_edges(n, rng.gen_range(n..2 * n), &mut rng)
            };
            let mut oracle = PersistentOracle::new(n);
            let all: Vec<NodeId> = (0..n).collect();
            oracle.pin_sources(&g, &all);
            for _ in 0..6 {
                let u = rng.gen_range(0..n);
                oracle.begin(&g, u);
                let mut incident = g.neighbors(u).to_vec();
                incident.shuffle(&mut rng);
                let mut h = g.clone();
                let mut prefix = Vec::new();
                for &w in incident.iter().take(rng.gen_range(0usize..3)) {
                    assert!(h.remove_edge(u, w));
                    prefix.push(EdgeDelta::Remove { u, v: w });
                }
                let mut buf = BfsBuffer::new(n);
                if buf.summary(&h, u).sum.is_none() {
                    cut_off += 1;
                }
                for v in (0..n).filter(|&v| v != u && !h.has_edge(u, v)) {
                    let Some(bound) = oracle.insert_level_bound(&g, &prefix, u, v) else {
                        continue;
                    };
                    answered += 1;
                    let mut deltas = prefix.clone();
                    deltas.push(EdgeDelta::Insert { u, v });
                    let (_, exact) = truth(&g, u, &deltas);
                    let ctx = format!("case {case}: src {u} v {v} prefix {prefix:?}");
                    assert!(bound.sum.unwrap() <= exact.sum.unwrap_or(u64::MAX), "{ctx}");
                    assert!(bound.max.unwrap() <= exact.max.unwrap_or(u32::MAX), "{ctx}");
                    let (kernel, is_exact) = oracle
                        .evaluate_insert_via_cache(&g, &prefix, u, v)
                        .expect("the kernel serves every bounded candidate");
                    assert!(bound.sum <= kernel.sum && bound.max <= kernel.max, "{ctx}");
                    assert_eq!(is_exact, prefix.is_empty());
                }
            }
        }
        assert!(answered > 1000, "only {answered} bounds answered");
        assert!(
            cut_off > 10,
            "only {cut_off} prefixes left vertices unreached"
        );
    }

    #[test]
    fn level_bound_refuses_disconnected_and_cold_slots() {
        // Two components: every parked vector misses the other one.
        let g = OwnedGraph::from_owned_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let mut oracle = PersistentOracle::new(6);
        oracle.pin_sources(&g, &[0, 1, 2, 3, 4, 5]);
        oracle.begin(&g, 0);
        assert_eq!(oracle.insert_level_bound(&g, &[], 0, 2), None);
        assert_eq!(oracle.insert_level_bound(&g, &[], 0, 4), None);
        assert!(
            oracle.evaluate_insert_via_cache(&g, &[], 0, 4).is_some(),
            "the kernel still serves the candidate"
        );
        // A slot evicted under the cap has no level counts to pair.
        let g = generators::cycle(16);
        let mut oracle = PersistentOracle::with_slot_cap(16, Some(1));
        oracle.begin(&g, 5);
        oracle.begin(&g, 0);
        oracle.begin(&g, 9); // parks 0 → over the cap → evicts 5 (LRU)
        assert!(oracle.cache[5].version.is_none() && oracle.cache[0].version.is_some());
        assert_eq!(oracle.insert_level_bound(&g, &[], 9, 5), None);
        let dense = oracle
            .insert_level_bound(&g, &[], 9, 0)
            .expect("a parked connected slot is served");
        let (_, exact) = truth(&g, 9, &[EdgeDelta::Insert { u: 9, v: 0 }]);
        assert!(dense.sum <= exact.sum && dense.max <= exact.max);
        assert_eq!(
            oracle.stats().bound_queries,
            1,
            "only answered bounds count"
        );
        assert_eq!(oracle.stats().kernel_calls, 0, "a bound runs no kernel");
    }
}
