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
//! pay the expensive removal repair once per `from`. Bounds on a single
//! removal at the source ([`DistanceOracle::removal_bound`]) skip even that:
//! they read the parked rows of the source's other neighbours, so the
//! repair runs only for the candidates the bounds cannot prune. Correctness
//! of the repairs against from-scratch BFS is enforced by the randomized
//! equivalence tests in the facade crate.
//!
//! Distance vectors are carried **across** `begin` calls in a per-source
//! cache with one sync point: the first call that arrives with a
//! [`GraphVersion`] the oracle has not seen brings the CSR snapshot and every
//! parked vector to it in one pass, replaying the journal window between
//! the two versions through the same repair machinery. Every other method
//! reads only current vectors. A window the journal no longer holds, or one
//! longer than `max(8, n/8)` changes, leaves every slot cold instead: a
//! later `begin` re-pins a cold source with one full BFS, and `pin_sources`
//! refills cold slots in 64-wide bitset waves.

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
    /// cached, and when the graph's [`GraphVersion`] moves, the applied
    /// [`EdgeChange`]s from the graph's change journal are replayed into
    /// every cached vector instead of re-running a full BFS per source
    /// (with a staleness fallback when too many changes accumulated).
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
    /// Candidate evaluations answered by seating their deltas on the
    /// working vector: every [`DistanceOracle::evaluate`], and every
    /// [`DistanceOracle::evaluate_insert_via_cache`] whose prefix is not
    /// served from neighbour rows.
    pub evaluations: u64,
    /// Vertices expanded across all traversals and repairs — the
    /// backend-comparable measure of work done.
    pub nodes_expanded: u64,
    /// Parked distance vectors advanced to a new graph version by replaying
    /// the graph's change journal at the persistent oracle's sync point,
    /// instead of a full BFS each (persistent backend only): `n` per move
    /// under the max-cost policy, which reads every agent's cost each step.
    pub replayed_begins: u64,
    /// CSR snapshot syncs served by in-place journal patching — `O(changes)`
    /// instead of the `O(n + m)` rebuild (persistent backend only).
    pub csr_patches: u64,
    /// CSR snapshot syncs that had to rebuild (or regrow) the flat buffers:
    /// version jumps, dense journals, exhausted segment slack, and every
    /// `begin` of the stateless backends.
    pub csr_rebuilds: u64,
    /// Always 0: the persistent oracle advances parked vectors only at its
    /// sync point, all of them at once (counted in `replayed_begins`), never
    /// one vector when a query reads it. The field remains so that code
    /// reading it, such as the `perfbench` harness, keeps compiling.
    pub lazy_replays: u64,
    /// Parked vectors recomputed by the word-parallel bulk waves (up to
    /// [`BATCH_WIDTH`] sources per shared bitset BFS) instead of one scalar
    /// traversal each: cold bulk pins, including the slots a journal window
    /// past the replay limit left cold.
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
    /// One-removal prefixes `Remove {u, f}` at the pinned source bounded
    /// from the parked rows of `u`'s other neighbours instead of repaired:
    /// one `O(n)` pass each (see [`DistanceOracle::removal_bound`]).
    pub row_bounds: u64,
}

impl OracleStats {
    /// Internal-consistency invariant that holds for any counter state the
    /// oracle code can produce — and, because it is a linear inequality over
    /// summed fields, for any [`OracleStats::merge`] of such states: a
    /// candidate is pruned by its level-histogram bound only after that
    /// bound was answered.
    pub fn consistent(&self) -> bool {
        self.bound_pruned <= self.bound_queries
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
        self.batched_repins += other.batched_repins;
        self.kernel_calls += other.kernel_calls;
        self.bound_queries += other.bound_queries;
        self.bound_pruned += other.bound_pruned;
        self.row_bounds += other.row_bounds;
        self.peak_parked_bytes = self.peak_parked_bytes.max(other.peak_parked_bytes);
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
    /// parked in the per-source cache, so a later
    /// [`DistanceOracle::evaluate_for_source`] (or re-`begin`) of the same
    /// source loads it without a BFS, and later graph versions advance it by
    /// journal replay in `O(changes)`. Parked and pinned sources cost
    /// nothing; cold ones are recomputed in shared bitset waves, without
    /// churning the pinned working vector. Stateless backends simply run one
    /// BFS per source.
    fn pin_sources(&mut self, g: &OwnedGraph, sources: &[NodeId]) {
        for &src in sources {
            self.begin(g, src);
        }
    }

    /// The source's distance summary served *without pinning*: from its
    /// parked vector (or from the working vector when `src` is pinned
    /// there), after the persistent backend brought its cache to the current
    /// version of `g`. `None` for a cold source, whose summary would need a
    /// BFS — the caller then falls back to a full [`DistanceOracle::begin`].
    fn cached_summary(&mut self, _g: &OwnedGraph, _src: NodeId) -> Option<DistanceSummary> {
        None
    }

    /// Multi-source what-if query: re-pins `(g, src)` and scores `deltas`
    /// against it, returning the source's `(base, modified)` summaries.
    ///
    /// This is the primitive behind consent checks: "what does agent `src`
    /// pay *after* candidate move `deltas`?" answered without materialising
    /// the post-move graph. The persistent backend serves the re-pin from its
    /// per-source cache, which it keeps current by replaying the graph's
    /// change journal, so the whole query costs
    /// `O(changes + affected region)`; stateless backends pay one full BFS
    /// for the re-pin.
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
    ///   must re-score the rest exactly. For a one-removal prefix the
    ///   persistent backend reads the pinned side from the neighbour-row
    ///   bound `c_f` ([`DistanceOracle::removal_bound`]) instead of
    ///   repairing, which keeps it a lower bound. A disconnected answer is
    ///   exact either way: the unreached vertex is unreachable from both
    ///   `u` and `v`.
    ///
    /// `g` must be the pinned graph, unchanged since the last `begin`, whose
    /// sync brought every parked vector to its version.
    ///
    /// `None` whenever the backend cannot serve the query (stateless
    /// backends; `u` not the pinned source; `g` not the pinned graph; `v`'s
    /// slot cold; `prefix` containing insertions, which would flip the
    /// bound's direction).
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
    /// +∞; for a one-removal prefix, those of the neighbour-row bound `c_f`
    /// of [`DistanceOracle::removal_bound`], so the prefix is never
    /// repaired) with `v`'s parked per-level counts in opposite order. With
    /// `U(k) = #{x : d_u(x) ≥ k}` and `W(k) = #{x : d_v(x) ≥ k − 1}`, that is
    /// `SUM = Σ_{k≥1} max(0, U(k) + W(k) − n)` and `MAX` = the largest `k`
    /// with a positive term. The pairing minimises SUM and MAX of
    /// `min(a, 1 + b)` over all pairings, so both fields are `≤` the
    /// kernel's, and hence `≤` the exact post-move summary. Lowering
    /// source distances (`c_f` in place of the repaired vector) can only
    /// lower `min(a, 1 + b)`, so that stays true.
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

    /// Lower bound on the summary of the pinned source `u` after removing
    /// its own edge `{u, f}`, read from the parked rows of `u`'s other
    /// neighbours without repairing anything: `c_f(u) = 0` and
    /// `c_f(y) = 1 + min over w ∈ N(u) ∖ {f} of d(w, y)`, saturating at
    /// `UNREACHABLE`; `c_f(f)` is then raised to `1 + min c_f(x)` over
    /// `x ∈ N(f) ∖ {u}`. Every `u`–`y` path in `G − {u, f}` leaves `u`
    /// through such a `w`, and its remainder is a path in `G`; a path to `f`
    /// enters it from such an `x`. So `c_f` is `≤` the repaired vector
    /// pointwise: SUM and MAX are `≤` the exact ones, and an unreachable
    /// entry is exact (a dropped leaf is one), so a disconnected answer is
    /// exact.
    ///
    /// [`DistanceOracle::insert_level_bound`] and
    /// [`DistanceOracle::evaluate_insert_via_cache`] use the same `c_f` in
    /// place of the repaired vector for a one-removal prefix. The first
    /// such query of a pin records, per vertex, the smallest and
    /// second-smallest neighbour distance and the neighbour giving the
    /// smallest (`O(deg(u)·n)`); each `c_f` is then one `O(n)` pass.
    ///
    /// `None` whenever the backend cannot serve the bound: stateless
    /// backends, `u` not the pinned source, `g` not the pinned graph, or a
    /// cold neighbour row. `f` must be a neighbour of `u`.
    fn removal_bound(
        &mut self,
        _g: &OwnedGraph,
        _u: NodeId,
        _f: NodeId,
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

    #[inline]
    fn get(&self, x: u32) -> u16 {
        self.dist[x as usize]
    }

    /// Sets `dist[x] = new`, keeping the aggregates in sync; `journal = true`
    /// records the old value for rollback (unless a replay is in progress, in
    /// which case the assignment is permanent).
    #[inline]
    fn assign(&mut self, x: u32, new: u16, journal: bool) {
        let old = self.dist[x as usize];
        if journal && !self.replaying {
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

/// A cached per-source distance vector of the persistent backend. A parked
/// slot is valid at the oracle's synced version; a cold one holds no valid
/// vector (its buffers are kept for reuse). The level counters are cached
/// alongside the vector so activating a source is a pair of `O(1)` buffer
/// swaps rather than an `O(n)` rebuild.
#[derive(Debug, Clone, Default)]
struct SourceCache {
    dist: Vec<u16>,
    level_counts: Vec<u16>,
    sum: u64,
    reached: usize,
    max_hint: u16,
    parked: bool,
}

/// The neighbour-row bound of the pinned source `u` (see
/// [`DistanceOracle::removal_bound`]). Built once per pin from the parked
/// rows of `N(u)`: per vertex `y`, the smallest and second-smallest
/// `d(w, y)` over `w ∈ N(u)` and the `w` giving the smallest. From those,
/// `c_f` for any dropped neighbour `f` is one `O(n)` pass.
#[derive(Debug, Clone, Default)]
struct RowBound {
    /// The pinned source `u` the minima were built for at the synced
    /// version, and whether every neighbour row was parked (`false`: fall
    /// back to the repair). Cleared whenever the version moves.
    pin: Option<(u32, bool)>,
    best: Vec<u16>,
    second: Vec<u16>,
    /// The neighbour giving `best` (vertex ids fit: `n ≤ MAX_NODES`).
    arg: Vec<u16>,
    /// The dropped neighbour `f` whose `c_f` the fields below hold.
    dropped: Option<u32>,
    dist: Vec<u16>,
    level_counts: Vec<u16>,
    sum: u64,
    reached: usize,
    max: u16,
}

impl RowBound {
    /// Folds neighbour `w`'s row into the minima.
    fn add_row(&mut self, w: u16, row: &[u16]) {
        let lanes = self
            .best
            .iter_mut()
            .zip(&mut self.second)
            .zip(&mut self.arg);
        for (((b, s), a), &d) in lanes.zip(row) {
            let closer = d < *b;
            *s = if closer { *b } else { (*s).min(d) };
            *a = if closer { w } else { *a };
            *b = (*b).min(d);
        }
    }

    /// Fills `c_f` for source `src` dropping its edge to `f`, whose
    /// neighbours in `G` are `f_neighbors`: `c_f(src) = 0`, and
    /// `c_f(y) = 1 + min over w ∈ N(src) ∖ {f} of d(w, y)` otherwise
    /// (saturating at `UNREACHABLE`), with its level counts and aggregates.
    /// `c_f(f)` is then raised to `1 + min c_f(x)` over `x ∈ N(f) ∖ {src}`,
    /// because a path to `f` in `G − {src, f}` enters `f` from such an `x`.
    /// That makes a dropped leaf unreachable.
    fn fill(&mut self, src: u32, f: u32, f_neighbors: &[u32]) {
        let n = self.best.len();
        let f16 = f as u16;
        self.dist.clear();
        self.dist.extend(
            self.best
                .iter()
                .zip(&self.second)
                .zip(&self.arg)
                .map(|((&b, &s), &a)| if a == f16 { s } else { b }.saturating_add(1)),
        );
        self.dist[src as usize] = 0;
        let entry = f_neighbors
            .iter()
            .filter(|&&x| x != src)
            .map(|&x| self.dist[x as usize])
            .min()
            .unwrap_or(UNREACHABLE);
        let via = &mut self.dist[f as usize];
        *via = (*via).max(entry.saturating_add(1));
        self.level_counts.clear();
        self.level_counts.resize(n + 2, 0);
        let (mut sum, mut reached, mut max) = (0u64, 0usize, 0u16);
        for &c in &self.dist {
            if c != UNREACHABLE {
                self.level_counts[c as usize] += 1;
                sum += u64::from(c);
                reached += 1;
                max = max.max(c);
            }
        }
        (self.sum, self.reached, self.max) = (sum, reached, max);
        self.dropped = Some(f);
    }

    /// Summary of `c_f`: a lower bound on SUM and MAX, and exact
    /// disconnection.
    fn summary(&self) -> DistanceSummary {
        if self.reached < self.dist.len() {
            return DistanceSummary::DISCONNECTED;
        }
        DistanceSummary {
            sum: Some(self.sum),
            max: Some(u32::from(self.max)),
        }
    }
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
/// `begin` carries each source's distance vector **across** calls in a
/// per-source cache with one sync point: the first call at a graph version
/// the oracle has not seen replays the edge changes recorded in the graph's
/// journal into every parked vector through the same repair machinery, so
/// no parked vector is ever stale. A window the journal cannot serve (a
/// foreign lineage or a discarded window), or one too long to replay
/// profitably, leaves every slot cold instead, and a cold source re-pins
/// with a full BFS, so the backend is never slower than re-pinning
/// asymptotically and is exact in all cases.
///
/// The cache has no cap: with every source parked it holds
/// `n·(2n + 2)·2` bytes (distances plus level counters), 268 MB at
/// `n = 8192`.
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
    /// Per-source cached vectors, parked or cold.
    cache: Vec<SourceCache>,
    /// Number of parked cache slots.
    cached_count: usize,
    /// Version the CSR snapshot, every parked vector and the working vector
    /// reflect; `None` until the first sync.
    synced: Option<GraphVersion>,
    /// Whether the working [`DistState`] holds `src`'s vector.
    pinned: bool,
    /// Shared bitset-frontier workspace of the bulk waves.
    wave: MultiSourceBfs,
    /// Cold sources queued for the next bulk wave.
    batch_pending: Vec<u32>,
    /// Neighbour-row bound of the pinned source's one-removal prefixes.
    rows: RowBound,
}

impl PersistentOracle {
    /// Creates a persistent oracle for graphs on `n` vertices.
    pub fn new(n: usize) -> Self {
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
            cached_count: 0,
            synced: None,
            pinned: false,
            wave: MultiSourceBfs::new(),
            batch_pending: Vec::new(),
            rows: RowBound::default(),
        };
        oracle.resize_scratch(n);
        oracle.cache.resize_with(n, SourceCache::default);
        oracle
    }

    /// Updates the parked-cache high-water mark.
    fn note_peak(&mut self) {
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

    /// The oracle's one sync point, called first by `begin`,
    /// `cached_summary` and `pin_sources`: brings the CSR snapshot and every
    /// parked vector to the current version of `g`, so every other method
    /// reads only current vectors. Within one dynamics step the graph is
    /// immutable, so the `n` per-agent reads of a scan share a single sync.
    ///
    /// A graph of a new size resets the cache. When the version moved, the
    /// working vector is rolled back to its base and parked, so nothing
    /// stays pinned across a move. The journal's exact edge deltas are then
    /// patched into the CSR's flat buffers in place — `O(changes)` instead
    /// of the `O(n + m)` rebuild, with the patcher's own rebuild fallback
    /// for dense journals and exhausted segment slack — and the same window
    /// is replayed into every parked vector. A window the journal cannot
    /// serve (a foreign lineage or a discarded window), or one longer than
    /// the replay limit, rebuilds the CSR and leaves every slot cold
    /// instead: a later `begin` re-pins a cold source with one BFS, and
    /// `pin_sources` refills cold slots in bitset waves.
    fn sync(&mut self, g: &OwnedGraph) {
        let cur = g.version();
        if self.synced == Some(cur) {
            return;
        }
        let n = g.num_nodes();
        if n != self.cache.len() {
            // The graph size changed: every cached vector is meaningless.
            self.resize_scratch(n);
            self.cache.clear();
            self.cache.resize_with(n, SourceCache::default);
            self.cached_count = 0;
            self.pinned = false;
            self.synced = None;
        }
        self.rollback_to_prefix(0);
        self.save_working();
        self.rows.pin = None;
        let window = self.synced.and_then(|from| g.changes_since(from));
        let outcome = match window {
            Some(changes) => self.csr.patch_from_journal(g, changes),
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
        match window.filter(|changes| changes.len() <= self.stale_limit()) {
            Some(changes) => {
                for src in 0..n {
                    if self.cache[src].parked {
                        self.load_cached(src);
                        self.replay_changes(changes);
                        self.save_working();
                        self.stats.replayed_begins += 1;
                    }
                }
            }
            None => {
                for slot in &mut self.cache {
                    slot.parked = false;
                }
                self.cached_count = 0;
            }
        }
        self.synced = Some(cur);
    }

    /// Pins `src` with one full BFS over the synced CSR snapshot.
    fn full_repin(&mut self, src: NodeId) {
        self.src = src as u32;
        self.pinned = true;
        self.state.reset(self.cache.len());
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

    /// Parks the working distance vector of the pinned source, if any, in
    /// the per-source cache. The working vector must already be rolled back
    /// to the base (no active candidate deltas).
    fn save_working(&mut self) {
        if !std::mem::take(&mut self.pinned) {
            return;
        }
        let slot = &mut self.cache[self.src as usize];
        // The pinned source's slot is always empty: activating it emptied
        // the slot, and the bulk waves skip the pinned source.
        debug_assert!(!slot.parked, "parking over an occupied slot");
        std::mem::swap(&mut slot.dist, &mut self.state.dist);
        std::mem::swap(&mut slot.level_counts, &mut self.state.level_counts);
        slot.sum = self.state.sum;
        slot.reached = self.state.reached;
        slot.max_hint = self.state.max_hint;
        slot.parked = true;
        self.cached_count += 1;
        self.note_peak();
    }

    /// Recomputes the vectors of `pending` (distinct, cold, not-currently-
    /// pinned sources) from scratch in word-parallel waves of up to
    /// [`BATCH_WIDTH`] sources, parking each. The CSR snapshot must already
    /// be synced. This replaces one scalar BFS *per source* with one shared
    /// bitset wave per 64 sources — the batch-parallel path for cold bulk
    /// pins, including the slots a window past the replay limit left cold.
    fn batch_repin(&mut self, pending: &[u32]) {
        let _sp = trace::span(trace::Phase::BatchWave);
        let n = self.cache.len();
        for chunk in pending.chunks(BATCH_WIDTH) {
            let mut rows: Vec<Vec<u16>> = Vec::with_capacity(chunk.len());
            let mut counts: Vec<Vec<u16>> = Vec::with_capacity(chunk.len());
            for &src in chunk {
                let slot = &mut self.cache[src as usize];
                debug_assert!(!slot.parked, "batching a parked source");
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
                slot.parked = true;
            }
            self.cached_count += chunk.len();
        }
        self.note_peak();
    }

    /// Pins `src` by activating its parked vector as the working state —
    /// two buffer swaps and three scalar copies, no per-vertex work at all.
    fn load_cached(&mut self, src: usize) {
        let n = self.cache.len();
        let slot = &mut self.cache[src];
        debug_assert!(slot.parked, "loading a cold slot");
        debug_assert_eq!(slot.dist.len(), n, "cached vectors track the graph size");
        debug_assert_eq!(slot.level_counts.len(), n + 2);
        std::mem::swap(&mut slot.dist, &mut self.state.dist);
        std::mem::swap(&mut slot.level_counts, &mut self.state.level_counts);
        slot.parked = false;
        self.cached_count -= 1;
        self.state.sum = slot.sum;
        self.state.reached = slot.reached;
        self.state.max_hint = slot.max_hint;
        self.state.journal.clear();
        self.src = src as u32;
        self.pinned = true;
    }

    /// Runs the journal window `changes` through the repair machinery against
    /// the current working [`DistState`] and overlay. The CSR must already be
    /// synced to the *post-window* graph; the overlay must be empty.
    ///
    /// The CSR reflects the *current* graph, so the overlay is first rewound
    /// by the inverted pending changes; re-activating each change then
    /// advances the overlaid graph one step right before its repair runs, and
    /// the rewind cancels out entirely by the end.
    fn replay_changes(&mut self, changes: &[EdgeChange]) {
        let _sp = trace::span(trace::Phase::ScalarReplay);
        debug_assert!(self.overlay.is_empty());
        debug_assert!(
            self.state.journal.is_empty(),
            "replay on top of candidate deltas"
        );
        for change in changes.iter().rev() {
            self.overlay.activate(&invert(change));
        }
        self.state.replaying = true;
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
        self.state.replaying = false;
        debug_assert!(self.overlay.is_empty(), "replay must cancel the rewind");
    }

    /// `true` iff the working vector is pinned at the current version of `g`.
    fn pinned_at(&self, g: &OwnedGraph) -> bool {
        self.pinned && self.synced == Some(g.version())
    }

    /// Shared check of the cache-arithmetic insertion queries
    /// ([`DistanceOracle::evaluate_insert_via_cache`] and
    /// [`DistanceOracle::insert_level_bound`]): `u` is the pinned source, `g`
    /// the pinned graph, `v`'s slot parked and `prefix` removal-only.
    fn insert_query_servable(
        &self,
        g: &OwnedGraph,
        prefix: &[EdgeDelta],
        u: NodeId,
        v: NodeId,
    ) -> bool {
        self.pinned_at(g)
            && u as u32 == self.src
            && self.cache.get(v).is_some_and(|slot| slot.parked)
            && !prefix.iter().any(|d| matches!(d, EdgeDelta::Insert { .. }))
    }

    /// `true` iff `prefix` is one removal `Remove {u, f}` of the pinned
    /// source `u`'s own edge (named source first, as the scans emit it) and
    /// `self.rows` now holds its `c_f`, which then stands in for the
    /// repaired vector.
    fn serve_from_rows(&mut self, g: &OwnedGraph, prefix: &[EdgeDelta]) -> bool {
        match *prefix {
            [EdgeDelta::Remove { u, v }] if u as u32 == self.src => self.row_bound(g, v as u32),
            _ => false,
        }
    }

    /// Brings `self.rows` to `c_f` of the pinned source dropping its edge to
    /// neighbour `f`. The minima are built on the pin's first call. `false`
    /// (take the repair path) when `g` is not the pinned graph or some
    /// neighbour row is cold.
    fn row_bound(&mut self, g: &OwnedGraph, f: u32) -> bool {
        if !self.pinned_at(g) {
            return false;
        }
        let src = self.src;
        match self.rows.pin {
            Some((pinned, ready)) if pinned == src => {
                if !ready {
                    return false;
                }
                if self.rows.dropped == Some(f) {
                    return true;
                }
            }
            _ => {
                self.rows.dropped = None;
                let ready = self.build_row_minima();
                self.rows.pin = Some((src, ready));
                if !ready {
                    return false;
                }
            }
        }
        let _sp = trace::span(trace::Phase::DeltaRepair);
        self.rows.fill(src, f, self.csr.neighbors(f as usize));
        self.stats.row_bounds += 1;
        self.stats.nodes_expanded += self.rows.dist.len() as u64;
        if cfg!(debug_assertions) {
            // Pointwise soundness against the truly repaired vector, from a
            // throwaway BFS kept out of the counters.
            let mut csr = CsrAdjacency::new();
            csr.rebuild_from(g);
            let mut overlay = DeltaOverlay::default();
            overlay.activate(&EdgeDelta::Remove {
                u: src as NodeId,
                v: f as NodeId,
            });
            let (mut truth, mut queue) = (Vec::new(), Vec::new());
            let mut scratch = OracleStats::default();
            FullBfsOracle::bfs(&csr, &overlay, src, &mut truth, &mut queue, &mut scratch);
            for (y, (&c, &t)) in self.rows.dist.iter().zip(&truth).enumerate() {
                assert!(
                    c <= t,
                    "row bound c_f({y}) = {c} exceeds the repaired distance {t} (src {src}, f {f})"
                );
            }
        }
        true
    }

    /// Builds the row minima of the pinned source from the parked rows of
    /// all its neighbours. `false` when a neighbour row is cold.
    fn build_row_minima(&mut self) -> bool {
        let _sp = trace::span(trace::Phase::DeltaRepair);
        let src = self.src as usize;
        let neighbors = self.csr.neighbors(src);
        if neighbors.iter().any(|&w| !self.cache[w as usize].parked) {
            return false;
        }
        let degree = neighbors.len();
        let n = self.cache.len();
        let rows = &mut self.rows;
        rows.best.clear();
        rows.best.resize(n, UNREACHABLE);
        rows.second.clear();
        rows.second.resize(n, UNREACHABLE);
        rows.arg.clear();
        rows.arg.resize(n, 0);
        for &w in neighbors {
            rows.add_row(w as u16, &self.cache[w as usize].dist[..n]);
        }
        self.stats.nodes_expanded += (degree * n) as u64;
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
        // Serve from the per-source cache when possible, falling back to one
        // full BFS.
        let _sp = trace::span(trace::Phase::OracleBegin);
        self.sync(g);
        self.rollback_to_prefix(0);
        if !(self.pinned && self.src == src as u32) {
            self.save_working();
            if self.cache[src].parked {
                self.load_cached(src);
            } else {
                self.full_repin(src);
            }
        }
        self.state.summary(self.cache.len())
    }

    fn cached_summary(&mut self, g: &OwnedGraph, src: NodeId) -> Option<DistanceSummary> {
        self.sync(g);
        let n = self.cache.len();
        if self.pinned && self.src == src as u32 {
            self.rollback_to_prefix(0);
            return Some(self.state.summary(n));
        }
        let slot = self.cache.get_mut(src).filter(|slot| slot.parked)?;
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
        self.sync(g);
        // Parked and pinned sources are current after the sync and cost
        // nothing; cold ones are queued for the shared 64-wide bitset waves.
        let mut pending = std::mem::take(&mut self.batch_pending);
        pending.clear();
        for &src in sources {
            let pinned = self.pinned && self.src == src as u32;
            if !(pinned || self.cache[src].parked) {
                pending.push(src as u32);
            }
        }
        if !pending.is_empty() {
            pending.sort_unstable();
            pending.dedup();
            self.batch_repin(&pending);
        }
        self.batch_pending = pending;
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
        if !self.insert_query_servable(g, prefix, u, v) {
            return None;
        }
        let from_rows = self.serve_from_rows(g, prefix);
        if !from_rows {
            // Bring the delta stack to exactly `prefix` (for the swap
            // enumeration `(from, to₁), (from, to₂), …` this is a no-op after
            // the first candidate: the shared removal stays applied, and no
            // insertion is ever pushed or rolled back).
            self.run_deltas(prefix);
        }
        let n = self.csr.num_nodes();
        let src = if from_rows {
            &self.rows.dist
        } else {
            &self.state.dist
        };
        let summary = fused_insert_summary(&src[..n], &self.cache[v].dist[..n]);
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
        if !self.insert_query_servable(g, prefix, u, v) {
            return None;
        }
        let n = self.csr.num_nodes();
        if self.cache[v].reached < n {
            return None;
        }
        let from_rows = self.serve_from_rows(g, prefix);
        if !from_rows && self.active.as_slice() != prefix {
            // Only a stack that actually moves (the first swap of each
            // removed edge) pays for a span.
            let _sp = trace::span(trace::Phase::DeltaRepair);
            self.seat_deltas(prefix);
        }
        let (src_dist, src_levels) = if from_rows {
            (&self.rows.dist, &self.rows.level_counts)
        } else {
            (&self.state.dist, &self.state.level_counts)
        };
        let slot = &self.cache[v];
        let bound = level_pair_bound(n, src_levels, &slot.level_counts);
        self.stats.bound_queries += 1;
        if cfg!(debug_assertions) {
            // Soundness cross-check against the kernel on the same prefix
            // state (kept out of the counters, so debug and release builds
            // count the same work).
            let kernel = fused_insert_summary(&src_dist[..n], &slot.dist[..n]);
            assert!(
                bound.sum <= kernel.sum && bound.max <= kernel.max,
                "level bound {bound:?} exceeds the kernel's {kernel:?} \
                 (src {u}, v {v}, prefix {prefix:?})"
            );
        }
        Some(bound)
    }

    fn removal_bound(&mut self, g: &OwnedGraph, u: NodeId, f: NodeId) -> Option<DistanceSummary> {
        if u as u32 != self.src || f >= self.cache.len() || !self.row_bound(g, f as u32) {
            return None;
        }
        self.stats.bound_queries += 1;
        Some(self.rows.summary())
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
        // A real persistent workload: bulk pin, mutate, re-pin, score — every
        // counter class fires, and the invariant must hold throughout.
        let mut g = generators::cycle(24);
        let mut oracle = make_oracle(OracleKind::Persistent, g.num_nodes());
        let sources: Vec<NodeId> = (0..g.num_nodes()).collect();
        oracle.pin_sources(&g, &sources);
        for step in 0..12 {
            let u = step % 24;
            let v = (u + 7) % 24;
            if g.add_edge(u, v) {
                oracle.pin_sources(&g, &[u, v]);
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
        assert!(stats.replayed_begins > 0);
        assert!(stats.kernel_calls > 0 && stats.bound_queries > 0);
        // The prune count comes from the scoring layer; any count up to the
        // answered bounds is consistent.
        stats.bound_pruned = stats.bound_queries;
        // Merging self-consistent stats stays consistent (the invariant is a
        // linear inequality over summed fields).
        let mut merged = stats;
        merged.merge(&stats);
        assert!(merged.consistent());
        assert_eq!(merged.kernel_calls, 2 * stats.kernel_calls);
        assert_eq!(merged.bound_queries, 2 * stats.bound_queries);
        assert_eq!(merged.bound_pruned, 2 * stats.bound_pruned);
        // And the invariant actually bites on corrupted counters.
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

    #[test]
    fn persistent_falls_back_on_stale_or_foreign_histories() {
        // The sync's three cold paths: a window past the replay limit (a
        // replay would be slower than a fresh BFS), a clone (a fresh lineage
        // whose journal can never serve a version taken on the original),
        // and a graph of another size. Each must leave every slot cold, the
        // pinned one included, and the next `begin` must run one BFS.
        fn warm(oracle: &mut PersistentOracle, g: &OwnedGraph) {
            let all: Vec<NodeId> = (0..g.num_nodes()).collect();
            oracle.pin_sources(g, &all);
            oracle.begin(g, 0);
            assert_eq!(oracle.cached_count, g.num_nodes() - 1);
        }
        fn assert_cold(oracle: &mut PersistentOracle, g: &OwnedGraph, path: &str) {
            assert_eq!(oracle.cached_summary(g, 5), None, "{path}");
            assert!(!oracle.pinned, "{path}");
            assert!(oracle.cache.iter().all(|slot| !slot.parked), "{path}");
            let bfs = oracle.stats().full_bfs_runs;
            let mut buf = BfsBuffer::new(g.num_nodes());
            assert_eq!(oracle.begin(g, 0), buf.summary(g, 0), "{path}");
            assert_eq!(oracle.stats().full_bfs_runs, bfs + 1, "{path}");
        }
        let mut g = generators::path(32);
        let mut oracle = PersistentOracle::new(32);
        warm(&mut oracle, &g);
        for i in 0..16 {
            g.add_edge(i, i + 16);
        }
        assert!(16 > oracle.stale_limit());
        assert_cold(&mut oracle, &g, "window past the limit");
        warm(&mut oracle, &g);
        let mut clone = g.clone();
        clone.swap_edge(0, 1, 20);
        assert_cold(&mut oracle, &clone, "foreign lineage");
        warm(&mut oracle, &g);
        assert_cold(&mut oracle, &generators::cycle(20), "size change");
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
        // A moved graph is answered too: the first read's sync replays the
        // window into every parked vector, still without pinning or a BFS.
        g.add_edge(0, 7);
        for src in 0..14 {
            assert_eq!(
                oracle.cached_summary(&g, src),
                Some(buf.summary(&g, src)),
                "moved: src {src}"
            );
        }
        let moved = oracle.stats();
        assert_eq!(moved.replayed_begins, after.replayed_begins + 14);
        assert_eq!(moved.full_bfs_runs, after.full_bfs_runs);
    }

    #[test]
    fn batched_warm_recomputes_unreplayable_slots() {
        // A journal window past the replay limit leaves every slot cold, the
        // pinned one included; a re-pin recomputes the requested slots in a
        // shared bitset wave, landing them current with exact contents.
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
        assert!(9 > oracle.stale_limit(), "nine changes exceed the limit");
        oracle.pin_sources(&g, &[0, 2]);
        assert!(oracle.cache[0].parked && oracle.cache[2].parked);
        assert!(
            !oracle.pinned && !oracle.cache[4].parked,
            "the pinned vector went cold with the rest"
        );
        assert_eq!(oracle.stats().batched_repins, 2, "slots 0 and 2, one wave");
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
        // One-removal prefixes are bounded from the neighbour rows (`c_f`),
        // longer ones from the repaired vector; a removal alone is a
        // `Delete`'s bound.
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xb0b0);
        let (mut answered, mut cut_off, mut deletes, mut row_bounds) = (0usize, 0usize, 0usize, 0);
        for case in 0..90 {
            let n = rng.gen_range(4usize..36);
            // Trees make every removal a cut, leaf edges included. In a star
            // the hub drops leaves, and each leaf drops its only edge.
            let star = case % 3 == 2;
            let g = match case % 3 {
                0 => generators::random_spanning_tree(n, None, &mut rng),
                1 => generators::random_with_m_edges(n, rng.gen_range(n..2 * n), &mut rng),
                _ => generators::star(n),
            };
            let mut oracle = PersistentOracle::new(n);
            let all: Vec<NodeId> = (0..n).collect();
            oracle.pin_sources(&g, &all);
            for round in 0..6 {
                let u = if star && round == 0 {
                    0
                } else {
                    rng.gen_range(0..n)
                };
                oracle.begin(&g, u);
                let mut incident = g.neighbors(u).to_vec();
                incident.shuffle(&mut rng);
                let mut h = g.clone();
                let mut prefix = Vec::new();
                let removals = if star { 1 } else { rng.gen_range(0usize..3) };
                for &w in incident.iter().take(removals) {
                    assert!(h.remove_edge(u, w));
                    prefix.push(EdgeDelta::Remove { u, v: w });
                }
                let mut buf = BfsBuffer::new(n);
                if buf.summary(&h, u).sum.is_none() {
                    cut_off += 1;
                }
                if let [EdgeDelta::Remove { v: f, .. }] = prefix[..] {
                    let bound = oracle
                        .removal_bound(&g, u, f)
                        .expect("every neighbour row is parked");
                    let (_, exact) = truth(&g, u, &prefix);
                    let ctx = format!("case {case}: src {u} drops {f}");
                    assert!(
                        bound.sum.unwrap_or(u64::MAX) <= exact.sum.unwrap_or(u64::MAX),
                        "{ctx}"
                    );
                    assert!(
                        bound.max.unwrap_or(u32::MAX) <= exact.max.unwrap_or(u32::MAX),
                        "{ctx}"
                    );
                    deletes += 1;
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
                    assert!(
                        kernel.sum.unwrap_or(u64::MAX) <= exact.sum.unwrap_or(u64::MAX),
                        "{ctx}"
                    );
                    assert_eq!(is_exact, prefix.is_empty());
                }
            }
            row_bounds += oracle.stats().row_bounds;
        }
        assert!(answered > 1000, "only {answered} bounds answered");
        assert!(
            cut_off > 10,
            "only {cut_off} prefixes left vertices unreached"
        );
        assert!(deletes > 100, "only {deletes} removals bounded");
        assert!(row_bounds > 0, "no prefix was bounded from rows");
    }

    #[test]
    fn row_bound_is_the_direct_minimum_over_the_other_neighbours() {
        // The best/second-best construction against the definition, for
        // every source and dropped neighbour: c_f(y) = 1 + min over
        // w ∈ N(u) ∖ {f} of d(w, y). Random graphs tie neighbours at the
        // same distance all the time, including ties with `f`. At `f`
        // itself the row is additionally relaxed through f's other
        // neighbours.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xc0f);
        let mut ties_with_f = 0usize;
        for case in 0..40 {
            let n = rng.gen_range(3usize..30);
            let g = if case % 4 == 0 {
                generators::random_spanning_tree(n, None, &mut rng)
            } else {
                generators::random_with_m_edges(n, rng.gen_range(n..3 * n), &mut rng)
            };
            let mut buf = BfsBuffer::new(n);
            let rows: Vec<Vec<u16>> = (0..n).map(|w| buf.run(&g, w)[..n].to_vec()).collect();
            let mut oracle = PersistentOracle::new(n);
            let all: Vec<NodeId> = (0..n).collect();
            oracle.pin_sources(&g, &all);
            for u in 0..n {
                oracle.begin(&g, u);
                for &f in g.neighbors(u) {
                    assert!(oracle.row_bound(&g, f as u32), "case {case}: {u} drops {f}");
                    let direct: Vec<u16> = (0..n)
                        .map(|y| {
                            let others = g.neighbors(u).iter().filter(|&&w| w != f);
                            let m = others.map(|&w| rows[w][y]).min().unwrap_or(UNREACHABLE);
                            if y == u {
                                0
                            } else {
                                m.saturating_add(1)
                            }
                        })
                        .collect();
                    let entry = g.neighbors(f).iter().filter(|&&x| x != u);
                    let via = entry.map(|&x| direct[x]).min().unwrap_or(UNREACHABLE);
                    let mut expect = direct.clone();
                    expect[f] = expect[f].max(via.saturating_add(1));
                    assert_eq!(oracle.rows.dist, expect, "case {case}: {u} drops {f}");
                    let mut levels = vec![0u16; n + 2];
                    let finite: Vec<u16> = expect
                        .iter()
                        .copied()
                        .filter(|&d| d != UNREACHABLE)
                        .collect();
                    for &d in &finite {
                        levels[d as usize] += 1;
                    }
                    assert_eq!(oracle.rows.level_counts, levels);
                    let summary = if finite.len() < n {
                        DistanceSummary::DISCONNECTED
                    } else {
                        DistanceSummary {
                            sum: Some(finite.iter().map(|&d| u64::from(d)).sum()),
                            max: finite.iter().max().map(|&d| u32::from(d)),
                        }
                    };
                    assert_eq!(oracle.rows.summary(), summary, "case {case}: {u} drops {f}");
                    ties_with_f += (0..n)
                        .filter(|&y| {
                            let at = |w: usize| rows[w][y];
                            g.neighbors(u).iter().any(|&w| w != f && at(w) == at(f))
                                && g.neighbors(u).iter().all(|&w| at(w) >= at(f))
                        })
                        .count();
                }
            }
        }
        assert!(
            ties_with_f > 100,
            "only {ties_with_f} ties with the dropped neighbour"
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
        // A never-pinned source's slot is cold: no level counts to pair.
        let g = generators::cycle(16);
        let mut oracle = PersistentOracle::new(16);
        oracle.begin(&g, 0);
        oracle.begin(&g, 9); // parks 0; every other slot stays cold
        assert!(!oracle.cache[5].parked && oracle.cache[0].parked);
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
        // The rows of 9's neighbours 8 and 10 are cold: a removal is not
        // bounded from rows, and a swap's bound falls back to repairing its
        // prefix.
        let drop_8 = [EdgeDelta::Remove { u: 9, v: 8 }];
        assert_eq!(oracle.removal_bound(&g, 9, 8), None);
        let swap = oracle
            .insert_level_bound(&g, &drop_8, 9, 0)
            .expect("the repaired prefix still pairs with 0's row");
        let (_, exact) = truth(&g, 9, &[drop_8[0], EdgeDelta::Insert { u: 9, v: 0 }]);
        assert!(swap.sum <= exact.sum && swap.max <= exact.max);
        assert_eq!(oracle.stats().row_bounds, 0);
    }
}
