//! The persistent single-source distance oracle behind candidate-move
//! scoring.
//!
//! The hot operation of best-response dynamics is: *given the current network
//! `G` and an agent `u`, what is `u`'s distance summary in `G ± a few edges`?*
//! The full-BFS reference ([`OracleKind::FullBfs`]) answers it the plain way:
//! apply the move to a scratch copy of the graph, run a BFS, undo the move
//! (`ncg_core::game`). It keeps no cache. [`PersistentOracle`] answers it
//! without a BFS per candidate: it keeps the source's exact distance vector
//! for the *base* graph and repairs it under each candidate's [`EdgeDelta`]s
//! with truncated BFS. Inserts run a decrease-only relaxation from the
//! improved endpoint; deletions find the orphaned region (the vertices whose
//! every shortest path used the deleted edge) and re-settle it with a bucket
//! Dijkstra seeded from its unaffected boundary. All repairs are journaled
//! and rolled back after scoring, so hundreds of candidates are evaluated
//! against one base vector without re-running a single full BFS. The
//! SUM / MAX aggregates are maintained incrementally (a running sum plus
//! per-level counters), so a candidate evaluation touching `k` vertices
//! costs `O(k + affected edges)` rather than `O(n)`.
//!
//! The oracle is deliberately a *what-if* engine: [`PersistentOracle::begin`]
//! pins the base state and [`PersistentOracle::evaluate`] answers one
//! candidate against it. It keeps the previous candidate's deltas applied
//! and only rolls back to the longest common delta prefix, so candidate
//! enumerations of the form `(from, to₁), (from, to₂), …` pay the expensive
//! removal repair once per `from`. Bounds on a single removal at the source
//! ([`PersistentOracle::removal_bound`]) skip even that: they read the
//! cached rows of the source's other neighbours, so the repair runs only for
//! the candidates the bounds cannot prune. A run of insertions with one
//! prefix is bounded [`ENVELOPE_BLOCK`] targets at a time from block
//! envelopes of the cached level histograms
//! ([`PersistentOracle::insert_block_bounds`]), so most targets are never
//! bounded on their own. Correctness of the repairs against from-scratch BFS
//! is enforced by the randomized equivalence tests in the facade crate.
//!
//! Distance vectors are carried **across** `begin` calls as the rows of one
//! `n × n` matrix, with [`LEVELS`]-bucket level counts and aggregates per
//! row, and one sync point: the first call that arrives with a
//! [`GraphVersion`] the oracle has not seen brings the CSR snapshot and all
//! `n` rows to it in one pass over the journal window between the two
//! versions. A window whose changes are all edges at one mover `u`, as
//! every committed move's are, is advanced column-wise: the rows of `u`'s
//! old and new neighbours `Q`, and the rows whose distance to some `q ∈ Q`
//! changed, are replayed in place through the same repair machinery; row
//! `u` is refilled from its new neighbours' rows; every other row changes
//! at most at `d(x, u)`, which is read off `u`'s new row. Any other window
//! is replayed into every row. The first sync, and one whose window the
//! journal no longer holds or that is longer than `max(8, n/8)` changes,
//! refills every row in 64-wide bitset waves instead. Every other method
//! reads only current rows.

use crate::batch::{level_bucket, BatchSummary, MultiSourceBfs, BATCH_WIDTH, LEVELS};
use crate::csr::{CsrAdjacency, PatchOutcome};
use crate::distances::{BfsBuffer, DistanceMatrix, DistanceSummary, MAX_NODES, UNREACHABLE};
use crate::graph::{EdgeChange, GraphVersion, NodeId, OwnedGraph};
use ncg_trace as trace;

/// A single undirected edge change relative to the base graph.
///
/// Deltas are applied in order by [`PersistentOracle::evaluate`]; an `Insert`
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

/// Which scoring engine a workspace uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OracleKind {
    /// The reference the fast engine is checked against: every candidate is
    /// applied to a scratch copy of the graph, scored by a BFS on it and
    /// undone (`ncg_core::game`), consent included. Its oracle never syncs,
    /// so its [`OracleStats`] are all zero.
    FullBfs,
    /// Journaled truncated-BFS repair per candidate evaluation, with distance
    /// vectors carried **across** `begin` calls: every source's vector is a
    /// cached row, and when the graph's [`GraphVersion`] moves, the applied
    /// [`EdgeChange`]s from the graph's change journal are replayed into
    /// every row instead of re-running a full BFS per source
    /// (with a bulk refill when too many changes accumulated).
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

/// Work counters of the persistent oracle, for ablation measurements. The
/// full-BFS reference's oracle never syncs and counts nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Candidate evaluations answered by seating their deltas on the
    /// working vector: every [`PersistentOracle::evaluate`], and every
    /// [`PersistentOracle::evaluate_insert_via_cache`] whose prefix is not
    /// served from neighbour rows.
    pub evaluations: u64,
    /// Vertices expanded across all traversals, repairs, kernels and
    /// neighbour-row passes — the host-independent measure of work done.
    pub nodes_expanded: u64,
    /// Distance rows advanced to a new graph version by replaying the
    /// graph's change journal at the oracle's sync point, instead of a full
    /// BFS each. A window whose changes all touch one mover `u` replays the
    /// rows of `u`'s old and new neighbours and the rows that change off
    /// `u`'s column, a fraction of `n`; any other window replays all `n`.
    pub replayed_begins: u64,
    /// Rows advanced to a new graph version by writing `d(x, u)` alone,
    /// read off the mover `u`'s refilled row: the rows a column-wise sync
    /// neither replays nor leaves as they were (see
    /// [`PersistentOracle`]'s sync).
    pub column_patches: u64,
    /// CSR snapshot syncs served by in-place journal patching — `O(changes)`
    /// instead of the `O(n + m)` rebuild.
    pub csr_patches: u64,
    /// CSR snapshot syncs that had to rebuild (or regrow) the flat buffers:
    /// the first sync, version jumps, dense journals and exhausted segment
    /// slack.
    pub csr_rebuilds: u64,
    /// Always 0: the persistent oracle advances rows only at its sync
    /// point, all of them at once, never one row when a query reads it. The
    /// field remains so that code reading it, such as the `perfbench`
    /// harness, keeps compiling.
    pub lazy_replays: u64,
    /// Vectors filled afresh instead of repaired: all `n` at the first sync
    /// and again at every sync whose journal window cannot be replayed (past
    /// the replay limit, a foreign lineage, a new graph size), by the
    /// word-parallel bulk waves (up to [`BATCH_WIDTH`] sources per shared
    /// bitset BFS) instead of one scalar traversal each; and the mover's
    /// row at every column-wise sync, from its new neighbours' rows.
    pub batched_repins: u64,
    /// High-water mark of the per-source cache, in bytes, from the first
    /// sync on: the `n × n` `u16` distance matrix, plus per row its
    /// [`LEVELS`] `u16` level counts and its aggregates ([`BatchSummary`]),
    /// `2n² + 88n` bytes on 64-bit hosts. A workspace holds this one cache:
    /// consent parties' what-ifs read the mover's matrix.
    pub peak_parked_bytes: u64,
    /// Fused `O(n)` insertion kernels run by
    /// [`PersistentOracle::evaluate_insert_via_cache`].
    pub kernel_calls: u64,
    /// `O(D)` level-histogram lower bounds answered (`D` = number of
    /// distance levels): one per [`PersistentOracle::insert_level_bound`] and
    /// per [`PersistentOracle::removal_bound`], and one per block of
    /// [`ENVELOPE_BLOCK`] targets bounded by
    /// [`PersistentOracle::insert_block_bounds`].
    pub bound_queries: u64,
    /// Bounds that kept candidates from the insertion kernel: a candidate
    /// proven non-improving, or unable to reach the best cost of a
    /// best-response scan, counts one, and so does a block bound that rules
    /// out every target of its block at once. Only the caller can decide a
    /// prune, because the cost model belongs to the game. The scoring layer
    /// (`ncg_core::evaluator::CostEvaluator::stats`) fills this field in;
    /// an oracle's own counters always report 0 here.
    pub bound_pruned: u64,
    /// One-removal prefixes `Remove {u, f}` at the pinned source bounded
    /// from the cached rows of `u`'s other neighbours instead of repaired:
    /// one `O(n)` pass each (see [`PersistentOracle::removal_bound`]).
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
    /// builds, and cheap enough for every [`PersistentOracle::stats`] read.
    pub fn debug_validate(&self) {
        debug_assert!(self.consistent(), "inconsistent oracle counters: {self:?}");
    }

    /// Field-wise sum, for aggregating counters across trials.
    pub fn merge(&mut self, other: &OracleStats) {
        self.evaluations += other.evaluations;
        self.nodes_expanded += other.nodes_expanded;
        self.replayed_begins += other.replayed_begins;
        self.column_patches += other.column_patches;
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

/// Creates the persistent oracle for graphs on `n` vertices. It is the only
/// oracle: the full-BFS reference ([`OracleKind::FullBfs`]) scores on a
/// scratch graph and never syncs one, so `kind` must be
/// [`OracleKind::Persistent`].
pub fn make_oracle(kind: OracleKind, n: usize) -> PersistentOracle {
    assert_eq!(
        kind,
        OracleKind::Persistent,
        "the full-BFS reference keeps no cache"
    );
    PersistentOracle::new(n)
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

/// The level counts and aggregates of a full distance row, its max exact.
fn aggregates(dist: &[u16]) -> ([u16; LEVELS], BatchSummary) {
    let mut levels = [0u16; LEVELS];
    let mut totals = BatchSummary::default();
    for &d in dist {
        if d != UNREACHABLE {
            levels[level_bucket(d)] += 1;
            totals.sum += u64::from(d);
            totals.reached += 1;
            totals.max_hint = totals.max_hint.max(d);
        }
    }
    (levels, totals)
}

/// The two endpoints of a journal entry.
fn endpoints(change: &EdgeChange) -> (NodeId, NodeId) {
    match *change {
        EdgeChange::Added { u, v } | EdgeChange::Removed { u, v } => (u, v),
    }
}

/// The vertex every change of `window` is an edge at: the mover of a window
/// that holds one move (a Swap, Buy, Delete or whole-strategy change).
/// When every change is the same edge, its first-named endpoint.
fn window_mover(window: &[EdgeChange]) -> Option<NodeId> {
    let (a, b) = endpoints(window.first()?);
    [a, b].into_iter().find(|&x| {
        window.iter().all(|change| {
            let (p, q) = endpoints(change);
            p == x || q == x
        })
    })
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

/// One distance row with its aggregates and [`LEVELS`]-bucket level
/// counts, as the repairs write it: a row of the oracle's matrix, repaired
/// in place by the sync's replay, or the working vector, whose writes are
/// journaled so that a candidate's deltas roll back. `levels[d]` counts the
/// vertices at distance `d`, except the last bucket, which counts every
/// vertex at distance `LEVELS - 1` or more.
struct RowMut<'a> {
    dist: &'a mut [u16],
    levels: &'a mut [u16; LEVELS],
    totals: &'a mut BatchSummary,
    /// The working vector's undo journal: `(vertex, previous distance)`.
    journal: Option<&'a mut Vec<(u32, u16)>>,
}

impl RowMut<'_> {
    #[inline]
    fn get(&self, x: u32) -> u16 {
        self.dist[x as usize]
    }

    /// Sets `dist[x] = new`, keeping the aggregates and level counts in step.
    #[inline]
    fn set(&mut self, x: u32, new: u16) {
        let old = std::mem::replace(&mut self.dist[x as usize], new);
        if let Some(journal) = self.journal.as_deref_mut() {
            journal.push((x, old));
        }
        let totals = &mut *self.totals;
        if old != UNREACHABLE {
            totals.sum -= u64::from(old);
            self.levels[level_bucket(old)] -= 1;
            totals.reached -= 1;
        }
        if new != UNREACHABLE {
            totals.sum += u64::from(new);
            self.levels[level_bucket(new)] += 1;
            totals.reached += 1;
            totals.max_hint = totals.max_hint.max(new);
        }
    }

    /// Current summary; tightens `max_hint` to the true maximum. The level
    /// counts give it unless the last bucket holds a vertex, and a scan of
    /// the row does then.
    fn summary(&mut self) -> DistanceSummary {
        if self.totals.reached < self.dist.len() {
            return DistanceSummary::DISCONNECTED;
        }
        let last = LEVELS - 1;
        let max = if self.levels[last] > 0 {
            self.dist.iter().copied().max().unwrap_or(0)
        } else {
            let mut m = usize::from(self.totals.max_hint).min(last);
            while m > 0 && self.levels[m] == 0 {
                m -= 1;
            }
            m as u16
        };
        self.totals.max_hint = max;
        DistanceSummary {
            sum: Some(self.totals.sum),
            max: Some(u32::from(max)),
        }
    }
}

/// A working vector: a copy of one source's row, which candidate deltas
/// repair, with an undo journal.
#[derive(Debug, Clone, Default)]
struct DistState {
    dist: Vec<u16>,
    levels: [u16; LEVELS],
    totals: BatchSummary,
    journal: Vec<(u32, u16)>,
}

impl DistState {
    /// Copies row `src` of the cache, its level counts and aggregates, and
    /// clears the journal: `O(n)`.
    fn load(&mut self, cache: &RowCache, src: usize) {
        self.journal.clear();
        self.dist.clear();
        self.dist.extend_from_slice(cache.dist.row(src));
        self.levels = cache.levels[src];
        self.totals = cache.totals[src];
    }

    /// The working vector as the repairs write it, journaled.
    fn row(&mut self) -> RowMut<'_> {
        RowMut {
            dist: &mut self.dist,
            levels: &mut self.levels,
            totals: &mut self.totals,
            journal: Some(&mut self.journal),
        }
    }

    /// Reverts journaled assignments down to `journal_len` entries;
    /// `max_hint` restores the max bound recorded at that point.
    fn rollback_to(&mut self, journal_len: usize, max_hint: u16) {
        let mut row = RowMut {
            dist: &mut self.dist,
            levels: &mut self.levels,
            totals: &mut self.totals,
            journal: None,
        };
        for (x, old) in self.journal.drain(journal_len..).rev() {
            row.set(x, old);
        }
        row.totals.max_hint = max_hint;
    }
}

/// A resume point of the delta stack: the journal length and max bound right
/// before the corresponding delta was applied.
#[derive(Debug, Clone, Copy)]
struct Checkpoint {
    journal_len: usize,
    max_hint: u16,
}

/// The neighbour-row bound of the pinned source `u` (see
/// [`PersistentOracle::removal_bound`]). Built once per pin from the matrix
/// rows of `N(u)`: per vertex `y`, the smallest and second-smallest
/// `d(w, y)` over `w ∈ N(u)` and the `w` giving the smallest. From those,
/// `c_f` for any dropped neighbour `f` is one `O(n)` pass.
#[derive(Debug, Clone, Default)]
struct RowBound {
    /// The pinned source `u` the minima were built for at the synced
    /// version. Cleared whenever the version moves.
    pin: Option<u32>,
    best: Vec<u16>,
    second: Vec<u16>,
    /// The neighbour giving `best` (vertex ids fit: `n ≤ MAX_NODES`).
    arg: Vec<u16>,
    /// The dropped neighbour `f` whose `c_f` the fields below hold.
    dropped: Option<u32>,
    dist: Vec<u16>,
    sum: u64,
    reached: usize,
    max: u16,
    /// The level counts of every `c_f` filled since the minima were built.
    /// A per-target level bound reads them, so bounding a Swap never
    /// refills `dist`, which the kernel reads for its own `f`.
    cf_levels: Vec<(u32, [u16; LEVELS])>,
}

impl RowBound {
    /// The recorded level counts of `c_f`, if it was filled since the
    /// minima were built.
    fn levels_of(&self, f: u32) -> Option<&[u16; LEVELS]> {
        self.cf_levels
            .iter()
            .find(|&&(dropped, _)| dropped == f)
            .map(|(_, levels)| levels)
    }

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
    /// (saturating at `UNREACHABLE`), with its aggregates, and records its
    /// level counts once per `f`. `c_f(f)` is then raised to
    /// `1 + min c_f(x)` over `x ∈ N(f) ∖ {src}`, because a path to `f` in
    /// `G − {src, f}` enters `f` from such an `x`. That makes a dropped leaf
    /// unreachable.
    fn fill(&mut self, src: u32, f: u32, f_neighbors: &[u32]) {
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
        let (levels, totals) = aggregates(&self.dist);
        (self.sum, self.reached, self.max) = (totals.sum, totals.reached, totals.max_hint);
        if self.levels_of(f).is_none() {
            self.cf_levels.push((f, levels));
        }
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

/// Vertex ids per block of [`PersistentOracle::insert_block_bounds`]: one
/// envelope row, and one bound per scan run, covers this many consecutive
/// targets.
pub const ENVELOPE_BLOCK: usize = 64;

/// The block envelope rows of the synced version (see
/// [`PersistentOracle::insert_block_bounds`]).
#[derive(Debug, Clone, Default)]
struct BlockEnvelopes {
    /// `Some(true)`: `rows` are built; `Some(false)`: a row was
    /// disconnected, so this version has none; `None`: not built since the
    /// last sync.
    built: Option<bool>,
    /// Per block, the largest cumulative level count of its members at
    /// each of the [`LEVELS`] buckets.
    rows: Vec<[u16; LEVELS]>,
}

/// Where the source side of a removal-only prefix's level counts are.
#[derive(Debug, Clone, Copy)]
enum SourceLevels {
    /// The pinned source's row of the level matrix: an empty prefix.
    Base,
    /// The recorded counts of `c_f`: a one-removal prefix at the source.
    Row(u32),
    /// The seated delta stack's: any other removal-only prefix.
    Seated,
}

/// Every source's distance row at the synced version: one row-major
/// `n × n` matrix, with each row's [`LEVELS`]-bucket level counts and
/// aggregates in flat arrays beside it.
#[derive(Debug, Clone, Default)]
struct RowCache {
    dist: DistanceMatrix,
    levels: Vec<[u16; LEVELS]>,
    totals: Vec<BatchSummary>,
}

impl RowCache {
    /// The number of rows: the graph size of the last sync.
    fn len(&self) -> usize {
        self.totals.len()
    }

    /// Sizes the cache for graphs on `n` vertices; the next sync fills it.
    fn resize(&mut self, n: usize) {
        self.dist = DistanceMatrix::new(n);
        self.levels = vec![[0; LEVELS]; n];
        self.totals = vec![BatchSummary::default(); n];
    }

    fn row_mut(&mut self, x: usize) -> RowMut<'_> {
        RowMut {
            dist: self.dist.row_mut(x),
            levels: &mut self.levels[x],
            totals: &mut self.totals[x],
            journal: None,
        }
    }

    /// Bytes held: the matrix, the level counts and the aggregates.
    fn bytes(&self) -> u64 {
        let n = self.len();
        let per_row = size_of::<[u16; LEVELS]>() + size_of::<BatchSummary>();
        (n * n * size_of::<u16>() + n * per_row) as u64
    }
}

/// Scratch of the sync's column-wise pass over a window with one mover `u`
/// (see [`PersistentOracle::advance_mover`]).
#[derive(Debug, Clone, Default)]
struct ColumnScratch {
    /// `Q`: the mover's neighbours before or after the window.
    neighbours: Vec<u32>,
    /// Row `u` from before the window.
    old_u: Vec<u16>,
    /// Row `u` after the window.
    new_u: Vec<u16>,
    /// The rows of `Q` from before the window, back to back.
    old_q: Vec<u16>,
    /// Per row: replay it over the window.
    flagged: Vec<bool>,
}

/// Scratch of the truncated-BFS repairs. The repairs write a [`RowMut`], so
/// one code path repairs the working vector under a candidate's deltas and
/// every matrix row in place at the sync.
#[derive(Debug, Clone, Default)]
struct RepairScratch {
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
    /// The deltas overlaid on the CSR snapshot: the seated delta stack, or
    /// the rewound journal window of a replay.
    overlay: DeltaOverlay,
}

impl RepairScratch {
    fn resize(&mut self, n: usize) {
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

    /// Decrease-only relaxation of `row` after inserting `{u, v}` (already
    /// in the overlay): distances can only shrink, and only inside the
    /// region whose shortest paths now run through the new edge. Returns
    /// the vertices expanded.
    fn repair_insert(&mut self, csr: &CsrAdjacency, row: &mut RowMut, u: u32, v: u32) -> u64 {
        let (du, dv) = (row.get(u), row.get(v));
        let (far, dn) = if du <= dv { (v, du) } else { (u, dv) };
        if dn == UNREACHABLE || dn + 1 >= row.get(far) {
            return 0;
        }
        row.set(far, dn + 1);
        self.queue.clear();
        self.queue.push(far);
        let mut head = 0usize;
        while head < self.queue.len() {
            let x = self.queue[head];
            head += 1;
            let dx = row.get(x);
            let queue = &mut self.queue;
            for_each_neighbor(csr, &self.overlay, x, |y| {
                if row.get(y) > dx + 1 {
                    row.set(y, dx + 1);
                    queue.push(y);
                }
            });
        }
        head as u64
    }

    /// Repair of `row` after removing `{u, v}` (already gone from the
    /// overlay). Returns the vertices expanded.
    ///
    /// Phase 1 finds the *orphaned* region: vertices whose every shortest
    /// path from the source used the deleted edge. Processing candidates in
    /// BFS order guarantees that when a vertex is orphan-checked, the affected
    /// status of the previous level is final. Phase 2 re-settles the region
    /// with a Dial (bucket) Dijkstra seeded from its unaffected boundary;
    /// orphans with no boundary stay unreachable.
    fn repair_delete(&mut self, csr: &CsrAdjacency, row: &mut RowMut, u: u32, v: u32) -> u64 {
        let (du, dv) = (row.get(u), row.get(v));
        if du == UNREACHABLE || dv == UNREACHABLE || du == dv {
            // The edge was on no shortest path from the source.
            return 0;
        }
        let child = if du < dv { v } else { u };
        debug_assert_eq!(row.get(child), du.min(dv) + 1);
        self.bump_epoch();

        // Phase 1: collect the orphaned region, level by level.
        if self.has_live_parent(csr, row, child) {
            return 0;
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
            let dx = row.get(x);
            self.cand.clear();
            let cand = &mut self.cand;
            for_each_neighbor(csr, &self.overlay, x, |y| {
                cand.push(y);
            });
            for i in 0..self.cand.len() {
                let y = self.cand[i];
                if row.get(y) == dx + 1 && self.checked[y as usize] != self.epoch {
                    self.checked[y as usize] = self.epoch;
                    if !self.has_live_parent(csr, row, y) {
                        self.mark[y as usize] = self.epoch;
                        self.affected.push(y);
                        self.queue.push(y);
                    }
                }
            }
        }
        let mut expanded = head as u64;

        // Phase 2: re-settle the orphans from their unaffected boundary.
        let mut min_t = UNREACHABLE;
        let mut max_t = 0u16;
        for i in 0..self.affected.len() {
            let x = self.affected[i];
            let mut best = UNREACHABLE;
            let mark = &self.mark;
            let epoch = self.epoch;
            let seen = &*row;
            for_each_neighbor(csr, &self.overlay, x, |z| {
                if mark[z as usize] != epoch {
                    let dz = seen.get(z);
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
            row.set(x, UNREACHABLE);
        }
        if min_t == UNREACHABLE {
            return expanded; // The whole region is disconnected from the source now.
        }
        let mut d = min_t;
        while d <= max_t {
            while let Some(x) = self.buckets[d as usize].pop() {
                if row.get(x) != UNREACHABLE || self.tent[x as usize] != d {
                    continue; // settled earlier or stale bucket entry
                }
                expanded += 1;
                row.set(x, d);
                let mark = &self.mark;
                let epoch = self.epoch;
                let seen = &*row;
                let tent = &mut self.tent;
                let buckets = &mut self.buckets;
                for_each_neighbor(csr, &self.overlay, x, |y| {
                    if mark[y as usize] == epoch
                        && seen.get(y) == UNREACHABLE
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
        expanded
    }

    /// True if `x` has a neighbour one level closer to the source that is not
    /// (currently marked) affected.
    fn has_live_parent(&self, csr: &CsrAdjacency, row: &RowMut, x: u32) -> bool {
        let dx = row.get(x);
        let mut live = false;
        for_each_neighbor(csr, &self.overlay, x, |z| {
            if !live
                && self.mark[z as usize] != self.epoch
                && row.get(z) != UNREACHABLE
                && row.get(z) + 1 == dx
            {
                live = true;
            }
        });
        live
    }

    /// The one repair dispatch: activates `delta` in the overlay, then
    /// repairs `row` for it. Returns the vertices expanded.
    fn apply(&mut self, csr: &CsrAdjacency, row: &mut RowMut, delta: EdgeDelta) -> u64 {
        self.overlay.activate(&delta);
        match delta {
            EdgeDelta::Insert { u, v } => self.repair_insert(csr, row, u as u32, v as u32),
            EdgeDelta::Remove { u, v } => self.repair_delete(csr, row, u as u32, v as u32),
        }
    }

    /// Runs the journal window `changes` through the repairs on `row`, in
    /// place, and returns the vertices expanded. The CSR must already be
    /// synced to the *post-window* graph; the overlay must be empty, and is
    /// empty again afterwards.
    ///
    /// The CSR reflects the *current* graph, so the overlay is first rewound
    /// by the inverted pending changes; re-activating each change then
    /// advances the overlaid graph one step right before its repair runs, and
    /// the rewind cancels out entirely by the end.
    fn replay(&mut self, csr: &CsrAdjacency, mut row: RowMut<'_>, changes: &[EdgeChange]) -> u64 {
        debug_assert!(self.overlay.is_empty());
        for change in changes.iter().rev() {
            self.overlay.activate(&invert(change));
        }
        let mut expanded = 0;
        for change in changes {
            let delta = match *change {
                EdgeChange::Added { u, v } => EdgeDelta::Insert { u, v },
                EdgeChange::Removed { u, v } => EdgeDelta::Remove { u, v },
            };
            expanded += self.apply(csr, &mut row, delta);
        }
        debug_assert!(self.overlay.is_empty(), "replay must cancel the rewind");
        expanded
    }
}

/// The persistent oracle ([`OracleKind::Persistent`]): journaled truncated-BFS
/// repair of the pinned source's row, with every source's row carried
/// across `begin` calls.
///
/// Consecutive evaluations share work through the *delta stack*: the deltas of
/// the previous evaluation stay applied, and the next evaluation only rolls
/// back to the longest common prefix before repairing its own suffix. A
/// best-response scan enumerating swaps as `(from, to₁), (from, to₂), …` thus
/// pays the expensive `Remove {u, from}` repair once per `from`, not once per
/// candidate.
///
/// Every source's distance row lives in one `n × n` matrix with one sync
/// point: the first call at a graph version the oracle has not seen brings
/// every row to it, so no row is ever stale. When the edge changes recorded
/// in the graph's journal are all at one mover `u`, the sync refills row
/// `u`, replays the changes in place, through the same repair machinery,
/// into the rows of `u`'s old and new neighbours and into the rows whose
/// distance to one of them changed, and writes the new `d(x, u)` into the
/// rest; any other window is replayed into every row. The
/// first sync, and one whose window the journal cannot serve (a foreign
/// lineage, a discarded window, a new graph size) or that is too long to
/// replay profitably, refills every row in 64-wide bitset waves instead, so
/// the oracle is exact in all cases. `begin` copies the pinned source's row
/// into a working vector, which the candidate deltas repair;
/// `evaluate_for_source` repairs a copy of any row in a second one.
///
/// The cache holds every source's row from the first query on: `2n²`
/// bytes of distances plus 88 bytes of level counts and aggregates per
/// row, 135 MB at `n = 8192`. A caller that wants one source of a huge
/// graph runs a [`BfsBuffer`] instead. The block envelopes add 64 bytes per
/// [`ENVELOPE_BLOCK`] vertices.
#[derive(Default)]
pub struct PersistentOracle {
    csr: CsrAdjacency,
    /// The pinned source: the source of the last `begin`.
    src: u32,
    /// Row `src` under the delta stack.
    state: DistState,
    /// The never-pinned copy `evaluate_for_source` repairs, under an overlay
    /// of its own that is swapped into the repair scratch for the query.
    other: DistState,
    other_overlay: DeltaOverlay,
    /// Deltas currently applied on top of the base row.
    active: Vec<EdgeDelta>,
    /// `checkpoints[i]` restores the state right before `active[i]`.
    checkpoints: Vec<Checkpoint>,
    repair: RepairScratch,
    stats: OracleStats,
    /// Every source's row, current at the synced version.
    cache: RowCache,
    /// Version the CSR snapshot, every row and the working vector reflect;
    /// `None` until the first sync.
    synced: Option<GraphVersion>,
    /// Shared bitset-frontier workspace of the bulk waves.
    wave: MultiSourceBfs,
    /// Scratch of the sync's column-wise pass.
    column: ColumnScratch,
    /// Neighbour-row bound of the pinned source's one-removal prefixes.
    rows: RowBound,
    /// Block envelopes of every row's level counts at the synced version.
    envelopes: BlockEnvelopes,
}

impl PersistentOracle {
    /// Creates a persistent oracle for graphs on `n` vertices. Its buffers
    /// are sized by the first sync.
    pub fn new(n: usize) -> Self {
        assert!(
            n <= MAX_NODES,
            "u16 distances support at most {MAX_NODES} vertices (got {n})"
        );
        PersistentOracle::default()
    }

    /// Maximum number of journal entries worth replaying before a full BFS is
    /// cheaper: each replayed change costs a truncated repair, so past a small
    /// fraction of `n` the fallback wins.
    fn stale_limit(&self) -> usize {
        (self.cache.len() / 8).max(8)
    }

    /// Fewest old and new neighbours `Q` of a mover that make the sync
    /// replay every row instead of advancing column-wise. The column-wise
    /// pass keeps a copy of each `q`'s row, so the bound caps that scratch
    /// at 63 rows: 126 KB at `n = 1024`, where a star centre's move would
    /// otherwise copy the whole matrix. Nothing else reaches it: over
    /// max-cost SUM trials at `n = 16…1024`, `|Q|` averaged 3.3–6.3 and
    /// stayed at most 13 except for hub moves (SUM-GBG, 0.3–0.5 % of
    /// windows), and every bound from 16 up timed the same sync. Scaling
    /// the bound down with `n` only hurts: `n / 8` made `n = 16…32` trials
    /// replay 46–100 % of rows instead of 13–23 %, and their syncs took up
    /// to 2.5× as long.
    const COLUMN_LIMIT: usize = 64;

    /// Applies one delta on top of the stack, recording its resume point.
    fn push_delta(&mut self, delta: EdgeDelta) {
        self.checkpoints.push(Checkpoint {
            journal_len: self.state.journal.len(),
            max_hint: self.state.totals.max_hint,
        });
        self.active.push(delta);
        let row = &mut self.state.row();
        self.stats.nodes_expanded += self.repair.apply(&self.csr, row, delta);
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
        self.repair.overlay.clear();
        for delta in &self.active {
            self.repair.overlay.activate(delta);
        }
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
    /// source's row to the current version of `g`, so every other method
    /// reads only current rows. Within one dynamics step the graph is
    /// immutable, so the `n` per-agent reads of a scan share a single sync.
    ///
    /// A graph of a new size resets the cache. The journal's exact edge
    /// deltas are patched into the CSR's flat buffers in place —
    /// `O(changes)` instead of the `O(n + m)` rebuild, with the patcher's own
    /// rebuild fallback for dense journals and exhausted segment slack — and
    /// every row is advanced over the same window
    /// ([`PersistentOracle::replay_window`]): column-wise when the window
    /// holds one mover's changes, by a replay of every row otherwise. The
    /// first sync, and a window the journal cannot serve (a foreign lineage
    /// or a discarded window) or one longer than the replay limit, rebuild
    /// the CSR and refill every row in bitset waves instead. The working
    /// vector is then copied afresh from the pinned source's row, and the
    /// delta stack is dropped.
    fn sync(&mut self, g: &OwnedGraph) {
        let cur = g.version();
        if self.synced == Some(cur) {
            return;
        }
        let n = g.num_nodes();
        if n != self.cache.len() {
            // The graph size changed: every cached row is meaningless.
            self.repair.resize(n);
            self.cache.resize(n);
            self.src = 0;
            self.synced = None;
        }
        self.rows.pin = None;
        self.envelopes.built = None;
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
            Some(changes) => self.replay_window(changes),
            None => self.batch_repin(),
        }
        self.synced = Some(cur);
        if n > 0 {
            self.load_row(self.src as usize);
        }
    }

    /// Advances every row over the journal window `changes`, the CSR
    /// already patched to its end, in one `scalar-replay` span.
    ///
    /// A window whose changes are all edges at one mover `u`, with fewer
    /// than [`PersistentOracle::COLUMN_LIMIT`] old and new neighbours `Q`,
    /// is advanced column-wise ([`PersistentOracle::advance_mover`]): the
    /// rows of `Q` are replayed and row `u` refilled, a row `x` is replayed
    /// only if `d(x, q)` changed for some `q ∈ Q`, and every other row gets
    /// `d(x, u)` from `u`'s new row where it changed. Any other window
    /// replays every row.
    fn replay_window(&mut self, changes: &[EdgeChange]) {
        let _sp = trace::span(trace::Phase::ScalarReplay);
        // The delta stack goes with the working vector, which is copied
        // afresh after the sync: the replay needs an empty overlay.
        self.repair.overlay.clear();
        let n = self.cache.len();
        let mover = window_mover(changes).filter(|&u| self.gather_neighbours(u, changes));
        self.column.flagged.clear();
        self.column.flagged.resize(n, mover.is_none());
        if let Some(u) = mover {
            self.advance_mover(u, changes);
        }
        for x in 0..n {
            if self.column.flagged[x] {
                let row = self.cache.row_mut(x);
                self.stats.nodes_expanded += self.repair.replay(&self.csr, row, changes);
                self.stats.replayed_begins += 1;
            } else if let Some(u) = mover {
                let d = self.column.new_u[x];
                if self.column.old_u[x] != d {
                    let mut row = self.cache.row_mut(x);
                    // Row `u` and the rows of `Q` are current already.
                    if row.get(u as u32) != d {
                        row.set(u as u32, d);
                        self.stats.column_patches += 1;
                    }
                }
            }
        }
    }

    /// Collects `Q`, the old and new neighbours of the mover `u` over the
    /// window `changes`, and reports whether they are fewer than
    /// [`PersistentOracle::COLUMN_LIMIT`].
    fn gather_neighbours(&mut self, u: NodeId, changes: &[EdgeChange]) -> bool {
        let q = &mut self.column.neighbours;
        q.clear();
        q.extend_from_slice(self.csr.neighbors(u));
        for change in changes {
            let (a, b) = endpoints(change);
            let w = if a == u { b } else { a } as u32;
            if !q.contains(&w) {
                q.push(w);
            }
        }
        q.len() < Self::COLUMN_LIMIT
    }

    /// The first half of the column-wise pass for the mover `u`: replays
    /// the rows of `Q`, refills row `u` from its new neighbours' rows,
    /// keeping copies of all of them from before the window, and flags
    /// every row `x` with a changed `d(x, q) = d(q, x)`, `q ∈ Q`.
    ///
    /// Row `u` is `1 + min d(w, x)` over its new neighbours `w ∈ Q`,
    /// whose rows are current by then: a shortest path from `u` to `x ≠ u`
    /// starts with an edge to one of them. Those `deg(u)` contiguous passes
    /// beat a one-source bitset wave, which clears three `n`-word bitsets:
    /// the sync took 59–73 µs per move against 92–102 µs on SUM-ASG trials
    /// at `n = 1024`. The flags are exact. Every
    /// changed edge is at `u`, so a shortest path from `x` to `y ≠ u` whose
    /// length changed runs through `u` (in the graph where it is shorter),
    /// on to some `q ∈ Q`. Its part from `q` to `y` avoids `u`, so that
    /// part is a path of both graphs; with `d(x, q)` unchanged, the graph
    /// where the path is shorter could not beat the other one. Flagged rows
    /// other than `u` and `Q` are replayed by the caller; every other row
    /// differs at most at `d(x, u)`.
    fn advance_mover(&mut self, u: NodeId, changes: &[EdgeChange]) {
        let n = self.cache.len();
        let (col, cache) = (&mut self.column, &mut self.cache);
        col.old_u.clear();
        col.old_u.extend_from_slice(cache.dist.row(u));
        col.old_q.clear();
        for &q in &col.neighbours {
            col.old_q.extend_from_slice(cache.dist.row(q as usize));
        }
        for (&q, old) in col.neighbours.iter().zip(col.old_q.chunks_exact(n)) {
            let row = cache.row_mut(q as usize);
            self.stats.nodes_expanded += self.repair.replay(&self.csr, row, changes);
            self.stats.replayed_begins += 1;
            let new = cache.dist.row(q as usize);
            for ((flag, &a), &b) in col.flagged.iter_mut().zip(old).zip(new) {
                *flag |= a != b;
            }
        }
        col.new_u.clear();
        col.new_u.resize(n, UNREACHABLE);
        let neighbors = self.csr.neighbors(u);
        for &w in neighbors {
            for (d, &dw) in col.new_u.iter_mut().zip(cache.dist.row(w as usize)) {
                *d = (*d).min(dw.saturating_add(1));
            }
        }
        col.new_u[u] = 0;
        cache.dist.row_mut(u).copy_from_slice(&col.new_u);
        (cache.levels[u], cache.totals[u]) = aggregates(&col.new_u);
        self.stats.nodes_expanded += (neighbors.len() * n) as u64;
        self.stats.batched_repins += 1;
        col.flagged[u] = false;
        for &q in &col.neighbours {
            col.flagged[q as usize] = false;
        }
    }

    /// Recomputes every source's row from scratch over the synced CSR
    /// snapshot, in word-parallel waves of up to [`BATCH_WIDTH`] sources:
    /// one shared bitset wave per 64 sources instead of one scalar BFS per
    /// source. The waves write the matrix rows in place.
    fn batch_repin(&mut self) {
        let _sp = trace::span(trace::Phase::BatchWave);
        let cache = &mut self.cache;
        let blocks = cache
            .levels
            .chunks_mut(BATCH_WIDTH)
            .zip(cache.totals.chunks_mut(BATCH_WIDTH));
        for (c, (levels, totals)) in blocks.enumerate() {
            let first = c * BATCH_WIDTH;
            let sources: Vec<NodeId> = (first..first + levels.len()).collect();
            let rows = cache.dist.rows_mut(first..first + levels.len());
            self.stats.nodes_expanded += self.wave.run(&self.csr, &sources, rows, levels, totals);
            self.stats.batched_repins += levels.len() as u64;
        }
        self.stats.peak_parked_bytes = self.stats.peak_parked_bytes.max(self.cache.bytes());
    }

    /// Pins `src`: one `O(n)` copy of its row, level counts and aggregates
    /// into the working vector, which drops the delta stack.
    fn load_row(&mut self, src: usize) {
        self.active.clear();
        self.checkpoints.clear();
        self.repair.overlay.clear();
        self.state.load(&self.cache, src);
        self.src = src as u32;
    }

    /// `true` iff `g` is the synced graph, so the working vector holds the
    /// pinned source's row at `g`'s version.
    fn synced_to(&self, g: &OwnedGraph) -> bool {
        self.synced == Some(g.version())
    }

    /// Shared check of the cache-arithmetic insertion queries: `u` is the
    /// pinned source, `g` the synced graph and `prefix` removal-only. A
    /// `target` must be another vertex, since `{u, u}` is not an edge.
    fn prefix_servable(
        &self,
        g: &OwnedGraph,
        prefix: &[EdgeDelta],
        u: NodeId,
        target: Option<NodeId>,
    ) -> bool {
        self.synced_to(g)
            && u as u32 == self.src
            && target.is_none_or(|v| v != u && v < self.cache.len())
            && !prefix.iter().any(|d| matches!(d, EdgeDelta::Insert { .. }))
    }

    /// Makes the source-side level counts of the removal-only `prefix`
    /// readable without touching the delta stack where it can: the pinned
    /// source's row of the level matrix for an empty prefix, and `c_f`'s
    /// recorded counts for a one-removal prefix at the pinned source
    /// (filling `c_f` only if this pin has not yet). Any other prefix is
    /// seated.
    fn source_levels(&mut self, g: &OwnedGraph, prefix: &[EdgeDelta]) -> SourceLevels {
        match *prefix {
            [] => return SourceLevels::Base,
            [EdgeDelta::Remove { u, v: f }] if u as u32 == self.src => {
                let f = f as u32;
                if self.rows.pin != Some(self.src) || self.rows.levels_of(f).is_none() {
                    self.row_bound(g, f);
                }
                return SourceLevels::Row(f);
            }
            _ => {}
        }
        if self.active.as_slice() != prefix {
            // Only a stack that actually moves (the first swap of each
            // removed edge) pays for a span.
            let _sp = trace::span(trace::Phase::DeltaRepair);
            self.seat_deltas(prefix);
        }
        SourceLevels::Seated
    }

    /// The level counts [`PersistentOracle::source_levels`] made readable.
    fn levels(&self, side: SourceLevels) -> &[u16; LEVELS] {
        match side {
            SourceLevels::Base => &self.cache.levels[self.src as usize],
            SourceLevels::Row(f) => self.rows.levels_of(f).expect("recorded when filled"),
            SourceLevels::Seated => &self.state.levels,
        }
    }

    /// Debug cross-check of a per-target level bound against the kernel
    /// on the same source side, kept out of the counters so that debug and
    /// release builds count the same work. The source distances are
    /// reread independently: the pinned source's matrix row, or a fresh
    /// fill of `c_f`; their level counts must equal the ones the bound
    /// read.
    fn check_level_bound(&self, side: SourceLevels, v: NodeId, bound: DistanceSummary) {
        let src_dist = match side {
            SourceLevels::Base => self.cache.dist.row(self.src as usize).to_vec(),
            SourceLevels::Row(f) => {
                let mut fresh = self.rows.clone();
                fresh.fill(self.src, f, self.csr.neighbors(f as usize));
                fresh.dist
            }
            SourceLevels::Seated => self.state.dist.clone(),
        };
        let mut levels = [0u16; LEVELS];
        for &d in src_dist.iter().filter(|&&d| d != UNREACHABLE) {
            levels[level_bucket(d)] += 1;
        }
        assert_eq!(
            &levels,
            self.levels(side),
            "source levels are not those of the source vector ({side:?})"
        );
        let kernel = fused_insert_summary(&src_dist, self.cache.dist.row(v));
        assert!(
            bound.sum <= kernel.sum && bound.max <= kernel.max,
            "level bound {bound:?} exceeds the kernel's {kernel:?} (src {}, v {v}, {side:?})",
            self.src
        );
    }

    /// Builds the block envelope rows of the synced version if they are
    /// not yet; `false` when this version has none.
    fn envelopes_ready(&mut self) -> bool {
        if self.envelopes.built.is_none() {
            let ready = self.build_envelopes();
            self.envelopes.built = Some(ready);
        }
        self.envelopes.built == Some(true)
    }

    /// One envelope row per block of [`ENVELOPE_BLOCK`] vertex ids, in one
    /// sequential pass over the level matrix: `false` at the first row that
    /// misses a vertex. The rows cover every source, so they stay valid
    /// whichever source is pinned at the same version.
    fn build_envelopes(&mut self) -> bool {
        let n = self.cache.len();
        let all = u16::try_from(n).expect("n ≤ MAX_NODES fits a u16 count");
        self.envelopes.rows.clear();
        let blocks = self
            .cache
            .levels
            .chunks(ENVELOPE_BLOCK)
            .zip(self.cache.totals.chunks(ENVELOPE_BLOCK));
        for (block_levels, block_totals) in blocks {
            let mut row = [0u16; LEVELS];
            // A member's count is `n` from its last bucket `top` on, so the
            // row is `n` from the smallest `top` on, and no member needs
            // counting past it.
            let mut tail = LEVELS;
            for (levels, totals) in block_levels.iter().zip(block_totals) {
                if totals.reached < n {
                    return false;
                }
                let top = level_bucket(totals.max_hint);
                let mut count = 0u16;
                for (e, &l) in row[..tail].iter_mut().zip(&levels[..=top]) {
                    count += l;
                    *e = (*e).max(count);
                }
                tail = tail.min(top);
            }
            row[tail..].fill(all);
            self.envelopes.rows.push(row);
        }
        true
    }

    /// `true` iff `prefix` is one removal `Remove {u, f}` of the pinned
    /// source `u`'s own edge (named source first, as the scans emit it); then
    /// `self.rows` now holds its `c_f`, which stands in for the repaired
    /// vector.
    fn serve_from_rows(&mut self, g: &OwnedGraph, prefix: &[EdgeDelta]) -> bool {
        match *prefix {
            [EdgeDelta::Remove { u, v }] if u as u32 == self.src => {
                self.row_bound(g, v as u32);
                true
            }
            _ => false,
        }
    }

    /// Brings `self.rows` to `c_f` of the pinned source dropping its edge to
    /// neighbour `f`. The minima are built on the pin's first call. `g`
    /// must be the synced graph.
    fn row_bound(&mut self, g: &OwnedGraph, f: u32) {
        debug_assert!(self.synced_to(g), "row bounds read the synced graph");
        let src = self.src;
        if self.rows.pin != Some(src) {
            self.rows.dropped = None;
            self.rows.cf_levels.clear();
            self.build_row_minima();
            self.rows.pin = Some(src);
        } else if self.rows.dropped == Some(f) {
            return;
        }
        let _sp = trace::span(trace::Phase::DeltaRepair);
        self.rows.fill(src, f, self.csr.neighbors(f as usize));
        self.stats.row_bounds += 1;
        self.stats.nodes_expanded += self.rows.dist.len() as u64;
        if cfg!(debug_assertions) {
            // Pointwise soundness against the truly repaired vector: a BFS
            // on a copy of `g` without `{src, f}`, kept out of the counters.
            let mut h = g.clone();
            assert!(
                h.remove_edge(src as NodeId, f as NodeId),
                "{f} neighbours {src}"
            );
            let mut buf = BfsBuffer::new(h.num_nodes());
            let truth = buf.run(&h, src as NodeId);
            for (y, (&c, &t)) in self.rows.dist.iter().zip(truth).enumerate() {
                assert!(
                    c <= t,
                    "row bound c_f({y}) = {c} exceeds the repaired distance {t} (src {src}, f {f})"
                );
            }
        }
    }

    /// Builds the row minima of the pinned source from the matrix rows of
    /// all its neighbours.
    fn build_row_minima(&mut self) {
        let _sp = trace::span(trace::Phase::DeltaRepair);
        let src = self.src as usize;
        let neighbors = self.csr.neighbors(src);
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
            rows.add_row(w as u16, self.cache.dist.row(w as usize));
        }
        self.stats.nodes_expanded += (degree * n) as u64;
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
/// [`PersistentOracle::insert_level_bound`]. `src_levels[d]` counts the pinned
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
    // Step `k` subtracts `(src_levels[k], far_levels[k − 1])`. The far
    // histogram counts all `n` vertices, so the term reaches ≤ 0 by the
    // step that takes its last entry, and the zipped steps never run out
    // first; the source one may be shorter, and reads as 0 past its end.
    let (&first, rest) = src_levels.split_first().expect("level 0 holds the source");
    let mut steps = rest.iter().chain(std::iter::repeat(&0)).zip(far_levels);
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

/// Cumulative level counts `C(j) = Σ_{d ≤ j} levels[d]` for `j < L`, with
/// `levels` read as 0 past its end.
fn cumulative_levels<const L: usize>(levels: &[u16]) -> [u16; L] {
    let mut out = [0u16; L];
    let mut count = 0u16;
    for (c, &l) in out
        .iter_mut()
        .zip(levels.iter().chain(std::iter::repeat(&0)))
    {
        count += l;
        *c = count;
    }
    out
}

/// [`level_pair_bound`] against a block envelope row: `src_cumulative[j]`
/// is the source's `S(j) = #{x : d_u(x) ≤ j}` and `row[j]` the block's
/// largest `C_v(j)`, read as `n` for `j ≥ LEVELS` (the oracle's rows reach
/// `n` at their last bucket already). Term `k` is
/// `n − S(k − 1) − row[k − 2]` (no row term at `k = 1`). Both counts only
/// grow with `k`, so the terms only shrink, and the row's `n` ends them by
/// `k = LEVELS + 2`. A row of one member whose levels all lie below the
/// cap gives exactly that member's bound.
fn block_pair_bound(
    n: usize,
    src_cumulative: &[u16; LEVELS + 1],
    row: &[u16; LEVELS],
) -> DistanceSummary {
    let n = n as i64;
    let (mut sum, mut max) = (0u64, 0u32);
    for (k, &s) in (1u32..).zip(src_cumulative) {
        let far = match k {
            1 => 0,
            _ => i64::from(row[k as usize - 2]),
        };
        let term = n - i64::from(s) - far;
        if term <= 0 {
            break;
        }
        sum += term as u64;
        max = k;
    }
    DistanceSummary {
        sum: Some(sum),
        max: Some(max),
    }
}

impl PersistentOracle {
    /// Pins the base state `(g, src)` and returns the source's base summary.
    ///
    /// Must be called before [`PersistentOracle::evaluate`] and again
    /// whenever the underlying graph or source changes.
    pub fn begin(&mut self, g: &OwnedGraph, src: NodeId) -> DistanceSummary {
        let _sp = trace::span(trace::Phase::OracleBegin);
        self.sync(g);
        if src as u32 == self.src {
            self.rollback_to_prefix(0);
        } else {
            self.load_row(src);
        }
        self.cache.row_mut(src).summary()
    }

    /// The source's distance summary served *without pinning*: from its
    /// row of the matrix, after the sync brought every row to the current
    /// version of `g`. The delta stack stays as it is.
    pub fn cached_summary(&mut self, g: &OwnedGraph, src: NodeId) -> DistanceSummary {
        self.sync(g);
        self.cache.row_mut(src).summary()
    }

    /// Brings every source's row to the current version of `g` (the first
    /// call fills them in shared bitset waves). The oracle keeps every
    /// source's row, so every vertex is warm afterwards, not only those of
    /// `sources`.
    pub fn pin_sources(&mut self, g: &OwnedGraph, _sources: &[NodeId]) {
        let _sp = trace::span(trace::Phase::PinSources);
        self.sync(g);
    }

    /// Distance summary of `src` in the base graph modified by `deltas`
    /// (applied in order). A pure what-if query: the next call sees the
    /// same base state (the rollback is deferred, and the longest common
    /// delta prefix between consecutive evaluations is reused).
    pub fn evaluate(&mut self, deltas: &[EdgeDelta]) -> DistanceSummary {
        let _sp = trace::span(trace::Phase::DeltaRepair);
        self.run_deltas(deltas);
        self.state.row().summary()
    }

    /// Multi-source what-if query: the `(base, modified)` summaries of any
    /// source `src` at the current version of `g`, `modified` after `deltas`
    /// (applied in order), counted as one evaluation.
    ///
    /// This is the primitive behind consent checks: "what does agent `src`
    /// pay *after* the mover's candidate `deltas`?" answered without
    /// materialising the post-move graph. It syncs, copies `src`'s matrix
    /// row into a second working vector that is never pinned, and repairs
    /// that copy for `deltas` under an overlay of its own, so the query
    /// costs `O(n + affected region)` and leaves the pinned source, its
    /// delta stack and its row bounds exactly as they were: the scan that
    /// asks keeps its prefix reuse.
    pub fn evaluate_for_source(
        &mut self,
        g: &OwnedGraph,
        src: NodeId,
        deltas: &[EdgeDelta],
    ) -> (DistanceSummary, DistanceSummary) {
        let _sp = trace::span(trace::Phase::DeltaRepair);
        self.sync(g);
        self.stats.evaluations += 1;
        let base = self.cache.row_mut(src).summary();
        self.other.load(&self.cache, src);
        let repair = &mut self.repair;
        std::mem::swap(&mut repair.overlay, &mut self.other_overlay);
        repair.overlay.clear();
        let mut row = self.other.row();
        for &delta in deltas {
            self.stats.nodes_expanded += repair.apply(&self.csr, &mut row, delta);
        }
        std::mem::swap(&mut repair.overlay, &mut self.other_overlay);
        (base, row.summary())
    }

    /// Arithmetic what-if for a **trailing edge insertion** `{u, v}` applied
    /// on top of `prefix`: the candidate `prefix ++ [Insert {u, v}]` scored
    /// from the pinned source's delta-stack state and `v`'s row of the
    /// distance matrix, with no graph traversal at all — one `O(n)` fused
    /// min/sum/max pass over two flat arrays.
    ///
    /// Returns `(summary, exact)`:
    /// * `exact == true` (empty `prefix`) — the summary is the exact
    ///   post-insertion summary, by the single-insertion identity
    ///   `d'(x) = min(d(src, x), 1 + d(v, x))`.
    /// * `exact == false` (removal-only `prefix`) — the row of `v`
    ///   predates the removals, which can only *lengthen* `v`'s distances, so
    ///   the summary is a **lower bound** on the true one: callers may prune
    ///   candidates whose lower-bound cost is already not an improvement, and
    ///   must re-score the rest exactly. For a one-removal prefix the pinned
    ///   side is read from the neighbour-row bound `c_f`
    ///   ([`PersistentOracle::removal_bound`]) instead of repaired, which
    ///   keeps it a lower bound. A disconnected answer is exact either way:
    ///   the unreached vertex is unreachable from both `u` and `v`.
    ///
    /// `g` must be the graph of the last `begin`, unchanged since, whose
    /// sync brought every row to its version.
    ///
    /// `None` whenever the oracle cannot serve the query (`u` not the pinned
    /// source; `v == u`, which is no edge; `g` not the synced graph;
    /// `prefix` containing insertions, which would flip the bound's
    /// direction).
    ///
    /// Scans put a cheaper `O(D)` tier in front of this `O(n)` pass:
    /// [`PersistentOracle::insert_level_bound`] bounds the same candidate
    /// from level histograms alone, and most candidates never get here.
    pub fn evaluate_insert_via_cache(
        &mut self,
        g: &OwnedGraph,
        prefix: &[EdgeDelta],
        u: NodeId,
        v: NodeId,
    ) -> Option<(DistanceSummary, bool)> {
        let _sp = trace::span(trace::Phase::FusedKernel);
        if !self.prefix_servable(g, prefix, u, Some(v)) {
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
        let summary = fused_insert_summary(src, self.cache.dist.row(v));
        self.stats.kernel_calls += 1;
        self.stats.nodes_expanded += n as u64;
        Some((summary, prefix.is_empty()))
    }

    /// `O(D)` lower bound (`D` = number of distance levels) on the summary
    /// of the same candidate [`PersistentOracle::evaluate_insert_via_cache`]
    /// scores: the trailing insertion `{u, v}` on top of a removal-only
    /// `prefix`. Reads no distance vector. It pairs the pinned source's
    /// per-level vertex counts after `prefix` (unreached vertices at level
    /// +∞; for a one-removal prefix, those of the neighbour-row bound `c_f`
    /// of [`PersistentOracle::removal_bound`], so the prefix is never
    /// repaired) with `v`'s row of the level matrix in opposite order. With
    /// `U(k) = #{x : d_u(x) ≥ k}` and `W(k) = #{x : d_v(x) ≥ k − 1}`, that is
    /// `SUM = Σ_{k≥1} max(0, U(k) + W(k) − n)` and `MAX` = the largest `k`
    /// with a positive term. The pairing minimises SUM and MAX of
    /// `min(a, 1 + b)` over all pairings, so both fields are `≤` the
    /// kernel's, and hence `≤` the exact post-move summary. Lowering
    /// source distances (`c_f` in place of the repaired vector) can only
    /// lower `min(a, 1 + b)`, so that stays true. So does reading either
    /// side's last level bucket, which counts every level from 31 on, as
    /// level 31.
    ///
    /// `None` whenever the oracle cannot serve the query: every case where
    /// the kernel returns `None`, plus a disconnected row of `v`.
    /// Callers then take the kernel path.
    pub fn insert_level_bound(
        &mut self,
        g: &OwnedGraph,
        prefix: &[EdgeDelta],
        u: NodeId,
        v: NodeId,
    ) -> Option<DistanceSummary> {
        let n = self.csr.num_nodes();
        if !self.prefix_servable(g, prefix, u, Some(v)) || self.cache.totals[v].reached < n {
            return None;
        }
        let side = self.source_levels(g, prefix);
        let bound = level_pair_bound(n, self.levels(side), &self.cache.levels[v]);
        self.stats.bound_queries += 1;
        if cfg!(debug_assertions) {
            self.check_level_bound(side, v, bound);
        }
        Some(bound)
    }

    /// One lower bound per block of [`ENVELOPE_BLOCK`] consecutive vertex
    /// ids on the summary of every candidate
    /// [`PersistentOracle::insert_level_bound`] bounds with this `prefix`:
    /// `out[b]` is `≤` that bound for every target `v` in block `b`, so a
    /// scan can rule out all of a block's Buys (or all of its Swaps from one
    /// neighbour) at once.
    ///
    /// Each block's *envelope* row holds, for each of the [`LEVELS`] level
    /// buckets `j`, the largest cumulative level count
    /// `C_v(j) = #{x : d(v, x) ≤ j}` over the block's members; the last
    /// bucket holds every level from 31 on, so it reads as `n`. The bound
    /// pairs it with the same source-side histogram the per-target bound
    /// uses (`c_f` for a one-removal prefix): that pairing's term `k` is
    /// `max(0, n − S(k − 1) − C_v(k − 2))`, with `S` the source's cumulative
    /// counts, so a larger `C_v` can only lower the bound. The rows are
    /// built once per synced graph version from the level matrix.
    ///
    /// Clears `out` first. `false` (and `out` empty) whenever the oracle
    /// cannot serve the bounds: `u` not the pinned source, `g` not the
    /// pinned graph, a `prefix` with insertions, or a vector that does not
    /// reach every vertex.
    pub fn insert_block_bounds(
        &mut self,
        g: &OwnedGraph,
        prefix: &[EdgeDelta],
        u: NodeId,
        out: &mut Vec<DistanceSummary>,
    ) -> bool {
        out.clear();
        if !self.prefix_servable(g, prefix, u, None) || !self.envelopes_ready() {
            return false;
        }
        let n = self.csr.num_nodes();
        let side = self.source_levels(g, prefix);
        let src_cumulative = cumulative_levels::<{ LEVELS + 1 }>(self.levels(side));
        let rows = &self.envelopes.rows;
        out.extend(
            rows.iter()
                .map(|row| block_pair_bound(n, &src_cumulative, row)),
        );
        self.stats.bound_queries += out.len() as u64;
        if cfg!(debug_assertions) {
            // Every member's own bound is at least its block's.
            let src_levels = self.levels(side);
            for (b, block) in out.iter().enumerate() {
                let members = b * ENVELOPE_BLOCK..((b + 1) * ENVELOPE_BLOCK).min(n);
                for v in members.filter(|&v| v != u) {
                    let member = level_pair_bound(n, src_levels, &self.cache.levels[v]);
                    assert!(
                        block.sum <= member.sum && block.max <= member.max,
                        "block {b} bound {block:?} exceeds member {v}'s {member:?} \
                         (src {u}, prefix {prefix:?})"
                    );
                }
            }
        }
        true
    }

    /// Lower bound on the summary of the pinned source `u` after removing
    /// its own edge `{u, f}`, read from the matrix rows of `u`'s other
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
    /// [`PersistentOracle::insert_level_bound`] and
    /// [`PersistentOracle::evaluate_insert_via_cache`] use the same `c_f` in
    /// place of the repaired vector for a one-removal prefix. The first
    /// such query of a pin records, per vertex, the smallest and
    /// second-smallest neighbour distance and the neighbour giving the
    /// smallest (`O(deg(u)·n)`); each `c_f` is then one `O(n)` pass.
    ///
    /// `None` whenever the oracle cannot serve the bound: `u` not the pinned
    /// source, or `g` not the synced graph. `f` must be a neighbour of `u`.
    pub fn removal_bound(
        &mut self,
        g: &OwnedGraph,
        u: NodeId,
        f: NodeId,
    ) -> Option<DistanceSummary> {
        if !self.synced_to(g) || u as u32 != self.src || f >= self.cache.len() {
            return None;
        }
        self.row_bound(g, f as u32);
        self.stats.bound_queries += 1;
        Some(self.rows.summary())
    }

    /// Like [`PersistentOracle::evaluate`], additionally copying the full
    /// modified distance vector into `out` (used by equivalence tests).
    pub fn evaluate_into(&mut self, deltas: &[EdgeDelta], out: &mut Vec<u16>) -> DistanceSummary {
        self.run_deltas(deltas);
        out.clear();
        out.extend_from_slice(&self.state.dist);
        self.state.row().summary()
    }

    /// The base distance vector pinned by the last
    /// [`PersistentOracle::begin`]: the source's row of the matrix.
    pub fn base_distances(&self) -> &[u16] {
        self.cache.dist.row(self.src as usize)
    }

    /// Work counters accumulated since the last reset.
    pub fn stats(&self) -> OracleStats {
        self.stats.debug_validate();
        self.stats
    }

    /// Clears the work counters.
    pub fn reset_stats(&mut self) {
        self.stats = OracleStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    /// Bytes of a full cache on `n` vertices: the distance matrix plus each
    /// row's level counts and aggregates.
    fn cache_bytes(n: usize) -> u64 {
        (n * n * 2 + n * (2 * LEVELS + size_of::<BatchSummary>())) as u64
    }

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

    /// The oracle's base summary, what-if summary and distances for
    /// `deltas` against [`truth`], and the base restored afterwards.
    fn check_persistent(g: &OwnedGraph, src: NodeId, deltas: &[EdgeDelta]) {
        let (expect_dist, expect_summary) = truth(g, src, deltas);
        let mut oracle = PersistentOracle::new(g.num_nodes());
        let base = oracle.begin(g, src);
        let mut buf = BfsBuffer::new(g.num_nodes());
        assert_eq!(base, buf.summary(g, src), "base summary");
        let mut dist = Vec::new();
        let summary = oracle.evaluate_into(deltas, &mut dist);
        assert_eq!(summary, expect_summary, "summary for {deltas:?}");
        assert_eq!(dist, expect_dist, "distances for {deltas:?}");
        // The base must be restored: re-evaluating nothing gives the base.
        assert_eq!(oracle.evaluate(&[]), base, "base restore");
        assert_eq!(
            oracle.base_distances(),
            &buf.run(g, src)[..g.num_nodes()],
            "base distances"
        );
    }

    #[test]
    fn insert_shortcut_on_path() {
        let g = generators::path(8);
        check_persistent(&g, 0, &[EdgeDelta::Insert { u: 0, v: 7 }]);
        check_persistent(&g, 3, &[EdgeDelta::Insert { u: 0, v: 7 }]);
        check_persistent(&g, 0, &[EdgeDelta::Insert { u: 0, v: 4 }]);
    }

    #[test]
    fn remove_edge_with_detour() {
        let mut g = generators::cycle(9);
        g.add_edge(0, 4);
        for src in 0..9 {
            check_persistent(&g, src, &[EdgeDelta::Remove { u: 0, v: 1 }]);
            check_persistent(&g, src, &[EdgeDelta::Remove { u: 0, v: 4 }]);
        }
    }

    #[test]
    fn remove_bridge_disconnects() {
        let g = generators::path(6);
        check_persistent(&g, 0, &[EdgeDelta::Remove { u: 2, v: 3 }]);
        check_persistent(&g, 5, &[EdgeDelta::Remove { u: 2, v: 3 }]);
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
            check_persistent(&g, src, &deltas);
        }
    }

    #[test]
    fn insert_reconnects_component() {
        let mut g = generators::path(6);
        g.remove_edge(2, 3); // components {0,1,2} and {3,4,5}
        check_persistent(&g, 0, &[EdgeDelta::Insert { u: 2, v: 3 }]);
        check_persistent(&g, 0, &[EdgeDelta::Insert { u: 0, v: 5 }]);
        // An edge inside the far component changes nothing for the source.
        check_persistent(&g, 0, &[EdgeDelta::Insert { u: 3, v: 5 }]);
    }

    #[test]
    fn star_center_swaps() {
        let g = generators::star(10);
        for leaf in [1usize, 5, 9] {
            check_persistent(
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
        // work while a BFS per evaluation re-walks all 65 vertices. This is
        // the common case in best-response scans — most candidates barely
        // move the distance vector.
        let g = generators::path(65);
        let src = 32;
        let deltas = [EdgeDelta::Insert { u: 31, v: 33 }];
        let (_, expect) = truth(&g, src, &deltas);
        let mut inc = PersistentOracle::new(65);
        inc.begin(&g, src);
        inc.reset_stats();
        for _ in 0..10 {
            assert_eq!(inc.evaluate(&deltas), expect);
        }
        let stats = inc.stats();
        assert_eq!(stats.evaluations, 10);
        let full_bfs_nodes = 10 * 65;
        assert!(
            stats.nodes_expanded * 5 < full_bfs_nodes,
            "incremental {} vs full {full_bfs_nodes}",
            stats.nodes_expanded
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
        let mut buf = BfsBuffer::new(16);
        oracle.begin(&g, 3);
        assert_eq!(
            oracle.stats().batched_repins,
            16,
            "the first sync fills all"
        );
        // Mutate the graph a little and re-pin the same source: no sync may
        // recompute every distance vector. Each toggled chord has one mover,
        // so each sync refills the mover's row from its neighbours' rows,
        // replays the rows that change off its column and patches the rest.
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
        assert_eq!(stats.batched_repins, 16 + 12, "the first sync fills all");
        assert_eq!(
            (stats.replayed_begins, stats.column_patches),
            (78, 4),
            "rows replayed and patched by the 12 syncs, of 12 × 16"
        );
    }

    #[test]
    fn persistent_cache_survives_source_switches() {
        let mut g = generators::path(20);
        let mut oracle = PersistentOracle::new(20);
        let mut buf = BfsBuffer::new(20);
        // Pin a handful of sources, then interleave mutations with re-pins of
        // the same sources: every re-pin should load a replayed vector.
        for src in [0usize, 5, 19] {
            oracle.begin(&g, src);
        }
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
        // Each round's chord has one mover, whose row its sync refills.
        let stats = oracle.stats();
        assert_eq!(stats.batched_repins, 20 + 6, "the first sync fills all");
        assert_eq!(
            (stats.replayed_begins, stats.column_patches),
            (82, 1),
            "rows replayed and patched by the 6 syncs, of 6 × 20"
        );
    }

    #[test]
    fn persistent_falls_back_on_stale_or_foreign_histories() {
        // The sync's replay path and its three refill paths: a window past
        // the replay limit (a replay would be slower than a fresh wave), a
        // clone (a fresh lineage whose journal can never serve a version
        // taken on the original), and a graph of another size. A replayed
        // window with one mover refills the mover's row from its neighbours'
        // rows, replays the rows that change off its column and patches
        // `d(x, u)` into the rest; a refill recomputes all n rows in the
        // waves, the pinned one included. Either way every summary is then
        // current, and no path runs a scalar BFS. `expect` holds the rows
        // the sync replays, patches and refills.
        fn assert_current(
            oracle: &mut PersistentOracle,
            g: &OwnedGraph,
            path: &str,
            expect: (u64, u64, u64),
        ) {
            let n = g.num_nodes();
            let before = oracle.stats();
            let mut buf = BfsBuffer::new(n);
            assert_eq!(oracle.begin(g, 0), buf.summary(g, 0), "{path}");
            assert_eq!(oracle.base_distances(), &buf.run(g, 0)[..n], "{path}");
            for src in 0..n {
                let summary = oracle.cached_summary(g, src);
                assert_eq!(summary, buf.summary(g, src), "{path}: src {src}");
            }
            let after = oracle.stats();
            let advanced = (
                after.replayed_begins - before.replayed_begins,
                after.column_patches - before.column_patches,
                after.batched_repins - before.batched_repins,
            );
            assert_eq!(advanced, expect, "{path}: rows replayed, patched, refilled");
        }
        let mut g = generators::path(32);
        let mut oracle = PersistentOracle::new(32);
        assert_current(&mut oracle, &g, "first sync", (0, 0, 32));
        // The chord's mover 0 is refilled. Its neighbours 1 and 31 are
        // replayed, and so are the 26 rows whose distance to one of them
        // changed: rows 2–14 (to 31) and 18–30 (to 1). Of 15, 16 and 17,
        // only row 17 changes, at d(17, 0) = 17 → 15, and is patched.
        g.add_edge(0, 31);
        assert_current(&mut oracle, &g, "replayed window", (28, 1, 1));
        for i in 0..16 {
            g.add_edge(i, i + 16);
        }
        assert!(16 > oracle.stale_limit());
        assert_current(&mut oracle, &g, "window past the limit", (0, 0, 32));
        let mut clone = g.clone();
        clone.swap_edge(0, 1, 20);
        assert_current(&mut oracle, &clone, "foreign lineage", (0, 0, 32));
        let cycle = generators::cycle(20);
        assert_current(&mut oracle, &cycle, "size change", (0, 0, 20));
        assert_eq!(oracle.stats().peak_parked_bytes, cache_bytes(32));
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
        let mut oracle = PersistentOracle::new(11);
        oracle.pin_sources(&g, &[0, 4, 9]);
        for src in [4usize, 9, 0, 7] {
            let (base, modified) = oracle.evaluate_for_source(&g, src, &deltas);
            assert_eq!(base, buf.summary(&g, src), "src {src}");
            let (_, expect) = truth(&g, src, &deltas);
            assert_eq!(modified, expect, "src {src}");
        }
        // Pinned sources answer later what-ifs by replay, and the answers
        // stay exact after the graph moved on.
        g.add_edge(1, 10);
        for src in [0usize, 4, 9] {
            let (base, modified) = oracle.evaluate_for_source(&g, src, &deltas);
            assert_eq!(base, buf.summary(&g, src), "replayed src {src}");
            let (_, expect) = truth(&g, src, &deltas);
            assert_eq!(modified, expect, "replayed src {src}");
        }
        // The new edge's mover 1 is refilled. Its neighbours 0, 2 and 10
        // are replayed, and so are the rows whose distance to one of them
        // changed.
        let stats = oracle.stats();
        assert_eq!(
            stats.replayed_begins, 6,
            "pinned sources are served by replay"
        );
        assert_eq!(stats.batched_repins, 11 + 1, "the first fill and row 1");
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
                buf.summary(&g, src),
                "src {src}"
            );
        }
        let after = oracle.stats();
        assert_eq!(
            after.replayed_begins, before.replayed_begins,
            "summary reads never re-pin"
        );
        // A moved graph is answered too, still without pinning or a BFS. The
        // first read's sync refills the chord's mover 0 from its new
        // neighbours' rows and replays rows 1, 7 and 13, and the rows whose
        // distance to one of them changed: 2, 5, 6, 8, 9 and 12. Rows 3, 4,
        // 10 and 11 keep even their distance to 0.
        g.add_edge(0, 7);
        for src in 0..14 {
            assert_eq!(
                oracle.cached_summary(&g, src),
                buf.summary(&g, src),
                "moved: src {src}"
            );
        }
        let moved = oracle.stats();
        assert_eq!(moved.replayed_begins, after.replayed_begins + 9);
        assert_eq!(moved.column_patches, after.column_patches);
        assert_eq!(moved.batched_repins, after.batched_repins + 1);
    }

    #[test]
    fn batched_warm_recomputes_unreplayable_slots() {
        // A journal window past the replay limit refills every row, the
        // pinned source's included, in shared bitset waves, landing each
        // current with exact contents.
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
        assert_eq!(
            oracle.stats().batched_repins,
            12,
            "the first sync fills all"
        );
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
        let stats = oracle.stats();
        assert_eq!(stats.batched_repins, 24, "every row once more, in one wave");
        assert_eq!(stats.replayed_begins, 0);
        assert_eq!(stats.peak_parked_bytes, cache_bytes(12));
        let mut buf = BfsBuffer::new(12);
        for src in 0..12 {
            let expect = buf.run(&g, src).to_vec();
            assert_eq!(oracle.cache.dist.row(src), &expect[..], "src {src}");
            let summary = oracle.cached_summary(&g, src);
            assert_eq!(summary, buf.summary(&g, src), "src {src}");
        }
    }

    #[test]
    fn batched_bulk_pin_matches_scalar_bulk_pin() {
        // Bulk pin: every source computed in the waves. The persistent
        // oracle must park the BFS-exact vectors and summaries that scalar
        // `BfsBuffer` rows give one traversal at a time, and report the
        // wave work in its counters.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(11);
        let g = generators::random_with_m_edges(100, 180, &mut rng);
        let all: Vec<NodeId> = (0..100).collect();
        let mut batched = PersistentOracle::new(100);
        batched.pin_sources(&g, &all);
        let stats = batched.stats();
        assert_eq!(stats.batched_repins, 100);
        assert_eq!(stats.replayed_begins, 0, "no per-source traversals");
        let mut buf = BfsBuffer::new(100);
        for &src in &all {
            let expect = buf.summary(&g, src);
            assert_eq!(batched.cached_summary(&g, src), expect, "src {src}");
            let dist = &buf.run(&g, src)[..100];
            assert_eq!(batched.cache.dist.row(src), dist, "src {src}");
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
        // The chord's mover 2 is refilled. Rows 1, 3 and 7 are replayed,
        // and so are rows 6 and 8, whose distance to 3 and 1 changed. Rows
        // 0, 4, 5 and 9 keep even their distance to 2.
        let stats = oracle.stats();
        assert_eq!(
            (stats.replayed_begins, stats.column_patches),
            (5, 0),
            "one sync replays 5 of 10 rows"
        );
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
    fn block_bound_of_one_member_is_its_level_bound() {
        // A row of one member is exactly that member's level bound while
        // its levels reach no further than the cap, and a lower bound past
        // it, where the row reads as `n`. Sources may leave vertices
        // unreached.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xb10c1);
        let (mut equal, mut capped) = (0usize, 0usize);
        for case in 0..400 {
            let n = rng.gen_range(2usize..120);
            let levels = rng.gen_range(1u16..48);
            let unreached = [0.0, 0.2][case % 2];
            let a: Vec<Option<u16>> = std::iter::once(Some(0))
                .chain(
                    (1..n)
                        .map(|_| (!rng.gen_bool(unreached)).then(|| rng.gen_range(1..levels + 1))),
                )
                .collect();
            let b: Vec<u16> = std::iter::once(0)
                .chain((1..n).map(|_| rng.gen_range(1..levels + 1)))
                .collect();
            let src = level_histogram(a.iter().flatten().copied(), n + 48);
            let far = level_histogram(b.iter().copied(), n + 48);
            let member = level_pair_bound(n, &src, &far);
            let src_cumulative = cumulative_levels::<{ LEVELS + 1 }>(&src);
            let row = cumulative_levels::<LEVELS>(&far);
            let block = block_pair_bound(n, &src_cumulative, &row);
            let ctx = format!("case {case}: {a:?} / {b:?}");
            if b.iter().all(|&d| usize::from(d) <= LEVELS) {
                assert_eq!(block, member, "{ctx}");
                equal += 1;
            } else {
                assert!(block.sum <= member.sum && block.max <= member.max, "{ctx}");
                capped += 1;
            }
        }
        assert!(equal > 100 && capped > 50, "{equal} equal, {capped} capped");
    }

    /// A connected random graph on `n` vertices with one extra hub: vertex
    /// `hub` gains edges to `extra` random vertices.
    fn graph_with_hub(
        n: usize,
        hub: NodeId,
        extra: usize,
        rng: &mut rand::rngs::StdRng,
    ) -> OwnedGraph {
        use rand::Rng;
        let mut g = generators::random_with_m_edges(n, rng.gen_range(n..2 * n), rng);
        while g.degree(hub) < extra {
            let v = rng.gen_range(0..n);
            if v != hub && !g.has_edge(hub, v) {
                g.add_edge(hub, v);
            }
        }
        g
    }

    #[test]
    fn block_bounds_never_exceed_member_bounds_across_blocks() {
        // n = 65, 130 and 200 span two to four blocks, the last one
        // partial. The pinned source sits in each block in turn, under an
        // empty and a one-removal prefix: every block bound is ≤ each
        // member's level bound ≤ the kernel ≤ BFS truth.
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xb10c2);
        let (mut members, mut informative) = (0usize, 0usize);
        for n in [65usize, 130, 200] {
            let g = graph_with_hub(n, rng.gen_range(0..n), 24, &mut rng);
            let mut oracle = PersistentOracle::new(n);
            let all: Vec<NodeId> = (0..n).collect();
            oracle.pin_sources(&g, &all);
            let blocks = n.div_ceil(ENVELOPE_BLOCK);
            for b in 0..blocks {
                let u = rng.gen_range(b * ENVELOPE_BLOCK..((b + 1) * ENVELOPE_BLOCK).min(n));
                oracle.begin(&g, u);
                let f = *g.neighbors(u).choose(&mut rng).expect("connected");
                for prefix in [vec![], vec![EdgeDelta::Remove { u, v: f }]] {
                    let mut bounds = Vec::new();
                    assert!(oracle.insert_block_bounds(&g, &prefix, u, &mut bounds));
                    assert_eq!(bounds.len(), blocks);
                    let mut h = g.clone();
                    if let [EdgeDelta::Remove { v, .. }] = prefix[..] {
                        assert!(h.remove_edge(u, v));
                    }
                    for v in (0..n).filter(|&v| v != u && !h.has_edge(u, v)) {
                        let ctx = format!("n {n}: src {u} v {v} prefix {prefix:?}");
                        let block = bounds[v / ENVELOPE_BLOCK];
                        let member = oracle
                            .insert_level_bound(&g, &prefix, u, v)
                            .expect("every row is current and connected");
                        assert!(block.sum <= member.sum && block.max <= member.max, "{ctx}");
                        let (kernel, _) = oracle
                            .evaluate_insert_via_cache(&g, &prefix, u, v)
                            .expect("the kernel serves every bounded candidate");
                        assert!(
                            member.sum <= kernel.sum && member.max <= kernel.max,
                            "{ctx}"
                        );
                        let mut deltas = prefix.clone();
                        deltas.push(EdgeDelta::Insert { u, v });
                        let (_, exact) = truth(&g, u, &deltas);
                        let unbounded = |d: DistanceSummary| {
                            (d.sum.unwrap_or(u64::MAX), d.max.unwrap_or(u32::MAX))
                        };
                        let (kernel, exact) = (unbounded(kernel), unbounded(exact));
                        assert!(kernel.0 <= exact.0 && kernel.1 <= exact.1, "{ctx}");
                        members += 1;
                    }
                    // Past level 1 a bound counts more than `n − 1`.
                    let trivial = Some(n as u64 - 1);
                    informative += bounds.iter().filter(|bb| bb.sum > trivial).count();
                }
            }
        }
        assert!(members > 1000, "only {members} members bounded");
        assert!(
            informative > 10,
            "only {informative} block bounds past level 1"
        );
    }

    #[test]
    fn block_rows_keep_the_source_pinned_when_they_were_built() {
        // The rows are built once per version, whoever is pinned. Built
        // while the hub `a` is pinned, they must still cover `a` as a
        // target once `b` is pinned: they equal a rebuild made with `b`
        // pinned, and the hub's own count at level 1 tops its block.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xb10c3);
        for n in [65usize, 130, 200] {
            let a = rng.gen_range(0..n);
            let g = graph_with_hub(n, a, 40, &mut rng);
            let mut oracle = PersistentOracle::new(n);
            let all: Vec<NodeId> = (0..n).collect();
            oracle.pin_sources(&g, &all);
            oracle.begin(&g, a);
            let mut bounds = Vec::new();
            assert!(oracle.insert_block_bounds(&g, &[], a, &mut bounds));
            let built = oracle.envelopes.rows.clone();
            let hub_block = a / ENVELOPE_BLOCK;
            assert_eq!(built[hub_block][1], 1 + g.degree(a) as u16, "n {n}");
            let b = (0..n)
                .find(|&b| b != a && !g.has_edge(a, b))
                .expect("a non-neighbour");
            oracle.begin(&g, b);
            assert!(oracle.insert_block_bounds(&g, &[], b, &mut bounds));
            assert_eq!(oracle.envelopes.rows, built, "n {n}: the rows are kept");
            let member = oracle
                .insert_level_bound(&g, &[], b, a)
                .expect("a's row is current");
            let block = bounds[hub_block];
            assert!(block.sum <= member.sum && block.max <= member.max, "n {n}");
            oracle.envelopes.built = None;
            assert!(oracle.envelopes_ready());
            assert_eq!(
                oracle.envelopes.rows, built,
                "n {n}: a rebuild with b pinned"
            );
        }
    }

    #[test]
    fn block_bounds_refuse_cold_slots_and_disconnected_graphs() {
        // The first `begin` fills every row, so the envelopes are made at
        // once.
        let g = generators::cycle(70);
        let mut oracle = PersistentOracle::new(70);
        oracle.begin(&g, 3);
        let mut bounds = Vec::new();
        assert!(oracle.insert_block_bounds(&g, &[], 3, &mut bounds));
        assert_eq!(bounds.len(), 2);
        assert_eq!(oracle.stats().bound_queries, 2, "one query per block");
        // Not the pinned source, or an insertion in the prefix.
        assert!(!oracle.insert_block_bounds(&g, &[], 4, &mut bounds));
        assert!(bounds.is_empty());
        let insert = [EdgeDelta::Insert { u: 3, v: 40 }];
        assert!(!oracle.insert_block_bounds(&g, &insert, 3, &mut bounds));
        // Two components: no vector reaches every vertex.
        let g = OwnedGraph::from_owned_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let mut oracle = PersistentOracle::new(6);
        oracle.pin_sources(&g, &[0, 1, 2, 3, 4, 5]);
        oracle.begin(&g, 0);
        assert!(!oracle.insert_block_bounds(&g, &[], 0, &mut bounds));
        assert_eq!(oracle.stats().bound_queries, 0);
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
                        .expect("the pinned source's removal is bounded");
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
                    oracle.row_bound(&g, f as u32);
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
                    let mut levels = [0u16; LEVELS];
                    let finite: Vec<u16> = expect
                        .iter()
                        .copied()
                        .filter(|&d| d != UNREACHABLE)
                        .collect();
                    for &d in &finite {
                        levels[usize::from(d).min(LEVELS - 1)] += 1;
                    }
                    assert_eq!(oracle.rows.levels_of(f as u32), Some(&levels));
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
        // Two components: every row misses the other one.
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
        // Every row is current after the first sync, but only the pinned
        // source is bounded, only on a removal-only prefix, and never
        // against itself: `{9, 9}` is not an edge.
        let g = generators::cycle(16);
        let mut oracle = PersistentOracle::new(16);
        oracle.begin(&g, 0);
        oracle.begin(&g, 9);
        assert_eq!(oracle.insert_level_bound(&g, &[], 0, 5), None);
        assert_eq!(oracle.insert_level_bound(&g, &[], 9, 9), None);
        assert_eq!(oracle.evaluate_insert_via_cache(&g, &[], 9, 9), None);
        let insert = [EdgeDelta::Insert { u: 9, v: 3 }];
        assert_eq!(oracle.insert_level_bound(&g, &insert, 9, 5), None);
        let dense = oracle
            .insert_level_bound(&g, &[], 9, 5)
            .expect("a connected row is served");
        let (_, exact) = truth(&g, 9, &[EdgeDelta::Insert { u: 9, v: 5 }]);
        assert!(dense.sum <= exact.sum && dense.max <= exact.max);
        assert_eq!(
            oracle.stats().bound_queries,
            1,
            "only answered bounds count"
        );
        assert_eq!(oracle.stats().kernel_calls, 0, "a bound runs no kernel");
        // A removal of 9's edge to 8 is bounded from the rows of its other
        // neighbour, and so is a swap's prefix: one `c_8` serves both.
        let drop_8 = [EdgeDelta::Remove { u: 9, v: 8 }];
        let removal = oracle.removal_bound(&g, 9, 8).expect("served from rows");
        let (_, exact) = truth(&g, 9, &drop_8);
        assert!(removal.sum <= exact.sum && removal.max <= exact.max);
        let swap = oracle
            .insert_level_bound(&g, &drop_8, 9, 0)
            .expect("c_8 pairs with 0's row");
        let (_, exact) = truth(&g, 9, &[drop_8[0], EdgeDelta::Insert { u: 9, v: 0 }]);
        assert!(swap.sum <= exact.sum && swap.max <= exact.max);
        assert_eq!(oracle.stats().row_bounds, 1);
    }

    #[test]
    fn rows_past_the_last_level_bucket_keep_exact_maxima() {
        // On a path of 80 vertices most rows put vertices in the last level
        // bucket, which counts every level from 31 on. Their summaries must
        // still be BFS-exact, the max included, read by `begin`,
        // `cached_summary` and a what-if alike, and so must every row the
        // sync replays after a chord halves the diameter.
        let mut g = generators::path(80);
        let mut oracle = PersistentOracle::new(80);
        let mut buf = BfsBuffer::new(80);
        let base = oracle.begin(&g, 0);
        assert_eq!(base, buf.summary(&g, 0));
        assert_eq!(base.max, Some(79));
        for src in 0..80 {
            assert_eq!(
                oracle.cached_summary(&g, src),
                buf.summary(&g, src),
                "src {src}"
            );
        }
        let chord = [EdgeDelta::Insert { u: 0, v: 40 }];
        let (_, expect) = truth(&g, 0, &chord);
        assert_eq!(oracle.evaluate(&chord), expect);
        g.add_edge(0, 79);
        assert_eq!(oracle.cached_summary(&g, 0).max, Some(40));
        for src in 0..80 {
            assert_eq!(
                oracle.cached_summary(&g, src),
                buf.summary(&g, src),
                "src {src}"
            );
            assert_eq!(oracle.cache.dist.row(src), buf.run(&g, src), "src {src}");
        }
        // The chord's mover 0 is refilled. Its neighbours 1 and 79 are
        // replayed, and so are the 74 rows whose distance to one of them
        // changed. Of rows 39, 40 and 41, only row 41 changes, at
        // d(41, 0) = 41 → 39, and is patched.
        let stats = oracle.stats();
        assert_eq!(stats.replayed_begins, 76, "the chord was replayed");
        assert_eq!(stats.column_patches, 1, "row 41 was patched");
        assert_eq!(stats.batched_repins, 81, "the first fill and row 0");
        assert_eq!(oracle.begin(&g, 39), buf.summary(&g, 39));
        let (_, expect) = truth(&g, 39, &chord);
        assert_eq!(oracle.evaluate(&chord), expect);
    }

    #[test]
    fn fused_kernel_is_exact_across_the_u16_boundary() {
        // A path on `MAX_NODES` vertices puts its far end at exactly
        // `UNREACHABLE - 1` from the near end. Scoring the chord between the
        // ends from their vectors drives the kernel's saturating `far + 1`
        // to exactly `UNREACHABLE` at the near end, where the source side
        // (distance 0) must still win: the chord's summary is exact.
        let n = MAX_NODES;
        let g = generators::path(n);
        let mut buf = BfsBuffer::new(n);
        let near = buf.run(&g, 0)[..n].to_vec();
        let far = buf.run(&g, n - 1)[..n].to_vec();
        assert_eq!(far[0], UNREACHABLE - 1);
        let (_, exact) = truth(&g, 0, &[EdgeDelta::Insert { u: 0, v: n - 1 }]);
        assert_eq!(fused_insert_summary(&near, &far), exact);
        // A vertex neither end reaches stays unreachable through the
        // saturating arithmetic.
        let mut g = OwnedGraph::new(n);
        for i in 0..n - 2 {
            g.add_edge(i, i + 1);
        }
        let near = buf.run(&g, 0)[..n].to_vec();
        let far = buf.run(&g, n - 2)[..n].to_vec();
        assert_eq!(
            fused_insert_summary(&near, &far),
            DistanceSummary::DISCONNECTED
        );
    }
}
