//! The persistent single-source distance oracle behind candidate-move
//! scoring.
//!
//! The hot operation of best-response dynamics is: *given the current network
//! `G` and an agent `u`, what is `u`'s distance summary in `G ± a few edges`?*
//! The full-BFS reference ([`OracleKind::FullBfs`]) answers it the plain way:
//! apply the move to a scratch copy of the graph, run a BFS, undo the move
//! (`ncg_core::game`). It keeps no oracle. [`PersistentOracle`] answers it
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
//! parked rows of the source's other neighbours, so the repair runs only for
//! the candidates the bounds cannot prune. A run of insertions with one
//! prefix is bounded [`ENVELOPE_BLOCK`] targets at a time from block
//! envelopes of the parked level histograms
//! ([`PersistentOracle::insert_block_bounds`]), so most targets are never
//! bounded on their own. Correctness of the repairs against from-scratch BFS
//! is enforced by the randomized equivalence tests in the facade crate.
//!
//! Distance vectors are carried **across** `begin` calls in a per-source
//! cache that holds every source's vector, with one sync point: the first
//! call that arrives with a [`GraphVersion`] the oracle has not seen brings
//! the CSR snapshot and all `n` vectors to it in one pass, replaying the
//! journal window between the two versions through the same repair
//! machinery. The first sync, and one whose window the journal no longer
//! holds or that is longer than `max(8, n/8)` changes, refills every vector
//! in 64-wide bitset waves instead. Every other method reads only current
//! vectors.

use crate::batch::{BatchSummary, MultiSourceBfs, BATCH_WIDTH};
use crate::csr::{CsrAdjacency, PatchOutcome};
use crate::distances::{BfsBuffer, DistanceSummary, MAX_NODES, UNREACHABLE};
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
    /// undone (`ncg_core::game`), consent included. It builds no oracle, so
    /// its [`OracleStats`] are all zero.
    FullBfs,
    /// Journaled truncated-BFS repair per candidate evaluation, with distance
    /// vectors carried **across** `begin` calls: every source's vector is
    /// cached, and when the graph's [`GraphVersion`] moves, the applied
    /// [`EdgeChange`]s from the graph's change journal are replayed into
    /// every cached vector instead of re-running a full BFS per source
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
/// full-BFS reference keeps no oracle and counts nothing.
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
    /// Parked distance vectors advanced to a new graph version by replaying
    /// the graph's change journal at the oracle's sync point, instead of a
    /// full BFS each: `n` per move under the max-cost policy, which reads
    /// every agent's cost each step.
    pub replayed_begins: u64,
    /// CSR snapshot syncs served by in-place journal patching — `O(changes)`
    /// instead of the `O(n + m)` rebuild.
    pub csr_patches: u64,
    /// CSR snapshot syncs that had to rebuild (or regrow) the flat buffers:
    /// the first sync, version jumps, dense journals and exhausted segment
    /// slack.
    pub csr_rebuilds: u64,
    /// Always 0: the persistent oracle advances parked vectors only at its
    /// sync point, all of them at once (counted in `replayed_begins`), never
    /// one vector when a query reads it. The field remains so that code
    /// reading it, such as the `perfbench` harness, keeps compiling.
    pub lazy_replays: u64,
    /// Vectors filled by the word-parallel bulk waves (up to [`BATCH_WIDTH`]
    /// sources per shared bitset BFS) instead of one scalar traversal each:
    /// all `n` at the first sync, and all `n`
    /// again at every sync whose journal window cannot be replayed (past
    /// the replay limit, a foreign lineage, a new graph size).
    pub batched_repins: u64,
    /// High-water mark of the per-source cache, in bytes: `n` vectors of
    /// `2·(2n + 2)` bytes each (a `u16` distance vector plus `n + 2` `u16`
    /// level counters) from the first sync on. Two caches live at once (the
    /// scoring layer's consent oracle beside the mover's) add.
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
    /// from the parked rows of `u`'s other neighbours instead of repaired:
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
/// scratch graph and builds none, so `kind` must be
/// [`OracleKind::Persistent`].
pub fn make_oracle(kind: OracleKind, n: usize) -> PersistentOracle {
    assert_eq!(
        kind,
        OracleKind::Persistent,
        "the full-BFS reference keeps no oracle"
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

/// A distance vector with its SUM / MAX aggregates and per-level counters:
/// the working vector of the persistent oracle, and one cached slot per
/// source. The level counters travel with the vector, so activating a
/// source is one `O(1)` swap rather than an `O(n)` rebuild.
#[derive(Debug, Clone, Default)]
struct DistVector {
    dist: Vec<u16>,
    /// Sum of all finite distances.
    sum: u64,
    /// Number of vertices with finite distance (including the source).
    reached: usize,
    /// `level_counts[d]` = number of vertices at distance `d`.
    level_counts: Vec<u16>,
    /// Upper bound on the current maximum finite distance.
    max_hint: u16,
}

impl DistVector {
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

/// The working [`DistVector`] with an undo journal.
#[derive(Debug, Clone, Default)]
struct DistState {
    vec: DistVector,
    /// `(vertex, previous distance)` pairs for rollback.
    journal: Vec<(u32, u16)>,
    /// When `true`, assignments are applied *permanently*: the undo journal is
    /// bypassed even when the caller requests journaling. Used while replaying
    /// applied graph changes.
    replaying: bool,
}

impl DistState {
    #[inline]
    fn get(&self, x: u32) -> u16 {
        self.vec.dist[x as usize]
    }

    /// Sets `dist[x] = new`, keeping the aggregates in sync; `journal = true`
    /// records the old value for rollback (unless a replay is in progress, in
    /// which case the assignment is permanent).
    #[inline]
    fn assign(&mut self, x: u32, new: u16, journal: bool) {
        let v = &mut self.vec;
        let old = v.dist[x as usize];
        if journal && !self.replaying {
            self.journal.push((x, old));
        }
        if old != UNREACHABLE {
            v.sum -= u64::from(old);
            v.level_counts[old as usize] -= 1;
            v.reached -= 1;
        }
        if new != UNREACHABLE {
            v.sum += u64::from(new);
            v.level_counts[new as usize] += 1;
            v.reached += 1;
            v.max_hint = v.max_hint.max(new);
        }
        v.dist[x as usize] = new;
    }

    /// Reverts journaled assignments down to `journal_len` entries;
    /// `max_hint` restores the max bound recorded at that point.
    fn rollback_to(&mut self, journal_len: usize, max_hint: u16) {
        while self.journal.len() > journal_len {
            let (x, old) = self.journal.pop().expect("journal length checked");
            self.assign(x, old, false);
        }
        self.vec.max_hint = max_hint;
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
/// [`PersistentOracle::removal_bound`]). Built once per pin from the parked
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
    level_counts: Vec<u16>,
    sum: u64,
    reached: usize,
    max: u16,
    /// The level counts of every `c_f` filled since the minima were built,
    /// up to its largest finite level, back to back; `cf_ends` holds each
    /// `f` with the end of its counts, which start where the previous
    /// ones end. A per-target level bound reads them, so bounding a Swap
    /// never refills `dist`, which the kernel reads for its own `f`.
    cf_levels: Vec<u16>,
    cf_ends: Vec<(u32, usize)>,
}

impl RowBound {
    /// The recorded level counts of `c_f`, if it was filled since the
    /// minima were built.
    fn levels_of(&self, f: u32) -> Option<&[u16]> {
        let mut start = 0;
        for &(dropped, end) in &self.cf_ends {
            if dropped == f {
                return Some(&self.cf_levels[start..end]);
            }
            start = end;
        }
        None
    }

    /// Records the level counts of the `c_f` just filled, once per `f`.
    fn record_levels(&mut self) {
        let f = self.dropped.expect("a filled c_f");
        if self.levels_of(f).is_none() {
            let top = usize::from(self.max);
            self.cf_levels.extend_from_slice(&self.level_counts[..=top]);
            self.cf_ends.push((f, self.cf_levels.len()));
        }
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

/// Vertex ids per block of [`PersistentOracle::insert_block_bounds`]: one
/// envelope row, and one bound per scan run, covers this many consecutive
/// targets.
pub const ENVELOPE_BLOCK: usize = 64;

/// Levels an envelope row holds (one cache line of `u16` counts). Past the
/// last one a row reads as `n`, which keeps the bound valid at any diameter.
const ENVELOPE_LEVELS: usize = 32;

/// The block envelope rows of the synced version (see
/// [`PersistentOracle::insert_block_bounds`]).
#[derive(Debug, Clone, Default)]
struct BlockEnvelopes {
    /// `Some(true)`: `rows` are built; `Some(false)`: a vector was
    /// disconnected, so this version has none; `None`: not built since the
    /// last sync.
    built: Option<bool>,
    /// Per block, the largest cumulative level count of its members at
    /// each level below [`ENVELOPE_LEVELS`].
    rows: Vec<[u16; ENVELOPE_LEVELS]>,
}

/// Where the source side of a removal-only prefix's level counts are.
#[derive(Debug, Clone, Copy)]
enum SourceLevels {
    /// The pinned base vector's snapshot (`base_levels`): an empty prefix.
    Base,
    /// The recorded counts of `c_f`: a one-removal prefix at the source.
    Row(u32),
    /// The seated delta stack's: any other removal-only prefix.
    Seated,
}

/// The persistent oracle ([`OracleKind::Persistent`]): journaled truncated-BFS
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
/// `begin` carries every source's distance vector **across** calls in a
/// per-source cache with one sync point: the first call at a graph version
/// the oracle has not seen replays the edge changes recorded in the graph's
/// journal into every parked vector through the same repair machinery, so
/// no parked vector is ever stale. The first sync, and one whose window the
/// journal cannot serve (a foreign lineage, a discarded window, a new graph
/// size) or that is too long to replay profitably, refills every vector in
/// 64-wide bitset waves instead, so the oracle is exact in all cases.
///
/// The cache holds every source's vector from the first query on:
/// `n·(2n + 2)·2` bytes (distances plus level counters), 268 MB at
/// `n = 8192`. A caller that wants one source of a huge graph runs a
/// [`BfsBuffer`] instead. The block envelopes add 64 bytes per
/// [`ENVELOPE_BLOCK`] vertices.
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
    /// One vector per source, current at the synced version except the
    /// pinned source's, whose vector is the working state.
    cache: Vec<DistVector>,
    /// Version the CSR snapshot, every parked vector and the working vector
    /// reflect; `None` until the first sync.
    synced: Option<GraphVersion>,
    /// Whether the working [`DistState`] holds `src`'s vector.
    pinned: bool,
    /// Shared bitset-frontier workspace of the bulk waves.
    wave: MultiSourceBfs,
    /// Neighbour-row bound of the pinned source's one-removal prefixes.
    rows: RowBound,
    /// The pinned base vector's level counts up to its largest level,
    /// copied by `begin`, so bounding a Buy never rolls back the delta
    /// stack.
    base_levels: Vec<u16>,
    /// Block envelopes of every vector's level counts at the synced
    /// version.
    envelopes: BlockEnvelopes,
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
            synced: None,
            pinned: false,
            wave: MultiSourceBfs::new(),
            rows: RowBound::default(),
            base_levels: Vec::new(),
            envelopes: BlockEnvelopes::default(),
        };
        oracle.resize_scratch(n);
        oracle.cache.resize_with(n, DistVector::default);
        oracle
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
            max_hint: self.state.vec.max_hint,
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
    /// source's vector to the current version of `g`, so every other method
    /// reads only current vectors. Within one dynamics step the graph is
    /// immutable, so the `n` per-agent reads of a scan share a single sync.
    ///
    /// A graph of a new size resets the cache. When the version moved, the
    /// working vector is rolled back to its base and parked, so nothing
    /// stays pinned across a move. The journal's exact edge deltas are then
    /// patched into the CSR's flat buffers in place — `O(changes)` instead
    /// of the `O(n + m)` rebuild, with the patcher's own rebuild fallback
    /// for dense journals and exhausted segment slack — and the same window
    /// is replayed into every vector. The first sync, and a window the
    /// journal cannot serve (a foreign lineage or a discarded window) or
    /// one longer than the replay limit, rebuild the CSR and refill every
    /// vector in bitset waves instead.
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
            self.cache.resize_with(n, DistVector::default);
            self.pinned = false;
            self.synced = None;
        }
        self.rollback_to_prefix(0);
        self.save_working();
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
            Some(changes) => {
                for src in 0..n {
                    self.load_cached(src);
                    self.replay_changes(changes);
                    self.save_working();
                    self.stats.replayed_begins += 1;
                }
            }
            None => self.batch_repin(),
        }
        self.synced = Some(cur);
    }

    /// Parks the working distance vector of the pinned source, if any, in
    /// its slot of the per-source cache. The working vector must already be
    /// rolled back to the base (no active candidate deltas).
    fn save_working(&mut self) {
        if std::mem::take(&mut self.pinned) {
            std::mem::swap(&mut self.cache[self.src as usize], &mut self.state.vec);
        }
    }

    /// Recomputes every source's vector from scratch over the synced CSR
    /// snapshot, in word-parallel waves of up to [`BATCH_WIDTH`] sources:
    /// one shared bitset wave per 64 sources instead of one scalar BFS per
    /// source. No source may be pinned.
    fn batch_repin(&mut self) {
        let _sp = trace::span(trace::Phase::BatchWave);
        debug_assert!(!self.pinned, "refilling under a pinned vector");
        let n = self.cache.len();
        for (c, slots) in self.cache.chunks_mut(BATCH_WIDTH).enumerate() {
            let sources: Vec<NodeId> = (c * BATCH_WIDTH..).take(slots.len()).collect();
            let mut summaries = vec![BatchSummary::default(); slots.len()];
            let (mut rows, mut counts): (Vec<&mut [u16]>, Vec<&mut [u16]>) = slots
                .iter_mut()
                .map(|slot| {
                    MultiSourceBfs::prepare_row(&mut slot.dist, &mut slot.level_counts, n);
                    (slot.dist.as_mut_slice(), slot.level_counts.as_mut_slice())
                })
                .unzip();
            let expanded =
                self.wave
                    .run(&self.csr, &sources, &mut rows, &mut counts, &mut summaries);
            self.stats.nodes_expanded += expanded;
            self.stats.batched_repins += slots.len() as u64;
            for (slot, summary) in slots.iter_mut().zip(summaries) {
                slot.sum = summary.sum;
                slot.reached = summary.reached;
                slot.max_hint = summary.max_hint;
            }
        }
        let bytes = n as u64 * 2 * (2 * n as u64 + 2);
        self.stats.peak_parked_bytes = self.stats.peak_parked_bytes.max(bytes);
    }

    /// Pins `src` by activating its parked vector as the working state — one
    /// swap, no per-vertex work at all.
    fn load_cached(&mut self, src: usize) {
        debug_assert_eq!(
            self.cache[src].dist.len(),
            self.cache.len(),
            "cached vectors track the graph size"
        );
        std::mem::swap(&mut self.cache[src], &mut self.state.vec);
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

    /// Shared check of the cache-arithmetic insertion queries: `u` is the
    /// pinned source, `g` the pinned graph and `prefix` removal-only. A
    /// `target` must be another vertex: the pinned source's own slot holds
    /// no current vector.
    fn prefix_servable(
        &self,
        g: &OwnedGraph,
        prefix: &[EdgeDelta],
        u: NodeId,
        target: Option<NodeId>,
    ) -> bool {
        self.pinned_at(g)
            && u as u32 == self.src
            && target.is_none_or(|v| v != u && v < self.cache.len())
            && !prefix.iter().any(|d| matches!(d, EdgeDelta::Insert { .. }))
    }

    /// Makes the source-side level counts of the removal-only `prefix`
    /// readable without touching the delta stack where it can: the base
    /// snapshot for an empty prefix, and `c_f`'s recorded counts for a
    /// one-removal prefix at the pinned source (filling `c_f` only if this
    /// pin has not yet). Any other prefix is seated.
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
    fn levels(&self, side: SourceLevels) -> &[u16] {
        match side {
            SourceLevels::Base => &self.base_levels,
            SourceLevels::Row(f) => self.rows.levels_of(f).expect("recorded when filled"),
            SourceLevels::Seated => &self.state.vec.level_counts,
        }
    }

    /// Debug cross-check of a per-target level bound against the kernel
    /// on the same source side, kept out of the counters so that debug and
    /// release builds count the same work. The source distances are
    /// rebuilt independently: the base vector unwound from the delta
    /// stack's journal, or a fresh fill of `c_f`; their level counts must
    /// equal the ones the bound read.
    fn check_level_bound(&self, side: SourceLevels, v: NodeId, bound: DistanceSummary) {
        let n = self.csr.num_nodes();
        let src_dist = match side {
            SourceLevels::Base => {
                let mut dist = self.state.vec.dist.clone();
                for &(x, old) in self.state.journal.iter().rev() {
                    dist[x as usize] = old;
                }
                dist
            }
            SourceLevels::Row(f) => {
                let mut fresh = self.rows.clone();
                fresh.fill(self.src, f, self.csr.neighbors(f as usize));
                fresh.dist
            }
            SourceLevels::Seated => self.state.vec.dist.clone(),
        };
        let mut levels = vec![0u16; n + 2];
        for &d in src_dist[..n].iter().filter(|&&d| d != UNREACHABLE) {
            levels[usize::from(d)] += 1;
        }
        let read = self.levels(side);
        assert!(
            levels[..read.len()] == *read && levels[read.len()..].iter().all(|&c| c == 0),
            "source levels {read:?} are not those of the source vector ({side:?})"
        );
        let kernel = fused_insert_summary(&src_dist[..n], &self.cache[v].dist[..n]);
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

    /// One envelope row per block of [`ENVELOPE_BLOCK`] vertex ids, from
    /// the pinned base vector and every parked slot: `false` at the first
    /// vector that misses a vertex. The pinned vector is part of its block,
    /// so the rows stay valid for it as a target once another source is
    /// pinned at the same version.
    fn build_envelopes(&mut self) -> bool {
        debug_assert!(self.pinned, "the rows are built for a pinned source");
        let n = self.cache.len();
        let pinned = self.src as usize;
        let base_reached: usize = self.base_levels.iter().map(|&c| usize::from(c)).sum();
        let all = u16::try_from(n).expect("n ≤ MAX_NODES fits a u16 count");
        self.envelopes.rows.clear();
        for (b, block) in self.cache.chunks(ENVELOPE_BLOCK).enumerate() {
            let mut row = [0u16; ENVELOPE_LEVELS];
            // A member's count is `n` from its last level `top` on, so the
            // row is `n` from the smallest `top` on, and no member needs
            // counting past it.
            let mut tail = ENVELOPE_LEVELS;
            for (i, slot) in block.iter().enumerate() {
                let (levels, reached) = if b * ENVELOPE_BLOCK + i == pinned {
                    (&self.base_levels[..], base_reached)
                } else {
                    let top = usize::from(slot.max_hint);
                    (&slot.level_counts[..=top], slot.reached)
                };
                if reached < n {
                    return false;
                }
                let mut count = 0u16;
                for (e, &l) in row[..tail].iter_mut().zip(levels) {
                    count += l;
                    *e = (*e).max(count);
                }
                tail = tail.min(levels.len() - 1);
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
    /// must be the pinned graph.
    fn row_bound(&mut self, g: &OwnedGraph, f: u32) {
        debug_assert!(self.pinned_at(g), "row bounds read the pinned graph");
        let src = self.src;
        if self.rows.pin != Some(src) {
            self.rows.dropped = None;
            self.rows.cf_levels.clear();
            self.rows.cf_ends.clear();
            self.build_row_minima();
            self.rows.pin = Some(src);
        } else if self.rows.dropped == Some(f) {
            return;
        }
        let _sp = trace::span(trace::Phase::DeltaRepair);
        self.rows.fill(src, f, self.csr.neighbors(f as usize));
        self.rows.record_levels();
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

    /// Builds the row minima of the pinned source from the parked rows of
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
            rows.add_row(w as u16, &self.cache[w as usize].dist[..n]);
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
    // histogram is padded past its last level (`n + 2` entries in the
    // oracle), so the zipped steps never run out first; the source one may
    // stop at its last level (the recorded `c_f` and base counts do) and
    // reads as 0 past it.
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
/// largest `C_v(j)`, read as `n` for `j ≥ ENVELOPE_LEVELS`. Term `k` is
/// `n − S(k − 1) − row[k − 2]` (no row term at `k = 1`). Both counts only
/// grow with `k`, so the terms only shrink, and the row's `n` ends them by
/// `k = ENVELOPE_LEVELS + 2`. A row of one member whose levels all lie
/// below the cap gives exactly that member's bound.
fn block_pair_bound(
    n: usize,
    src_cumulative: &[u16; ENVELOPE_LEVELS + 1],
    row: &[u16; ENVELOPE_LEVELS],
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
        self.rollback_to_prefix(0);
        if !(self.pinned && self.src == src as u32) {
            self.save_working();
            self.load_cached(src);
        }
        let summary = self.state.vec.summary(self.cache.len());
        // `max_hint` bounds the largest finite level, so no count is cut.
        let top = usize::from(self.state.vec.max_hint);
        self.base_levels.clear();
        self.base_levels
            .extend_from_slice(&self.state.vec.level_counts[..=top]);
        summary
    }

    /// The source's distance summary served *without pinning*: from its
    /// parked vector (or from the working vector when `src` is pinned
    /// there), after the sync brought the cache to the current version of
    /// `g`.
    pub fn cached_summary(&mut self, g: &OwnedGraph, src: NodeId) -> DistanceSummary {
        self.sync(g);
        let n = self.cache.len();
        if self.pinned && self.src == src as u32 {
            self.rollback_to_prefix(0);
            return self.state.vec.summary(n);
        }
        self.cache[src].summary(n)
    }

    /// Brings the per-source cache to the current version of `g` (the first
    /// call fills it in shared bitset waves). The oracle keeps every
    /// source's vector, so every vertex is warm afterwards, not only those
    /// of `sources`.
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
        self.state.vec.summary(self.csr.num_nodes())
    }

    /// Multi-source what-if query: re-pins `(g, src)` and scores `deltas`
    /// against it, returning the source's `(base, modified)` summaries.
    ///
    /// This is the primitive behind consent checks: "what does agent `src`
    /// pay *after* candidate move `deltas`?" answered without materialising
    /// the post-move graph. The re-pin is served from the per-source cache,
    /// which the sync keeps current by replaying the graph's change journal,
    /// so the whole query costs `O(changes + affected region)`.
    pub fn evaluate_for_source(
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
    ///   must re-score the rest exactly. For a one-removal prefix the pinned
    ///   side is read from the neighbour-row bound `c_f`
    ///   ([`PersistentOracle::removal_bound`]) instead of repaired, which
    ///   keeps it a lower bound. A disconnected answer is exact either way:
    ///   the unreached vertex is unreachable from both `u` and `v`.
    ///
    /// `g` must be the pinned graph, unchanged since the last `begin`, whose
    /// sync brought every parked vector to its version.
    ///
    /// `None` whenever the oracle cannot serve the query (`u` not the pinned
    /// source; `v == u`; `g` not the pinned graph; `prefix` containing
    /// insertions, which would flip the bound's direction).
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
            &self.state.vec.dist
        };
        let summary = fused_insert_summary(&src[..n], &self.cache[v].dist[..n]);
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
    /// repaired) with `v`'s parked per-level counts in opposite order. With
    /// `U(k) = #{x : d_u(x) ≥ k}` and `W(k) = #{x : d_v(x) ≥ k − 1}`, that is
    /// `SUM = Σ_{k≥1} max(0, U(k) + W(k) − n)` and `MAX` = the largest `k`
    /// with a positive term. The pairing minimises SUM and MAX of
    /// `min(a, 1 + b)` over all pairings, so both fields are `≤` the
    /// kernel's, and hence `≤` the exact post-move summary. Lowering
    /// source distances (`c_f` in place of the repaired vector) can only
    /// lower `min(a, 1 + b)`, so that stays true.
    ///
    /// `None` whenever the oracle cannot serve the query: every case where
    /// the kernel returns `None`, plus a disconnected parked vector of `v`.
    /// Callers then take the kernel path.
    pub fn insert_level_bound(
        &mut self,
        g: &OwnedGraph,
        prefix: &[EdgeDelta],
        u: NodeId,
        v: NodeId,
    ) -> Option<DistanceSummary> {
        let n = self.csr.num_nodes();
        if !self.prefix_servable(g, prefix, u, Some(v)) || self.cache[v].reached < n {
            return None;
        }
        let side = self.source_levels(g, prefix);
        let bound = level_pair_bound(n, self.levels(side), &self.cache[v].level_counts);
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
    /// Each block's *envelope* row holds, for `j < 32`, the largest
    /// cumulative level count `C_v(j) = #{x : d(v, x) ≤ j}` over the block's
    /// members, and reads as `n` past level 31. The bound pairs it with the
    /// same source-side histogram the per-target bound uses (`c_f` for a
    /// one-removal prefix): that pairing's term `k` is
    /// `max(0, n − S(k − 1) − C_v(k − 2))`, with `S` the source's cumulative
    /// counts, so a larger `C_v` can only lower the bound. The rows are
    /// built once per synced graph version from the pinned base vector and
    /// every parked slot.
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
        let src_cumulative = cumulative_levels::<{ ENVELOPE_LEVELS + 1 }>(self.levels(side));
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
                    let member = level_pair_bound(n, src_levels, &self.cache[v].level_counts);
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
    /// [`PersistentOracle::insert_level_bound`] and
    /// [`PersistentOracle::evaluate_insert_via_cache`] use the same `c_f` in
    /// place of the repaired vector for a one-removal prefix. The first
    /// such query of a pin records, per vertex, the smallest and
    /// second-smallest neighbour distance and the neighbour giving the
    /// smallest (`O(deg(u)·n)`); each `c_f` is then one `O(n)` pass.
    ///
    /// `None` whenever the oracle cannot serve the bound: `u` not the pinned
    /// source, or `g` not the pinned graph. `f` must be a neighbour of `u`.
    pub fn removal_bound(
        &mut self,
        g: &OwnedGraph,
        u: NodeId,
        f: NodeId,
    ) -> Option<DistanceSummary> {
        if !self.pinned_at(g) || u as u32 != self.src || f >= self.cache.len() {
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
        out.extend_from_slice(&self.state.vec.dist);
        self.state.vec.summary(self.csr.num_nodes())
    }

    /// The base distance vector pinned by the last
    /// [`PersistentOracle::begin`].
    pub fn base_distances(&mut self) -> &[u16] {
        self.rollback_to_prefix(0);
        &self.state.vec.dist
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
        // Mutate the graph a little and re-pin the same source: every
        // distance vector must be repaired by journal replay, not recomputed.
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
        assert_eq!(stats.batched_repins, 16, "only the first sync fills");
        assert_eq!(stats.replayed_begins, 12 * 16, "each sync replays all 16");
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
        let stats = oracle.stats();
        assert_eq!(stats.batched_repins, 20, "only the first sync fills");
        assert_eq!(stats.replayed_begins, 6 * 20, "each sync replays all 20");
    }

    #[test]
    fn persistent_falls_back_on_stale_or_foreign_histories() {
        // The sync's replay path and its three refill paths: a window past
        // the replay limit (a replay would be slower than a fresh wave), a
        // clone (a fresh lineage whose journal can never serve a version
        // taken on the original), and a graph of another size. A replay
        // advances all n vectors; a refill recomputes all n in the waves,
        // the pinned one included. Either way every summary is then current,
        // and no path runs a scalar BFS.
        fn assert_current(
            oracle: &mut PersistentOracle,
            g: &OwnedGraph,
            path: &str,
            replayed: u64,
            refilled: u64,
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
            assert_eq!(
                after.replayed_begins - before.replayed_begins,
                replayed,
                "{path}"
            );
            assert_eq!(
                after.batched_repins - before.batched_repins,
                refilled,
                "{path}"
            );
        }
        let mut g = generators::path(32);
        let mut oracle = PersistentOracle::new(32);
        assert_current(&mut oracle, &g, "first sync", 0, 32);
        g.add_edge(0, 31);
        assert_current(&mut oracle, &g, "replayed window", 32, 0);
        for i in 0..16 {
            g.add_edge(i, i + 16);
        }
        assert!(16 > oracle.stale_limit());
        assert_current(&mut oracle, &g, "window past the limit", 0, 32);
        let mut clone = g.clone();
        clone.swap_edge(0, 1, 20);
        assert_current(&mut oracle, &clone, "foreign lineage", 0, 32);
        assert_current(&mut oracle, &generators::cycle(20), "size change", 0, 20);
        assert_eq!(oracle.stats().peak_parked_bytes, 32 * 2 * (2 * 32 + 2));
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
        assert_eq!(
            oracle.stats().replayed_begins,
            11,
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
                buf.summary(&g, src),
                "src {src}"
            );
        }
        let after = oracle.stats();
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
                buf.summary(&g, src),
                "moved: src {src}"
            );
        }
        let moved = oracle.stats();
        assert_eq!(moved.replayed_begins, after.replayed_begins + 14);
        assert_eq!(moved.batched_repins, after.batched_repins);
    }

    #[test]
    fn batched_warm_recomputes_unreplayable_slots() {
        // A journal window past the replay limit refills every slot, the
        // pinned one included, in shared bitset waves, landing each current
        // with exact contents.
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
        assert!(!oracle.pinned, "the pinned vector was parked and refilled");
        let stats = oracle.stats();
        assert_eq!(
            stats.batched_repins, 24,
            "every slot once more, in one wave"
        );
        assert_eq!(stats.replayed_begins, 0);
        assert_eq!(stats.peak_parked_bytes, 12 * 2 * (2 * 12 + 2));
        let mut buf = BfsBuffer::new(12);
        for src in 0..12 {
            let expect = buf.run(&g, src).to_vec();
            assert_eq!(&oracle.cache[src].dist[..12], &expect[..], "src {src}");
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
            assert_eq!(&batched.cache[src].dist[..], dist, "src {src}");
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
        assert_eq!(
            oracle.stats().replayed_begins,
            10,
            "one sync replays all 10"
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
            let src_cumulative = cumulative_levels::<{ ENVELOPE_LEVELS + 1 }>(&src);
            let row = cumulative_levels::<ENVELOPE_LEVELS>(&far);
            let block = block_pair_bound(n, &src_cumulative, &row);
            let ctx = format!("case {case}: {a:?} / {b:?}");
            if b.iter().all(|&d| usize::from(d) <= ENVELOPE_LEVELS) {
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
                            .expect("every slot is parked and connected");
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
                .expect("a is parked");
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
        // The first `begin` fills every slot, so the rows are made at once.
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
        // Every slot is current after the first sync, but only the pinned
        // source is bounded, only on a removal-only prefix, and never
        // against its own slot.
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
            .expect("a connected slot is served");
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
