//! Delta-based candidate scoring on top of the persistent distance oracle.
//!
//! [`CostEvaluator`] is the bridge between the game layer and
//! [`ncg_graph::oracle`]: it pins the moving agent's base distance vector once
//! per best-response scan and then scores every candidate move as an ordered
//! [`EdgeDelta`] sequence — no graph mutation, no full BFS per candidate. The
//! edge-cost component of the agent's cost is reconstructed arithmetically
//! from the move kind, so a candidate evaluation never needs the mutated
//! graph at all.
//!
//! Single-edge moves ([`Move::Swap`], [`Move::Buy`], [`Move::Delete`]) map to
//! one or two deltas. Whole-strategy moves ([`Move::SetOwned`],
//! [`Move::SetNeighbors`]) map to their full remove/insert sequence, emitted
//! in **descending vertex order**: the Buy-Game enumeration walks strategy
//! subsets in Gray-code order (consecutive masks toggle one low pool element),
//! so consecutive candidates share a long delta-sequence prefix and the
//! persistent oracle's delta-stack prefix reuse pays the shared repairs only
//! once across the exponential enumeration.
//!
//! Consent games are scored here too: the same oracle answers what each
//! consent party pays after the candidate
//! ([`CostEvaluator::score_counterpart`]), from a copy of the party's row
//! that leaves the mover's pin as it was. Only the full-BFS reference
//! ([`OracleKind::FullBfs`](ncg_graph::oracle::OracleKind::FullBfs)) applies
//! every candidate to a scratch graph, measures it by BFS and undoes it
//! ([`crate::game`]); it never queries an evaluator, whose oracle then
//! never syncs.
//!
//! Observability: the oracle layer beneath emits the `oracle-begin`,
//! `fused-kernel`, `delta-repair` and `pin-sources` trace phases,
//! so every evaluator entry point is attributed for free. The evaluator adds
//! only the [`ncg_trace::Phase::Consent`] span around counterpart queries,
//! separating counterpart time from mover time in the profile.

use crate::cost::EdgeCostMode;
use crate::moves::Move;
use ncg_graph::oracle::{EdgeDelta, OracleStats, PersistentOracle};
use ncg_graph::{DistanceSummary, NodeId, OwnedGraph};

/// Outcome of a delta-based candidate evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeltaScore {
    /// The move applies; this is the agent's distance summary afterwards.
    Summary(DistanceSummary),
    /// The move applies and this is a **lower bound** on the agent's distance
    /// summary afterwards (sum and max are each `≤` their true values), served
    /// arithmetically from the persistent oracle's per-source caches without
    /// touching the repair machinery. A candidate whose lower-bound cost is
    /// already not an improvement is guaranteed non-improving and may be
    /// skipped; otherwise re-score it with
    /// [`CostEvaluator::score_exact_last`]. This is the `O(n)` kernel tier;
    /// scans first try the coarser `O(D)` level-histogram tier,
    /// [`CostEvaluator::level_bound`], which reads no distance vector.
    LowerBound(DistanceSummary),
    /// The move does not apply in the current state (mirrors the moves
    /// rejected by [`crate::moves::apply_move`]); skip it.
    Inapplicable,
    /// The move is not expressible as edge deltas (e.g. a whole-strategy
    /// change whose vertex list violates the sorted/no-duplicates contract);
    /// use the fallback path.
    Unsupported,
}

/// A distance-oracle-backed scorer for one agent's candidate moves, and
/// for what its consent parties pay after them: one oracle, one distance
/// cache, one sync point.
pub struct CostEvaluator {
    /// The one oracle. It lives on the heap: held inline, its fields made
    /// the scan loop's own time (the `enumerate` trace phase) ~1.6× longer
    /// on `asg-sum-1024`. Its buffers are sized by its first sync.
    oracle: Box<PersistentOracle>,
    deltas: Vec<EdgeDelta>,
    /// Candidates the scans pruned on a [`CostEvaluator::level_bound`], and
    /// blocks on a [`CostEvaluator::block_bounds`] entry (reported as
    /// [`OracleStats::bound_pruned`]).
    bound_pruned: u64,
}

impl CostEvaluator {
    /// Creates an evaluator for graphs on `n` vertices. Its oracle holds
    /// no cache until the first query syncs it, so an evaluator that is
    /// never queried (the full-BFS reference's) allocates no buffers.
    pub fn new(n: usize) -> Self {
        CostEvaluator {
            oracle: Box::new(PersistentOracle::new(n)),
            deltas: Vec::with_capacity(4),
            bound_pruned: 0,
        }
    }

    /// Work counters of the oracle, mover and counterpart queries alike,
    /// plus the scans' level-bound prunes.
    pub fn stats(&self) -> OracleStats {
        let mut stats = self.oracle.stats();
        stats.bound_pruned += self.bound_pruned;
        stats.debug_validate();
        stats
    }

    /// Clears the work counters.
    pub fn reset_stats(&mut self) {
        self.oracle.reset_stats();
        self.bound_pruned = 0;
    }

    /// Pins the base state `(g, u)` for the following
    /// [`CostEvaluator::try_score`] calls and returns `u`'s base summary.
    pub fn begin_agent(&mut self, g: &OwnedGraph, u: NodeId) -> DistanceSummary {
        self.oracle.begin(g, u)
    }

    /// Scores candidate `mv` of agent `u` against the pinned base state.
    ///
    /// `g` must be the same graph passed to the preceding
    /// [`CostEvaluator::begin_agent`]; it is only consulted for applicability
    /// checks, never mutated.
    pub fn try_score(&mut self, g: &OwnedGraph, u: NodeId, mv: &Move) -> DeltaScore {
        self.try_score_bounded(g, u, mv, false)
    }

    /// Like [`CostEvaluator::try_score`], with an opt-in lower-bound fast
    /// path: with `may_bound == true` a candidate ending in an insertion on
    /// a removal-only prefix may come back as [`DeltaScore::LowerBound`]
    /// (served from the persistent oracle's per-source caches), which the
    /// caller either prunes or upgrades via
    /// [`CostEvaluator::score_exact_last`]. With `false` every answer is
    /// exact — [`try_score`](CostEvaluator::try_score)'s behaviour. Exact
    /// cache arithmetic (pure purchases) is used either way.
    pub fn try_score_bounded(
        &mut self,
        g: &OwnedGraph,
        u: NodeId,
        mv: &Move,
        may_bound: bool,
    ) -> DeltaScore {
        if let Err(score) = self.buffer_deltas(g, u, mv) {
            return score;
        }
        // Candidates ending in an insertion incident to the pinned source are
        // first tried against the persistent oracle's cache arithmetic: exact
        // for pure purchases (empty prefix), a prunable lower bound for swaps
        // and other removal-prefixed sequences. Everything else (or a cache
        // miss) takes the repair machinery.
        if let Some((&EdgeDelta::Insert { u: a, v: b }, prefix)) = self.deltas.split_last() {
            if a == u && (may_bound || prefix.is_empty()) {
                let cached = self.oracle.evaluate_insert_via_cache(g, prefix, a, b);
                if let Some((summary, exact)) = cached {
                    return if exact {
                        DeltaScore::Summary(summary)
                    } else {
                        DeltaScore::LowerBound(summary)
                    };
                }
            }
        }
        DeltaScore::Summary(self.oracle.evaluate(&self.deltas))
    }

    /// The tier in front of [`CostEvaluator::try_score_bounded`]: a lower
    /// bound on the post-move summary that repairs nothing. Both fields are
    /// `≤` the exact summary's.
    ///
    /// * A candidate that ends in an insertion `{u, v}` at the pinned source
    ///   on a removal-only prefix (every `Buy` and `Swap`) is bounded from
    ///   level histograms alone, in `O(D)` (see
    ///   [`PersistentOracle::insert_level_bound`]). The bound is `≤` the
    ///   fused kernel's answer for the same candidate.
    /// * A `Delete` is bounded by the summary of the neighbour-row vector
    ///   `c_f` (see [`PersistentOracle::removal_bound`]). A disconnected
    ///   bound is exact.
    ///
    /// `None` for other candidate shapes and whenever the oracle cannot
    /// serve the bound; the caller then scores the candidate with
    /// `try_score_bounded` as usual. The candidate's deltas stay buffered,
    /// like after `try_score`.
    pub fn level_bound(&mut self, g: &OwnedGraph, u: NodeId, mv: &Move) -> Option<DistanceSummary> {
        self.buffer_deltas(g, u, mv).ok()?;
        match (self.deltas.split_last(), mv) {
            (Some((&EdgeDelta::Insert { u: a, v: b }, prefix)), _) if a == u => {
                self.oracle.insert_level_bound(g, prefix, a, b)
            }
            (_, &Move::Delete { to }) => self.oracle.removal_bound(g, u, to),
            _ => None,
        }
    }

    /// One lower bound per block of
    /// [`ENVELOPE_BLOCK`](ncg_graph::oracle::ENVELOPE_BLOCK) targets, for the run
    /// of candidates that `mv` belongs to: every `Buy`, or every `Swap` from
    /// `mv`'s `from` (see [`PersistentOracle::insert_block_bounds`]).
    /// `out[b]` is `≤` the [`CostEvaluator::level_bound`] of each candidate
    /// of the run whose target lies in block `b`. `false`, with `out` empty,
    /// for other candidate shapes and whenever the oracle cannot serve the
    /// bounds.
    pub fn block_bounds(
        &mut self,
        g: &OwnedGraph,
        u: NodeId,
        mv: &Move,
        out: &mut Vec<DistanceSummary>,
    ) -> bool {
        out.clear();
        if !matches!(mv, Move::Buy { .. } | Move::Swap { .. })
            || self.buffer_deltas(g, u, mv).is_err()
        {
            return false;
        }
        let (_, prefix) = self
            .deltas
            .split_last()
            .expect("a Buy or Swap ends in its insertion");
        self.oracle.insert_block_bounds(g, prefix, u, out)
    }

    /// Adds `count` prunes by a [`CostEvaluator::level_bound`] (one per
    /// candidate) or a [`CostEvaluator::block_bounds`] entry (one per block)
    /// to the `bound_pruned` counter of [`CostEvaluator::stats`]. The scan
    /// makes the prune decision, because it needs the game's cost model.
    pub fn record_bound_prunes(&mut self, count: u64) {
        self.bound_pruned += count;
    }

    /// Buffers the delta sequence of candidate `mv` of agent `u`, or returns
    /// the score of a candidate that has none ([`DeltaScore::Inapplicable`]
    /// or [`DeltaScore::Unsupported`]).
    fn buffer_deltas(&mut self, g: &OwnedGraph, u: NodeId, mv: &Move) -> Result<(), DeltaScore> {
        self.deltas.clear();
        match *mv {
            Move::Swap { from, to } => {
                if !g.has_edge(u, from) || g.has_edge(u, to) || to == u || to >= g.num_nodes() {
                    return Err(DeltaScore::Inapplicable);
                }
                self.deltas.push(EdgeDelta::Remove { u, v: from });
                self.deltas.push(EdgeDelta::Insert { u, v: to });
            }
            Move::Buy { to } => {
                if to == u || to >= g.num_nodes() || g.has_edge(u, to) {
                    return Err(DeltaScore::Inapplicable);
                }
                self.deltas.push(EdgeDelta::Insert { u, v: to });
            }
            Move::Delete { to } => {
                if !g.owns_edge(u, to) {
                    return Err(DeltaScore::Inapplicable);
                }
                self.deltas.push(EdgeDelta::Remove { u, v: to });
            }
            Move::SetOwned { ref new_owned } => {
                if !strictly_sorted(new_owned) {
                    return Err(DeltaScore::Unsupported);
                }
                if new_owned.iter().any(|&v| v == u || v >= g.num_nodes()) {
                    return Err(DeltaScore::Inapplicable);
                }
                push_set_deltas(g.owned_neighbors(u), new_owned, g, u, &mut self.deltas);
            }
            Move::SetNeighbors { ref new_neighbors } => {
                if !strictly_sorted(new_neighbors) {
                    return Err(DeltaScore::Unsupported);
                }
                if new_neighbors.iter().any(|&v| v == u || v >= g.num_nodes()) {
                    return Err(DeltaScore::Inapplicable);
                }
                push_set_deltas(g.neighbors(u), new_neighbors, g, u, &mut self.deltas);
            }
        }
        Ok(())
    }

    /// Exact summary of the last candidate scored by
    /// [`CostEvaluator::try_score`] — used to upgrade a
    /// [`DeltaScore::LowerBound`] that survived its prune, by running the
    /// buffered delta sequence through the repair machinery.
    pub fn score_exact_last(&mut self) -> DistanceSummary {
        self.oracle.evaluate(&self.deltas)
    }

    /// The agent's distance summary served from its row of the oracle's
    /// distance matrix at the current version of `g`, without re-pinning.
    /// See [`PersistentOracle::cached_summary`].
    pub fn cached_summary(&mut self, g: &OwnedGraph, u: NodeId) -> DistanceSummary {
        self.oracle.cached_summary(g, u)
    }

    /// Brings the distance vectors of `sources` to the current version of
    /// `g`. The oracle keeps every source's vector current at its sync, so
    /// this only syncs: the first call fills every vector in bitset waves.
    pub fn pin_sources(&mut self, g: &OwnedGraph, sources: &[NodeId]) {
        self.oracle.pin_sources(g, sources);
    }

    /// Counterpart what-if for the **last scored candidate**: agent `v`'s
    /// `(base, post-move)` distance summaries under the candidate's delta
    /// sequence, from a copy of `v`'s row of the mover's distance matrix
    /// repaired by truncated BFS — no apply/undo, no full BFS, and the
    /// mover's pin, delta stack and row bounds stay as they were (see
    /// [`PersistentOracle::evaluate_for_source`]).
    ///
    /// Must follow a [`CostEvaluator::try_score`] that returned
    /// [`DeltaScore::Summary`]; the delta sequence of that candidate is still
    /// buffered and is what `v` is scored against.
    pub fn score_counterpart(
        &mut self,
        g: &OwnedGraph,
        v: NodeId,
    ) -> (DistanceSummary, DistanceSummary) {
        let _sp = ncg_trace::span(ncg_trace::Phase::Consent);
        self.oracle.evaluate_for_source(g, v, &self.deltas)
    }

    /// Degree change of vertex `v` under the last scored candidate's delta
    /// sequence (inserts touching `v` minus removes touching `v`).
    pub fn last_delta_degree(&self, vertex: NodeId) -> isize {
        let mut delta = 0isize;
        for d in &self.deltas {
            let (a, b, sign) = match *d {
                EdgeDelta::Insert { u, v } => (u, v, 1),
                EdgeDelta::Remove { u, v } => (u, v, -1),
            };
            if a == vertex || b == vertex {
                delta += sign;
            }
        }
        delta
    }
}

/// `true` iff the slice is strictly ascending (the documented contract of the
/// whole-strategy moves; unsorted inputs take the scratch fallback instead).
fn strictly_sorted(v: &[NodeId]) -> bool {
    v.windows(2).all(|w| w[0] < w[1])
}

/// Emits the delta sequence turning agent `u`'s incident edge set from `old`
/// into `new` (both strictly ascending), in **descending vertex order**.
///
/// The descending order is what makes Gray-code strategy enumeration fast:
/// each pool element contributes at most one delta whose presence depends
/// only on that element's membership bit, so consecutive masks that toggle a
/// low element share the entire high-element delta prefix on the oracle's
/// delta stack.
///
/// Inserts of edges that already exist (foreign-owned edges in a `SetOwned`
/// strategy) are skipped — buying them transfers no structure, exactly as
/// [`crate::moves::apply_move`] treats them.
fn push_set_deltas(
    old: &[NodeId],
    new: &[NodeId],
    g: &OwnedGraph,
    u: NodeId,
    out: &mut Vec<EdgeDelta>,
) {
    let (mut i, mut j) = (old.len(), new.len());
    while i > 0 || j > 0 {
        if j == 0 || (i > 0 && old[i - 1] > new[j - 1]) {
            i -= 1;
            out.push(EdgeDelta::Remove { u, v: old[i] });
        } else if i == 0 || new[j - 1] > old[i - 1] {
            j -= 1;
            let v = new[j];
            if !g.has_edge(u, v) {
                out.push(EdgeDelta::Insert { u, v });
            }
        } else {
            // Present on both sides: the edge is kept.
            i -= 1;
            j -= 1;
        }
    }
}

impl std::fmt::Debug for CostEvaluator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CostEvaluator").finish_non_exhaustive()
    }
}

/// Edge-cost of agent `u` *after* performing the move `mv`, reconstructed
/// without mutating the graph.
///
/// Covers every move kind [`CostEvaluator::try_score`] supports, including
/// the whole-strategy changes: an edge named in a `SetOwned` / `SetNeighbors`
/// strategy that already exists as a *foreign-owned* edge stays with its
/// owner, so the mover is not charged for it (mirroring
/// [`crate::moves::apply_move`]).
pub fn edge_cost_after(
    g: &OwnedGraph,
    u: NodeId,
    mv: &Move,
    mode: EdgeCostMode,
    alpha: f64,
) -> f64 {
    // Edges of `new` that agent `u` pays for afterwards: kept own edges plus
    // genuinely new ones (foreign-owned existing edges stay foreign).
    let owned_after = |new: &[NodeId]| {
        new.iter()
            .filter(|&&v| g.owns_edge(u, v) || !g.has_edge(u, v))
            .count() as isize
    };
    match mode {
        EdgeCostMode::Free => 0.0,
        EdgeCostMode::OwnerPays => {
            let owned = match *mv {
                Move::Buy { .. } => g.owned_degree(u) as isize + 1,
                Move::Delete { .. } => g.owned_degree(u) as isize - 1,
                // Swapping an owned edge keeps the owned degree; swapping a
                // foreign-owned edge (symmetric Swap Game) transfers the
                // replacement edge to the mover.
                Move::Swap { from, .. } => {
                    g.owned_degree(u) as isize + isize::from(!g.owns_edge(u, from))
                }
                Move::SetOwned { ref new_owned } => owned_after(new_owned),
                Move::SetNeighbors { ref new_neighbors } => owned_after(new_neighbors),
            };
            alpha * owned.max(0) as f64
        }
        EdgeCostMode::EqualSplit => {
            let degree = match *mv {
                Move::Buy { .. } => g.degree(u) as isize + 1,
                Move::Delete { .. } => g.degree(u) as isize - 1,
                Move::Swap { .. } => g.degree(u) as isize,
                // The neighbour set is replaced wholesale.
                Move::SetNeighbors { ref new_neighbors } => new_neighbors.len() as isize,
                // Own edges not kept disappear, absent strategy edges appear;
                // foreign edges are untouched either way.
                Move::SetOwned { ref new_owned } => {
                    let inserted =
                        new_owned.iter().filter(|&&v| !g.has_edge(u, v)).count() as isize;
                    let removed = g
                        .owned_neighbors(u)
                        .iter()
                        .filter(|&v| new_owned.binary_search(v).is_err())
                        .count() as isize;
                    g.degree(u) as isize + inserted - removed
                }
            };
            alpha / 2.0 * degree.max(0) as f64
        }
    }
}

/// Edge-cost of a *consent party* `v` (an agent other than the mover) after
/// the mover's candidate, reconstructed without mutating the graph.
///
/// `delta_deg` is `v`'s degree change under the candidate's delta sequence
/// ([`CostEvaluator::last_delta_degree`]). Every edge the mover creates is
/// owned (paid) by the mover, so under [`EdgeCostMode::OwnerPays`] a party's
/// bill never moves; under [`EdgeCostMode::EqualSplit`] it tracks the degree.
pub fn party_edge_cost_after(
    g: &OwnedGraph,
    v: NodeId,
    mode: EdgeCostMode,
    alpha: f64,
    delta_deg: isize,
) -> f64 {
    match mode {
        EdgeCostMode::Free => 0.0,
        EdgeCostMode::OwnerPays => alpha * g.owned_degree(v) as f64,
        EdgeCostMode::EqualSplit => alpha / 2.0 * (g.degree(v) as isize + delta_deg).max(0) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::agent_cost_total;
    use crate::cost::DistanceMetric;
    use crate::moves::apply_move;
    use ncg_graph::batch::LEVELS;
    use ncg_graph::{generators, BatchSummary, BfsBuffer, OwnedGraph};

    /// Delta scoring must agree exactly with apply + BFS for every supported
    /// move kind.
    #[test]
    fn delta_scores_match_apply_and_bfs() {
        let g = {
            let mut g = generators::path(9);
            g.add_edge(0, 5);
            g.add_edge(2, 7);
            g
        };
        let moves = [
            Move::Swap { from: 1, to: 4 },
            Move::Buy { to: 8 },
            Move::Delete { to: 1 },
            Move::Delete { to: 5 },
            Move::SetOwned { new_owned: vec![] },
            Move::SetOwned {
                new_owned: vec![3, 6],
            },
            Move::SetOwned {
                new_owned: vec![1, 2, 8],
            },
            Move::SetNeighbors {
                new_neighbors: vec![4],
            },
            Move::SetNeighbors {
                new_neighbors: vec![1, 5, 7],
            },
        ];
        for u in 0..g.num_nodes() {
            let mut evaluator = CostEvaluator::new(g.num_nodes());
            evaluator.begin_agent(&g, u);
            for mv in &moves {
                let score = evaluator.try_score(&g, u, mv);
                let mut h = g.clone();
                match apply_move(&mut h, u, mv) {
                    None => {
                        assert_eq!(score, DeltaScore::Inapplicable, "agent {u} move {mv:?}");
                    }
                    Some(_) => {
                        let mut buf = BfsBuffer::new(h.num_nodes());
                        let expect = buf.summary(&h, u);
                        assert_eq!(score, DeltaScore::Summary(expect), "agent {u} move {mv:?}");
                        // Total cost agrees too (edge + distance).
                        let metric = DistanceMetric::Sum;
                        let mode = EdgeCostMode::OwnerPays;
                        let alpha = 1.75;
                        let measured = agent_cost_total(&h, u, metric, alpha, mode, &mut buf);
                        let DeltaScore::Summary(s) = score else {
                            unreachable!()
                        };
                        let scored =
                            edge_cost_after(&g, u, mv, mode, alpha) + metric.distance_cost(&s);
                        // Exact equality for infinite costs (disconnecting
                        // strategies), tolerance for the finite ones.
                        assert!(
                            measured == scored || (measured - scored).abs() < 1e-12,
                            "agent {u} move {mv:?}: {measured} vs {scored}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn whole_strategy_moves_score_through_deltas() {
        // A SetOwned strategy naming a foreign-owned edge must neither insert
        // nor charge for it; the distance summary matches the applied state.
        let g = OwnedGraph::from_owned_edges(5, &[(0, 1), (0, 2), (3, 0), (3, 4)]);
        let mut evaluator = CostEvaluator::new(5);
        evaluator.begin_agent(&g, 0);
        let mv = Move::SetOwned {
            new_owned: vec![3, 4],
        };
        let mut h = g.clone();
        apply_move(&mut h, 0, &mv).expect("strategy applies");
        let mut buf = BfsBuffer::new(5);
        assert_eq!(
            evaluator.try_score(&g, 0, &mv),
            DeltaScore::Summary(buf.summary(&h, 0))
        );
        // {0,3} stays owned (and paid) by 3: agent 0 only pays for {0,4}.
        assert_eq!(
            edge_cost_after(&g, 0, &mv, EdgeCostMode::OwnerPays, 2.0),
            2.0
        );
        assert_eq!(h.owned_degree(0), 1);
    }

    #[test]
    fn unsorted_strategy_lists_take_the_fallback() {
        let g = generators::path(4);
        let mut evaluator = CostEvaluator::new(4);
        evaluator.begin_agent(&g, 0);
        assert_eq!(
            evaluator.try_score(
                &g,
                0,
                &Move::SetOwned {
                    new_owned: vec![3, 2]
                }
            ),
            DeltaScore::Unsupported
        );
        assert_eq!(
            evaluator.try_score(
                &g,
                0,
                &Move::SetNeighbors {
                    new_neighbors: vec![2, 2]
                }
            ),
            DeltaScore::Unsupported
        );
    }

    #[test]
    fn set_deltas_are_emitted_in_descending_vertex_order() {
        // Descending order is the contract that makes Gray-code enumeration
        // share delta-stack prefixes: the toggled (low) pool element's delta
        // sits at the end of the sequence.
        let g = OwnedGraph::from_owned_edges(6, &[(0, 1), (0, 4), (2, 0)]);
        let mut out = Vec::new();
        push_set_deltas(g.owned_neighbors(0), &[3, 4, 5], &g, 0, &mut out);
        assert_eq!(
            out,
            vec![
                EdgeDelta::Insert { u: 0, v: 5 },
                EdgeDelta::Insert { u: 0, v: 3 },
                EdgeDelta::Remove { u: 0, v: 1 },
            ]
        );
        // Foreign-owned edge {0,2} named in the strategy: no delta.
        out.clear();
        push_set_deltas(g.owned_neighbors(0), &[1, 2, 4], &g, 0, &mut out);
        assert!(out.is_empty(), "keeping everything is a structural no-op");
    }

    #[test]
    fn pinned_consent_sources_are_served_by_replay() {
        // Counterpart queries read the rows of the mover's matrix, which its
        // one sync point fills once and keeps current by journal replay:
        // they stay BFS-exact after a graph change without a refill or a
        // cache of their own.
        let mut g = generators::path(10);
        let mut evaluator = CostEvaluator::new(10);
        let mv = Move::SetNeighbors {
            new_neighbors: vec![1, 5, 9],
        };
        let mut buf = BfsBuffer::new(10);
        for moved in [false, true] {
            if moved {
                g.add_edge(0, 7);
            }
            evaluator.begin_agent(&g, 0);
            assert!(matches!(
                evaluator.try_score(&g, 0, &mv),
                DeltaScore::Summary(_)
            ));
            let mut h = g.clone();
            apply_move(&mut h, 0, &mv).expect("applies");
            for party in [5usize, 9] {
                let ctx = format!("party {party}, moved {moved}");
                let (base, modified) = evaluator.score_counterpart(&g, party);
                assert_eq!(base, buf.summary(&g, party), "{ctx}: base");
                assert_eq!(modified, buf.summary(&h, party), "{ctx}: post-move");
            }
        }
        let stats = evaluator.stats();
        assert_eq!(stats.batched_repins, 10, "one fill");
        assert_eq!(stats.replayed_begins, 10, "one replayed sync");
        // The 10 × 10 distance matrix, plus per row its level counts and
        // aggregates.
        let per_row = 2 * LEVELS + size_of::<BatchSummary>();
        assert_eq!(
            stats.peak_parked_bytes,
            (10 * 10 * 2 + 10 * per_row) as u64,
            "one cache"
        );
    }

    /// What one candidate of [`scan_with_counterparts`] returned to the
    /// mover: its level bound, its first score, and the exact score that
    /// upgrades a lower bound.
    type MoverScore = (Option<DistanceSummary>, DeltaScore, Option<DistanceSummary>);

    /// Scores `moves` of agent `u` the way a scan does (level bound, then a
    /// bound-enabled score, upgraded when it is a lower bound) and, when
    /// `parties` is non-empty, asks each party's counterpart what-if right
    /// after each applicable candidate. Returns the mover's scores and the
    /// counterpart answers.
    fn scan_with_counterparts(
        evaluator: &mut CostEvaluator,
        g: &OwnedGraph,
        u: NodeId,
        moves: &[Move],
        parties: &[NodeId],
    ) -> (Vec<MoverScore>, Vec<(DistanceSummary, DistanceSummary)>) {
        evaluator.begin_agent(g, u);
        let (mut scores, mut answers) = (Vec::new(), Vec::new());
        for mv in moves {
            let bound = evaluator.level_bound(g, u, mv);
            let score = evaluator.try_score_bounded(g, u, mv, true);
            let exact = match score {
                DeltaScore::LowerBound(_) => Some(evaluator.score_exact_last()),
                DeltaScore::Summary(s) => Some(s),
                _ => None,
            };
            scores.push((bound, score, exact));
            if exact.is_some() {
                for &v in parties {
                    answers.push(evaluator.score_counterpart(g, v));
                }
            }
        }
        (scores, answers)
    }

    #[test]
    fn counterpart_queries_leave_the_mover_scan_as_it_was() {
        // Counterpart queries between a mover's candidates answer from a
        // copy of the party's row: the mover's scores, its delta-stack
        // reuse and its row bounds are those of a scan without them, and
        // the cache is filled and replayed once, not once per query kind.
        let mut g = generators::cycle(12);
        g.add_edge(0, 6);
        g.add_edge(3, 9);
        g.add_edge(0, 4);
        // A Greedy Buy Game agent: Swaps sharing each removal prefix, then
        // Buys and Deletes; and a bilateral agent's neighbour sets.
        let mut gbg_moves = Vec::new();
        for &from in g.owned_neighbors(0) {
            let targets = (1..12).filter(|&to| !g.has_edge(0, to));
            gbg_moves.extend(targets.map(|to| Move::Swap { from, to }));
        }
        gbg_moves.extend((1..12).map(|to| Move::Buy { to }));
        gbg_moves.extend(g.owned_neighbors(0).iter().map(|&to| Move::Delete { to }));
        let bilateral_moves: Vec<Move> = [vec![2, 4], vec![2, 5, 8, 11], vec![4, 10], vec![0]]
            .into_iter()
            .map(|new_neighbors| Move::SetNeighbors { new_neighbors })
            .collect();
        let parties: Vec<NodeId> = vec![0, 3, 5, 11];
        let mut with = CostEvaluator::new(12);
        let mut without = CostEvaluator::new(12);
        let mut buf = BfsBuffer::new(12);
        let mut queries = 0u64;
        for round in 0..2 {
            if round == 1 {
                // A graph change: both evaluators replay it at their sync.
                g.add_edge(7, 1);
                g.remove_edge(3, 9);
            }
            for (u, moves) in [(0, &gbg_moves), (3, &bilateral_moves)] {
                let (scores, answers) = scan_with_counterparts(&mut with, &g, u, moves, &parties);
                let (alone, _) = scan_with_counterparts(&mut without, &g, u, moves, &[]);
                assert_eq!(scores, alone, "round {round}, agent {u}: mover scores");
                let mut answers = answers.into_iter();
                for (mv, &(_, _, exact)) in moves.iter().zip(&scores) {
                    let mut h = g.clone();
                    let applied = apply_move(&mut h, u, mv).is_some();
                    assert_eq!(applied, exact.is_some(), "round {round}, agent {u}, {mv:?}");
                    if !applied {
                        continue;
                    }
                    let ctx = format!("round {round}, agent {u}, {mv:?}");
                    assert_eq!(exact, Some(buf.summary(&h, u)), "{ctx}: mover");
                    for &v in &parties {
                        let (base, modified) = answers.next().expect("one answer per party");
                        assert_eq!(base, buf.summary(&g, v), "{ctx}: party {v} base");
                        assert_eq!(modified, buf.summary(&h, v), "{ctx}: party {v} after");
                        queries += 1;
                    }
                }
                assert!(answers.next().is_none(), "round {round}, agent {u}");
            }
        }
        let (a, b) = (with.stats(), without.stats());
        assert_eq!(a.batched_repins, b.batched_repins, "one fill: {a:?}");
        assert_eq!(a.replayed_begins, b.replayed_begins, "one replay: {a:?}");
        assert_eq!(a.peak_parked_bytes, b.peak_parked_bytes, "one cache");
        assert_eq!(
            (a.kernel_calls, a.bound_queries, a.row_bounds),
            (b.kernel_calls, b.bound_queries, b.row_bounds),
            "the mover's kernels and row bounds are untouched"
        );
        assert_eq!(a.evaluations, b.evaluations + queries, "one per query");
    }

    #[test]
    fn edge_cost_arithmetic() {
        let g = generators::path(4); // 0 owns {0,1}; 1 owns {1,2}; 2 owns {2,3}
        let alpha = 2.0;
        // Buy adds an owned edge.
        assert_eq!(
            edge_cost_after(&g, 0, &Move::Buy { to: 2 }, EdgeCostMode::OwnerPays, alpha),
            4.0
        );
        // Delete removes one.
        assert_eq!(
            edge_cost_after(
                &g,
                0,
                &Move::Delete { to: 1 },
                EdgeCostMode::OwnerPays,
                alpha
            ),
            0.0
        );
        // Owned swap keeps the owned degree; foreign swap adopts the edge.
        assert_eq!(
            edge_cost_after(
                &g,
                0,
                &Move::Swap { from: 1, to: 3 },
                EdgeCostMode::OwnerPays,
                alpha
            ),
            2.0
        );
        assert_eq!(
            edge_cost_after(
                &g,
                1,
                &Move::Swap { from: 0, to: 3 },
                EdgeCostMode::OwnerPays,
                alpha
            ),
            4.0,
            "vertex 1 does not own {{0,1}} and adopts the replacement edge"
        );
        // Equal-split counts incident edges.
        assert_eq!(
            edge_cost_after(&g, 1, &Move::Buy { to: 3 }, EdgeCostMode::EqualSplit, alpha),
            3.0
        );
        assert_eq!(
            edge_cost_after(&g, 0, &Move::Buy { to: 2 }, EdgeCostMode::Free, alpha),
            0.0
        );
    }
}
