//! The [`Game`] trait: everything the dynamics engine needs to know about a
//! network creation game variant.
//!
//! A game defines (1) the cost of an agent in a state, (2) the admissible strategy
//! changes (candidate moves) of an agent, and (3) which of those are *feasible*
//! (host-graph restrictions are handled during enumeration; the bilateral game adds
//! a consent check). On top of those primitives the trait provides derived queries
//! used everywhere: improving moves, best responses and unhappiness tests.

use crate::cost::{agent_cost_total, is_improvement, DistanceMetric, EdgeCostMode};
use crate::evaluator::{edge_cost_after, party_edge_cost_after, CostEvaluator, DeltaScore};
use crate::moves::{apply_move, undo_move, Move};
use ncg_graph::oracle::{OracleKind, OracleStats};
use ncg_graph::{BfsBuffer, HostGraph, NodeId, OwnedGraph};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Reusable scratch space for best-response computations.
///
/// Keeping the BFS buffer, the distance-oracle evaluator, the scratch graph and
/// the candidate vector alive across calls removes all allocation from the
/// inner loop of the dynamics engine.
#[derive(Debug)]
pub struct Workspace {
    /// Single-source BFS workspace (used by the fallback scoring path and by
    /// the cost queries of policies and equilibrium checks).
    pub bfs: BfsBuffer,
    /// Distance-oracle-backed candidate scorer.
    pub evaluator: CostEvaluator,
    scratch: OwnedGraph,
    candidates: Vec<Move>,
    parties: Vec<NodeId>,
}

impl Workspace {
    /// Creates a workspace for graphs on `n` vertices with the default
    /// (persistent) distance-oracle backend.
    pub fn new(n: usize) -> Self {
        Workspace::with_oracle(n, OracleKind::default())
    }

    /// Creates a workspace with an explicit distance-oracle backend.
    pub fn with_oracle(n: usize, kind: OracleKind) -> Self {
        Workspace {
            bfs: BfsBuffer::new(n),
            evaluator: CostEvaluator::new(kind, n),
            scratch: OwnedGraph::new(n),
            candidates: Vec::new(),
            parties: Vec::new(),
        }
    }

    /// The configured distance-oracle backend.
    pub fn oracle_kind(&self) -> OracleKind {
        self.evaluator.kind()
    }

    /// Work counters of the distance oracle (for ablation measurements).
    pub fn oracle_stats(&self) -> OracleStats {
        self.evaluator.stats()
    }
}

impl Clone for Workspace {
    /// Clones the workspace configuration; the oracle state is scratch and is
    /// recreated fresh.
    fn clone(&self) -> Self {
        Workspace::with_oracle(self.scratch.num_nodes(), self.evaluator.kind())
    }
}

/// A candidate move together with the moving agent's cost before and after.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredMove {
    /// The strategy change.
    pub mv: Move,
    /// The agent's cost in the current state.
    pub old_cost: f64,
    /// The agent's cost after performing the move.
    pub new_cost: f64,
}

impl ScoredMove {
    /// Strict cost decrease achieved by the move (positive for improving moves).
    pub fn improvement(&self) -> f64 {
        self.old_cost - self.new_cost
    }
}

/// A network creation game variant (SG, ASG, GBG, BG or bilateral BG in SUM or MAX
/// flavour, possibly on a restricted host graph).
pub trait Game {
    /// Human-readable name, e.g. `"SUM-ASG"`.
    fn name(&self) -> String;

    /// The distance-cost aggregate (SUM or MAX).
    fn metric(&self) -> DistanceMetric;

    /// The edge price α (irrelevant for swap games, where it is `0`).
    fn alpha(&self) -> f64 {
        0.0
    }

    /// How edge-costs are charged.
    fn edge_cost_mode(&self) -> EdgeCostMode;

    /// The host graph restricting which edges may be created.
    fn host(&self) -> &HostGraph;

    /// Cost of agent `u` in state `g`.
    ///
    /// **Override contract:** the delta-based fast path of the candidate scan
    /// recomputes costs as `edge_cost + distance_cost` from the game's
    /// `metric` / `alpha` / `edge_cost_mode` and never calls this method. A
    /// game whose cost deviates from that decomposition must also override
    /// [`Game::needs_consent`] to return `true`, which forces every candidate
    /// through the apply → BFS → undo path where this method is honoured.
    fn cost(&self, g: &OwnedGraph, u: NodeId, buf: &mut BfsBuffer) -> f64 {
        agent_cost_total(
            g,
            u,
            self.metric(),
            self.alpha(),
            self.edge_cost_mode(),
            buf,
        )
    }

    /// Enumerates the admissible strategy changes of agent `u` in state `g`
    /// (host-graph restrictions already applied), appending them to `out`.
    fn candidate_moves(&self, g: &OwnedGraph, u: NodeId, out: &mut Vec<Move>);

    /// Returns `true` if the move is *blocked* by other agents.
    ///
    /// Only the bilateral equal-split game uses this: a strategy change is blocked
    /// if some newly connected agent would see her cost strictly increase
    /// (paper §5). `g_before` is the current state, `g_after` the state after the
    /// move has been applied.
    ///
    /// **Override contract:** the delta-based fast path never materialises
    /// `g_after` and therefore never calls this method. Any game overriding it
    /// must also override [`Game::needs_consent`] to return `true`, otherwise
    /// blocked single-edge moves would silently be accepted.
    fn move_is_blocked(
        &self,
        _g_before: &OwnedGraph,
        _agent: NodeId,
        _mv: &Move,
        _g_after: &OwnedGraph,
        _buf: &mut BfsBuffer,
    ) -> bool {
        false
    }

    /// Returns `true` if the game's moves require inspecting the post-move
    /// state of *other* agents (a consent check). Such games cannot use the
    /// plain delta-based scoring fast path, which never materialises the
    /// post-move graph — unless they additionally opt into the delta-scored
    /// consent contract via [`Game::delta_consent`].
    fn needs_consent(&self) -> bool {
        false
    }

    /// Opt-in for consent games whose blocking rule is *exactly* "some consent
    /// party's standard `edge + distance` cost strictly increases": the scan
    /// may then answer both the mover's score **and** every party's consent
    /// from distance-oracle what-if queries, with no apply → BFS → undo.
    ///
    /// **Override contract:** a game returning `true` must (1) keep the
    /// default `edge + distance` decomposition of [`Game::cost`], (2) name its
    /// consent parties via [`Game::consent_parties`], and (3) have
    /// [`Game::move_is_blocked`] equivalent to the party-cost-increase rule —
    /// the fallback path still uses `move_is_blocked`, and the randomized
    /// equivalence tests compare the two paths move by move.
    fn delta_consent(&self) -> bool {
        false
    }

    /// Appends the agents (other than the mover) whose consent `mv` requires
    /// — for the bilateral game, exactly the newly connected endpoints. Only
    /// consulted on the delta consent path ([`Game::delta_consent`]).
    fn consent_parties(&self, _g: &OwnedGraph, _agent: NodeId, _mv: &Move, _out: &mut Vec<NodeId>) {
    }

    /// All feasible improving moves of agent `u`, in deterministic order.
    fn improving_moves(&self, g: &OwnedGraph, u: NodeId, ws: &mut Workspace) -> Vec<ScoredMove> {
        scan_moves(self, g, u, ws, ScanMode::AllImproving)
    }

    /// All feasible *best-response* moves of agent `u`: the improving moves of
    /// maximal cost decrease. Empty iff the agent is happy.
    ///
    /// Uses the best-only scan mode: on the delta consent path the expensive
    /// counterpart checks are deferred and run in ascending-cost order, so a
    /// scan pays for the blocked candidates *below* the best feasible cost
    /// and the ties at it — not for every improving candidate.
    fn best_responses(&self, g: &OwnedGraph, u: NodeId, ws: &mut Workspace) -> Vec<ScoredMove> {
        let mut improving = scan_moves(self, g, u, ws, ScanMode::BestOnly);
        if improving.is_empty() {
            return improving;
        }
        let best = improving
            .iter()
            .map(|s| s.new_cost)
            .fold(f64::INFINITY, f64::min);
        improving.retain(|s| s.new_cost <= best);
        improving
    }

    /// The deterministic first best response (ties broken by the move order:
    /// deletions before swaps before purchases, then lexicographically).
    fn best_response(&self, g: &OwnedGraph, u: NodeId, ws: &mut Workspace) -> Option<ScoredMove> {
        let mut best = self.best_responses(g, u, ws);
        if best.is_empty() {
            None
        } else {
            best.sort_by_key(|s| s.mv.sort_key());
            Some(best.remove(0))
        }
    }

    /// Returns `true` iff agent `u` is unhappy, i.e. has at least one feasible
    /// improving move. Stops at the first improving candidate found.
    fn has_improving_move(&self, g: &OwnedGraph, u: NodeId, ws: &mut Workspace) -> bool {
        !scan_moves(self, g, u, ws, ScanMode::FirstImproving).is_empty()
    }
}

/// Cost of agent `u` measured through the workspace.
///
/// With a persistent oracle and a game following the standard
/// `edge + distance` decomposition (every non-consent game, per the
/// [`Game::cost`] override contract), the summary is read off `u`'s parked
/// vector. The first read after a move brings every parked vector current
/// by journal replay, in time proportional to the region the move actually
/// changed instead of one BFS per agent — this is what makes the max-cost
/// policy's per-step cost refresh of all `n` agents cheap. A cold vector
/// falls back to one `begin`. The value is *identical* to [`Game::cost`]:
/// both compute `edge_cost(g, u) + metric(distance summary of u)` on the
/// exact distance vector. Consent games (which may override `Game::cost`)
/// always take the honest measurement.
pub fn workspace_cost<G: Game + ?Sized>(
    game: &G,
    g: &OwnedGraph,
    u: NodeId,
    ws: &mut Workspace,
) -> f64 {
    if ws.oracle_kind() == OracleKind::Persistent && (!game.needs_consent() || game.delta_consent())
    {
        // A parked vector answers without re-pinning; only a cold one
        // (after a journal window too long to replay) needs a `begin`.
        let summary = match ws.evaluator.cached_summary(g, u) {
            Some(summary) => summary,
            None => ws.evaluator.begin_agent(g, u),
        };
        game.edge_cost_mode().edge_cost(g, u, game.alpha()) + game.metric().distance_cost(&summary)
    } else {
        game.cost(g, u, &mut ws.bfs)
    }
}

/// How [`scan_moves`] terminates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScanMode {
    AllImproving,
    FirstImproving,
    /// Only the minimal-cost feasible improving moves are needed (the caller
    /// filters to the best anyway): consent checks on the delta path are
    /// deferred to one ascending-cost pass instead of running per candidate.
    /// For every other configuration this behaves exactly like
    /// [`ScanMode::AllImproving`].
    BestOnly,
}

/// Shared candidate-evaluation loop: enumerate candidates, score each from the
/// moving agent's point of view, filter to feasible strict improvements.
///
/// Single-edge candidates (swap / buy / delete) are scored through the
/// workspace's [`CostEvaluator`] as edge deltas against the agent's pinned
/// base distance vector — no graph mutation, no full BFS per candidate (with
/// the persistent backend). Whole-strategy candidates and consent-checked
/// games fall back to the classic apply → BFS → undo cycle on a scratch copy.
fn scan_moves<G: Game + ?Sized>(
    game: &G,
    g: &OwnedGraph,
    u: NodeId,
    ws: &mut Workspace,
    mode: ScanMode,
) -> Vec<ScoredMove> {
    let _sp = ncg_trace::span(ncg_trace::Phase::Enumerate);
    ws.bfs.resize(g.num_nodes());
    let metric = game.metric();
    let alpha = game.alpha();
    let edge_mode = game.edge_cost_mode();
    // Consent games delta-score too when they opt into the delta consent
    // contract and the backend can answer multi-source what-ifs cheaply (the
    // persistent oracle's per-source caches); otherwise they keep the honest
    // apply → BFS → undo cycle.
    let consent_delta =
        game.needs_consent() && game.delta_consent() && ws.oracle_kind() == OracleKind::Persistent;
    let delta_path = !game.needs_consent() || consent_delta;
    // On the delta path the base cost must use exactly the same decomposition
    // as the candidate scores. That is sound for non-consent games and for
    // `delta_consent` games by their override contract (the default
    // `edge + distance` cost); consent games without that contract go through
    // the (potentially overridden) `Game::cost` and skip pinning an oracle
    // base they would never query.
    let old_cost = if delta_path {
        let base_summary = ws.evaluator.begin_agent(g, u);
        edge_mode.edge_cost(g, u, alpha) + metric.distance_cost(&base_summary)
    } else {
        game.cost(g, u, &mut ws.bfs)
    };
    let mut candidates = std::mem::take(&mut ws.candidates);
    candidates.clear();
    game.candidate_moves(g, u, &mut candidates);

    // In best-only mode the consent checks of delta-scored candidates are
    // deferred to one ascending-cost pass after the scoring loop; the entries
    // of `unchecked` mark which collected moves still owe one.
    let defer_consent = consent_delta && mode == ScanMode::BestOnly;
    // Candidates ending in an insertion at `u` are bounded before they are
    // scored: first by the O(D) level-histogram bound, then by the O(n)
    // kernel's (exact for a purchase). A deletion is bounded by its
    // neighbour-row summary. A candidate whose bound cost is not an
    // improvement is dropped. In best-only mode without consent, surviving
    // insertions are not re-scored inline either: they queue up in `pending`
    // and are evaluated in ascending-bound order, stopping once no bound can
    // beat the best exact cost found (an A*-style cutoff). A surviving
    // deletion has no kernel tier and is scored exactly in place, so `best`
    // is known as early as without its bound. All-improving scans disable
    // the bound path entirely — every improving candidate needs an exact
    // score, so the bound would be a pure detour.
    let order_by_bound = delta_path && !consent_delta && mode == ScanMode::BestOnly;
    let allow_bound = delta_path && mode != ScanMode::AllImproving;
    let kernel_calls_before = ncg_trace::enabled().then(|| ws.evaluator.stats().kernel_calls);
    let mut scratch_synced = false;
    let mut out = Vec::new();
    // Original candidate index of each `out` entry (enumeration order must be
    // restored after the bound-ordered pass — tie-breaking RNG sees it).
    let mut out_idx: Vec<usize> = Vec::new();
    let mut unchecked: Vec<bool> = Vec::new();
    let mut pending: Vec<Pending> = Vec::new();
    // Best exact improving cost so far: a pending bound above it can never
    // be scored, so it is dropped before it is queued.
    let mut best = f64::INFINITY;
    let mut pruned = 0u64;
    for (ci, mv) in candidates.iter().enumerate() {
        let mut deferred = false;
        let new_cost = if delta_path {
            // Most candidates stop at the level-histogram bound, before the
            // kernel reads `v`'s vector.
            if allow_bound {
                if let Some(lb) = ws.evaluator.level_bound(g, u, mv) {
                    let lb_cost =
                        edge_cost_after(g, u, mv, edge_mode, alpha) + metric.distance_cost(&lb);
                    if !is_improvement(old_cost, lb_cost) || (order_by_bound && lb_cost > best) {
                        pruned += 1;
                        continue;
                    }
                    if order_by_bound && !matches!(mv, Move::Delete { .. }) {
                        pending.push(Pending {
                            lb_cost,
                            ci,
                            kernel_bound: false,
                        });
                        continue;
                    }
                }
            }
            let score = ws.evaluator.try_score_bounded(g, u, mv, allow_bound);
            let summary = match score {
                DeltaScore::Summary(summary) => Some(summary),
                DeltaScore::LowerBound(lb) => {
                    let lb_cost =
                        edge_cost_after(g, u, mv, edge_mode, alpha) + metric.distance_cost(&lb);
                    if !is_improvement(old_cost, lb_cost) {
                        // The true cost is at least the bound: provably not
                        // an improvement, no exact evaluation needed.
                        continue;
                    }
                    if order_by_bound {
                        if lb_cost <= best {
                            pending.push(Pending {
                                lb_cost,
                                ci,
                                kernel_bound: true,
                            });
                        }
                        continue;
                    }
                    Some(ws.evaluator.score_exact_last())
                }
                DeltaScore::Inapplicable => continue,
                DeltaScore::Unsupported => None,
            };
            match summary {
                Some(summary) => {
                    let new_cost = edge_cost_after(g, u, mv, edge_mode, alpha)
                        + metric.distance_cost(&summary);
                    // Consent is only consulted for improving candidates,
                    // exactly like the fallback path.
                    if consent_delta && is_improvement(old_cost, new_cost) {
                        if defer_consent {
                            deferred = true;
                        } else if consent_blocked_delta(game, g, u, mv, ws) {
                            continue;
                        }
                    }
                    new_cost
                }
                None => match score_on_scratch(game, g, u, mv, ws, &mut scratch_synced, old_cost) {
                    Some(cost) => cost,
                    None => continue,
                },
            }
        } else {
            match score_on_scratch(game, g, u, mv, ws, &mut scratch_synced, old_cost) {
                Some(cost) => cost,
                None => continue,
            }
        };
        if is_improvement(old_cost, new_cost) {
            out.push(ScoredMove {
                mv: mv.clone(),
                old_cost,
                new_cost,
            });
            out_idx.push(ci);
            best = best.min(new_cost);
            if defer_consent {
                unchecked.push(deferred);
            }
            if mode == ScanMode::FirstImproving {
                break;
            }
        }
    }
    if order_by_bound && !pending.is_empty() {
        // Ascending-bound evaluation with cutoff: once the next bound
        // exceeds the best exact cost seen, no remaining candidate can beat
        // (or tie) it — candidates tying the best have bounds ≤ it and were
        // already evaluated. A level-histogram entry first takes the kernel
        // tier (exact for a purchase, a tighter bound for a swap). Usually
        // only the first few entries are scored, so a heap (`O(P)` to build)
        // stands in for a full sort.
        let mut queue = BinaryHeap::from(pending);
        while let Some(entry) = queue.pop() {
            if entry.lb_cost > best {
                pruned += std::iter::once(&entry)
                    .chain(queue.iter())
                    .filter(|e| !e.kernel_bound)
                    .count() as u64;
                break;
            }
            let mv = &candidates[entry.ci];
            let summary = match ws
                .evaluator
                .try_score_bounded(g, u, mv, !entry.kernel_bound)
            {
                DeltaScore::Summary(summary) => summary,
                DeltaScore::LowerBound(lb) => {
                    let lb_cost =
                        edge_cost_after(g, u, mv, edge_mode, alpha) + metric.distance_cost(&lb);
                    if !is_improvement(old_cost, lb_cost) || lb_cost > best {
                        continue;
                    }
                    ws.evaluator.score_exact_last()
                }
                DeltaScore::Inapplicable | DeltaScore::Unsupported => {
                    debug_assert!(false, "re-scoring a bounded candidate must succeed");
                    continue;
                }
            };
            let new_cost =
                edge_cost_after(g, u, mv, edge_mode, alpha) + metric.distance_cost(&summary);
            if is_improvement(old_cost, new_cost) {
                out.push(ScoredMove {
                    mv: mv.clone(),
                    old_cost,
                    new_cost,
                });
                out_idx.push(entry.ci);
                best = best.min(new_cost);
            }
        }
        // Restore candidate-enumeration order for the tie-breaking RNG.
        let mut paired: Vec<(usize, ScoredMove)> = out_idx.drain(..).zip(out).collect();
        paired.sort_by_key(|&(ci, _)| ci);
        out = paired.into_iter().map(|(_, s)| s).collect();
    }
    let had_candidates = !candidates.is_empty();
    ws.candidates = candidates;
    ws.evaluator.record_bound_prunes(pruned);
    if defer_consent && !out.is_empty() {
        out = resolve_deferred_consent(game, g, u, ws, out, &unchecked);
    }
    if let Some(before) = kernel_calls_before {
        if out.is_empty() && had_candidates && ws.evaluator.stats().kernel_calls == before {
            ncg_trace::add(ncg_trace::Counter::CertifiedHappy, 1);
        }
    }
    out
}

/// A candidate queued for the best-only scan's ascending-bound pass. The heap
/// pops the lowest bound first, ties in enumeration order.
#[derive(Debug, Clone, Copy)]
struct Pending {
    /// Lower bound on the candidate's cost.
    lb_cost: f64,
    /// Index into the scan's candidate list.
    ci: usize,
    /// The bound came from the kernel, so only the exact score is left;
    /// otherwise it came from the level histograms and the kernel is next.
    kernel_bound: bool,
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: `BinaryHeap` is a max-heap.
        other
            .lb_cost
            .total_cmp(&self.lb_cost)
            .then(other.ci.cmp(&self.ci))
    }
}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Pending {}

/// The ascending-cost consent pass of the best-only scan: finds the minimal
/// new cost among the *feasible* (unblocked) candidates and returns exactly
/// the feasible candidates at that cost, in their original enumeration order
/// (the order the tie-breaking RNG sees must not depend on the scan mode).
///
/// Candidates that already passed an inline consent check (`unchecked[i] ==
/// false`, e.g. scratch-scored ones) are feasible as-is; the rest are
/// re-scored — one oracle evaluation re-buffers the candidate's deltas — and
/// consent-checked lazily. The pass stops as soon as a cost level with a
/// feasible candidate is fully examined, so it pays for the blocked
/// candidates below the answer and the ties at it, not for every improving
/// candidate of the enumeration.
fn resolve_deferred_consent<G: Game + ?Sized>(
    game: &G,
    g: &OwnedGraph,
    u: NodeId,
    ws: &mut Workspace,
    out: Vec<ScoredMove>,
    unchecked: &[bool],
) -> Vec<ScoredMove> {
    debug_assert_eq!(out.len(), unchecked.len());
    let mut order: Vec<usize> = (0..out.len()).collect();
    order.sort_by(|&a, &b| {
        out[a]
            .new_cost
            .partial_cmp(&out[b].new_cost)
            .expect("costs are never NaN")
    });
    let mut best_cost: Option<f64> = None;
    let mut keep = vec![false; out.len()];
    for &i in &order {
        if let Some(c) = best_cost {
            if out[i].new_cost > c {
                break;
            }
        }
        let blocked = unchecked[i] && {
            // Re-buffer this candidate's delta sequence for the counterpart
            // queries; the state is unchanged, so the score must reproduce
            // (a lower bound re-buffers the same sequence and is fine too).
            let rescored = ws.evaluator.try_score(g, u, &out[i].mv);
            debug_assert!(matches!(
                rescored,
                DeltaScore::Summary(_) | DeltaScore::LowerBound(_)
            ));
            consent_blocked_delta(game, g, u, &out[i].mv, ws)
        };
        if !blocked {
            best_cost = Some(out[i].new_cost);
            keep[i] = true;
        }
    }
    out.into_iter()
        .zip(keep)
        .filter_map(|(mv, k)| k.then_some(mv))
        .collect()
}

/// Delta-scored consent: `true` iff some consent party of `mv` sees her
/// standard `edge + distance` cost strictly increase, with both sides of the
/// comparison answered by the evaluator's counterpart oracle (journal-replay
/// re-pin + candidate-delta what-if) — the post-move graph never exists.
///
/// Must run directly after the [`CostEvaluator::try_score`] of the same
/// candidate, whose delta sequence is still buffered in the evaluator.
fn consent_blocked_delta<G: Game + ?Sized>(
    game: &G,
    g: &OwnedGraph,
    u: NodeId,
    mv: &Move,
    ws: &mut Workspace,
) -> bool {
    let mut parties = std::mem::take(&mut ws.parties);
    parties.clear();
    game.consent_parties(g, u, mv, &mut parties);
    let (metric, mode, alpha) = (game.metric(), game.edge_cost_mode(), game.alpha());
    let mut blocked = false;
    for &v in &parties {
        let delta_deg = ws.evaluator.last_delta_degree(v);
        let (base, modified) = ws.evaluator.score_counterpart(g, v);
        let before = mode.edge_cost(g, v, alpha) + metric.distance_cost(&base);
        let after =
            party_edge_cost_after(g, v, mode, alpha, delta_deg) + metric.distance_cost(&modified);
        if after > before {
            blocked = true;
            break;
        }
    }
    ws.parties = parties;
    blocked
}

/// Fallback scoring: apply `mv` to a scratch copy, measure the real post-move
/// cost (and, for improving moves of consent-checked games, the blocked test),
/// undo.
///
/// Returns `None` if the move does not apply or is blocked.
fn score_on_scratch<G: Game + ?Sized>(
    game: &G,
    g: &OwnedGraph,
    u: NodeId,
    mv: &Move,
    ws: &mut Workspace,
    scratch_synced: &mut bool,
    old_cost: f64,
) -> Option<f64> {
    if !*scratch_synced {
        ws.scratch.clone_from(g);
        *scratch_synced = true;
    }
    let undo = apply_move(&mut ws.scratch, u, mv)?;
    let new_cost = game.cost(&ws.scratch, u, &mut ws.bfs);
    // The consent check is only consulted for improving moves (everything else
    // is discarded anyway), exactly like the historical scan loop.
    let blocked = is_improvement(old_cost, new_cost)
        && game.move_is_blocked(g, u, mv, &ws.scratch, &mut ws.bfs);
    undo_move(&mut ws.scratch, u, &undo);
    debug_assert_eq!(
        &ws.scratch, g,
        "scratch graph must be restored after scoring"
    );
    if blocked {
        None
    } else {
        Some(new_cost)
    }
}

/// Pushes a `Swap` candidate for every non-neighbour target allowed by the host.
pub(crate) fn push_swap_targets(
    g: &OwnedGraph,
    host: &HostGraph,
    u: NodeId,
    from: NodeId,
    out: &mut Vec<Move>,
) {
    for to in 0..g.num_nodes() {
        if to == u || to == from || g.has_edge(u, to) || !host.allows(u, to) {
            continue;
        }
        out.push(Move::Swap { from, to });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::games::{GreedyBuyGame, SwapGame};
    use ncg_graph::generators;

    #[test]
    fn scored_move_improvement() {
        let s = ScoredMove {
            mv: Move::Buy { to: 1 },
            old_cost: 10.0,
            new_cost: 7.5,
        };
        assert_eq!(s.improvement(), 2.5);
    }

    #[test]
    fn best_response_is_subset_of_improving() {
        let game = SwapGame::sum();
        let g = generators::path(6);
        let mut ws = Workspace::new(6);
        let improving = game.improving_moves(&g, 0, &mut ws);
        let best = game.best_responses(&g, 0, &mut ws);
        assert!(!improving.is_empty());
        assert!(!best.is_empty());
        let best_cost = best[0].new_cost;
        assert!(best.iter().all(|s| s.new_cost == best_cost));
        assert!(improving.iter().all(|s| s.new_cost >= best_cost));
        assert!(best.len() <= improving.len());
    }

    #[test]
    fn kernel_free_happy_verdicts_count_as_certified() {
        // Leaves of a star that own their edge, in SUM-GBG with α = 2: every
        // swap and purchase fails on its level-histogram bound alone (the
        // bound is tight here), and the deletion on its neighbour-row bound,
        // which proves the leaf cut off. So each leaf is certified happy
        // without a kernel call or a repair. The centre owns nothing and has
        // no candidates.
        let n = 9;
        let edges: Vec<(NodeId, NodeId)> = (1..n).map(|leaf| (leaf, 0)).collect();
        let g = OwnedGraph::from_owned_edges(n, &edges);
        let game = GreedyBuyGame::sum(2.0);
        let mut ws = Workspace::with_oracle(n, OracleKind::Persistent);
        let all: Vec<NodeId> = (0..n).collect();
        ws.evaluator.pin_sources(&g, &all);
        ncg_trace::set_enabled(true);
        let _ = ncg_trace::take_report();
        let unhappy = (0..n)
            .filter(|&u| game.has_improving_move(&g, u, &mut ws))
            .count();
        let report = ncg_trace::take_report();
        ncg_trace::set_enabled(false);
        assert_eq!(unhappy, 0);
        assert_eq!(
            report.counter(ncg_trace::Counter::CertifiedHappy),
            n as u64 - 1
        );
        let stats = ws.oracle_stats();
        assert_eq!(stats.kernel_calls, 0);
        assert_eq!(stats.evaluations, 0, "no candidate needs a repair");
        assert!(stats.row_bounds > 0);
        assert!(stats.bound_queries > 0);
        assert_eq!(stats.bound_pruned, stats.bound_queries);
    }

    #[test]
    fn workspace_is_reusable_across_graphs() {
        let game = SwapGame::sum();
        let mut ws = Workspace::new(4);
        let small = generators::path(4);
        let big = generators::path(8);
        assert!(game.best_response(&small, 0, &mut ws).is_some());
        assert!(game.best_response(&big, 0, &mut ws).is_some());
    }
}
