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
use ncg_graph::oracle::{OracleKind, OracleStats, ENVELOPE_BLOCK};
use ncg_graph::{BfsBuffer, DistanceSummary, HostGraph, NodeId, OwnedGraph};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Reusable scratch space for best-response computations.
///
/// Keeping the BFS buffer, the distance-oracle evaluator, the scratch graph and
/// the candidate vector alive across calls removes all allocation from the
/// inner loop of the dynamics engine.
#[derive(Debug)]
pub struct Workspace {
    /// Single-source BFS workspace (used by the scratch-graph scoring path
    /// and by the cost queries of policies and equilibrium checks).
    pub bfs: BfsBuffer,
    /// Distance-oracle-backed candidate scorer of the persistent engine: one
    /// oracle, whose one distance cache also answers consent parties'
    /// what-ifs. The full-BFS reference never queries it, so its oracle
    /// never syncs there and holds no cache.
    pub evaluator: CostEvaluator,
    kind: OracleKind,
    scratch: OwnedGraph,
    candidates: Vec<Move>,
    /// Block bounds of the scan's current run of candidates.
    block_bounds: Vec<DistanceSummary>,
    parties: Vec<NodeId>,
}

impl Workspace {
    /// Creates a workspace for graphs on `n` vertices with the default
    /// (persistent) scoring engine.
    pub fn new(n: usize) -> Self {
        Workspace::with_oracle(n, OracleKind::default())
    }

    /// Creates a workspace with an explicit scoring engine.
    pub fn with_oracle(n: usize, kind: OracleKind) -> Self {
        Workspace {
            bfs: BfsBuffer::new(n),
            evaluator: CostEvaluator::new(n),
            kind,
            scratch: OwnedGraph::new(n),
            candidates: Vec::new(),
            block_bounds: Vec::new(),
            parties: Vec::new(),
        }
    }

    /// Work counters of the distance oracle (for ablation measurements);
    /// all zero on the full-BFS reference, whose oracle never syncs.
    pub fn oracle_stats(&self) -> OracleStats {
        self.evaluator.stats()
    }
}

impl Clone for Workspace {
    /// Clones the workspace configuration; the oracle state is scratch and is
    /// recreated fresh.
    fn clone(&self) -> Self {
        Workspace::with_oracle(self.scratch.num_nodes(), self.kind)
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
    /// **Override contract:** the persistent engine recomputes costs as
    /// `edge_cost + distance_cost` from the game's `metric` / `alpha` /
    /// `edge_cost_mode` and never calls this method; the full-BFS reference
    /// scores every candidate on a scratch graph with this method. A game
    /// whose cost deviates from that decomposition is therefore scored
    /// differently by the two engines, and the engine-identity tests report
    /// it as a mismatch.
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
    /// **Override contract:** only the full-BFS reference materialises
    /// `g_after` and calls this method. The persistent engine decides
    /// consent by the rule "some party of [`Game::consent_parties`] sees its
    /// standard `edge + distance` cost strictly increase", and only for
    /// games whose [`Game::needs_consent`] is `true`. A game overriding this
    /// method must override both and keep the rules equivalent, or the two
    /// engines diverge.
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
    /// state of *other* agents (a consent check). The persistent engine then
    /// answers every party's consent from distance-oracle what-if queries
    /// (see [`Game::move_is_blocked`] for the rule both engines must agree
    /// on); the full-BFS reference calls [`Game::move_is_blocked`] on the
    /// applied move.
    fn needs_consent(&self) -> bool {
        false
    }

    /// Appends the agents (other than the mover) whose consent `mv` requires
    /// — for the bilateral game, exactly the newly connected endpoints. Only
    /// consulted by the persistent engine's consent check.
    fn consent_parties(&self, _g: &OwnedGraph, _agent: NodeId, _mv: &Move, _out: &mut Vec<NodeId>) {
    }

    /// All feasible improving moves of agent `u`, in deterministic order.
    fn improving_moves(&self, g: &OwnedGraph, u: NodeId, ws: &mut Workspace) -> Vec<ScoredMove> {
        scan_moves(self, g, u, ws, ScanMode::AllImproving)
    }

    /// All feasible *best-response* moves of agent `u`: the improving moves of
    /// maximal cost decrease, in enumeration order. Empty iff the agent is
    /// happy.
    ///
    /// The scan is first-improving up to the first feasible improving
    /// candidate, so a happy agent costs what [`Game::has_improving_move`]
    /// costs. From there on the persistent engine scores the remaining
    /// candidates in ascending-bound order and stops once no bound can tie
    /// the best feasible cost found; a consent game asks a candidate's
    /// parties only when its exact cost improves and ties or beats that
    /// best.
    fn best_responses(&self, g: &OwnedGraph, u: NodeId, ws: &mut Workspace) -> Vec<ScoredMove> {
        keep_best(scan_moves(self, g, u, ws, ScanMode::BestResponses))
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
/// On the persistent engine the summary is read off `u`'s cached row.
/// The first read after a move brings every cached row current instead of
/// running one BFS per agent: the mover's row is refilled, the rows of its
/// old and new neighbours and the rows that change off the mover's column
/// are repaired by journal replay, and every other row gets its new
/// distance to the mover written in, with its sum, level counts and max
/// bound kept in step — this is what makes the max-cost policy's per-step
/// cost refresh of all `n` agents cheap. The value is
/// [`Game::cost`]'s default, `edge_cost(g, u) + metric(distance summary of
/// u)` on the exact distance vector (see its override contract). The
/// full-BFS reference measures [`Game::cost`] itself.
pub fn workspace_cost<G: Game + ?Sized>(
    game: &G,
    g: &OwnedGraph,
    u: NodeId,
    ws: &mut Workspace,
) -> f64 {
    if ws.kind == OracleKind::Persistent {
        let summary = ws.evaluator.cached_summary(g, u);
        return game.edge_cost_mode().edge_cost(g, u, game.alpha())
            + game.metric().distance_cost(&summary);
    }
    game.cost(g, u, &mut ws.bfs)
}

/// How [`scan_moves`] terminates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScanMode {
    AllImproving,
    FirstImproving,
    /// [`ScanMode::FirstImproving`] up to the first feasible improving
    /// candidate; from there on only the candidates that can still tie the
    /// best feasible cost found. The persistent engine scores those in
    /// ascending-bound order with a cutoff; the full-BFS reference, which
    /// bounds nothing, scores every candidate. Either way every feasible
    /// candidate at the final best cost is kept, in enumeration order, so
    /// the tie set does not depend on the engine.
    BestResponses,
}

/// The improving moves of minimal new cost, in their scan order.
fn keep_best(mut improving: Vec<ScoredMove>) -> Vec<ScoredMove> {
    let best = improving
        .iter()
        .map(|s| s.new_cost)
        .fold(f64::INFINITY, f64::min);
    improving.retain(|s| s.new_cost <= best);
    improving
}

/// Shared candidate-evaluation loop: enumerate candidates, score each from the
/// moving agent's point of view, filter to feasible strict improvements.
///
/// The persistent engine scores every candidate through the workspace's
/// [`CostEvaluator`] as edge deltas against the agent's pinned base distance
/// vector — no graph mutation, no full BFS per candidate — and a consent
/// game's parties through counterpart what-ifs. Only a whole-strategy list
/// that breaks the sorted contract ([`DeltaScore::Unsupported`]) takes the
/// scratch graph. The full-BFS reference scores every candidate on the
/// scratch graph: apply → BFS → undo, with [`Game::move_is_blocked`] for
/// consent.
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
    let delta_path = ws.kind == OracleKind::Persistent;
    // The persistent engine's base cost uses exactly the decomposition of
    // its candidate scores; the reference measures `Game::cost`, like every
    // candidate it scores.
    let old_cost = if delta_path {
        let base_summary = ws.evaluator.begin_agent(g, u);
        edge_mode.edge_cost(g, u, alpha) + metric.distance_cost(&base_summary)
    } else {
        game.cost(g, u, &mut ws.bfs)
    };
    let mut candidates = std::mem::take(&mut ws.candidates);
    candidates.clear();
    game.candidate_moves(g, u, &mut candidates);
    let mut block_bounds = std::mem::take(&mut ws.block_bounds);

    // Candidates ending in an insertion at `u` are bounded before they are
    // scored: first by the O(D) level-histogram bound, then by the O(n)
    // kernel's (exact for a purchase). A deletion is bounded by its
    // neighbour-row summary. A candidate whose bound cost is not an
    // improvement provably does not improve and is dropped, in every mode.
    // In a run of Buys, or of Swaps from one `f`, a block envelope bounds up
    // to `ENVELOPE_BLOCK` consecutive targets at once, and its members are
    // bounded one by one only when it survives. Once a best-response scan
    // has recorded a feasible improving candidate, surviving insertions are
    // not re-scored inline either: they (and surviving blocks) queue up in
    // `pending` and are evaluated in ascending-bound order, stopping once no
    // bound can beat the best exact cost found (an A*-style cutoff). A
    // surviving deletion has no kernel tier and is scored exactly in place,
    // so `best` is known as early as without its bound.
    let mut scan = Scan {
        game,
        g,
        u,
        old_cost,
        metric,
        alpha,
        edge_mode,
        delta_path,
        consent_delta: delta_path && game.needs_consent(),
        order_by_bound: false,
        scratch_synced: false,
        out: Vec::new(),
        out_idx: Vec::new(),
        pending: BinaryHeap::new(),
        best: f64::INFINITY,
        pruned: 0,
    };
    let kernel_calls_before = ncg_trace::enabled().then(|| ws.evaluator.stats().kernel_calls);
    // The run whose block bounds `block_bounds` holds (`None` in the key:
    // the Buys), and whether the oracle served them.
    let mut run: Option<(Option<NodeId>, bool)> = None;
    // Candidates before this index belong to a block that passed its bound
    // and are bounded one by one.
    let mut block_end = 0;
    let mut ci = 0;
    while ci < candidates.len() {
        let mv = &candidates[ci];
        if let Some((key, target)) = run_target(mv).filter(|_| delta_path && ci >= block_end) {
            if run.map(|(k, _)| k) != Some(key) {
                run = Some((key, ws.evaluator.block_bounds(g, u, mv, &mut block_bounds)));
            }
            if run == Some((key, true)) {
                let block = target / ENVELOPE_BLOCK;
                let same_block = |m: &Move| {
                    run_target(m).is_some_and(|(k, t)| k == key && t / ENVELOPE_BLOCK == block)
                };
                let end = ci
                    + candidates[ci..]
                        .iter()
                        .take_while(|m| same_block(m))
                        .count();
                let lb_cost = scan.cost_of(mv, &block_bounds[block]);
                if scan.prunes(lb_cost) {
                    scan.pruned += 1;
                    ci = end;
                    continue;
                }
                if scan.order_by_bound {
                    scan.pending.push(Pending {
                        lb_cost,
                        ci,
                        tier: Tier::Block { end },
                    });
                    ci = end;
                    continue;
                }
                block_end = end;
            }
        }
        if scan.candidate(ws, ci, mv) {
            match mode {
                ScanMode::FirstImproving => break,
                ScanMode::BestResponses => {
                    // Best-only from here on: the rest of the current block
                    // goes back under its block bound.
                    scan.order_by_bound = true;
                    block_end = ci + 1;
                }
                ScanMode::AllImproving => {}
            }
        }
        ci += 1;
    }
    if !scan.pending.is_empty() {
        scan.drain_pending(ws, &candidates);
        // Restore candidate-enumeration order for the tie-breaking RNG.
        let mut paired: Vec<(usize, ScoredMove)> = scan.out_idx.drain(..).zip(scan.out).collect();
        paired.sort_by_key(|&(ci, _)| ci);
        scan.out = paired.into_iter().map(|(_, s)| s).collect();
    }
    let had_candidates = !candidates.is_empty();
    ws.candidates = candidates;
    ws.block_bounds = block_bounds;
    ws.evaluator.record_bound_prunes(scan.pruned);
    if let Some(before) = kernel_calls_before {
        if scan.out.is_empty() && had_candidates && ws.evaluator.stats().kernel_calls == before {
            ncg_trace::add(ncg_trace::Counter::CertifiedHappy, 1);
        }
    }
    scan.out
}

/// The run key and target of a candidate a block envelope can bound: a
/// `Buy` (key `None`) or a `Swap` (key `Some(from)`).
fn run_target(mv: &Move) -> Option<(Option<NodeId>, NodeId)> {
    match *mv {
        Move::Buy { to } => Some((None, to)),
        Move::Swap { from, to } => Some((Some(from), to)),
        _ => None,
    }
}

/// The state of one [`scan_moves`] call.
struct Scan<'s, G: ?Sized> {
    game: &'s G,
    g: &'s OwnedGraph,
    u: NodeId,
    old_cost: f64,
    metric: DistanceMetric,
    alpha: f64,
    edge_mode: EdgeCostMode,
    delta_path: bool,
    consent_delta: bool,
    /// Prune at the best feasible cost, and queue bounded insertions in
    /// `pending` instead of scoring them in place (a best-response scan past
    /// its first feasible improving candidate).
    order_by_bound: bool,
    scratch_synced: bool,
    out: Vec<ScoredMove>,
    /// Original candidate index of each `out` entry (enumeration order must
    /// be restored after the bound-ordered pass — tie-breaking RNG sees it).
    out_idx: Vec<usize>,
    pending: BinaryHeap<Pending>,
    /// Best feasible improving cost recorded so far: once `order_by_bound`
    /// is set, a bound or cost above it is dropped.
    best: f64,
    pruned: u64,
}

impl<G: Game + ?Sized> Scan<'_, G> {
    /// The mover's cost after `mv` with distance summary `summary`.
    fn cost_of(&self, mv: &Move, summary: &DistanceSummary) -> f64 {
        edge_cost_after(self.g, self.u, mv, self.edge_mode, self.alpha)
            + self.metric.distance_cost(summary)
    }

    /// `true` iff a candidate (or block) whose cost is at least `lb_cost`
    /// can be dropped: it does not improve, or a best-response scan already
    /// has a better feasible cost.
    fn prunes(&self, lb_cost: f64) -> bool {
        !is_improvement(self.old_cost, lb_cost) || (self.order_by_bound && lb_cost > self.best)
    }

    /// Bounds, queues or scores candidate `ci` as the scoring loop reaches
    /// it. `true` iff it was recorded as an improving move.
    fn candidate(&mut self, ws: &mut Workspace, ci: usize, mv: &Move) -> bool {
        if !self.delta_path {
            return self.score_on_scratch(ws, ci, mv);
        }
        let (g, u) = (self.g, self.u);
        // Most candidates stop at the level-histogram bound, before the
        // kernel reads `v`'s vector.
        if let Some(lb) = ws.evaluator.level_bound(g, u, mv) {
            let lb_cost = self.cost_of(mv, &lb);
            if self.prunes(lb_cost) {
                self.pruned += 1;
                return false;
            }
            if self.order_by_bound && !matches!(mv, Move::Delete { .. }) {
                self.pending.push(Pending {
                    lb_cost,
                    ci,
                    tier: Tier::Level,
                });
                return false;
            }
        }
        let summary = match ws.evaluator.try_score_bounded(g, u, mv, true) {
            DeltaScore::Summary(summary) => summary,
            DeltaScore::LowerBound(lb) => {
                // The true cost is at least the bound.
                let lb_cost = self.cost_of(mv, &lb);
                if self.prunes(lb_cost) {
                    return false;
                }
                if self.order_by_bound {
                    self.pending.push(Pending {
                        lb_cost,
                        ci,
                        tier: Tier::Kernel,
                    });
                    return false;
                }
                ws.evaluator.score_exact_last()
            }
            DeltaScore::Inapplicable => return false,
            DeltaScore::Unsupported => return self.score_on_scratch(ws, ci, mv),
        };
        let new_cost = self.cost_of(mv, &summary);
        self.record(ws, ci, mv, new_cost, true)
    }

    /// Scores `mv` on the scratch graph, consent included, and records it.
    fn score_on_scratch(&mut self, ws: &mut Workspace, ci: usize, mv: &Move) -> bool {
        let (game, g, u, old_cost) = (self.game, self.g, self.u, self.old_cost);
        match score_on_scratch(game, g, u, mv, ws, &mut self.scratch_synced, old_cost) {
            Some(new_cost) => self.record(ws, ci, mv, new_cost, false),
            None => false,
        }
    }

    /// Keeps candidate `ci` at its exact cost `new_cost` if that cost is not
    /// pruned and no party blocks the move. A delta-scored candidate of a
    /// consent game asks its parties here, and only here: after the pruning
    /// test, while its deltas are still buffered for the counterpart query.
    /// A blocked candidate is never kept, so `best` is always a feasible
    /// cost. `true` iff the candidate was kept.
    fn record(
        &mut self,
        ws: &mut Workspace,
        ci: usize,
        mv: &Move,
        new_cost: f64,
        delta_scored: bool,
    ) -> bool {
        if self.prunes(new_cost)
            || (delta_scored
                && self.consent_delta
                && consent_blocked_delta(self.game, self.g, self.u, mv, ws))
        {
            return false;
        }
        self.out.push(ScoredMove {
            mv: mv.clone(),
            old_cost: self.old_cost,
            new_cost,
        });
        self.out_idx.push(ci);
        self.best = self.best.min(new_cost);
        true
    }

    /// Ascending-bound evaluation with cutoff: once the next bound exceeds
    /// the best feasible cost seen, no remaining candidate can beat (or tie)
    /// it — candidates tying the best have bounds ≤ it and were already
    /// evaluated. A block entry bounds its members one by one, queueing the
    /// survivors; its key is `≤` every member's, so members reach the
    /// kernel in the order they would if each had been queued on its own. A
    /// level-histogram entry first takes the kernel tier (exact for a
    /// purchase, a tighter bound for a swap). Usually only the first few
    /// entries are scored, so a heap stands in for a full sort.
    fn drain_pending(&mut self, ws: &mut Workspace, candidates: &[Move]) {
        let (g, u) = (self.g, self.u);
        while let Some(entry) = self.pending.pop() {
            if entry.lb_cost > self.best {
                self.pruned += std::iter::once(&entry)
                    .chain(self.pending.iter())
                    .filter(|e| e.tier != Tier::Kernel)
                    .count() as u64;
                self.pending.clear();
                break;
            }
            if let Tier::Block { end } = entry.tier {
                for (ci, mv) in candidates.iter().enumerate().take(end).skip(entry.ci) {
                    self.candidate(ws, ci, mv);
                }
                continue;
            }
            let mv = &candidates[entry.ci];
            let summary = match ws
                .evaluator
                .try_score_bounded(g, u, mv, entry.tier == Tier::Level)
            {
                DeltaScore::Summary(summary) => summary,
                DeltaScore::LowerBound(lb) => {
                    if self.prunes(self.cost_of(mv, &lb)) {
                        continue;
                    }
                    ws.evaluator.score_exact_last()
                }
                DeltaScore::Inapplicable | DeltaScore::Unsupported => {
                    debug_assert!(false, "re-scoring a bounded candidate must succeed");
                    continue;
                }
            };
            let new_cost = self.cost_of(mv, &summary);
            self.record(ws, entry.ci, mv, new_cost, true);
        }
    }
}

/// Where a queued entry of the best-response scan's ascending-bound pass
/// stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    /// A block envelope's bound on candidates `ci..end`, none bounded yet.
    Block { end: usize },
    /// A level-histogram bound: the kernel is next.
    Level,
    /// A kernel bound: only the exact score is left.
    Kernel,
}

/// An entry queued for the best-response scan's ascending-bound pass. The
/// heap pops the lowest bound first, ties in enumeration order.
#[derive(Debug, Clone, Copy)]
struct Pending {
    /// Lower bound on the cost of the entry's candidates.
    lb_cost: f64,
    /// Index into the scan's candidate list (a block's first member).
    ci: usize,
    tier: Tier,
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

/// Delta-scored consent: `true` iff some consent party of `mv` sees her
/// standard `edge + distance` cost strictly increase, with both sides of the
/// comparison answered by the evaluator's counterpart query (a copy of the
/// party's row, repaired for the candidate's deltas) — the post-move graph
/// never exists.
///
/// Must run directly after the exact score of the same candidate, whose
/// delta sequence is still buffered in the evaluator.
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

/// The full-BFS reference's scoring, also the persistent engine's path for
/// [`DeltaScore::Unsupported`] candidates: apply `mv` to a scratch copy,
/// measure the real post-move cost with [`Game::cost`] (and, for improving
/// moves, the [`Game::move_is_blocked`] test), undo.
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

/// Appends a `Swap` candidate for every non-neighbour target allowed by the
/// host, with `extend` rather than `push`, so that each move is written
/// straight into `out` (see `GreedyBuyGame::candidate_moves`).
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
        out.extend(std::iter::once(Move::Swap { from, to }));
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
