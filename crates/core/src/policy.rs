//! Move policies: who is allowed to move in the current state.
//!
//! A move policy only decides *which* unhappy agent moves, never *which* move she
//! performs (paper §1.1: "we do not consider such strong policies"). The paper's
//! results use the **max cost** policy and, in the experiments, the **random**
//! policy; min-index is provided as an additional natural baseline and for the
//! adversarial constructions in the tests.

use crate::game::{Game, ScoredMove, Workspace};
use ncg_graph::{NodeId, OwnedGraph};
use rand::seq::SliceRandom;
use rand::Rng;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Which unhappy agent is selected to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// The unhappy agent of maximum cost moves; ties broken according to
    /// [`TieBreak`]. This is the paper's *max cost policy*.
    MaxCost,
    /// A uniformly random unhappy agent moves (the paper's experimental
    /// *random policy*).
    Random,
    /// The unhappy agent with the smallest index moves (used in the Fig. 1
    /// lower-bound construction).
    MinIndex,
}

/// How ties (among maximum-cost agents, or among equally good best responses)
/// are broken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TieBreak {
    /// Lowest agent index / lexicographically smallest move. Fully reproducible
    /// independent of the RNG; matches the tie-breaking used in the paper's proofs.
    Deterministic,
    /// Uniformly at random (the paper's experimental setup).
    Random,
}

impl Policy {
    /// Human-readable label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            Policy::MaxCost => "max cost",
            Policy::Random => "random",
            Policy::MinIndex => "min index",
        }
    }

    /// Inverse of [`Policy::label`] (plan-spec round trips).
    pub fn parse(s: &str) -> Option<Policy> {
        match s {
            "max cost" => Some(Policy::MaxCost),
            "random" => Some(Policy::Random),
            "min index" => Some(Policy::MinIndex),
            _ => None,
        }
    }

    /// Selects the moving agent in state `g`, or `None` if every agent is happy
    /// (the state is stable).
    pub fn select_mover<G: Game + ?Sized, R: Rng>(
        &self,
        game: &G,
        g: &OwnedGraph,
        ws: &mut Workspace,
        tie_break: TieBreak,
        rng: &mut R,
    ) -> Option<NodeId> {
        let order = self.scan_order(game, g, ws, tie_break, rng);
        first_unhappy(order, ws, |u, ws| {
            game.has_improving_move(g, u, ws).then_some(())
        })
        .map(|(mover, ())| mover)
    }

    /// [`Policy::select_mover`], also returning the mover's best responses:
    /// the first agent in the policy's order whose
    /// [`Game::best_responses`] are not empty. That scan is first-improving
    /// until it finds a feasible improving move, so the mover, the agents
    /// scanned before it and the RNG draws are the same as `select_mover`'s,
    /// and each agent, the mover included, is scanned once.
    pub(crate) fn select_mover_with_responses<G: Game + ?Sized, R: Rng>(
        &self,
        game: &G,
        g: &OwnedGraph,
        ws: &mut Workspace,
        tie_break: TieBreak,
        rng: &mut R,
    ) -> Option<(NodeId, Vec<ScoredMove>)> {
        let order = self.scan_order(game, g, ws, tie_break, rng);
        first_unhappy(order, ws, |u, ws| {
            let responses = game.best_responses(g, u, ws);
            (!responses.is_empty()).then_some(responses)
        })
    }

    /// The order in which the policy scans the agents for a mover.
    fn scan_order<G: Game + ?Sized, R: Rng>(
        &self,
        game: &G,
        g: &OwnedGraph,
        ws: &mut Workspace,
        tie_break: TieBreak,
        rng: &mut R,
    ) -> impl Iterator<Item = NodeId> {
        let n = g.num_nodes();
        let mut order: Vec<NodeId> = (0..n).collect();
        // The max-cost scan usually stops after a few agents, so it pops
        // them from a heap instead of sorting all `n`.
        let mut by_cost = BinaryHeap::new();
        match self {
            Policy::MaxCost => {
                if tie_break == TieBreak::Random {
                    order.shuffle(rng);
                }
                // `workspace_cost` serves the per-agent costs from the
                // persistent oracle's cross-step cache when available — the
                // value is identical to `Game::cost`, so mover selection (and
                // hence the trajectory) does not depend on the backend.
                let _sp = ncg_trace::span(ncg_trace::Phase::CostRefresh);
                let costs: Vec<f64> = (0..n)
                    .map(|u| crate::game::workspace_cost(game, g, u, ws))
                    .collect();
                by_cost = order
                    .drain(..)
                    .enumerate()
                    .map(|(position, agent)| Ranked {
                        cost: costs[agent],
                        position,
                        agent,
                    })
                    .collect();
            }
            Policy::Random => {
                order.shuffle(rng);
            }
            Policy::MinIndex => {}
        }
        // The max-cost heap first, then the plain order (one is empty).
        std::iter::from_fn(move || by_cost.pop().map(|r| r.agent)).chain(order)
    }
}

/// The first agent of `order` that `unhappy` answers for, with the answer.
fn first_unhappy<T>(
    mut order: impl Iterator<Item = NodeId>,
    ws: &mut Workspace,
    mut unhappy: impl FnMut(NodeId, &mut Workspace) -> Option<T>,
) -> Option<(NodeId, T)> {
    let mut scanned = 0u64;
    let found = order.find_map(|u| {
        scanned += 1;
        unhappy(u, ws).map(|answer| (u, answer))
    });
    ncg_trace::add(ncg_trace::Counter::AgentsScanned, scanned);
    ncg_trace::record(ncg_trace::HistId::ScanWidth, scanned);
    if found.is_some() {
        ncg_trace::add(ncg_trace::Counter::ImprovingMoves, 1);
    }
    found
}

/// An agent in the max-cost scan order: the heap pops the highest cost
/// first, ties in shuffled position order — the order a stable sort by
/// descending cost gives, so the shuffle implements random tie-breaking.
#[derive(Debug)]
struct Ranked {
    cost: f64,
    /// Position in the (possibly shuffled) agent order.
    position: usize,
    agent: NodeId,
}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cost
            .partial_cmp(&other.cost)
            .expect("costs are never NaN")
            .then(other.position.cmp(&self.position))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::games::{AsymSwapGame, SwapGame};
    use ncg_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn labels() {
        assert_eq!(Policy::MaxCost.label(), "max cost");
        assert_eq!(Policy::Random.label(), "random");
    }

    #[test]
    fn max_cost_policy_selects_a_leaf_on_trees() {
        // Observation 2.12: an agent of maximum cost in a tree is a leaf.
        let game = SwapGame::max();
        let g = generators::path(7);
        let mut ws = Workspace::new(7);
        let mut rng = StdRng::seed_from_u64(0);
        let mover = Policy::MaxCost
            .select_mover(&game, &g, &mut ws, TieBreak::Deterministic, &mut rng)
            .expect("path is not stable");
        assert!(
            g.degree(mover) == 1,
            "max-cost mover must be a leaf, got {mover}"
        );
        // Deterministic tie-break picks the lowest-index endpoint.
        assert_eq!(mover, 0);
    }

    #[test]
    fn ranked_heap_pops_in_stable_sort_order() {
        // Few distinct costs (ties everywhere, infinite costs included) in a
        // shuffled agent order: popping the heap must reproduce the stable
        // descending sort the max-cost scan order is defined by.
        let mut rng = StdRng::seed_from_u64(5);
        for n in [0usize, 1, 2, 7, 40] {
            let costs: Vec<f64> = (0..n)
                .map(|_| [1.0, 2.5, 2.5, f64::INFINITY][rng.gen_range(0..4)])
                .collect();
            let mut order: Vec<NodeId> = (0..n).collect();
            order.shuffle(&mut rng);
            let mut heap: BinaryHeap<Ranked> = order
                .iter()
                .enumerate()
                .map(|(position, &agent)| Ranked {
                    cost: costs[agent],
                    position,
                    agent,
                })
                .collect();
            let popped: Vec<NodeId> = std::iter::from_fn(|| heap.pop().map(|r| r.agent)).collect();
            order.sort_by(|&a, &b| costs[b].partial_cmp(&costs[a]).unwrap());
            assert_eq!(popped, order, "n = {n}");
        }
    }

    #[test]
    fn stable_state_selects_nobody() {
        let game = SwapGame::sum();
        let g = generators::star(6);
        let mut ws = Workspace::new(6);
        let mut rng = StdRng::seed_from_u64(0);
        for p in [Policy::MaxCost, Policy::Random, Policy::MinIndex] {
            assert_eq!(
                p.select_mover(&game, &g, &mut ws, TieBreak::Random, &mut rng),
                None
            );
        }
    }

    #[test]
    fn min_index_policy_moves_the_lowest_unhappy_agent() {
        let game = AsymSwapGame::sum();
        let g = generators::path(6);
        let mut ws = Workspace::new(6);
        let mut rng = StdRng::seed_from_u64(1);
        let first = Policy::MinIndex
            .select_mover(&game, &g, &mut ws, TieBreak::Deterministic, &mut rng)
            .unwrap();
        assert_eq!(first, 0, "vertex 0 owns an edge and can improve");
    }

    #[test]
    fn random_policy_only_picks_unhappy_agents() {
        let game = AsymSwapGame::sum();
        let g = generators::path(8);
        let mut ws = Workspace::new(8);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let u = Policy::Random
                .select_mover(&game, &g, &mut ws, TieBreak::Random, &mut rng)
                .unwrap();
            assert!(game.has_improving_move(&g, u, &mut ws));
        }
    }
}
