//! The original Network Creation Game of Fabrikant et al. (PODC'03), here called the
//! Buy Game.
//!
//! An admissible strategy change of agent `u` replaces her owned-neighbour set by an
//! *arbitrary* subset of `V \ {u}` (any combination of buying, deleting and swapping
//! own edges). Computing a best response is NP-hard in general; this implementation
//! enumerates all strategies and is therefore only suitable for the small
//! hand-constructed instances of the paper (≲ 20 relevant vertices). The empirical
//! study uses the Greedy Buy Game instead, exactly as in the paper.

use crate::cost::{DistanceMetric, EdgeCostMode};
use crate::game::Game;
use crate::moves::Move;
use ncg_graph::{HostGraph, NodeId, OwnedGraph};

/// Maximum number of candidate strategy vertices before enumeration is refused.
const MAX_STRATEGY_POOL: usize = 20;

/// The Buy Game (BG) in SUM or MAX flavour with edge price `alpha`.
#[derive(Debug, Clone)]
pub struct BuyGame {
    metric: DistanceMetric,
    alpha: f64,
    host: HostGraph,
}

impl BuyGame {
    /// Buy game with the given metric and edge price on the complete host graph.
    pub fn new(metric: DistanceMetric, alpha: f64) -> Self {
        assert!(alpha > 0.0, "the edge price α must be positive");
        BuyGame {
            metric,
            alpha,
            host: HostGraph::Complete,
        }
    }

    /// The SUM-BG.
    pub fn sum(alpha: f64) -> Self {
        Self::new(DistanceMetric::Sum, alpha)
    }

    /// The MAX-BG.
    pub fn max(alpha: f64) -> Self {
        Self::new(DistanceMetric::Max, alpha)
    }

    /// Restricts edge creation to a host graph (Cor. 4.2).
    pub fn with_host(mut self, host: HostGraph) -> Self {
        self.host = host;
        self
    }

    /// The pool of vertices that can appear in a useful strategy of `u`:
    /// currently owned neighbours plus non-adjacent, host-allowed vertices.
    /// Vertices adjacent via a *foreign-owned* edge are excluded — paying for an
    /// edge the other endpoint already maintains is strictly dominated.
    fn strategy_pool(&self, g: &OwnedGraph, u: NodeId) -> Vec<NodeId> {
        (0..g.num_nodes())
            .filter(|&v| {
                v != u
                    && if g.has_edge(u, v) {
                        g.owns_edge(u, v)
                    } else {
                        self.host.allows(u, v)
                    }
            })
            .collect()
    }
}

impl Game for BuyGame {
    fn name(&self) -> String {
        format!("{}-BG", self.metric.label())
    }

    fn metric(&self) -> DistanceMetric {
        self.metric
    }

    fn alpha(&self) -> f64 {
        self.alpha
    }

    fn edge_cost_mode(&self) -> EdgeCostMode {
        EdgeCostMode::OwnerPays
    }

    fn host(&self) -> &HostGraph {
        &self.host
    }

    fn candidate_moves(&self, g: &OwnedGraph, u: NodeId, out: &mut Vec<Move>) {
        let pool = self.strategy_pool(g, u);
        assert!(
            pool.len() <= MAX_STRATEGY_POOL,
            "BuyGame::candidate_moves enumerates 2^|pool| strategies; |pool| = {} exceeds {}. \
             Use GreedyBuyGame for large instances (as the paper does).",
            pool.len(),
            MAX_STRATEGY_POOL
        );
        let current: Vec<NodeId> = g.owned_neighbors(u).to_vec();
        let k = pool.len();
        // Reflected-Gray-code order: consecutive masks toggle exactly one
        // (usually low) pool element. Combined with the evaluator's
        // descending-vertex delta sequences this lets the persistent oracle
        // reuse the shared high-element delta prefix between consecutive
        // candidates, so the exponential enumeration pays each prefix repair
        // once instead of once per subset.
        for i in 0u64..(1u64 << k) {
            let mask = i ^ (i >> 1);
            let new_owned: Vec<NodeId> = (0..k)
                .filter(|&b| mask & (1 << b) != 0)
                .map(|b| pool[b])
                .collect();
            if new_owned == current {
                continue; // the unchanged strategy is never an improving move
            }
            out.push(Move::SetOwned { new_owned });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::Workspace;
    use ncg_graph::generators;

    #[test]
    fn names() {
        assert_eq!(BuyGame::sum(1.0).name(), "SUM-BG");
        assert_eq!(BuyGame::max(1.0).name(), "MAX-BG");
    }

    #[test]
    fn strategy_pool_excludes_foreign_owned_neighbors() {
        // 1 owns {1,0}: vertex 0's pool must not contain 1.
        let g = OwnedGraph::from_owned_edges(4, &[(1, 0), (0, 2)]);
        let game = BuyGame::sum(1.0);
        assert_eq!(game.strategy_pool(&g, 0), vec![2, 3]);
    }

    #[test]
    fn candidate_count_is_exponential_in_pool() {
        let g = generators::path(4);
        let game = BuyGame::sum(1.0);
        let mut out = Vec::new();
        game.candidate_moves(&g, 0, &mut out);
        // Pool of vertex 0 = {1, 2, 3} (owns {0,1}); 2^3 subsets minus the current one.
        assert_eq!(out.len(), 7);
    }

    #[test]
    fn best_response_on_path_matches_exhaustive_expectation() {
        // P4 = 0->1->2->3 with α slightly below 1: buying shortcuts pays off for 0.
        let g = generators::path(4);
        let game = BuyGame::sum(0.9);
        let mut ws = Workspace::new(4);
        let br = game.best_response(&g, 0, &mut ws).unwrap();
        // Cheapest α: connect to everybody, distance-cost 3, edge cost 2.7 => 5.7
        // versus keeping {1} (cost 0.9 + 6 = 6.9) or {2} (0.9 + 1+2+1? ...).
        assert_eq!(
            br.mv,
            Move::SetOwned {
                new_owned: vec![1, 2, 3]
            }
        );
        assert!((br.new_cost - (3.0 * 0.9 + 3.0)).abs() < 1e-9);
    }

    #[test]
    fn greedy_moves_are_a_subset_of_buy_moves() {
        use crate::games::GreedyBuyGame;
        // Every improving greedy move must be matched or beaten by the BG best response.
        let g = generators::path(5);
        let alpha = 1.2;
        let bg = BuyGame::sum(alpha);
        let gbg = GreedyBuyGame::sum(alpha);
        let mut ws = Workspace::new(5);
        for u in 0..5 {
            let greedy_best = gbg.best_response(&g, u, &mut ws).map(|s| s.new_cost);
            let full_best = bg.best_response(&g, u, &mut ws).map(|s| s.new_cost);
            match (greedy_best, full_best) {
                (Some(gc), Some(fc)) => assert!(fc <= gc + 1e-12, "agent {u}: {fc} vs {gc}"),
                (Some(_), None) => panic!("agent {u}: greedy improves but BG does not"),
                _ => {}
            }
        }
    }

    #[test]
    fn deleting_everything_is_a_candidate_but_never_improving_when_bridge() {
        let g = generators::path(3);
        let game = BuyGame::sum(5.0);
        let mut ws = Workspace::new(3);
        let improving = game.improving_moves(&g, 1, &mut ws);
        assert!(improving
            .iter()
            .all(|s| !matches!(&s.mv, Move::SetOwned { new_owned } if new_owned.is_empty())));
    }
}
