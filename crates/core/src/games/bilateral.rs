//! The bilateral equal-split Buy Game ("bilateral network formation",
//! Corbo & Parkes PODC'05), studied in §5 of the paper.
//!
//! Strategies are *neighbour sets*: an agent proposes the set of agents she wants to
//! be adjacent to. Deleting an incident edge is a unilateral move, but creating a new
//! edge requires the other endpoint's consent — agent `x` blocks the move if her cost
//! would strictly increase. Every incident edge costs each endpoint `α / 2`.
//! Stable states of this game are pairwise Nash equilibria.

use crate::cost::{agent_cost_total, DistanceMetric, EdgeCostMode};
use crate::game::Game;
use crate::moves::Move;
use ncg_graph::{BfsBuffer, HostGraph, NodeId, OwnedGraph};

/// Maximum number of candidate strategy vertices before enumeration is refused.
const MAX_STRATEGY_POOL: usize = 20;

/// The bilateral equal-split Buy Game (SUM or MAX) with edge price `alpha`.
#[derive(Debug, Clone)]
pub struct BilateralBuyGame {
    metric: DistanceMetric,
    alpha: f64,
    host: HostGraph,
}

impl BilateralBuyGame {
    /// Bilateral game with the given metric and edge price on the complete host.
    pub fn new(metric: DistanceMetric, alpha: f64) -> Self {
        assert!(alpha > 0.0, "the edge price α must be positive");
        BilateralBuyGame {
            metric,
            alpha,
            host: HostGraph::Complete,
        }
    }

    /// The SUM bilateral equal-split BG.
    pub fn sum(alpha: f64) -> Self {
        Self::new(DistanceMetric::Sum, alpha)
    }

    /// The MAX bilateral equal-split BG.
    pub fn max(alpha: f64) -> Self {
        Self::new(DistanceMetric::Max, alpha)
    }

    /// Restricts edge creation to a host graph.
    pub fn with_host(mut self, host: HostGraph) -> Self {
        self.host = host;
        self
    }

    /// Vertices that can appear in a strategy of `u`: current neighbours (keeping an
    /// edge never needs consent) plus host-allowed non-neighbours.
    fn strategy_pool(&self, g: &OwnedGraph, u: NodeId) -> Vec<NodeId> {
        (0..g.num_nodes())
            .filter(|&v| v != u && (g.has_edge(u, v) || self.host.allows(u, v)))
            .collect()
    }
}

impl Game for BilateralBuyGame {
    fn name(&self) -> String {
        format!("{} bilateral equal-split BG", self.metric.label())
    }

    fn metric(&self) -> DistanceMetric {
        self.metric
    }

    fn alpha(&self) -> f64 {
        self.alpha
    }

    fn edge_cost_mode(&self) -> EdgeCostMode {
        EdgeCostMode::EqualSplit
    }

    fn host(&self) -> &HostGraph {
        &self.host
    }

    fn needs_consent(&self) -> bool {
        // Blocking is exactly "a newly connected agent's equal-split cost
        // strictly increases", and `cost` keeps the standard decomposition,
        // so the persistent engine answers consent from counterpart what-if
        // queries.
        true
    }

    fn consent_parties(&self, g: &OwnedGraph, agent: NodeId, mv: &Move, out: &mut Vec<NodeId>) {
        let Move::SetNeighbors { new_neighbors } = mv else {
            return;
        };
        for &v in new_neighbors {
            if !g.has_edge(agent, v) {
                out.push(v);
            }
        }
    }

    fn candidate_moves(&self, g: &OwnedGraph, u: NodeId, out: &mut Vec<Move>) {
        let pool = self.strategy_pool(g, u);
        assert!(
            pool.len() <= MAX_STRATEGY_POOL,
            "BilateralBuyGame::candidate_moves enumerates 2^|pool| strategies; |pool| = {} exceeds {}.",
            pool.len(),
            MAX_STRATEGY_POOL
        );
        let current: Vec<NodeId> = g.neighbors(u).to_vec();
        let k = pool.len();
        // Gray-code order, mirroring BuyGame::candidate_moves: consecutive
        // candidates share a long delta prefix on the persistent oracle.
        for i in 0u64..(1u64 << k) {
            let mask = i ^ (i >> 1);
            let new_neighbors: Vec<NodeId> = (0..k)
                .filter(|&b| mask & (1 << b) != 0)
                .map(|b| pool[b])
                .collect();
            if new_neighbors == current {
                continue;
            }
            // `extend`, not `push`: see `GreedyBuyGame::candidate_moves`.
            out.extend(std::iter::once(Move::SetNeighbors { new_neighbors }));
        }
    }

    fn move_is_blocked(
        &self,
        g_before: &OwnedGraph,
        agent: NodeId,
        mv: &Move,
        g_after: &OwnedGraph,
        buf: &mut BfsBuffer,
    ) -> bool {
        let Move::SetNeighbors { new_neighbors } = mv else {
            return false;
        };
        // A move is blocked if some *newly connected* agent's cost strictly increases.
        for &v in new_neighbors {
            if g_before.has_edge(agent, v) {
                continue; // existing edge: no consent needed to keep it
            }
            let before = agent_cost_total(
                g_before,
                v,
                self.metric,
                self.alpha,
                EdgeCostMode::EqualSplit,
                buf,
            );
            let after = agent_cost_total(
                g_after,
                v,
                self.metric,
                self.alpha,
                EdgeCostMode::EqualSplit,
                buf,
            );
            if after > before {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::Workspace;
    use ncg_graph::generators;
    use ncg_graph::oracle::OracleKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn delta_consent_scan_matches_apply_undo_scan() {
        // The persistent workspace scores candidates (and consent) through
        // oracle what-ifs; the full-BFS one takes the reference
        // apply → BFS → undo path. Same states, identical scored-move lists.
        let mut rng = StdRng::seed_from_u64(5);
        for trial in 0..8u64 {
            let n = 8;
            let g = generators::random_with_m_edges(n, 10 + (trial % 4) as usize, &mut rng);
            for &alpha in &[0.6, 2.0, 6.0] {
                for game in [BilateralBuyGame::sum(alpha), BilateralBuyGame::max(alpha)] {
                    let mut fast = Workspace::with_oracle(n, OracleKind::Persistent);
                    let mut slow = Workspace::with_oracle(n, OracleKind::FullBfs);
                    for u in 0..n {
                        let a = game.improving_moves(&g, u, &mut fast);
                        let b = game.improving_moves(&g, u, &mut slow);
                        assert_eq!(a, b, "trial {trial} α={alpha} {} agent {u}", game.name());
                        // The best-response scan, which asks consent in
                        // bound order, must return the reference's set (and
                        // order).
                        let a = game.best_responses(&g, u, &mut fast);
                        let b = game.best_responses(&g, u, &mut slow);
                        assert_eq!(
                            a,
                            b,
                            "best responses: trial {trial} α={alpha} {} agent {u}",
                            game.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn name_mentions_bilateral() {
        assert!(BilateralBuyGame::sum(1.0).name().contains("bilateral"));
    }

    #[test]
    fn consent_blocks_harmful_edges() {
        // Star with center 0 and α = 4: a leaf would love an edge to another leaf
        // only if it helped; with SUM cost the distance gain is 1 but the price α/2 = 2,
        // so no leaf proposes it. Let α = 1 instead: the distance gain (1) vs price 0.5
        // is positive for both endpoints, so the move is feasible and improving.
        let g = generators::star(4);
        let mut ws = Workspace::new(4);
        let cheap = BilateralBuyGame::sum(1.0);
        let br = cheap.best_response(&g, 1, &mut ws);
        assert!(
            br.is_some(),
            "with a cheap α a leaf-leaf edge is mutually beneficial"
        );
        let pricey = BilateralBuyGame::sum(4.0);
        let br = pricey.best_response(&g, 1, &mut ws);
        assert!(
            br.is_none(),
            "with an expensive α every proposal is blocked or not improving"
        );
    }

    #[test]
    fn unilateral_deletion_is_never_blocked() {
        // Triangle with α large: dropping an edge saves α/2 and costs 1 extra distance.
        let mut g = generators::path(3);
        g.add_edge(2, 0);
        let game = BilateralBuyGame::sum(4.0);
        let mut ws = Workspace::new(3);
        let br = game
            .best_response(&g, 0, &mut ws)
            .expect("deletion is improving");
        match &br.mv {
            Move::SetNeighbors { new_neighbors } => assert_eq!(new_neighbors.len(), 1),
            other => panic!("unexpected move {other:?}"),
        }
    }

    #[test]
    fn equal_split_edge_cost_in_scores() {
        let g = generators::path(3);
        let game = BilateralBuyGame::sum(2.0);
        let mut ws = Workspace::new(3);
        let cost_mid = game.cost(&g, 1, &mut ws.bfs);
        // degree 2 → edge cost 2·(α/2) = 2, distance 2.
        assert_eq!(cost_mid, 4.0);
    }

    #[test]
    fn blocked_check_only_applies_to_new_neighbors() {
        let g = generators::path(4);
        let game = BilateralBuyGame::sum(10.0);
        let mut buf = BfsBuffer::new(4);
        // Keeping the existing neighbour set minus one is never blocked.
        let mv = Move::SetNeighbors {
            new_neighbors: vec![1],
        };
        let mut after = g.clone();
        crate::moves::apply_move(&mut after, 2, &mv).unwrap();
        assert!(!game.move_is_blocked(&g, 2, &mv, &after, &mut buf));
    }
}
