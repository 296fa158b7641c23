//! The Greedy Buy Game of Lenzner (WINE'12).
//!
//! In each step an agent may buy one new edge, delete one owned edge, or swap one
//! owned edge. The edge price α is paid per owned edge. Best responses are
//! computable in polynomial time (in contrast to the full Buy Game), which is why
//! the paper's empirical study (§4.2) simulates this variant.

use crate::cost::{DistanceMetric, EdgeCostMode};
use crate::game::{push_swap_targets, Game};
use crate::moves::Move;
use ncg_graph::{HostGraph, NodeId, OwnedGraph};

/// The Greedy Buy Game (GBG) in SUM or MAX flavour with edge price `alpha`.
#[derive(Debug, Clone)]
pub struct GreedyBuyGame {
    metric: DistanceMetric,
    alpha: f64,
    host: HostGraph,
}

impl GreedyBuyGame {
    /// Greedy buy game with the given metric and edge price on the complete host.
    pub fn new(metric: DistanceMetric, alpha: f64) -> Self {
        assert!(alpha > 0.0, "the edge price α must be positive");
        GreedyBuyGame {
            metric,
            alpha,
            host: HostGraph::Complete,
        }
    }

    /// The SUM-GBG.
    pub fn sum(alpha: f64) -> Self {
        Self::new(DistanceMetric::Sum, alpha)
    }

    /// The MAX-GBG.
    pub fn max(alpha: f64) -> Self {
        Self::new(DistanceMetric::Max, alpha)
    }

    /// Restricts edge creation to a host graph (Cor. 4.2).
    pub fn with_host(mut self, host: HostGraph) -> Self {
        self.host = host;
        self
    }
}

impl Game for GreedyBuyGame {
    fn name(&self) -> String {
        format!("{}-GBG", self.metric.label())
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
        // `extend` grows the buffer before it builds the move, so the move is
        // written straight into it. A `push` may build the move on the stack
        // and copy it with one 32-byte load that waits on the two narrower
        // stores before it (a store-forwarding stall per candidate), which
        // made this loop take twice as long in some builds.
        // Deletions of owned edges.
        for &to in g.owned_neighbors(u) {
            out.extend(std::iter::once(Move::Delete { to }));
        }
        // Swaps of owned edges.
        for &from in g.owned_neighbors(u) {
            push_swap_targets(g, &self.host, u, from, out);
        }
        // Purchases of new edges.
        for to in 0..g.num_nodes() {
            if to != u && !g.has_edge(u, to) && self.host.allows(u, to) {
                out.extend(std::iter::once(Move::Buy { to }));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::Workspace;
    use ncg_graph::generators;

    #[test]
    fn names_and_alpha() {
        assert_eq!(GreedyBuyGame::sum(1.0).name(), "SUM-GBG");
        assert_eq!(GreedyBuyGame::max(2.0).name(), "MAX-GBG");
        assert_eq!(GreedyBuyGame::sum(3.5).alpha(), 3.5);
    }

    #[test]
    #[should_panic]
    fn zero_alpha_is_rejected() {
        let _ = GreedyBuyGame::sum(0.0);
    }

    #[test]
    fn candidate_move_kinds() {
        let g = generators::path(4);
        let game = GreedyBuyGame::sum(1.0);
        let mut out = Vec::new();
        game.candidate_moves(&g, 0, &mut out);
        // Vertex 0 owns {0,1}: it may delete it, swap it to 2 or 3, or buy {0,2}, {0,3}.
        assert!(out.contains(&Move::Delete { to: 1 }));
        assert!(out.contains(&Move::Swap { from: 1, to: 2 }));
        assert!(out.contains(&Move::Swap { from: 1, to: 3 }));
        assert!(out.contains(&Move::Buy { to: 2 }));
        assert!(out.contains(&Move::Buy { to: 3 }));
        assert_eq!(out.len(), 5);
        // Vertex 3 owns nothing: it may only buy.
        out.clear();
        game.candidate_moves(&g, 3, &mut out);
        assert_eq!(out, vec![Move::Buy { to: 0 }, Move::Buy { to: 1 }]);
    }

    #[test]
    fn cheap_edges_get_bought_expensive_edges_get_dropped() {
        let g = generators::path(5);
        let mut ws = Workspace::new(5);
        // With a very cheap edge price, the far endpoint buys a shortcut.
        let cheap = GreedyBuyGame::sum(0.5);
        let br = cheap.best_response(&g, 4, &mut ws).unwrap();
        assert!(
            matches!(br.mv, Move::Buy { .. }),
            "expected a purchase, got {:?}",
            br.mv
        );
        // With a very expensive edge price, an agent owning a non-bridge edge deletes it.
        let mut h = generators::path(4);
        h.add_edge(0, 3); // cycle; every edge is now deletable
        let pricey = GreedyBuyGame::sum(100.0);
        let br = pricey.best_response(&h, 0, &mut ws).unwrap();
        assert!(
            matches!(br.mv, Move::Delete { .. }),
            "expected a deletion, got {:?}",
            br.mv
        );
    }

    #[test]
    fn deleting_a_bridge_is_never_improving() {
        let g = generators::path(4);
        let game = GreedyBuyGame::sum(1000.0);
        let mut ws = Workspace::new(4);
        let improving = game.improving_moves(&g, 0, &mut ws);
        assert!(
            improving
                .iter()
                .all(|s| !matches!(s.mv, Move::Delete { .. })),
            "deleting the only incident edge disconnects the agent (cost ∞)"
        );
    }

    #[test]
    fn max_version_star_is_stable_for_large_alpha() {
        // In the MAX-GBG with α > 1 a star is stable: the center cannot delete
        // (disconnection) and nobody can reduce their eccentricity below 1/2 by α-priced edges.
        let g = generators::star(6);
        let game = GreedyBuyGame::max(1.5);
        let mut ws = Workspace::new(6);
        for u in 0..6 {
            assert!(
                !game.has_improving_move(&g, u, &mut ws),
                "agent {u} should be happy"
            );
        }
    }
}
