//! Stability (pure Nash equilibrium) checks and social cost.

use crate::game::{Game, Workspace};
use ncg_graph::{NodeId, OwnedGraph};

/// All agents that currently have a feasible improving move (the set `U_i` of the paper).
pub fn unhappy_agents<G: Game + ?Sized>(
    game: &G,
    g: &OwnedGraph,
    ws: &mut Workspace,
) -> Vec<NodeId> {
    (0..g.num_nodes())
        .filter(|&u| game.has_improving_move(g, u, ws))
        .collect()
}

/// Returns `true` iff no agent has a feasible improving move, i.e. the network is
/// stable (a pure Nash equilibrium of the underlying game; a pairwise Nash
/// equilibrium for the bilateral game).
pub fn is_stable<G: Game + ?Sized>(game: &G, g: &OwnedGraph, ws: &mut Workspace) -> bool {
    (0..g.num_nodes()).all(|u| !game.has_improving_move(g, u, ws))
}

/// Sum of all agents' costs (the social cost).
pub fn social_cost<G: Game + ?Sized>(game: &G, g: &OwnedGraph, ws: &mut Workspace) -> f64 {
    (0..g.num_nodes())
        .map(|u| game.cost(g, u, &mut ws.bfs))
        .sum()
}

/// Costs of all agents in index order.
pub fn cost_vector<G: Game + ?Sized>(game: &G, g: &OwnedGraph, ws: &mut Workspace) -> Vec<f64> {
    (0..g.num_nodes())
        .map(|u| game.cost(g, u, &mut ws.bfs))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::games::{GreedyBuyGame, SwapGame};
    use ncg_graph::generators;

    #[test]
    fn star_is_stable_in_sum_swap_game() {
        let game = SwapGame::sum();
        let g = generators::star(8);
        let mut ws = Workspace::new(8);
        assert!(is_stable(&game, &g, &mut ws));
        assert!(unhappy_agents(&game, &g, &mut ws).is_empty());
    }

    #[test]
    fn path_is_not_stable() {
        let game = SwapGame::sum();
        let g = generators::path(6);
        let mut ws = Workspace::new(6);
        assert!(!is_stable(&game, &g, &mut ws));
        let unhappy = unhappy_agents(&game, &g, &mut ws);
        assert!(unhappy.contains(&0) && unhappy.contains(&5));
    }

    #[test]
    fn social_cost_of_star_sum_swap() {
        let game = SwapGame::sum();
        let n = 6;
        let g = generators::star(n);
        let mut ws = Workspace::new(n);
        // Center: n-1. Each leaf: 1 + 2(n-2).
        let expected = (n - 1) as f64 + (n - 1) as f64 * (1.0 + 2.0 * (n - 2) as f64);
        assert_eq!(social_cost(&game, &g, &mut ws), expected);
    }

    #[test]
    fn cost_vector_matches_social_cost() {
        let game = GreedyBuyGame::sum(1.5);
        let g = generators::path(5);
        let mut ws = Workspace::new(5);
        let vec = cost_vector(&game, &g, &mut ws);
        let sum: f64 = vec.iter().sum();
        assert!((sum - social_cost(&game, &g, &mut ws)).abs() < 1e-9);
        assert_eq!(vec.len(), 5);
    }
}
