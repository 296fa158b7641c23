//! Stability (pure Nash equilibrium) checks and social cost.

use crate::game::{Game, Workspace};
use ncg_graph::oracle::OracleKind;
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

/// Shared scaffolding for chunked parallel per-agent scans: evaluates
/// `per_agent` for every agent `0..n`, distributing the agents over scoped
/// worker threads. Workspaces are reused from (and lazily added to) `pool`,
/// one per thread, so repeated scans allocate nothing.
pub(crate) fn scan_agents_parallel<G, T, F>(
    game: &G,
    g: &OwnedGraph,
    kind: OracleKind,
    threads: usize,
    pool: &mut Vec<Workspace>,
    per_agent: F,
) -> Vec<T>
where
    G: Game + Sync + ?Sized,
    T: Send + Default + Clone,
    F: Fn(&G, &OwnedGraph, NodeId, &mut Workspace) -> T + Sync,
{
    let n = g.num_nodes();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    let chunk = n.div_ceil(threads);
    while pool.len() < threads {
        pool.push(Workspace::with_oracle(n, kind));
    }
    let mut results = vec![T::default(); n];
    std::thread::scope(|scope| {
        for ((tid, slots), ws) in results.chunks_mut(chunk).enumerate().zip(pool.iter_mut()) {
            let start = tid * chunk;
            let per_agent = &per_agent;
            scope.spawn(move || {
                for (off, slot) in slots.iter_mut().enumerate() {
                    *slot = per_agent(game, g, start + off, ws);
                }
            });
        }
    });
    results
}

/// Like [`unhappy_agents`], but distributes the per-agent unhappiness checks
/// over `threads` scoped worker threads, each with its own workspace of the
/// given oracle backend. The result is identical (and sorted by agent index).
pub fn unhappy_agents_parallel<G: Game + Sync + ?Sized>(
    game: &G,
    g: &OwnedGraph,
    kind: OracleKind,
    threads: usize,
) -> Vec<NodeId> {
    let mut pool = Vec::new();
    let unhappy = scan_agents_parallel(game, g, kind, threads, &mut pool, |game, g, u, ws| {
        game.has_improving_move(g, u, ws)
    });
    unhappy
        .into_iter()
        .enumerate()
        .filter_map(|(u, bad)| bad.then_some(u))
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
    fn parallel_unhappy_scan_matches_sequential() {
        let game = GreedyBuyGame::sum(3.0);
        let g = generators::path(12);
        let mut ws = Workspace::new(12);
        let sequential = unhappy_agents(&game, &g, &mut ws);
        for threads in [1usize, 2, 5, 32] {
            let parallel = unhappy_agents_parallel(&game, &g, OracleKind::Persistent, threads);
            assert_eq!(parallel, sequential, "threads={threads}");
        }
        let empty = ncg_graph::OwnedGraph::new(0);
        assert!(unhappy_agents_parallel(&game, &empty, OracleKind::FullBfs, 4).is_empty());
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
