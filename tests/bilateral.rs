//! Integration tests for the bilateral equal-split Buy Game of Section 5
//! (Corbo & Parkes' "bilateral network formation").
//!
//! Reproduction status of Thm 5.1 / 5.2: the paper's Fig. 15 / Fig. 16
//! constructions behind them are only published as figures, and the arXiv text
//! describes their behaviour but not their edge lists, so those instances are
//! not rebuilt here and no test checks the theorems' own dynamics on them. The
//! tests check the bilateral mechanics the proofs rely on — consent blocking,
//! unilateral deletions, pairwise stability against single-edge changes, the
//! equal-split cost accounting — and the dynamics on a small network: from a
//! 5-vertex path at α = 3 the complete best-response state space reaches a
//! stable state from every state.

use rand::rngs::StdRng;
use rand::SeedableRng;
use selfish_ncg::core::classify::{explore, ExploreConfig};
use selfish_ncg::core::{equilibrium, DynamicsConfig, Move, ResponseMode};
use selfish_ncg::prelude::*;

/// Consent: an agent can never force an edge onto a partner whose cost would
/// strictly increase; she can always delete unilaterally.
#[test]
fn consent_blocks_edges_that_hurt_the_partner() {
    // A star with an expensive edge price: every leaf would love to connect to
    // another leaf to shave distance, but the other leaf's cost would go up by
    // α/2 - 1 > 0, so every such proposal is blocked and the star is pairwise stable.
    let alpha = 6.0;
    let game = BilateralBuyGame::sum(alpha);
    let star = generators::star(7);
    let mut ws = Workspace::new(7);
    assert!(equilibrium::is_stable(&game, &star, &mut ws));

    // With a cheap edge price the same proposals are mutually beneficial, the star
    // is no longer stable, and dynamics densify the network.
    let cheap = BilateralBuyGame::sum(1.0);
    assert!(!equilibrium::is_stable(&cheap, &star, &mut ws));
    let mut rng = StdRng::seed_from_u64(1);
    let out = run_dynamics(&cheap, &star, &DynamicsConfig::simulation(500), &mut rng);
    assert!(out.converged());
    assert!(out.final_graph.num_edges() > star.num_edges());
}

/// Deletions are unilateral: if keeping an edge is too expensive the owner-side
/// agent simply drops it, no consent required.
#[test]
fn unilateral_deletion_reaches_pairwise_stability() {
    let alpha = 20.0;
    let game = BilateralBuyGame::sum(alpha);
    let mut rng = StdRng::seed_from_u64(3);
    let dense = generators::random_with_m_edges(10, 30, &mut rng);
    let out = run_dynamics(&game, &dense, &DynamicsConfig::simulation(2_000), &mut rng);
    assert!(out.converged());
    assert!(
        out.final_graph.num_edges() < dense.num_edges(),
        "an expensive α must lead to deletions"
    );
    let mut ws = Workspace::new(10);
    assert!(equilibrium::is_stable(&game, &out.final_graph, &mut ws));
    assert!(selfish_ncg::graph::is_connected(&out.final_graph));
}

/// The bilateral strategy space subsumes single-edge changes: any stable network
/// of the bilateral game is also stable when agents are restricted to single
/// deletions or single consensual additions.
#[test]
fn pairwise_stable_networks_resist_single_edge_changes() {
    let alpha = 4.0;
    let game = BilateralBuyGame::max(alpha);
    let mut rng = StdRng::seed_from_u64(9);
    let initial = generators::random_with_m_edges(8, 12, &mut rng);
    let out = run_dynamics(
        &game,
        &initial,
        &DynamicsConfig::simulation(2_000),
        &mut rng,
    );
    assert!(out.converged());
    let stable = out.final_graph;
    let mut ws = Workspace::new(8);
    for u in 0..8 {
        let improving = game.improving_moves(&stable, u, &mut ws);
        assert!(
            improving.is_empty(),
            "agent {u} must have no feasible improvement"
        );
    }
    // Spot check: re-adding any single missing edge cannot strictly help both endpoints.
    for u in 0..8 {
        for v in (u + 1)..8 {
            if stable.has_edge(u, v) {
                continue;
            }
            let mut ws2 = Workspace::new(8);
            let cu = game.cost(&stable, u, &mut ws2.bfs);
            let cv = game.cost(&stable, v, &mut ws2.bfs);
            let mut g2 = stable.clone();
            g2.add_edge(u, v);
            let cu2 = game.cost(&g2, u, &mut ws2.bfs);
            let cv2 = game.cost(&g2, v, &mut ws2.bfs);
            assert!(
                !(cu2 < cu && cv2 < cv),
                "edge {{{u},{v}}} would be a profitable bilateral deviation"
            );
        }
    }
}

/// Small bilateral instances have fully explorable improving-response state
/// spaces; on trees with moderate α the game behaves well (a stable state is
/// always reachable), matching the paper's observation that the problematic
/// dynamics only appear in carefully constructed instances.
#[test]
fn small_bilateral_instances_reach_stability() {
    let game = BilateralBuyGame::sum(3.0);
    let initial = generators::path(5);
    let mut cfg = ExploreConfig::default().with_max_states(20_000);
    cfg.response_mode = ResponseMode::BestResponse;
    let result = explore(&game, &initial, &cfg);
    assert!(result.complete);
    assert!(result.stable_state_reachable());
    assert!(result.every_state_reaches_stable());
}

/// Cost accounting of the bilateral game: each endpoint pays α/2 per incident edge.
#[test]
fn equal_split_cost_accounting() {
    let alpha = 5.0;
    let game = BilateralBuyGame::sum(alpha);
    let g = generators::path(4);
    let mut ws = Workspace::new(4);
    // Middle vertex: degree 2 -> edge cost α, distances 1+1+2 = 4.
    assert_eq!(game.cost(&g, 1, &mut ws.bfs), alpha + 4.0);
    // End vertex: degree 1 -> α/2, distances 1+2+3 = 6.
    assert_eq!(game.cost(&g, 0, &mut ws.bfs), alpha / 2.0 + 6.0);
    // A SetNeighbors move that only deletes is never blocked.
    let mv = Move::SetNeighbors {
        new_neighbors: vec![0],
    };
    let improving = game.improving_moves(&g, 1, &mut ws);
    // With α = 5 the middle vertex would love to drop an edge but that would
    // disconnect the path — infinite distance cost — so it is not improving.
    assert!(improving.iter().all(|s| s.mv != mv));
}

/// Every step scans each agent once: the policy scans an agent with its
/// best-response scan, and the scan that finds the mover unhappy also yields
/// the move it makes. So a traced run opens one `enumerate` span (one
/// `scan_moves` call) per agent the policy scanned, in the bilateral game,
/// whose scan asks consent, as in the Greedy Buy Game (the control). This
/// file runs as its own test process, and no other test in it switches the
/// global trace flag.
#[test]
fn every_step_scans_each_agent_once() {
    use selfish_ncg::trace::{self, Counter, Phase, PhaseNode};
    fn spans(nodes: &[PhaseNode], phase: Phase) -> u64 {
        nodes
            .iter()
            .map(|node| u64::from(node.phase == phase) * node.count + spans(&node.children, phase))
            .sum()
    }
    let n = 9;
    let initial = generators::random_with_m_edges(n, 14, &mut StdRng::seed_from_u64(71));
    let mut games: Vec<Box<dyn Game>> = Vec::new();
    for alpha in [1.0, 4.0] {
        games.push(Box::new(BilateralBuyGame::sum(alpha)));
        games.push(Box::new(BilateralBuyGame::max(alpha)));
    }
    games.push(Box::new(GreedyBuyGame::sum(n as f64 / 4.0)));
    trace::set_enabled(true);
    let _ = trace::take_report();
    for game in &games {
        let game = game.as_ref();
        let mut rng = StdRng::seed_from_u64(13);
        let out = run_dynamics(
            game,
            &initial,
            &DynamicsConfig::simulation(200 * n),
            &mut rng,
        );
        let report = trace::take_report();
        assert!(out.converged(), "{}", game.name());
        assert!(out.steps > 0, "{}: no move to scan for", game.name());
        assert_eq!(
            spans(&report.roots, Phase::Enumerate),
            report.counter(Counter::AgentsScanned),
            "{}: scans against agents scanned over {} steps",
            game.name(),
            out.steps
        );
    }
    trace::set_enabled(false);
}
