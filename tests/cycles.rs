//! Integration tests for the negative results: the best-response cycles of
//! Theorem 3.7 (Fig. 5) and Theorem 4.1 (Fig. 9 / Fig. 10), and the host-graph
//! explorations of Corollary 4.2.

use rand::rngs::StdRng;
use rand::SeedableRng;
use selfish_ncg::core::classify::{explore, ExploreConfig};
use selfish_ncg::core::moves::apply_move;
use selfish_ncg::core::{run_dynamics, DynamicsConfig, Game, OracleKind, Workspace};
use selfish_ncg::instances::{fig05, fig09, fig10, hosts, CycleInstance};

#[test]
fn fig5_uniform_budget_cycle_verifies_and_is_minimal() {
    let inst = fig05::cycle();
    // Every agent owns exactly one edge: n vertices, n edges, one non-tree edge.
    assert_eq!(inst.initial.num_edges(), inst.initial.num_nodes());
    let states = inst.verify().expect("Fig. 5 cycle");
    assert_eq!(states.len(), 5);
    // The cycle revisits no intermediate state.
    for i in 0..4 {
        for j in (i + 1)..4 {
            assert_ne!(states[i], states[j], "states {i} and {j} must differ");
        }
    }
}

#[test]
fn fig9_cycle_verifies_for_buy_and_greedy_buy_game() {
    fig09::greedy_buy_game_cycle()
        .verify()
        .expect("SUM-GBG cycle");
    fig09::buy_game_cycle().verify().expect("SUM-BG cycle");
    // The cycle also survives the move restriction to the Cor. 4.2 host graph.
    fig09::host_restricted_cycle().verify().expect("host cycle");
}

#[test]
fn fig10_cycle_verifies_for_buy_and_greedy_buy_game() {
    fig10::greedy_buy_game_cycle()
        .verify()
        .expect("MAX-GBG cycle");
    fig10::buy_game_cycle().verify().expect("MAX-BG cycle");
    fig10::host_restricted_cycle().verify().expect("host cycle");
}

#[test]
fn buy_game_cycles_imply_not_fip_via_state_exploration() {
    // Exploring the best-response state graph from the Fig. 9 initial network on
    // the restricted host shows a reachable directed cycle, i.e. the game does not
    // have the finite improvement property on this instance.
    let (game, initial) = hosts::sum_gbg_on_host();
    let result = explore(
        &game,
        &initial,
        &ExploreConfig::default().with_max_states(20_000),
    );
    assert!(result.complete);
    assert!(
        result.has_cycle(),
        "a best-response cycle must be reachable"
    );

    let (game, initial) = hosts::max_gbg_on_host();
    let result = explore(
        &game,
        &initial,
        &ExploreConfig::default().with_max_states(20_000),
    );
    assert!(result.complete);
    assert!(result.has_cycle());
}

#[test]
fn cycle_movers_strictly_improve_and_nobody_loses_the_prescribed_amounts() {
    // Along the Fig. 9 cycle, every prescribed move strictly improves the mover by
    // the amounts stated in the paper's proof.
    let inst = fig09::greedy_buy_game_cycle();
    let states = inst.verify().unwrap();
    let mut ws = Workspace::new(inst.initial.num_nodes());
    let expected_gains = [
        6.0,
        8.0 - fig09::ALPHA,
        fig09::ALPHA - 7.0,
        6.0,
        8.0 - fig09::ALPHA,
        fig09::ALPHA - 7.0,
    ];
    for (i, step) in inst.steps.iter().enumerate() {
        let before = inst.game.cost(&states[i], step.agent, &mut ws.bfs);
        let after = inst.game.cost(&states[i + 1], step.agent, &mut ws.bfs);
        let gain = before - after;
        assert!(
            (gain - expected_gains[i]).abs() < 1e-9,
            "step {i}: gain {gain} != expected {}",
            expected_gains[i]
        );
    }
}

/// At every state of the known best-response cycles, the full-BFS and
/// persistent engines must agree on the complete improving-move list and the
/// best response of the prescribed mover. Two full rounds are walked on one
/// mutated-in-place graph, so the persistent workspace carries its distance
/// vectors across the cycle's state revisits (including the `SetOwned`
/// whole-strategy moves of the Buy-Game cycles).
#[test]
fn cycle_instances_scan_identically_under_all_engines() {
    fn check<G: Game>(inst: &CycleInstance<G>, label: &str) {
        let n = inst.initial.num_nodes();
        let mut ws_full = Workspace::with_oracle(n, OracleKind::FullBfs);
        let mut ws_pers = Workspace::with_oracle(n, OracleKind::Persistent);
        let mut g = inst.initial.clone();
        for round in 0..2 {
            for (i, step) in inst.steps.iter().enumerate() {
                let ctx = format!("{label} round {round} step {i}");
                let full = inst.game.improving_moves(&g, step.agent, &mut ws_full);
                let pers = inst.game.improving_moves(&g, step.agent, &mut ws_pers);
                assert!(!full.is_empty(), "{ctx}: prescribed mover is unhappy");
                assert_eq!(full, pers, "{ctx}");
                let bf = inst.game.best_response(&g, step.agent, &mut ws_full);
                let bp = inst.game.best_response(&g, step.agent, &mut ws_pers);
                assert_eq!(bf, bp, "{ctx}");
                apply_move(&mut g, step.agent, &step.mv).expect("prescribed move applies");
            }
            assert_eq!(g, inst.initial, "{label}: the cycle closes");
        }
    }
    check(&fig05::cycle(), "fig5 SUM-ASG");
    check(&fig09::greedy_buy_game_cycle(), "fig9 SUM-GBG");
    check(&fig09::buy_game_cycle(), "fig9 SUM-BG");
    check(&fig10::greedy_buy_game_cycle(), "fig10 MAX-GBG");
    check(&fig10::buy_game_cycle(), "fig10 MAX-BG");
}

/// Convergence regression on the cycle instances: free-running dynamics from
/// the cycle's initial network (deterministic analysis config, exact cycle
/// detection) must behave *identically* under both engines — same
/// termination, same recorded move sequence, same final network.
#[test]
fn cycle_instance_dynamics_identical_across_engines() {
    fn check<G: Game>(game: &G, initial: &selfish_ncg::graph::OwnedGraph, label: &str) {
        let run = |oracle: OracleKind| {
            let mut cfg = DynamicsConfig::analysis(200);
            cfg.oracle = oracle;
            let mut rng = StdRng::seed_from_u64(7);
            run_dynamics(game, initial, &cfg, &mut rng)
        };
        let reference = run(OracleKind::FullBfs);
        let out = run(OracleKind::Persistent);
        assert_eq!(out.termination, reference.termination, "{label}");
        assert_eq!(out.trajectory, reference.trajectory, "{label}");
        assert_eq!(out.final_graph, reference.final_graph, "{label}");
    }
    let inst = fig05::cycle();
    check(&inst.game, &inst.initial, "fig5");
    let inst = fig09::greedy_buy_game_cycle();
    check(&inst.game, &inst.initial, "fig9 GBG");
    let inst = fig10::greedy_buy_game_cycle();
    check(&inst.game, &inst.initial, "fig10 GBG");
}

#[test]
fn swap_game_cycles_do_not_exist_on_trees() {
    // Contrast: the explorer finds no cycle for the ASG restricted to small trees
    // (Corollary 3.1 — the game is a potential game there).
    use selfish_ncg::prelude::*;
    let game = AsymSwapGame::sum();
    let tree = generators::path(6);
    let result = explore(
        &game,
        &tree,
        &ExploreConfig::default().with_max_states(50_000),
    );
    assert!(result.complete);
    assert!(!result.has_cycle());
    assert!(result.every_state_reaches_stable());
}
