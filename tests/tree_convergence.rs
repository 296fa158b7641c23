//! Integration tests for the positive results on trees:
//! Theorem 2.1 / 2.11 (MAX-SG) and Corollaries 3.1 / 3.2 (ASG).

use rand::rngs::StdRng;
use rand::SeedableRng;
use selfish_ncg::core::potential::{lex_decreased, sorted_cost_vector};
use selfish_ncg::core::{equilibrium, Dynamics, DynamicsConfig};
use selfish_ncg::graph::properties;
use selfish_ncg::instances::paths;
use selfish_ncg::prelude::*;

/// Theorem 2.1: the MAX-SG on trees converges, and the sorted cost vector is a
/// generalized ordinal potential along every trajectory.
#[test]
fn max_swap_game_on_random_trees_is_a_potential_game() {
    let game = SwapGame::max();
    let mut rng = StdRng::seed_from_u64(21);
    for trial in 0..10 {
        let n = 8 + trial;
        let tree = generators::random_spanning_tree(n, None, &mut rng);
        let mut dynamics = Dynamics::new(
            &game,
            tree,
            DynamicsConfig::simulation(n * n * n).with_policy(Policy::Random),
        );
        let mut ws = Workspace::new(n);
        let mut prev = sorted_cost_vector(&game, dynamics.graph(), &mut ws);
        let mut steps = 0;
        while dynamics.step(&mut rng).is_some() {
            assert!(
                properties::is_tree(dynamics.graph()),
                "swaps keep trees trees"
            );
            let next = sorted_cost_vector(&game, dynamics.graph(), &mut ws);
            assert!(
                lex_decreased(&prev, &next),
                "Lemma 2.6 potential must decrease"
            );
            prev = next;
            steps += 1;
            assert!(steps <= n * n * n, "Theorem 2.1: at most O(n^3) moves");
        }
        // Stable MAX-SG trees are stars or double stars (diameter <= 3).
        assert!(properties::is_star_or_double_star(dynamics.graph()));
    }
}

/// Theorem 2.11: the max cost policy converges in Θ(n log n) moves on paths —
/// well below the n²-regime — and ends in a star / double star.
#[test]
fn max_cost_policy_speed_up_on_paths() {
    let game = SwapGame::max();
    let mut rng = StdRng::seed_from_u64(5);
    for &n in &[17usize, 33, 49] {
        let cfg = DynamicsConfig::simulation(n * n * n)
            .with_policy(Policy::MaxCost)
            .with_tie_break(TieBreak::Deterministic);
        let out = run_dynamics(&game, &paths::figure1_path(n), &cfg, &mut rng);
        assert!(out.converged());
        let bound = 4.0 * (n as f64) * (n as f64).log2();
        assert!(
            (out.steps as f64) < bound,
            "n={n}: {} steps exceeds the Θ(n log n) regime ({bound:.0})",
            out.steps
        );
        assert!(
            out.steps as f64 >= paths::lemma_2_14_lower_bound(n) * 0.5,
            "n={n}: suspiciously few steps"
        );
        assert!(properties::is_star_or_double_star(&out.final_graph));
    }
}

/// Observation 2.12: under the max cost policy on trees, every mover is a leaf.
#[test]
fn max_cost_movers_on_trees_are_leaves() {
    let game = SwapGame::max();
    let mut rng = StdRng::seed_from_u64(8);
    let n = 20;
    let tree = generators::random_spanning_tree(n, None, &mut rng);
    let mut dynamics = Dynamics::new(
        &game,
        tree,
        DynamicsConfig::simulation(10_000).with_policy(Policy::MaxCost),
    );
    loop {
        let degree_before: Vec<usize> = (0..n).map(|v| dynamics.graph().degree(v)).collect();
        match dynamics.step(&mut rng) {
            Some(record) => assert_eq!(
                degree_before[record.agent], 1,
                "max-cost mover must be a leaf"
            ),
            None => break,
        }
    }
}

/// Corollary 3.1: the SUM-ASG and MAX-ASG on trees converge for any policy.
#[test]
fn asymmetric_swap_games_on_trees_converge() {
    let mut rng = StdRng::seed_from_u64(77);
    for trial in 0..6 {
        let n = 10 + 2 * trial;
        let tree = generators::random_spanning_tree(n, Some(1), &mut rng);
        for policy in [Policy::MaxCost, Policy::Random, Policy::MinIndex] {
            let sum_out = run_dynamics(
                &AsymSwapGame::sum(),
                &tree,
                &DynamicsConfig::simulation(n * n * n).with_policy(policy),
                &mut rng,
            );
            assert!(sum_out.converged(), "SUM-ASG, n={n}, {}", policy.label());
            assert!(properties::is_tree(&sum_out.final_graph));
            let max_out = run_dynamics(
                &AsymSwapGame::max(),
                &tree,
                &DynamicsConfig::simulation(n * n * n).with_policy(policy),
                &mut rng,
            );
            assert!(max_out.converged(), "MAX-ASG, n={n}, {}", policy.label());
        }
    }
}

/// Corollary 3.2 (SUM part): under the max cost policy the SUM-ASG on an n-vertex
/// tree converges within `n + ⌈n/2⌉` moves (the paper's tight bound is
/// `n + ⌈n/2⌉ - 5` for odd n and `n - 3` for even n).
#[test]
fn sum_asg_max_cost_policy_linear_convergence() {
    let mut rng = StdRng::seed_from_u64(3);
    for &n in &[12usize, 21, 40] {
        let tree = generators::random_spanning_tree(n, Some(1), &mut rng);
        let out = run_dynamics(
            &AsymSwapGame::sum(),
            &tree,
            &DynamicsConfig::simulation(10 * n).with_policy(Policy::MaxCost),
            &mut rng,
        );
        assert!(out.converged());
        assert!(
            out.steps <= n + n / 2 + 1,
            "n={n}: {} steps exceeds the Corollary 3.2 bound",
            out.steps
        );
    }
}

/// Convergence regression: swap-game dynamics on trees must produce the
/// *identical* move sequence under the full-BFS and persistent engines for
/// a fixed seed — candidate scoring is exact in both, so the
/// policy decisions and the RNG stream must coincide step by step.
#[test]
fn engines_produce_identical_move_sequences_on_trees() {
    use selfish_ncg::core::OracleKind;
    let mut seed_rng = StdRng::seed_from_u64(61);
    for trial in 0..4 {
        let n = 12 + 3 * trial;
        let tree = generators::random_spanning_tree(n, Some(1), &mut seed_rng);
        let games: Vec<(Box<dyn Game>, bool)> = vec![
            (Box::new(SwapGame::sum()), false),
            (Box::new(SwapGame::max()), false),
            (Box::new(AsymSwapGame::sum()), true),
            (Box::new(AsymSwapGame::max()), true),
        ];
        for (game, ownership) in &games {
            for policy in [Policy::MaxCost, Policy::Random] {
                let run = |oracle: OracleKind| {
                    let mut cfg = DynamicsConfig::simulation(n * n * n)
                        .with_policy(policy)
                        .with_tie_break(TieBreak::Random);
                    cfg.oracle = oracle;
                    cfg.record_trajectory = true;
                    cfg.ownership_in_state = *ownership;
                    let mut rng = StdRng::seed_from_u64(1000 + trial as u64);
                    run_dynamics(game.as_ref(), &tree, &cfg, &mut rng)
                };
                let reference = run(OracleKind::FullBfs);
                assert!(reference.converged(), "{} {}", game.name(), policy.label());
                let out = run(OracleKind::Persistent);
                let ctx = format!("n={n} {} {}", game.name(), policy.label());
                assert_eq!(out.termination, reference.termination, "{ctx}");
                assert_eq!(out.trajectory, reference.trajectory, "{ctx}");
                assert_eq!(out.final_graph, reference.final_graph, "{ctx}");
            }
        }
    }
}

/// Stable networks found on trees are pure Nash equilibria of the respective game.
#[test]
fn converged_trees_are_nash_equilibria() {
    let mut rng = StdRng::seed_from_u64(4);
    let n = 15;
    let tree = generators::random_spanning_tree(n, None, &mut rng);
    let game = SwapGame::sum();
    let out = run_dynamics(&game, &tree, &DynamicsConfig::simulation(10_000), &mut rng);
    assert!(out.converged());
    let mut ws = Workspace::new(n);
    assert!(equilibrium::is_stable(&game, &out.final_graph, &mut ws));
    assert!(equilibrium::unhappy_agents(&game, &out.final_graph, &mut ws).is_empty());
}
