//! Randomized equivalence of the persistent engine against from-scratch BFS
//! and the full-BFS reference: on random graphs, under random edge-delta
//! candidates, random applied move sequences carried across [`begin`] calls,
//! and random whole-strategy (`SetOwned` / `SetNeighbors`) candidates, the
//! persistent oracle must report exactly the same distance vector, SUM and
//! MAX as a fresh BFS; and at the game layer its scans must equal the
//! reference's apply → BFS → undo scans.
//!
//! Driven by seeded loops over the deterministic [`StdRng`] shim; every
//! failure is reproducible from the printed case/seed. Iteration counts are
//! scaled down in debug builds (the tier-1 `cargo test -q` run) and reach the
//! full ≥ 1000 randomized sequences per game type in `--release` (the CI
//! release job).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use selfish_ncg::core::{
    agent_cost_total, apply_move, edge_cost_after, CostEvaluator, DeltaScore, DistanceMetric,
    EdgeCostMode, Game, Move, OracleKind, Workspace,
};
use selfish_ncg::graph::oracle::{EdgeDelta, PersistentOracle};
use selfish_ncg::graph::{diameter, generators, BfsBuffer, DistanceSummary, OwnedGraph};
use selfish_ncg::prelude::*;

/// Scale factor for the randomized loops: modest in debug (tier-1), ≥ 1000
/// sequences per game type in release (CI release job).
const SCALE: usize = if cfg!(debug_assertions) { 1 } else { 10 };

fn random_graph<R: Rng>(rng: &mut R) -> OwnedGraph {
    let n = rng.gen_range(4usize..40);
    match rng.gen_range(0u32..4) {
        0 => generators::budgeted_random(n, rng.gen_range(1usize..3).min((n - 2) / 2), rng),
        1 => generators::random_with_m_edges(n, rng.gen_range(n..3 * n), rng),
        2 => generators::random_spanning_tree(n, None, rng),
        _ => {
            // A possibly disconnected graph: a random one with a few edges cut.
            let mut g = generators::random_with_m_edges(n, rng.gen_range(n..2 * n), rng);
            let edges: Vec<_> = g.edges().map(|e| (e.owner, e.other)).collect();
            for &(a, b) in edges.iter().take(rng.gen_range(0usize..3)) {
                g.remove_edge(a, b);
            }
            g
        }
    }
}

/// A random valid delta sequence against `g` (validity tracked on a scratch
/// clone so composed insert/remove sequences stay legal).
fn random_deltas<R: Rng>(g: &OwnedGraph, rng: &mut R) -> Vec<EdgeDelta> {
    let n = g.num_nodes();
    let mut scratch = g.clone();
    let mut deltas = Vec::new();
    for _ in 0..rng.gen_range(1usize..4) {
        let remove = rng.gen_bool(0.5);
        if remove {
            let edges: Vec<_> = scratch.edges().map(|e| (e.owner, e.other)).collect();
            if let Some(&(u, v)) = edges.choose(rng) {
                scratch.remove_edge(u, v);
                deltas.push(EdgeDelta::Remove { u, v });
                continue;
            }
        }
        // Insert a uniformly chosen absent edge, if any exists.
        for _ in 0..20 {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v && !scratch.has_edge(u, v) {
                scratch.add_edge(u, v);
                deltas.push(EdgeDelta::Insert { u, v });
                break;
            }
        }
    }
    deltas
}

/// Ground truth: apply the deltas to a clone, run a fresh BFS.
fn truth(g: &OwnedGraph, src: usize, deltas: &[EdgeDelta]) -> (Vec<u16>, DistanceSummary) {
    let mut h = g.clone();
    for delta in deltas {
        match *delta {
            EdgeDelta::Insert { u, v } => assert!(h.add_edge(u, v)),
            EdgeDelta::Remove { u, v } => assert!(h.remove_edge(u, v)),
        }
    }
    let mut buf = BfsBuffer::new(h.num_nodes());
    let summary = buf.summary(&h, src);
    (buf.last_distances()[..h.num_nodes()].to_vec(), summary)
}

/// Core satellite property: random graphs × random delta candidates, the
/// persistent oracle equal to from-scratch BFS on the full vector, SUM and
/// MAX.
#[test]
fn oracle_matches_bfs_on_random_delta_candidates() {
    let mut rng = StdRng::seed_from_u64(0x0eac1e);
    for case in 0..60 {
        let g = random_graph(&mut rng);
        let n = g.num_nodes();
        let src = rng.gen_range(0..n);
        let mut inc = PersistentOracle::new(n);
        inc.begin(&g, src);
        // Several evaluations against the same base state: consecutive
        // candidates often share delta prefixes, stressing the persistent
        // backend's prefix reuse.
        for round in 0..12 {
            let deltas = random_deltas(&g, &mut rng);
            let (expect_dist, expect_summary) = truth(&g, src, &deltas);
            let mut got = Vec::new();
            let si = inc.evaluate_into(&deltas, &mut got);
            assert_eq!(si, expect_summary, "case {case} round {round}: {deltas:?}");
            assert_eq!(got, expect_dist, "case {case} round {round}: {deltas:?}");
        }
        // The pinned base vector survives all evaluations untouched.
        let mut buf = BfsBuffer::new(n);
        let base = buf.run(&g, src).to_vec();
        assert_eq!(inc.base_distances(), base.as_slice(), "case {case}");
    }
}

/// Applying random *move sequences* to the graph itself: after every applied
/// move the re-pinned oracle must again agree exactly with a fresh BFS.
#[test]
fn oracle_stays_exact_along_random_move_sequences() {
    let mut rng = StdRng::seed_from_u64(0x5e9_u64 ^ 0x51);
    for case in 0..25 {
        let mut g = random_graph(&mut rng);
        let n = g.num_nodes();
        let mut inc = PersistentOracle::new(n);
        let mut buf = BfsBuffer::new(n);
        for step in 0..10 {
            // Mutate the graph by one random valid single-edge move.
            let deltas = random_deltas(&g, &mut rng);
            if let Some(delta) = deltas.first() {
                match *delta {
                    EdgeDelta::Insert { u, v } => assert!(g.add_edge(u, v)),
                    EdgeDelta::Remove { u, v } => assert!(g.remove_edge(u, v)),
                }
            }
            let src = rng.gen_range(0..n);
            let summary = inc.begin(&g, src);
            assert_eq!(summary, buf.summary(&g, src), "case {case} step {step}");
            assert_eq!(
                inc.base_distances(),
                &buf.run(&g, src)[..n],
                "case {case} step {step}"
            );
        }
    }
}

/// The bounded scan modes — the best-response tie set in enumeration order
/// (what the random tie-break draws from) and the unhappiness verdict —
/// must be identical on two workspaces. Every scan, `improving_moves`
/// included, drops the candidates whose level-histogram or kernel bound
/// does not improve; the best-response scan also orders the rest by bound
/// and cuts at the best cost found.
fn assert_bounded_scans_agree(
    game: &dyn Game,
    g: &OwnedGraph,
    u: usize,
    reference: &mut Workspace,
    fast: &mut Workspace,
    ctx: &str,
) {
    assert_eq!(
        game.best_responses(g, u, reference),
        game.best_responses(g, u, fast),
        "{ctx}: best-response tie set"
    );
    assert_eq!(
        game.has_improving_move(g, u, reference),
        game.has_improving_move(g, u, fast),
        "{ctx}: unhappiness verdict"
    );
}

/// End-to-end equivalence at the game layer: for every scanned agent, the
/// full-BFS and persistent workspaces must produce the *identical* list of
/// improving moves, the identical best response, the identical
/// best-response tie set and the identical unhappiness verdict.
#[test]
fn best_responses_identical_across_backends() {
    let mut rng = StdRng::seed_from_u64(0xbe57);
    for case in 0..15 {
        let g = random_graph(&mut rng);
        let n = g.num_nodes();
        let games: Vec<Box<dyn Game>> = vec![
            Box::new(SwapGame::sum()),
            Box::new(SwapGame::max()),
            Box::new(AsymSwapGame::sum()),
            Box::new(GreedyBuyGame::sum(n as f64 / 4.0)),
            Box::new(GreedyBuyGame::max(2.5)),
        ];
        let mut ws_full = Workspace::with_oracle(n, OracleKind::FullBfs);
        let mut ws_pers = Workspace::with_oracle(n, OracleKind::Persistent);
        for game in &games {
            for u in 0..n {
                let full = game.improving_moves(&g, u, &mut ws_full);
                let pers = game.improving_moves(&g, u, &mut ws_pers);
                assert_eq!(full, pers, "case {case}: {} agent {u}", game.name());
                let bf = game.best_response(&g, u, &mut ws_full);
                let bp = game.best_response(&g, u, &mut ws_pers);
                assert_eq!(bf, bp, "case {case}: {} agent {u}", game.name());
                let ctx = format!("case {case}: {} agent {u}", game.name());
                assert_bounded_scans_agree(game.as_ref(), &g, u, &mut ws_full, &mut ws_pers, &ctx);
            }
        }
    }
}

/// The bounded scans past one 64-vertex envelope block: at n = 130 and 200
/// (three and four blocks, the last one partial) the persistent scans,
/// which bound runs of Buys and Swaps block by block, return the full-BFS
/// reference's best-response tie sets and unhappiness verdicts along
/// short best-response playouts.
#[test]
fn bounded_scans_agree_across_envelope_blocks() {
    let mut rng = StdRng::seed_from_u64(0xb10c);
    let mut scans = 0usize;
    for n in [130usize, 200] {
        let games: Vec<(Box<dyn Game>, OwnedGraph)> = vec![
            (
                Box::new(AsymSwapGame::sum()),
                generators::budgeted_random(n, 2, &mut rng),
            ),
            (
                Box::new(GreedyBuyGame::sum(n as f64 / 4.0)),
                generators::random_with_m_edges(n, 2 * n, &mut rng),
            ),
            (
                Box::new(GreedyBuyGame::max(2.5)),
                generators::random_with_m_edges(n, 2 * n, &mut rng),
            ),
            // Path starts of diameter n − 1: most rows fill the last level
            // bucket, which counts every level from 31 on.
            (
                Box::new(GreedyBuyGame::sum(n as f64 / 4.0)),
                generators::random_line(n, &mut rng),
            ),
            (
                Box::new(GreedyBuyGame::max(2.5)),
                generators::directed_line(n),
            ),
        ];
        for (game, initial) in &games {
            let mut g = initial.clone();
            let mut ws_full = Workspace::with_oracle(n, OracleKind::FullBfs);
            let mut ws_pers = Workspace::with_oracle(n, OracleKind::Persistent);
            let all: Vec<usize> = (0..n).collect();
            ws_pers.evaluator.pin_sources(&g, &all);
            for step in 0..4 {
                let u = rng.gen_range(0..n);
                let ctx = format!("n {n} {} step {step} agent {u}", game.name());
                assert_bounded_scans_agree(game.as_ref(), &g, u, &mut ws_full, &mut ws_pers, &ctx);
                scans += 1;
                match game.best_response(&g, u, &mut ws_full) {
                    Some(scored) => {
                        apply_move(&mut g, u, &scored.mv).expect("best response applies");
                    }
                    None => {
                        apply_random_change(&mut g, &mut rng);
                    }
                }
            }
            // The bounds read every level from 31 on as 31, so from a path
            // start they may prune nothing (MAX-GBG from the directed line
            // prunes at most one candidate); the debug build still checks
            // every bound against the kernel there.
            if diameter(initial) < Some(31) {
                let stats = ws_pers.oracle_stats();
                assert!(
                    stats.bound_pruned > 0,
                    "n {n} {}: no bound pruned",
                    game.name()
                );
            }
        }
    }
    assert_eq!(scans, 2 * 5 * 4);
}

/// Applies the first delta of a random valid sequence to `g` as a structural
/// mutation, returning `true` if something changed.
fn apply_random_change<R: Rng>(g: &mut OwnedGraph, rng: &mut R) -> bool {
    let deltas = random_deltas(g, rng);
    match deltas.first() {
        Some(&EdgeDelta::Insert { u, v }) => g.add_edge(u, v),
        Some(&EdgeDelta::Remove { u, v }) => g.remove_edge(u, v),
        None => false,
    }
}

/// Tentpole property (SUM and MAX): the persistent oracle carries each
/// source's distance vector across long random move sequences applied to the
/// graph itself, repairing by journal replay, and must agree with a fresh BFS
/// on the full vector and both aggregates after every single move.
#[test]
fn persistent_oracle_exact_along_long_random_move_sequences() {
    let mut rng = StdRng::seed_from_u64(0x9e51);
    let cases = 8 * SCALE;
    let steps = 15;
    let mut replays_seen = 0u64;
    for case in 0..cases {
        let mut g = random_graph(&mut rng);
        let n = g.num_nodes();
        let mut oracle = PersistentOracle::new(n);
        let mut buf = BfsBuffer::new(n);
        // A small rotating set of sources, so re-pins hit warm cache entries.
        let sources: Vec<usize> = (0..3).map(|_| rng.gen_range(0..n)).collect();
        for &s in &sources {
            oracle.begin(&g, s);
        }
        for step in 0..steps {
            apply_random_change(&mut g, &mut rng);
            let src = sources[rng.gen_range(0..sources.len())];
            let summary = oracle.begin(&g, src);
            let expect = buf.summary(&g, src);
            assert_eq!(summary, expect, "case {case} step {step} src {src}");
            assert_eq!(
                summary.sum.is_some(),
                summary.max.is_some(),
                "case {case} step {step}: SUM and MAX agree on connectivity"
            );
            assert_eq!(
                oracle.base_distances(),
                &buf.run(&g, src)[..n],
                "case {case} step {step} src {src}"
            );
        }
        replays_seen += oracle.stats().replayed_begins;
    }
    assert!(
        replays_seen > (cases * steps / 2) as u64,
        "the persistent path must actually replay ({replays_seen} replays)"
    );
}

/// A random strictly-sorted strategy vertex set avoiding `u`.
fn random_strategy<R: Rng>(n: usize, u: usize, rng: &mut R) -> Vec<usize> {
    (0..n).filter(|&v| v != u && rng.gen_bool(0.3)).collect()
}

/// Satellite property: `SetOwned` / `SetNeighbors` delta scoring on the
/// persistent oracle agrees with apply → BFS → undo on summaries **and** on
/// the reconstructed edge costs, SUM and MAX, owner-pays and equal-split.
#[test]
fn whole_strategy_delta_scoring_matches_apply_bfs_undo() {
    let mut rng = StdRng::seed_from_u64(0x5e70);
    let cases = 4 * SCALE;
    let mut sequences = 0usize;
    for case in 0..cases {
        let g = random_graph(&mut rng);
        let n = g.num_nodes();
        let mut evaluator = CostEvaluator::new(n);
        for _ in 0..5 {
            let u = rng.gen_range(0..n);
            evaluator.begin_agent(&g, u);
            // Several strategies against one pinned base: consecutive
            // candidates share delta prefixes, stressing the stack reuse.
            for round in 0..6 {
                let strategy = random_strategy(n, u, &mut rng);
                let mv = if rng.gen_bool(0.5) {
                    Move::SetOwned {
                        new_owned: strategy,
                    }
                } else {
                    Move::SetNeighbors {
                        new_neighbors: strategy,
                    }
                };
                let score = evaluator.try_score(&g, u, &mv);
                let mut h = g.clone();
                let ctx = format!("case {case} agent {u} round {round}");
                match apply_move(&mut h, u, &mv) {
                    None => assert_eq!(score, DeltaScore::Inapplicable, "{ctx}"),
                    Some(_) => {
                        let mut buf = BfsBuffer::new(n);
                        let expect = buf.summary(&h, u);
                        assert_eq!(score, DeltaScore::Summary(expect), "{ctx}");
                        let DeltaScore::Summary(s) = score else {
                            unreachable!()
                        };
                        for (metric, mode, alpha) in [
                            (DistanceMetric::Sum, EdgeCostMode::OwnerPays, 1.3),
                            (DistanceMetric::Max, EdgeCostMode::OwnerPays, 2.0),
                            (DistanceMetric::Sum, EdgeCostMode::EqualSplit, 0.7),
                            (DistanceMetric::Max, EdgeCostMode::EqualSplit, 3.1),
                        ] {
                            let measured = agent_cost_total(&h, u, metric, alpha, mode, &mut buf);
                            let scored =
                                edge_cost_after(&g, u, &mv, mode, alpha) + metric.distance_cost(&s);
                            assert!(
                                measured == scored || (measured - scored).abs() < 1e-9,
                                "{ctx}: {measured} vs {scored} ({metric:?}, {mode:?})"
                            );
                        }
                    }
                }
                sequences += 1;
            }
        }
    }
    assert_eq!(sequences, cases * 5 * 6);
}

type GameFactory = fn(usize) -> Box<dyn Game>;

/// Every game type the playouts drive, with its α rule.
fn playout_games() -> Vec<(&'static str, GameFactory)> {
    vec![
        ("SUM-SG", |_| Box::new(SwapGame::sum())),
        ("MAX-SG", |_| Box::new(SwapGame::max())),
        ("SUM-ASG", |_| Box::new(AsymSwapGame::sum())),
        ("MAX-ASG", |_| Box::new(AsymSwapGame::max())),
        ("SUM-GBG", |n| Box::new(GreedyBuyGame::sum(n as f64 / 4.0))),
        ("MAX-GBG", |_| Box::new(GreedyBuyGame::max(2.5))),
        ("SUM-BG", |n| Box::new(BuyGame::sum(n as f64 / 4.0))),
        ("MAX-BG", |n| Box::new(BuyGame::max(n as f64 / 4.0))),
    ]
}

/// Satellite property: along random improving-move playouts of every game
/// type, the full-BFS and persistent backends agree on the full
/// improving-move list and the best response at every visited
/// `(state, agent)` — the graph is mutated in place, so the persistent
/// workspace replays the applied moves' deltas between scans.
#[test]
fn scans_identical_across_engines_along_random_playouts() {
    let target = 120 * SCALE; // scans per game type; ≥ 1200 in release
    for (label, make) in playout_games() {
        let mut rng = StdRng::seed_from_u64(0x91a7);
        let mut scans = 0usize;
        while scans < target {
            // Small instances keep the exponential BG enumeration feasible.
            let n = rng.gen_range(6usize..11);
            let mut g = generators::random_with_m_edges(n, rng.gen_range(n..2 * n), &mut rng);
            let game = make(n);
            let mut ws_full = Workspace::with_oracle(n, OracleKind::FullBfs);
            let mut ws_pers = Workspace::with_oracle(n, OracleKind::Persistent);
            for _step in 0..12 {
                let u = rng.gen_range(0..n);
                let full = game.improving_moves(&g, u, &mut ws_full);
                let pers = game.improving_moves(&g, u, &mut ws_pers);
                assert_eq!(full, pers, "{label} agent {u}");
                let bf = game.best_response(&g, u, &mut ws_full);
                let bp = game.best_response(&g, u, &mut ws_pers);
                assert_eq!(bf, bp, "{label} agent {u}");
                let ctx = format!("{label} agent {u}");
                assert_bounded_scans_agree(game.as_ref(), &g, u, &mut ws_full, &mut ws_pers, &ctx);
                scans += 1;
                match bf {
                    Some(scored) => {
                        apply_move(&mut g, u, &scored.mv).expect("best response applies");
                    }
                    None => {
                        // Agent is happy: nudge the state with a random change
                        // so the playout keeps moving.
                        apply_random_change(&mut g, &mut rng);
                    }
                }
            }
        }
    }
}

/// How a workspace is first pinned does not matter: along the same random
/// playouts, persistent workspaces that were never bulk-pinned, or
/// bulk-pinned on a random subset of the agents, fill every vector at their
/// first query and must return the full-BFS reference's best-response tie
/// sets, in order, and its unhappiness verdicts.
#[test]
fn partially_pinned_oracles_scan_identically_to_full_bfs() {
    let target = 40 * SCALE; // scans per game type
    for (label, make) in playout_games() {
        let mut rng = StdRng::seed_from_u64(0x5107);
        let mut scans = 0usize;
        while scans < target {
            let n = rng.gen_range(6usize..11);
            let mut g = generators::random_with_m_edges(n, rng.gen_range(n..2 * n), &mut rng);
            let game = make(n);
            let mut ws_full = Workspace::with_oracle(n, OracleKind::FullBfs);
            let subset: Vec<usize> = (0..n).filter(|_| rng.gen_bool(0.5)).collect();
            let mut partial: Vec<(&str, Workspace)> = ["never pinned", "random subset"]
                .into_iter()
                .map(|how| {
                    let mut ws = Workspace::with_oracle(n, OracleKind::Persistent);
                    if how == "random subset" {
                        ws.evaluator.pin_sources(&g, &subset);
                    }
                    (how, ws)
                })
                .collect();
            for _step in 0..12 {
                let u = rng.gen_range(0..n);
                for (how, ws) in &mut partial {
                    let ctx = format!("{label} {how} agent {u}");
                    assert_bounded_scans_agree(game.as_ref(), &g, u, &mut ws_full, ws, &ctx);
                }
                scans += 1;
                match game.best_response(&g, u, &mut ws_full) {
                    Some(scored) => {
                        apply_move(&mut g, u, &scored.mv).expect("best response applies");
                    }
                    None => {
                        apply_random_change(&mut g, &mut rng);
                    }
                }
            }
        }
    }
}

/// Converged SUM-GBG and SUM-ASG states at n = 128 are certified by the
/// eager persistent engine's final max-cost scan with no insertion kernel
/// at all: every bound the scan answers is pruned by its level histogram.
#[test]
fn converged_states_are_certified_without_the_kernel() {
    let n = 128;
    let mut rng = StdRng::seed_from_u64(0xce27);
    let gbg = GreedyBuyGame::sum(n as f64 / 4.0);
    let asg = AsymSwapGame::sum();
    let cases: Vec<(&dyn Game, OwnedGraph)> = vec![
        (&gbg, generators::random_with_m_edges(n, 2 * n, &mut rng)),
        (&asg, generators::budgeted_random(n, 2, &mut rng)),
    ];
    for (game, initial) in cases {
        let cfg = DynamicsConfig::simulation(400 * n).with_oracle(OracleKind::Persistent);
        let out = run_dynamics(game, &initial, &cfg, &mut rng);
        assert!(out.converged(), "{}", game.name());
        let mut dynamics = Dynamics::new(game, out.final_graph, cfg);
        assert!(
            dynamics.step(&mut rng).is_none(),
            "{} is stable",
            game.name()
        );
        let stats = dynamics.oracle_stats();
        assert!(stats.bound_queries > 0, "{}: {stats:?}", game.name());
        assert_eq!(stats.kernel_calls, 0, "{}: {stats:?}", game.name());
        assert_eq!(stats.bound_pruned, stats.bound_queries, "{}", game.name());
    }
}

/// u16 boundary: distances up to exactly `UNREACHABLE - 1` (65534, realised
/// by a path on `MAX_NODES` = 65535 vertices) are representable. The
/// insertion kernel's saturating `far + 1` at the same boundary is checked
/// on these path vectors by the oracle's own unit tests
/// (`fused_kernel_is_exact_across_the_u16_boundary`), without filling a
/// per-source cache of `MAX_NODES` vectors.
#[test]
fn u16_boundary_distances_at_unreachable_minus_one() {
    use selfish_ncg::graph::distances::{MAX_NODES, UNREACHABLE};
    let n = MAX_NODES;
    let g = generators::path(n);
    let mut buf = BfsBuffer::new(n);
    let summary = buf.summary(&g, 0);
    let dist = buf.last_distances();
    assert_eq!(
        dist[n - 1],
        UNREACHABLE - 1,
        "diameter endpoint sits at exactly UNREACHABLE - 1"
    );
    assert_eq!(summary.max, Some(u32::from(UNREACHABLE) - 1));
    assert_eq!(summary.sum, Some((n as u64 - 1) * n as u64 / 2));
}
