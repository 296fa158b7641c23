//! Ablation benchmarks of four design choices of the dynamics engine:
//! single-source scoring vs. all-pairs re-computation, early-exit unhappiness
//! scanning vs. full best-response computation, cycle detection on vs. off, and
//! trials spread over scoped worker threads vs. one thread.

use criterion::{criterion_group, criterion_main, Criterion};
use ncg_core::dynamics::{run_dynamics, DynamicsConfig};
use ncg_core::policy::Policy;
use ncg_core::{Game, GreedyBuyGame, Workspace};
use ncg_graph::{generators, DistanceMatrix};
use ncg_sim::{run_point, AlphaSpec, EngineSpec, ExperimentPoint, GameFamily, InitialTopology};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// Single-source scoring (what the library does) vs. recomputing all-pairs
/// distances per candidate (the naive alternative).
fn ablation_bfs_vs_all_pairs(c: &mut Criterion) {
    let n = 50;
    let mut rng = StdRng::seed_from_u64(2);
    let g = generators::random_with_m_edges(n, 2 * n, &mut rng);
    let game = GreedyBuyGame::sum(n as f64 / 4.0);
    let mut group = c.benchmark_group("ablation_candidate_scoring");
    group.bench_function("single_source_best_response", |b| {
        let mut ws = Workspace::new(n);
        b.iter(|| black_box(game.best_response(&g, 0, &mut ws)))
    });
    group.bench_function("all_pairs_recompute_per_candidate", |b| {
        let mut moves = Vec::new();
        game.candidate_moves(&g, 0, &mut moves);
        b.iter(|| {
            let mut best = f64::INFINITY;
            for mv in &moves {
                let mut h = g.clone();
                if ncg_core::apply_move(&mut h, 0, mv).is_some() {
                    let m = DistanceMatrix::compute(&h);
                    let cost = m.sum_distance(0).map_or(f64::INFINITY, |s| s as f64)
                        + game.alpha() * h.owned_degree(0) as f64;
                    best = best.min(cost);
                }
            }
            black_box(best)
        })
    });
    group.finish();
}

/// Early-exit unhappiness scan vs. computing the full best response per agent.
fn ablation_policy_scan(c: &mut Criterion) {
    let n = 60;
    let mut rng = StdRng::seed_from_u64(4);
    let g = generators::random_with_m_edges(n, 2 * n, &mut rng);
    let game = GreedyBuyGame::sum(n as f64 / 4.0);
    let mut group = c.benchmark_group("ablation_unhappiness_scan");
    group.bench_function("early_exit_scan", |b| {
        let mut ws = Workspace::new(n);
        b.iter(|| {
            let count = (0..n)
                .filter(|&u| game.has_improving_move(&g, u, &mut ws))
                .count();
            black_box(count)
        })
    });
    group.bench_function("full_best_response_scan", |b| {
        let mut ws = Workspace::new(n);
        b.iter(|| {
            let count = (0..n)
                .filter(|&u| game.best_response(&g, u, &mut ws).is_some())
                .count();
            black_box(count)
        })
    });
    group.finish();
}

/// Cost of exact cycle detection (state hashing) along a converging run.
fn ablation_cycle_detection(c: &mut Criterion) {
    let n = 30;
    let mut group = c.benchmark_group("ablation_cycle_detection");
    group.sample_size(10);
    for detect in [false, true] {
        let label = if detect {
            "with_state_hashing"
        } else {
            "without"
        };
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(11);
                let g = generators::random_with_m_edges(n, 2 * n, &mut rng);
                let game = GreedyBuyGame::sum(n as f64 / 4.0);
                let mut cfg = DynamicsConfig::simulation(400 * n).with_policy(Policy::MaxCost);
                cfg.detect_cycles = detect;
                black_box(run_dynamics(&game, &g, &cfg, &mut rng).steps)
            })
        });
    }
    group.finish();
}

/// Trials of an experiment point on `std::thread::scope` workers (one per
/// available CPU) vs. on one thread.
fn ablation_parallel_runner(c: &mut Criterion) {
    let point = ExperimentPoint {
        n: 25,
        family: GameFamily::GbgSum,
        alpha: AlphaSpec::FractionOfN(0.25),
        topology: InitialTopology::RandomEdges { m_per_n: 2 },
        policy: Policy::MaxCost,
        trials: 16,
        base_seed: 5,
        max_steps_factor: 400,
        engine: EngineSpec::default(),
    };
    let mut group = c.benchmark_group("ablation_parallel_runner");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter(|| black_box(run_point(&point, Some(1))))
    });
    group.bench_function("parallel_all_cpus", |b| {
        b.iter(|| black_box(run_point(&point, None)))
    });
    group.finish();
}

criterion_group!(
    benches,
    ablation_bfs_vs_all_pairs,
    ablation_policy_scan,
    ablation_cycle_detection,
    ablation_parallel_runner
);
criterion_main!(benches);
