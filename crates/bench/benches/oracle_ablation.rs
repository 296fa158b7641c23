//! Ablation of the cost-evaluation engines: the full-BFS reference
//! (apply → BFS → undo per candidate) vs. the cross-step persistent oracle on
//! the swap-game dynamics hot path (plus the GBG for the buy-move mix and the
//! Buy-Game `SetOwned` enumeration for the whole-strategy delta path).
//!
//! The `oracle_ablation` *binary* prints the same comparison as a speedup
//! table over an `n` sweep; this bench integrates it into `cargo bench`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ncg_core::{AsymSwapGame, BuyGame, Game, GreedyBuyGame, OracleKind, Workspace};
use ncg_graph::generators;
use ncg_sim::{
    run_trial_with_game, AlphaSpec, EngineSpec, ExperimentPoint, GameFamily, InitialTopology,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const BACKENDS: [OracleKind; 2] = [OracleKind::FullBfs, OracleKind::Persistent];

/// One best-response scan of a single agent — the innermost hot operation.
fn bench_best_response_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("oracle_best_response");
    for &n in &[64usize, 128, 256] {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::budgeted_random(n, 2, &mut rng);
        let asg = AsymSwapGame::sum();
        for kind in BACKENDS {
            let mut ws = Workspace::with_oracle(n, kind);
            group.bench_with_input(
                BenchmarkId::new(format!("ASG_{}", kind.label()), n),
                &g,
                |b, g| b.iter(|| black_box(asg.best_response(g, 0, &mut ws))),
            );
        }
        let h = generators::random_with_m_edges(n, 2 * n, &mut rng);
        let gbg = GreedyBuyGame::sum(n as f64 / 4.0);
        for kind in BACKENDS {
            let mut ws = Workspace::with_oracle(n, kind);
            group.bench_with_input(
                BenchmarkId::new(format!("GBG_{}", kind.label()), n),
                &h,
                |b, h| b.iter(|| black_box(gbg.best_response(h, 0, &mut ws))),
            );
        }
    }
    group.finish();
}

/// Buy-Game `SetOwned` enumeration: Gray-code delta scoring on the
/// persistent engine vs. the reference's apply → BFS → undo cycle.
fn bench_buy_game_set_owned(c: &mut Criterion) {
    let mut group = c.benchmark_group("oracle_setowned");
    group.sample_size(10);
    for &n in &[10usize, 13] {
        let mut rng = StdRng::seed_from_u64(7);
        let g = generators::random_with_m_edges(n, n + n / 2, &mut rng);
        let game = BuyGame::sum(n as f64 / 4.0);
        for (id, kind) in [
            ("delta", OracleKind::Persistent),
            ("apply_undo", OracleKind::FullBfs),
        ] {
            let mut ws = Workspace::with_oracle(n, kind);
            group.bench_with_input(BenchmarkId::new(id, n), &g, |b, g| {
                b.iter(|| {
                    let mut found = 0usize;
                    for u in 0..n {
                        found += usize::from(game.best_response(g, u, &mut ws).is_some());
                    }
                    black_box(found)
                })
            });
        }
    }
    group.finish();
}

fn engine_point(n: usize, engine: EngineSpec) -> ExperimentPoint {
    ExperimentPoint {
        n,
        family: GameFamily::AsgSum,
        alpha: AlphaSpec::Fixed(0.0),
        topology: InitialTopology::Budgeted { k: 2 },
        policy: ncg_core::policy::Policy::MaxCost,
        trials: 1,
        base_seed: 42,
        max_steps_factor: 400,
        engine,
    }
}

/// A full swap-game dynamics run per engine — the end-to-end hot path.
fn bench_swap_dynamics_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("oracle_swap_dynamics");
    group.sample_size(10);
    for &n in &[128usize, 256] {
        for engine in [EngineSpec::baseline(), EngineSpec::persistent()] {
            let point = engine_point(n, engine);
            let game = point.make_game();
            let id = format!("n{n}_{}", engine.label());
            group.bench_with_input(BenchmarkId::from_parameter(id), &point, |b, point| {
                b.iter(|| {
                    let r = run_trial_with_game(point, game.as_ref(), 0);
                    assert!(r.converged);
                    black_box(r.steps)
                })
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_best_response_backends,
    bench_buy_game_set_owned,
    bench_swap_dynamics_engines
);
criterion_main!(benches);
