//! Randomized equivalence of the persistent oracle's **lazy version-replay**
//! model against the eager-sync model and from-scratch BFS.
//!
//! Three synchronization disciplines are driven over the same random move
//! sequences:
//!
//! * *lazy* — vectors are only advanced by [`DistanceOracle::warm_sources`]
//!   (fed the exact changed-vector set of each window, the dynamics engine's
//!   contract) and by on-demand replay inside queries;
//! * *eager* — every parked vector is re-pinned at every version
//!   (`pin_sources` over all sources, the pre-lazy model);
//! * *truth* — a fresh BFS per query.
//!
//! All three must agree on every distance vector and summary after every
//! window, including windows longer than the staleness limit (per-vector
//! fallback), under slot-cap pressure (eviction), and across the
//! cache-arithmetic scoring path (`lazy_hits`). Iteration counts scale up in
//! `--release` like the other randomized suites.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selfish_ncg::core::dynamics::DynamicsConfig;
use selfish_ncg::core::{Game, GreedyBuyGame, OracleKind, Workspace};
use selfish_ncg::graph::oracle::{DistanceOracle, FullBfsOracle, PersistentOracle};
use selfish_ncg::graph::{generators, BfsBuffer, OwnedGraph};
use selfish_ncg::prelude::*;

/// Scale factor for the randomized loops: modest in debug (tier-1), the full
/// load in release (CI release job).
const SCALE: usize = if cfg!(debug_assertions) { 1 } else { 10 };

fn random_graph<R: Rng>(rng: &mut R) -> OwnedGraph {
    let n = rng.gen_range(8usize..28);
    match rng.gen_range(0u32..3) {
        0 => generators::budgeted_random(n, rng.gen_range(1usize..3).min((n - 2) / 2), rng),
        1 => generators::random_with_m_edges(n, rng.gen_range(n..3 * n), rng),
        _ => generators::random_spanning_tree(n, None, rng),
    }
}

/// Applies one random structural change to `g`; returns `false` if nothing
/// applied (e.g. the graph is complete).
fn apply_random_change<R: Rng>(g: &mut OwnedGraph, rng: &mut R) -> bool {
    let n = g.num_nodes();
    if rng.gen_bool(0.5) {
        let edges: Vec<_> = g.edges().map(|e| (e.owner, e.other)).collect();
        if !edges.is_empty() {
            let (u, v) = edges[rng.gen_range(0..edges.len())];
            return g.remove_edge(u, v);
        }
    }
    for _ in 0..20 {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v && !g.has_edge(u, v) {
            return g.add_edge(u, v);
        }
    }
    false
}

/// The exact set of sources whose distance vector differs from `pre`,
/// refreshing `pre` in place — the ground-truth dirty set of one window.
fn changed_vectors(g: &OwnedGraph, pre: &mut [Vec<u16>], buf: &mut BfsBuffer) -> Vec<usize> {
    let n = g.num_nodes();
    let mut dirty = Vec::new();
    for (x, pre_x) in pre.iter_mut().enumerate() {
        let now = &buf.run(g, x)[..n];
        if now != pre_x.as_slice() {
            dirty.push(x);
            pre_x.clear();
            pre_x.extend_from_slice(now);
        }
    }
    dirty
}

/// Tentpole property: lazy per-source version replay ≡ eager per-version
/// sync ≡ full BFS over long random move sequences, with bursts past the
/// staleness limit (per-vector fallback) and a slot-capped twin (eviction)
/// riding along.
#[test]
fn lazy_warming_matches_eager_sync_and_full_bfs() {
    let mut rng = StdRng::seed_from_u64(0x1a2f);
    let cases = 6 * SCALE;
    let mut warm_batches = 0u64;
    let mut warm_bumps = 0u64;
    let mut lazy_replays = 0u64;
    for case in 0..cases {
        let mut g = random_graph(&mut rng);
        let n = g.num_nodes();
        let all: Vec<usize> = (0..n).collect();
        let mut lazy = PersistentOracle::new(n);
        let mut capped = PersistentOracle::with_slot_cap(n, Some(3));
        let mut eager = PersistentOracle::new(n);
        let mut buf = BfsBuffer::new(n);
        lazy.pin_sources(&g, &all);
        capped.pin_sources(&g, &all);
        eager.pin_sources(&g, &all);
        let mut pre: Vec<Vec<u16>> = (0..n).map(|x| buf.run(&g, x)[..n].to_vec()).collect();
        for step in 0..18 {
            // Mostly small windows (the per-move regime); occasionally a
            // burst past the staleness limit max(8, n/8) so replay fails
            // per-vector and the full-BFS fallback path is exercised.
            let window = if rng.gen_bool(0.15) {
                (n / 8).max(8) + 3
            } else {
                rng.gen_range(1usize..3)
            };
            for _ in 0..window {
                apply_random_change(&mut g, &mut rng);
            }
            let dirty = changed_vectors(&g, &mut pre, &mut buf);
            lazy.warm_sources(&g, &dirty);
            capped.warm_sources(&g, &dirty);
            eager.pin_sources(&g, &all);
            for probe in 0..4 {
                let src = rng.gen_range(0..n);
                let expect = buf.summary(&g, src);
                let ctx = format!("case {case} step {step} probe {probe} src {src}");
                assert_eq!(lazy.begin(&g, src), expect, "lazy {ctx}");
                assert_eq!(lazy.base_distances(), &buf.run(&g, src)[..n], "lazy {ctx}");
                assert_eq!(capped.begin(&g, src), expect, "capped {ctx}");
                assert_eq!(
                    capped.base_distances(),
                    &buf.run(&g, src)[..n],
                    "capped {ctx}"
                );
                assert_eq!(eager.begin(&g, src), expect, "eager {ctx}");
            }
        }
        let stats = lazy.stats();
        warm_batches += stats.warm_batches;
        warm_bumps += stats.warm_bumps;
        lazy_replays += stats.lazy_replays;
        let slot_bytes = 2 * (2 * n as u64 + 2);
        assert!(
            capped.stats().peak_parked_bytes <= 3 * slot_bytes,
            "case {case}: the recorded peak must respect the slot cap"
        );
    }
    // The lazy discipline must actually have taken its fast paths, not fallen
    // back to full BFS throughout.
    assert!(warm_batches > 0, "bulk warming never ran");
    assert!(warm_bumps > 0, "no clean vector was stamp-bumped");
    assert!(lazy_replays > 0, "no dirty vector was lazily replayed");
}

/// Tentpole property of the word-parallel waves: the persistent oracle's
/// 64-wide bitset BFS bulk repins, the scalar full-BFS reference oracle and
/// fresh BFS must agree on every distance vector and summary over random
/// move sequences — including burst windows past the replay limit, which is
/// exactly when the batched path recomputes whole slot groups in shared
/// waves.
#[test]
fn batched_warm_replay_matches_scalar_and_full_bfs() {
    let mut rng = StdRng::seed_from_u64(0xb175);
    let mut batched_repins = 0u64;
    for case in 0..6 * SCALE {
        let mut g = random_graph(&mut rng);
        let n = g.num_nodes();
        let all: Vec<usize> = (0..n).collect();
        let mut batched = PersistentOracle::new(n);
        let mut scalar = FullBfsOracle::new(n);
        let mut buf = BfsBuffer::new(n);
        batched.pin_sources(&g, &all);
        let mut pre: Vec<Vec<u16>> = (0..n).map(|x| buf.run(&g, x)[..n].to_vec()).collect();
        for step in 0..14 {
            // Mostly small windows; frequent bursts past the replay limit
            // max(8, n/8), which is what routes slots into the waves.
            let window = if rng.gen_bool(0.3) {
                (n / 8).max(8) + 2
            } else {
                rng.gen_range(1usize..3)
            };
            for _ in 0..window {
                apply_random_change(&mut g, &mut rng);
            }
            let dirty = changed_vectors(&g, &mut pre, &mut buf);
            batched.warm_sources(&g, &dirty);
            if step % 4 == 3 {
                // Periodic bulk re-pin: cold and unreplayable sources go
                // through the shared waves on the batched oracle.
                batched.pin_sources(&g, &all);
                for &src in &all {
                    let expect = buf.summary(&g, src);
                    let ctx = format!("case {case} step {step} src {src}");
                    assert_eq!(
                        batched.cached_summary(&g, src),
                        Some(expect),
                        "batched {ctx}"
                    );
                }
            }
            for probe in 0..4 {
                let src = rng.gen_range(0..n);
                let expect = buf.summary(&g, src);
                let ctx = format!("case {case} step {step} probe {probe} src {src}");
                assert_eq!(batched.begin(&g, src), expect, "batched {ctx}");
                assert_eq!(
                    batched.base_distances(),
                    &buf.run(&g, src)[..n],
                    "batched {ctx}"
                );
                assert_eq!(scalar.begin(&g, src), expect, "scalar {ctx}");
                assert_eq!(
                    scalar.base_distances(),
                    batched.base_distances(),
                    "scalar {ctx}"
                );
            }
        }
        batched_repins += batched.stats().batched_repins;
    }
    assert!(batched_repins > 0, "the word-parallel waves never ran");
}

/// The warming contract tolerates gaps: when several windows pass between
/// warming calls, handing the union of their changed sets must stay exact
/// (the floor check only trusts stamp bumps across an unbroken chain).
#[test]
fn warming_with_gaps_and_unions_stays_exact() {
    let mut rng = StdRng::seed_from_u64(0x9a55);
    for case in 0..4 * SCALE {
        let mut g = random_graph(&mut rng);
        let n = g.num_nodes();
        let all: Vec<usize> = (0..n).collect();
        let mut oracle = PersistentOracle::new(n);
        let mut buf = BfsBuffer::new(n);
        oracle.pin_sources(&g, &all);
        let mut pre: Vec<Vec<u16>> = (0..n).map(|x| buf.run(&g, x)[..n].to_vec()).collect();
        for step in 0..10 {
            // 1–3 windows between warming calls; the dirty set below is the
            // union over the whole gap because `changed_vectors` diffs
            // against the state at the *previous warm*.
            for _ in 0..rng.gen_range(1usize..4) {
                apply_random_change(&mut g, &mut rng);
            }
            let dirty = changed_vectors(&g, &mut pre, &mut buf);
            oracle.warm_sources(&g, &dirty);
            for &src in all.iter().take(5) {
                assert_eq!(
                    oracle.begin(&g, src),
                    buf.summary(&g, src),
                    "case {case} step {step} src {src}"
                );
                assert_eq!(oracle.base_distances(), &buf.run(&g, src)[..n]);
            }
        }
    }
}

/// On-demand lazy warming inside the cache-arithmetic path: park every
/// vector, mutate the graph *without* re-pinning, and the buy-candidate
/// scans must still match the full-BFS workspace exactly — with `lazy_hits`
/// proving the fast path was served by on-demand replay rather than falling
/// back.
#[test]
fn on_demand_warming_keeps_buy_scans_exact() {
    let mut rng = StdRng::seed_from_u64(0x0dde);
    let mut hits = 0u64;
    for case in 0..6 * SCALE {
        let n = rng.gen_range(10usize..24);
        let mut g = generators::random_with_m_edges(n, 2 * n, &mut rng);
        let game = GreedyBuyGame::sum(n as f64 / 4.0);
        let mut ws_pers = Workspace::with_oracle(n, OracleKind::Persistent);
        let mut ws_full = Workspace::with_oracle(n, OracleKind::FullBfs);
        // Park every source's vector at the current version…
        for u in 0..n {
            let _ = game.improving_moves(&g, u, &mut ws_pers);
        }
        // …then move the graph on without telling the persistent workspace.
        for _ in 0..2 {
            apply_random_change(&mut g, &mut rng);
        }
        for u in 0..n {
            assert_eq!(
                game.improving_moves(&g, u, &mut ws_pers),
                game.improving_moves(&g, u, &mut ws_full),
                "case {case} agent {u}"
            );
            assert_eq!(
                game.best_response(&g, u, &mut ws_pers),
                game.best_response(&g, u, &mut ws_full),
                "case {case} agent {u}"
            );
        }
        hits += ws_pers.oracle_stats().lazy_hits;
    }
    assert!(
        hits > 0,
        "stale parked vectors were never served by on-demand warming"
    );
}

/// Regression at the old crossover point (SUM-GBG, n ≥ 128): the dirty
/// engines form one trajectory class — `full-bfs+dirty` (pre-move endpoint
/// BFS diffs) and the warmed `persistent+dirty` (the oracle's exported
/// change sets) must replay the *identical* move sequence for the same
/// seed. Warming is invisible to everything but the clock.
#[test]
fn dirty_trajectory_identity_at_the_old_crossover() {
    let ns: &[usize] = if cfg!(debug_assertions) {
        &[32]
    } else {
        &[128, 256]
    };
    for &n in ns {
        let mut seed_rng = StdRng::seed_from_u64(0xc055);
        let g = generators::random_with_m_edges(n, 2 * n, &mut seed_rng);
        let game = GreedyBuyGame::sum(n as f64 / 4.0);
        let run = |oracle: OracleKind| {
            let mut rng = StdRng::seed_from_u64(0x7ea5);
            let mut cfg = DynamicsConfig::simulation(400 * n)
                .with_oracle(oracle)
                .with_dirty_agents(true);
            cfg.record_trajectory = true;
            run_dynamics(&game, &g, &cfg, &mut rng)
        };
        let reference = run(OracleKind::FullBfs);
        assert!(reference.converged(), "n={n}: reference must converge");
        let out = run(OracleKind::Persistent);
        assert_eq!(
            out.trajectory, reference.trajectory,
            "n={n}: dirty trajectory diverged"
        );
        assert_eq!(out.final_graph, reference.final_graph, "n={n}");
        assert_eq!(out.termination, reference.termination, "n={n}");
    }
}
