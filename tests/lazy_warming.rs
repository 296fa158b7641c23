//! Randomized equivalence of the persistent oracle's **sync point** against
//! from-scratch BFS.
//!
//! The first call at a new graph version brings every parked vector to it in
//! one pass by replaying the journal window, or refills every vector in
//! bitset waves when the window is past the replay limit. The tests drive
//! one oracle over random move sequences of mostly one- or two-change
//! windows (the per-move regime) with bursts past the limit, re-pin only a
//! random half of the sources per window (the rest are read as the sync left
//! them), and check every distance vector and summary against a fresh BFS,
//! the cache-arithmetic scoring path included. Iteration counts scale up in
//! `--release` like the other randomized suites.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selfish_ncg::core::{Game, GreedyBuyGame, OracleKind, Workspace};
use selfish_ncg::graph::oracle::PersistentOracle;
use selfish_ncg::graph::{generators, BfsBuffer, OwnedGraph};

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

/// A random half of the sources `0..n`: the ones a window's queries happen
/// to re-pin. The rest are read as the sync left them.
fn random_half<R: Rng>(n: usize, rng: &mut R) -> Vec<usize> {
    (0..n).filter(|_| rng.gen_bool(0.5)).collect()
}

/// Sync-point replay ≡ full BFS over long random move sequences, with
/// bursts past the replay limit (every slot refilled) and only a random half
/// of the sources re-pinned per window: every summary read is served and
/// never stale, and every `begin` matches a fresh BFS.
#[test]
fn lazy_warming_matches_eager_sync_and_full_bfs() {
    let mut rng = StdRng::seed_from_u64(0x1a2f);
    let (mut replayed_begins, mut rewaved) = (0u64, 0u64);
    for case in 0..6 * SCALE {
        let mut g = random_graph(&mut rng);
        let n = g.num_nodes();
        let all: Vec<usize> = (0..n).collect();
        let mut oracle = PersistentOracle::new(n);
        let mut buf = BfsBuffer::new(n);
        oracle.pin_sources(&g, &all);
        for step in 0..18 {
            // Mostly small windows (the per-move regime); occasionally a
            // burst past the staleness limit max(8, n/8), so the sync
            // refills every slot in the waves.
            let window = if rng.gen_bool(0.15) {
                (n / 8).max(8) + 3
            } else {
                rng.gen_range(1usize..3)
            };
            for _ in 0..window {
                apply_random_change(&mut g, &mut rng);
            }
            let touched = random_half(n, &mut rng);
            oracle.pin_sources(&g, &touched);
            for src in 0..n {
                let ctx = format!("case {case} step {step} src {src}");
                let summary = oracle.cached_summary(&g, src);
                assert_eq!(summary, buf.summary(&g, src), "{ctx}");
            }
            for probe in 0..4 {
                let src = rng.gen_range(0..n);
                let ctx = format!("case {case} step {step} probe {probe} src {src}");
                assert_eq!(oracle.begin(&g, src), buf.summary(&g, src), "{ctx}");
                assert_eq!(oracle.base_distances(), &buf.run(&g, src)[..n], "{ctx}");
            }
        }
        let stats = oracle.stats();
        replayed_begins += stats.replayed_begins;
        rewaved += stats.batched_repins - n as u64;
    }
    // Both sync paths must have been taken: replay, and a burst that
    // refilled every slot in the waves.
    assert!(
        replayed_begins > 0,
        "no parked vector was replayed at a sync"
    );
    assert!(rewaved > 0, "no burst refilled the slots in the waves");
}

/// Tentpole property of the word-parallel waves: the persistent oracle's
/// 64-wide bitset BFS bulk repins and scalar `BfsBuffer` traversals must
/// agree on every distance vector and summary over random move sequences —
/// including burst windows past the replay limit, which is exactly when a
/// re-pin recomputes whole slot groups in shared waves.
#[test]
fn batched_warm_replay_matches_scalar_and_full_bfs() {
    let mut rng = StdRng::seed_from_u64(0xb175);
    let mut batched_repins = 0u64;
    for case in 0..6 * SCALE {
        let mut g = random_graph(&mut rng);
        let n = g.num_nodes();
        let all: Vec<usize> = (0..n).collect();
        let mut batched = PersistentOracle::new(n);
        let mut scalar = BfsBuffer::new(n);
        batched.pin_sources(&g, &all);
        // Count only the waves that refill the slots after a burst, not the
        // initial fill.
        batched.reset_stats();
        for step in 0..14 {
            // Mostly small windows; frequent bursts past the replay limit
            // max(8, n/8), which refill every slot in the waves.
            let window = if rng.gen_bool(0.3) {
                (n / 8).max(8) + 2
            } else {
                rng.gen_range(1usize..3)
            };
            for _ in 0..window {
                apply_random_change(&mut g, &mut rng);
            }
            batched.pin_sources(&g, &random_half(n, &mut rng));
            if step % 4 == 3 {
                // Periodic bulk re-pin: every summary of the batched oracle
                // is current, whatever the last sync did.
                batched.pin_sources(&g, &all);
                for &src in &all {
                    let expect = scalar.summary(&g, src);
                    let ctx = format!("case {case} step {step} src {src}");
                    assert_eq!(batched.cached_summary(&g, src), expect, "batched {ctx}");
                }
            }
            for probe in 0..4 {
                let src = rng.gen_range(0..n);
                let expect = scalar.summary(&g, src);
                let ctx = format!("case {case} step {step} probe {probe} src {src}");
                assert_eq!(batched.begin(&g, src), expect, "batched {ctx}");
                assert_eq!(
                    batched.base_distances(),
                    &scalar.run(&g, src)[..n],
                    "batched {ctx}"
                );
            }
        }
        batched_repins += batched.stats().batched_repins;
    }
    assert!(
        batched_repins > 0,
        "no window past the replay limit went through the waves"
    );
}

/// An unannounced graph move: park every vector, mutate the graph *without*
/// re-pinning, and the buy-candidate scans must still match the full-BFS
/// workspace exactly. The first scan's sync replays the window into every
/// parked vector before any bound or kernel reads one.
#[test]
fn on_demand_warming_keeps_buy_scans_exact() {
    let mut rng = StdRng::seed_from_u64(0x0dde);
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
        let before = ws_pers.oracle_stats().replayed_begins;
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
        let replayed = ws_pers.oracle_stats().replayed_begins - before;
        assert_eq!(
            replayed, n as u64,
            "case {case}: one sync replays every parked vector once"
        );
    }
}
