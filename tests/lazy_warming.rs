//! Randomized equivalence of the persistent oracle's **sync point** against
//! from-scratch BFS.
//!
//! The first call at a new graph version brings every parked vector to it in
//! one pass over the journal window, or refills every vector in
//! bitset waves when the window is past the replay limit. The tests drive
//! one oracle over random move sequences of mostly one- or two-change
//! windows (the per-move regime, single moves included, which the sync
//! advances column-wise) with bursts past the limit, re-pin only a random
//! half of the sources per window (the rest are read as the sync left
//! them), and check every distance vector and summary against a fresh BFS,
//! the cache-arithmetic scoring path included. Iteration counts scale up in
//! `--release` like the other randomized suites.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selfish_ncg::core::{Game, GreedyBuyGame, OracleKind, Workspace};
use selfish_ncg::graph::oracle::{OracleStats, PersistentOracle};
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

/// A path of 33–47 vertices: most rows reach the last level bucket, which
/// counts every level from 31 on.
fn long_path<R: Rng>(rng: &mut R) -> OwnedGraph {
    generators::path(rng.gen_range(33usize..48))
}

/// Two random components with no edge between them, and an isolated
/// vertex: every row holds unreachable entries.
fn disconnected_graph<R: Rng>(rng: &mut R) -> OwnedGraph {
    let n = rng.gen_range(10usize..28);
    let half = n / 2;
    let mut g = OwnedGraph::new(n);
    for (lo, hi) in [(0, half), (half, n - 1)] {
        for v in lo + 1..hi {
            g.add_edge(v, rng.gen_range(lo..v));
        }
        for _ in 0..hi - lo {
            let (a, b) = (rng.gen_range(lo..hi), rng.gen_range(lo..hi));
            g.add_edge(a, b);
        }
    }
    g
}

/// One move by one random agent `u`, as the dynamics commit it: a Swap, a
/// Buy, a Delete or a whole-strategy change, so every journal entry of the
/// window is an edge at `u`. Returns `false` if the drawn move does not
/// apply.
fn apply_random_move<R: Rng>(g: &mut OwnedGraph, rng: &mut R) -> bool {
    let n = g.num_nodes();
    let u = rng.gen_range(0..n);
    let pick = |list: &[usize], rng: &mut R| list[rng.gen_range(0..list.len())];
    match rng.gen_range(0u32..4) {
        0 if g.degree(u) > 0 => {
            let from = pick(g.neighbors(u), rng);
            g.swap_edge(u, from, rng.gen_range(0..n))
        }
        1 => g.add_edge(u, rng.gen_range(0..n)),
        2 if g.owned_degree(u) > 0 => {
            let v = pick(g.owned_neighbors(u), rng);
            g.remove_owned_edge(u, v)
        }
        3 => {
            let mut owned: Vec<usize> = (0..rng.gen_range(0usize..4))
                .map(|_| rng.gen_range(0..n))
                .filter(|&v| v != u)
                .collect();
            owned.sort_unstable();
            owned.dedup();
            g.set_owned_neighbors(u, &owned)
        }
        _ => false,
    }
}

/// Toggles two edges with four distinct endpoints: a window with two
/// movers and no vertex common to its changes.
fn toggle_two_disjoint_edges<R: Rng>(g: &mut OwnedGraph, rng: &mut R) {
    let n = g.num_nodes();
    let mut ends = Vec::new();
    while ends.len() < 4 {
        let v = rng.gen_range(0..n);
        if !ends.contains(&v) {
            ends.push(v);
        }
    }
    for pair in ends.chunks(2) {
        let (a, b) = (pair[0], pair[1]);
        if g.has_edge(a, b) {
            g.remove_edge(a, b);
        } else {
            g.add_edge(a, b);
        }
    }
}

/// Sync-point replay ≡ full BFS over long random move sequences, on random
/// graphs, long paths and disconnected graphs. The windows are random
/// changes, single moves (a Swap, Buy, Delete or whole-strategy change by
/// one agent, which the sync advances column-wise), windows with two
/// movers, and bursts past the replay limit (every row refilled); only a
/// random half of the sources is re-pinned per window. After every window
/// every summary read is current, and every source's full row read by
/// `begin` matches a fresh BFS.
#[test]
fn lazy_warming_matches_eager_sync_and_full_bfs() {
    let mut rng = StdRng::seed_from_u64(0x1a2f);
    let (mut replayed_begins, mut column_patches) = (0u64, 0u64);
    let (mut two_mover_windows, mut refills) = (0usize, 0usize);
    for case in 0..9 * SCALE {
        let mut g = match case % 3 {
            0 => random_graph(&mut rng),
            1 => long_path(&mut rng),
            _ => disconnected_graph(&mut rng),
        };
        let n = g.num_nodes();
        let all: Vec<usize> = (0..n).collect();
        let mut oracle = PersistentOracle::new(n);
        let mut buf = BfsBuffer::new(n);
        oracle.pin_sources(&g, &all);
        for step in 0..18 {
            let before = oracle.stats();
            // Mostly one move or one or two random changes (the per-move
            // regime), sometimes two movers at once, and occasionally a
            // burst past the staleness limit max(8, n/8), so the sync
            // refills every slot in the waves.
            let mut two_movers = false;
            match rng.gen_range(0u32..20) {
                0..=2 => {
                    for _ in 0..(n / 8).max(8) + 3 {
                        apply_random_change(&mut g, &mut rng);
                    }
                }
                3..=7 => {
                    for _ in 0..rng.gen_range(1usize..3) {
                        apply_random_change(&mut g, &mut rng);
                    }
                }
                8..=9 => {
                    toggle_two_disjoint_edges(&mut g, &mut rng);
                    two_movers = true;
                }
                _ => {
                    apply_random_move(&mut g, &mut rng);
                }
            }
            let touched = random_half(n, &mut rng);
            oracle.pin_sources(&g, &touched);
            // A column-wise sync refills one row; a burst refills all n.
            refills +=
                usize::from(oracle.stats().batched_repins - before.batched_repins == n as u64);
            for src in 0..n {
                let ctx = format!("case {case} step {step} src {src}");
                let summary = oracle.cached_summary(&g, src);
                assert_eq!(summary, buf.summary(&g, src), "{ctx}");
            }
            for src in 0..n {
                let ctx = format!("case {case} step {step} row {src}");
                assert_eq!(oracle.begin(&g, src), buf.summary(&g, src), "{ctx}");
                assert_eq!(oracle.base_distances(), &buf.run(&g, src)[..n], "{ctx}");
            }
            if two_movers {
                let after = oracle.stats();
                assert_eq!(
                    after.replayed_begins - before.replayed_begins,
                    n as u64,
                    "case {case} step {step}: a window with two movers replays every row"
                );
                assert_eq!(after.column_patches, before.column_patches);
                assert_eq!(after.batched_repins, before.batched_repins);
                two_mover_windows += 1;
            }
        }
        let stats = oracle.stats();
        replayed_begins += stats.replayed_begins;
        column_patches += stats.column_patches;
    }
    // Every sync path must have been taken: the column-wise pass, the
    // replay of every row, and a burst that refilled every slot in the
    // waves.
    assert!(
        replayed_begins > 0,
        "no parked vector was replayed at a sync"
    );
    assert!(column_patches > 0, "no window was advanced column-wise");
    assert!(two_mover_windows > 0, "no window had two movers");
    assert!(refills > 0, "no burst refilled the slots in the waves");
}

/// Tentpole property of the word-parallel waves: the persistent oracle's
/// 64-wide bitset BFS bulk repins and scalar `BfsBuffer` traversals must
/// agree on every distance vector and summary over random move sequences —
/// including burst windows past the replay limit, which is exactly when a
/// re-pin recomputes whole slot groups in shared waves.
#[test]
fn batched_warm_replay_matches_scalar_and_full_bfs() {
    let mut rng = StdRng::seed_from_u64(0xb175);
    let mut refills = 0usize;
    for case in 0..6 * SCALE {
        let mut g = random_graph(&mut rng);
        let n = g.num_nodes();
        let all: Vec<usize> = (0..n).collect();
        let mut batched = PersistentOracle::new(n);
        let mut scalar = BfsBuffer::new(n);
        batched.pin_sources(&g, &all);
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
            let before = batched.stats().batched_repins;
            batched.pin_sources(&g, &random_half(n, &mut rng));
            // A column-wise sync refills one row; a burst refills all n.
            refills += usize::from(batched.stats().batched_repins - before == n as u64);
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
    }
    assert!(
        refills > 0,
        "no window past the replay limit went through the waves"
    );
}

/// An unannounced graph move: park every vector, mutate the graph *without*
/// re-pinning, and the buy-candidate scans must still match the full-BFS
/// workspace exactly. The first scan's sync brings every parked vector
/// current before any bound or kernel reads one, and no later scan syncs.
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
        let before = ws_pers.oracle_stats();
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
        let after = ws_pers.oracle_stats();
        let syncs = |s: &OracleStats| s.csr_patches + s.csr_rebuilds;
        assert_eq!(syncs(&after) - syncs(&before), 1, "case {case}: one sync");
        assert!(
            after.replayed_begins - before.replayed_begins <= n as u64,
            "case {case}: the sync replays every parked vector at most once"
        );
    }
}
