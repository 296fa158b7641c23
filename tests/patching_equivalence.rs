//! Randomized equivalence of the `O(changes)` fast paths added for the
//! patched-CSR engine:
//!
//! * [`CsrAdjacency::patch_from_journal`] ≡ [`CsrAdjacency::rebuild_from`]
//!   over random journal windows — including windows denser than the patch
//!   limit (rebuild fallback), node-count growth/shrink, and hub-insert
//!   storms that exhaust the per-segment slack (compaction fallback);
//! * bilateral delta-scored consent ≡ apply → BFS → undo consent over random
//!   move sequences, for both cost families (SUM and MAX): the persistent
//!   workspace must produce exactly the improving-move and best-response
//!   lists of the full-BFS reference's scratch graph at every visited
//!   state.
//!
//! Driven by seeded loops over the deterministic [`StdRng`] shim; every
//! failure is reproducible from the printed case/seed. Iteration counts are
//! scaled down in debug builds (the tier-1 `cargo test -q` run) and reach
//! ≥ 500 random move sequences per cost family in `--release` (the CI
//! release job).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use selfish_ncg::core::{OracleKind, Workspace};
use selfish_ncg::graph::{generators, CsrAdjacency, OwnedGraph, PatchOutcome};
use selfish_ncg::prelude::*;

/// Scale factor for the randomized loops (see module docs).
const SCALE: usize = if cfg!(debug_assertions) { 1 } else { 10 };

fn assert_csr_matches(csr: &CsrAdjacency, g: &OwnedGraph, what: &str) {
    assert_eq!(csr.num_nodes(), g.num_nodes(), "{what}: node count");
    assert_eq!(csr.endpoint_count(), g.endpoint_count(), "{what}: 2m");
    for u in 0..g.num_nodes() {
        let expected: Vec<u32> = g.neighbors(u).iter().map(|&v| v as u32).collect();
        assert_eq!(csr.neighbors(u), expected.as_slice(), "{what}: vertex {u}");
    }
}

/// Applies a random batch of structural changes to `g`, biased towards the
/// small windows of real dynamics steps but occasionally dense enough to
/// exercise the rebuild fallback. Returns the number of changes journaled.
fn mutate_batch<R: Rng>(g: &mut OwnedGraph, rng: &mut R) -> usize {
    let n = g.num_nodes();
    let batch = if rng.gen_bool(0.15) {
        // Dense window: past the patch limit with high probability.
        rng.gen_range(n / 4..n.max(8))
    } else {
        rng.gen_range(1usize..4)
    };
    let mut applied = 0;
    for _ in 0..batch {
        let hub_storm = rng.gen_bool(0.3);
        let (a, b) = if hub_storm {
            // Bias one endpoint to vertex 0: repeated hub inserts exhaust
            // the hub segment's slack and force a compaction.
            (0, rng.gen_range(1..n))
        } else {
            (rng.gen_range(0..n), rng.gen_range(0..n))
        };
        if a == b {
            continue;
        }
        let changed = if g.has_edge(a, b) && !rng.gen_bool(0.6) {
            g.remove_edge(a, b)
        } else {
            g.add_edge(a, b)
        };
        if changed {
            applied += 1;
        }
    }
    applied
}

#[test]
fn csr_patch_matches_rebuild_over_random_journals() {
    for case in 0..40 * SCALE {
        let mut rng = StdRng::seed_from_u64(0xC5A0 + case as u64);
        let n = rng.gen_range(4usize..48);
        let mut g = generators::random_with_m_edges(n, rng.gen_range(n..3 * n), &mut rng);
        let mut csr = CsrAdjacency::build(&g);
        let (mut patched, mut fell_back) = (0usize, 0usize);
        for round in 0..30 {
            let from = g.version();
            mutate_batch(&mut g, &mut rng);
            let changes = g.changes_since(from).expect("window retained");
            let outcome = csr.patch_from_journal(&g, changes);
            match outcome {
                PatchOutcome::Patched => patched += 1,
                PatchOutcome::Compacted | PatchOutcome::Rebuilt => fell_back += 1,
            }
            assert_csr_matches(
                &csr,
                &g,
                &format!("case {case} round {round} ({outcome:?})"),
            );
        }
        assert!(
            patched > 0 || fell_back > 0,
            "case {case}: the loop must exercise the patcher"
        );
        // Node-count changes degrade to a rebuild and stay correct.
        let resized_n = if n > 20 { n / 2 } else { n + 7 };
        let resized = generators::random_with_m_edges(
            resized_n,
            rng.gen_range(resized_n..2 * resized_n),
            &mut rng,
        );
        let outcome = csr.patch_from_journal(&resized, &[]);
        assert_eq!(outcome, PatchOutcome::Rebuilt, "case {case}: resize");
        assert_csr_matches(&csr, &resized, &format!("case {case} resized"));
    }
}

/// One random bilateral move sequence: at every state compare the persistent
/// (delta consent) and full-BFS (apply → BFS → undo) scans for a sampled
/// agent, then advance with a random feasible improving move.
fn bilateral_sequence(metric_max: bool, case: u64) {
    let mut rng = StdRng::seed_from_u64(0xB11A + case);
    let n = rng.gen_range(5usize..8);
    let alpha = [0.8, 2.0, 5.0][rng.gen_range(0..3usize)];
    let game = if metric_max {
        BilateralBuyGame::max(alpha)
    } else {
        BilateralBuyGame::sum(alpha)
    };
    let mut g = generators::random_with_m_edges(n, rng.gen_range(n - 1..2 * n), &mut rng);
    let mut fast = Workspace::with_oracle(n, OracleKind::Persistent);
    let mut slow = Workspace::with_oracle(n, OracleKind::FullBfs);
    for step in 0..6 {
        let probe = rng.gen_range(0..n);
        let a = game.improving_moves(&g, probe, &mut fast);
        let b = game.improving_moves(&g, probe, &mut slow);
        assert_eq!(a, b, "case {case} step {step} agent {probe}: improving");
        let a = game.best_responses(&g, probe, &mut fast);
        let b = game.best_responses(&g, probe, &mut slow);
        assert_eq!(a, b, "case {case} step {step} agent {probe}: best");
        // Advance the state with a random agent's random improving move so
        // later scans (and the persistent caches) see evolving graphs.
        let mover = rng.gen_range(0..n);
        let moves = game.improving_moves(&g, mover, &mut slow);
        if let Some(chosen) = moves.choose(&mut rng) {
            selfish_ncg::core::apply_move(&mut g, mover, &chosen.mv).expect("improving applies");
        }
    }
}

#[test]
fn bilateral_delta_consent_equivalence_sum() {
    // ≥ 500 random sequences in release (50 · SCALE = 500), 50 in debug.
    for case in 0..50 * SCALE {
        bilateral_sequence(false, case as u64);
    }
}

#[test]
fn bilateral_delta_consent_equivalence_max() {
    for case in 0..50 * SCALE {
        bilateral_sequence(true, case as u64);
    }
}
