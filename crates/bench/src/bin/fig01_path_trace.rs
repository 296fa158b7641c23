//! Regenerates Fig. 1: the convergence trace of the MAX Swap Game on the path P_9
//! under the max cost policy with deterministic (smallest-index) tie-breaking.
//!
//! Prints one line per move (mover, swap, cost change) and the final stable tree,
//! plus the Θ(n log n) bound of Theorem 2.11 for comparison. `n=N` sets the
//! path length (default 9); a malformed argument exits with status 2.

use ncg_bench::{exit_bad_args, parse_arg, split_arg};
use ncg_core::dynamics::{Dynamics, DynamicsConfig};
use ncg_core::policy::{Policy, TieBreak};
use ncg_core::SwapGame;
use ncg_graph::properties;
use ncg_instances::paths;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut n: usize = 9;
    for arg in std::env::args().skip(1) {
        let (key, value) = split_arg(&arg).unwrap_or_else(|e| exit_bad_args(&e));
        match key {
            "n" => n = parse_arg(key, value).unwrap_or_else(|e| exit_bad_args(&e)),
            _ => eprintln!("ignoring unknown argument {key}={value}"),
        }
    }
    let game = SwapGame::max();
    let initial = paths::figure1_path(n);
    let config = DynamicsConfig::analysis(100 * n * n)
        .with_policy(Policy::MaxCost)
        .with_tie_break(TieBreak::Deterministic);
    let mut rng = StdRng::seed_from_u64(1);
    let mut dynamics = Dynamics::new(&game, initial, config);
    println!("MAX-SG on P_{n} under the max cost policy (Fig. 1)");
    while let Some(record) = dynamics.step(&mut rng) {
        println!(
            "step {:>3}: v{:<3} {:?}  cost {} -> {}",
            record.step + 1,
            record.agent + 1,
            record.mv,
            record.old_cost,
            record.new_cost
        );
    }
    let final_graph = dynamics.graph();
    println!(
        "converged after {} moves; final tree diameter {:?} (star or double star: {})",
        dynamics.steps(),
        properties::diameter(final_graph),
        properties::is_star_or_double_star(final_graph)
    );
    println!(
        "Θ(n log n) lower bound of Lemma 2.14: {:.1} moves",
        paths::lemma_2_14_lower_bound(n)
    );
}
