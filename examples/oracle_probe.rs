//! Probe: per-engine wall-clock and steps on the SUM-GBG and SUM-ASG
//! ablation workloads, with the persistent engine's oracle work counters
//! (the full-BFS reference's oracle never syncs and counts nothing), plus a
//! traced trial per family rendered as a text flame profile (`ncg-trace`
//! phase tree).
//!
//! ```text
//! cargo run --release --example oracle_probe -- 64 128
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use selfish_ncg::core::dynamics::{Dynamics, DynamicsConfig};
use selfish_ncg::core::policy::{Policy, TieBreak};
use selfish_ncg::core::{GreedyBuyGame, OracleKind};
use selfish_ncg::graph::generators;
use selfish_ncg::trace;

fn run(n: usize, family: &str, oracle: OracleKind) {
    use selfish_ncg::core::{AsymSwapGame, Game};
    let mut rng = StdRng::seed_from_u64(42);
    let (game, g): (Box<dyn Game>, _) = match family {
        "asg" => (
            Box::new(AsymSwapGame::sum()),
            generators::budgeted_random(n, 2, &mut rng),
        ),
        _ => (
            Box::new(GreedyBuyGame::sum(n as f64 / 4.0)),
            generators::random_with_m_edges(n, 2 * n, &mut rng),
        ),
    };
    let game = game.as_ref();
    let config = DynamicsConfig {
        policy: Policy::MaxCost,
        tie_break: TieBreak::Random,
        max_steps: 400 * n,
        detect_cycles: false,
        record_trajectory: false,
        ownership_in_state: true,
        oracle,
    };
    let mut dynamics = Dynamics::new(game, g, config);
    let watch = trace::Stopwatch::start();
    let mut steps = 0usize;
    while dynamics.step(&mut rng).is_some() {
        steps += 1;
    }
    let secs = watch.elapsed_secs();
    print!(
        "n={n:>4} {family} {:<12} {secs:>8.3}s steps={steps:>5}",
        oracle.label()
    );
    if oracle == OracleKind::FullBfs {
        println!();
        return;
    }
    let stats = dynamics.oracle_stats();
    println!(
        " replays={:>7} column_patches={:>7} evals={:>8} expanded={:>10} csr_patch={:>6} csr_rebuild={:>6} batched={:>6} peak_parked={:>9}B",
        stats.replayed_begins,
        stats.column_patches,
        stats.evaluations,
        stats.nodes_expanded,
        stats.csr_patches,
        stats.csr_rebuilds,
        stats.batched_repins,
        stats.peak_parked_bytes,
    );
}

/// One fully traced trial of the eager persistent engine, rendered as a text
/// flame profile: every `ncg-trace` phase (cost-refresh, scan, apply, the
/// oracle's begin/replay/wave/kernel leaves) nests under the trial span, and
/// the leaf-coverage line reports how much of the trial's wall-clock the leaf
/// phases account for.
fn phases(n: usize, family: &str) {
    use selfish_ncg::core::{AsymSwapGame, Game};
    use selfish_ncg::sim::{run_dynamics_trial_probed, EngineSpec};
    let mut rng = StdRng::seed_from_u64(42);
    let (game, g): (Box<dyn Game + Send + Sync>, _) = match family {
        "asg" => (
            Box::new(AsymSwapGame::sum()),
            generators::budgeted_random(n, 2, &mut rng),
        ),
        _ => (
            Box::new(GreedyBuyGame::sum(n as f64 / 4.0)),
            generators::random_with_m_edges(n, 2 * n, &mut rng),
        ),
    };
    trace::set_enabled(true);
    let _ = trace::take_report(); // drop anything earlier probes recorded
    let watch = trace::Stopwatch::start();
    let (result, stats) = run_dynamics_trial_probed(
        game.as_ref(),
        g,
        Policy::MaxCost,
        EngineSpec::persistent(),
        400 * n,
        &mut rng,
    );
    let wall_ns = watch.elapsed_ns();
    trace::set_enabled(false);
    let report = trace::take_report();
    println!(
        "n={n:>4} {family} traced trial: steps={} converged={} wall={:.3}s",
        result.steps,
        result.converged,
        wall_ns as f64 / 1e9,
    );
    print!("{}", report.render_flame());
    let leaf_ns = (report.leaf_coverage() * report.total_ns() as f64) as u64;
    println!(
        "leaf coverage: {:.1}% of the span tree, {:.1}% of wall-clock",
        report.leaf_coverage() * 100.0,
        leaf_ns as f64 / wall_ns.max(1) as f64 * 100.0,
    );
    match report.wasted_scan_ratio() {
        Some(ratio) => println!(
            "wasted-scan ratio: {ratio:.1} agents scanned per improving move ({} scanned / {} improving)",
            report.counter(trace::Counter::AgentsScanned),
            report.counter(trace::Counter::ImprovingMoves),
        ),
        None => println!("wasted-scan ratio: n/a (no improving moves recorded)"),
    }
    println!("oracle stats: {stats:?}");
}

fn main() {
    let ns: Vec<usize> = std::env::args()
        .skip(1)
        .filter_map(|a| a.parse().ok())
        .collect();
    let ns = if ns.is_empty() { vec![64] } else { ns };
    for &n in &ns {
        for family in ["gbg", "asg"] {
            for oracle in [OracleKind::FullBfs, OracleKind::Persistent] {
                run(n, family, oracle);
            }
        }
        phases(n, "gbg");
        phases(n, "asg");
    }
}
