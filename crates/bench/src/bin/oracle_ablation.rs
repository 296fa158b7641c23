//! Ablation report: the full-BFS reference engine (apply → BFS → undo per
//! candidate) vs. the cross-step **persistent** oracle on the swap-game and
//! greedy-buy-game dynamics hot paths, plus a Buy-Game `SetOwned` series
//! comparing whole-strategy delta scoring against the reference and a
//! bilateral series doing the same for delta-scored consent.
//!
//! ```text
//! cargo run -p ncg-bench --release --bin oracle_ablation -- max_n=512 trials=5
//! cargo run -p ncg-bench --release --bin oracle_ablation -- smoke=1
//! cargo run -p ncg-bench --release --bin oracle_ablation -- smoke=1 bless=1
//! cargo run -p ncg-bench --release --bin oracle_ablation -- json=BENCH_oracle.json max_n=2048
//! ```
//!
//! Prints, per `(family, n)`, the fastest and slowest repeat's wall-clock
//! per engine together with the speedup of the persistent engine over the
//! full-BFS reference (fastest against fastest; both engines take the same
//! number of repeats). It asserts the identities the fast engine rests on:
//! traced ≡ untraced runs before any timing, `persistent` ≡ `full-bfs` step
//! counts in every cell both engines run (up to `full_max_n`, 512 by
//! default), and all-zero oracle counters on the reference, whose oracle
//! never syncs. `smoke=1` shrinks everything for CI, adds random-policy
//! cells of both families at n = 64, a SUM-GBG cell at n = 130, whose
//! scans cross the 64-vertex blocks of the oracle's level-histogram
//! envelopes, a SUM-BIL cell at n = 10, whose consent checks ask the
//! mover's oracle what each party pays, and a MAX-GBG cell at n = 64, whose
//! costs read the level counts and max bounds that the sync's column patch
//! keeps in step, and checks each persistent cell's work counters against
//! the golden file [`GOLDEN_PATH`]: a counter that differs from its pinned
//! value fails the run, printed as `golden → now`, and `smoke=1 bless=1`
//! rewrites the file. `json=PATH` additionally writes
//! the measurements as a JSON snapshot, stamped with the commit, toolchain
//! and host: per cell the fastest repeat per engine (`seconds`) and every
//! repeat (`repeat_seconds`).

use ncg_bench::{exit_bad_args, parse_arg, parse_flag, provenance_json, split_arg};
use ncg_core::policy::Policy;
use ncg_core::{BilateralBuyGame, BuyGame, Game, OracleKind, Workspace};
use ncg_graph::generators;
use ncg_graph::oracle::OracleStats;
use ncg_sim::{
    run_seeded_trial_probed, AlphaSpec, EngineSpec, GameFamily, InitialTopology, TrialResult,
};
use ncg_trace as trace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Work counters of the persistent engine's `smoke=1` cells, one line per
/// cell.
const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/golden/oracle_smoke_counters.txt"
);

/// The [`OracleStats`] fields a seed fixes, pinned in [`GOLDEN_PATH`]. They
/// count algorithmic work and the cache's bytes, so they catch a regression
/// that wall-clock on a noisy host cannot.
const PINNED_COUNTERS: [&str; 13] = [
    "evaluations",
    "nodes_expanded",
    "kernel_calls",
    "bound_queries",
    "bound_pruned",
    "row_bounds",
    "replayed_begins",
    "column_patches",
    "lazy_replays",
    "batched_repins",
    "csr_patches",
    "csr_rebuilds",
    "peak_parked_bytes",
];

/// Every [`OracleStats`] field by name.
fn counter_fields(st: &OracleStats) -> [(&'static str, u64); 13] {
    [
        ("evaluations", st.evaluations),
        ("nodes_expanded", st.nodes_expanded),
        ("replayed_begins", st.replayed_begins),
        ("column_patches", st.column_patches),
        ("csr_patches", st.csr_patches),
        ("csr_rebuilds", st.csr_rebuilds),
        ("lazy_replays", st.lazy_replays),
        ("batched_repins", st.batched_repins),
        ("peak_parked_bytes", st.peak_parked_bytes),
        ("kernel_calls", st.kernel_calls),
        ("bound_queries", st.bound_queries),
        ("bound_pruned", st.bound_pruned),
        ("row_bounds", st.row_bounds),
    ]
}

struct Scale {
    max_n: usize,
    /// Largest `n` the full-BFS reference engine still runs at (512 by
    /// default); beyond it only the persistent engine is measured, which is
    /// what lets the sweep reach n = 2048 on one core.
    full_max_n: usize,
    trials: usize,
    smoke: bool,
    /// `trace=1`: keep the global trace switch on for the whole run — the CI
    /// smoke mode that exercises every instrumented code path and the
    /// tracing-on ≡ tracing-off trajectory assertion.
    trace: bool,
    /// `bless=1` (with `smoke=1`): rewrite [`GOLDEN_PATH`] from this run
    /// instead of checking against it.
    bless: bool,
    json: Option<String>,
}

fn parse_scale() -> Result<Scale, String> {
    let mut scale = Scale {
        max_n: 256,
        full_max_n: 512,
        trials: 3,
        smoke: false,
        trace: false,
        bless: false,
        json: None,
    };
    for arg in std::env::args().skip(1) {
        let (key, value) = split_arg(&arg)?;
        match key {
            "max_n" => scale.max_n = parse_arg(key, value)?,
            "full_max_n" => scale.full_max_n = parse_arg(key, value)?,
            "trials" => scale.trials = parse_arg(key, value)?,
            "smoke" => scale.smoke = parse_flag(key, value)?,
            "trace" => scale.trace = parse_flag(key, value)?,
            "bless" => scale.bless = parse_flag(key, value)?,
            "json" => scale.json = Some(value.to_string()),
            _ => eprintln!("ignoring unknown argument {key}={value}"),
        }
    }
    if scale.bless && !scale.smoke {
        return Err("bless=1 rewrites the smoke-cell golden file and needs smoke=1".into());
    }
    if scale.smoke {
        scale.max_n = scale.max_n.min(64);
        scale.trials = 1;
    }
    Ok(scale)
}

/// One measured cell: `trials` seeded trials of `family` under `policy` at
/// `n` agents on `engine`, with α = n/4, base seed 42 and a step limit of
/// 400·n.
#[derive(Debug)]
struct Cell {
    family: GameFamily,
    policy: Policy,
    n: usize,
    engine: EngineSpec,
    trials: usize,
}

const CELL_SEED: u64 = 42;

impl Cell {
    fn topology(&self) -> InitialTopology {
        match self.family {
            GameFamily::AsgSum | GameFamily::AsgMax => InitialTopology::Budgeted { k: 2 },
            GameFamily::GbgSum
            | GameFamily::GbgMax
            | GameFamily::BilateralSum
            | GameFamily::BilateralMax
            | GameFamily::BuySum
            | GameFamily::BuyMax => InitialTopology::RandomEdges { m_per_n: 2 },
        }
    }

    fn make_game(&self) -> Box<dyn Game + Send + Sync> {
        let alpha = AlphaSpec::FractionOfN(0.25).resolve(self.n);
        self.family.make_game(self.n, alpha)
    }

    fn max_steps(&self) -> usize {
        400 * self.n
    }

    /// Trial `t` of the cell on `game`, with its oracle work counters.
    fn run_trial(&self, game: &(dyn Game + Send + Sync), t: usize) -> (TrialResult, OracleStats) {
        run_seeded_trial_probed(
            game,
            self.policy,
            self.engine,
            self.max_steps(),
            CELL_SEED,
            t,
            |rng| self.topology().generate(self.n, rng),
        )
    }
}

/// Wall-clock seconds of every repeat, step total and summed oracle
/// counters of `trials` converged runs of `point`. With `repeats > 1` the
/// whole trial block is run that many times (steps and counters are
/// identical across repeats — trials are seed-deterministic): the fastest
/// block is the usual min-based defence against one-off scheduler noise on
/// the cells whose ratios the snapshot's headline claims rest on, and the
/// slowest shows how far that noise reaches.
fn measure(point: &Cell, repeats: usize) -> (Vec<f64>, usize, OracleStats) {
    let game = point.make_game();
    let mut seconds = Vec::with_capacity(repeats.max(1));
    let mut steps = 0usize;
    let mut stats = OracleStats::default();
    for rep in 0..repeats.max(1) {
        let watch = trace::Stopwatch::start();
        let mut rep_steps = 0usize;
        let mut rep_stats = OracleStats::default();
        for t in 0..point.trials {
            let (r, s) = point.run_trial(game.as_ref(), t);
            assert!(r.converged, "{point:?} must converge");
            rep_steps += r.steps;
            rep_stats.merge(&s);
        }
        seconds.push(watch.elapsed_secs());
        if rep == 0 {
            steps = rep_steps;
            stats = rep_stats;
        } else {
            assert_eq!(rep_steps, steps, "{point:?}: trials are deterministic");
        }
    }
    (seconds, steps, stats)
}

/// The fastest and slowest of a cell's repeat wall-clocks.
fn min_max(seconds: &[f64]) -> (f64, f64) {
    let min = seconds.iter().copied().fold(f64::INFINITY, f64::min);
    let max = seconds.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (min, max)
}

/// The observability contract of `ncg-trace`: flipping the global switch must
/// be invisible to the simulation. The same seeded trial with tracing on and
/// tracing off must take the same number of steps, walk the identical move
/// sequence and land on the same final graph — spans and counters observe,
/// they never steer. Asserted on both headline families with the persistent
/// engine (the most instrumented code path, and the one the benchmark runs).
fn assert_trace_identity(n: usize) {
    use ncg_core::dynamics::{run_dynamics, DynamicsConfig};
    for family in [GameFamily::AsgSum, GameFamily::GbgSum] {
        let p = Cell {
            family,
            policy: Policy::MaxCost,
            n,
            engine: EngineSpec::persistent(),
            trials: 1,
        };
        let game = p.make_game();
        let mut seed_rng = StdRng::seed_from_u64(CELL_SEED);
        let initial = p.topology().generate(n, &mut seed_rng);
        let was_on = trace::enabled();
        let run = |traced: bool| {
            trace::set_enabled(traced);
            let mut rng = StdRng::seed_from_u64(0x7ace);
            let mut cfg =
                DynamicsConfig::simulation(p.max_steps()).with_oracle(OracleKind::Persistent);
            cfg.record_trajectory = true;
            let out = run_dynamics(game.as_ref(), &initial, &cfg, &mut rng);
            trace::set_enabled(false);
            out
        };
        let off = run(false);
        let on = run(true);
        let report = trace::take_report();
        trace::set_enabled(was_on);
        assert!(off.converged(), "{} n={n}", family.label());
        assert_eq!(
            on.steps,
            off.steps,
            "{} n={n}: step count changed under tracing",
            family.label()
        );
        assert_eq!(
            on.trajectory,
            off.trajectory,
            "{} n={n}: tracing-on trajectory diverged from tracing-off",
            family.label()
        );
        assert_eq!(on.final_graph, off.final_graph, "{} n={n}", family.label());
        assert!(
            !report.is_empty(),
            "{} n={n}: the traced run must actually have recorded spans",
            family.label()
        );
        println!(
            "trace identity OK: {} n={n} ({} steps, tracing on ≡ off)",
            family.label(),
            off.steps
        );
    }
}

/// One extra tracing-enabled rep of a cell's trial block, harvested as a
/// [`trace::TraceReport`]. The timed reps stay tracing-off (or whatever the
/// global `trace=1` switch says), so the profile never contaminates the
/// wall-clock columns — it is measured on its own rep.
fn trace_cell(point: &Cell) -> trace::TraceReport {
    let game = point.make_game();
    let was_on = trace::enabled();
    trace::set_enabled(true);
    let _ = trace::take_report(); // drop whatever earlier cells recorded
    for t in 0..point.trials {
        let (r, _) = point.run_trial(game.as_ref(), t);
        assert!(r.converged, "{point:?} must converge");
    }
    trace::set_enabled(was_on);
    trace::take_report()
}

/// One row of the `SetOwned` or bilateral series.
struct ScanRow {
    n: usize,
    reps: usize,
    /// Persistent engine: delta scoring on the oracle.
    delta_s: f64,
    /// Full-BFS reference: apply → BFS → undo per candidate.
    apply_undo_s: f64,
}

/// `reps` best-response scans of every agent of `g` on each engine: the
/// persistent engine, then the full-BFS reference. Asserts that both return
/// the same best-response tie set for every agent (the first repeat's).
fn measure_scans(game: &dyn Game, g: &ncg_graph::OwnedGraph, reps: usize) -> ScanRow {
    let n = g.num_nodes();
    let run = |kind: OracleKind| {
        let mut ws = Workspace::with_oracle(n, kind);
        let watch = trace::Stopwatch::start();
        let mut tie_sets = Vec::with_capacity(n);
        for rep in 0..reps {
            for u in 0..n {
                let responses = game.best_responses(g, u, &mut ws);
                if rep == 0 {
                    tie_sets.push(responses);
                }
            }
        }
        (watch.elapsed_secs(), tie_sets)
    };
    let (delta_s, delta_sets) = run(OracleKind::Persistent);
    let (apply_undo_s, reference_sets) = run(OracleKind::FullBfs);
    for (u, (fast, reference)) in delta_sets.iter().zip(&reference_sets).enumerate() {
        assert_eq!(
            fast,
            reference,
            "{} n={n} agent {u}: both engines must return the same best-response tie set",
            game.name()
        );
    }
    ScanRow {
        n,
        reps,
        delta_s,
        apply_undo_s,
    }
}

/// Buy-Game `SetOwned` series: time the exponential strategy enumeration with
/// delta scoring (Gray-code prefix reuse on the persistent oracle) vs. the
/// reference, all agents of a random connected network.
fn measure_set_owned(n: usize, reps: usize) -> ScanRow {
    let mut rng = StdRng::seed_from_u64(7 + n as u64);
    let g = generators::random_with_m_edges(n, n + n / 2, &mut rng);
    measure_scans(&BuyGame::sum(n as f64 / 4.0), &g, reps)
}

/// Bilateral series: best-response scans (exponential neighbour-set
/// enumeration **plus consent checks**) with the persistent engine's
/// delta-scored consent vs. the reference's `move_is_blocked`.
fn measure_bilateral(n: usize, reps: usize) -> ScanRow {
    let mut rng = StdRng::seed_from_u64(11 + n as u64);
    let g = generators::random_with_m_edges(n, 2 * n, &mut rng);
    measure_scans(&BilateralBuyGame::sum(n as f64 / 4.0), &g, reps)
}

struct SweepRow {
    /// The family label, suffixed `/random` for the random-policy cells.
    family: String,
    n: usize,
    /// Wall-clock of every repeat per engine; `None` when the engine was
    /// skipped at this `n` (the reference engine past `full_max_n`).
    times: Vec<Option<Vec<f64>>>,
    /// Summed oracle work counters per engine (same indexing as `times`);
    /// `None` for the reference, which has none.
    stats: Vec<Option<OracleStats>>,
    /// Phase profile of one extra tracing-enabled rep (same indexing as
    /// `times`); only the persistent engine is traced.
    profiles: Vec<Option<trace::TraceReport>>,
    steps: usize,
}

/// Checks the pinned counters of every cell that ran against
/// [`GOLDEN_PATH`], or rewrites the file with `bless`. Exits non-zero,
/// naming the cell and counter as `golden → now`, when a counter differs
/// from its pinned value or a cell has no line.
fn check_smoke_counters(rows: &[SweepRow], labels: &[String], bless: bool) {
    let mut current: Vec<(String, Vec<(&'static str, u64)>)> = Vec::new();
    for row in rows {
        for (label, st) in labels.iter().zip(&row.stats) {
            let Some(st) = st else { continue };
            let pinned = counter_fields(st)
                .into_iter()
                .filter(|(name, _)| PINNED_COUNTERS.contains(name))
                .collect();
            current.push((format!("{} n={} {label}", row.family, row.n), pinned));
        }
    }
    if bless {
        let mut out = String::from(
            "# Work counters of the `oracle_ablation smoke=1` cells, fixed by their seeds:\n\
             # <family> n=<n> <engine> <counter>=<value>...\n\
             # `smoke=1` fails when any counter differs; `smoke=1 bless=1` rewrites this file.\n",
        );
        for (cell, counters) in &current {
            let values: Vec<String> = counters.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let _ = writeln!(out, "{cell} {}", values.join(" "));
        }
        std::fs::write(GOLDEN_PATH, out).expect("write the smoke-counter golden file");
        println!("\nblessed {GOLDEN_PATH}");
        return;
    }
    let text = std::fs::read_to_string(GOLDEN_PATH)
        .unwrap_or_else(|e| panic!("read {GOLDEN_PATH}: {e} (create it with smoke=1 bless=1)"));
    let golden: HashMap<String, HashMap<String, u64>> = text
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let tokens: Vec<&str> = l.split_whitespace().collect();
            let counters = tokens
                .iter()
                .skip(3)
                .filter_map(|t| t.split_once('='))
                .map(|(k, v)| (k.to_string(), v.parse().expect("golden counter value")))
                .collect();
            (tokens[..3.min(tokens.len())].join(" "), counters)
        })
        .collect();
    let mut failures = Vec::new();
    for (cell, counters) in &current {
        let Some(pinned) = golden.get(cell) else {
            failures.push(format!("{cell}: no line in the golden file"));
            continue;
        };
        for &(name, value) in counters {
            match pinned.get(name) {
                None => failures.push(format!("{cell}: {name} is not pinned")),
                Some(&expect) if value != expect => {
                    failures.push(format!("{cell}: {name} {expect} → {value}"));
                }
                Some(_) => {}
            }
        }
    }
    if !failures.is_empty() {
        eprintln!(
            "\nwork counters differ from {GOLDEN_PATH} (golden → now; \
             smoke=1 bless=1 pins a change made on purpose):"
        );
        for failure in &failures {
            eprintln!("  {failure}");
        }
        std::process::exit(1);
    }
    println!(
        "\nwork counters OK: {} cells equal {GOLDEN_PATH}",
        current.len()
    );
}

fn main() {
    let scale = parse_scale().unwrap_or_else(|e| exit_bad_args(&e));
    // The trace switch must be observationally invisible before any timing
    // runs.
    assert_trace_identity(if scale.smoke { 32 } else { 48 });
    if scale.trace {
        trace::set_enabled(true);
    }
    // The reference (index 0) and the fast engine (index 1); the full-BFS
    // reference only runs up to `full_max_n`.
    let engines = [EngineSpec::baseline(), EngineSpec::persistent()];
    let labels: Vec<String> = engines.iter().map(|e| e.label()).collect();
    let engine_runs_at = |idx: usize, n: usize| -> bool { idx == 1 || n <= scale.full_max_n };
    let mut ns = Vec::new();
    let mut n = 64usize;
    while n <= scale.max_n {
        ns.push(n);
        n *= 2;
    }
    println!(
        "oracle ablation (trials per cell: {}; engines: {})",
        scale.trials,
        labels.join(", ")
    );
    let fmt_time = |t: Option<&[f64]>| match t {
        Some(t) => {
            let (min, max) = min_max(t);
            format!("{min:>13.4} {max:>9.4}")
        }
        None => format!("{:>13} {:>9}", "-", "-"),
    };
    let mut sweep_rows = Vec::new();
    // Smoke mode adds random-policy cells: the max-cost policy re-measures
    // every agent's cost each step, the random policy does not, so their
    // counters pin how the parked vectors are kept current between scans.
    // It also adds one multi-block max-cost cell, one consent-game cell and
    // one MAX cell.
    let mut cells = vec![
        (GameFamily::AsgSum, Policy::MaxCost, ns.clone()),
        (GameFamily::GbgSum, Policy::MaxCost, ns.clone()),
    ];
    if scale.smoke {
        cells.extend([
            (GameFamily::AsgSum, Policy::Random, ns.clone()),
            (GameFamily::GbgSum, Policy::Random, ns.clone()),
            // Three 64-vertex id blocks, the last one partial: every other
            // cell fits in one block, so only this one pins the counters of
            // scans whose targets cross a block boundary.
            (GameFamily::GbgSum, Policy::MaxCost, vec![130]),
            // The only consent game: its counters pin the counterpart
            // queries that consent checks ask of the mover's oracle.
            (GameFamily::BilateralSum, Policy::MaxCost, vec![10]),
            // The only MAX cell: its costs read each row's level counts and
            // max bound, which the sync's column patch keeps in step.
            (GameFamily::GbgMax, Policy::MaxCost, vec![64]),
        ]);
    }
    for (family, policy, ns) in cells {
        let family_label = match policy {
            Policy::MaxCost => family.label().to_string(),
            _ => format!("{}/{}", family.label(), policy.label()),
        };
        println!("\nfamily {family_label}");
        println!(
            "{:>6} {:>13} {:>9} {:>13} {:>9} {:>9} {:>9}",
            "n", "full-bfs [s]", "max", "persist [s]", "max", "full/p", "steps"
        );
        for &n in &ns {
            // The big-n extension cells run one trial (a single n = 4096
            // trial already integrates minutes of work — the repeat/min
            // machinery is what fights noise at the small sizes).
            let cell_trials = if n >= 2048 { 1 } else { scale.trials };
            let mut times: Vec<Option<Vec<f64>>> = Vec::new();
            let mut stats: Vec<Option<OracleStats>> = Vec::new();
            let mut profiles: Vec<Option<trace::TraceReport>> = Vec::new();
            let mut steps: Option<usize> = None;
            for (idx, engine) in engines.into_iter().enumerate() {
                if !engine_runs_at(idx, n) {
                    times.push(None);
                    stats.push(None);
                    profiles.push(None);
                    continue;
                }
                let p = Cell {
                    family,
                    policy,
                    n,
                    engine,
                    trials: cell_trials,
                };
                // Both engines take the fastest of three blocks below
                // n = 2048, so the ratio divides fastest by fastest.
                let repeats = if !scale.smoke && n < 2048 { 3 } else { 1 };
                let (secs, s, st) = measure(&p, repeats);
                times.push(Some(secs));
                if idx == 0 {
                    assert_eq!(
                        st,
                        OracleStats::default(),
                        "{family_label} n={n}: the reference's oracle never syncs"
                    );
                }
                stats.push((idx == 1).then_some(st));
                // Phase profile + wasted-scan counters for the persistent
                // engine, from one extra traced rep of the same cell.
                profiles.push(if idx == 1 && scale.json.is_some() {
                    Some(trace_cell(&p))
                } else {
                    None
                });
                // Both engines follow the exact policy order and score
                // exactly, so their trajectories (and hence step counts)
                // must coincide — the persistent ≡ full-BFS trajectory
                // assertion of the CI smoke run.
                match steps {
                    None => steps = Some(s),
                    Some(expect) => assert_eq!(
                        s,
                        expect,
                        "{family_label} n={n}: engine {} step count diverged from the reference",
                        engine.label()
                    ),
                }
            }
            let ratio = |a: Option<&[f64]>, b: Option<&[f64]>| match (a, b) {
                (Some(a), Some(b)) => {
                    format!("{:>8.2}x", min_max(a).0 / min_max(b).0.max(1e-9))
                }
                _ => format!("{:>9}", "-"),
            };
            let steps = steps.unwrap_or(0);
            println!(
                "{:>6} {} {} {} {:>9}",
                n,
                fmt_time(times[0].as_deref()),
                fmt_time(times[1].as_deref()),
                ratio(times[0].as_deref(), times[1].as_deref()),
                steps
            );
            sweep_rows.push(SweepRow {
                family: family_label.clone(),
                n,
                times,
                stats,
                profiles,
                steps,
            });
        }
    }

    if scale.smoke {
        check_smoke_counters(&sweep_rows, &labels, scale.bless);
    }

    // Buy-Game SetOwned series: delta scoring vs the reference.
    let bg_ns: &[usize] = if scale.smoke { &[10] } else { &[10, 12, 14] };
    let reps = if scale.smoke { 2 } else { 6 };
    println!("\nBuy-Game SetOwned enumeration (delta path vs apply->BFS->undo)");
    println!(
        "{:>6} {:>6} {:>13} {:>15} {:>9}",
        "n", "reps", "delta [s]", "apply-undo [s]", "speedup"
    );
    let mut set_owned_rows = Vec::new();
    for &n in bg_ns {
        let row = measure_set_owned(n, reps);
        println!(
            "{:>6} {:>6} {:>13.4} {:>15.4} {:>8.2}x",
            row.n,
            row.reps,
            row.delta_s,
            row.apply_undo_s,
            row.apply_undo_s / row.delta_s.max(1e-9)
        );
        set_owned_rows.push(row);
    }

    // Bilateral series: delta-scored consent vs the reference.
    let bil_ns: &[usize] = if scale.smoke { &[8] } else { &[10, 12, 14, 16] };
    let bil_reps = if scale.smoke { 2 } else { 4 };
    println!("\nBilateral best-response scans (delta consent vs apply->BFS->undo)");
    println!(
        "{:>6} {:>6} {:>13} {:>15} {:>9}",
        "n", "reps", "delta [s]", "apply-undo [s]", "speedup"
    );
    let mut bilateral_rows = Vec::new();
    for &n in bil_ns {
        let row = measure_bilateral(n, bil_reps);
        println!(
            "{:>6} {:>6} {:>13.4} {:>15.4} {:>8.2}x",
            row.n,
            row.reps,
            row.delta_s,
            row.apply_undo_s,
            row.apply_undo_s / row.delta_s.max(1e-9)
        );
        bilateral_rows.push(row);
    }

    if let Some(path) = &scale.json {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"smoke\": {},", scale.smoke);
        let _ = writeln!(out, "  \"trials\": {},", scale.trials);
        let _ = writeln!(out, "  \"provenance\": {},", provenance_json());
        out.push_str("  \"sweep\": [\n");
        for (i, row) in sweep_rows.iter().enumerate() {
            // `seconds` is each engine's fastest repeat; `repeat_seconds`
            // lists every repeat, so a reader can see the cell's spread.
            let engines_json: Vec<String> = labels
                .iter()
                .zip(&row.times)
                .filter_map(|(l, t)| t.as_ref().map(|t| format!("\"{l}\": {:.6}", min_max(t).0)))
                .collect();
            let repeats_json: Vec<String> = labels
                .iter()
                .zip(&row.times)
                .filter_map(|(l, t)| {
                    t.as_ref().map(|t| {
                        let secs: Vec<String> = t.iter().map(|s| format!("{s:.6}")).collect();
                        format!("\"{l}\": [{}]", secs.join(", "))
                    })
                })
                .collect();
            let stats_json: Vec<String> = labels
                .iter()
                .zip(&row.stats)
                .filter_map(|(l, st)| {
                    st.map(|st| {
                        let fields: Vec<String> = counter_fields(&st)
                            .iter()
                            .map(|(name, value)| format!("\"{name}\": {value}"))
                            .collect();
                        format!("\"{l}\": {{{}}}", fields.join(", "))
                    })
                })
                .collect();
            // Per-cell observability: wasted-scan counters (how many agents
            // the policy scanned per improving move) and the full `ncg-trace`
            // phase tree of the traced rep, keyed by engine label.
            let wasted_json: Vec<String> = labels
                .iter()
                .zip(&row.profiles)
                .filter_map(|(l, pr)| {
                    pr.as_ref().map(|pr| {
                        let scanned = pr.counter(trace::Counter::AgentsScanned);
                        let improving = pr.counter(trace::Counter::ImprovingMoves);
                        let ratio = pr
                            .wasted_scan_ratio()
                            .map_or("null".to_string(), |r| format!("{r:.3}"));
                        format!(
                            "\"{l}\": {{\"agents_scanned\": {scanned}, \
                             \"improving_moves\": {improving}, \"ratio\": {ratio}}}"
                        )
                    })
                })
                .collect();
            let profile_json: Vec<String> = labels
                .iter()
                .zip(&row.profiles)
                .filter_map(|(l, pr)| pr.as_ref().map(|pr| format!("\"{l}\": {}", pr.to_json())))
                .collect();
            let _ = write!(
                out,
                "    {{\"family\": \"{}\", \"n\": {}, \"steps\": {}, \"seconds\": {{{}}}, \
                 \"repeat_seconds\": {{{}}}, \"oracle_stats\": {{{}}}, \"wasted_scan\": {{{}}}, \
                 \"phase_profile\": {{{}}}}}",
                row.family,
                row.n,
                row.steps,
                engines_json.join(", "),
                repeats_json.join(", "),
                stats_json.join(", "),
                wasted_json.join(", "),
                profile_json.join(", ")
            );
            out.push_str(if i + 1 < sweep_rows.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        out.push_str("  \"bilateral\": [\n");
        for (i, row) in bilateral_rows.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"n\": {}, \"reps\": {}, \"delta_s\": {:.6}, \"apply_undo_s\": {:.6}, \"speedup\": {:.3}}}",
                row.n,
                row.reps,
                row.delta_s,
                row.apply_undo_s,
                row.apply_undo_s / row.delta_s.max(1e-9)
            );
            out.push_str(if i + 1 < bilateral_rows.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        out.push_str("  \"set_owned\": [\n");
        for (i, row) in set_owned_rows.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"n\": {}, \"reps\": {}, \"delta_s\": {:.6}, \"apply_undo_s\": {:.6}, \"speedup\": {:.3}}}",
                row.n,
                row.reps,
                row.delta_s,
                row.apply_undo_s,
                row.apply_undo_s / row.delta_s.max(1e-9)
            );
            out.push_str(if i + 1 < set_owned_rows.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        std::fs::write(path, out).expect("write json snapshot");
        println!("\nwrote {path}");
    }
}
