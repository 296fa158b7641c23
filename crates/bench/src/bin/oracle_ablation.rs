//! Ablation report: the full-BFS reference engine vs. the cross-step
//! **persistent** oracle on the swap-game and greedy-buy-game dynamics hot
//! paths, plus a Buy-Game
//! `SetOwned` series comparing whole-strategy delta scoring against the
//! historical apply → BFS → undo cycle and a bilateral series doing the same
//! for delta-scored consent.
//!
//! ```text
//! cargo run -p ncg-bench --release --bin oracle_ablation -- max_n=512 trials=5
//! cargo run -p ncg-bench --release --bin oracle_ablation -- smoke=1
//! cargo run -p ncg-bench --release --bin oracle_ablation -- smoke=1 bless=1
//! cargo run -p ncg-bench --release --bin oracle_ablation -- json=BENCH_oracle.json max_n=2048
//! ```
//!
//! Prints, per `(family, n)`, the wall-clock per engine together with the
//! speedup of the persistent engine over the full-BFS reference. It asserts
//! the identities the fast engine rests on: traced ≡ untraced runs before
//! any timing, and `persistent` ≡ `full-bfs` step counts in every cell both
//! engines run. `smoke=1` shrinks everything for CI, adds random-policy
//! cells of both families at n = 64, and checks each cell's work counters
//! against the golden file [`GOLDEN_PATH`]: a counter that grows fails the
//! run, one that shrinks is printed, and `smoke=1 bless=1` rewrites the
//! file. `json=PATH` additionally writes the measurements as a
//! JSON snapshot, stamped with the commit, toolchain and host.

use ncg_bench::{provenance_json, ConsentForced};
use ncg_core::policy::Policy;
use ncg_core::{BilateralBuyGame, BuyGame, Game, OracleKind, Workspace};
use ncg_graph::generators;
use ncg_graph::oracle::OracleStats;
use ncg_sim::{
    run_trial_with_game_probed, AlphaSpec, EngineSpec, ExperimentPoint, GameFamily, InitialTopology,
};
use ncg_trace as trace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Work counters of the `smoke=1` cells, one line per cell and engine.
const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/golden/oracle_smoke_counters.txt"
);

/// The [`OracleStats`] fields a seed fixes, pinned in [`GOLDEN_PATH`]. They
/// count algorithmic work, so they catch a regression that wall-clock on a
/// noisy host cannot.
const PINNED_COUNTERS: [&str; 11] = [
    "evaluations",
    "nodes_expanded",
    "kernel_calls",
    "bound_queries",
    "bound_pruned",
    "row_bounds",
    "replayed_begins",
    "lazy_replays",
    "batched_repins",
    "csr_patches",
    "csr_rebuilds",
];

/// Every [`OracleStats`] field by name.
fn counter_fields(st: &OracleStats) -> [(&'static str, u64); 13] {
    [
        ("full_bfs_runs", st.full_bfs_runs),
        ("evaluations", st.evaluations),
        ("nodes_expanded", st.nodes_expanded),
        ("replayed_begins", st.replayed_begins),
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
    /// Largest `n` the full-BFS reference engine still runs at; beyond it
    /// only the persistent engine is measured, which is what lets the sweep
    /// reach n = 2048 on one core.
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

fn parse_scale() -> Scale {
    let mut scale = Scale {
        max_n: 256,
        full_max_n: 256,
        trials: 3,
        smoke: false,
        trace: false,
        bless: false,
        json: None,
    };
    for arg in std::env::args().skip(1) {
        let Some((key, value)) = arg.split_once('=') else {
            continue;
        };
        match key {
            "max_n" => scale.max_n = value.parse().unwrap_or(scale.max_n),
            "full_max_n" => scale.full_max_n = value.parse().unwrap_or(scale.full_max_n),
            "trials" => scale.trials = value.parse().unwrap_or(scale.trials),
            "smoke" => scale.smoke = value == "1" || value == "true",
            "trace" => scale.trace = value == "1" || value == "true",
            "bless" => scale.bless = value == "1" || value == "true",
            "json" => scale.json = Some(value.to_string()),
            _ => eprintln!("ignoring unknown argument {key}={value}"),
        }
    }
    if scale.bless && !scale.smoke {
        eprintln!("bless=1 rewrites the smoke-cell golden file and needs smoke=1");
        std::process::exit(2);
    }
    if scale.smoke {
        scale.max_n = scale.max_n.min(64);
        scale.trials = 1;
    }
    scale
}

fn point(
    family: GameFamily,
    policy: Policy,
    n: usize,
    engine: EngineSpec,
    trials: usize,
) -> ExperimentPoint {
    let topology = match family {
        GameFamily::AsgSum | GameFamily::AsgMax => InitialTopology::Budgeted { k: 2 },
        GameFamily::GbgSum
        | GameFamily::GbgMax
        | GameFamily::BilateralSum
        | GameFamily::BilateralMax
        | GameFamily::BuySum
        | GameFamily::BuyMax => InitialTopology::RandomEdges { m_per_n: 2 },
    };
    ExperimentPoint {
        n,
        family,
        alpha: AlphaSpec::FractionOfN(0.25),
        topology,
        policy,
        trials,
        base_seed: 42,
        max_steps_factor: 400,
        engine,
    }
}

/// Wall-clock seconds, step total and summed oracle counters of `trials`
/// converged runs of `point`. With `repeats > 1` the whole trial block is
/// run that many times and the fastest wall-clock is reported (steps and
/// counters are identical across repeats — trials are seed-deterministic) —
/// the usual min-based defence against one-off scheduler noise on the cells
/// whose ratios the snapshot's headline claims rest on.
fn measure(point: &ExperimentPoint, repeats: usize) -> (f64, usize, OracleStats) {
    let game = point.make_game();
    let mut best = f64::INFINITY;
    let mut steps = 0usize;
    let mut stats = OracleStats::default();
    for rep in 0..repeats.max(1) {
        let watch = trace::Stopwatch::start();
        let mut rep_steps = 0usize;
        let mut rep_stats = OracleStats::default();
        for t in 0..point.trials {
            let (r, s) = run_trial_with_game_probed(point, game.as_ref(), t);
            assert!(r.converged, "{} n={} must converge", point.label(), point.n);
            rep_steps += r.steps;
            rep_stats.merge(&s);
        }
        best = best.min(watch.elapsed_secs());
        if rep == 0 {
            steps = rep_steps;
            stats = rep_stats;
        } else {
            assert_eq!(
                rep_steps,
                steps,
                "{}: trials are deterministic",
                point.label()
            );
        }
    }
    (best, steps, stats)
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
        let p = point(family, Policy::MaxCost, n, EngineSpec::persistent(), 1);
        let game = p.make_game();
        let mut seed_rng = StdRng::seed_from_u64(p.base_seed);
        let initial = p.topology.generate(n, &mut seed_rng);
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
fn trace_cell(point: &ExperimentPoint) -> trace::TraceReport {
    let game = point.make_game();
    let was_on = trace::enabled();
    trace::set_enabled(true);
    let _ = trace::take_report(); // drop whatever earlier cells recorded
    for t in 0..point.trials {
        let (r, _) = run_trial_with_game_probed(point, game.as_ref(), t);
        assert!(r.converged, "{} n={} must converge", point.label(), point.n);
    }
    trace::set_enabled(was_on);
    trace::take_report()
}

struct SetOwnedRow {
    n: usize,
    reps: usize,
    delta_s: f64,
    apply_undo_s: f64,
}

/// Buy-Game `SetOwned` series: time the exponential strategy enumeration with
/// delta scoring (Gray-code prefix reuse on the persistent oracle) vs. the
/// apply → BFS → undo fallback, all agents of a random connected network.
fn measure_set_owned(n: usize, reps: usize) -> SetOwnedRow {
    let mut rng = StdRng::seed_from_u64(7 + n as u64);
    let g = generators::random_with_m_edges(n, n + n / 2, &mut rng);
    let alpha = n as f64 / 4.0;
    let delta_game = BuyGame::sum(alpha);
    let fallback_game = ConsentForced(BuyGame::sum(alpha));
    let mut ws = Workspace::with_oracle(n, OracleKind::Persistent);
    let run = |game: &dyn Game, ws: &mut Workspace| {
        let watch = trace::Stopwatch::start();
        let mut found = 0usize;
        for _ in 0..reps {
            for u in 0..n {
                if game.best_response(&g, u, ws).is_some() {
                    found += 1;
                }
            }
        }
        (watch.elapsed_secs(), found)
    };
    let (delta_s, found_delta) = run(&delta_game, &mut ws);
    let (apply_undo_s, found_fallback) = run(&fallback_game, &mut ws);
    assert_eq!(
        found_delta, found_fallback,
        "n={n}: both paths must agree on who has a best response"
    );
    SetOwnedRow {
        n,
        reps,
        delta_s,
        apply_undo_s,
    }
}

struct BilateralRow {
    n: usize,
    reps: usize,
    delta_s: f64,
    apply_undo_s: f64,
}

/// Bilateral series: best-response scans (exponential neighbour-set
/// enumeration **plus consent checks**) with the persistent engine's
/// delta-scored consent vs. the same workspace forced onto the historical
/// apply → BFS → undo path.
fn measure_bilateral(n: usize, reps: usize) -> BilateralRow {
    let mut rng = StdRng::seed_from_u64(11 + n as u64);
    let g = generators::random_with_m_edges(n, 2 * n, &mut rng);
    let alpha = n as f64 / 4.0;
    let delta_game = BilateralBuyGame::sum(alpha);
    let fallback_game = ConsentForced(BilateralBuyGame::sum(alpha));
    let mut ws = Workspace::with_oracle(n, OracleKind::Persistent);
    fn run(
        game: &dyn Game,
        g: &ncg_graph::OwnedGraph,
        n: usize,
        reps: usize,
        ws: &mut Workspace,
    ) -> (f64, usize) {
        let watch = trace::Stopwatch::start();
        let mut found = 0usize;
        for _ in 0..reps {
            for u in 0..n {
                if game.best_response(g, u, ws).is_some() {
                    found += 1;
                }
            }
        }
        (watch.elapsed_secs(), found)
    }
    let (delta_s, found_delta) = run(&delta_game, &g, n, reps, &mut ws);
    let (apply_undo_s, found_fallback) = run(&fallback_game, &g, n, reps, &mut ws);
    assert_eq!(
        found_delta, found_fallback,
        "n={n}: delta consent and apply-undo consent must agree"
    );
    BilateralRow {
        n,
        reps,
        delta_s,
        apply_undo_s,
    }
}

struct SweepRow {
    /// The family label, suffixed `/random` for the random-policy cells.
    family: String,
    n: usize,
    /// Wall-clock per engine; `None` when the engine was skipped at this `n`
    /// (the reference engine past `full_max_n`).
    times: Vec<Option<f64>>,
    /// Summed oracle work counters per engine (same indexing as `times`).
    stats: Vec<Option<OracleStats>>,
    /// Phase profile of one extra tracing-enabled rep (same indexing as
    /// `times`); only the persistent engine is traced.
    profiles: Vec<Option<trace::TraceReport>>,
    steps: usize,
}

/// Checks the pinned counters of every cell that ran against
/// [`GOLDEN_PATH`], or rewrites the file with `bless`. Exits non-zero,
/// naming the cell and counter, when a counter grew or a cell has no line.
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
    let render = |cell: &str, counters: &[(&str, u64)]| {
        let values: Vec<String> = counters.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!("{cell} {}", values.join(" "))
    };
    if bless {
        let mut out = String::from(
            "# Work counters of the `oracle_ablation smoke=1` cells, fixed by their seeds:\n\
             # <family> n=<n> <engine> <counter>=<value>...\n\
             # `smoke=1` fails when a counter grows; `smoke=1 bless=1` rewrites this file.\n",
        );
        for (cell, counters) in &current {
            out.push_str(&render(cell, counters));
            out.push('\n');
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
    let mut shrunk = Vec::new();
    for (cell, counters) in &current {
        let Some(pinned) = golden.get(cell) else {
            failures.push(format!("{cell}: no line in the golden file"));
            continue;
        };
        let mut cell_shrunk = false;
        for &(name, value) in counters {
            match pinned.get(name) {
                None => failures.push(format!("{cell}: {name} is not pinned")),
                Some(&expect) if value > expect => {
                    failures.push(format!("{cell}: {name} grew from {expect} to {value}"));
                }
                Some(&expect) => cell_shrunk |= value < expect,
            }
        }
        if cell_shrunk {
            shrunk.push(render(cell, counters));
        }
    }
    if !shrunk.is_empty() {
        println!("\nwork counters shrank below {GOLDEN_PATH} (smoke=1 bless=1 pins them):");
        for line in &shrunk {
            println!("  {line}");
        }
    }
    if !failures.is_empty() {
        eprintln!("\nwork counters above {GOLDEN_PATH}:");
        for failure in &failures {
            eprintln!("  {failure}");
        }
        std::process::exit(1);
    }
    println!(
        "\nwork counters OK: {} cells within {GOLDEN_PATH}",
        current.len()
    );
}

fn main() {
    let scale = parse_scale();
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
    let fmt_time = |t: Option<f64>| match t {
        Some(t) => format!("{t:>13.4}"),
        None => format!("{:>13}", "-"),
    };
    let mut sweep_rows = Vec::new();
    // Smoke mode adds random-policy cells: the max-cost policy re-measures
    // every agent's cost each step, the random policy does not, so their
    // counters pin how the parked vectors are kept current between scans.
    let mut cells = vec![
        (GameFamily::AsgSum, Policy::MaxCost),
        (GameFamily::GbgSum, Policy::MaxCost),
    ];
    if scale.smoke {
        cells.extend([
            (GameFamily::AsgSum, Policy::Random),
            (GameFamily::GbgSum, Policy::Random),
        ]);
    }
    for (family, policy) in cells {
        let family_label = match policy {
            Policy::MaxCost => family.label().to_string(),
            _ => format!("{}/{}", family.label(), policy.label()),
        };
        println!("\nfamily {family_label}");
        println!(
            "{:>6} {:>13} {:>13} {:>9} {:>9}",
            "n", "full-bfs [s]", "persist [s]", "full/p", "steps"
        );
        for &n in &ns {
            // The big-n extension cells run one trial (a single n = 4096
            // trial already integrates minutes of work — the repeat/min
            // machinery is what fights noise at the small sizes).
            let cell_trials = if n >= 2048 { 1 } else { scale.trials };
            let mut times: Vec<Option<f64>> = Vec::new();
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
                let p = point(family, policy, n, engine, cell_trials);
                // The persistent cell carries the snapshot's headline ratio,
                // so it takes the fastest of three blocks below n = 2048; the
                // reference is context and runs once.
                let repeats = if idx == 1 && !scale.smoke && n < 2048 {
                    3
                } else {
                    1
                };
                let (secs, s, st) = measure(&p, repeats);
                times.push(Some(secs));
                stats.push(Some(st));
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
            let ratio = |a: Option<f64>, b: Option<f64>| match (a, b) {
                (Some(a), Some(b)) => format!("{:>8.2}x", a / b.max(1e-9)),
                _ => format!("{:>9}", "-"),
            };
            let steps = steps.unwrap_or(0);
            println!(
                "{:>6} {} {} {} {:>9}",
                n,
                fmt_time(times[0]),
                fmt_time(times[1]),
                ratio(times[0], times[1]),
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

    // Buy-Game SetOwned series: delta scoring vs apply → BFS → undo.
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

    // Bilateral series: delta-scored consent vs apply → BFS → undo.
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
            let engines_json: Vec<String> = labels
                .iter()
                .zip(&row.times)
                .filter_map(|(l, t)| t.map(|t| format!("\"{l}\": {t:.6}")))
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
                 \"oracle_stats\": {{{}}}, \"wasted_scan\": {{{}}}, \"phase_profile\": {{{}}}}}",
                row.family,
                row.n,
                row.steps,
                engines_json.join(", "),
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
