//! Ablation report: the full-BFS reference engine vs. the cross-step
//! **persistent** oracle (each with and without dirty-agent tracking) on the
//! swap-game and greedy-buy-game dynamics hot paths, plus a Buy-Game
//! `SetOwned` series comparing whole-strategy delta scoring against the
//! historical apply → BFS → undo cycle and a bilateral series doing the same
//! for delta-scored consent.
//!
//! ```text
//! cargo run -p ncg-bench --release --bin oracle_ablation -- max_n=512 trials=5
//! cargo run -p ncg-bench --release --bin oracle_ablation -- smoke=1
//! cargo run -p ncg-bench --release --bin oracle_ablation -- json=BENCH_oracle.json
//! ```
//!
//! Prints, per `(family, n)`, the wall-clock per engine together with the
//! speedups of the persistent engines over their full-BFS references.
//! Before any timing it asserts the identities the fast engines rest on:
//! `persistent` ≡ `full-bfs` and `persistent+dirty` ≡ `full-bfs+dirty`
//! trajectories, and traced ≡ untraced runs. `smoke=1` shrinks everything
//! for CI; `json=PATH` additionally writes the measurements as a JSON
//! snapshot.

use ncg_bench::ConsentForced;
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
use std::fmt::Write as _;

struct Scale {
    max_n: usize,
    /// Largest `n` the full-BFS reference engines still run at; beyond it
    /// only the persistent engines are measured, which is what lets the
    /// sweep reach n = 1024 on one core.
    full_max_n: usize,
    /// Largest `n` the *eager* persistent engine still runs at; beyond it
    /// only `persistent+dirty` is measured — the eager engine rescans all
    /// agents per step and falls behind by an order of magnitude at
    /// n ≥ 2048, while the dirty engine carries the sweep to n = 4096.
    pers_max_n: usize,
    trials: usize,
    smoke: bool,
    /// `trace=1`: keep the global trace switch on for the whole run — the CI
    /// smoke mode that exercises every instrumented code path and the
    /// tracing-on ≡ tracing-off trajectory assertion.
    trace: bool,
    json: Option<String>,
}

fn parse_scale() -> Scale {
    let mut scale = Scale {
        max_n: 256,
        full_max_n: 256,
        pers_max_n: 1024,
        trials: 3,
        smoke: false,
        trace: false,
        json: None,
    };
    for arg in std::env::args().skip(1) {
        let Some((key, value)) = arg.split_once('=') else {
            continue;
        };
        match key {
            "max_n" => scale.max_n = value.parse().unwrap_or(scale.max_n),
            "full_max_n" => scale.full_max_n = value.parse().unwrap_or(scale.full_max_n),
            "pers_max_n" => scale.pers_max_n = value.parse().unwrap_or(scale.pers_max_n),
            "trials" => scale.trials = value.parse().unwrap_or(scale.trials),
            "smoke" => scale.smoke = value == "1" || value == "true",
            "trace" => scale.trace = value == "1" || value == "true",
            "json" => scale.json = Some(value.to_string()),
            _ => eprintln!("ignoring unknown argument {key}={value}"),
        }
    }
    if scale.smoke {
        scale.max_n = scale.max_n.min(64);
        scale.trials = 1;
    }
    scale.pers_max_n = scale.pers_max_n.max(scale.full_max_n);
    scale
}

fn point(family: GameFamily, n: usize, engine: EngineSpec, trials: usize) -> ExperimentPoint {
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
        policy: Policy::MaxCost,
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

/// Measures the `persistent` / `persistent+dirty` pair with their repeat
/// blocks *interleaved* (p, pd, p, pd, …), taking the fastest block of each.
/// The snapshot's headline claim is the *ratio* of exactly these two cells,
/// and adjacent-in-time blocks cancel the slow drift a one-core box shows
/// over a multi-minute sweep far better than measuring the two engines
/// minutes apart.
type Cell = (f64, usize, OracleStats);
fn measure_pair(p2: &ExperimentPoint, p4: &ExperimentPoint, repeats: usize) -> (Cell, Cell) {
    let mut r2 = measure(p2, 1);
    let mut r4 = measure(p4, 1);
    for rep in 1..repeats.max(1) {
        // Alternate which engine runs first within a rep — the first block
        // after an idle gap systematically runs a hair faster, and that bias
        // must not always land on the same side of the ratio.
        let (n2, n4) = if rep % 2 == 1 {
            let n4 = measure(p4, 1);
            (measure(p2, 1), n4)
        } else {
            (measure(p2, 1), measure(p4, 1))
        };
        assert_eq!(n2.1, r2.1, "{}: trials are deterministic", p2.label());
        assert_eq!(n4.1, r4.1, "{}: trials are deterministic", p4.label());
        r2.0 = r2.0.min(n2.0);
        r4.0 = r4.0.min(n4.0);
    }
    (r2, r4)
}

/// The dirty-engine trajectory-identity assertion of the CI smoke job: with
/// the same seed, `full-bfs+dirty` and the warmed `persistent+dirty` engine
/// must walk **identical** move sequences — the dirty set is computed from
/// the same exact distance diffs in both, and warming/replay never change a
/// score. Asserted on both headline families.
fn assert_dirty_trajectories_match_full_bfs(n: usize) {
    use ncg_core::dynamics::{run_dynamics, DynamicsConfig};
    for family in [GameFamily::AsgSum, GameFamily::GbgSum] {
        let p = point(family, n, EngineSpec::baseline(), 1);
        let game = p.make_game();
        let mut seed_rng = StdRng::seed_from_u64(p.base_seed);
        let initial = p.topology.generate(n, &mut seed_rng);
        let run = |oracle: OracleKind| {
            let mut rng = StdRng::seed_from_u64(0xd1b7);
            let mut cfg = DynamicsConfig::simulation(p.max_steps())
                .with_oracle(oracle)
                .with_dirty_agents(true);
            cfg.record_trajectory = true;
            run_dynamics(game.as_ref(), &initial, &cfg, &mut rng)
        };
        let reference = run(OracleKind::FullBfs);
        assert!(reference.converged(), "{} n={n}", family.label());
        let out = run(OracleKind::Persistent);
        assert_eq!(
            out.trajectory,
            reference.trajectory,
            "{} n={n}: persistent+dirty trajectory diverged from full-bfs+dirty",
            family.label()
        );
        assert_eq!(out.final_graph, reference.final_graph);
        println!(
            "dirty trajectory identity OK: {} n={n} ({} steps, persistent+dirty ≡ full-bfs+dirty)",
            family.label(),
            reference.steps
        );
    }
}

/// The observability contract of `ncg-trace`: flipping the global switch must
/// be invisible to the simulation. The same seeded trial with tracing on and
/// tracing off must take the same number of steps, walk the identical move
/// sequence and land on the same final graph — spans and counters observe,
/// they never steer. Asserted on both headline families with the fastest
/// engine (the most instrumented code path).
fn assert_trace_identity(n: usize) {
    use ncg_core::dynamics::{run_dynamics, DynamicsConfig};
    for family in [GameFamily::AsgSum, GameFamily::GbgSum] {
        let p = point(family, n, EngineSpec::fastest(), 1);
        let game = p.make_game();
        let mut seed_rng = StdRng::seed_from_u64(p.base_seed);
        let initial = p.topology.generate(n, &mut seed_rng);
        let was_on = trace::enabled();
        let run = |traced: bool| {
            trace::set_enabled(traced);
            let mut rng = StdRng::seed_from_u64(0x7ace);
            let mut cfg = DynamicsConfig::simulation(p.max_steps())
                .with_oracle(OracleKind::Persistent)
                .with_dirty_agents(true);
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
    family: &'static str,
    n: usize,
    /// Wall-clock per engine; `None` when the engine was skipped at this `n`
    /// (reference engines past `full_max_n`).
    times: Vec<Option<f64>>,
    /// Summed oracle work counters per engine (same indexing as `times`).
    stats: Vec<Option<OracleStats>>,
    /// Phase profile of one extra tracing-enabled rep (same indexing as
    /// `times`); only the persistent pair is traced — the cells the
    /// snapshot's headline ratios rest on.
    profiles: Vec<Option<trace::TraceReport>>,
    steps: usize,
}

fn main() {
    let scale = parse_scale();
    // Trajectory-identity guards first: the dirty engines must replay the
    // full-BFS dirty engine's exact move sequence, and the trace switch must
    // be observationally invisible, before any timing runs.
    assert_dirty_trajectories_match_full_bfs(if scale.smoke { 32 } else { 48 });
    assert_trace_identity(if scale.smoke { 32 } else { 48 });
    if scale.trace {
        trace::set_enabled(true);
    }
    // Reference and fast engine of each scan discipline: the eager pair
    // (indices 0, 1) follows the exact policy order, the dirty pair (2, 3)
    // re-examines only invalidated agents.
    let full_dirty = EngineSpec {
        dirty_agents: true,
        ..EngineSpec::baseline()
    };
    let engines = [
        EngineSpec::baseline(),
        EngineSpec::persistent(),
        full_dirty,
        EngineSpec::fastest(),
    ];
    // Which engines still run at a given n: `persistent+dirty` always, the
    // eager persistent engine up to `pers_max_n`, the full-BFS references
    // only up to `full_max_n`.
    let engine_runs_at = |idx: usize, n: usize| -> bool {
        idx == 3 || (idx == 1 && n <= scale.pers_max_n) || n <= scale.full_max_n
    };
    let mut ns = Vec::new();
    let mut n = 64usize;
    while n <= scale.max_n {
        ns.push(n);
        n *= 2;
    }
    println!(
        "oracle ablation (trials per cell: {}; engines: {})",
        scale.trials,
        engines
            .iter()
            .map(|e| e.label())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let fmt_time = |t: Option<f64>| match t {
        Some(t) => format!("{t:>13.4}"),
        None => format!("{:>13}", "-"),
    };
    let mut sweep_rows = Vec::new();
    for family in [GameFamily::AsgSum, GameFamily::GbgSum] {
        println!("\nfamily {}", family.label());
        println!(
            "{:>6} {:>13} {:>13} {:>13} {:>13} {:>9} {:>9} {:>9} {:>9}",
            "n",
            "full-bfs [s]",
            "persist [s]",
            "fb+dirty [s]",
            "pers+dirty[s]",
            "full/p",
            "p/pd",
            "pd/full",
            "steps e/d"
        );
        for &n in &ns {
            // The big-n extension cells run one trial (a single n = 4096
            // trial already integrates minutes of work — the repeat/min
            // machinery is what fights noise at the small sizes).
            let cell_trials = if n >= 2048 { 1 } else { scale.trials };
            let mut times: Vec<Option<f64>> = Vec::new();
            let mut stats: Vec<Option<OracleStats>> = Vec::new();
            let mut profiles: Vec<Option<trace::TraceReport>> = Vec::new();
            let mut steps = 0usize;
            let mut eager_steps: Option<usize> = None;
            let mut dirty_steps: Option<usize> = None;
            // The persistent pair carries the snapshot's headline ratio
            // (`persistent+dirty` ≥ plain `persistent` everywhere), so those
            // two cells are measured interleaved, best-of-k; the baselines
            // are context and run once.
            let mut stashed_pd: Option<Cell> = None;
            for (idx, engine) in engines.into_iter().enumerate() {
                if !engine_runs_at(idx, n) {
                    times.push(None);
                    stats.push(None);
                    profiles.push(None);
                    continue;
                }
                let p = point(family, n, engine, cell_trials);
                let (secs, s, st) = if scale.smoke {
                    measure(&p, 1)
                } else if idx == 1 {
                    let p4 = point(family, n, engines[3], cell_trials);
                    // The swap-game cells sit at true parity (a swap dirties
                    // ~90% of all vectors, so there is little for the dirty
                    // engine to skip); they need more repeats than the
                    // clearly-separated buy-game cells for the minima to
                    // stabilise.
                    let repeats = match family {
                        GameFamily::AsgSum | GameFamily::AsgMax => {
                            if n <= 256 {
                                7
                            } else {
                                6
                            }
                        }
                        _ => 3,
                    };
                    let (r2, r4) = measure_pair(&p, &p4, repeats);
                    stashed_pd = Some(r4);
                    r2
                } else if idx == 3 {
                    // Past `pers_max_n` the pair partner is skipped and
                    // `persistent+dirty` is measured on its own.
                    match stashed_pd.take() {
                        Some(cell) => cell,
                        None => measure(&p, if n >= 2048 { 1 } else { 3 }),
                    }
                } else {
                    measure(&p, 1)
                };
                times.push(Some(secs));
                stats.push(Some(st));
                // Phase profile + wasted-scan counters for the persistent
                // pair, each from one extra traced rep of the same cell.
                profiles.push(if (idx == 1 || idx == 3) && scale.json.is_some() {
                    Some(trace_cell(&p))
                } else {
                    None
                });
                steps = s;
                // The eager engines follow the exact policy order, so their
                // trajectories (and hence step counts) must coincide — this
                // is the patched-CSR ≡ full-BFS trajectory assertion of the
                // CI smoke run. The dirty engines form a second equivalence
                // class: their invalidation sets are identical across
                // oracles (exact diffs either way) and warming never touches
                // a score, so full-bfs+dirty and persistent+dirty must also
                // agree step for step (with each other, not with the eager
                // class — mover order legally differs between classes).
                if idx <= 1 {
                    match eager_steps {
                        None => eager_steps = Some(s),
                        Some(expect) => assert_eq!(
                            s,
                            expect,
                            "{} n={n}: engine {} step count diverged from the eager reference",
                            family.label(),
                            engine.label()
                        ),
                    }
                } else {
                    match dirty_steps {
                        None => dirty_steps = Some(s),
                        Some(expect) => assert_eq!(
                            s,
                            expect,
                            "{} n={n}: engine {} step count diverged from the dirty reference",
                            family.label(),
                            engine.label()
                        ),
                    }
                }
            }
            let ratio = |a: Option<f64>, b: Option<f64>| match (a, b) {
                (Some(a), Some(b)) => format!("{:>8.2}x", a / b.max(1e-9)),
                _ => format!("{:>9}", "-"),
            };
            println!(
                "{:>6} {} {} {} {} {} {} {} {:>5}/{}",
                n,
                fmt_time(times[0]),
                fmt_time(times[1]),
                fmt_time(times[2]),
                fmt_time(times[3]),
                ratio(times[0], times[1]),
                ratio(times[1], times[3]),
                ratio(times[0], times[3]),
                eager_steps.unwrap_or(0),
                dirty_steps.unwrap_or(0)
            );
            sweep_rows.push(SweepRow {
                family: family.label(),
                n,
                times,
                stats,
                profiles,
                steps,
            });
        }
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
        let labels: Vec<String> = engines.iter().map(|e| e.label()).collect();
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
                        let widths: Vec<String> =
                            st.warm_batch_width.iter().map(|w| w.to_string()).collect();
                        format!(
                            "\"{l}\": {{\"full_bfs_runs\": {}, \"replayed_begins\": {}, \
                             \"lazy_replays\": {}, \"warm_bumps\": {}, \"warm_batches\": {}, \
                             \"lazy_hits\": {}, \"csr_patches\": {}, \"csr_rebuilds\": {}, \
                             \"batched_repins\": {}, \"peak_parked_bytes\": {}, \
                             \"warm_batch_width\": [{}]}}",
                            st.full_bfs_runs,
                            st.replayed_begins,
                            st.lazy_replays,
                            st.warm_bumps,
                            st.warm_batches,
                            st.lazy_hits,
                            st.csr_patches,
                            st.csr_rebuilds,
                            st.batched_repins,
                            st.peak_parked_bytes,
                            widths.join(", ")
                        )
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
