//! Batch sweep driver on the `ncg-lab` orchestrator: grinds the Fig. 7/11
//! grids to large `n` on the persistent engine (plus the bilateral and exact
//! Buy Game families at tiny `n`), with streaming aggregation and
//! checkpoint/resume.
//!
//! ```text
//! cargo run -p ncg-bench --release --bin sweep -- max_n=512 trials=3 json=BENCH_sweeps.json
//! cargo run -p ncg-bench --release --bin sweep -- smoke=1
//! cargo run -p ncg-bench --release --bin sweep -- journal=sweep.jsonl resume=1
//! ```
//!
//! `smoke=1` runs a tiny grid three ways — uninterrupted, killed mid-sweep,
//! and resumed from the kill's journal — and **asserts** that the resumed
//! aggregates are bit-identical to the uninterrupted run (the CI resume
//! check); it then repeats the check through the sharded runtime: a 2-shard
//! run on 2 local workers, one killed at its second chunk claim, must merge
//! bit-identical too. `journal=PATH` checkpoints every completed trial
//! chunk; with `resume=1` a previous journal is replayed instead of
//! re-running.
//!
//! Every sharded mode runs on one runtime, the coordinator and shard servers
//! of `ncg_lab::transport`:
//!
//! * `shards=K` starts `K` copies of this binary as shard servers on
//!   loopback (`ncg_lab::supervisor::LocalWorkers`, each restarted on its own
//!   address if it exits) and coordinates every plan over them exactly as
//!   over remote workers. A sharded run starts fresh; the way to resume a
//!   long run is the unsharded `journal=PATH resume=1`.
//! * `serve=ADDR` turns this binary into a long-lived shard server: bind
//!   `ADDR` (port 0 picks an ephemeral port, announced on stdout) and take
//!   shard assignments from a coordinator over TCP.
//! * `workers=HOST:PORT,HOST:PORT,...` runs every plan as a coordinator over
//!   that worker pool (`shards=K` controls the shard count, default one per
//!   worker).
//!
//! Either way, severed connections and heartbeat stalls retry with jittered
//! backoff and reassign across the pool, and the merge is bit-identical to a
//! local run.
//!
//! Every mode ends with a `run health:` report naming incomplete points,
//! discarded journal lines and telemetry degradation, so a degraded batch
//! is visible at the bottom of the log, not just inline.

use ncg_bench::{exit_bad_args, parse_arg, parse_flag, split_arg, sweeps};
use ncg_lab::supervisor::LocalWorkers;
use ncg_lab::transport::{run_distributed, serve_main, TransportConfig};
use ncg_lab::{run_sweep, PointOutcome, RunOptions, SweepOutcome, SweepPlan};
use ncg_trace as trace;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::process::Command;

struct Args {
    max_n: usize,
    trials: usize,
    threads: Option<usize>,
    smoke: bool,
    json: Option<String>,
    journal: Option<PathBuf>,
    resume: bool,
    seed: u64,
    shards: Option<usize>,
    serve: Option<String>,
    workers: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        max_n: 512,
        trials: 3,
        threads: None,
        smoke: false,
        json: None,
        journal: None,
        resume: false,
        seed: 0x5eed_2013,
        shards: None,
        serve: None,
        workers: Vec::new(),
    };
    for arg in std::env::args().skip(1) {
        let (key, value) = split_arg(&arg)?;
        match key {
            "max_n" => args.max_n = parse_arg(key, value)?,
            "trials" => args.trials = parse_arg(key, value)?,
            "threads" => args.threads = Some(parse_arg(key, value)?),
            "smoke" => args.smoke = parse_flag(key, value)?,
            "json" => args.json = Some(value.to_string()),
            "journal" => args.journal = Some(PathBuf::from(value)),
            "resume" => args.resume = parse_flag(key, value)?,
            "seed" => args.seed = parse_arg(key, value)?,
            "shards" => args.shards = Some(parse_arg::<NonZeroUsize>(key, value)?.get()),
            "serve" => args.serve = Some(value.to_string()),
            "workers" => {
                args.workers = value
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            _ => eprintln!("ignoring unknown argument {key}={value}"),
        }
    }
    Ok(args)
}

fn print_outcome(plan: &SweepPlan, outcome: &SweepOutcome) {
    println!(
        "\nplan {} ({} points, engine {}, {} trials/point; {} chunks run, {} resumed)",
        plan.name,
        outcome.points.len(),
        plan.engine.label(),
        plan.trials,
        outcome.executed_chunks,
        outcome.resumed_chunks,
    );
    println!(
        "{:>42} {:>6} {:>10} {:>8} {:>8} {:>8} {:>9}",
        "point", "n", "avg steps", "max", "std", "nonconv", "steps/n"
    );
    for p in &outcome.points {
        let s = &p.stats;
        let summary = s.summary(p.point.n);
        println!(
            "{:>42} {:>6} {:>10.2} {:>8} {:>8.2} {:>8} {:>9.3}",
            p.point.label(),
            p.point.n,
            summary.avg_steps,
            s.max_steps,
            s.std_dev(),
            s.non_converged,
            s.max_steps as f64 / p.point.n as f64,
        );
    }
    if outcome.journal_skipped_lines > 0 {
        println!(
            "note: {} torn or corrupted journal line(s) were discarded on resume \
             (their chunks re-ran; see the warning above for the file)",
            outcome.journal_skipped_lines
        );
    }
    if outcome.journal_superseded > 0 {
        println!(
            "note: {} duplicate journal record(s) superseded by a later rewrite",
            outcome.journal_superseded
        );
    }
    if outcome.telemetry_degraded {
        println!(
            "note: telemetry stream went dark mid-run (append failure); \
             aggregates are unaffected"
        );
    }
}

/// Echoes each plan's health facts once more at the bottom of the log: a
/// degraded batch must be visible in the last screenful, not only in a note
/// that scrolled past hours earlier.
fn print_health(runs: &[(SweepPlan, SweepOutcome)]) {
    println!("\nrun health:");
    for (plan, outcome) in runs {
        let mut notes = Vec::new();
        let incomplete = outcome.incomplete_points();
        if !incomplete.is_empty() {
            notes.push(format!(
                "{} incomplete point(s): {}",
                incomplete.len(),
                incomplete.join(", ")
            ));
        }
        if outcome.journal_skipped_lines > 0 {
            notes.push(format!(
                "{} torn/corrupt journal line(s) discarded",
                outcome.journal_skipped_lines
            ));
        }
        if outcome.telemetry_degraded {
            notes.push("telemetry stream went dark mid-run".to_string());
        }
        if notes.is_empty() {
            println!("  {}: ok", plan.name);
        } else {
            println!("  {}: {}", plan.name, notes.join("; "));
        }
    }
}

/// Starts `k` copies of this binary as loopback shard servers
/// (`serve=ADDR`). `fault` arms an `NCG_FAULT` spec on worker 0's first
/// incarnation — the sharded smoke uses it; real runs pass `None`.
fn local_workers(k: usize, fault: Option<&'static str>) -> LocalWorkers {
    let exe = std::env::current_exe().expect("current executable path");
    LocalWorkers::spawn(k, move |slot, incarnation, bind| {
        let mut cmd = Command::new(&exe);
        cmd.arg(format!("serve={bind}")).env_remove("NCG_FAULT");
        if let Some(spec) = fault.filter(|_| slot == 0 && incarnation == 0) {
            cmd.env("NCG_FAULT", spec);
        }
        cmd
    })
    .expect("start local shard workers")
}

/// Runs one plan as a distributed coordinator over a TCP worker pool and
/// reports the merged outcome plus per-shard transport summaries.
fn run_transported(plan: &SweepPlan, args: &Args, workers: &[String]) -> SweepOutcome {
    let dir = match &args.journal {
        Some(p) => p.with_extension(format!("{}.transport", plan.name)),
        None => std::env::temp_dir().join(format!(
            "ncg-sweep-transport-{}-{}",
            std::process::id(),
            plan.name
        )),
    };
    let cfg = TransportConfig {
        shards: args.shards.unwrap_or_else(|| workers.len().max(1)),
        threads_per_shard: args.threads,
        ..TransportConfig::default()
    };
    let outcome = run_distributed(plan, &dir, &cfg, workers).expect("distributed sweep");
    for r in &outcome.shards {
        println!(
            "shard {}: {} attempt(s), {} reassignment(s), {} stall kill(s), {} severed, \
             {} corrupt frame(s){}",
            r.shard,
            r.attempts,
            r.reassignments,
            r.stall_kills,
            r.severed,
            r.corrupt_frames,
            if r.completed { "" } else { " — GAVE UP" },
        );
    }
    if !outcome.dead_workers.is_empty() {
        eprintln!(
            "sweep: worker(s) dropped from the pool: {}",
            outcome.dead_workers.join(", ")
        );
    }
    if outcome.degraded {
        let incomplete = outcome.merged.incomplete_points();
        eprintln!(
            "sweep: {} point(s) incomplete after the transport exhausted its budget: {}",
            incomplete.len(),
            incomplete.join(", "),
        );
    }
    outcome.merged
}

fn assert_bit_identical(a: &[PointOutcome], b: &[PointOutcome], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: point count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(
            x.stats,
            y.stats,
            "{what}: aggregates of {} must be bit-identical",
            x.point.label()
        );
        assert_eq!(
            x.stats.mean.to_bits(),
            y.stats.mean.to_bits(),
            "{what}: {} mean bits",
            x.point.label()
        );
        assert_eq!(
            x.stats.m2.to_bits(),
            y.stats.m2.to_bits(),
            "{what}: {} m2 bits",
            x.point.label()
        );
    }
}

/// The CI resume check: a tiny grid, run uninterrupted, then killed
/// mid-sweep and resumed — all three must agree bit-for-bit.
fn smoke(args: &Args) {
    let mut plan = sweeps::fig11_style(0, 4, args.seed); // one small n
    plan.ns = vec![12, 16];
    plan.chunk_size = 2;
    // Bilateral kill/resume: the delta-scored consent path must checkpoint
    // and resume bit-identically like every other engine.
    let mut bilateral = sweeps::bilateral_small(10, 3, args.seed);
    bilateral.chunk_size = 1;
    // Exact Buy Game: the whole-strategy (`strategy_rewrites`) trajectories
    // go through the same journal/checkpoint machinery.
    let mut exact_buy = sweeps::exact_buy_small(8, 3, args.seed);
    exact_buy.chunk_size = 1;

    for plan in [plan, bilateral, exact_buy] {
        let total_chunks: usize = plan.flatten().iter().map(|p| plan.chunks(p).len()).sum();
        let full = run_sweep(
            &plan,
            &RunOptions {
                threads: args.threads,
                ..RunOptions::default()
            },
        )
        .expect("uninterrupted smoke sweep");
        assert!(full.completed);

        let journal = std::env::temp_dir().join(format!(
            "ncg-sweep-smoke-{}-{}.jsonl",
            std::process::id(),
            plan.name
        ));
        let killed = run_sweep(
            &plan,
            &RunOptions {
                threads: args.threads,
                journal: Some(journal.clone()),
                resume: false,
                stop_after_chunks: Some(total_chunks / 2),
                ..RunOptions::default()
            },
        )
        .expect("killed smoke sweep");
        assert!(
            !killed.completed,
            "{}: the mid-sweep kill must leave work pending",
            plan.name
        );
        let resumed = run_sweep(
            &plan,
            &RunOptions {
                threads: args.threads,
                journal: Some(journal.clone()),
                resume: true,
                stop_after_chunks: None,
                ..RunOptions::default()
            },
        )
        .expect("resumed smoke sweep");
        assert!(resumed.completed);
        assert_eq!(
            resumed.resumed_chunks, killed.executed_chunks,
            "{}: every journaled chunk restored",
            plan.name
        );
        assert!(
            resumed.executed_chunks < total_chunks,
            "{}: resume must not re-run completed chunks",
            plan.name
        );
        assert_bit_identical(&full.points, &resumed.points, &plan.name);
        print_outcome(&plan, &resumed);
        std::fs::remove_file(&journal).ok();
        println!(
            "smoke OK: {} kill/resume aggregates bit-identical",
            plan.name
        );
    }
    smoke_sharded(args);
}

/// The CI fault-tolerance check: a 2-shard run on 2 local workers, worker 0
/// killed at its second chunk claim, must retry the severed shard and merge
/// bit-identical to the unsharded baseline.
fn smoke_sharded(args: &Args) {
    let mut plan = sweeps::fig11_style(0, 4, args.seed);
    plan.ns = vec![12, 16];
    plan.chunk_size = 2;
    let baseline = run_sweep(
        &plan,
        &RunOptions {
            threads: args.threads,
            ..RunOptions::default()
        },
    )
    .expect("unsharded baseline sweep");
    assert!(baseline.completed);

    let dir = std::env::temp_dir().join(format!("ncg-sweep-smoke-shards-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let workers = local_workers(2, Some("chunk-run:kill:hits=2"));
    let cfg = TransportConfig {
        shards: 2,
        threads_per_shard: args.threads,
        backoff_base_ms: 20,
        poll_ms: 10,
        ..TransportConfig::default()
    };
    let outcome = run_distributed(&plan, &dir, &cfg, workers.addrs()).expect("sharded smoke sweep");
    assert!(outcome.merged.completed, "sharded smoke must complete");
    assert!(!outcome.degraded);
    assert!(
        outcome.shards.iter().any(|r| r.severed >= 1),
        "the injected worker kill must have fired: {:?}",
        outcome.shards
    );
    assert_bit_identical(
        &baseline.points,
        &outcome.merged.points,
        "2-shard smoke on local workers",
    );
    std::fs::remove_dir_all(&dir).ok();
    println!(
        "smoke OK: 2-shard sweep on local workers with an injected worker kill \
         merges bit-identical to the unsharded run"
    );
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| exit_bad_args(&e));
    if let Some(bind) = &args.serve {
        std::process::exit(serve_main(bind));
    }
    if args.smoke {
        smoke(&args);
        return;
    }
    // `shards=K` without `workers=`: one pool of K local workers serves every
    // plan of this invocation.
    let local = match args.shards {
        Some(k) if args.workers.is_empty() => Some(local_workers(k, None)),
        _ => None,
    };
    let workers = local
        .as_ref()
        .map_or(&args.workers[..], LocalWorkers::addrs);

    let watch = trace::Stopwatch::start();
    let plans = vec![
        sweeps::fig07_style(args.max_n, args.trials, args.seed),
        sweeps::fig11_style(args.max_n, args.trials, args.seed),
        sweeps::bilateral_small(args.max_n, args.trials, args.seed),
        sweeps::exact_buy_small(args.max_n, args.trials, args.seed),
    ];
    let mut runs = Vec::new();
    for plan in plans {
        let outcome = if !workers.is_empty() {
            run_transported(&plan, &args, workers)
        } else {
            // One journal per plan when checkpointing is requested; the live
            // telemetry stream (chunk/worker/run events) lands next to it.
            let journal = args
                .journal
                .as_ref()
                .map(|p| p.with_extension(format!("{}.jsonl", plan.name)));
            let telemetry = args
                .journal
                .as_ref()
                .map(|p| p.with_extension(format!("{}.telemetry.jsonl", plan.name)));
            run_sweep(
                &plan,
                &RunOptions {
                    threads: args.threads,
                    journal,
                    resume: args.resume,
                    stop_after_chunks: None,
                    telemetry,
                    heartbeat: true,
                    shard: None,
                },
            )
            .expect("sweep failed")
        };
        print_outcome(&plan, &outcome);
        runs.push((plan, outcome));
    }
    let seconds = watch.elapsed_secs();
    println!("\ntotal wall time: {seconds:.1}s");
    print_health(&runs);

    if let Some(path) = &args.json {
        let json = sweeps::render_json(&runs, false, seconds);
        std::fs::write(path, json).expect("write json snapshot");
        println!("wrote {path}");
    }
}
