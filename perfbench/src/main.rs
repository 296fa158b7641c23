//! The benchmark binary.
//!
//! ```text
//! perfbench run --workload <name> --seed <n> --seconds <s> --trace <0|1> [--seeds default|heldout]
//! perfbench golden --set <default|heldout>    # print the golden file of a seed set
//! perfbench verify --set <default|heldout>    # check every seed of a set against its golden
//! ```
//!
//! `run` prints a human-readable account of the run, a `health` line, and as
//! its last line one JSON object: `correct`, `attempted`, `failed` and the
//! metrics — the end-to-end metrics with `--trace 0`, the per-layer metrics
//! with `--trace 1`. Tracing is only ever switched on in `--trace 1` runs,
//! so end-to-end numbers are measured with it off.

use ncg_core::{OracleKind, OracleStats};
use ncg_graph::oracle::make_oracle;
use ncg_graph::OwnedGraph;
use ncg_lab::{
    load_journal, merge_shard_journals, run_distributed, run_sweep, serve, RunOptions,
    ServeOptions, SweepOutcome, SweepPlan, TransportConfig,
};
use perfbench::host::{least_disturbed, peak_rss_mb, Health, HealthProbe};
use perfbench::{
    drive_trial, mean, median, phase_self_s, quantile, run_seeds, set_up, sweep_lines,
    sweep_results, trial_line, Golden, SeedSet, TrialRun, TrialSpec, Workload,
};
use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// The committed goldens, compiled in so a run never depends on its cwd.
const GOLDEN_DEFAULT: &str = include_str!("../golden/default.txt");
const GOLDEN_HELDOUT: &str = include_str!("../golden/heldout.txt");

/// End-to-end metrics, printed by every `--trace 0` run.
const END_TO_END: [(&str, &str); 3] = [("solve_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, printed by every `--trace 1` run.
const PER_LAYER: [(&str, &str); 35] = [
    ("generators.generate_ms", "ms"),
    ("dynamics.new_ms", "ms"),
    ("dynamics.step_ms.p50", "ms"),
    ("dynamics.step_ms.p99", "ms"),
    ("dynamics.certify_s", "s"),
    ("oracle.evaluations", "count"),
    ("oracle.nodes_expanded", "count"),
    ("oracle.replayed_begins", "count"),
    ("oracle.lazy_replays", "count"),
    ("oracle.batched_repins", "count"),
    ("oracle.csr_patches", "count"),
    ("oracle.csr_rebuilds", "count"),
    ("oracle.peak_parked_mb", "MB"),
    ("oracle.kernel_ns", "ns"),
    ("oracle.kernel_gbps_computed", "GB/s"),
    ("phase.fused-kernel.self_s", "s"),
    ("phase.enumerate.self_s", "s"),
    ("phase.delta-repair.self_s", "s"),
    ("phase.scalar-replay.self_s", "s"),
    ("phase.batch-wave.self_s", "s"),
    ("phase.csr-patch.self_s", "s"),
    ("phase.cost-refresh.self_s", "s"),
    ("phase.consent.self_s", "s"),
    ("policy.wasted_scan_ratio", "ratio"),
    ("orchestrator.busy_frac", "ratio"),
    ("orchestrator.chunk_ms.p50", "ms"),
    ("orchestrator.chunk_ms.p99", "ms"),
    ("journal.bytes", "B"),
    ("journal.load_ms", "ms"),
    ("shard.merge_ms", "ms"),
    ("transport.sweep_s", "s"),
    ("transport.overhead_frac", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
    ("host.runq_wait_s", "s"),
    ("host.steal_ticks", "count"),
];

/// Set-ups a trial-workload run measures at least, spread evenly over its
/// seeds (each trial's own set-up included); `setup_s` is their median. A
/// set-up takes 10–20 ms, so a few dozen keep the median steady.
const SETUPS_PER_RUN: usize = 24;
/// Extra set-up-only `run_sweep` calls per sweep; `setup_s` is the median
/// over them and the measured sweep's own set-up. A sweep's set-up takes
/// well under a millisecond and is mostly file creation, whose latency
/// varies, so it needs many samples.
const SETUPS_PER_SWEEP: usize = 40;
/// Worker threads of every sweep (the reference host has 2 vCPUs; fixed so
/// runs do not depend on the host's core count).
const SWEEP_THREADS: usize = 2;
/// Trajectory states kept per trial in traced runs: one every n/4 steps.
const STATE_SAMPLES_PER_N: usize = 4;
/// Agents whose buy candidates the kernel probe scores per sampled state.
const KERNEL_AGENTS: usize = 16;
/// Sampled states the kernel probe visits per run.
const KERNEL_STATES: usize = 6;

struct Args {
    cmd: String,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    set: SeedSet,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let cmd = it.next().ok_or("missing command (run | golden | verify)")?;
    let mut args = Args {
        cmd,
        workload: None,
        seed: 0,
        seconds: 10.0,
        trace: false,
        set: SeedSet::Default,
    };
    while let Some(key) = it.next() {
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        let bad = || format!("bad value {value:?} for {key}");
        match key.as_str() {
            "--workload" => args.workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            "--seeds" | "--set" => args.set = SeedSet::parse(&value).ok_or_else(bad)?,
            _ => return Err(format!("unknown argument {key}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.cmd.as_str() {
        "run" => run(&args),
        "golden" => {
            print!("{}", golden_text(args.set, args.workload));
            Ok(())
        }
        "verify" => verify(args.set, args.workload),
        other => Err(format!("unknown command {other}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn golden_source(set: SeedSet) -> &'static str {
    match set {
        SeedSet::Default => GOLDEN_DEFAULT,
        SeedSet::Heldout => GOLDEN_HELDOUT,
    }
}

fn workloads(only: Option<Workload>) -> Vec<Workload> {
    only.map_or(Workload::ALL.to_vec(), |w| vec![w])
}

/// A scratch directory for journals and telemetry inside the working
/// directory, removed again when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> WorkDir {
        let dir = PathBuf::from(".perfbench_work").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the benchmark's work directory");
        WorkDir(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Drop the parent too once no other run is using it.
        let _ = std::fs::remove_dir(".perfbench_work");
    }
}

// ---------------------------------------------------------------------------
// Goldens
// ---------------------------------------------------------------------------

/// The golden lines of one seed of `w`, computed afresh (untimed).
fn golden_lines(w: Workload, seed: u64, work: &Path) -> String {
    match w.trial_spec() {
        Some(spec) => {
            let game = spec.make_game();
            let run = drive_trial(&spec, game.as_ref(), seed, None);
            format!("{}\n", trial_line(w, seed, &run.result))
        }
        None => {
            let plan = w.plan(seed).expect("sweep workload");
            let run = local_sweep(&plan, work, "golden", None);
            sweep_lines(w, seed, &sweep_results(&run.outcome))
        }
    }
}

/// Computes the golden file of a seed set.
fn golden_text(set: SeedSet, only: Option<Workload>) -> String {
    let work = WorkDir::new();
    let mut out = format!(
        "# perfbench goldens, seed set {:?}; regenerate with `perfbench golden --set {}`.\n",
        set.name(),
        set.name()
    );
    for w in workloads(only) {
        for seed in set.seeds(w) {
            out.push_str(&golden_lines(w, seed, &work.0));
            eprintln!("golden: {} seed {seed} done", w.name());
        }
    }
    out
}

/// Recomputes every seed of a set and counts the records that differ from
/// the committed golden.
fn verify(set: SeedSet, only: Option<Workload>) -> Result<(), String> {
    let committed: HashSet<&str> = golden_source(set).lines().collect();
    let work = WorkDir::new();
    let mut failed_total = 0usize;
    for w in workloads(only) {
        let (mut attempted, mut failed) = (0usize, 0usize);
        for seed in set.seeds(w) {
            for line in golden_lines(w, seed, &work.0).lines() {
                attempted += 1;
                failed += usize::from(!committed.contains(line));
            }
        }
        println!(
            "verify {} set={}: {failed}/{attempted} disagree with the golden",
            w.name(),
            set.name()
        );
        failed_total += failed;
    }
    if failed_total == 0 {
        Ok(())
    } else {
        Err(format!("{failed_total} results disagree with the golden"))
    }
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

/// Metrics of one run, by name, with units.
#[derive(Default)]
struct Metrics(BTreeMap<&'static str, (f64, &'static str)>);

impl Metrics {
    fn set(&mut self, name: &'static str, value: f64) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("undeclared metric {name}"));
        self.0.insert(name, (value, unit));
    }

    /// The final JSON line over the declared metric list `names`.
    fn json(&self, names: &[(&str, &str)], attempted: usize, failed: usize) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
            failed == 0
        );
        for (i, (name, _)) in names.iter().enumerate() {
            let (value, unit) = self.0[name];
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// What a run found, for the last lines of its output.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    health: Health,
    timed_s: f64,
    /// Units measured again because the host stole time from them.
    repeated: usize,
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload.ok_or("run needs --workload")?;
    let golden = Golden::parse(golden_source(args.set)).expect("committed golden parses");
    let set = args.set.seeds(w);
    let units = ((args.seconds / w.nominal_unit_s()).round() as usize).max(1);
    let work = WorkDir::new();
    let mut metrics = Metrics::default();
    let mut tally = Tally::default();
    println!(
        "perfbench: workload={} set={} seed={} seconds={} trace={}",
        w.name(),
        args.set.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    match (w.trial_spec(), args.trace) {
        (Some(spec), false) => {
            let seeds = run_seeds(&set, args.seed, units);
            let budget = args.seconds;
            trials_untraced(w, &spec, &seeds, budget, &golden, &mut metrics, &mut tally);
        }
        (Some(spec), true) => {
            let seeds = run_seeds(&set, args.seed, units.div_ceil(2));
            trials_traced(w, &spec, &seeds, &golden, &work.0, &mut metrics, &mut tally);
        }
        (None, false) => {
            let seeds = run_seeds(&set, args.seed, units);
            let budget = args.seconds;
            sweeps_untraced(
                w,
                &seeds,
                budget,
                &golden,
                &work.0,
                &mut metrics,
                &mut tally,
            );
        }
        (None, true) => {
            let seed = run_seeds(&set, args.seed, 1)[0];
            sweep_traced(w, seed, &golden, &work.0, &mut metrics, &mut tally);
        }
    }
    let rss = peak_rss_mb().ok_or("cannot read VmHWM")?;
    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    if args.trace {
        metrics.set("host.runq_wait_s", tally.health.runq_wait_s);
        metrics.set("host.steal_ticks", tally.health.steal_ticks as f64);
    } else {
        metrics.set("peak_rss_mb", rss);
    }
    println!("peak_rss_mb {rss:.3} MB (VmHWM of this process)");
    println!(
        "health runq_wait_s={:.4} steal_ticks={} timed_s={:.3} repeated={} failed_frac={failed_frac} ({}/{})",
        tally.health.runq_wait_s,
        tally.health.steal_ticks,
        tally.timed_s,
        tally.repeated,
        tally.failed,
        tally.attempted
    );
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", metrics.json(names, tally.attempted, tally.failed));
    Ok(())
}

/// Untraced trials; a trial the host visibly disturbed is measured again
/// while `budget_s` seconds of repeats last.
fn trials_untraced(
    w: Workload,
    spec: &TrialSpec,
    seeds: &[u64],
    mut budget_s: f64,
    golden: &Golden,
    metrics: &mut Metrics,
    tally: &mut Tally,
) {
    let game = spec.make_game();
    let mut solve = Vec::new();
    let mut setups = Vec::new();
    let per_seed = SETUPS_PER_RUN.div_ceil(seeds.len()).max(1);
    let probe = HealthProbe::start();
    for &seed in seeds {
        for _ in 1..per_seed {
            let trial = set_up(spec, game.as_ref(), seed);
            setups.push(trial.generate_s + trial.new_s);
        }
        let (run, repeated) = least_disturbed(&mut budget_s, w.nominal_unit_s(), || {
            let run = drive_trial(spec, game.as_ref(), seed, None);
            tally.attempted += 1;
            tally.failed += usize::from(!golden.check_trial(w, seed, &run.result));
            run
        });
        tally.repeated += repeated;
        setups.push(run.generate_s + run.new_s);
        solve.push(run.solve_s);
        println!(
            "trial seed={seed} solve_s={:.4} steps={} converged={}",
            run.solve_s, run.result.steps, run.result.converged
        );
    }
    tally.health = probe.stop();
    tally.timed_s = solve.iter().sum();
    metrics.set("solve_s", mean(&solve));
    metrics.set("setup_s", median(&setups));
    println!(
        "solve_s {:.4} s (mean of {} trials)",
        mean(&solve),
        solve.len()
    );
    println!(
        "setup_s {:.5} s (median of {} set-ups)",
        median(&setups),
        setups.len()
    );
}

/// Collected per-layer measurements of directly driven, traced trials.
#[derive(Default)]
struct TrialLayers {
    generate_s: Vec<f64>,
    new_s: Vec<f64>,
    step_s: Vec<f64>,
    certify_s: Vec<f64>,
    oracle: Vec<OracleStats>,
    states: Vec<OwnedGraph>,
}

impl TrialLayers {
    fn push(&mut self, run: TrialRun) {
        self.generate_s.push(run.generate_s);
        self.new_s.push(run.new_s);
        self.step_s.extend_from_slice(&run.step_s);
        if run.result.converged {
            self.certify_s.push(run.certify_s);
        }
        self.oracle.push(run.oracle);
        self.states.extend(run.states);
    }

    fn report(&self, metrics: &mut Metrics) {
        let ms = |v: &[f64]| v.iter().map(|s| s * 1e3).collect::<Vec<_>>();
        metrics.set("generators.generate_ms", median(&ms(&self.generate_s)));
        metrics.set("dynamics.new_ms", median(&ms(&self.new_s)));
        let steps = ms(&self.step_s);
        metrics.set("dynamics.step_ms.p50", quantile(&steps, 0.5));
        metrics.set("dynamics.step_ms.p99", quantile(&steps, 0.99));
        metrics.set(
            "dynamics.certify_s",
            if self.certify_s.is_empty() {
                0.0
            } else {
                mean(&self.certify_s)
            },
        );
        let per_trial = |f: fn(&OracleStats) -> u64| {
            self.oracle.iter().map(|s| f(s) as f64).sum::<f64>() / self.oracle.len() as f64
        };
        metrics.set("oracle.evaluations", per_trial(|s| s.evaluations));
        metrics.set("oracle.nodes_expanded", per_trial(|s| s.nodes_expanded));
        metrics.set("oracle.replayed_begins", per_trial(|s| s.replayed_begins));
        metrics.set("oracle.lazy_replays", per_trial(|s| s.lazy_replays));
        metrics.set("oracle.batched_repins", per_trial(|s| s.batched_repins));
        metrics.set("oracle.csr_patches", per_trial(|s| s.csr_patches));
        metrics.set("oracle.csr_rebuilds", per_trial(|s| s.csr_rebuilds));
        let peak = self
            .oracle
            .iter()
            .map(|s| s.peak_parked_bytes)
            .max()
            .unwrap_or(0);
        metrics.set("oracle.peak_parked_mb", peak as f64 / 1e6);
        let (ns, calls, n) = kernel_probe(&self.states);
        let bytes_per_call = 2.0 * n as f64 * 2.0;
        metrics.set("oracle.kernel_ns", ns);
        metrics.set("oracle.kernel_gbps_computed", bytes_per_call / ns);
        println!(
            "kernel probe: {calls} evaluate_insert_via_cache calls, {ns:.1} ns/call, \
             {:.2} GB/s computed as 2·n·2 B per call (n = {n})",
            bytes_per_call / ns
        );
    }
}

/// Times `evaluate_insert_via_cache` over every buy candidate of sampled
/// agents at sampled trajectory states, on a separately pinned persistent
/// oracle. Returns (ns per call, calls, n).
fn kernel_probe(states: &[OwnedGraph]) -> (f64, usize, usize) {
    let picked: Vec<&OwnedGraph> = if states.len() <= KERNEL_STATES {
        states.iter().collect()
    } else {
        (0..KERNEL_STATES)
            .map(|i| &states[i * (states.len() - 1) / (KERNEL_STATES - 1)])
            .collect()
    };
    let (mut total_ns, mut calls, mut n) = (0u128, 0usize, 0usize);
    for g in picked {
        n = g.num_nodes();
        let mut oracle = make_oracle(OracleKind::Persistent, n);
        let all: Vec<usize> = (0..n).collect();
        oracle.pin_sources(g, &all);
        for k in 0..KERNEL_AGENTS.min(n) {
            let u = k * n / KERNEL_AGENTS.min(n);
            oracle.begin(g, u);
            let candidates: Vec<usize> = (0..n).filter(|&v| v != u && !g.has_edge(u, v)).collect();
            let t = Instant::now();
            for &v in &candidates {
                let scored = oracle.evaluate_insert_via_cache(g, &[], u, v);
                assert!(
                    scored.is_some(),
                    "the pinned oracle serves every buy candidate"
                );
                std::hint::black_box(scored);
            }
            total_ns += t.elapsed().as_nanos();
            calls += candidates.len();
        }
    }
    (total_ns as f64 / calls.max(1) as f64, calls, n)
}

fn report_trace(report: &ncg_trace::TraceReport, metrics: &mut Metrics) {
    let self_s = phase_self_s(report);
    for (metric, phase) in [
        ("phase.fused-kernel.self_s", "fused-kernel"),
        ("phase.enumerate.self_s", "enumerate"),
        ("phase.delta-repair.self_s", "delta-repair"),
        ("phase.scalar-replay.self_s", "scalar-replay"),
        ("phase.batch-wave.self_s", "batch-wave"),
        ("phase.csr-patch.self_s", "csr-patch"),
        ("phase.cost-refresh.self_s", "cost-refresh"),
        ("phase.consent.self_s", "consent"),
    ] {
        metrics.set(metric, self_s.get(phase).copied().unwrap_or(0.0));
    }
    metrics.set(
        "policy.wasted_scan_ratio",
        report.wasted_scan_ratio().unwrap_or(0.0),
    );
    print!("{}", report.render_flame());
}

fn trials_traced(
    w: Workload,
    spec: &TrialSpec,
    seeds: &[u64],
    golden: &Golden,
    work: &Path,
    metrics: &mut Metrics,
    tally: &mut Tally,
) {
    let game = spec.make_game();
    let every = (spec.n / STATE_SAMPLES_PER_N).max(1);
    let mut layers = TrialLayers::default();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let _ = ncg_trace::take_report();
    let probe = HealthProbe::start();
    // Untraced and traced passes alternate per seed, so a slow stretch of
    // the host hits both sides of the overhead ratio alike.
    for &seed in seeds {
        let plain = drive_trial(spec, game.as_ref(), seed, None);
        ncg_trace::set_enabled(true);
        let run = drive_trial(spec, game.as_ref(), seed, Some(every));
        ncg_trace::set_enabled(false);
        for r in [&plain.result, &run.result] {
            tally.attempted += 1;
            tally.failed += usize::from(!golden.check_trial(w, seed, r));
        }
        untraced.push(plain.solve_s);
        traced.push(run.solve_s);
        layers.push(run);
    }
    tally.health = probe.stop();
    tally.timed_s = untraced.iter().sum::<f64>() + traced.iter().sum::<f64>();
    let report = ncg_trace::take_report();
    metrics.set(
        "bench.trace_overhead_frac",
        mean(&traced) / mean(&untraced) - 1.0,
    );
    report_trace(&report, metrics);
    layers.report(metrics);
    // The lab layers on a small sweep of this workload's family.
    let plan = spec.lab_probe_plan();
    let local = local_sweep(&plan, work, "lab-probe", None);
    lab_layers(&plan, &local, work, metrics);
}

/// A finished local sweep and what its telemetry says.
struct LocalSweep {
    outcome: SweepOutcome,
    wall_s: f64,
    setup_s: f64,
    journal: PathBuf,
    busy_frac: f64,
    chunk_ms: Vec<f64>,
}

/// The first `"key":<integer>` value on a telemetry line.
fn telemetry_field(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Runs `plan` through `run_sweep` with journal and telemetry on, timing
/// the call; set-up is the call's wall-clock minus the telemetry's
/// `run.wall_ns`. With `stop_after_chunks: Some(0)` the call does only the
/// set-up: plan flatten/hash and journal/telemetry creation.
fn local_sweep(
    plan: &SweepPlan,
    work: &Path,
    tag: &str,
    stop_after_chunks: Option<usize>,
) -> LocalSweep {
    let journal = work.join(format!("{tag}.journal.jsonl"));
    let telemetry = work.join(format!("{tag}.telemetry.jsonl"));
    let opts = RunOptions {
        threads: Some(SWEEP_THREADS),
        journal: Some(journal.clone()),
        telemetry: Some(telemetry.clone()),
        stop_after_chunks,
        ..RunOptions::default()
    };
    let t = Instant::now();
    let outcome = run_sweep(plan, &opts).expect("sweep journal I/O");
    let wall_s = t.elapsed().as_secs_f64();
    let text = std::fs::read_to_string(&telemetry).expect("read sweep telemetry");
    let (mut run_ns, mut busy_ns, mut workers, mut chunk_ms) = (0u64, 0u64, 0u64, Vec::new());
    for line in text.lines() {
        if line.contains("\"event\":\"run\"") {
            run_ns = telemetry_field(line, "wall_ns").unwrap_or(0);
        } else if line.contains("\"event\":\"worker\"") {
            busy_ns += telemetry_field(line, "busy_ns").unwrap_or(0);
            workers += 1;
        } else if line.contains("\"event\":\"chunk\"") {
            chunk_ms.push(telemetry_field(line, "busy_ns").unwrap_or(0) as f64 / 1e6);
        }
    }
    LocalSweep {
        outcome,
        wall_s,
        setup_s: wall_s - run_ns as f64 / 1e9,
        journal,
        busy_frac: busy_ns as f64 / (workers.max(1) * run_ns.max(1)) as f64,
        chunk_ms,
    }
}

/// Counts a finished sweep's points, and those disagreeing with the golden.
fn check_sweep(w: Workload, seed: u64, outcome: &SweepOutcome, golden: &Golden, tally: &mut Tally) {
    let results = sweep_results(outcome);
    tally.attempted += results.len();
    tally.failed += golden.check_sweep(w, seed, &results);
}

/// Untraced sweeps; a sweep the host visibly disturbed is measured again
/// while `budget_s` seconds of repeats last.
fn sweeps_untraced(
    w: Workload,
    seeds: &[u64],
    mut budget_s: f64,
    golden: &Golden,
    work: &Path,
    metrics: &mut Metrics,
    tally: &mut Tally,
) {
    let (mut solve, mut setups) = (Vec::new(), Vec::new());
    let probe = HealthProbe::start();
    for (i, &seed) in seeds.iter().enumerate() {
        let plan = w.plan(seed).expect("sweep workload");
        for k in 0..SETUPS_PER_SWEEP {
            setups.push(local_sweep(&plan, work, &format!("setup-{i}-{k}"), Some(0)).setup_s);
        }
        let (run, repeated) = least_disturbed(&mut budget_s, w.nominal_unit_s(), || {
            let run = local_sweep(&plan, work, &format!("sweep-{i}"), None);
            check_sweep(w, seed, &run.outcome, golden, tally);
            run
        });
        tally.repeated += repeated;
        setups.push(run.setup_s);
        solve.push(run.wall_s);
        println!(
            "sweep base_seed={seed} sweep_s={:.4} points={} busy_frac={:.4}",
            run.wall_s,
            run.outcome.points.len(),
            run.busy_frac
        );
    }
    tally.health = probe.stop();
    tally.timed_s = solve.iter().sum();
    metrics.set("solve_s", median(&solve));
    metrics.set("setup_s", median(&setups));
    println!(
        "solve_s {:.4} s (median of {} sweeps)",
        median(&solve),
        solve.len()
    );
    println!(
        "setup_s {:.6} s (median of {} set-ups)",
        median(&setups),
        setups.len()
    );
}

fn sweep_traced(
    w: Workload,
    seed: u64,
    golden: &Golden,
    work: &Path,
    metrics: &mut Metrics,
    tally: &mut Tally,
) {
    let plan = w.plan(seed).expect("sweep workload");
    let probe = HealthProbe::start();
    let plain = local_sweep(&plan, work, "untraced", None);
    check_sweep(w, seed, &plain.outcome, golden, tally);
    ncg_trace::set_enabled(true);
    let traced = local_sweep(&plan, work, "traced", None);
    ncg_trace::set_enabled(false);
    check_sweep(w, seed, &traced.outcome, golden, tally);
    tally.health = probe.stop();
    tally.timed_s = plain.wall_s + traced.wall_s;
    metrics.set(
        "bench.trace_overhead_frac",
        traced.wall_s / plain.wall_s - 1.0,
    );
    let report = traced.outcome.trace.clone().unwrap_or_default();
    report_trace(&report, metrics);
    lab_layers(&plan, &plain, work, metrics);

    // The dynamics and oracle layers on directly driven trials: the first
    // trial of every point at the plan's largest n.
    let max_n = plan.ns.iter().copied().max().unwrap_or(0);
    let mut layers = TrialLayers::default();
    for point in plan.flatten().into_iter().filter(|p| p.n == max_n) {
        let spec = TrialSpec {
            family: point.family,
            n: point.n,
            alpha: point.alpha,
            scenario: point.scenario,
            max_steps_factor: point.max_steps_factor,
        };
        let game = spec.make_game();
        let every = (spec.n / STATE_SAMPLES_PER_N).max(1);
        layers.push(drive_trial(
            &spec,
            game.as_ref(),
            point.base_seed,
            Some(every),
        ));
    }
    layers.report(metrics);
}

/// Orchestrator, journal, shard and transport metrics of `plan`, whose local
/// untraced run is `local`.
fn lab_layers(plan: &SweepPlan, local: &LocalSweep, work: &Path, metrics: &mut Metrics) {
    metrics.set("orchestrator.busy_frac", local.busy_frac);
    metrics.set("orchestrator.chunk_ms.p50", quantile(&local.chunk_ms, 0.5));
    metrics.set("orchestrator.chunk_ms.p99", quantile(&local.chunk_ms, 0.99));
    let bytes = std::fs::metadata(&local.journal)
        .map(|m| m.len())
        .unwrap_or(0);
    metrics.set("journal.bytes", bytes as f64);
    let plan_hash = plan.plan_hash();
    let loads: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let contents = load_journal(&local.journal, plan_hash).expect("reload the journal");
            assert_eq!(contents.skipped_lines, 0, "a clean journal reloads whole");
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    metrics.set("journal.load_ms", median(&loads));

    let (transport_s, journals) = distributed_sweep(plan, work, local);
    metrics.set("transport.sweep_s", transport_s);
    metrics.set("transport.overhead_frac", transport_s / local.wall_s - 1.0);
    let merges: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let merged = merge_shard_journals(plan, 2, &journals).expect("merge shard journals");
            assert!(merged.completed, "every shard journal is complete");
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    metrics.set("shard.merge_ms", median(&merges));
    println!(
        "lab layers: local {:.3} s, distributed over 2 loopback workers {transport_s:.3} s, \
         journal {bytes} B",
        local.wall_s
    );
}

/// Runs `plan` through `run_distributed` to two in-process loopback `serve`
/// workers and checks the merged aggregates against the local run. Returns
/// the coordinator's wall-clock and the shard journals it persisted.
fn distributed_sweep(plan: &SweepPlan, work: &Path, local: &LocalSweep) -> (f64, Vec<PathBuf>) {
    let coord = work.join("coordinator");
    let mut servers = Vec::new();
    let mut addrs = Vec::new();
    for i in 0..2 {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener.local_addr().expect("listener address");
        addrs.push(addr.to_string());
        let opts = ServeOptions {
            workdir: work.join(format!("worker-{i}")),
            max_assignments: Some(2),
            ..ServeOptions::default()
        };
        servers.push((addr, std::thread::spawn(move || serve(&listener, &opts))));
    }
    let cfg = TransportConfig {
        shards: 2,
        threads_per_shard: Some(1),
        ..TransportConfig::default()
    };
    let t = Instant::now();
    let outcome = run_distributed(plan, &coord, &cfg, &addrs).expect("distributed sweep");
    let wall_s = t.elapsed().as_secs_f64();
    // Release workers still waiting in `accept`: an empty connection counts
    // as a served assignment, so each one returns after at most two.
    for (addr, handle) in servers {
        while !handle.is_finished() {
            drop(TcpStream::connect(addr));
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        handle.join().expect("server thread").expect("server I/O");
    }
    assert!(
        outcome.merged.completed && !outcome.degraded,
        "distributed sweep completed"
    );
    for (merged, own) in outcome.merged.points.iter().zip(&local.outcome.points) {
        assert_eq!(merged.point.hash, own.point.hash);
        assert_eq!(merged.stats, own.stats, "distributed ≡ local aggregates");
    }
    let journals = std::fs::read_dir(&coord)
        .expect("coordinator directory")
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.starts_with("shard-") && !name.contains("telemetry")
        })
        .collect();
    (wall_s, journals)
}
