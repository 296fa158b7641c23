//! The adaptive batch orchestrator: executes a [`SweepPlan`] as a shared
//! work queue of `(point, trial-chunk)` jobs.
//!
//! Workers steal jobs across *points* as well as trials: the queue is ordered
//! round-robin by chunk index (every point's first chunk before any point's
//! second), so progress — and therefore checkpoint coverage — spreads evenly
//! over the grid instead of draining one point at a time. Memory stays
//! `O(points × chunks)` small aggregates; no `TrialResult` is ever retained.
//!
//! Reproducibility contract: the aggregates of a completed sweep are
//! **bit-identical** regardless of worker count, host, kill/resume and shard
//! splits — chunk contents are pure functions of `(point, start, len)` and
//! per-point aggregates merge chunk-ordered by one chunk ledger, which local
//! runs, resumes and shard merges share. The host enters only through the
//! default worker count, which never influences a result.

use crate::journal::{header_is_damaged, load_journal, ChunkRecord, JournalWriter};
use crate::plan::{SweepPlan, SweepPoint};
use crate::shard::ShardSpec;
use crate::telemetry::{ChunkEvent, TelemetryWriter};
use ncg_sim::{run_seeded_trial, StreamingStats};
use ncg_trace as trace;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Execution options of one sweep run.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Worker threads (`None` = available CPUs).
    pub threads: Option<usize>,
    /// Checkpoint journal path (`None` = no checkpointing).
    pub journal: Option<PathBuf>,
    /// Load completed chunks from an existing journal before running.
    pub resume: bool,
    /// Execute at most this many chunks in *this* run — a simulated
    /// mid-sweep kill, used by the smoke test and the CI resume check. The
    /// cap is enforced on job *claims*, so it holds for any worker count.
    pub stop_after_chunks: Option<usize>,
    /// Live telemetry JSONL stream path (`None` = no telemetry), written
    /// next to the chunk journal — see [`crate::telemetry`]. Best-effort:
    /// mid-run write failures never abort the sweep.
    pub telemetry: Option<PathBuf>,
    /// Print a heartbeat line to stderr after every completed chunk:
    /// chunks done, points done, elapsed and ETA.
    pub heartbeat: bool,
    /// Execute only the chunks this shard owns (see [`crate::shard`]); the
    /// journal is created with the shard id folded into its header. `None`
    /// runs the whole plan unsharded.
    pub shard: Option<ShardSpec>,
}

/// Aggregated outcome of one point.
#[derive(Debug, Clone)]
pub struct PointOutcome {
    /// The executed point.
    pub point: SweepPoint,
    /// Chunks completed so far (== chunk count when the sweep finished).
    pub completed_chunks: usize,
    /// Total chunks of the point.
    pub total_chunks: usize,
    /// The chunk-ordered merge of all completed chunk aggregates.
    pub stats: StreamingStats,
}

impl PointOutcome {
    /// True once every chunk of the point completed.
    pub fn complete(&self) -> bool {
        self.completed_chunks == self.total_chunks
    }
}

/// Outcome of a sweep run, or of a shard merge
/// ([`crate::shard::merge_shard_journals`]).
#[derive(Debug)]
pub struct SweepOutcome {
    /// True if this run finished every chunk it set out to execute (for a
    /// sharded run: every chunk the shard *owns*; chunks of other shards are
    /// not this run's business); for a merge, every chunk of every point.
    pub completed: bool,
    /// Per-point aggregates, in plan (flatten) order.
    pub points: Vec<PointOutcome>,
    /// Chunks executed by this run (for a merge: chunks folded).
    pub executed_chunks: usize,
    /// Chunks restored from the journal instead of re-running (0 for a merge).
    pub resumed_chunks: usize,
    /// Torn or checksum-rejected journal lines discarded on resume or merge
    /// (0 when not resuming).
    pub journal_skipped_lines: usize,
    /// Journal records superseded by a later rewrite of the same chunk key
    /// (keep-last semantics; see [`crate::journal::JournalContents`]).
    pub journal_superseded: usize,
    /// Journal records dropped as identical to an already loaded record of
    /// the same chunk key, within one journal or across a merge's journals.
    pub journal_deduped: usize,
    /// True if the best-effort telemetry stream went dark mid-run (a failed
    /// append disables it; the sweep itself continues).
    pub telemetry_degraded: bool,
    /// Merged per-worker trace reports — `None` unless tracing was enabled
    /// ([`ncg_trace::set_enabled`]) while the sweep ran, and for a merge.
    /// Purely observational: aggregates are bit-identical either way.
    pub trace: Option<trace::TraceReport>,
}

impl SweepOutcome {
    /// Labels of the points whose chunks are not all present, in plan order.
    pub fn incomplete_points(&self) -> Vec<String> {
        self.points
            .iter()
            .filter(|p| !p.complete())
            .map(|p| p.point.label())
            .collect()
    }
}

/// One pending chunk: its point's flatten index, its chunk index and its
/// trials `start .. start + len`.
#[derive(Clone, Copy)]
pub(crate) struct Job {
    pub(crate) point: usize,
    pub(crate) chunk: usize,
    pub(crate) start: usize,
    pub(crate) len: usize,
}

/// The chunk bookkeeping of one sweep, built from a single
/// [`SweepPlan::flatten`]: the points, their chunk layouts, the plan hash of
/// those same points and one slot per `(point, chunk)`. Local runs, resumes,
/// shard merges and a coordinator's audit all take the job order, the layout
/// check and the chunk-ordered fold from here.
pub(crate) struct ChunkLedger {
    /// [`SweepPlan::plan_hash`], computed from `points`.
    pub(crate) plan_hash: u64,
    /// The plan's points, in flatten order.
    pub(crate) points: Vec<SweepPoint>,
    /// Point `pi`'s chunks and slots are `first[pi] .. first[pi + 1]`.
    first: Vec<usize>,
    /// `(start, len)` of every chunk, point by point.
    layout: Vec<(usize, usize)>,
    slots: Vec<Option<StreamingStats>>,
    /// Point hash → point index, for records arriving by journal key.
    index: HashMap<u64, usize>,
}

impl ChunkLedger {
    /// Flattens `plan` once; every slot starts empty.
    pub(crate) fn new(plan: &SweepPlan) -> ChunkLedger {
        let points = plan.flatten();
        let mut first = Vec::with_capacity(points.len() + 1);
        let mut layout = Vec::new();
        for point in &points {
            first.push(layout.len());
            layout.extend(plan.chunks(point));
        }
        first.push(layout.len());
        ChunkLedger {
            plan_hash: plan.hash_points(&points),
            index: points
                .iter()
                .enumerate()
                .map(|(pi, p)| (p.hash, pi))
                .collect(),
            slots: vec![None; layout.len()],
            points,
            first,
            layout,
        }
    }

    /// Stores a chunk record in its slot if its `(start, len)` matches the
    /// plan's layout of its chunk key; a record of a foreign key or layout
    /// is dropped. Returns whether the record was kept.
    pub(crate) fn absorb(&mut self, rec: ChunkRecord) -> bool {
        let Some(&pi) = self.index.get(&rec.point_hash) else {
            return false;
        };
        // The chunk index comes from a journal file: saturate, never wrap.
        let slots = self.first[pi]..self.first[pi + 1];
        let slot = slots.start.saturating_add(rec.chunk_index);
        if !slots.contains(&slot) || self.layout[slot] != (rec.start, rec.len) {
            return false;
        }
        self.slots[slot] = Some(rec.stats);
        true
    }

    /// The empty slots `shard` owns (all of them for `None`), round-robin by
    /// chunk index: every point's chunk `ci` comes before any point's chunk
    /// `ci + 1`, so progress spreads evenly over the grid.
    pub(crate) fn pending(&self, shard: Option<ShardSpec>) -> Vec<Job> {
        let max_chunks = self.first.windows(2).map(|w| w[1] - w[0]).max();
        let mut jobs = Vec::new();
        for chunk in 0..max_chunks.unwrap_or(0) {
            for (pi, point) in self.points.iter().enumerate() {
                let slot = self.first[pi] + chunk;
                if slot < self.first[pi + 1]
                    && self.slots[slot].is_none()
                    && shard.is_none_or(|s| s.owns(point.hash, chunk))
                {
                    let (start, len) = self.layout[slot];
                    jobs.push(Job {
                        point: pi,
                        chunk,
                        start,
                        len,
                    });
                }
            }
        }
        jobs
    }

    /// Folds every point's present chunks strictly in chunk order — the
    /// reproducibility anchor — into its aggregate.
    pub(crate) fn into_points(self) -> Vec<PointOutcome> {
        let mut slots = self.slots.into_iter();
        self.points
            .into_iter()
            .zip(self.first.windows(2))
            .map(|(point, range)| {
                let total_chunks = range[1] - range[0];
                let mut stats = StreamingStats::new();
                let mut completed_chunks = 0;
                for chunk in slots.by_ref().take(total_chunks).flatten() {
                    stats.merge(&chunk);
                    completed_chunks += 1;
                }
                PointOutcome {
                    point,
                    completed_chunks,
                    total_chunks,
                    stats,
                }
            })
            .collect()
    }
}

/// Runs one chunk of one point: trials `start .. start + len`, each derived
/// by the shared [`run_seeded_trial`] convention (so chunk contents stay a
/// pure function of the point), and streamed into a fresh [`StreamingStats`].
fn run_chunk(point: &SweepPoint, start: usize, len: usize) -> StreamingStats {
    let game = point.make_game();
    let mut stats = StreamingStats::new();
    for t in start..start + len {
        let result = run_seeded_trial(
            game.as_ref(),
            point.policy,
            point.engine,
            point.max_steps(),
            point.base_seed,
            t,
            |rng| point.scenario.generate(point.n, rng),
        );
        stats.push(&result, point.n);
    }
    stats
}

/// Executes `plan` and returns the per-point aggregates.
///
/// With a journal configured, every completed chunk is durably recorded
/// before the worker moves on; with `resume`, previously recorded chunks are
/// loaded instead of re-run. Errors surface only from journal I/O.
pub fn run_sweep(plan: &SweepPlan, opts: &RunOptions) -> std::io::Result<SweepOutcome> {
    run_ledger(ChunkLedger::new(plan), opts)
}

/// [`run_sweep`] on a plan already flattened into `ledger`, for a caller
/// that needs the ledger (or its plan hash) before the run starts.
pub(crate) fn run_ledger(
    mut ledger: ChunkLedger,
    opts: &RunOptions,
) -> std::io::Result<SweepOutcome> {
    let plan_hash = ledger.plan_hash;

    // Prefill the ledger from the journal on resume.
    let mut resumed_chunks = 0usize;
    let mut journal_skipped_lines = 0usize;
    let mut journal_superseded = 0usize;
    let mut journal_deduped = 0usize;
    // Set when the existing journal's header never reached disk intact (the
    // creating process died mid-header-write): nothing in the file can be
    // trusted, so resume starts the journal over instead of failing forever.
    let mut reset_journal = false;
    if opts.resume {
        if let Some(path) = &opts.journal {
            if path.exists() {
                match load_journal(path, plan_hash) {
                    Ok(contents) => {
                        if contents.shard != opts.shard {
                            return Err(std::io::Error::new(
                                std::io::ErrorKind::InvalidData,
                                format!(
                                    "journal {} carries shard header {:?}, expected {:?}",
                                    path.display(),
                                    contents.shard,
                                    opts.shard
                                ),
                            ));
                        }
                        if contents.skipped_lines > 0 {
                            eprintln!(
                                "sweep journal {}: ignoring {} torn or corrupted line(s) \
                                 from an interrupted run",
                                path.display(),
                                contents.skipped_lines
                            );
                        }
                        journal_skipped_lines = contents.skipped_lines;
                        journal_superseded = contents.superseded_chunks;
                        journal_deduped = contents.duplicate_chunks;
                        for rec in contents.chunks.into_values() {
                            resumed_chunks += usize::from(ledger.absorb(rec));
                        }
                    }
                    Err(e) if header_is_damaged(&e) => {
                        eprintln!(
                            "sweep journal {}: header never reached disk intact; \
                             starting the journal over",
                            path.display()
                        );
                        reset_journal = true;
                    }
                    Err(e) => return Err(e),
                }
            }
        }
    }

    let writer = match &opts.journal {
        Some(path) => Some(if opts.resume && path.exists() && !reset_journal {
            JournalWriter::append(path)?
        } else {
            JournalWriter::create_sharded(path, plan_hash, opts.shard)?
        }),
        None => None,
    };

    // A shard run claims only the chunks its deterministic partition owns.
    let jobs = ledger.pending(opts.shard);

    let telemetry = match &opts.telemetry {
        Some(path) => Some(TelemetryWriter::create(path, plan_hash)?),
        None => None,
    };

    let workers = opts
        .threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        })
        .max(1)
        .min(jobs.len().max(1));

    // This run's chunk target (the claim cap may trim the job list) and the
    // per-point pending counters feeding the heartbeat's points-done count.
    let target_chunks = opts
        .stop_after_chunks
        .map_or(jobs.len(), |limit| limit.min(jobs.len()));
    let point_count = ledger.points.len();
    let pending_per_point: Vec<AtomicUsize> = {
        let mut pending = vec![0usize; point_count];
        for job in &jobs {
            pending[job.point] += 1;
        }
        pending.into_iter().map(AtomicUsize::new).collect()
    };
    let points_done = AtomicUsize::new(
        pending_per_point
            .iter()
            .filter(|p| p.load(Ordering::Relaxed) == 0)
            .count(),
    );

    let clock = trace::Stopwatch::start();
    let next = AtomicUsize::new(0);
    let done_this_run = AtomicUsize::new(0);
    let io_failed = AtomicBool::new(false);
    let finished: Mutex<Vec<ChunkRecord>> = Mutex::new(Vec::with_capacity(target_chunks));
    let io_error: Mutex<Option<std::io::Error>> = Mutex::new(None);
    let trace_acc: Mutex<Option<trace::TraceReport>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for worker_id in 0..workers {
            let (next, jobs, ledger, writer, telemetry, finished, io_error) = (
                &next, &jobs, &ledger, &writer, &telemetry, &finished, &io_error,
            );
            let (io_failed, done_this_run, pending_per_point, points_done, trace_acc, clock) = (
                &io_failed,
                &done_this_run,
                &pending_per_point,
                &points_done,
                &trace_acc,
                &clock,
            );
            scope.spawn(move || {
                let mut claims = 0u64;
                let mut busy_ns = 0u64;
                loop {
                    if io_failed.load(Ordering::Relaxed) {
                        break;
                    }
                    let j = next.fetch_add(1, Ordering::Relaxed);
                    if j >= jobs.len() {
                        break;
                    }
                    // The claim counter itself enforces the simulated kill: at
                    // most `limit` jobs are ever claimed, no matter how many
                    // workers race here (completed-count checks would let up to
                    // `workers - 1` extra chunks through).
                    if opts.stop_after_chunks.is_some_and(|limit| j >= limit) {
                        break;
                    }
                    let job = jobs[j];
                    let point = &ledger.points[job.point];
                    claims += 1;
                    trace::add(trace::Counter::ChunkClaims, 1);
                    // Kill/hang injection site of the fault matrix: dying
                    // here loses exactly the claimed-but-unjournaled chunk,
                    // the worst case resume has to cover.
                    crate::faultpoint::trip("chunk-run");
                    let chunk_clock = trace::Stopwatch::start();
                    let stats = {
                        let _sp = trace::span(trace::Phase::ChunkRun);
                        run_chunk(point, job.start, job.len)
                    };
                    let chunk_ns = chunk_clock.elapsed_ns();
                    busy_ns += chunk_ns;
                    let rec = ChunkRecord {
                        point_hash: point.hash,
                        chunk_index: job.chunk,
                        start: job.start,
                        len: job.len,
                        stats,
                    };
                    if let Some(writer) = writer {
                        let _sp = trace::span(trace::Phase::JournalAppend);
                        trace::add(trace::Counter::JournalAppends, 1);
                        if let Err(e) = writer.record(&rec) {
                            *io_error.lock().expect("error mutex poisoned") = Some(e);
                            io_failed.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                    let done = done_this_run.fetch_add(1, Ordering::Relaxed) + 1;
                    if pending_per_point[job.point].fetch_sub(1, Ordering::Relaxed) == 1 {
                        points_done.fetch_add(1, Ordering::Relaxed);
                    }
                    if let Some(telemetry) = telemetry {
                        telemetry.chunk(&ChunkEvent {
                            point_hash: point.hash,
                            chunk_index: job.chunk,
                            start: job.start,
                            len: job.len,
                            trials: rec.stats.count,
                            steps: rec.stats.total_steps,
                            busy_ns: chunk_ns,
                            done,
                            total: target_chunks,
                        });
                    }
                    finished.lock().expect("results mutex poisoned").push(rec);
                    if opts.heartbeat {
                        let elapsed = clock.elapsed_secs();
                        let eta = elapsed / done as f64 * (target_chunks - done) as f64;
                        eprintln!(
                            "sweep: {done}/{target_chunks} chunks, {}/{point_count} points, {elapsed:.1}s elapsed, ETA {eta:.1}s",
                            points_done.load(Ordering::Relaxed),
                        );
                    }
                }
                if let Some(telemetry) = telemetry {
                    telemetry.worker(worker_id, claims, busy_ns);
                }
                if trace::enabled() {
                    let report = trace::take_report();
                    let mut acc = trace_acc.lock().expect("trace mutex poisoned");
                    match acc.as_mut() {
                        Some(merged) => merged.merge(&report),
                        None => *acc = Some(report),
                    }
                }
            });
        }
    });

    if let Some(e) = io_error.into_inner().expect("error mutex poisoned") {
        return Err(e);
    }
    let executed_chunks = done_this_run.into_inner();
    if let Some(telemetry) = &telemetry {
        telemetry.run(executed_chunks, resumed_chunks, clock.elapsed_ns());
    }
    let telemetry_degraded = telemetry.as_ref().is_some_and(TelemetryWriter::degraded);
    let trace_report = trace_acc.into_inner().expect("trace mutex poisoned");
    for rec in finished.into_inner().expect("results mutex poisoned") {
        ledger.absorb(rec);
    }

    Ok(SweepOutcome {
        // This run completed iff it executed every job it set out to claim —
        // for a sharded run that is the shard's own partition, not the grid.
        completed: executed_chunks == jobs.len(),
        points: ledger.into_points(),
        executed_chunks,
        resumed_chunks,
        journal_skipped_lines,
        journal_superseded,
        journal_deduped,
        telemetry_degraded,
        trace: trace_report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{render_table, FigureData};
    use crate::scenario::Scenario;
    use ncg_core::policy::Policy;
    use ncg_sim::{GameFamily, InitialTopology};

    fn tiny_plan() -> SweepPlan {
        let mut plan = SweepPlan::new("tiny");
        plan.scenarios = vec![
            Scenario::Paper(InitialTopology::Budgeted { k: 2 }),
            Scenario::Paper(InitialTopology::Budgeted { k: 1 }),
        ];
        plan.families = vec![GameFamily::AsgSum];
        plan.policies = vec![Policy::MaxCost];
        plan.ns = vec![10, 13];
        plan.trials = 6;
        plan.chunk_size = 2;
        plan
    }

    #[test]
    fn sweep_completes_and_counts_chunks() {
        let plan = tiny_plan();
        let out = run_sweep(&plan, &RunOptions::default()).unwrap();
        assert!(out.completed);
        assert_eq!(out.points.len(), 4);
        assert_eq!(out.executed_chunks, 4 * 3, "4 points × 3 chunks");
        assert_eq!(out.resumed_chunks, 0);
        for p in &out.points {
            assert!(p.complete());
            assert_eq!(p.stats.count, 6, "{}", p.point.label());
            assert_eq!(p.stats.non_converged, 0, "{}", p.point.label());
            assert_eq!(
                p.stats.hist.iter().sum::<u64>(),
                6,
                "histogram covers every trial"
            );
        }
    }

    #[test]
    fn ledger_keeps_only_records_on_the_plan_layout() {
        let plan = tiny_plan();
        let mut ledger = ChunkLedger::new(&plan);
        let hash = ledger.points[1].hash;
        let rec = |point_hash, chunk_index, start, len| ChunkRecord {
            point_hash,
            chunk_index,
            start,
            len,
            stats: StreamingStats::new(),
        };
        // Six trials in chunks of two: chunk 1 is trials 2..4.
        assert!(
            !ledger.absorb(rec(hash, usize::MAX, 2, 2)),
            "index overflow"
        );
        assert!(!ledger.absorb(rec(hash, 3, 6, 2)), "index past the layout");
        assert!(
            !ledger.absorb(rec(hash, 1, 2, 1)),
            "(start, len) off the layout"
        );
        assert!(!ledger.absorb(rec(!hash, 1, 2, 2)), "foreign point");
        assert!(ledger.absorb(rec(hash, 1, 2, 2)));
        assert_eq!(ledger.pending(None).len(), 4 * 3 - 1);
        let points = ledger.into_points();
        assert_eq!(points[1].completed_chunks, 1);
        assert_eq!(points.iter().map(|p| p.completed_chunks).sum::<usize>(), 1);
    }

    #[test]
    fn stop_after_chunks_leaves_the_sweep_incomplete() {
        let plan = tiny_plan();
        // The claim-based cap must hold exactly for ANY worker count — a
        // completed-count check would let extra in-flight chunks through
        // (and on a many-core box could even finish the whole sweep,
        // defeating the simulated kill).
        for threads in [1usize, 8] {
            let out = run_sweep(
                &plan,
                &RunOptions {
                    threads: Some(threads),
                    stop_after_chunks: Some(5),
                    ..RunOptions::default()
                },
            )
            .unwrap();
            assert!(!out.completed, "threads={threads}");
            assert_eq!(out.executed_chunks, 5, "threads={threads}");
            assert!(out.points.iter().any(|p| !p.complete()));
        }
    }

    #[test]
    fn telemetry_and_trace_capture_the_run() {
        let dir = std::env::temp_dir().join(format!("ncg-lab-sweep-tel-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("telemetry.jsonl");
        let plan = tiny_plan();
        trace::set_enabled(true);
        let out = run_sweep(
            &plan,
            &RunOptions {
                threads: Some(2),
                telemetry: Some(path.clone()),
                ..RunOptions::default()
            },
        )
        .unwrap();
        trace::set_enabled(false);
        assert!(out.completed);
        let report = out.trace.expect("tracing was enabled");
        assert_eq!(
            report.counter(trace::Counter::ChunkClaims),
            out.executed_chunks as u64,
            "every executed chunk was claimed exactly once"
        );
        assert!(report.total_ns() > 0, "chunk-run spans recorded time");
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("{\"ncg_sweep_telemetry\":1,"));
        let chunk_lines = lines
            .iter()
            .filter(|l| l.contains("\"event\":\"chunk\""))
            .count();
        assert_eq!(chunk_lines, out.executed_chunks);
        assert!(lines.iter().any(|l| l.contains("\"event\":\"worker\"")));
        assert!(
            lines.last().unwrap().contains("\"event\":\"run\""),
            "run summary is the final line"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_runs_merge_bit_identical_to_a_single_process_run() {
        assert_shards_merge_like_one_process(&tiny_plan());
        // A sharded figure run renders the local run's table.
        let def = crate::figures::fig12().scaled(20, 1, 4);
        let (local, merged) = assert_shards_merge_like_one_process(&def.plan);
        let table = |outcome| render_table(&def, &FigureData::from_outcome(&def, outcome));
        assert_eq!(table(&merged), table(&local));
    }

    /// Runs `plan` in one process and as 1 and 3 shards; each merge must
    /// equal the single-process run point by point. Returns the
    /// single-process run and the 3-shard merge.
    fn assert_shards_merge_like_one_process(plan: &SweepPlan) -> (SweepOutcome, SweepOutcome) {
        let baseline = run_sweep(plan, &RunOptions::default()).unwrap();
        let dir = std::env::temp_dir().join(format!(
            "ncg-lab-shardrun-{}-{}",
            plan.name,
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let mut merged = None;
        for count in [1usize, 3] {
            let mut paths = Vec::new();
            for index in 0..count {
                let spec = crate::shard::ShardSpec::new(index, count);
                let path = dir.join(spec.journal_name());
                let out = run_sweep(
                    plan,
                    &RunOptions {
                        threads: Some(2),
                        journal: Some(path.clone()),
                        shard: Some(spec),
                        ..RunOptions::default()
                    },
                )
                .unwrap();
                assert!(out.completed, "shard {index}/{count} finished its part");
                paths.push(path);
            }
            let merge = crate::shard::merge_shard_journals(plan, count, &paths).unwrap();
            assert!(merge.completed, "count={count}");
            for (a, b) in baseline.points.iter().zip(&merge.points) {
                assert_eq!(a.stats, b.stats, "count={count}: {}", a.point.label());
            }
            merged = Some(merge);
        }
        std::fs::remove_dir_all(&dir).ok();
        (baseline, merged.expect("the 3-shard merge ran"))
    }

    #[test]
    fn shard_resume_extends_its_own_journal_and_refuses_foreign_shards() {
        let plan = tiny_plan();
        let dir = std::env::temp_dir().join(format!("ncg-lab-shardres-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = crate::shard::ShardSpec::new(0, 2);
        let path = dir.join(spec.journal_name());
        let opts = |stop| RunOptions {
            threads: Some(1),
            journal: Some(path.clone()),
            resume: true,
            stop_after_chunks: stop,
            shard: Some(spec),
            ..RunOptions::default()
        };
        let first = run_sweep(&plan, &opts(Some(2))).unwrap();
        assert!(!first.completed);
        assert_eq!(first.executed_chunks, 2);
        let second = run_sweep(&plan, &opts(None)).unwrap();
        assert!(second.completed);
        assert_eq!(second.resumed_chunks, 2, "the first run's chunks resumed");
        // The same journal refuses to resume as a different shard (or
        // unsharded): its header pins the shard identity.
        let mut foreign = opts(None);
        foreign.shard = Some(crate::shard::ShardSpec::new(1, 2));
        assert!(run_sweep(&plan, &foreign).is_err());
        foreign.shard = None;
        assert!(run_sweep(&plan, &foreign).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_resets_a_journal_whose_header_was_destroyed() {
        let plan = tiny_plan();
        let dir = std::env::temp_dir().join(format!("ncg-lab-reset-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("damaged.jsonl");
        // The previous process died mid-header-write: a torn header fragment.
        std::fs::write(&path, "{\"ncg_sw").unwrap();
        let out = run_sweep(
            &plan,
            &RunOptions {
                threads: Some(1),
                journal: Some(path.clone()),
                resume: true,
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert!(out.completed);
        assert_eq!(out.resumed_chunks, 0, "nothing trustworthy to resume");
        let reloaded = load_journal(&path, plan.plan_hash()).unwrap();
        assert_eq!(reloaded.chunks.len(), out.executed_chunks, "journal reset");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_surfaces_skipped_lines_in_the_outcome() {
        let plan = tiny_plan();
        let dir = std::env::temp_dir().join(format!("ncg-lab-skipped-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.jsonl");
        let first = run_sweep(
            &plan,
            &RunOptions {
                threads: Some(1),
                journal: Some(path.clone()),
                stop_after_chunks: Some(3),
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert!(!first.completed);
        assert_eq!(first.journal_skipped_lines, 0, "fresh journal, no resume");
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            write!(f, "{{\"point\":\"00aa\",\"chunk\":1").unwrap();
        }
        let second = run_sweep(
            &plan,
            &RunOptions {
                threads: Some(1),
                journal: Some(path.clone()),
                resume: true,
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert!(second.completed);
        assert_eq!(second.journal_skipped_lines, 1, "the torn tail is reported");
        assert_eq!(second.resumed_chunks, 3);
        assert!(!second.telemetry_degraded, "no telemetry configured");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn worker_count_does_not_change_aggregates() {
        let plan = tiny_plan();
        let one = run_sweep(
            &plan,
            &RunOptions {
                threads: Some(1),
                ..RunOptions::default()
            },
        )
        .unwrap();
        let many = run_sweep(
            &plan,
            &RunOptions {
                threads: Some(4),
                ..RunOptions::default()
            },
        )
        .unwrap();
        for (a, b) in one.points.iter().zip(&many.points) {
            assert_eq!(a.stats, b.stats, "{}", a.point.label());
        }
    }
}
