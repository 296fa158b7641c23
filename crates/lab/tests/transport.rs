//! The fault matrix of the one shard runtime: sharded sweeps over real
//! loopback workers ([`LocalWorkers`] running the `shard_worker` binary),
//! coordinated by `run_distributed`, under worker kills at journal byte
//! offsets, hangs, journal I/O errors, exits that lie, connection kills,
//! heartbeat stalls and frame corruption must merge to aggregates
//! **bit-identical** to a fault-free single-process run — and a shard that
//! exhausts its assignment budget, or a coordinator that outlives its whole
//! worker pool, must degrade to named incomplete points instead of erroring.
//!
//! Faults are armed in the *worker* processes via `NCG_FAULT`, chosen per
//! slot and incarnation. A fault armed in a first incarnation only is
//! transient: a worker it kills is restarted clean. A fault armed in every
//! incarnation models a dead box. This process keeps its own fault table
//! empty, so the tests parallelize freely.

use ncg_lab::orchestrator::{run_sweep, PointOutcome, RunOptions};
use ncg_lab::plan::SweepPlan;
use ncg_lab::scenario::Scenario;
use ncg_lab::supervisor::LocalWorkers;
use ncg_lab::transport::{run_distributed, TransportConfig, TransportOutcome};
use ncg_lab::ShardSpec;
use ncg_sim::InitialTopology;
use std::path::PathBuf;
use std::process::Command;

fn tiny_plan() -> SweepPlan {
    let mut plan = SweepPlan::new("transport-matrix");
    plan.scenarios = vec![
        Scenario::Paper(InitialTopology::Budgeted { k: 1 }),
        Scenario::Paper(InitialTopology::Budgeted { k: 3 }),
    ];
    plan.families = vec![ncg_sim::GameFamily::AsgSum];
    plan.policies = vec![ncg_core::policy::Policy::MaxCost];
    plan.ns = vec![8, 10];
    plan.trials = 4;
    plan.chunk_size = 2;
    plan // 4 points × 2 chunks = 8 jobs
}

fn baseline(plan: &SweepPlan) -> Vec<PointOutcome> {
    let opts = RunOptions {
        threads: Some(1),
        ..RunOptions::default()
    };
    let out = run_sweep(plan, &opts).expect("baseline sweep");
    assert!(out.completed);
    out.points
}

/// The identity assertion of the whole runtime: per-point aggregates from a
/// sharded run carry the same IEEE bit patterns as the local fold.
fn assert_bit_identical(expected: &[PointOutcome], actual: &[PointOutcome]) {
    assert_eq!(expected.len(), actual.len(), "point count");
    for (e, a) in expected.iter().zip(actual) {
        let label = e.point.label();
        assert_eq!(label, a.point.label(), "plan order");
        assert_eq!(e.stats.count, a.stats.count, "{label}: count");
        assert_eq!(e.stats.total_steps, a.stats.total_steps, "{label}: steps");
        assert_eq!(e.stats.min_steps, a.stats.min_steps, "{label}: min");
        assert_eq!(e.stats.max_steps, a.stats.max_steps, "{label}: max");
        assert_eq!(
            e.stats.non_converged, a.stats.non_converged,
            "{label}: non_converged"
        );
        assert_eq!(e.stats.kinds, a.stats.kinds, "{label}: move kinds");
        assert_eq!(
            e.stats.mean.to_bits(),
            a.stats.mean.to_bits(),
            "{label}: mean bits"
        );
        assert_eq!(
            e.stats.m2.to_bits(),
            a.stats.m2.to_bits(),
            "{label}: m2 bits"
        );
        assert_eq!(e.stats.hist, a.stats.hist, "{label}: histogram");
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ncg-transport-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `k` `shard_worker` processes on loopback, each with its scratch files
/// under its own temporary directory; `fault(slot, incarnation)` picks the
/// `NCG_FAULT` spec of each incarnation. Killed on drop.
fn workers(
    tag: &str,
    k: usize,
    fault: impl Fn(usize, usize) -> Option<String> + Send + 'static,
) -> LocalWorkers {
    let scratch = tmp_dir(&format!("srv-{tag}"));
    LocalWorkers::spawn(k, move |slot, incarnation, bind| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_shard_worker"));
        cmd.env_remove("NCG_FAULT")
            .env("NCG_SERVE", bind)
            .env("TMPDIR", &scratch);
        if let Some(spec) = fault(slot, incarnation) {
            cmd.env("NCG_FAULT", spec);
        }
        cmd
    })
    .expect("start local workers")
}

fn clean(_slot: usize, _incarnation: usize) -> Option<String> {
    None
}

/// `spec` on worker 0's first incarnation only: a transient fault.
fn once_on_worker_0(spec: &str) -> impl Fn(usize, usize) -> Option<String> + Send + 'static {
    let spec = spec.to_string();
    move |slot, incarnation| (slot == 0 && incarnation == 0).then(|| spec.clone())
}

/// `spec` on every incarnation of worker 0: a dead box.
fn always_on_worker_0(spec: &str) -> impl Fn(usize, usize) -> Option<String> + Send + 'static {
    let spec = spec.to_string();
    move |slot, _| (slot == 0).then(|| spec.clone())
}

fn fast_cfg(shards: usize) -> TransportConfig {
    TransportConfig {
        shards,
        assign_attempts: 5,
        connect_attempts: 3,
        backoff_base_ms: 10,
        backoff_cap_ms: 80,
        no_progress_ms: 20_000,
        poll_ms: 5,
        worker_failure_limit: 2,
        threads_per_shard: Some(1),
    }
}

fn assert_recovered(expected: &[PointOutcome], outcome: &TransportOutcome) {
    assert!(
        outcome.merged.completed,
        "merged sweep complete: {:?}",
        outcome.shards
    );
    assert!(!outcome.degraded, "no shard gave up: {:?}", outcome.shards);
    assert!(outcome.merged.incomplete_points().is_empty());
    assert_bit_identical(expected, &outcome.merged.points);
}

fn total_attempts(outcome: &TransportOutcome) -> usize {
    outcome.shards.iter().map(|r| r.attempts).sum()
}

/// A fault-free run over `k` workers and `k` shards: one attempt per shard,
/// no recovery of any kind, and the local fold's bits.
fn assert_clean_run(plan: &SweepPlan, expected: &[PointOutcome], k: usize) {
    let pool = workers(&format!("clean{k}"), k, clean);
    let outcome = run_distributed(
        plan,
        &tmp_dir(&format!("clean{k}")),
        &fast_cfg(k),
        pool.addrs(),
    )
    .unwrap();
    assert_recovered(expected, &outcome);
    assert!(outcome.dead_workers.is_empty());
    for report in &outcome.shards {
        assert!(report.completed, "{report:?}");
        assert!(
            report.attempts <= 1,
            "clean run needs no retries: {report:?}"
        );
        assert_eq!(report.reassignments, 0, "{report:?}");
        assert_eq!(report.stall_kills, 0, "{report:?}");
        assert_eq!(report.severed, 0, "{report:?}");
        assert_eq!(report.corrupt_frames, 0, "{report:?}");
    }
}

#[test]
fn clean_three_worker_run_is_bit_identical_to_local() {
    let plan = tiny_plan();
    assert_clean_run(&plan, &baseline(&plan), 3);
}

#[test]
fn clean_one_and_two_worker_runs_are_bit_identical_to_local() {
    let plan = tiny_plan();
    let expected = baseline(&plan);
    for k in 1..=2 {
        assert_clean_run(&plan, &expected, k);
    }
}

#[test]
fn worker_killed_at_sampled_journal_byte_offsets_recovers_bit_identical() {
    let plan = tiny_plan();
    let expected = baseline(&plan);

    // Measure the shorter shard journal of a clean 2-shard run, so every
    // sampled kill offset falls inside worker 0's first assignment, whichever
    // shard it takes, and the offsets span header, record interiors and
    // boundaries.
    let probe = tmp_dir("killbyte-probe");
    {
        let pool = workers("killbyte-probe", 2, clean);
        let clean_run = run_distributed(&plan, &probe, &fast_cfg(2), pool.addrs()).unwrap();
        assert_recovered(&expected, &clean_run);
    }
    let journal_len = (0..2)
        .map(|i| {
            let name = ShardSpec::new(i, 2).attempt_journal_name(0);
            std::fs::metadata(probe.join(name))
                .expect("every shard journals a clean first attempt")
                .len()
        })
        .min()
        .unwrap();
    std::fs::remove_dir_all(&probe).ok();
    assert!(journal_len > 64, "probe journal implausibly small");

    // Every-byte coverage is the harness's contract; CI time is not infinite,
    // so sample offsets densely enough to land in the header, at record
    // boundaries and mid-record. Release mode samples twice as hard.
    let samples: u64 = if cfg!(debug_assertions) { 8 } else { 16 };
    for i in 0..samples {
        let offset = i * (journal_len - 1) / (samples - 1);
        let tag = format!("killbyte-{offset}");
        let pool = workers(
            &tag,
            2,
            once_on_worker_0(&format!("journal-append:killbyte@{offset}")),
        );
        let outcome = run_distributed(&plan, &tmp_dir(&tag), &fast_cfg(2), pool.addrs())
            .unwrap_or_else(|e| panic!("run with kill at byte {offset}: {e}"));
        assert_recovered(&expected, &outcome);
        let severed: Vec<_> = outcome.shards.iter().filter(|r| r.severed >= 1).collect();
        assert_eq!(
            severed.len(),
            1,
            "kill at byte {offset} must sever exactly worker 0's shard: {:?}",
            outcome.shards
        );
        assert!(
            severed[0].attempts >= 2,
            "kill at byte {offset}: the severed shard is retried: {:?}",
            outcome.shards
        );
        assert!(
            outcome
                .shards
                .iter()
                .any(|r| r.severed == 0 && r.attempts == 1),
            "kill at byte {offset}: the other shard is untouched: {:?}",
            outcome.shards
        );
    }
}

#[test]
fn hung_worker_is_killed_and_retried_to_a_bit_identical_result() {
    let plan = tiny_plan();
    let expected = baseline(&plan);
    // Worker 0 hangs at its first chunk claim without exiting: only the
    // coordinator's no-progress deadline can take its shard away.
    let pool = workers("hang", 2, once_on_worker_0("chunk-run:hang"));
    let cfg = TransportConfig {
        no_progress_ms: 600,
        ..fast_cfg(2)
    };
    let outcome = run_distributed(&plan, &tmp_dir("hang"), &cfg, pool.addrs()).unwrap();
    assert_recovered(&expected, &outcome);
    assert_eq!(
        outcome.shards.iter().map(|r| r.stall_kills).sum::<usize>(),
        1,
        "the hang must be detected by the no-progress deadline, once: {:?}",
        outcome.shards
    );
    assert_eq!(total_attempts(&outcome), 3, "{:?}", outcome.shards);
}

#[test]
fn injected_journal_io_error_fails_the_assignment_and_retry_recovers() {
    let plan = tiny_plan();
    let expected = baseline(&plan);
    // Worker 0's second journal record fails with an I/O error: its shard
    // ends in `Done(1)` and is retried.
    let pool = workers(
        "journal-err",
        2,
        once_on_worker_0("journal-append:err:hits=2"),
    );
    let outcome =
        run_distributed(&plan, &tmp_dir("journal-err"), &fast_cfg(2), pool.addrs()).unwrap();
    assert_recovered(&expected, &outcome);
    assert_eq!(
        total_attempts(&outcome),
        3,
        "one failed assignment, one retry: {:?}",
        outcome.shards
    );
    for report in &outcome.shards {
        assert_eq!(report.severed, 0, "the worker survives: {report:?}");
        assert_eq!(report.stall_kills, 0, "{report:?}");
    }
}

#[test]
fn corrupted_journal_record_leaves_a_hole_the_coordinator_repairs() {
    let plan = tiny_plan();
    let expected = baseline(&plan);
    // Worker 0 mangles one record's bytes, finishes, and reports `Done(0)` —
    // the exit code lies. Only the coordinator's completeness audit (the
    // checksum rejects the mangled line, leaving a hole) catches it.
    let pool = workers(
        "corrupt-record",
        2,
        once_on_worker_0("journal-append:corrupt"),
    );
    let outcome = run_distributed(
        &plan,
        &tmp_dir("corrupt-record"),
        &fast_cfg(2),
        pool.addrs(),
    )
    .unwrap();
    assert_recovered(&expected, &outcome);
    assert_eq!(
        total_attempts(&outcome),
        3,
        "Done(0) with a hole must count as a failed attempt: {:?}",
        outcome.shards
    );
    assert!(
        outcome.merged.journal_skipped_lines >= 1,
        "the mangled record must have been checksum-rejected"
    );
}

#[test]
fn retry_budget_exhaustion_degrades_gracefully_without_killing_survivors() {
    let plan = tiny_plan();
    let expected = baseline(&plan);
    // One worker, three shards and no second attempt: the shard whose
    // journal append fails gives up, and the other two still finish on the
    // same worker.
    let pool = workers("budget", 1, once_on_worker_0("journal-append:err:hits=2"));
    let cfg = TransportConfig {
        assign_attempts: 1,
        ..fast_cfg(3)
    };
    let outcome = run_distributed(&plan, &tmp_dir("budget"), &cfg, pool.addrs())
        .expect("a shard giving up is not an error");
    assert!(outcome.degraded, "a shard gave up");
    assert!(!outcome.merged.completed);
    assert!(outcome.dead_workers.is_empty(), "the worker survives");
    let gave_up: Vec<_> = outcome.shards.iter().filter(|r| !r.completed).collect();
    assert_eq!(
        gave_up.len(),
        1,
        "exactly one shard gives up: {:?}",
        outcome.shards
    );
    assert_eq!(gave_up[0].attempts, 1, "budget spent: {:?}", gave_up[0]);
    let incomplete = &outcome.merged.incomplete_points();
    assert!(
        !incomplete.is_empty(),
        "the dead shard's unfinished points must be named"
    );

    // Whatever *is* complete must still be bit-identical to the baseline.
    let mut checked = 0;
    for (e, a) in expected.iter().zip(&outcome.merged.points) {
        if incomplete.contains(&e.point.label()) {
            continue;
        }
        assert_bit_identical(std::slice::from_ref(e), std::slice::from_ref(a));
        checked += 1;
    }
    assert!(
        checked < expected.len(),
        "the failed shard owned at least one chunk, so at least one point is short"
    );
}

#[test]
fn crashed_sole_worker_is_restarted_and_the_run_completes() {
    let plan = tiny_plan();
    let expected = baseline(&plan);
    // The only worker dies at its second chunk claim. No other worker can
    // take the shard, so the run completes only if the worker is restarted
    // on its address; the connect budget spans the restart.
    let pool = workers("respawn", 1, once_on_worker_0("chunk-run:kill:hits=2"));
    let cfg = TransportConfig {
        connect_attempts: 5,
        backoff_base_ms: 20,
        backoff_cap_ms: 200,
        worker_failure_limit: 5,
        ..fast_cfg(2)
    };
    let outcome = run_distributed(&plan, &tmp_dir("respawn"), &cfg, pool.addrs()).unwrap();
    assert_recovered(&expected, &outcome);
    assert!(outcome.dead_workers.is_empty());
    assert!(
        outcome.shards.iter().any(|r| r.severed >= 1),
        "the kill must surface as a severed attempt: {:?}",
        outcome.shards
    );
}

#[test]
fn connection_killed_mid_record_is_reassigned() {
    let plan = tiny_plan();
    let expected = baseline(&plan);
    // Worker 0 aborts at exactly byte 137 of its frame stream — a severed
    // connection in the middle of a Data record. The coordinator must see a
    // torn tail, retry, and merge bit-identically.
    let pool = workers("sever", 3, once_on_worker_0("net-write:killbyte@137"));
    let outcome = run_distributed(&plan, &tmp_dir("sever"), &fast_cfg(3), pool.addrs()).unwrap();
    assert_recovered(&expected, &outcome);
    assert!(
        outcome
            .shards
            .iter()
            .any(|r| r.severed >= 1 && r.attempts >= 2),
        "the kill must surface as a severed attempt: {:?}",
        outcome.shards
    );
}

#[test]
fn stalled_heartbeat_is_killed_and_reassigned() {
    let plan = tiny_plan();
    let expected = baseline(&plan);
    // Worker 0's first pump tick sleeps 3000ms — no journal bytes, no
    // heartbeat — while the coordinator's no-progress deadline is 400ms: the
    // assignment must be killed and the shard handed to another worker.
    let pool = workers("stall", 3, once_on_worker_0("net-heartbeat:delay@3000"));
    let cfg = TransportConfig {
        no_progress_ms: 400,
        ..fast_cfg(3)
    };
    let outcome = run_distributed(&plan, &tmp_dir("stall"), &cfg, pool.addrs()).unwrap();
    assert_recovered(&expected, &outcome);
    assert!(
        outcome.shards.iter().any(|r| r.stall_kills >= 1),
        "the stall must trip the no-progress deadline: {:?}",
        outcome.shards
    );
    assert!(
        outcome.shards.iter().any(|r| r.reassignments >= 1),
        "the stalled shard must move to a different worker: {:?}",
        outcome.shards
    );
}

#[test]
fn corrupted_frame_is_dropped_and_the_shard_still_completes() {
    let plan = tiny_plan();
    let expected = baseline(&plan);
    // Worker 0's first frame is bit-flipped in flight. Depending on which
    // bytes the flip lands on, the coordinator sees a checksum-rejected
    // frame (resync, incomplete audit) or a torn tail (sever) — both must
    // end in a clean retry and a bit-identical merge.
    let pool = workers("corrupt", 3, once_on_worker_0("net-write:corrupt"));
    let outcome = run_distributed(&plan, &tmp_dir("corrupt"), &fast_cfg(3), pool.addrs()).unwrap();
    assert_recovered(&expected, &outcome);
    assert!(
        outcome
            .shards
            .iter()
            .any(|r| r.corrupt_frames >= 1 || r.severed >= 1 || r.attempts >= 2),
        "the corruption must leave a visible mark: {:?}",
        outcome.shards
    );
}

#[test]
fn dead_on_arrival_worker_shrinks_the_pool() {
    let plan = tiny_plan();
    let expected = baseline(&plan);
    // Every incarnation of worker 0 aborts before its first accept: every
    // connection to it is refused (or severed in the handshake race). The
    // two survivors absorb all three shards.
    let pool = workers("doa", 3, always_on_worker_0("net-accept:kill"));
    let outcome = run_distributed(&plan, &tmp_dir("doa"), &fast_cfg(3), pool.addrs()).unwrap();
    assert_recovered(&expected, &outcome);
    assert!(
        outcome
            .shards
            .iter()
            .any(|r| r.attempts >= 2 || r.severed >= 1),
        "someone must have tripped over the dead worker: {:?}",
        outcome.shards
    );
}

#[test]
fn exhausted_pool_degrades_to_named_incomplete_points() {
    let plan = tiny_plan();
    // The *only* worker dies before its first accept in every incarnation
    // and the failure limit is 1: every shard must give up without an Err,
    // and the outcome must name the unfinished points instead of silently
    // dropping them.
    let pool = workers("exhaust", 1, always_on_worker_0("net-accept:kill"));
    let cfg = TransportConfig {
        connect_attempts: 2,
        assign_attempts: 3,
        worker_failure_limit: 1,
        ..fast_cfg(3)
    };
    let outcome = run_distributed(&plan, &tmp_dir("exhaust"), &cfg, pool.addrs()).unwrap();
    assert!(!outcome.merged.completed);
    assert!(outcome.degraded, "{:?}", outcome.shards);
    assert!(
        !outcome.merged.incomplete_points().is_empty(),
        "unfinished work must be named"
    );
    assert_eq!(outcome.dead_workers, pool.addrs().to_vec());
    assert!(outcome.shards.iter().all(|r| !r.completed));
}
