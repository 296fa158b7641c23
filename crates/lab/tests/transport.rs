//! The network fault matrix: distributed sweeps over real loopback TCP
//! workers (the `shard_worker` binary in `NCG_SERVE` mode) under injected
//! connection kills, heartbeat stalls and frame corruption must merge to
//! aggregates **bit-identical** to a fault-free single-process run — and a
//! coordinator that outlives its whole worker pool must degrade to named
//! incomplete points instead of erroring.
//!
//! Faults are armed in the *worker* processes via `NCG_FAULT`; this process
//! keeps its own fault table empty, so the tests parallelize freely.

use ncg_lab::orchestrator::{run_sweep, PointOutcome, RunOptions};
use ncg_lab::plan::SweepPlan;
use ncg_lab::scenario::Scenario;
use ncg_lab::transport::{run_distributed, TransportConfig, TransportOutcome};
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

fn tiny_plan() -> SweepPlan {
    let mut plan = SweepPlan::new("transport-matrix");
    plan.scenarios = vec![Scenario::RingLattice { k: 2 }, Scenario::TorusGrid];
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

/// The identity assertion of the whole transport: per-point aggregates from
/// a distributed run carry the same IEEE bit patterns as the local fold.
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

/// A real `shard_worker` process in `NCG_SERVE` mode, bound to an ephemeral
/// loopback port announced on its stdout. Killed on drop.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn spawn(tag: &str, fault: Option<&str>) -> Server {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_shard_worker"));
        cmd.env_remove("NCG_FAULT")
            .env("NCG_SERVE", "127.0.0.1:0")
            .env("NCG_SERVE_HEARTBEAT_MS", "10")
            .env(
                "TMPDIR",
                tmp_dir(&format!("srv-{tag}")).display().to_string(),
            )
            .stdout(Stdio::piped());
        if let Some(fault) = fault {
            cmd.env("NCG_FAULT", fault);
        }
        let mut child = cmd.spawn().expect("spawn shard server");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("announce line");
        let addr = line
            .trim()
            .rsplit(' ')
            .next()
            .expect("announce carries the bound address")
            .to_string();
        assert!(
            line.contains("ncg-shard-server listening on"),
            "unexpected announce: {line:?}"
        );
        Server { child, addr }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_pool(tag: &str, faults: [Option<&str>; 3]) -> (Vec<Server>, Vec<String>) {
    let servers: Vec<Server> = faults
        .iter()
        .enumerate()
        .map(|(i, fault)| Server::spawn(&format!("{tag}{i}"), *fault))
        .collect();
    let addrs = servers.iter().map(|s| s.addr.clone()).collect();
    (servers, addrs)
}

fn fast_cfg() -> TransportConfig {
    TransportConfig {
        shards: 3,
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
    assert!(outcome.merged.incomplete_points.is_empty());
    assert_bit_identical(expected, &outcome.merged.points);
}

#[test]
fn clean_three_worker_run_is_bit_identical_to_local() {
    let plan = tiny_plan();
    let expected = baseline(&plan);
    let (_servers, addrs) = spawn_pool("clean", [None, None, None]);
    let outcome = run_distributed(&plan, &tmp_dir("clean"), &fast_cfg(), &addrs).unwrap();
    assert_recovered(&expected, &outcome);
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
fn connection_killed_mid_record_is_reassigned() {
    let plan = tiny_plan();
    let expected = baseline(&plan);
    // Worker 0 aborts at exactly byte 137 of its frame stream — a severed
    // connection in the middle of a Data record. The coordinator must see a
    // torn tail, retry on a surviving worker, and merge bit-identically.
    let (_servers, addrs) = spawn_pool("sever", [Some("net-write:killbyte@137"), None, None]);
    let outcome = run_distributed(&plan, &tmp_dir("sever"), &fast_cfg(), &addrs).unwrap();
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
    let (_servers, addrs) = spawn_pool("stall", [Some("net-heartbeat:delay@3000"), None, None]);
    let cfg = TransportConfig {
        no_progress_ms: 400,
        ..fast_cfg()
    };
    let outcome = run_distributed(&plan, &tmp_dir("stall"), &cfg, &addrs).unwrap();
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
    let (_servers, addrs) = spawn_pool("corrupt", [Some("net-write:corrupt"), None, None]);
    let outcome = run_distributed(&plan, &tmp_dir("corrupt"), &fast_cfg(), &addrs).unwrap();
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
    // Worker 0 aborts before its first accept: every connection to it is
    // refused (or severed in the handshake race). The two survivors absorb
    // all three shards.
    let (_servers, addrs) = spawn_pool("doa", [Some("net-accept:kill"), None, None]);
    let outcome = run_distributed(&plan, &tmp_dir("doa"), &fast_cfg(), &addrs).unwrap();
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
    // The *only* worker dies before its first accept and the failure limit
    // is 1: every shard must give up without an Err, and the outcome must
    // name the unfinished points instead of silently dropping them.
    let (_servers, addrs) = spawn_pool("exhaust", [Some("net-accept:kill"), None, None]);
    let cfg = TransportConfig {
        connect_attempts: 2,
        assign_attempts: 3,
        worker_failure_limit: 1,
        ..fast_cfg()
    };
    let outcome = run_distributed(&plan, &tmp_dir("exhaust"), &cfg, &addrs[..1]).unwrap();
    assert!(!outcome.merged.completed);
    assert!(outcome.degraded, "{:?}", outcome.shards);
    assert!(
        !outcome.merged.incomplete_points.is_empty(),
        "unfinished work must be named"
    );
    assert_eq!(outcome.dead_workers, vec![addrs[0].clone()]);
    assert!(outcome.shards.iter().all(|r| !r.completed));
}
