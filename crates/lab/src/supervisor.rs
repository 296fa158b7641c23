//! The fault-tolerant shard runner: spawns one child process per shard,
//! watches liveness through journal/telemetry growth, and applies
//! retry-with-exponential-backoff on crash, timeout-and-kill on hang, and a
//! bounded retry budget with graceful degradation — a shard that exhausts
//! its budget is reported (its incomplete points named in the merged
//! outcome), never allowed to abort the surviving shards.
//!
//! The worker protocol is environment-based: the supervisor writes the plan
//! as a [`SweepPlan::to_spec_string`] file and hands each child its shard
//! identity, journal/telemetry paths and the expected plan hash via
//! `NCG_SHARD_*` variables (see [`ShardRuntime::configure`]); the child
//! calls [`worker_main`], which re-derives the plan, *verifies the plan
//! hash* (a different build or an altered spec dies here instead of
//! corrupting the merge), arms any `NCG_FAULT` specs, and runs its shard of the sweep
//! through the ordinary orchestrator. Crash recovery is nothing special:
//! a retried worker simply resumes its own shard journal, exactly like a
//! single-process kill/resume.
//!
//! Liveness is byte growth of the shard's journal + telemetry files —
//! observable from outside with no extra channel, and it cannot be faked by
//! a worker stuck in a loop that produces no durable progress. A worker that
//! exits 0 is still verified against its expected chunk keys before being
//! believed (a fault-corrupted record leaves a hole an exit code would
//! hide).

use crate::plan::SweepPlan;
use crate::shard::{merge_shard_journals, shard_chunk_keys, MergedSweep, ShardSpec};
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::{Duration, Instant};

/// Knobs of the supervision loop.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Number of shard worker processes.
    pub shards: usize,
    /// Attempts per shard (first launch + retries) before giving up on it.
    pub max_attempts: usize,
    /// Backoff before retry attempt `k` is `base · 2^(k-1)` capped below,
    /// then jittered into the upper half of the window by
    /// [`backoff_with_jitter`] so crashed shards don't retry in lockstep.
    pub backoff_base_ms: u64,
    /// Upper bound of the exponential backoff.
    pub backoff_cap_ms: u64,
    /// A running worker whose journal + telemetry files stop growing for
    /// this long is declared hung, killed, and retried.
    pub stall_timeout_ms: u64,
    /// Poll interval of the supervision loop.
    pub poll_ms: u64,
    /// Worker threads per shard process (`None` = each worker decides from
    /// its own core count).
    pub threads_per_shard: Option<usize>,
}

/// Retry backoff for 1-based `attempt`: exponential `base·2^(a−1)` capped at
/// `cap_ms`, with deterministic decorrelating jitter drawn from an FNV-1a
/// hash of `(salt, attempt)` into `[exp/2, exp]`. Without the jitter, k
/// shards crashed by the same cause (a yanked volume, a killed worker box)
/// retry in lockstep and hammer the recovering resource together; salting by
/// shard index spreads them across half the exponential window while staying
/// reproducible run-to-run.
pub fn backoff_with_jitter(base_ms: u64, cap_ms: u64, attempt: usize, salt: u64) -> u64 {
    let exp = base_ms
        .saturating_mul(1u64 << attempt.saturating_sub(1).min(20))
        .min(cap_ms);
    if exp <= 1 {
        return exp;
    }
    let mut seed = [0u8; 16];
    seed[..8].copy_from_slice(&salt.to_le_bytes());
    seed[8..].copy_from_slice(&(attempt as u64).to_le_bytes());
    let lo = exp / 2;
    lo + crate::plan::fnv1a(&seed) % (exp - lo + 1)
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            shards: 2,
            max_attempts: 3,
            backoff_base_ms: 100,
            backoff_cap_ms: 2_000,
            stall_timeout_ms: 30_000,
            poll_ms: 25,
            threads_per_shard: None,
        }
    }
}

/// Everything a shard worker process needs to run one attempt, handed to the
/// launcher so it can decorate the [`Command`] (e.g. inject an `NCG_FAULT`
/// spec on a chosen attempt) before the supervisor spawns it.
#[derive(Debug, Clone)]
pub struct ShardRuntime {
    /// The shard this attempt executes.
    pub shard: ShardSpec,
    /// Zero-based attempt number (0 = first launch).
    pub attempt: usize,
    /// Path of the plan spec file.
    pub plan_path: PathBuf,
    /// Expected plan hash — the worker refuses a plan that re-derives
    /// differently on its machine.
    pub plan_hash: u64,
    /// The shard's journal path.
    pub journal: PathBuf,
    /// The shard's telemetry path (liveness heartbeat).
    pub telemetry: PathBuf,
    /// Worker threads (`None` = worker decides).
    pub threads: Option<usize>,
}

impl ShardRuntime {
    /// Folds the worker protocol into `cmd`'s environment. The launcher may
    /// add more (fault specs); these keys always win.
    pub fn configure(&self, cmd: &mut Command) {
        cmd.env("NCG_SHARD_WORKER", "1")
            .env("NCG_SHARD_PLAN", &self.plan_path)
            .env("NCG_SHARD_PLAN_HASH", format!("{:016x}", self.plan_hash))
            .env("NCG_SHARD_INDEX", self.shard.index.to_string())
            .env("NCG_SHARD_COUNT", self.shard.count.to_string())
            .env("NCG_SHARD_JOURNAL", &self.journal)
            .env("NCG_SHARD_TELEMETRY", &self.telemetry);
        match self.threads {
            Some(t) => {
                cmd.env("NCG_SHARD_THREADS", t.to_string());
            }
            None => {
                cmd.env_remove("NCG_SHARD_THREADS");
            }
        }
    }
}

/// Post-mortem of one shard's supervision.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// The shard.
    pub shard: usize,
    /// Attempts launched (1 = clean first run).
    pub attempts: usize,
    /// True once the shard's journal holds every chunk it owns.
    pub completed: bool,
    /// Worker exits that were not clean completions (crashes, injected
    /// kills, exit-0-but-incomplete).
    pub crashes: usize,
    /// Workers killed by the no-progress deadline.
    pub hang_kills: usize,
}

/// The merged result of a supervised sharded sweep.
#[derive(Debug)]
pub struct SupervisedOutcome {
    /// Chunk-ordered merged aggregates — bit-identical to a fault-free
    /// single-process run when `merged.completed`.
    pub merged: MergedSweep,
    /// Per-shard supervision reports.
    pub shards: Vec<ShardReport>,
    /// True if any shard exhausted its retry budget (its unfinished points
    /// are listed in `merged.incomplete_points`).
    pub degraded: bool,
}

/// Per-shard supervision state.
struct ShardState {
    rt: ShardRuntime,
    expected: Vec<(u64, usize)>,
    child: Option<Child>,
    /// Journal + telemetry bytes at the last observed progress.
    last_bytes: u64,
    last_progress: Instant,
    /// Earliest instant the next attempt may launch (backoff).
    gate: Instant,
    attempts: usize,
    crashes: usize,
    hang_kills: usize,
    completed: bool,
    gave_up: bool,
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// True once the shard's journal holds every chunk key the partition assigns
/// it — the completeness check applied to every clean worker exit (and to a
/// shard's final state). An unreadable or foreign journal is simply
/// incomplete, never a supervisor error: the retry path owns repair.
fn shard_journal_complete(state: &ShardState) -> bool {
    match crate::journal::load_journal(&state.rt.journal, state.rt.plan_hash) {
        Ok(contents) => contents.covers(&state.expected),
        Err(_) => state.expected.is_empty() && !state.rt.journal.exists(),
    }
}

/// Runs `plan` as `cfg.shards` supervised worker processes in `dir`, merging
/// the shard journals into single-process-identical aggregates at the end.
///
/// `launch` builds the [`Command`] for one attempt — typically the current
/// executable re-entered in worker mode, or a dedicated worker binary; the
/// fault matrix uses it to inject `NCG_FAULT` on chosen attempts. The
/// supervisor applies [`ShardRuntime::configure`] after `launch` returns, so
/// the protocol environment always wins.
///
/// Never fails because a shard failed: a shard that exhausts its retry
/// budget degrades the outcome (`degraded`, `merged.incomplete_points`)
/// instead of erroring. Errors are reserved for the supervisor's own I/O
/// (plan spec unwritable, merge integrity violations).
pub fn supervise(
    plan: &SweepPlan,
    dir: &Path,
    cfg: &SupervisorConfig,
    launch: impl Fn(&ShardRuntime) -> Command,
) -> io::Result<SupervisedOutcome> {
    assert!(
        cfg.shards > 0,
        "a supervised sweep needs at least one shard"
    );
    assert!(cfg.max_attempts > 0, "at least one attempt per shard");
    std::fs::create_dir_all(dir)?;
    let plan_path = dir.join("plan.spec");
    std::fs::write(&plan_path, plan.to_spec_string())?;
    let plan_hash = plan.plan_hash();

    let now = Instant::now();
    let mut states: Vec<ShardState> = (0..cfg.shards)
        .map(|index| {
            let shard = ShardSpec::new(index, cfg.shards);
            ShardState {
                expected: shard_chunk_keys(plan, shard),
                rt: ShardRuntime {
                    shard,
                    attempt: 0,
                    plan_path: plan_path.clone(),
                    plan_hash,
                    journal: dir.join(shard.journal_name()),
                    telemetry: dir.join(shard.telemetry_name()),
                    threads: cfg.threads_per_shard,
                },
                child: None,
                last_bytes: 0,
                last_progress: now,
                gate: now,
                attempts: 0,
                crashes: 0,
                hang_kills: 0,
                completed: false,
                gave_up: false,
            }
        })
        .collect();

    let stall = Duration::from_millis(cfg.stall_timeout_ms);
    loop {
        let mut settled = true;
        for state in states.iter_mut() {
            if state.completed || state.gave_up {
                continue;
            }
            settled = false;

            // Reap or health-check a running worker.
            if let Some(child) = state.child.as_mut() {
                match child.try_wait()? {
                    Some(status) => {
                        state.child = None;
                        // An exit code proves nothing by itself: believe the
                        // journal. (A fault-corrupted record makes a worker
                        // exit 0 with a hole in its shard.)
                        if status.success() && shard_journal_complete(state) {
                            state.completed = true;
                        } else {
                            state.crashes += 1;
                            eprintln!(
                                "supervisor: shard {} attempt {} died ({status}); {}",
                                state.rt.shard.index,
                                state.attempts,
                                if state.attempts < cfg.max_attempts {
                                    "will retry"
                                } else {
                                    "retry budget exhausted"
                                },
                            );
                            if state.attempts >= cfg.max_attempts {
                                state.gave_up = true;
                            } else {
                                let backoff = backoff_with_jitter(
                                    cfg.backoff_base_ms,
                                    cfg.backoff_cap_ms,
                                    state.attempts,
                                    state.rt.shard.index as u64,
                                );
                                state.gate = Instant::now() + Duration::from_millis(backoff);
                            }
                        }
                    }
                    None => {
                        let bytes = file_len(&state.rt.journal) + file_len(&state.rt.telemetry);
                        if bytes > state.last_bytes {
                            state.last_bytes = bytes;
                            state.last_progress = Instant::now();
                        } else if state.last_progress.elapsed() >= stall {
                            // Hung: no durable progress within the deadline.
                            eprintln!(
                                "supervisor: shard {} attempt {} made no progress for \
                                 {}ms; killing",
                                state.rt.shard.index, state.attempts, cfg.stall_timeout_ms,
                            );
                            child.kill()?;
                            child.wait()?;
                            state.child = None;
                            state.hang_kills += 1;
                            state.crashes += 1;
                            if state.attempts >= cfg.max_attempts {
                                state.gave_up = true;
                            } else {
                                let backoff = backoff_with_jitter(
                                    cfg.backoff_base_ms,
                                    cfg.backoff_cap_ms,
                                    state.attempts,
                                    state.rt.shard.index as u64,
                                );
                                state.gate = Instant::now() + Duration::from_millis(backoff);
                            }
                        }
                    }
                }
                continue;
            }

            // Launch the next attempt once the backoff gate opens.
            if Instant::now() >= state.gate {
                state.rt.attempt = state.attempts;
                state.attempts += 1;
                let mut cmd = launch(&state.rt);
                state.rt.configure(&mut cmd);
                state.child = Some(cmd.spawn()?);
                state.last_bytes = file_len(&state.rt.journal) + file_len(&state.rt.telemetry);
                state.last_progress = Instant::now();
            }
        }
        if settled {
            break;
        }
        std::thread::sleep(Duration::from_millis(cfg.poll_ms));
    }

    let journals: Vec<PathBuf> = states.iter().map(|s| s.rt.journal.clone()).collect();
    let merged = merge_shard_journals(plan, cfg.shards, &journals)?;
    let degraded = states.iter().any(|s| s.gave_up);
    let shards = states
        .into_iter()
        .map(|s| ShardReport {
            shard: s.rt.shard.index,
            attempts: s.attempts,
            completed: s.completed,
            crashes: s.crashes,
            hang_kills: s.hang_kills,
        })
        .collect();
    Ok(SupervisedOutcome {
        merged,
        shards,
        degraded,
    })
}

/// Entry point of a shard worker process: reads the `NCG_SHARD_*` protocol
/// environment, re-derives the plan from the spec file, verifies the plan
/// hash, arms `NCG_FAULT` specs if present, and runs its shard through the
/// ordinary orchestrator (resuming its own journal if one exists). Returns
/// the process exit code.
///
/// Exit codes: `0` — shard complete; `1` — sweep I/O error (retryable);
/// `2` — protocol/configuration error; `3` — plan-hash mismatch (the spec
/// re-derives a different grid — a different build or an altered spec —
/// so a retry cannot help).
pub fn worker_main() -> i32 {
    if let Err(e) = crate::faultpoint::arm_from_env() {
        eprintln!("shard worker: {e}");
        return 2;
    }
    let var = |key: &str| {
        std::env::var(key).map_err(|_| format!("shard worker: missing or invalid ${key}"))
    };
    let parse_usize = |key: &str| {
        var(key).and_then(|v| {
            v.parse::<usize>()
                .map_err(|_| format!("shard worker: bad ${key}: {v:?}"))
        })
    };
    let run = || -> Result<i32, String> {
        let plan_path = var("NCG_SHARD_PLAN")?;
        let spec = std::fs::read_to_string(&plan_path)
            .map_err(|e| format!("shard worker: cannot read plan spec {plan_path}: {e}"))?;
        let plan = SweepPlan::parse_spec(&spec).map_err(|e| format!("shard worker: {e}"))?;
        let expected_hash = var("NCG_SHARD_PLAN_HASH")?;
        let index = parse_usize("NCG_SHARD_INDEX")?;
        let count = parse_usize("NCG_SHARD_COUNT")?;
        if index >= count || count == 0 {
            return Err(format!("shard worker: bad shard {index} of {count}"));
        }
        let journal = PathBuf::from(var("NCG_SHARD_JOURNAL")?);
        let telemetry = PathBuf::from(var("NCG_SHARD_TELEMETRY")?);
        let threads = match std::env::var("NCG_SHARD_THREADS") {
            Ok(v) => Some(
                v.parse::<usize>()
                    .map_err(|_| format!("shard worker: bad $NCG_SHARD_THREADS: {v:?}"))?,
            ),
            Err(_) => None,
        };
        let actual_hash = format!("{:016x}", plan.plan_hash());
        if actual_hash != expected_hash {
            eprintln!(
                "shard worker: plan hash mismatch — supervisor expects {expected_hash}, this \
                 worker derives {actual_hash} (different build or altered spec?); refusing"
            );
            return Ok(3);
        }
        let opts = crate::orchestrator::RunOptions {
            threads,
            journal: Some(journal.clone()),
            resume: journal.exists(),
            stop_after_chunks: None,
            telemetry: Some(telemetry),
            heartbeat: false,
            shard: Some(ShardSpec::new(index, count)),
        };
        match crate::orchestrator::run_sweep(&plan, &opts) {
            Ok(out) if out.completed => Ok(0),
            Ok(_) => {
                eprintln!("shard worker: shard {index} of {count} finished incomplete");
                Ok(1)
            }
            Err(e) => {
                eprintln!("shard worker: sweep failed: {e}");
                Ok(1)
            }
        }
    };
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{msg}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_configures_the_worker_protocol_env() {
        let rt = ShardRuntime {
            shard: ShardSpec::new(1, 3),
            attempt: 2,
            plan_path: PathBuf::from("/tmp/plan.spec"),
            plan_hash: 0xabcd,
            journal: PathBuf::from("/tmp/j.jsonl"),
            telemetry: PathBuf::from("/tmp/t.jsonl"),
            threads: Some(2),
        };
        let mut cmd = Command::new("true");
        rt.configure(&mut cmd);
        let env: std::collections::HashMap<_, _> = cmd
            .get_envs()
            .filter_map(|(k, v)| Some((k.to_os_string(), v?.to_os_string())))
            .collect();
        assert_eq!(env["NCG_SHARD_WORKER".as_ref() as &std::ffi::OsStr], "1");
        assert_eq!(env["NCG_SHARD_INDEX".as_ref() as &std::ffi::OsStr], "1");
        assert_eq!(env["NCG_SHARD_COUNT".as_ref() as &std::ffi::OsStr], "3");
        assert_eq!(
            env["NCG_SHARD_PLAN_HASH".as_ref() as &std::ffi::OsStr],
            "000000000000abcd"
        );
        assert_eq!(env["NCG_SHARD_THREADS".as_ref() as &std::ffi::OsStr], "2");
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = SupervisorConfig::default();
        assert!(cfg.shards >= 1);
        assert!(cfg.max_attempts >= 1);
        assert!(cfg.backoff_base_ms <= cfg.backoff_cap_ms);
    }

    #[test]
    fn backoff_jitter_stays_inside_the_exponential_window() {
        for attempt in 1..=10 {
            let exp = 100u64.saturating_mul(1 << (attempt - 1).min(20)).min(2_000);
            for salt in 0..32 {
                let b = backoff_with_jitter(100, 2_000, attempt, salt);
                assert!(
                    b >= exp / 2 && b <= exp,
                    "attempt {attempt} salt {salt}: {b} outside [{}, {exp}]",
                    exp / 2
                );
            }
        }
        // Degenerate knobs stay safe.
        assert_eq!(backoff_with_jitter(0, 2_000, 3, 7), 0);
        assert!(backoff_with_jitter(100, 50, 10, 1) <= 50, "cap holds");
        assert!(
            backoff_with_jitter(100, 2_000, 10_000, 1) <= 2_000,
            "huge attempt"
        );
    }

    #[test]
    fn backoff_jitter_decorrelates_salts_deterministically() {
        let spread: std::collections::HashSet<u64> = (0..16)
            .map(|salt| backoff_with_jitter(100, 2_000, 4, salt))
            .collect();
        assert!(
            spread.len() > 4,
            "16 shards must not retry in lockstep: {spread:?}"
        );
        assert_eq!(
            backoff_with_jitter(100, 2_000, 4, 9),
            backoff_with_jitter(100, 2_000, 4, 9),
            "same inputs, same gate — reproducible supervision"
        );
    }
}
