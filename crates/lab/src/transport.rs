//! Shard transport: a tiny length-prefixed, checksummed TCP protocol
//! (std-only) and the one runtime every sharded sweep runs on, whether its
//! workers are remote machines or [`crate::supervisor::LocalWorkers`] on
//! loopback.
//!
//! A **coordinator** ([`run_distributed`]) dispatches shard assignments —
//! the plan as a [`SweepPlan::to_spec_string`] spec plus shard index/of and
//! the expected plan hash — to accept-loop **workers** ([`serve`]).
//! Each worker re-derives the plan from the spec, *refuses on plan-hash
//! mismatch* (a different build or an altered spec is caught here, not at
//! merge time), runs its shard through the ordinary orchestrator into a local
//! shard journal, and streams the raw journal bytes back as they are
//! appended. The coordinator persists each attempt's stream into its own
//! per-shard journal file and merges every file as
//! [`crate::shard::merge_shard_journals`] does, through one chunk ledger that
//! also yields its plan hash and audit keys — so a distributed run is proven
//! bit-identical to a single-process run by the same machinery, and
//! replayed records from retried or reassigned shards are deduplicated by
//! the merge's equal-payload rule.
//!
//! # Wire format
//!
//! Every frame is `magic(4) | kind(1) | len(4 LE) | payload | fnv1a(8 LE)`,
//! the checksum taken over `kind | len | payload`. The reader rejects any
//! frame whose checksum, kind or length is wrong and **resyncs** by hunting
//! for the next magic — a corrupted frame costs its own bytes, never the
//! connection. Frame kinds: `Assign` (spec + shard identity + plan hash),
//! `Refuse` (worker rejects the assignment, with a reason), `Data` (raw
//! journal bytes), `Heartbeat` (cumulative journal bytes sent — the
//! byte-growth liveness signal), `Done` (worker's exit code for the
//! assignment).
//!
//! # Robustness model
//!
//! * **Connect**: exponential backoff with decorrelating jitter
//!   ([`backoff_with_jitter`]) and a bounded retry budget.
//! * **Liveness**: durable progress, measured as byte growth — a
//!   connection that delivers no *new* journal bytes (via `Data` or a
//!   `Heartbeat` high-water mark) within the no-progress deadline is killed
//!   and the shard is **reassigned**, preferring a different worker.
//! * **Integrity**: per-frame FNV-1a checksums catch corruption in flight;
//!   the journal's own per-record checksums catch anything that slips
//!   through to disk; a worker's `Done(0)` is never believed without the
//!   coordinator auditing the received journal against the shard's expected
//!   chunk keys.
//! * **Degradation**: a worker accumulating consecutive failures is dropped
//!   from the pool; survivors absorb its shards. A shard that exhausts its
//!   assignment budget (or outlives every worker) degrades to points named
//!   by the merged outcome's `incomplete_points()`; the surviving shards
//!   finish.
//!
//! The transport paths are threaded through the [`crate::faultpoint`]
//! harness (`net-accept`, `net-read`, `net-write`, `net-heartbeat`) with the
//! usual discipline — each hook is a single relaxed atomic load until a
//! fault table is armed — so the network fault matrix can sever connections
//! mid-record, delay heartbeats past the deadline, and corrupt frames at
//! exact byte offsets.

use crate::faultpoint;
use crate::orchestrator::{ChunkLedger, SweepOutcome};
use crate::plan::{fnv1a, SweepPlan};
use crate::shard::{merge_into, ShardSpec};
use crate::telemetry::TelemetryWriter;
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Frame magic: `NCGL`. A reader hunting for a frame boundary scans for
/// these four bytes.
pub const MAGIC: [u8; 4] = *b"NCGL";

/// Upper bound on a frame payload. A corrupted length field must never make
/// the reader wait on (or allocate) gigabytes; anything larger is treated as
/// corruption and resynced past.
pub const MAX_FRAME: usize = 1 << 20;

/// `magic | kind | len` — the fixed prelude of every frame.
const HEADER_LEN: usize = 4 + 1 + 4;

/// Payload bytes per `Data` frame when streaming a journal.
const DATA_CHUNK: usize = 64 * 1024;

const KIND_ASSIGN: u8 = 1;
const KIND_REFUSE: u8 = 2;
const KIND_DATA: u8 = 3;
const KIND_HEARTBEAT: u8 = 4;
const KIND_DONE: u8 = 5;

/// One protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Coordinator → worker: run this shard of this plan.
    Assign {
        /// The plan hash the worker must re-derive from `spec` (a mismatch —
        /// a different build or an altered spec — is refused, not run).
        plan_hash: u64,
        /// Shard index, `0 ..= shard_count - 1`.
        shard_index: u32,
        /// Total shards of the sweep.
        shard_count: u32,
        /// Worker threads for the shard (`0` = the worker decides).
        threads: u32,
        /// The plan as a [`SweepPlan::to_spec_string`] spec.
        spec: String,
    },
    /// Worker → coordinator: the assignment is rejected (bad spec, hash
    /// mismatch, invalid shard identity).
    Refuse {
        /// Human-readable reason, logged by the coordinator.
        reason: String,
    },
    /// Worker → coordinator: raw bytes appended to the shard journal.
    Data {
        /// The journal bytes, in file order.
        bytes: Vec<u8>,
    },
    /// Worker → coordinator: liveness, carrying the cumulative journal bytes
    /// streamed so far (the byte-growth progress signal).
    Heartbeat {
        /// Total journal bytes the worker has sent.
        journal_bytes: u64,
    },
    /// Worker → coordinator: the assignment finished with this exit code
    /// (`0` = shard complete; the coordinator still audits the journal).
    Done {
        /// Worker exit code for the assignment.
        code: u32,
    },
}

fn encode_frame(frame: &Frame) -> Vec<u8> {
    let (kind, payload): (u8, Vec<u8>) = match frame {
        Frame::Assign {
            plan_hash,
            shard_index,
            shard_count,
            threads,
            spec,
        } => {
            let mut p = Vec::with_capacity(20 + spec.len());
            p.extend_from_slice(&plan_hash.to_le_bytes());
            p.extend_from_slice(&shard_index.to_le_bytes());
            p.extend_from_slice(&shard_count.to_le_bytes());
            p.extend_from_slice(&threads.to_le_bytes());
            p.extend_from_slice(spec.as_bytes());
            (KIND_ASSIGN, p)
        }
        Frame::Refuse { reason } => (KIND_REFUSE, reason.as_bytes().to_vec()),
        Frame::Data { bytes } => (KIND_DATA, bytes.clone()),
        Frame::Heartbeat { journal_bytes } => {
            (KIND_HEARTBEAT, journal_bytes.to_le_bytes().to_vec())
        }
        Frame::Done { code } => (KIND_DONE, code.to_le_bytes().to_vec()),
    };
    debug_assert!(payload.len() <= MAX_FRAME);
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len() + 8);
    buf.extend_from_slice(&MAGIC);
    buf.push(kind);
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&payload);
    let ck = fnv1a(&buf[4..]);
    buf.extend_from_slice(&ck.to_le_bytes());
    buf
}

fn decode_frame(kind: u8, payload: &[u8]) -> Option<Frame> {
    let u32_at = |at: usize| -> Option<u32> {
        Some(u32::from_le_bytes(
            payload.get(at..at + 4)?.try_into().ok()?,
        ))
    };
    match kind {
        KIND_ASSIGN => {
            let plan_hash = u64::from_le_bytes(payload.get(..8)?.try_into().ok()?);
            Some(Frame::Assign {
                plan_hash,
                shard_index: u32_at(8)?,
                shard_count: u32_at(12)?,
                threads: u32_at(16)?,
                spec: String::from_utf8(payload.get(20..)?.to_vec()).ok()?,
            })
        }
        KIND_REFUSE => Some(Frame::Refuse {
            reason: String::from_utf8(payload.to_vec()).ok()?,
        }),
        KIND_DATA => Some(Frame::Data {
            bytes: payload.to_vec(),
        }),
        KIND_HEARTBEAT => Some(Frame::Heartbeat {
            journal_bytes: u64::from_le_bytes(payload.try_into().ok()?),
        }),
        KIND_DONE => Some(Frame::Done {
            code: u32::from_le_bytes(payload.try_into().ok()?),
        }),
        _ => None,
    }
}

/// Writes one frame through the `net-write` fault point (injectable I/O
/// errors, in-flight corruption, and kill-at-an-exact-byte-offset — a sever
/// mid-record) and flushes it.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    faultpoint::io_check("net-write")?;
    let mut buf = encode_frame(frame);
    faultpoint::mangle("net-write", &mut buf);
    faultpoint::write_all("net-write", w, &buf)?;
    w.flush()
}

/// Buffered frame reader with **reject-and-resync**: a frame that fails its
/// checksum, carries an unknown kind, an oversize length, or an undecodable
/// payload is counted in [`FrameReader::corrupt_frames`] and skipped by
/// hunting for the next magic — corruption costs frames, never the
/// connection. `WouldBlock`/`TimedOut` errors from a read timeout pass
/// through so the caller can run its liveness deadline between polls.
pub struct FrameReader<R: Read> {
    inner: R,
    buf: Vec<u8>,
    /// Frames rejected by checksum/kind/length/decode validation.
    pub corrupt_frames: usize,
    /// Bytes discarded while hunting for a frame boundary (including a torn
    /// trailing frame at EOF — a connection severed mid-record).
    pub resync_bytes: u64,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a byte stream.
    pub fn new(inner: R) -> FrameReader<R> {
        FrameReader {
            inner,
            buf: Vec::new(),
            corrupt_frames: 0,
            resync_bytes: 0,
        }
    }

    /// Reads the next intact frame. `Ok(None)` is end-of-stream (a torn
    /// trailing frame is counted into `resync_bytes`, never returned).
    pub fn read_frame(&mut self) -> io::Result<Option<Frame>> {
        loop {
            // Hunt for the frame boundary: discard garbage before the magic.
            match self.buf.windows(4).position(|w| w == MAGIC) {
                Some(0) => {}
                Some(at) => {
                    self.resync_bytes += at as u64;
                    self.buf.drain(..at);
                }
                None => {
                    // Keep up to 3 trailing bytes — a magic prefix may
                    // straddle the next read.
                    if self.buf.len() > 3 {
                        let drop = self.buf.len() - 3;
                        self.resync_bytes += drop as u64;
                        self.buf.drain(..drop);
                    }
                    if !self.fill()? {
                        return Ok(self.torn_tail());
                    }
                    continue;
                }
            }
            if self.buf.len() < HEADER_LEN {
                if !self.fill()? {
                    return Ok(self.torn_tail());
                }
                continue;
            }
            let kind = self.buf[4];
            let len = u32::from_le_bytes(self.buf[5..9].try_into().expect("4 bytes")) as usize;
            if !(KIND_ASSIGN..=KIND_DONE).contains(&kind) || len > MAX_FRAME {
                self.reject();
                continue;
            }
            let total = HEADER_LEN + len + 8;
            if self.buf.len() < total {
                if !self.fill()? {
                    return Ok(self.torn_tail());
                }
                continue;
            }
            let expected =
                u64::from_le_bytes(self.buf[total - 8..total].try_into().expect("8 bytes"));
            if fnv1a(&self.buf[4..HEADER_LEN + len]) != expected {
                self.reject();
                continue;
            }
            match decode_frame(kind, &self.buf[HEADER_LEN..HEADER_LEN + len]) {
                Some(frame) => {
                    self.buf.drain(..total);
                    return Ok(Some(frame));
                }
                None => self.reject(),
            }
        }
    }

    /// Rejects the bytes at the head of the buffer as a corrupt frame: drop
    /// one byte so the boundary hunt moves past this magic, and recount.
    fn reject(&mut self) {
        self.corrupt_frames += 1;
        self.resync_bytes += 1;
        self.buf.drain(..1);
    }

    fn torn_tail(&mut self) -> Option<Frame> {
        if !self.buf.is_empty() {
            self.resync_bytes += self.buf.len() as u64;
            self.buf.clear();
        }
        None
    }

    /// Pulls more bytes from the stream; `Ok(false)` at EOF. Goes through
    /// the `net-read` fault point.
    fn fill(&mut self) -> io::Result<bool> {
        faultpoint::io_check("net-read")?;
        let mut chunk = [0u8; 16 * 1024];
        let n = self.inner.read(&mut chunk)?;
        if n == 0 {
            return Ok(false);
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(true)
    }
}

// ---------------------------------------------------------------------------
// Worker side: the accept loop.
// ---------------------------------------------------------------------------

/// Knobs of a shard server ([`serve`]).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Pump tick: how often the worker streams new journal bytes and a
    /// heartbeat back to the coordinator.
    pub heartbeat_ms: u64,
    /// Directory the worker's local shard journals are written to.
    pub workdir: PathBuf,
    /// Stop after this many accepted connections (`None` = serve forever);
    /// used by in-process tests.
    pub max_assignments: Option<usize>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            heartbeat_ms: 25,
            workdir: std::env::temp_dir().join(format!("ncg-shard-server-{}", std::process::id())),
            max_assignments: None,
        }
    }
}

/// Runs the shard-server accept loop on an already-bound listener: one
/// assignment per connection, handled to completion before the next accept.
/// A failed assignment (severed connection, refused plan) is logged and the
/// loop continues — a worker survives its coordinator.
///
/// The `net-accept` fault point fires before and after each accept, so the
/// matrix can kill a worker pre-assignment or make it drop fresh
/// connections.
pub fn serve(listener: &TcpListener, opts: &ServeOptions) -> io::Result<()> {
    std::fs::create_dir_all(&opts.workdir)?;
    let mut served = 0usize;
    loop {
        if let Some(max) = opts.max_assignments {
            if served >= max {
                return Ok(());
            }
        }
        faultpoint::trip("net-accept");
        let (stream, peer) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(e) => {
                eprintln!("shard server: accept failed: {e}");
                continue;
            }
        };
        served += 1;
        if let Err(e) = faultpoint::io_check("net-accept") {
            eprintln!("shard server: dropping connection from {peer}: {e}");
            continue;
        }
        if let Err(e) = handle_assignment(stream, opts) {
            eprintln!("shard server: assignment from {peer} failed: {e}");
        }
    }
}

/// The line a shard server prints on stdout once it is bound, followed by the
/// bound address. It carries the real port when the bind address asks for
/// port 0, which is how whoever spawned the server learns where it listens.
pub const ANNOUNCE: &str = "ncg-shard-server listening on ";

/// Entry point of a shard-server process: arms `NCG_FAULT`, binds `bind`,
/// prints [`ANNOUNCE`] followed by the bound address, and runs [`serve`]
/// with the default [`ServeOptions`]. Returns the process exit code: `2` for
/// a malformed fault spec or a failed bind, `1` if the accept loop fails.
pub fn serve_main(bind: &str) -> i32 {
    if let Err(e) = faultpoint::arm_from_env() {
        eprintln!("shard server: {e}");
        return 2;
    }
    let listener = match TcpListener::bind(bind) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("shard server: cannot bind {bind}: {e}");
            return 2;
        }
    };
    let addr = listener
        .local_addr()
        .map_or_else(|_| bind.to_string(), |a| a.to_string());
    // Flush: the accept loop below never returns.
    println!("{ANNOUNCE}{addr}");
    let _ = io::stdout().flush();
    match serve(&listener, &ServeOptions::default()) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("shard server: {e}");
            1
        }
    }
}

fn refuse<W: Write>(writer: &mut W, reason: String) -> io::Result<()> {
    eprintln!("shard server: refusing assignment: {reason}");
    write_frame(writer, &Frame::Refuse { reason })
}

/// Handles one connection: read the `Assign`, validate it (plan spec, plan
/// hash, shard identity — each failure is a `Refuse`, not a dead socket),
/// run the shard locally through the ordinary orchestrator, and pump journal
/// bytes + heartbeats back until the run finishes, ending with `Done`.
fn handle_assignment(stream: TcpStream, opts: &ServeOptions) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    let mut reader = FrameReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let Some(frame) = reader.read_frame()? else {
        return Ok(()); // peer connected and went away
    };
    let Frame::Assign {
        plan_hash,
        shard_index,
        shard_count,
        threads,
        spec,
    } = frame
    else {
        return refuse(&mut writer, "first frame must be an assignment".into());
    };
    let plan = match SweepPlan::parse_spec(&spec) {
        Ok(plan) => plan,
        Err(e) => return refuse(&mut writer, format!("plan spec unreadable: {e}")),
    };
    // The run takes this ledger, so the plan is flattened once per assignment.
    let ledger = ChunkLedger::new(&plan);
    let derived = ledger.plan_hash;
    if derived != plan_hash {
        return refuse(
            &mut writer,
            format!(
                "plan hash mismatch — coordinator expects {plan_hash:016x}, this worker \
                 derives {derived:016x} (different build or altered spec?)"
            ),
        );
    }
    if shard_count == 0 || shard_index >= shard_count {
        return refuse(
            &mut writer,
            format!("bad shard identity {shard_index} of {shard_count}"),
        );
    }
    let shard = ShardSpec::new(shard_index as usize, shard_count as usize);
    let journal = opts.workdir.join(shard.journal_name());
    // Each assignment starts fresh: the coordinator owns durability (it
    // persists every streamed attempt); resuming a stale local journal would
    // stream records the coordinator may already hold from a dead attempt.
    let _ = std::fs::remove_file(&journal);
    let run_opts = crate::orchestrator::RunOptions {
        threads: if threads == 0 {
            None
        } else {
            Some(threads as usize)
        },
        journal: Some(journal.clone()),
        resume: false,
        stop_after_chunks: None,
        telemetry: None,
        heartbeat: false,
        shard: Some(shard),
    };
    let runner = std::thread::spawn(move || crate::orchestrator::run_ledger(ledger, &run_opts));
    let pumped = pump_journal(&mut writer, &journal, &runner, opts.heartbeat_ms);
    // Always join before returning: the next assignment for this shard
    // truncates the same journal path, and a still-running orphan writer
    // would corrupt it.
    let outcome = runner.join();
    pumped?;
    let code = match outcome {
        Ok(Ok(out)) if out.completed => 0u32,
        Ok(_) => 1,
        Err(_) => 1,
    };
    write_frame(&mut writer, &Frame::Done { code })
}

/// Streams new journal bytes (and a heartbeat) every tick until the runner
/// thread finishes, then drains the remainder so `Done` is only ever sent
/// after every journal byte. The `net-heartbeat` fault point fires at the
/// top of each tick — a `delay` there stalls *all* progress, which is
/// exactly what the coordinator's no-progress deadline must catch.
fn pump_journal<W: Write, T>(
    writer: &mut W,
    journal: &Path,
    runner: &std::thread::JoinHandle<T>,
    heartbeat_ms: u64,
) -> io::Result<()> {
    let mut src: Option<File> = None;
    let mut sent = 0u64;
    loop {
        faultpoint::trip("net-heartbeat");
        // Read `finished` before draining: everything the run wrote is then
        // guaranteed to be streamed before this iteration ends.
        let finished = runner.is_finished();
        if src.is_none() {
            src = File::open(journal).ok(); // appears once the run starts
        }
        if let Some(f) = src.as_mut() {
            loop {
                let mut chunk = vec![0u8; DATA_CHUNK];
                let n = f.read(&mut chunk)?;
                if n == 0 {
                    break;
                }
                chunk.truncate(n);
                sent += n as u64;
                write_frame(writer, &Frame::Data { bytes: chunk })?;
            }
        }
        write_frame(
            writer,
            &Frame::Heartbeat {
                journal_bytes: sent,
            },
        )?;
        if finished {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(heartbeat_ms.max(1)));
    }
}

// ---------------------------------------------------------------------------
// Coordinator side.
// ---------------------------------------------------------------------------

/// Knobs of the distributed coordinator ([`run_distributed`]).
#[derive(Debug, Clone)]
pub struct TransportConfig {
    /// Number of shards the plan is split into (independent of the worker
    /// count — shards queue for workers).
    pub shards: usize,
    /// Assignment attempts per shard (across workers) before it degrades to
    /// incomplete points.
    pub assign_attempts: usize,
    /// TCP connect attempts per assignment before the worker is charged a
    /// failure.
    pub connect_attempts: usize,
    /// Base of the exponential retry backoff (jittered, see
    /// [`backoff_with_jitter`]).
    pub backoff_base_ms: u64,
    /// Cap of the exponential retry backoff.
    pub backoff_cap_ms: u64,
    /// An assignment delivering no *new* journal bytes for this long is
    /// killed and the shard reassigned (the byte-growth liveness deadline).
    pub no_progress_ms: u64,
    /// Socket read-timeout granularity of the liveness poll, and the pool's
    /// wait-for-a-free-worker poll.
    pub poll_ms: u64,
    /// Consecutive failed assignments after which a worker is dropped from
    /// the pool (survivors absorb its shards).
    pub worker_failure_limit: usize,
    /// Worker threads per shard (`None` = each worker decides).
    pub threads_per_shard: Option<usize>,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            shards: 2,
            assign_attempts: 4,
            connect_attempts: 3,
            backoff_base_ms: 100,
            backoff_cap_ms: 2_000,
            no_progress_ms: 30_000,
            poll_ms: 25,
            worker_failure_limit: 3,
            threads_per_shard: None,
        }
    }
}

/// Post-mortem of one shard's journey through the transport.
#[derive(Debug, Clone)]
pub struct ShardTransportReport {
    /// The shard.
    pub shard: usize,
    /// Assignments dispatched (1 = clean first try).
    pub attempts: usize,
    /// True once an audited `Done(0)` covered every expected chunk key.
    pub completed: bool,
    /// Retries that moved the shard to a *different* worker.
    pub reassignments: usize,
    /// Assignments killed by the no-progress deadline.
    pub stall_kills: usize,
    /// Assignments that ended in a severed connection (mid-record EOF,
    /// write/read error).
    pub severed: usize,
    /// Frames rejected by checksum/validation across all attempts.
    pub corrupt_frames: usize,
    /// Bytes discarded while resyncing to frame boundaries.
    pub resync_bytes: u64,
}

/// The merged result of a distributed sweep.
#[derive(Debug)]
pub struct TransportOutcome {
    /// The merge of every persisted attempt journal, the same
    /// [`SweepOutcome`] [`crate::shard::merge_shard_journals`] returns:
    /// chunk-ordered aggregates, bit-identical to a fault-free
    /// single-process run when `merged.completed`. It carries no trace.
    pub merged: SweepOutcome,
    /// Per-shard transport reports, in shard order.
    pub shards: Vec<ShardTransportReport>,
    /// True if any shard exhausted its assignment budget (its unfinished
    /// points are named by `merged.incomplete_points()`).
    pub degraded: bool,
    /// Addresses dropped from the pool for consecutive failures or a
    /// plan-hash refusal.
    pub dead_workers: Vec<String>,
}

struct WorkerSlot {
    addr: String,
    busy: bool,
    failures: usize,
    dead: bool,
}

/// How an assignment reflects on the worker that ran it.
enum SlotOutcome {
    /// Clean completion: the failure streak resets.
    Ok,
    /// Connection-level failure (connect, sever, stall): one strike.
    Failed,
    /// Plan-hash refusal: this worker can never run this plan.
    Fatal,
    /// Workload-level incompleteness — not the worker's fault.
    Neutral,
}

struct Pool {
    slots: Mutex<Vec<WorkerSlot>>,
}

impl Pool {
    fn new(addrs: &[String]) -> Pool {
        Pool {
            slots: Mutex::new(
                addrs
                    .iter()
                    .map(|addr| WorkerSlot {
                        addr: addr.clone(),
                        busy: false,
                        failures: 0,
                        dead: false,
                    })
                    .collect(),
            ),
        }
    }

    /// Claims a live idle worker, preferring one other than `avoid` (a
    /// reassignment should move to a different box when one exists). Blocks
    /// while all live workers are busy; `None` once every worker is dead.
    fn acquire(&self, avoid: Option<usize>, poll_ms: u64) -> Option<usize> {
        loop {
            {
                let mut slots = self.slots.lock().expect("worker pool poisoned");
                if slots.iter().all(|s| s.dead) {
                    return None;
                }
                let mut pick = None;
                for (i, s) in slots.iter().enumerate() {
                    if s.busy || s.dead {
                        continue;
                    }
                    if Some(i) != avoid {
                        pick = Some(i);
                        break;
                    }
                    if pick.is_none() {
                        pick = Some(i);
                    }
                }
                if let Some(i) = pick {
                    slots[i].busy = true;
                    return Some(i);
                }
            }
            std::thread::sleep(Duration::from_millis(poll_ms.max(1)));
        }
    }

    fn addr(&self, i: usize) -> String {
        self.slots.lock().expect("worker pool poisoned")[i]
            .addr
            .clone()
    }

    fn release(&self, i: usize, outcome: SlotOutcome, failure_limit: usize) {
        let mut slots = self.slots.lock().expect("worker pool poisoned");
        let slot = &mut slots[i];
        slot.busy = false;
        match outcome {
            SlotOutcome::Ok => slot.failures = 0,
            SlotOutcome::Failed => {
                slot.failures += 1;
                if slot.failures >= failure_limit.max(1) {
                    slot.dead = true;
                    eprintln!(
                        "transport: worker {} dropped after {} consecutive failures",
                        slot.addr, slot.failures
                    );
                }
            }
            SlotOutcome::Fatal => slot.dead = true,
            SlotOutcome::Neutral => {}
        }
    }

    fn dead_addrs(&self) -> Vec<String> {
        self.slots
            .lock()
            .expect("worker pool poisoned")
            .iter()
            .filter(|s| s.dead)
            .map(|s| s.addr.clone())
            .collect()
    }
}

/// How one assignment ended, from the coordinator's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Assignment {
    Complete,
    Incomplete,
    Refused,
    Stalled,
    Severed,
    ConnectFailed,
}

struct Coordinator<'a> {
    /// The plan, flattened once: its hash, audit keys and final merge.
    ledger: ChunkLedger,
    dir: &'a Path,
    cfg: &'a TransportConfig,
    spec: String,
    pool: Pool,
    journals: Mutex<Vec<PathBuf>>,
    telemetry: Option<TelemetryWriter>,
}

/// Runs `plan` as `cfg.shards` shard assignments dispatched over TCP to the
/// `workers` pool, persisting every streamed attempt into its own per-shard
/// journal file in `dir` and merging them all through the fold of
/// [`crate::shard::merge_shard_journals`].
///
/// Never fails because a worker failed: severed connections, stalls,
/// refusals and dead workers retry, reassign and finally degrade to named
/// incomplete points. Errors are reserved for the coordinator's own I/O and
/// merge integrity violations.
pub fn run_distributed(
    plan: &SweepPlan,
    dir: &Path,
    cfg: &TransportConfig,
    workers: &[String],
) -> io::Result<TransportOutcome> {
    assert!(!workers.is_empty(), "a distributed sweep needs workers");
    assert!(
        cfg.shards > 0,
        "a distributed sweep needs at least one shard"
    );
    std::fs::create_dir_all(dir)?;
    let ledger = ChunkLedger::new(plan);
    // Best-effort, like all telemetry: a coordinator that can't journal its
    // reassignment log still runs the sweep.
    let telemetry =
        TelemetryWriter::create(&dir.join("coordinator.telemetry.jsonl"), ledger.plan_hash).ok();
    let coordinator = Coordinator {
        ledger,
        dir,
        cfg,
        spec: plan.to_spec_string(),
        pool: Pool::new(workers),
        journals: Mutex::new(Vec::new()),
        telemetry,
    };
    let reports: Vec<ShardTransportReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.shards)
            .map(|index| {
                let coordinator = &coordinator;
                scope.spawn(move || coordinator.run_shard(index))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard transport task panicked"))
            .collect()
    });
    let journals = coordinator
        .journals
        .into_inner()
        .expect("journal list poisoned");
    let merged = merge_into(coordinator.ledger, cfg.shards, &journals)?;
    let degraded = reports.iter().any(|r| !r.completed);
    Ok(TransportOutcome {
        merged,
        shards: reports,
        degraded,
        dead_workers: coordinator.pool.dead_addrs(),
    })
}

impl Coordinator<'_> {
    fn tel(&self, shard: usize, attempt: usize, worker: &str, what: &str) {
        if let Some(t) = &self.telemetry {
            t.transport(shard, attempt, worker, what);
        }
    }

    fn run_shard(&self, index: usize) -> ShardTransportReport {
        let cfg = self.cfg;
        let shard = ShardSpec::new(index, cfg.shards);
        let expected: Vec<(u64, usize)> = self
            .ledger
            .pending(Some(shard))
            .iter()
            .map(|job| (self.ledger.points[job.point].hash, job.chunk))
            .collect();
        let mut report = ShardTransportReport {
            shard: index,
            attempts: 0,
            completed: false,
            reassignments: 0,
            stall_kills: 0,
            severed: 0,
            corrupt_frames: 0,
            resync_bytes: 0,
        };
        if expected.is_empty() {
            report.completed = true; // owns nothing: nothing to dispatch
            return report;
        }
        let mut last_worker: Option<usize> = None;
        while report.attempts < cfg.assign_attempts.max(1) {
            let Some(w) = self.pool.acquire(last_worker, cfg.poll_ms) else {
                self.tel(index, report.attempts, "-", "gave-up");
                eprintln!(
                    "transport: shard {index}: every worker is dead; giving up after \
                     {} attempts",
                    report.attempts
                );
                return report;
            };
            let attempt = report.attempts;
            report.attempts += 1;
            let addr = self.pool.addr(w);
            let what = match last_worker {
                None => "assign",
                Some(prev) if prev != w => {
                    report.reassignments += 1;
                    "reassign"
                }
                Some(_) => "retry",
            };
            self.tel(index, attempt, &addr, what);
            let path = self.dir.join(shard.attempt_journal_name(attempt));
            let result = self.run_assignment(&addr, shard, &expected, &path, &mut report);
            if path.exists() {
                self.journals
                    .lock()
                    .expect("journal list poisoned")
                    .push(path);
            }
            let slot_outcome = match result {
                Assignment::Complete => SlotOutcome::Ok,
                Assignment::ConnectFailed | Assignment::Severed | Assignment::Stalled => {
                    SlotOutcome::Failed
                }
                Assignment::Refused => SlotOutcome::Fatal,
                Assignment::Incomplete => SlotOutcome::Neutral,
            };
            self.pool.release(w, slot_outcome, cfg.worker_failure_limit);
            last_worker = Some(w);
            match result {
                Assignment::Complete => {
                    report.completed = true;
                    self.tel(index, attempt, &addr, "complete");
                    return report;
                }
                Assignment::Stalled => self.tel(index, attempt, &addr, "stall"),
                Assignment::Severed => self.tel(index, attempt, &addr, "sever"),
                Assignment::Refused => self.tel(index, attempt, &addr, "refused"),
                Assignment::ConnectFailed => self.tel(index, attempt, &addr, "connect-failed"),
                Assignment::Incomplete => self.tel(index, attempt, &addr, "incomplete"),
            }
            if report.attempts < cfg.assign_attempts {
                std::thread::sleep(Duration::from_millis(backoff_with_jitter(
                    cfg.backoff_base_ms,
                    cfg.backoff_cap_ms,
                    report.attempts,
                    index as u64,
                )));
            }
        }
        self.tel(index, report.attempts, "-", "gave-up");
        report
    }

    /// Dispatches one assignment and receives its stream into `out_path`.
    /// Liveness is new-byte growth: `Data` bytes received, or a `Heartbeat`
    /// raising the worker's high-water mark above what we've seen (a
    /// corrupt-dropped frame still proves the worker alive; the audit at
    /// `Done` catches the missing bytes).
    fn run_assignment(
        &self,
        addr: &str,
        shard: ShardSpec,
        expected: &[(u64, usize)],
        out_path: &Path,
        report: &mut ShardTransportReport,
    ) -> Assignment {
        let cfg = self.cfg;
        let Some(stream) = connect_with_retry(addr, cfg, shard.index as u64) else {
            return Assignment::ConnectFailed;
        };
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(Duration::from_millis(cfg.poll_ms.max(1))))
            .ok();
        let mut writer = match stream.try_clone() {
            Ok(w) => w,
            Err(_) => {
                report.severed += 1;
                return Assignment::Severed;
            }
        };
        let assign = Frame::Assign {
            plan_hash: self.ledger.plan_hash,
            shard_index: shard.index as u32,
            shard_count: shard.count as u32,
            threads: cfg.threads_per_shard.unwrap_or(0) as u32,
            spec: self.spec.clone(),
        };
        if write_frame(&mut writer, &assign).is_err() {
            report.severed += 1;
            return Assignment::Severed;
        }
        let mut out = match File::create(out_path) {
            Ok(f) => BufWriter::new(f),
            Err(e) => {
                eprintln!("transport: cannot create {}: {e}", out_path.display());
                report.severed += 1;
                return Assignment::Severed;
            }
        };
        let mut reader = FrameReader::new(stream);
        let deadline = Duration::from_millis(cfg.no_progress_ms.max(1));
        let mut last_progress = Instant::now();
        let mut high_water = 0u64;
        let result = loop {
            if last_progress.elapsed() >= deadline {
                report.stall_kills += 1;
                eprintln!(
                    "transport: shard {} on {addr}: no progress for {}ms; killing the \
                     assignment",
                    shard.index, cfg.no_progress_ms
                );
                break Assignment::Stalled;
            }
            match reader.read_frame() {
                Ok(Some(Frame::Data { bytes })) => {
                    if out.write_all(&bytes).and_then(|()| out.flush()).is_err() {
                        break Assignment::Severed;
                    }
                    high_water += bytes.len() as u64;
                    last_progress = Instant::now();
                }
                Ok(Some(Frame::Heartbeat { journal_bytes })) => {
                    if journal_bytes > high_water {
                        high_water = journal_bytes;
                        last_progress = Instant::now();
                    }
                }
                Ok(Some(Frame::Done { code })) => {
                    let _ = out.flush();
                    break if code == 0 && self.journal_covers(out_path, expected) {
                        Assignment::Complete
                    } else {
                        Assignment::Incomplete
                    };
                }
                Ok(Some(Frame::Refuse { reason })) => {
                    eprintln!("transport: {addr} refused shard {}: {reason}", shard.index);
                    break Assignment::Refused;
                }
                Ok(Some(Frame::Assign { .. })) => {} // nonsensical from a worker
                Ok(None) => break Assignment::Severed, // EOF mid-assignment
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) => {}
                Err(_) => break Assignment::Severed,
            }
        };
        report.corrupt_frames += reader.corrupt_frames;
        report.resync_bytes += reader.resync_bytes;
        if result == Assignment::Severed {
            report.severed += 1;
        }
        result
    }

    fn journal_covers(&self, path: &Path, expected: &[(u64, usize)]) -> bool {
        match crate::journal::load_journal(path, self.ledger.plan_hash) {
            Ok(contents) => contents.covers(expected),
            Err(_) => false,
        }
    }
}

/// Retry backoff for 1-based `attempt`: exponential `base·2^(a−1)` capped at
/// `cap_ms`, with deterministic decorrelating jitter drawn from an FNV-1a
/// hash of `(salt, attempt)` into `[exp/2, exp]`. Without the jitter, k
/// shards failed by the same cause (a yanked volume, a killed worker box)
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
    lo + fnv1a(&seed) % (exp - lo + 1)
}

/// TCP connect with a bounded retry budget and jittered exponential backoff.
fn connect_with_retry(addr: &str, cfg: &TransportConfig, salt: u64) -> Option<TcpStream> {
    let budget = cfg.connect_attempts.max(1);
    for attempt in 1..=budget {
        match TcpStream::connect(addr) {
            Ok(stream) => return Some(stream),
            Err(e) if attempt == budget => {
                eprintln!(
                    "transport: cannot connect to {addr}: {e} (giving up after {budget} \
                     attempts)"
                );
            }
            Err(_) => std::thread::sleep(Duration::from_millis(backoff_with_jitter(
                cfg.backoff_base_ms,
                cfg.backoff_cap_ms,
                attempt,
                // Decorrelate the connect storm from the assignment backoff.
                salt ^ 0x9e37_79b9_7f4a_7c15,
            ))),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use ncg_core::policy::Policy;
    use ncg_sim::{GameFamily, InitialTopology};

    fn tiny_plan() -> SweepPlan {
        let mut plan = SweepPlan::new("transporttest");
        plan.scenarios = vec![
            Scenario::Paper(InitialTopology::Budgeted { k: 1 }),
            Scenario::Paper(InitialTopology::Budgeted { k: 3 }),
        ];
        plan.families = vec![GameFamily::AsgSum];
        plan.policies = vec![Policy::MaxCost];
        plan.ns = vec![8, 10];
        plan.trials = 4;
        plan.chunk_size = 2;
        plan
    }

    fn all_frames() -> Vec<Frame> {
        vec![
            Frame::Assign {
                plan_hash: 0xdead_beef_1234_5678,
                shard_index: 1,
                shard_count: 3,
                threads: 2,
                spec: "ncg_sweep_plan=1\nname=x\n".into(),
            },
            Frame::Refuse {
                reason: "plan hash mismatch".into(),
            },
            Frame::Data {
                bytes: b"{\"point\":\"00ff\"}\n".to_vec(),
            },
            Frame::Heartbeat {
                journal_bytes: 9_876_543_210,
            },
            Frame::Done { code: 3 },
        ]
    }

    #[test]
    fn frame_codec_round_trips_every_kind() {
        let mut wire = Vec::new();
        for frame in all_frames() {
            write_frame(&mut wire, &frame).unwrap();
        }
        let mut reader = FrameReader::new(&wire[..]);
        for frame in all_frames() {
            assert_eq!(reader.read_frame().unwrap(), Some(frame));
        }
        assert_eq!(reader.read_frame().unwrap(), None, "clean EOF");
        assert_eq!(reader.corrupt_frames, 0);
        assert_eq!(reader.resync_bytes, 0);
    }

    #[test]
    fn reader_resyncs_past_a_corrupted_frame() {
        let frames = all_frames();
        let mut wire = Vec::new();
        write_frame(&mut wire, &frames[2]).unwrap();
        let second_start = wire.len();
        write_frame(&mut wire, &frames[3]).unwrap();
        write_frame(&mut wire, &frames[4]).unwrap();
        // Flip a payload byte of the middle frame: its checksum must reject
        // it, and the reader must still deliver the surrounding frames.
        wire[second_start + HEADER_LEN + 2] ^= 0x40;
        let mut reader = FrameReader::new(&wire[..]);
        assert_eq!(reader.read_frame().unwrap(), Some(frames[2].clone()));
        assert_eq!(
            reader.read_frame().unwrap(),
            Some(frames[4].clone()),
            "the corrupted heartbeat is skipped, the Done survives"
        );
        assert_eq!(reader.read_frame().unwrap(), None);
        assert!(reader.corrupt_frames >= 1, "rejection counted");
        assert!(reader.resync_bytes > 0, "resync cost counted");
    }

    #[test]
    fn reader_resyncs_past_leading_garbage() {
        let mut wire = b"not a frame at all".to_vec();
        write_frame(&mut wire, &Frame::Done { code: 0 }).unwrap();
        let mut reader = FrameReader::new(&wire[..]);
        assert_eq!(reader.read_frame().unwrap(), Some(Frame::Done { code: 0 }));
        assert_eq!(reader.resync_bytes, 18);
    }

    #[test]
    fn torn_trailing_frame_is_a_clean_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Done { code: 0 }).unwrap();
        let whole = wire.len();
        write_frame(&mut wire, &Frame::Heartbeat { journal_bytes: 7 }).unwrap();
        wire.truncate(whole + 6); // sever mid-record
        let mut reader = FrameReader::new(&wire[..]);
        assert_eq!(reader.read_frame().unwrap(), Some(Frame::Done { code: 0 }));
        assert_eq!(reader.read_frame().unwrap(), None, "torn tail is EOF");
        assert_eq!(reader.resync_bytes, 6, "the torn bytes are accounted for");
    }

    #[test]
    fn oversize_or_unknown_frames_are_rejected_without_allocation() {
        // A "frame" whose length field claims 4 GiB: must be rejected by the
        // MAX_FRAME guard, not awaited or allocated.
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC);
        wire.push(KIND_DATA);
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(&[0u8; 32]);
        let mut tail = Vec::new();
        write_frame(&mut tail, &Frame::Done { code: 9 }).unwrap();
        wire.extend_from_slice(&tail);
        let mut reader = FrameReader::new(&wire[..]);
        assert_eq!(reader.read_frame().unwrap(), Some(Frame::Done { code: 9 }));
        assert!(reader.corrupt_frames >= 1);
        // Unknown kind byte.
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC);
        wire.push(99);
        wire.extend_from_slice(&4u32.to_le_bytes());
        wire.extend_from_slice(b"abcd");
        wire.extend_from_slice(&fnv1a(b"nonsense").to_le_bytes());
        let mut reader = FrameReader::new(&wire[..]);
        assert_eq!(reader.read_frame().unwrap(), None);
        assert!(reader.corrupt_frames >= 1);
    }

    #[test]
    fn corrupt_fault_point_is_caught_by_frame_checksums() {
        let _guard = faultpoint::test_lock();
        // Frames large enough that `mangle`'s bit flips (at len/2 and len/4
        // of the whole frame) land in the payload: the checksum rejects the
        // frame outright. (A flip landing in the *length* field instead makes
        // the reader wait for phantom bytes — on a live stream later traffic
        // triggers the same checksum rejection; at EOF it degrades to a torn
        // tail, i.e. a sever, which the coordinator already retries.)
        let data = |tag: u8| Frame::Data {
            bytes: vec![tag; 48],
        };
        faultpoint::arm("net-write:corrupt:hits=2");
        let mut wire = Vec::new();
        write_frame(&mut wire, &data(1)).unwrap();
        write_frame(&mut wire, &data(2)).unwrap(); // mangled
        write_frame(&mut wire, &data(3)).unwrap();
        faultpoint::disarm();
        let mut reader = FrameReader::new(&wire[..]);
        assert_eq!(reader.read_frame().unwrap(), Some(data(1)));
        assert_eq!(
            reader.read_frame().unwrap(),
            Some(data(3)),
            "the in-flight-corrupted frame is dropped, not half-believed"
        );
        assert_eq!(reader.read_frame().unwrap(), None);
        assert_eq!(reader.corrupt_frames, 1);
    }

    /// The in-process identity assertion: a distributed run over a loopback
    /// worker produces per-point aggregates bit-identical to the local
    /// single-thread fold. (The multi-process, fault-injected matrix lives
    /// in `tests/transport.rs`.)
    #[test]
    fn in_process_distributed_run_matches_the_local_fold() {
        let plan = tiny_plan();
        let dir =
            std::env::temp_dir().join(format!("ncg-lab-transport-inproc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        let baseline = crate::orchestrator::run_sweep(
            &plan,
            &crate::orchestrator::RunOptions {
                threads: Some(1),
                journal: Some(dir.join("baseline.jsonl")),
                resume: false,
                stop_after_chunks: None,
                telemetry: None,
                heartbeat: false,
                shard: None,
            },
        )
        .unwrap();

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let workdir = dir.join("worker");
        let server = std::thread::spawn(move || {
            serve(
                &listener,
                &ServeOptions {
                    heartbeat_ms: 5,
                    workdir,
                    max_assignments: Some(2),
                },
            )
        });

        let cfg = TransportConfig {
            shards: 2,
            poll_ms: 5,
            threads_per_shard: Some(1),
            ..TransportConfig::default()
        };
        let outcome = run_distributed(&plan, &dir.join("coord"), &cfg, &[addr]).unwrap();
        server.join().unwrap().unwrap();

        assert!(outcome.merged.completed, "{:?}", outcome.shards);
        assert!(!outcome.degraded);
        assert!(outcome.dead_workers.is_empty());
        assert_eq!(outcome.merged.points.len(), baseline.points.len());
        for (merged, local) in outcome.merged.points.iter().zip(&baseline.points) {
            assert_eq!(merged.point.hash, local.point.hash);
            assert_eq!(merged.stats.count, local.stats.count);
            assert_eq!(merged.stats.total_steps, local.stats.total_steps);
            assert_eq!(
                merged.stats.mean.to_bits(),
                local.stats.mean.to_bits(),
                "transport-mode mean must be bit-identical to local mode"
            );
            assert_eq!(
                merged.stats.m2.to_bits(),
                local.stats.m2.to_bits(),
                "transport-mode m2 must be bit-identical to local mode"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_plan_hash_is_refused() {
        let plan = tiny_plan();
        let dir =
            std::env::temp_dir().join(format!("ncg-lab-transport-refuse-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let workdir = dir.join("worker");
        let server = std::thread::spawn(move || {
            serve(
                &listener,
                &ServeOptions {
                    heartbeat_ms: 5,
                    workdir,
                    max_assignments: Some(1),
                },
            )
        });
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        write_frame(
            &mut writer,
            &Frame::Assign {
                plan_hash: plan.plan_hash() ^ 1, // deliberately wrong
                shard_index: 0,
                shard_count: 1,
                threads: 1,
                spec: plan.to_spec_string(),
            },
        )
        .unwrap();
        let mut reader = FrameReader::new(stream);
        match reader.read_frame().unwrap() {
            Some(Frame::Refuse { reason }) => {
                assert!(reason.contains("plan hash mismatch"), "{reason}");
            }
            other => panic!("expected a Refuse, got {other:?}"),
        }
        server.join().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = TransportConfig::default();
        assert!(cfg.shards >= 1);
        assert!(cfg.assign_attempts >= 1);
        assert!(cfg.connect_attempts >= 1);
        assert!(cfg.backoff_base_ms <= cfg.backoff_cap_ms);
        assert!(cfg.poll_ms < cfg.no_progress_ms);
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
            "same inputs, same gate — reproducible retries"
        );
    }
}
