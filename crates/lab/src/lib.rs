//! # ncg-lab
//!
//! The batch experimentation layer on top of the simulation harness, and the
//! one place that schedules trials: an **adaptive batch orchestrator** that
//! grinds sweep grids over the paper's starting topologies (the paper's own
//! figures among them) with streaming aggregation and exact
//! checkpoint/resume.
//!
//! * [`scenario`] — the scenario axis: the paper's own topologies (`k=…`,
//!   `m=…n`, `rl`, `dl`) as seed-deterministic, labelled families.
//! * [`plan`] — declarative [`SweepPlan`] grids (scenario × game family ×
//!   policy × α × `n`), flattened into stably-hashed [`SweepPoint`]s and
//!   fixed trial chunks; point identities and trial seeds are pure functions
//!   of the plan, the same on every host.
//! * [`figures`] — the paper's empirical figures (Fig. 7, 8, 11–14), each
//!   one [`SweepPlan`], and the grouping of a run's points into the
//!   figure's series, rendered as plain-text tables and CSV next to the
//!   paper's envelopes (5n, 7n, 8n, n·log n, …).
//! * [`orchestrator`] — the shared work queue: workers steal `(point,
//!   trial-chunk)` jobs round-robin across points, aggregates stream through
//!   [`ncg_sim::StreamingStats`] (memory `O(points)`, not `O(trials)`), and
//!   every completed chunk is durably journaled; local runs, resumes and
//!   shard merges share its one chunk-ordered fold.
//! * [`journal`] — the JSON-lines chunk journal: bit-exact f64 payloads,
//!   plan-hash guarded, torn-tail tolerant.
//! * [`telemetry`] — best-effort live JSONL telemetry written next to the
//!   journal (per-chunk progress, per-worker utilization, run summary), plus
//!   optional stderr heartbeat lines with points-done and ETA.
//! * [`shard`] — deterministic partition of a plan's `(point, chunk)` jobs
//!   into `k` shards and the merge of per-shard journals into the
//!   [`SweepOutcome`] of a single-process run.
//! * [`transport`] — the one shard runtime: a tiny length-prefixed,
//!   checksummed TCP protocol where a coordinator dispatches shard
//!   assignments to accept-loop workers, with retry/backoff, byte-growth
//!   heartbeat liveness, reassignment on stall or sever, an audit of every
//!   `Done`, and per-attempt journals fed through the same merge.
//! * [`supervisor`] — [`supervisor::LocalWorkers`]: a local sharded sweep's
//!   worker processes on loopback, restarted on their own address when they
//!   exit and killed on drop; the coordinator drives them like remote
//!   workers.
//! * [`faultpoint`] — the kill-anywhere fault-injection harness (env-gated
//!   named fault points, zero overhead when off) behind the fault matrix.
//!
//! The headline guarantee, enforced by the workspace reproducibility test
//! and the fault matrix: a plan run with 1 worker, N workers, killed and
//! resumed mid-sweep, or sharded across local or remote worker processes
//! (with or without injected faults) produces **bit-identical** per-point
//! aggregates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faultpoint;
pub mod figures;
pub mod journal;
pub mod orchestrator;
pub mod plan;
pub mod scenario;
pub mod shard;
pub mod supervisor;
pub mod telemetry;
pub mod transport;

pub use journal::{load_journal, ChunkRecord, JournalWriter};
pub use orchestrator::{run_sweep, PointOutcome, RunOptions, SweepOutcome};
pub use plan::{fnv1a, AutoSplit, SweepPlan, SweepPoint};
pub use scenario::Scenario;
pub use shard::{merge_shard_journals, shard_of, ShardSpec};
pub use telemetry::{ChunkEvent, TelemetryWriter};
pub use transport::{
    backoff_with_jitter, run_distributed, serve, ServeOptions, ShardTransportReport,
    TransportConfig, TransportOutcome,
};
