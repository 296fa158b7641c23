//! Live JSONL telemetry stream of a sweep run.
//!
//! Written *next to* the chunk journal, one line per event, so a dashboard
//! (or `tail -f`) can watch a long sweep without touching the checkpoint
//! machinery. Unlike the journal, telemetry is **best-effort**: a full disk
//! or yanked volume never aborts the sweep — the writer goes quiet after the
//! first failure and the run continues.
//!
//! Line format (hand-rolled JSON, one object per line):
//!
//! * header — `{"ncg_sweep_telemetry":1,"plan":"<hash>"}`
//! * chunk  — `{"event":"chunk","point":"<hash>","chunk":i,"start":s,
//!   "len":l,"trials":t,"steps":σ,"busy_ns":b,"done":d,"total":T}`
//!   appended when a worker completes a chunk (`done`/`total` count this
//!   run's chunk progress);
//! * worker — `{"event":"worker","worker":w,"claims":c,"busy_ns":b}`
//!   one per worker at shutdown: utilization is `busy_ns / wall_ns`;
//! * run    — `{"event":"run","executed":e,"resumed":r,"wall_ns":w}`
//!   the final line of a completed (or capped) run.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// One completed-chunk telemetry event.
#[derive(Debug, Clone, Copy)]
pub struct ChunkEvent {
    /// Stable hash of the owning sweep point.
    pub point_hash: u64,
    /// Chunk index within the point.
    pub chunk_index: usize,
    /// First trial of the chunk.
    pub start: usize,
    /// Trials in the chunk.
    pub len: usize,
    /// Trials aggregated (== `len`).
    pub trials: u64,
    /// Total dynamics steps across the chunk's trials.
    pub steps: u64,
    /// Wall-clock nanoseconds the worker spent executing the chunk.
    pub busy_ns: u64,
    /// Chunks completed by this run so far (including this one).
    pub done: usize,
    /// Chunks this run set out to execute.
    pub total: usize,
}

/// Renders one chunk event (no trailing newline).
fn render_chunk(ev: &ChunkEvent) -> String {
    let mut line = String::with_capacity(160);
    let _ = write!(
        line,
        "{{\"event\":\"chunk\",\"point\":\"{:016x}\",\"chunk\":{},\"start\":{},\"len\":{},\"trials\":{},\"steps\":{},\"busy_ns\":{},\"done\":{},\"total\":{}}}",
        ev.point_hash,
        ev.chunk_index,
        ev.start,
        ev.len,
        ev.trials,
        ev.steps,
        ev.busy_ns,
        ev.done,
        ev.total,
    );
    line
}

/// Best-effort append-only telemetry writer shared across worker threads.
pub struct TelemetryWriter {
    file: Mutex<TelemetryFile>,
    failed: AtomicBool,
}

/// The stream plus its running byte offset — reported in the degradation
/// warning so a post-mortem can line the failure up with the file on disk.
struct TelemetryFile {
    file: BufWriter<File>,
    written: u64,
}

impl TelemetryWriter {
    /// Creates a fresh telemetry stream at `path` (truncating any previous
    /// file) and writes the plan-hash header. Creation errors *are* surfaced
    /// — a path that never worked is a configuration mistake, not a mid-run
    /// hiccup.
    pub fn create(path: &Path, plan_hash: u64) -> std::io::Result<TelemetryWriter> {
        let mut file = BufWriter::new(File::create(path)?);
        let header = format!("{{\"ncg_sweep_telemetry\":1,\"plan\":\"{plan_hash:016x}\"}}\n");
        file.write_all(header.as_bytes())?;
        file.flush()?;
        Ok(TelemetryWriter {
            file: Mutex::new(TelemetryFile {
                file,
                written: header.len() as u64,
            }),
            failed: AtomicBool::new(false),
        })
    }

    /// True once a mid-run append has failed and the stream went dark. The
    /// run summary surfaces this, so a silent telemetry gap is visible after
    /// the fact.
    pub fn degraded(&self) -> bool {
        self.failed.load(Ordering::Relaxed)
    }

    fn append(&self, line: &str) {
        if self.failed.load(Ordering::Relaxed) {
            return;
        }
        let mut inner = self.file.lock().expect("telemetry mutex poisoned");
        // The `telemetry-append` fault point injects the failure modes a
        // best-effort stream must shrug off: I/O errors (stream degrades,
        // sweep continues), delays and kills. Telemetry is nobody's liveness
        // signal: shard liveness is journal-byte growth on the transport.
        let result = crate::faultpoint::io_check("telemetry-append")
            .and_then(|()| writeln!(inner.file, "{line}"))
            .and_then(|()| inner.file.flush());
        match result {
            Ok(()) => inner.written += line.len() as u64 + 1,
            Err(e) => {
                if !self.failed.swap(true, Ordering::Relaxed) {
                    eprintln!(
                        "sweep telemetry: append failed at byte offset {} ({:?}: {e}); \
                         stream disabled for the rest of the run",
                        inner.written,
                        e.kind()
                    );
                }
            }
        }
    }

    /// Records a completed chunk.
    pub fn chunk(&self, ev: &ChunkEvent) {
        self.append(&render_chunk(ev));
    }

    /// Records one worker's end-of-run utilization summary.
    pub fn worker(&self, worker: usize, claims: u64, busy_ns: u64) {
        self.append(&format!(
            "{{\"event\":\"worker\",\"worker\":{worker},\"claims\":{claims},\"busy_ns\":{busy_ns}}}"
        ));
    }

    /// Records the run's final summary line.
    pub fn run(&self, executed: usize, resumed: usize, wall_ns: u64) {
        self.append(&format!(
            "{{\"event\":\"run\",\"executed\":{executed},\"resumed\":{resumed},\"wall_ns\":{wall_ns}}}"
        ));
    }

    /// Records one step of a distributed-shard assignment's lifecycle
    /// (`what` is a short verb: `assign`, `complete`, `reassign`, `stall`,
    /// `sever`, `refused`, `gave-up`) so a dashboard tailing the
    /// coordinator's stream sees reassignments as they happen.
    pub fn transport(&self, shard: usize, attempt: usize, worker: &str, what: &str) {
        // Worker addresses are host:port strings; strip anything that could
        // break the hand-rolled JSON rather than pulling in an escaper.
        let worker: String = worker
            .chars()
            .filter(|c| *c != '"' && *c != '\\' && !c.is_control())
            .collect();
        self.append(&format!(
            "{{\"event\":\"transport\",\"shard\":{shard},\"attempt\":{attempt},\"worker\":\"{worker}\",\"what\":\"{what}\"}}"
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_stream_renders_every_event_kind() {
        let dir = std::env::temp_dir().join(format!("ncg-lab-telemetry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t1.jsonl");
        let writer = TelemetryWriter::create(&path, 0xabcd).unwrap();
        writer.chunk(&ChunkEvent {
            point_hash: 0x1234,
            chunk_index: 2,
            start: 8,
            len: 4,
            trials: 4,
            steps: 57,
            busy_ns: 1_000_000,
            done: 1,
            total: 6,
        });
        writer.worker(0, 3, 2_000_000);
        writer.run(6, 0, 9_000_000);
        writer.transport(1, 2, "127.0.0.1:9000\"\\", "reassign");
        drop(writer);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(
            lines[0],
            "{\"ncg_sweep_telemetry\":1,\"plan\":\"000000000000abcd\"}"
        );
        assert_eq!(
            lines[1],
            "{\"event\":\"chunk\",\"point\":\"0000000000001234\",\"chunk\":2,\"start\":8,\"len\":4,\"trials\":4,\"steps\":57,\"busy_ns\":1000000,\"done\":1,\"total\":6}"
        );
        assert_eq!(
            lines[2],
            "{\"event\":\"worker\",\"worker\":0,\"claims\":3,\"busy_ns\":2000000}"
        );
        assert_eq!(
            lines[3],
            "{\"event\":\"run\",\"executed\":6,\"resumed\":0,\"wall_ns\":9000000}"
        );
        assert_eq!(
            lines[4],
            "{\"event\":\"transport\",\"shard\":1,\"attempt\":2,\"worker\":\"127.0.0.1:9000\",\"what\":\"reassign\"}",
            "JSON-breaking bytes in a worker address are stripped"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_failure_degrades_the_stream_without_aborting() {
        let _guard = crate::faultpoint::test_lock();
        let dir = std::env::temp_dir().join(format!("ncg-lab-telemetry2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t2.jsonl");
        let writer = TelemetryWriter::create(&path, 0x77).unwrap();
        writer.worker(0, 1, 10);
        assert!(!writer.degraded());
        crate::faultpoint::arm("telemetry-append:err");
        writer.worker(1, 2, 20); // injected failure: stream goes dark
        crate::faultpoint::disarm();
        assert!(writer.degraded());
        writer.worker(2, 3, 30); // silently dropped
        writer.run(5, 0, 99);
        drop(writer);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"worker\":0"));
        assert!(!text.contains("\"worker\":1"), "failed line never landed");
        assert!(!text.contains("\"worker\":2"), "stream stayed dark");
        assert!(!text.contains("\"event\":\"run\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
