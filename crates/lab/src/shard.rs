//! Sharded sweep execution: deterministic partition of a [`SweepPlan`]'s
//! `(point, chunk)` jobs into `k` shards, and the merge/fold that combines
//! per-shard journals back into the exact aggregates of a single-process run.
//!
//! The partition is a pure function of the stable chunk key — never of
//! machine state, worker counts, or timing — so every process (and every
//! retry of a crashed shard) agrees on who owns which chunk. Each shard
//! appends to its own journal, whose header folds the shard id next to the
//! plan hash; [`merge_shard_journals`] refuses journals from the wrong grid
//! or shard count, rejects records a journal's declared shard does not own,
//! deduplicates equal-payload chunk records across files (retried shards may
//! legitimately re-record a chunk), and treats two *different* payloads for
//! the same chunk key as a hard integrity error — chunk contents are pure
//! functions of `(point, start, len)`, so a payload conflict means one side
//! is corrupt or mislabeled.
//!
//! The merge folds through the orchestrator's chunk ledger, exactly like a
//! local run, and returns the same [`SweepOutcome`]: a completed sharded
//! sweep is **bit-identical** to the fault-free single-process run.

use crate::journal::{load_journal, ChunkRecord};
use crate::orchestrator::{ChunkLedger, PointOutcome, SweepOutcome};
use crate::plan::{fnv1a, SweepPlan};
use std::path::PathBuf;

/// Identity of one shard of a sharded sweep: `index` of `count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// This shard's id, `0 ..= count - 1`.
    pub index: usize,
    /// Total shards the sweep is split into.
    pub count: usize,
}

impl ShardSpec {
    /// Creates a validated spec.
    ///
    /// # Panics
    /// Panics if `index >= count` or `count == 0`.
    pub fn new(index: usize, count: usize) -> ShardSpec {
        assert!(count > 0, "a sweep has at least one shard");
        assert!(index < count, "shard index {index} out of {count}");
        ShardSpec { index, count }
    }

    /// True if this shard owns the chunk with the given stable key.
    pub fn owns(&self, point_hash: u64, chunk_index: usize) -> bool {
        shard_of(point_hash, chunk_index, self.count) == self.index
    }

    /// The conventional shard journal filename inside a run directory.
    pub fn journal_name(&self) -> String {
        format!("shard-{}-of-{}.jsonl", self.index, self.count)
    }

    /// The per-attempt journal filename a transport coordinator persists a
    /// streamed assignment into. Every attempt keeps its own file —
    /// [`merge_shard_journals`] accepts any number of files per shard and
    /// deduplicates replayed records, which is what makes reassignment after
    /// a severed or stalled attempt idempotent.
    pub fn attempt_journal_name(&self, attempt: usize) -> String {
        format!("shard-{}-of-{}.a{attempt}.jsonl", self.index, self.count)
    }
}

/// The shard owning chunk `(point_hash, chunk_index)` in a `count`-way
/// split: an FNV-1a hash of the stable chunk key, reduced mod `count`.
/// Deterministic across machines, processes and Rust releases — every
/// worker and every retry agrees on the partition without coordination.
pub fn shard_of(point_hash: u64, chunk_index: usize, count: usize) -> usize {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&point_hash.to_le_bytes());
    bytes[8..].copy_from_slice(&(chunk_index as u64).to_le_bytes());
    (fnv1a(&bytes) % count.max(1) as u64) as usize
}

fn integrity_error(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Merges the journals of a `count`-way sharded run of `plan` into the same
/// chunk-ordered per-point aggregates a single-process run produces.
///
/// Any number of journal files may be passed (a retried shard may have
/// written more than one); each *present* file is strictly validated: plan
/// hash, a shard header declaring the same `count`, and every record's chunk
/// key actually owned by the file's declared shard. A missing file is
/// tolerated — that shard simply contributed nothing. Duplicate chunk keys
/// across files are deduplicated only when their payloads are bit-identical;
/// a conflict is a hard integrity error. A file whose header was destroyed
/// before reaching disk holds no trustworthy records and counts as one
/// skipped line.
pub fn merge_shard_journals(
    plan: &SweepPlan,
    count: usize,
    journals: &[PathBuf],
) -> std::io::Result<SweepOutcome> {
    merge_into(ChunkLedger::new(plan), count, journals)
}

/// [`merge_shard_journals`] into an already built (and still empty) ledger.
pub(crate) fn merge_into(
    mut ledger: ChunkLedger,
    count: usize,
    journals: &[PathBuf],
) -> std::io::Result<SweepOutcome> {
    let count = count.max(1);
    let mut merged: std::collections::HashMap<(u64, usize), ChunkRecord> =
        std::collections::HashMap::new();
    let mut deduped = 0usize;
    let mut skipped = 0usize;
    let mut superseded = 0usize;

    for path in journals {
        if !path.exists() {
            continue;
        }
        let contents = match load_journal(path, ledger.plan_hash) {
            Ok(c) => c,
            // A journal whose header never made it to disk holds no
            // trustworthy records; the file is treated as absent.
            Err(e) if crate::journal::header_is_damaged(&e) => {
                skipped += 1;
                continue;
            }
            Err(e) => return Err(e),
        };
        let shard = match contents.shard {
            Some(s) if s.count == count && s.index < count => s,
            other => {
                return Err(integrity_error(format!(
                    "{} carries shard header {other:?}, expected a shard of {count}",
                    path.display(),
                )));
            }
        };
        skipped += contents.skipped_lines;
        superseded += contents.superseded_chunks;
        deduped += contents.duplicate_chunks;
        for (key, rec) in contents.chunks {
            if !shard.owns(key.0, key.1) {
                return Err(integrity_error(format!(
                    "{} holds chunk {:016x}/{} that belongs to shard {}, not shard {} — \
                     the journal is mislabeled or the partition changed",
                    path.display(),
                    key.0,
                    key.1,
                    shard_of(key.0, key.1, count),
                    shard.index,
                )));
            }
            match merged.get(&key) {
                None => {
                    merged.insert(key, rec);
                }
                Some(existing) if *existing == rec => deduped += 1,
                Some(_) => {
                    return Err(integrity_error(format!(
                        "conflicting payloads for chunk {:016x}/{} across shard journals — \
                         chunk contents are pure functions of (point, start, len), so one \
                         record is corrupt or mislabeled",
                        key.0, key.1
                    )));
                }
            }
        }
    }

    let mut folded = 0usize;
    for rec in merged.into_values() {
        folded += usize::from(ledger.absorb(rec));
    }
    let points = ledger.into_points();
    Ok(SweepOutcome {
        completed: points.iter().all(PointOutcome::complete),
        points,
        executed_chunks: folded,
        resumed_chunks: 0,
        journal_skipped_lines: skipped,
        journal_superseded: superseded,
        journal_deduped: deduped,
        telemetry_degraded: false,
        trace: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::JournalWriter;
    use crate::scenario::Scenario;
    use ncg_core::policy::Policy;
    use ncg_sim::{GameFamily, InitialTopology};
    use std::path::Path;

    fn tiny_plan() -> SweepPlan {
        let mut plan = SweepPlan::new("shardtest");
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

    #[test]
    fn partition_is_total_deterministic_and_exhaustive() {
        let plan = tiny_plan();
        let points = plan.flatten();
        let total_jobs: usize = points.iter().map(|p| plan.chunks(p).len()).sum();
        let owned_keys = |spec| -> Vec<(u64, usize)> {
            let ledger = ChunkLedger::new(&plan);
            let jobs = ledger.pending(Some(spec));
            jobs.iter()
                .map(|job| (ledger.points[job.point].hash, job.chunk))
                .collect()
        };
        for count in [1usize, 2, 3, 5] {
            let mut seen = 0usize;
            for shard in 0..count {
                let keys = owned_keys(ShardSpec::new(shard, count));
                let again = owned_keys(ShardSpec::new(shard, count));
                assert_eq!(keys, again, "partition is deterministic");
                seen += keys.len();
                for (ph, ci) in keys {
                    assert_eq!(shard_of(ph, ci, count), shard);
                }
            }
            assert_eq!(seen, total_jobs, "every chunk owned by exactly one shard");
        }
        let all = owned_keys(ShardSpec::new(0, 1));
        assert_eq!(all.len(), total_jobs, "one shard owns everything");
    }

    #[test]
    fn shard_spec_validates_bounds() {
        assert!(std::panic::catch_unwind(|| ShardSpec::new(2, 2)).is_err());
        assert!(std::panic::catch_unwind(|| ShardSpec::new(0, 0)).is_err());
        assert_eq!(ShardSpec::new(1, 4).journal_name(), "shard-1-of-4.jsonl");
    }

    /// A synthetic but deterministic chunk record for `(point, chunk)` —
    /// payload equality across files means "the retry recomputed the same
    /// thing", which this construction guarantees.
    fn synthetic_record(
        plan: &SweepPlan,
        point: &crate::plan::SweepPoint,
        ci: usize,
    ) -> ChunkRecord {
        let (start, len) = plan.chunks(point)[ci];
        let mut stats = ncg_sim::StreamingStats::new();
        for t in 0..len {
            stats.push(
                &ncg_sim::TrialResult {
                    steps: start + t + 1,
                    converged: true,
                    kinds: ncg_sim::MoveKindCounts::default(),
                },
                point.n,
            );
        }
        ChunkRecord {
            point_hash: point.hash,
            chunk_index: ci,
            start,
            len,
            stats,
        }
    }

    fn write_shard_journals(plan: &SweepPlan, dir: &Path, count: usize) -> Vec<PathBuf> {
        let plan_hash = plan.plan_hash();
        let points = plan.flatten();
        let mut paths = Vec::new();
        for index in 0..count {
            let spec = ShardSpec::new(index, count);
            let path = dir.join(spec.journal_name());
            let writer = JournalWriter::create_sharded(&path, plan_hash, Some(spec)).unwrap();
            for point in &points {
                for ci in 0..plan.chunks(point).len() {
                    if spec.owns(point.hash, ci) {
                        writer.record(&synthetic_record(plan, point, ci)).unwrap();
                    }
                }
            }
            paths.push(path);
        }
        paths
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ncg-shard-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn merge_folds_complete_journals() {
        let plan = tiny_plan();
        let dir = tmp_dir("merge");
        let paths = write_shard_journals(&plan, &dir, 3);
        let merged = merge_shard_journals(&plan, 3, &paths).unwrap();
        assert!(merged.completed);
        assert!(merged.incomplete_points().is_empty());
        assert_eq!(merged.points.len(), 4);
        for p in &merged.points {
            assert!(p.complete());
            assert_eq!(p.stats.count, 4, "all four trials folded");
        }
        assert_eq!(merged.journal_deduped, 0);
        assert_eq!(merged.journal_skipped_lines, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_tolerates_missing_shards_and_reports_incomplete_points() {
        let plan = tiny_plan();
        let dir = tmp_dir("missing");
        let mut paths = write_shard_journals(&plan, &dir, 2);
        std::fs::remove_file(&paths[1]).unwrap();
        paths[1] = dir.join("gone.jsonl");
        let merged = merge_shard_journals(&plan, 2, &paths).unwrap();
        assert!(!merged.completed);
        assert!(!merged.incomplete_points().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_dedupes_equal_payloads_across_retry_files() {
        let plan = tiny_plan();
        let dir = tmp_dir("dedupe");
        let plan_hash = plan.plan_hash();
        let mut paths = write_shard_journals(&plan, &dir, 2);
        // A retried shard 0 wrote a second journal re-recording one of its
        // chunks with the identical payload (chunk contents are pure).
        let points = plan.flatten();
        let spec = ShardSpec::new(0, 2);
        let (point, ci) = points
            .iter()
            .flat_map(|p| (0..plan.chunks(p).len()).map(move |ci| (p, ci)))
            .find(|(p, ci)| spec.owns(p.hash, *ci))
            .expect("shard 0 owns something");
        let retry = dir.join("shard-0-of-2.retry.jsonl");
        JournalWriter::create_sharded(&retry, plan_hash, Some(spec))
            .unwrap()
            .record(&synthetic_record(&plan, point, ci))
            .unwrap();
        paths.push(retry);
        let merged = merge_shard_journals(&plan, 2, &paths).unwrap();
        assert!(merged.completed);
        assert_eq!(
            merged.journal_deduped, 1,
            "identical duplicate deduplicated"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_rejects_cross_file_payload_conflicts() {
        let plan = tiny_plan();
        let dir = tmp_dir("conflict");
        let plan_hash = plan.plan_hash();
        let mut paths = write_shard_journals(&plan, &dir, 2);
        let points = plan.flatten();
        let spec = ShardSpec::new(0, 2);
        let (point, ci) = points
            .iter()
            .flat_map(|p| (0..plan.chunks(p).len()).map(move |ci| (p, ci)))
            .find(|(p, ci)| spec.owns(p.hash, *ci))
            .expect("shard 0 owns something");
        let mut conflicted = synthetic_record(&plan, point, ci);
        conflicted.stats.total_steps += 7;
        let retry = dir.join("shard-0-of-2.retry.jsonl");
        JournalWriter::create_sharded(&retry, plan_hash, Some(spec))
            .unwrap()
            .record(&conflicted)
            .unwrap();
        paths.push(retry);
        let err = merge_shard_journals(&plan, 2, &paths).unwrap_err();
        assert!(err.to_string().contains("conflicting payloads"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_rejects_mislabeled_journals_and_foreign_plans() {
        let plan = tiny_plan();
        let dir = tmp_dir("headers");
        let plan_hash = plan.plan_hash();
        let paths = write_shard_journals(&plan, &dir, 2);
        // Wrong shard count in a header.
        let odd = dir.join("odd.jsonl");
        JournalWriter::create_sharded(&odd, plan_hash, Some(ShardSpec::new(0, 3))).unwrap();
        let err = merge_shard_journals(&plan, 2, std::slice::from_ref(&odd)).unwrap_err();
        assert!(err.to_string().contains("shard header"));
        // An unsharded journal cannot be merged as a shard.
        let plain = dir.join("plain.jsonl");
        JournalWriter::create(&plain, plan_hash).unwrap();
        let err = merge_shard_journals(&plan, 2, std::slice::from_ref(&plain)).unwrap_err();
        assert!(err.to_string().contains("shard header"));
        // A journal holding a record its declared shard does not own.
        let points = plan.flatten();
        let spec0 = ShardSpec::new(0, 2);
        let (stolen_point, stolen_ci) = points
            .iter()
            .flat_map(|p| (0..plan.chunks(p).len()).map(move |ci| (p, ci)))
            .find(|(p, ci)| !spec0.owns(p.hash, *ci))
            .expect("shard 1 owns something");
        let mislabeled = dir.join("mislabeled.jsonl");
        JournalWriter::create_sharded(&mislabeled, plan_hash, Some(spec0))
            .unwrap()
            .record(&synthetic_record(&plan, stolen_point, stolen_ci))
            .unwrap();
        let err = merge_shard_journals(&plan, 2, &[mislabeled]).unwrap_err();
        assert!(err.to_string().contains("mislabeled"));
        // A foreign plan is refused by the plan-hash guard.
        let mut other = tiny_plan();
        other.base_seed ^= 1;
        let err = merge_shard_journals(&other, 2, &paths).unwrap_err();
        assert!(err.to_string().contains("belongs to plan"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_treats_a_destroyed_header_as_an_absent_file() {
        let plan = tiny_plan();
        let dir = tmp_dir("torn-header");
        let mut paths = write_shard_journals(&plan, &dir, 2);
        std::fs::write(&paths[0], "{\"ncg_sweep_jo").unwrap();
        let merged = merge_shard_journals(&plan, 2, &paths).unwrap();
        assert!(!merged.completed, "shard 0's chunks are gone");
        assert_eq!(merged.journal_skipped_lines, 1, "the dead file is counted");
        // An empty file (killed before any header byte) behaves the same.
        std::fs::write(&paths[0], "").unwrap();
        assert!(!merge_shard_journals(&plan, 2, &paths).unwrap().completed);
        paths.remove(0);
        let partial = merge_shard_journals(&plan, 2, &paths).unwrap();
        assert!(!partial.completed);
        std::fs::remove_dir_all(&dir).ok();
    }
}
