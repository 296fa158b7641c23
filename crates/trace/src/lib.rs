//! Zero-overhead-when-off instrumentation for the NCG engine.
//!
//! The crate provides three primitives behind one global runtime switch:
//!
//! * **Spans** ([`span`]): RAII guards that attribute wall-clock time to a
//!   node of a per-thread phase tree. Nesting follows the call stack, so an
//!   oracle span opened inside a dynamics scan lands under the scan node.
//! * **Counters** ([`add`]): flat per-thread event tallies (agents scanned,
//!   improving moves, journal appends, …).
//! * **Histograms** ([`record`]): fixed power-of-two bucket tallies,
//!   mergeable exactly like `StreamingStats` aggregates.
//!
//! When tracing is off — the default — every probe is a single relaxed
//! atomic load and an untaken branch: no clock reads, no thread-local
//! access, no allocation. Probes never feed back into the computation they
//! observe, so trajectories are bit-identical with tracing on or off (the
//! ablation smoke run asserts this in CI).
//!
//! A thread harvests its accumulated profile with [`take_report`], which
//! returns a mergeable [`TraceReport`] and resets the thread's recorder.
//! Reports serialize to JSON by hand (like the repo's `BENCH_*.json`
//! writers) and render as a text flame profile via
//! [`TraceReport::render_flame`].

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// The stable phase taxonomy shared by every instrumented layer. Labels are
/// part of the JSON schema; extend the enum rather than repurposing a
/// variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// One dynamics trial (sim runner): setup + step loop until convergence.
    Trial,
    /// Trial setup: topology generation and engine construction.
    Setup,
    /// Mover selection: scanning agents for an improving move, and choosing
    /// the mover's best response (found by the same scan, except in consent
    /// games).
    Scan,
    /// Applying the chosen move to the graph.
    Apply,
    /// Per-agent cost refresh feeding the max-cost policy order.
    CostRefresh,
    /// One agent's candidate enumeration + scoring loop (`scan_moves`): move
    /// generation, delta assembly, pruning and comparisons. The oracle's
    /// kernel phases nest beneath it; its self-time is the enumeration
    /// arithmetic proper.
    Enumerate,
    /// `PersistentOracle::begin`: making one source current for a scan.
    OracleBegin,
    /// Bulk pinning of many sources (`pin_sources`, trial-start bulk pin).
    PinSources,
    /// Scalar journal-window replay of one parked vector.
    ScalarReplay,
    /// Word-parallel 64-wide bitset BFS wave (first fill, long windows).
    BatchWave,
    /// In-place CSR patch from the change journal.
    CsrPatch,
    /// Full CSR rebuild fallback.
    CsrRebuild,
    /// Branchless cache-arithmetic insertion-scoring kernel.
    FusedKernel,
    /// Per-candidate what-if evaluation by incremental repair (or, on the
    /// full-BFS backend, a fresh BFS) of the pinned vector, and the
    /// neighbour-row passes that bound a one-removal prefix in its place.
    DeltaRepair,
    /// Counterpart what-if queries of consent checks: what a party pays
    /// after the mover's candidate, read from a copy of its row of the
    /// mover's distance matrix. Oracle phases nest beneath it, so consent
    /// time is separable from mover time in the profile.
    Consent,
    /// One (point, chunk) job executed by an orchestrator worker.
    ChunkRun,
    /// Appending one chunk record to the sweep journal.
    JournalAppend,
}

/// All phases, in rendering/serialization order.
pub const PHASES: [Phase; 17] = [
    Phase::Trial,
    Phase::Setup,
    Phase::Scan,
    Phase::Apply,
    Phase::CostRefresh,
    Phase::Enumerate,
    Phase::OracleBegin,
    Phase::PinSources,
    Phase::ScalarReplay,
    Phase::BatchWave,
    Phase::CsrPatch,
    Phase::CsrRebuild,
    Phase::FusedKernel,
    Phase::DeltaRepair,
    Phase::Consent,
    Phase::ChunkRun,
    Phase::JournalAppend,
];

impl Phase {
    /// Stable label used in flame profiles and the JSON schema.
    pub fn label(&self) -> &'static str {
        match self {
            Phase::Trial => "trial",
            Phase::Setup => "setup",
            Phase::Scan => "scan",
            Phase::Apply => "apply",
            Phase::CostRefresh => "cost-refresh",
            Phase::Enumerate => "enumerate",
            Phase::OracleBegin => "oracle-begin",
            Phase::PinSources => "pin-sources",
            Phase::ScalarReplay => "scalar-replay",
            Phase::BatchWave => "batch-wave",
            Phase::CsrPatch => "csr-patch",
            Phase::CsrRebuild => "csr-rebuild",
            Phase::FusedKernel => "fused-kernel",
            Phase::DeltaRepair => "delta-repair",
            Phase::Consent => "consent",
            Phase::ChunkRun => "chunk-run",
            Phase::JournalAppend => "journal-append",
        }
    }

    /// Whether this phase's *self-time* (time inside the span but outside
    /// every child span) is attributed work rather than unexplained slop.
    ///
    /// Work phases do their job in their own frame — `oracle-begin`'s version
    /// checks, `cost-refresh`'s cost arithmetic, `enumerate`'s move
    /// generation — so the child spans they open are refinements, not a
    /// completeness requirement. Structural phases (`trial`, `scan`,
    /// `apply`, …) exist to group children; their self-time is exactly the
    /// part of the profile the taxonomy failed to explain, which is what
    /// [`TraceReport::leaf_coverage`] measures.
    pub fn self_is_work(&self) -> bool {
        !matches!(
            self,
            Phase::Trial
                | Phase::Scan
                | Phase::Apply
                | Phase::PinSources
                | Phase::Consent
                | Phase::ChunkRun
        )
    }
}

/// Event counters of the wasted-work and telemetry metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Agents examined for an improving move during mover selection.
    AgentsScanned,
    /// Selections that actually found an improving move (≈ applied steps).
    ImprovingMoves,
    /// Candidate scans that ended with no improving move and ran no
    /// insertion kernel: agents certified happy by exact deletion scores
    /// and level-histogram bounds alone.
    CertifiedHappy,
    /// (point, chunk) jobs claimed from the orchestrator work queue.
    ChunkClaims,
    /// Chunk records appended to the sweep journal.
    JournalAppends,
}

/// All counters, in serialization order.
pub const COUNTERS: [Counter; 5] = [
    Counter::AgentsScanned,
    Counter::ImprovingMoves,
    Counter::CertifiedHappy,
    Counter::ChunkClaims,
    Counter::JournalAppends,
];

impl Counter {
    /// Stable label used in the JSON schema.
    pub fn label(&self) -> &'static str {
        match self {
            Counter::AgentsScanned => "agents_scanned",
            Counter::ImprovingMoves => "improving_moves",
            Counter::CertifiedHappy => "certified_happy",
            Counter::ChunkClaims => "chunk_claims",
            Counter::JournalAppends => "journal_appends",
        }
    }
}

/// Number of buckets of a [`Hist`]: bucket `0` holds zeros, bucket `b ≥ 1`
/// holds values in `[2^(b-1), 2^b)`, the last bucket saturates.
pub const HIST_BUCKETS: usize = 16;

/// Registered fixed-bucket histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistId {
    /// Agents examined per mover selection (scan width).
    ScanWidth,
    /// Sources per 64-wide bitset BFS wave (wave width).
    WaveWidth,
}

/// All histograms, in serialization order.
pub const HISTS: [HistId; 2] = [HistId::ScanWidth, HistId::WaveWidth];

impl HistId {
    /// Stable label used in the JSON schema.
    pub fn label(&self) -> &'static str {
        match self {
            HistId::ScanWidth => "scan_width",
            HistId::WaveWidth => "wave_width",
        }
    }
}

/// A fixed power-of-two-bucket histogram; merging is element-wise addition,
/// which makes it associative and commutative like `StreamingStats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Hist {
    /// Bucket tallies (see [`HIST_BUCKETS`] for the value → bucket map).
    pub buckets: [u64; HIST_BUCKETS],
}

impl Hist {
    /// The bucket index of `value`.
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            ((64 - value.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// Tallies one observation.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
    }

    /// Element-wise merge of another histogram into this one.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
    }

    /// Total number of recorded observations.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }
}

// ---------------------------------------------------------------------------
// Global switch
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns tracing on or off globally. Probes installed while off cost one
/// relaxed atomic load each; flipping mid-run only affects spans opened
/// afterwards (an already-open span still records on drop).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether tracing is currently on.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Thread-local recorder
// ---------------------------------------------------------------------------

const NO_PARENT: usize = usize::MAX;

struct Node {
    phase: Phase,
    parent: usize,
    children: Vec<usize>,
    total_ns: u64,
    count: u64,
}

struct Recorder {
    nodes: Vec<Node>,
    stack: Vec<usize>,
    counters: [u64; COUNTERS.len()],
    hists: [Hist; HISTS.len()],
    /// Bumped by [`take_report`] so guards from a previous harvest epoch
    /// cannot write into the reset arena.
    epoch: u64,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            nodes: Vec::new(),
            stack: Vec::new(),
            counters: [0; COUNTERS.len()],
            hists: [Hist::default(); HISTS.len()],
            epoch: 0,
        }
    }

    fn enter(&mut self, phase: Phase) -> usize {
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let existing = if parent == NO_PARENT {
            self.nodes
                .iter()
                .position(|n| n.parent == NO_PARENT && n.phase == phase)
        } else {
            self.nodes[parent]
                .children
                .iter()
                .copied()
                .find(|&c| self.nodes[c].phase == phase)
        };
        let idx = existing.unwrap_or_else(|| {
            let idx = self.nodes.len();
            self.nodes.push(Node {
                phase,
                parent,
                children: Vec::new(),
                total_ns: 0,
                count: 0,
            });
            if parent != NO_PARENT {
                self.nodes[parent].children.push(idx);
            }
            idx
        });
        self.stack.push(idx);
        idx
    }

    fn exit(&mut self, idx: usize, epoch: u64, ns: u64) {
        if epoch != self.epoch || idx >= self.nodes.len() {
            return; // guard outlived a take_report harvest
        }
        self.nodes[idx].total_ns += ns;
        self.nodes[idx].count += 1;
        // Well-nested guards make this a single pop; popping until the
        // span's own index keeps the stack consistent even if an inner
        // guard was leaked.
        while let Some(top) = self.stack.pop() {
            if top == idx {
                break;
            }
        }
    }

    fn export(&self, idx: usize) -> PhaseNode {
        let n = &self.nodes[idx];
        PhaseNode {
            phase: n.phase,
            total_ns: n.total_ns,
            count: n.count,
            children: n.children.iter().map(|&c| self.export(c)).collect(),
        }
    }

    fn take(&mut self) -> TraceReport {
        let roots = (0..self.nodes.len())
            .filter(|&i| self.nodes[i].parent == NO_PARENT)
            .map(|i| self.export(i))
            .collect();
        let report = TraceReport {
            roots,
            counters: self.counters,
            hists: self.hists,
        };
        self.nodes.clear();
        self.stack.clear();
        self.counters = [0; COUNTERS.len()];
        self.hists = [Hist::default(); HISTS.len()];
        self.epoch += 1;
        report
    }
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::new());
}

/// RAII guard of one span; records elapsed time under its phase node on
/// drop. Dropping during unwind records and pops like a normal exit, so a
/// panicking scan leaves the recorder consistent.
#[must_use = "a span records its time when the guard drops"]
pub struct SpanGuard {
    start: Option<Instant>,
    idx: usize,
    epoch: u64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(t0) = self.start {
            let ns = t0.elapsed().as_nanos() as u64;
            let _ = RECORDER.try_with(|r| r.borrow_mut().exit(self.idx, self.epoch, ns));
        }
    }
}

/// Opens a span under the current thread's innermost open span (or as a
/// root). When tracing is off this is one relaxed load and an inert guard.
#[inline]
pub fn span(phase: Phase) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            start: None,
            idx: 0,
            epoch: 0,
        };
    }
    let (idx, epoch) = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        (r.enter(phase), r.epoch)
    });
    SpanGuard {
        start: Some(Instant::now()),
        idx,
        epoch,
    }
}

/// Adds `delta` to a counter. A no-op (one relaxed load) when tracing is off.
#[inline]
pub fn add(counter: Counter, delta: u64) {
    if !enabled() {
        return;
    }
    let slot = COUNTERS.iter().position(|c| *c == counter).unwrap_or(0);
    let _ = RECORDER.try_with(|r| r.borrow_mut().counters[slot] += delta);
}

/// Tallies one histogram observation. A no-op when tracing is off.
#[inline]
pub fn record(hist: HistId, value: u64) {
    if !enabled() {
        return;
    }
    let slot = HISTS.iter().position(|h| *h == hist).unwrap_or(0);
    let _ = RECORDER.try_with(|r| r.borrow_mut().hists[slot].record(value));
}

/// Harvests and resets the current thread's recorder. Open spans at harvest
/// time are dropped from the report (their guards become inert).
pub fn take_report() -> TraceReport {
    RECORDER.with(|r| r.borrow_mut().take())
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// One node of an exported phase tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseNode {
    /// The phase this node attributes time to.
    pub phase: Phase,
    /// Total wall-clock nanoseconds spent inside this span (children
    /// included).
    pub total_ns: u64,
    /// Number of times the span was entered.
    pub count: u64,
    /// Nested spans opened while this span was innermost.
    pub children: Vec<PhaseNode>,
}

impl PhaseNode {
    fn merge_from(&mut self, other: &PhaseNode) {
        self.total_ns += other.total_ns;
        self.count += other.count;
        for oc in &other.children {
            match self.children.iter_mut().find(|c| c.phase == oc.phase) {
                Some(c) => c.merge_from(oc),
                None => self.children.push(oc.clone()),
            }
        }
    }

    fn leaf_ns(&self) -> u64 {
        if self.children.is_empty() {
            return self.total_ns;
        }
        let child_total: u64 = self.children.iter().map(|c| c.total_ns).sum();
        let own = if self.phase.self_is_work() {
            self.total_ns.saturating_sub(child_total)
        } else {
            0
        };
        own + self.children.iter().map(PhaseNode::leaf_ns).sum::<u64>()
    }

    fn render(&self, out: &mut String, depth: usize, root_ns: u64) {
        let pct = if root_ns > 0 {
            100.0 * self.total_ns as f64 / root_ns as f64
        } else {
            0.0
        };
        let name = format!("{:indent$}{}", "", self.phase.label(), indent = 2 * depth);
        let _ = writeln!(
            out,
            "{name:<28} {:>10.3} ms {pct:>6.1} %  x{}",
            self.total_ns as f64 / 1e6,
            self.count
        );
        let child_ns: u64 = self.children.iter().map(|c| c.total_ns).sum();
        for c in &self.children {
            c.render(out, depth + 1, root_ns);
        }
        if !self.children.is_empty() && self.total_ns > child_ns {
            let self_ns = self.total_ns - child_ns;
            let spct = if root_ns > 0 {
                100.0 * self_ns as f64 / root_ns as f64
            } else {
                0.0
            };
            let name = format!("{:indent$}(self)", "", indent = 2 * (depth + 1));
            let _ = writeln!(
                out,
                "{name:<28} {:>10.3} ms {spct:>6.1} %",
                self_ns as f64 / 1e6
            );
        }
    }

    fn json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"phase\":\"{}\",\"total_ns\":{},\"count\":{},\"children\":[",
            self.phase.label(),
            self.total_ns,
            self.count
        );
        for (i, c) in self.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            c.json(out);
        }
        out.push_str("]}");
    }
}

/// A harvested, mergeable phase profile: phase tree + counters + histograms.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceReport {
    /// Root phase nodes (spans opened with no enclosing span).
    pub roots: Vec<PhaseNode>,
    /// Counter values, indexed like [`COUNTERS`].
    pub counters: [u64; COUNTERS.len()],
    /// Histograms, indexed like [`HISTS`].
    pub hists: [Hist; HISTS.len()],
}

impl TraceReport {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty() && self.counters.iter().all(|&c| c == 0)
    }

    /// Merges another report into this one: matching phase paths add their
    /// times and counts, counters and histograms add element-wise. Merging
    /// is associative, so per-thread or per-chunk reports fold in any
    /// grouping.
    pub fn merge(&mut self, other: &TraceReport) {
        for or in &other.roots {
            match self.roots.iter_mut().find(|r| r.phase == or.phase) {
                Some(r) => r.merge_from(or),
                None => self.roots.push(or.clone()),
            }
        }
        for (a, b) in self.counters.iter_mut().zip(other.counters.iter()) {
            *a += *b;
        }
        for (a, b) in self.hists.iter_mut().zip(other.hists.iter()) {
            a.merge(b);
        }
    }

    /// The value of one counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        let slot = COUNTERS.iter().position(|c| *c == counter).unwrap_or(0);
        self.counters[slot]
    }

    /// One histogram.
    pub fn hist(&self, hist: HistId) -> &Hist {
        let slot = HISTS.iter().position(|h| *h == hist).unwrap_or(0);
        &self.hists[slot]
    }

    /// Total nanoseconds across the root spans.
    pub fn total_ns(&self) -> u64 {
        self.roots.iter().map(|r| r.total_ns).sum()
    }

    /// Fraction of root wall-clock attributed to the finest instrumented
    /// phase: leaf spans count in full, and interior spans of *work* phases
    /// ([`Phase::self_is_work`]) additionally contribute their self-time.
    /// What's left out is exactly the self-time of structural phases (trial,
    /// scan, apply, …) — the share of the profile the taxonomy failed to
    /// explain. `1.0` when nothing was recorded.
    pub fn leaf_coverage(&self) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            return 1.0;
        }
        let leaves: u64 = self.roots.iter().map(PhaseNode::leaf_ns).sum();
        leaves as f64 / total as f64
    }

    /// Agents scanned per improving move — the wasted-work headline metric
    /// (1.0 would mean every scanned agent moved). `None` before any
    /// improving move was observed.
    pub fn wasted_scan_ratio(&self) -> Option<f64> {
        let moves = self.counter(Counter::ImprovingMoves);
        if moves == 0 {
            return None;
        }
        Some(self.counter(Counter::AgentsScanned) as f64 / moves as f64)
    }

    /// Renders the phase tree as an indented text flame profile with
    /// percentages relative to each root span.
    pub fn render_flame(&self) -> String {
        let mut out = String::new();
        for r in &self.roots {
            r.render(&mut out, 0, r.total_ns);
        }
        out
    }

    /// Hand-rolled JSON (the repo's `BENCH_*.json` convention): phase tree,
    /// all counters, all histograms — a stable schema pinned by a golden
    /// test.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"ncg_trace_report\":1,\"phases\":[");
        for (i, r) in self.roots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            r.json(&mut out);
        }
        out.push_str("],\"counters\":{");
        for (i, c) in COUNTERS.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", c.label(), self.counters[i]);
        }
        out.push_str("},\"hists\":{");
        for (i, h) in HISTS.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":[", h.label());
            for (j, b) in self.hists[i].buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{b}");
            }
            out.push(']');
        }
        out.push_str("}}");
        out
    }
}

/// Always-on wall-clock helper for the bench binaries, so headline timings
/// and span profiles come from one crate (spans stay off on timed reps to
/// keep them undistorted; the stopwatch never touches the recorder).
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    t0: Instant,
}

impl Stopwatch {
    /// Starts the stopwatch.
    pub fn start() -> Self {
        Stopwatch { t0: Instant::now() }
    }

    /// Elapsed seconds since start.
    pub fn elapsed_secs(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Elapsed nanoseconds since start.
    pub fn elapsed_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes recorder-touching tests: the recorder is thread-local and
    /// `cargo test` may run tests on the same worker thread concurrently
    /// only across threads, but `set_enabled` is process-global.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn with_tracing<T>(f: impl FnOnce() -> T) -> T {
        let _g = LOCK.lock().unwrap();
        let _ = take_report();
        set_enabled(true);
        let out = f();
        set_enabled(false);
        out
    }

    #[test]
    fn off_path_records_nothing() {
        let _g = LOCK.lock().unwrap();
        set_enabled(false);
        let _ = take_report();
        {
            let _s = span(Phase::Scan);
            add(Counter::AgentsScanned, 5);
            record(HistId::ScanWidth, 3);
        }
        assert!(take_report().is_empty());
    }

    #[test]
    fn spans_nest_into_a_tree() {
        let report = with_tracing(|| {
            {
                let _t = span(Phase::Trial);
                {
                    let _s = span(Phase::Scan);
                    let _k = span(Phase::FusedKernel);
                }
                {
                    let _s = span(Phase::Scan);
                }
                let _a = span(Phase::Apply);
            }
            take_report()
        });
        assert_eq!(report.roots.len(), 1);
        let trial = &report.roots[0];
        assert_eq!(trial.phase, Phase::Trial);
        assert_eq!(trial.count, 1);
        assert_eq!(trial.children.len(), 2, "scan entries coalesce");
        let scan = &trial.children[0];
        assert_eq!(scan.phase, Phase::Scan);
        assert_eq!(scan.count, 2);
        assert_eq!(scan.children[0].phase, Phase::FusedKernel);
        assert!(trial.total_ns >= scan.total_ns);
    }

    #[test]
    fn unwind_leaves_the_recorder_consistent() {
        let report = with_tracing(|| {
            let _t = span(Phase::Trial);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _s = span(Phase::Scan);
                let _k = span(Phase::FusedKernel);
                panic!("scan blew up");
            }));
            assert!(caught.is_err());
            // After the unwind the stack must be back at the trial span:
            // a new span lands under `trial`, not under the dead scan.
            let _a = span(Phase::Apply);
            drop(_a);
            drop(_t);
            take_report()
        });
        let trial = &report.roots[0];
        assert_eq!(trial.children.len(), 2);
        assert_eq!(trial.children[0].phase, Phase::Scan);
        assert_eq!(trial.children[0].count, 1, "unwound span still recorded");
        assert_eq!(trial.children[0].children[0].phase, Phase::FusedKernel);
        assert_eq!(trial.children[1].phase, Phase::Apply);
    }

    #[test]
    fn counters_and_hists_accumulate_and_reset() {
        let report = with_tracing(|| {
            add(Counter::AgentsScanned, 7);
            add(Counter::AgentsScanned, 3);
            add(Counter::ImprovingMoves, 2);
            record(HistId::ScanWidth, 0);
            record(HistId::ScanWidth, 1);
            record(HistId::ScanWidth, 5);
            take_report()
        });
        assert_eq!(report.counter(Counter::AgentsScanned), 10);
        assert_eq!(report.counter(Counter::ImprovingMoves), 2);
        assert_eq!(report.wasted_scan_ratio(), Some(5.0));
        let h = report.hist(HistId::ScanWidth);
        assert_eq!(h.total(), 3);
        assert_eq!(h.buckets[0], 1, "zeros");
        assert_eq!(h.buckets[1], 1, "value 1");
        assert_eq!(h.buckets[3], 1, "value 5 in [4,8)");
        // The harvest reset everything.
        let _g = LOCK.lock().unwrap();
        assert!(take_report().is_empty());
    }

    #[test]
    fn hist_bucket_mapping_is_pinned() {
        assert_eq!(Hist::bucket_of(0), 0);
        assert_eq!(Hist::bucket_of(1), 1);
        assert_eq!(Hist::bucket_of(2), 2);
        assert_eq!(Hist::bucket_of(3), 2);
        assert_eq!(Hist::bucket_of(4), 3);
        assert_eq!(Hist::bucket_of(1 << 14), 15);
        assert_eq!(Hist::bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn hist_merge_is_associative_and_commutative() {
        let mk = |vals: &[u64]| {
            let mut h = Hist::default();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let a = mk(&[0, 1, 2, 900]);
        let b = mk(&[3, 3, 3, 1 << 20]);
        let c = mk(&[7, 64, u64::MAX]);
        // (a ⊕ b) ⊕ c
        let mut ab = a;
        ab.merge(&b);
        let mut ab_c = ab;
        ab_c.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b;
        bc.merge(&c);
        let mut a_bc = a;
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
        // b ⊕ a == a ⊕ b
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab_c.total(), a.total() + b.total() + c.total());
    }

    fn fixed_report() -> TraceReport {
        let mut counters = [0u64; COUNTERS.len()];
        counters[0] = 40; // agents_scanned
        counters[1] = 4; // improving_moves
        let mut hists = [Hist::default(); HISTS.len()];
        hists[0].record(10);
        TraceReport {
            roots: vec![PhaseNode {
                phase: Phase::Trial,
                total_ns: 1000,
                count: 1,
                children: vec![
                    PhaseNode {
                        phase: Phase::Scan,
                        total_ns: 700,
                        count: 4,
                        children: vec![PhaseNode {
                            phase: Phase::FusedKernel,
                            total_ns: 650,
                            count: 40,
                            children: Vec::new(),
                        }],
                    },
                    PhaseNode {
                        phase: Phase::Apply,
                        total_ns: 250,
                        count: 4,
                        children: Vec::new(),
                    },
                ],
            }],
            counters,
            hists,
        }
    }

    #[test]
    fn golden_json_schema() {
        let expected = concat!(
            "{\"ncg_trace_report\":1,\"phases\":[",
            "{\"phase\":\"trial\",\"total_ns\":1000,\"count\":1,\"children\":[",
            "{\"phase\":\"scan\",\"total_ns\":700,\"count\":4,\"children\":[",
            "{\"phase\":\"fused-kernel\",\"total_ns\":650,\"count\":40,\"children\":[]}",
            "]},",
            "{\"phase\":\"apply\",\"total_ns\":250,\"count\":4,\"children\":[]}",
            "]}",
            "],\"counters\":{\"agents_scanned\":40,\"improving_moves\":4,",
            "\"certified_happy\":0,\"chunk_claims\":0,",
            "\"journal_appends\":0},",
            "\"hists\":{\"scan_width\":[0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0],",
            "\"wave_width\":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}}",
        );
        assert_eq!(fixed_report().to_json(), expected);
    }

    #[test]
    fn report_merge_adds_matching_paths() {
        let mut a = fixed_report();
        let b = fixed_report();
        a.merge(&b);
        assert_eq!(a.roots[0].total_ns, 2000);
        assert_eq!(a.roots[0].children[0].children[0].count, 80);
        assert_eq!(a.counter(Counter::AgentsScanned), 80);
        assert_eq!(a.hist(HistId::ScanWidth).total(), 2);
        // Merging a report with a new root phase appends it.
        let mut c = TraceReport::default();
        c.merge(&fixed_report());
        assert_eq!(c, fixed_report());
    }

    #[test]
    fn leaf_coverage_and_flame_render() {
        let r = fixed_report();
        // Leaves: fused-kernel (650) + apply (250) over trial (1000); the
        // structural scan's self-time (50) and the trial's own slop (50)
        // stay unattributed.
        assert!((r.leaf_coverage() - 0.9).abs() < 1e-12);
        let flame = r.render_flame();
        assert!(flame.contains("trial"));
        assert!(flame.contains("fused-kernel"));
        assert!(flame.contains("(self)"));
        assert!(flame.contains("100.0 %"));
    }

    #[test]
    fn work_phase_self_time_counts_toward_coverage() {
        // enumerate (a work phase, self 40) wrapping fused-kernel (60) under
        // a structural trial (self 0): coverage = (60 + 40) / 100.
        let r = TraceReport {
            roots: vec![PhaseNode {
                phase: Phase::Trial,
                total_ns: 100,
                count: 1,
                children: vec![PhaseNode {
                    phase: Phase::Enumerate,
                    total_ns: 100,
                    count: 5,
                    children: vec![PhaseNode {
                        phase: Phase::FusedKernel,
                        total_ns: 60,
                        count: 50,
                        children: Vec::new(),
                    }],
                }],
            }],
            counters: [0; COUNTERS.len()],
            hists: [Hist::default(); HISTS.len()],
        };
        assert!(Phase::Enumerate.self_is_work());
        assert!(!Phase::Scan.self_is_work());
        assert!((r.leaf_coverage() - 1.0).abs() < 1e-12);
    }
}
