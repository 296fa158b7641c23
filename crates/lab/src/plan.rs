//! Declarative sweep plans: cartesian grids over the scenario catalog.
//!
//! A [`SweepPlan`] names a grid over scenario × game family × move policy ×
//! α × `n`; [`SweepPlan::flatten`] expands it into concrete [`SweepPoint`]s
//! (one per grid cell) and fixed trial *chunks* — the unit of scheduling and
//! of checkpoint/resume. Every point carries a stable 64-bit hash derived
//! from its full configuration, so journal entries survive process restarts
//! and plan re-construction.
//!
//! The plan also resolves the **trial-level vs. scan-level parallelism
//! split** the ROADMAP flagged: whether a point's trials run with the
//! parallel unhappiness scan is decided *here*, from `n`, the trial count and
//! the machine's core count — never from the `threads` run option — so on a
//! given machine the aggregates are bit-identical across worker counts and
//! kill/resume splits. (A resume on a machine with a different core count
//! that would flip the split is caught by the journal's plan-hash guard and
//! refused rather than silently mixed.) The scan *width*, which cannot
//! influence trajectories, is the only knob resolved at run time.

use crate::scenario::Scenario;
use ncg_core::policy::Policy;
use ncg_core::Game;
use ncg_sim::{AlphaSpec, EngineSpec, GameFamily};

/// FNV-1a over a byte string: the stable hash behind point and plan identity
/// (never `DefaultHasher`, whose output may change between Rust releases).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Thresholds of the automatic trial-vs-scan parallelism split.
///
/// A point switches its trials to the parallel unhappiness scan when its `n`
/// is at least `scan_min_n`, the plan runs at most `scan_max_trials` trials
/// per point, **and** the machine has at least `scan_min_cores` cores: many
/// trials saturate the workers on their own, few trials of a huge `n` leave
/// cores idle that the scan can use, and on a single core the full rescan
/// only forfeits the sequential policy's short-circuit (the max-cost scan
/// stops at the first unhappy agent; the parallel scan examines all `n`).
///
/// The decision consumes the *core count*, never the `threads` run option,
/// so on one machine the aggregates are identical for every worker count and
/// resume split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AutoSplit {
    /// Minimum `n` for the per-step scan to be worth distributing.
    pub scan_min_n: usize,
    /// Maximum trials per point at which trial-level parallelism alone is
    /// considered insufficient.
    pub scan_max_trials: usize,
    /// Minimum machine cores for the parallel scan to pay for itself.
    pub scan_min_cores: usize,
}

impl Default for AutoSplit {
    fn default() -> Self {
        AutoSplit {
            scan_min_n: 256,
            scan_max_trials: 4,
            scan_min_cores: 2,
        }
    }
}

impl AutoSplit {
    /// Never use the parallel scan (every trial is sequential).
    pub fn never() -> Self {
        AutoSplit {
            scan_min_n: usize::MAX,
            scan_max_trials: 0,
            scan_min_cores: usize::MAX,
        }
    }

    /// True if a point with `n` agents and `trials` trials should run its
    /// per-step scans in parallel on a machine with `cores` cores.
    pub fn scan_mode(&self, n: usize, trials: usize, cores: usize) -> bool {
        n >= self.scan_min_n && trials <= self.scan_max_trials && cores >= self.scan_min_cores
    }
}

/// The machine's core count as seen by the split decision.
pub fn detected_cores() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// A declarative sweep: the cartesian grid and its execution parameters.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    /// Plan name (journals and reports).
    pub name: String,
    /// Initial-network families.
    pub scenarios: Vec<Scenario>,
    /// Game families.
    pub families: Vec<GameFamily>,
    /// Move policies.
    pub policies: Vec<Policy>,
    /// Edge-price rules (collapsed to a single entry for families that take
    /// no α, so swap games do not multiply the grid).
    pub alphas: Vec<AlphaSpec>,
    /// Numbers of agents.
    pub ns: Vec<usize>,
    /// Independent trials per point.
    pub trials: usize,
    /// Trials per chunk (the checkpoint granule).
    pub chunk_size: usize,
    /// Base RNG seed of the whole sweep.
    pub base_seed: u64,
    /// Step limit per trial as a multiple of `n`.
    pub max_steps_factor: usize,
    /// Execution engine of every trial (`parallel_scan` is overridden per
    /// point by the [`AutoSplit`] decision).
    pub engine: EngineSpec,
    /// Automatic trial-vs-scan parallelism split.
    pub split: AutoSplit,
}

impl SweepPlan {
    /// A small, fully-specified plan with sensible defaults: callers override
    /// the grid axes they care about.
    pub fn new(name: &str) -> Self {
        SweepPlan {
            name: name.to_string(),
            scenarios: vec![Scenario::Paper(ncg_sim::InitialTopology::Budgeted { k: 2 })],
            families: vec![GameFamily::AsgSum],
            policies: vec![Policy::MaxCost],
            alphas: vec![AlphaSpec::FractionOfN(0.25)],
            ns: vec![20],
            trials: 8,
            chunk_size: 4,
            base_seed: 0x5eed,
            max_steps_factor: 400,
            engine: EngineSpec::persistent(),
            split: AutoSplit::default(),
        }
    }

    /// Expands the grid into concrete sweep points (alpha collapsed for
    /// α-free families, scan mode resolved per point against this machine's
    /// core count).
    pub fn flatten(&self) -> Vec<SweepPoint> {
        self.flatten_with_cores(detected_cores())
    }

    /// Like [`SweepPlan::flatten`], with an explicit core count for the
    /// scan-mode decision (tests and cross-machine tooling).
    pub fn flatten_with_cores(&self, cores: usize) -> Vec<SweepPoint> {
        let mut points = Vec::new();
        let no_alpha = [AlphaSpec::Fixed(0.0)];
        for &scenario in &self.scenarios {
            for &family in &self.families {
                let alphas: &[AlphaSpec] = if family.needs_alpha() {
                    &self.alphas
                } else {
                    &no_alpha
                };
                for &alpha in alphas {
                    for &policy in &self.policies {
                        for &n in &self.ns {
                            points.push(self.point(scenario, family, alpha, policy, n, cores));
                        }
                    }
                }
            }
        }
        points
    }

    fn point(
        &self,
        scenario: Scenario,
        family: GameFamily,
        alpha: AlphaSpec,
        policy: Policy,
        n: usize,
        cores: usize,
    ) -> SweepPoint {
        let mut engine = self.engine;
        engine.parallel_scan = if self.split.scan_mode(n, self.trials, cores) {
            // Width 0 is the "resolve from the machine at run time" marker;
            // the orchestrator replaces it before execution. The *mode* is
            // part of the point identity, the width never is.
            Some(0)
        } else {
            None
        };
        let mut point = SweepPoint {
            scenario,
            family,
            alpha,
            policy,
            n,
            trials: self.trials,
            base_seed: 0,
            max_steps_factor: self.max_steps_factor,
            engine,
            hash: 0,
        };
        // Per-point trial seed: decorrelates the grid cells while staying a
        // pure function of the plan seed and the point configuration.
        point.base_seed = self
            .base_seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(fnv1a(point.descriptor().as_bytes()));
        point.hash = fnv1a(point.descriptor().as_bytes()) ^ point.base_seed.rotate_left(17);
        point
    }

    /// The chunk layout of one point: `(start, len)` trial ranges.
    pub fn chunks(&self, point: &SweepPoint) -> Vec<(usize, usize)> {
        let size = self.chunk_size.max(1);
        let mut out = Vec::new();
        let mut start = 0;
        while start < point.trials {
            let len = size.min(point.trials - start);
            out.push((start, len));
            start += len;
        }
        out
    }

    /// Stable identity of the whole plan (grid + chunk layout, including the
    /// per-point scan modes); journals are only resumable into a plan with
    /// the same hash — a resume on a machine whose core count would flip a
    /// scan mode is therefore refused instead of silently mixing engines.
    pub fn plan_hash(&self) -> u64 {
        let mut desc = format!("{}|chunk={}|", self.name, self.chunk_size.max(1));
        for p in self.flatten() {
            desc.push_str(&format!("{:016x};", p.hash));
        }
        fnv1a(desc.as_bytes())
    }

    /// Serializes the plan as a line-based `key=value` spec — the transport
    /// format handed to supervised shard-worker processes. Lossless: α values
    /// and every engine field are encoded exactly (α via IEEE bit patterns),
    /// so [`SweepPlan::parse_spec`] reconstructs a plan with the identical
    /// [`SweepPlan::plan_hash`] *on the same machine* (the scan-mode split
    /// consults the core count; a cross-machine flip is still caught by the
    /// worker's plan-hash check).
    pub fn to_spec_string(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("ncg_sweep_plan=1\n");
        let _ = writeln!(s, "name={}", self.name);
        for sc in &self.scenarios {
            let _ = writeln!(s, "scenario={}", sc.label());
        }
        for f in &self.families {
            let _ = writeln!(s, "family={}", f.label());
        }
        for p in &self.policies {
            let _ = writeln!(s, "policy={}", p.label());
        }
        for a in &self.alphas {
            let bits = match a {
                AlphaSpec::Fixed(v) => format!("f{:016x}", v.to_bits()),
                AlphaSpec::FractionOfN(v) => format!("n{:016x}", v.to_bits()),
            };
            let _ = writeln!(s, "alpha={bits}");
        }
        for n in &self.ns {
            let _ = writeln!(s, "n={n}");
        }
        let _ = writeln!(s, "trials={}", self.trials);
        let _ = writeln!(s, "chunk_size={}", self.chunk_size);
        let _ = writeln!(s, "base_seed={:016x}", self.base_seed);
        let _ = writeln!(s, "max_steps_factor={}", self.max_steps_factor);
        let _ = writeln!(s, "engine.oracle={}", self.engine.oracle.label());
        let _ = writeln!(s, "engine.dirty={}", u8::from(self.engine.dirty_agents));
        let _ = writeln!(s, "engine.par={}", opt_str(self.engine.parallel_scan));
        let _ = writeln!(s, "split.scan_min_n={}", self.split.scan_min_n);
        let _ = writeln!(s, "split.scan_max_trials={}", self.split.scan_max_trials);
        let _ = writeln!(s, "split.scan_min_cores={}", self.split.scan_min_cores);
        s
    }

    /// Parses a spec produced by [`SweepPlan::to_spec_string`]. Unknown keys
    /// are rejected (a version-skewed spec must fail loudly, not
    /// half-apply); so is any unparseable value.
    pub fn parse_spec(spec: &str) -> Result<SweepPlan, String> {
        let mut lines = spec.lines().filter(|l| !l.trim().is_empty());
        if lines.next() != Some("ncg_sweep_plan=1") {
            return Err("not a sweep-plan spec (missing ncg_sweep_plan=1 header)".into());
        }
        let mut plan = SweepPlan::new("unnamed");
        plan.scenarios.clear();
        plan.families.clear();
        plan.policies.clear();
        plan.alphas.clear();
        plan.ns.clear();
        fn bad(key: &str, val: &str) -> String {
            format!("bad value for {key}: {val:?}")
        }
        fn uint<T: std::str::FromStr>(key: &str, val: &str) -> Result<T, String> {
            val.parse().map_err(|_| bad(key, val))
        }
        for line in lines {
            let (key, val) = line
                .split_once('=')
                .ok_or_else(|| format!("malformed spec line: {line:?}"))?;
            match key {
                "name" => plan.name = val.to_string(),
                "scenario" => plan
                    .scenarios
                    .push(Scenario::parse(val).ok_or_else(|| bad(key, val))?),
                "family" => plan
                    .families
                    .push(GameFamily::parse(val).ok_or_else(|| bad(key, val))?),
                "policy" => plan
                    .policies
                    .push(Policy::parse(val).ok_or_else(|| bad(key, val))?),
                "alpha" => {
                    // `get` rather than slicing: an empty or non-ASCII value
                    // must be a parse error, not an out-of-bounds panic.
                    let digits = val.get(1..).unwrap_or("");
                    let bits = u64::from_str_radix(digits, 16).map_err(|_| bad(key, val));
                    plan.alphas.push(match val.as_bytes().first() {
                        Some(b'f') => AlphaSpec::Fixed(f64::from_bits(bits?)),
                        Some(b'n') => AlphaSpec::FractionOfN(f64::from_bits(bits?)),
                        _ => return Err(bad(key, val)),
                    });
                }
                "n" => plan.ns.push(uint(key, val)?),
                "trials" => plan.trials = uint(key, val)?,
                "chunk_size" => plan.chunk_size = uint(key, val)?,
                "base_seed" => {
                    plan.base_seed = u64::from_str_radix(val, 16).map_err(|_| bad(key, val))?;
                }
                "max_steps_factor" => plan.max_steps_factor = uint(key, val)?,
                "engine.oracle" => {
                    plan.engine.oracle =
                        ncg_graph::OracleKind::parse(val).ok_or_else(|| bad(key, val))?;
                }
                "engine.dirty" => plan.engine.dirty_agents = parse_flag(key, val)?,
                "engine.par" => plan.engine.parallel_scan = parse_opt(key, val)?,
                "split.scan_min_n" => plan.split.scan_min_n = uint(key, val)?,
                "split.scan_max_trials" => plan.split.scan_max_trials = uint(key, val)?,
                "split.scan_min_cores" => plan.split.scan_min_cores = uint(key, val)?,
                _ => return Err(format!("unknown spec key: {key:?}")),
            }
        }
        Ok(plan)
    }
}

fn opt_str<T: std::fmt::Display>(v: Option<T>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "none".to_string(),
    }
}

fn parse_opt<T: std::str::FromStr>(key: &str, val: &str) -> Result<Option<T>, String> {
    if val == "none" {
        return Ok(None);
    }
    val.parse()
        .map(Some)
        .map_err(|_| format!("bad value for {key}: {val:?}"))
}

fn parse_flag(key: &str, val: &str) -> Result<bool, String> {
    match val {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("bad value for {key}: {val:?}")),
    }
}

/// One cell of the sweep grid, ready to execute.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Initial-network family.
    pub scenario: Scenario,
    /// Game family.
    pub family: GameFamily,
    /// Edge-price rule.
    pub alpha: AlphaSpec,
    /// Move policy.
    pub policy: Policy,
    /// Number of agents.
    pub n: usize,
    /// Independent trials.
    pub trials: usize,
    /// Trial `t` seeds its RNG stream with `base_seed + t`.
    pub base_seed: u64,
    /// Step limit as a multiple of `n`.
    pub max_steps_factor: usize,
    /// Execution engine; `parallel_scan == Some(0)` means "parallel scan
    /// with a machine-resolved width".
    pub engine: EngineSpec,
    /// Stable 64-bit identity (journal key).
    pub hash: u64,
}

impl SweepPoint {
    /// The canonical configuration string hashed into the point identity.
    /// The α is encoded via its exact bit pattern, not a decimal rendering.
    pub fn descriptor(&self) -> String {
        let alpha_bits = match self.alpha {
            AlphaSpec::Fixed(a) => format!("f{:016x}", a.to_bits()),
            AlphaSpec::FractionOfN(f) => format!("n{:016x}", f.to_bits()),
        };
        format!(
            "{}|{}|{}|{}|n={}|t={}|msf={}|{}",
            self.scenario.label(),
            self.family.label(),
            alpha_bits,
            self.policy.label(),
            self.n,
            self.trials,
            self.max_steps_factor,
            self.engine.label(),
        )
    }

    /// Human-readable label for reports.
    pub fn label(&self) -> String {
        let mut parts = vec![
            self.family.label().to_string(),
            self.scenario.label(),
            format!("n={}", self.n),
        ];
        if self.family.needs_alpha() {
            parts.push(format!("a={}", self.alpha.label()));
        }
        parts.push(self.policy.label().to_string());
        parts.join(", ")
    }

    /// Instantiates the game of this point.
    pub fn make_game(&self) -> Box<dyn Game + Send + Sync> {
        self.family.make_game(self.n, self.alpha.resolve(self.n))
    }

    /// The step limit of one trial.
    pub fn max_steps(&self) -> usize {
        self.max_steps_factor * self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_plan() -> SweepPlan {
        let mut plan = SweepPlan::new("test");
        plan.scenarios = vec![
            Scenario::TorusGrid,
            Scenario::Paper(ncg_sim::InitialTopology::RandomEdges { m_per_n: 2 }),
        ];
        plan.families = vec![GameFamily::AsgSum, GameFamily::GbgSum];
        plan.policies = vec![Policy::MaxCost, Policy::Random];
        plan.alphas = vec![AlphaSpec::FractionOfN(0.25), AlphaSpec::FractionOfN(1.0)];
        plan.ns = vec![10, 20];
        plan
    }

    #[test]
    fn flatten_collapses_alpha_for_swap_games() {
        let points = grid_plan().flatten();
        // ASG: 2 scenarios × 1 α × 2 policies × 2 n = 8;
        // GBG: 2 scenarios × 2 α × 2 policies × 2 n = 16.
        assert_eq!(points.len(), 24);
        let asg = points
            .iter()
            .filter(|p| p.family == GameFamily::AsgSum)
            .count();
        assert_eq!(asg, 8);
    }

    #[test]
    fn point_hashes_are_stable_and_distinct() {
        let a = grid_plan().flatten();
        let b = grid_plan().flatten();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.hash, y.hash, "hashes are pure functions of the plan");
            assert_eq!(x.base_seed, y.base_seed);
        }
        let mut hashes: Vec<u64> = a.iter().map(|p| p.hash).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), a.len(), "no hash collisions across the grid");
        // Changing the plan seed moves every per-point seed.
        let mut reseeded = grid_plan();
        reseeded.base_seed ^= 1;
        assert_ne!(reseeded.flatten()[0].base_seed, a[0].base_seed);
        assert_ne!(reseeded.plan_hash(), grid_plan().plan_hash());
    }

    #[test]
    fn chunk_layout_covers_all_trials() {
        let mut plan = grid_plan();
        plan.trials = 10;
        plan.chunk_size = 4;
        let point = &plan.flatten()[0];
        let chunks = plan.chunks(point);
        assert_eq!(chunks, vec![(0, 4), (4, 4), (8, 2)]);
        assert_eq!(chunks.iter().map(|&(_, l)| l).sum::<usize>(), 10);
    }

    #[test]
    fn autosplit_weighs_n_trials_and_cores() {
        let split = AutoSplit::default();
        assert!(split.scan_mode(512, 3, 8), "big n, few trials, cores free");
        assert!(!split.scan_mode(512, 100, 8), "many trials fill workers");
        assert!(!split.scan_mode(64, 3, 8), "small n scans are cheap");
        assert!(
            !split.scan_mode(512, 3, 1),
            "a single core gains nothing from a full rescan"
        );
        assert!(!AutoSplit::never().scan_mode(1 << 30, 1, 64));
        let mut plan = grid_plan();
        plan.ns = vec![16, 300];
        plan.trials = 2;
        for p in plan.flatten_with_cores(8) {
            assert_eq!(p.engine.parallel_scan.is_some(), p.n >= 256, "n={}", p.n);
        }
        for p in plan.flatten_with_cores(1) {
            assert_eq!(p.engine.parallel_scan, None, "n={}", p.n);
        }
    }

    #[test]
    fn scan_mode_is_part_of_the_point_identity() {
        let mut plan = grid_plan();
        plan.ns = vec![300];
        plan.trials = 2;
        let seq = &plan.flatten_with_cores(1)[0];
        let par = &plan.flatten_with_cores(8)[0];
        assert_ne!(
            seq.hash, par.hash,
            "flipping the scan mode must change the journal key"
        );
    }

    #[test]
    fn spec_string_round_trips_the_full_plan() {
        let mut plan = grid_plan();
        plan.trials = 7;
        plan.chunk_size = 3;
        plan.base_seed = 0xdead_beef;
        plan.alphas = vec![AlphaSpec::Fixed(2.5), AlphaSpec::FractionOfN(1.0 / 3.0)];
        plan.engine = EngineSpec::fastest().with_parallel_scan(Some(3));
        plan.split = AutoSplit {
            scan_min_n: 100,
            scan_max_trials: 9,
            scan_min_cores: 3,
        };
        let spec = plan.to_spec_string();
        let back = SweepPlan::parse_spec(&spec).expect("parses");
        assert_eq!(back.name, plan.name);
        assert_eq!(back.scenarios, plan.scenarios);
        assert_eq!(back.families, plan.families);
        assert_eq!(back.policies, plan.policies);
        assert_eq!(back.alphas, plan.alphas);
        assert_eq!(back.ns, plan.ns);
        assert_eq!(back.engine, plan.engine);
        assert_eq!(back.split, plan.split);
        assert_eq!(
            back.plan_hash(),
            plan.plan_hash(),
            "the spec reconstructs the identical grid on this machine"
        );
        // Exact α bits survive even for values with no finite decimal form.
        let AlphaSpec::FractionOfN(f) = back.alphas[1] else {
            panic!("alpha kind survived");
        };
        assert_eq!(f.to_bits(), (1.0f64 / 3.0).to_bits());
    }

    #[test]
    fn spec_parsing_rejects_garbage_loudly() {
        assert!(SweepPlan::parse_spec("not a spec").is_err());
        let spec = grid_plan().to_spec_string();
        let with_unknown = format!("{spec}mystery_key=1\n");
        assert!(SweepPlan::parse_spec(&with_unknown)
            .unwrap_err()
            .contains("unknown spec key"));
        let broken = spec.replace("engine.oracle=persistent", "engine.oracle=quantum");
        assert!(SweepPlan::parse_spec(&broken).is_err());
        let broken = spec.replace("policy=max cost", "policy=psychic");
        assert!(SweepPlan::parse_spec(&broken).is_err());
        // Engine keys and values this build does not know (an older
        // coordinator's oracle kind or memory/warming knobs) must be
        // refused, not half-applied.
        for line in [
            "engine.oracle=incremental",
            "engine.cache=4",
            "engine.bytes=1048576",
            "engine.warm=0",
            "engine.batch=0",
        ] {
            let (key, val) = line.split_once('=').expect("key=value");
            let err = SweepPlan::parse_spec(&format!("{spec}{line}\n"))
                .expect_err(&format!("{line} must be rejected"));
            assert!(err.contains(key) || err.contains(val), "{line}: {err}");
        }
    }

    #[test]
    fn spec_round_trips_an_empty_grid() {
        // A plan with every axis empty is degenerate but legal — it owns no
        // points — and its spec must survive the round trip rather than
        // collapsing back to the non-empty defaults of `SweepPlan::new`.
        let mut plan = SweepPlan::new("empty");
        plan.scenarios.clear();
        plan.families.clear();
        plan.policies.clear();
        plan.alphas.clear();
        plan.ns.clear();
        let back = SweepPlan::parse_spec(&plan.to_spec_string()).expect("parses");
        assert!(back.scenarios.is_empty());
        assert!(back.families.is_empty());
        assert!(back.policies.is_empty());
        assert!(back.alphas.is_empty());
        assert!(back.ns.is_empty());
        assert!(back.flatten().is_empty());
        assert_eq!(back.plan_hash(), plan.plan_hash());
    }

    #[test]
    fn spec_round_trips_a_max_size_plan_with_hostile_alpha_bits() {
        let mut plan = grid_plan();
        plan.ns = (8..208).collect();
        plan.trials = usize::MAX;
        plan.chunk_size = usize::MAX;
        plan.max_steps_factor = usize::MAX;
        plan.base_seed = u64::MAX;
        // α values whose bit patterns have no short decimal form — including
        // signed zero, subnormals, infinities and NaN — must survive the
        // IEEE-bit codec exactly.
        plan.alphas = vec![
            AlphaSpec::Fixed(-0.0),
            AlphaSpec::Fixed(f64::MIN_POSITIVE / 2.0), // subnormal
            AlphaSpec::Fixed(f64::INFINITY),
            AlphaSpec::Fixed(f64::NEG_INFINITY),
            AlphaSpec::Fixed(f64::NAN),
            AlphaSpec::FractionOfN(f64::MAX),
            AlphaSpec::FractionOfN(1.0e-308),
        ];
        let back = SweepPlan::parse_spec(&plan.to_spec_string()).expect("parses");
        assert_eq!(back.ns, plan.ns);
        assert_eq!(back.trials, usize::MAX);
        assert_eq!(back.chunk_size, usize::MAX);
        for (a, b) in plan.alphas.iter().zip(&back.alphas) {
            let bits = |s: &AlphaSpec| match *s {
                AlphaSpec::Fixed(v) => (0u8, v.to_bits()),
                AlphaSpec::FractionOfN(v) => (1u8, v.to_bits()),
            };
            assert_eq!(bits(a), bits(b), "α bit pattern survives: {a:?}");
        }
    }

    #[test]
    fn adversarial_alpha_values_error_instead_of_panicking() {
        let arm = |val: &str| SweepPlan::parse_spec(&format!("ncg_sweep_plan=1\nalpha={val}\n"));
        for val in ["", "f", "n", "fzz", "x0000000000000000", "αβγ", "f αβ"] {
            let err = arm(val).expect_err(&format!("alpha={val:?} must be rejected"));
            assert!(err.contains("alpha"), "{err}");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected_or_changes_the_hash() {
        let plan = grid_plan();
        let spec = plan.to_spec_string();
        // Structural garbage fails the parse outright.
        for garbage in ["lol\n", "=\n", "alpha\n"] {
            assert!(
                SweepPlan::parse_spec(&format!("{spec}{garbage}")).is_err(),
                "trailing {garbage:?} must not parse"
            );
        }
        // Well-formed trailing lines that *extend* the grid parse fine — but
        // the plan hash moves, so a worker handed the tampered spec refuses
        // it against the coordinator's expected hash.
        let padded = format!("{spec}n=999\n");
        let back = SweepPlan::parse_spec(&padded).expect("well-formed extension parses");
        assert_ne!(
            back.plan_hash(),
            plan.plan_hash(),
            "grid tampering must be visible in the plan hash"
        );
    }

    #[test]
    fn descriptors_distinguish_engines_and_alphas() {
        let mut plan = grid_plan();
        let a = plan.flatten()[0].descriptor();
        plan.engine = EngineSpec::baseline();
        let b = plan.flatten()[0].descriptor();
        assert_ne!(a, b, "engine is part of the identity");
        assert!(a.contains("n=10"));
    }

    /// Literal point identities of a small plan. `SweepPoint::descriptor`
    /// hashes `EngineSpec::label()` into every point's hash *and* trial
    /// seed, so any drift in the label (or the descriptor) reseeds every
    /// sweep; this pins both for the two engines the published sweeps run.
    #[test]
    fn point_identities_are_pinned() {
        // (engine, plan hash, per-point (hash, base seed)).
        type Pinned = (EngineSpec, u64, [(u64, u64); 4]);
        let cases: [Pinned; 2] = [
            (
                EngineSpec::persistent(),
                0x87d9_ccb3_cb7e_0048,
                [
                    (0x6ab2_a590_bed5_cd4a, 0xde9d_361e_e69b_05e1),
                    (0x125c_c4d3_e8f1_188e, 0x5991_c9ef_9c52_411e),
                    (0xb77e_1f1f_5d9c_13f5, 0x5197_e77a_028f_464b),
                    (0x41f4_32d2_eb6e_7ec2, 0x99dc_c01d_603b_e2ec),
                ],
            ),
            (
                EngineSpec::fastest(),
                0xd47a_ebf8_fa9e_4702,
                [
                    (0x48bb_1fc6_a206_fbf5, 0xf43d_2a4a_218b_a900),
                    (0x70b2_5f45_1853_5278, 0x89b9_608c_e628_d67b),
                    (0x9f5f_0934_b785_ea82, 0xdbc1_ce75_84e4_f272),
                    (0xed84_7c50_09ea_5889, 0xd29c_8b85_612e_9321),
                ],
            ),
        ];
        for (engine, plan_hash, expected) in cases {
            let mut plan = SweepPlan::new("identity");
            plan.families = vec![GameFamily::AsgSum, GameFamily::GbgSum];
            plan.ns = vec![32, 64];
            plan.engine = engine;
            plan.split = AutoSplit::never();
            let points = plan.flatten_with_cores(1);
            let got: Vec<(u64, u64)> = points.iter().map(|p| (p.hash, p.base_seed)).collect();
            assert_eq!(got, expected, "{}", engine.label());
            assert_eq!(plan.plan_hash(), plan_hash, "{}", engine.label());
        }
    }
}
