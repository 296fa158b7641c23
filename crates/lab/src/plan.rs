//! Declarative sweep plans: cartesian grids over the paper's starting
//! topologies.
//!
//! A [`SweepPlan`] names a grid over scenario × game family × move policy ×
//! α × `n`; [`SweepPlan::flatten`] expands it into concrete [`SweepPoint`]s
//! (one per grid cell) and fixed trial *chunks* — the unit of scheduling and
//! of checkpoint/resume. Every point carries a stable 64-bit hash derived
//! from its full configuration, so journal entries survive process restarts
//! and plan re-construction.
//!
//! Flattening and hashing read nothing from the host: points, trial seeds
//! and the plan hash are pure functions of the plan, so the aggregates are
//! bit-identical across worker counts, kill/resume splits and machines.

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

/// Retired: the trial-vs-scan parallelism split.
///
/// Every trial picks its movers through the sequential scan, so nothing about
/// a point depends on the host. The type and its one value,
/// [`AutoSplit::never`], remain so that code assigning
/// `plan.split = AutoSplit::never()` keeps compiling; it has no effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AutoSplit;

impl AutoSplit {
    /// The only value: every trial runs the sequential scan.
    pub fn never() -> Self {
        AutoSplit
    }
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
    /// Execution engine of every trial.
    pub engine: EngineSpec,
    /// Retired; has no effect (see [`AutoSplit`]).
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
            split: AutoSplit::never(),
        }
    }

    /// Expands the grid into concrete sweep points (alpha collapsed for
    /// α-free families). Reads nothing from the host.
    pub fn flatten(&self) -> Vec<SweepPoint> {
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
                            points.push(self.point(scenario, family, alpha, policy, n));
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
    ) -> SweepPoint {
        let mut point = SweepPoint {
            scenario,
            family,
            alpha,
            policy,
            n,
            trials: self.trials,
            base_seed: 0,
            max_steps_factor: self.max_steps_factor,
            engine: self.engine,
            hash: 0,
        };
        // Per-point trial seed: decorrelates the grid cells while staying a
        // pure function of the plan seed and the point configuration. The
        // descriptor leaves out `base_seed`, so one hash of it serves both.
        let descriptor_hash = fnv1a(point.descriptor().as_bytes());
        point.base_seed = self
            .base_seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(descriptor_hash);
        point.hash = descriptor_hash ^ point.base_seed.rotate_left(17);
        point
    }

    /// Sets the trials per point and the chunk size that goes with them:
    /// four chunks per point (`trials.div_ceil(4)`, at least one trial each).
    /// The chunk size enters only the plan hash, never a point hash or a
    /// trial seed.
    pub fn set_trials(&mut self, trials: usize) {
        self.trials = trials;
        self.chunk_size = trials.div_ceil(4).max(1);
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

    /// Stable identity of the whole plan (grid + chunk layout); journals are
    /// only resumable into a plan with the same hash, so a resume under an
    /// altered plan is refused instead of silently mixing grids.
    pub fn plan_hash(&self) -> u64 {
        self.hash_points(&self.flatten())
    }

    /// [`SweepPlan::plan_hash`] of this plan's already flattened `points`.
    pub(crate) fn hash_points(&self, points: &[SweepPoint]) -> u64 {
        use std::fmt::Write as _;
        let mut desc = format!("{}|chunk={}|", self.name, self.chunk_size.max(1));
        for p in points {
            let _ = write!(desc, "{:016x};", p.hash);
        }
        fnv1a(desc.as_bytes())
    }

    /// Serializes the plan as a line-based `key=value` spec — the transport
    /// format a coordinator hands shard workers in an `Assign` frame.
    /// Lossless: α values and the engine are encoded exactly (α via IEEE bit
    /// patterns), so [`SweepPlan::parse_spec`] reconstructs a plan with the
    /// identical [`SweepPlan::plan_hash`] on any machine.
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
                _ => return Err(format!("unknown spec key: {key:?}")),
            }
        }
        Ok(plan)
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
    /// Execution engine (part of the point identity).
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
            Scenario::Paper(ncg_sim::InitialTopology::DirectedLine),
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
    fn spec_string_round_trips_the_full_plan() {
        let mut plan = grid_plan();
        plan.trials = 7;
        plan.chunk_size = 3;
        plan.base_seed = 0xdead_beef;
        plan.alphas = vec![AlphaSpec::Fixed(2.5), AlphaSpec::FractionOfN(1.0 / 3.0)];
        plan.engine = EngineSpec::baseline();
        let spec = plan.to_spec_string();
        let back = SweepPlan::parse_spec(&spec).expect("parses");
        assert_eq!(back.name, plan.name);
        assert_eq!(back.scenarios, plan.scenarios);
        assert_eq!(back.families, plan.families);
        assert_eq!(back.policies, plan.policies);
        assert_eq!(back.alphas, plan.alphas);
        assert_eq!(back.ns, plan.ns);
        assert_eq!(back.engine, plan.engine);
        assert_eq!(
            back.plan_hash(),
            plan.plan_hash(),
            "the spec reconstructs the identical grid"
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
        // coordinator's oracle kind, memory/warming knobs, dirty-agent flag,
        // parallel-scan width or scan-split thresholds) must be refused, not
        // half-applied.
        for line in [
            "engine.oracle=incremental",
            "engine.cache=4",
            "engine.bytes=1048576",
            "engine.warm=0",
            "engine.batch=0",
            "engine.dirty=0",
            "engine.dirty=1",
            "engine.par=none",
            "engine.par=0",
            "split.scan_min_n=256",
            "split.scan_max_trials=4",
            "split.scan_min_cores=2",
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
    fn point_labels_and_game_construction() {
        let mut plan = SweepPlan::new("labels");
        plan.scenarios = vec![Scenario::Paper(ncg_sim::InitialTopology::RandomEdges {
            m_per_n: 2,
        })];
        plan.families = vec![GameFamily::GbgSum];
        plan.alphas = vec![AlphaSpec::FractionOfN(0.25)];
        plan.ns = vec![30];
        plan.max_steps_factor = 100;
        let point = &plan.flatten()[0];
        assert_eq!(point.max_steps(), 3000);
        let game = point.make_game();
        assert_eq!(game.name(), "SUM-GBG");
        assert_eq!(game.alpha(), 7.5);
        assert!(point.label().contains("n/4"));
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
    /// sweep; this pins both for the engine the published sweeps run.
    #[test]
    fn point_identities_are_pinned() {
        let mut plan = SweepPlan::new("identity");
        plan.families = vec![GameFamily::AsgSum, GameFamily::GbgSum];
        plan.ns = vec![32, 64];
        plan.engine = EngineSpec::persistent();
        let points = plan.flatten();
        let got: Vec<(u64, u64)> = points.iter().map(|p| (p.hash, p.base_seed)).collect();
        // Per-point (hash, base seed).
        let expected = [
            (0x6ab2_a590_bed5_cd4a, 0xde9d_361e_e69b_05e1),
            (0x125c_c4d3_e8f1_188e, 0x5991_c9ef_9c52_411e),
            (0xb77e_1f1f_5d9c_13f5, 0x5197_e77a_028f_464b),
            (0x41f4_32d2_eb6e_7ec2, 0x99dc_c01d_603b_e2ec),
        ];
        assert_eq!(got, expected);
        assert_eq!(plan.plan_hash(), 0x87d9_ccb3_cb7e_0048);
    }

    /// Large `n` with few trials: the shape whose points once switched to a
    /// host-dependent scan mode. Their identities must be the same on every
    /// host.
    #[test]
    fn point_identities_do_not_depend_on_the_host() {
        let mut plan = SweepPlan::new("identity-any-host");
        plan.families = vec![GameFamily::AsgSum, GameFamily::GbgSum];
        plan.ns = vec![256, 512];
        plan.trials = 3;
        let points = plan.flatten();
        let got: Vec<(u64, u64)> = points.iter().map(|p| (p.hash, p.base_seed)).collect();
        let expected = [
            (0x89ca_fd65_46f4_4f2b, 0xac04_2d1e_5161_ac94),
            (0xc0b8_77d8_3f26_bb3d, 0x1c8a_c262_4199_1799),
            (0x36b6_3396_6e26_5e7f, 0xc739_6cce_d660_657e),
            (0x5c79_c09a_2be3_785d, 0x4fa5_95f7_0472_7c87),
        ];
        assert_eq!(got, expected);
        assert_eq!(plan.plan_hash(), 0xc16c_a376_8f77_923d);
    }
}
