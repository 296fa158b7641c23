//! `perfbench` — the end-to-end and per-layer benchmark of the selfish
//! network creation reproduction.
//!
//! It times what users of the reproduction wait for: sequential max-cost
//! best-response dynamics run to a certified equilibrium on the eager
//! persistent engine, both as single large trials and as whole sweeps
//! through the `ncg-lab` orchestrator. Every result is checked against a
//! committed golden (`golden/<set>.txt`).
//!
//! The library holds the workload definitions, the direct `Dynamics` trial
//! loop, the golden format and the host probes; `main.rs` turns them into
//! runs and metrics. Engines are only ever built through
//! `DynamicsConfig::simulation(..).with_oracle(OracleKind::Persistent)`,
//! `EngineSpec::persistent()`/`baseline()` and `SweepPlan::new`, so engine
//! refactors behind those constructors need no benchmark change.

#![forbid(unsafe_code)]

use ncg_core::dynamics::{Dynamics, DynamicsConfig};
use ncg_core::{Game, OracleKind, OracleStats};
use ncg_graph::OwnedGraph;
use ncg_lab::{fnv1a, AutoSplit, Scenario, SweepOutcome, SweepPlan};
use ncg_sim::{AlphaSpec, EngineSpec, GameFamily, InitialTopology};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

pub mod host;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// SUM-GBG, α = n/4, connected random start with m = 2n, n = 1024, one
    /// thread: the fused insertion kernel over a parked-vector cache twice
    /// the size of L2.
    GbgSum1024,
    /// SUM-ASG, budgeted k = 2 start, n = 1024, one thread: removal-prefix
    /// delta repair, lower-bound pruning and the certifying final scan.
    AsgSum1024,
    /// The four empirical families (SUM/MAX × ASG/GBG) at n ≤ 256 through
    /// `run_sweep` with two workers, journal and telemetry on.
    SweepFigs256,
    /// The exact Buy Game and the bilateral equal-split game at n ∈ {10, 12}
    /// through the same orchestrator.
    BuyBilateral12,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::GbgSum1024,
        Workload::AsgSum1024,
        Workload::SweepFigs256,
        Workload::BuyBilateral12,
    ];

    /// The name used on the command line and in goldens.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::GbgSum1024 => "gbg-sum-1024",
            Workload::AsgSum1024 => "asg-sum-1024",
            Workload::SweepFigs256 => "sweep-figs-256",
            Workload::BuyBilateral12 => "buy-bilateral-12",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The single-trial specification of a trial workload (`None` for the
    /// sweep workloads).
    pub fn trial_spec(&self) -> Option<TrialSpec> {
        match self {
            Workload::GbgSum1024 => Some(TrialSpec {
                family: GameFamily::GbgSum,
                n: 1024,
                alpha: AlphaSpec::FractionOfN(0.25),
                scenario: Scenario::Paper(InitialTopology::RandomEdges { m_per_n: 2 }),
                max_steps_factor: MAX_STEPS_FACTOR,
            }),
            Workload::AsgSum1024 => Some(TrialSpec {
                family: GameFamily::AsgSum,
                n: 1024,
                alpha: AlphaSpec::Fixed(0.0),
                scenario: Scenario::Paper(InitialTopology::Budgeted { k: 2 }),
                max_steps_factor: MAX_STEPS_FACTOR,
            }),
            Workload::SweepFigs256 | Workload::BuyBilateral12 => None,
        }
    }

    /// The sweep plan of a sweep workload for one base seed (`None` for the
    /// trial workloads).
    ///
    /// The orchestrator claims chunks round-robin over the points in plan
    /// order, so the axes list the most expensive values first (largest n;
    /// the bilateral α = n points that cycle to the step limit): each round
    /// then ends on short chunks and the two workers finish together.
    /// Point identities, and with them the goldens, do not depend on order.
    pub fn plan(&self, base_seed: u64) -> Option<SweepPlan> {
        match self {
            Workload::SweepFigs256 => {
                let mut plan = base_plan("perfbench-sweep-figs-256", base_seed);
                plan.scenarios = vec![
                    Scenario::Paper(InitialTopology::Budgeted { k: 2 }),
                    Scenario::Paper(InitialTopology::RandomEdges { m_per_n: 2 }),
                ];
                plan.families = vec![
                    GameFamily::AsgSum,
                    GameFamily::AsgMax,
                    GameFamily::GbgSum,
                    GameFamily::GbgMax,
                ];
                plan.alphas = vec![AlphaSpec::FractionOfN(0.25)];
                plan.ns = vec![256, 128, 64];
                plan.trials = 4;
                Some(plan)
            }
            Workload::BuyBilateral12 => {
                let mut plan = base_plan("perfbench-buy-bilateral-12", base_seed);
                plan.scenarios = vec![Scenario::Paper(InitialTopology::RandomEdges { m_per_n: 2 })];
                plan.families = vec![GameFamily::BilateralSum, GameFamily::BuySum];
                plan.alphas = vec![AlphaSpec::FractionOfN(1.0), AlphaSpec::FractionOfN(0.25)];
                plan.ns = vec![12, 10];
                plan.trials = 8;
                Some(plan)
            }
            Workload::GbgSum1024 | Workload::AsgSum1024 => None,
        }
    }

    /// Nominal seconds of one unit of work (a trial, or a whole sweep) on a
    /// 2-vCPU x86-64 host; `--seconds` is divided by it to size a run.
    pub fn nominal_unit_s(&self) -> f64 {
        match self {
            Workload::GbgSum1024 => 6.5,
            Workload::AsgSum1024 => 2.0,
            Workload::SweepFigs256 => 20.0,
            Workload::BuyBilateral12 => 20.0,
        }
    }
}

/// The settings every benchmark sweep shares: the paper's max-cost policy on
/// the eager persistent engine, one trial per chunk, and the scan split
/// pinned to "never" so a plan runs the same sequential trajectories on
/// every host.
fn base_plan(name: &str, base_seed: u64) -> SweepPlan {
    let mut plan = SweepPlan::new(name);
    plan.policies = vec![ncg_core::Policy::MaxCost];
    plan.chunk_size = 1;
    plan.base_seed = base_seed;
    plan.max_steps_factor = MAX_STEPS_FACTOR;
    plan.engine = EngineSpec::persistent();
    plan.split = AutoSplit::never();
    plan
}

/// Step limit per trial as a multiple of `n` (the paper's sweeps converge
/// within a small constant times `n`; the bilateral α = n points cycle into
/// it by design).
const MAX_STEPS_FACTOR: usize = 400;

/// The committed seed sets. `Default` is what runs use unless told
/// otherwise; `Heldout` exists so a claim can be re-checked on seeds that
/// were not looked at while it was made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedSet {
    /// The set every run uses by default.
    Default,
    /// Seeds kept aside for re-checking claims.
    Heldout,
}

impl SeedSet {
    /// Name on the command line and golden file stem.
    pub fn name(&self) -> &'static str {
        match self {
            SeedSet::Default => "default",
            SeedSet::Heldout => "heldout",
        }
    }

    /// Inverse of [`SeedSet::name`].
    pub fn parse(s: &str) -> Option<SeedSet> {
        match s {
            "default" => Some(SeedSet::Default),
            "heldout" => Some(SeedSet::Heldout),
            _ => None,
        }
    }

    /// The seeds of `workload` in this set: trial seeds for the trial
    /// workloads, plan base seeds for the sweep workloads.
    ///
    /// A run of the nominal length covers the whole set, so every run does
    /// the same work and only the host's noise moves its figures: trial
    /// times differ by up to ±12 % between seeds, and a sweep's wall-clock
    /// by up to 2× between base seeds (the bilateral α = n points cycle to
    /// the step limit for some seeds and converge early for others).
    pub fn seeds(&self, workload: Workload) -> Vec<u64> {
        let len: u64 = match workload {
            Workload::GbgSum1024 => 3,
            Workload::AsgSum1024 => 10,
            Workload::SweepFigs256 | Workload::BuyBilateral12 => 1,
        };
        let first = match self {
            SeedSet::Default => 1,
            SeedSet::Heldout => 1001,
        };
        (first..first + len).collect()
    }
}

/// The seeds one run executes: `units` seeds taken cyclically from `set`,
/// starting at position `rotation` — so the same `(rotation, units)` always
/// runs the same inputs, and a run of `units == set.len()` covers the whole
/// set in a rotation-dependent order.
pub fn run_seeds(set: &[u64], rotation: u64, units: usize) -> Vec<u64> {
    (0..units)
        .map(|i| set[((rotation as usize % set.len()) + i) % set.len()])
        .collect()
}

// ---------------------------------------------------------------------------
// The direct trial loop
// ---------------------------------------------------------------------------

/// Everything that defines one trial except its seed.
#[derive(Debug, Clone, Copy)]
pub struct TrialSpec {
    /// Game family.
    pub family: GameFamily,
    /// Number of agents.
    pub n: usize,
    /// Edge price rule (ignored by the swap games).
    pub alpha: AlphaSpec,
    /// Initial-network generator.
    pub scenario: Scenario,
    /// Step limit as a multiple of `n`.
    pub max_steps_factor: usize,
}

impl TrialSpec {
    /// The step limit of one trial.
    pub fn max_steps(&self) -> usize {
        self.max_steps_factor * self.n
    }

    /// The dynamics configuration: the paper's strict max-cost order on the
    /// eager persistent engine.
    pub fn config(&self) -> DynamicsConfig {
        DynamicsConfig::simulation(self.max_steps()).with_oracle(OracleKind::Persistent)
    }

    /// Instantiates the game.
    pub fn make_game(&self) -> Box<dyn Game + Send + Sync> {
        self.family.make_game(self.n, self.alpha.resolve(self.n))
    }

    /// A small sweep of this trial's family (n ∈ {64, 128}, 8 trials each),
    /// on which a trial workload's traced run measures the lab layers.
    pub fn lab_probe_plan(&self) -> SweepPlan {
        let mut plan = base_plan("perfbench-lab-probe", 0x1ab);
        plan.scenarios = vec![self.scenario];
        plan.families = vec![self.family];
        plan.alphas = vec![self.alpha];
        plan.ns = vec![64, 128];
        plan.trials = 8;
        plan
    }
}

/// The golden-checked result of one trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialResult {
    /// Moves until the run stopped.
    pub steps: usize,
    /// True if a certified equilibrium was reached.
    pub converged: bool,
    /// [`fingerprint`] of the final network.
    pub fingerprint: u64,
}

/// Timings and counters of one driven trial.
#[derive(Debug, Clone)]
pub struct TrialRun {
    /// The golden-checked result.
    pub result: TrialResult,
    /// Seconds in `generate` (the initial network).
    pub generate_s: f64,
    /// Seconds in `Dynamics::new` (the cold fill that pins all n vectors).
    pub new_s: f64,
    /// Seconds from the first `Dynamics::step` to the `None` that certifies
    /// equilibrium (or to the step limit).
    pub solve_s: f64,
    /// Seconds of the final `step` that returned `None` (0 at the step
    /// limit). Only measured when probing.
    pub certify_s: f64,
    /// Seconds of every `step` that returned a move. Only when probing.
    pub step_s: Vec<f64>,
    /// Trajectory states sampled every `probe` steps (the initial state
    /// included). Only when probing.
    pub states: Vec<OwnedGraph>,
    /// The oracle's work counters over the whole trial.
    pub oracle: OracleStats,
}

/// A trial ready to run: its dynamics and the RNG that drives them.
pub struct SetUp<'g> {
    /// The process in its initial state.
    pub dynamics: Dynamics<'g, dyn Game + Send + Sync + 'g>,
    /// The trial's RNG, already advanced past network generation.
    pub rng: StdRng,
    /// Seconds in `generate` (the initial network).
    pub generate_s: f64,
    /// Seconds in `Dynamics::new` (the cold fill that pins all n vectors).
    pub new_s: f64,
}

/// Sets up one trial of `spec` the way `ncg_sim::run_seeded_trial` does:
/// the RNG seeded with `seed` generates the initial network, and the same
/// stream then drives the dynamics.
pub fn set_up<'g>(spec: &TrialSpec, game: &'g (dyn Game + Send + Sync), seed: u64) -> SetUp<'g> {
    let mut rng = StdRng::seed_from_u64(seed);
    let t0 = Instant::now();
    let initial = spec.scenario.generate(spec.n, &mut rng);
    let generate_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let dynamics = Dynamics::new(game, initial, spec.config());
    let new_s = t1.elapsed().as_secs_f64();
    SetUp {
        dynamics,
        rng,
        generate_s,
        new_s,
    }
}

/// Runs one trial of `spec` from [`set_up`] to a certified equilibrium (or
/// the step limit), timing each layer from the outside.
///
/// With `probe = Some(k)` every step is timed individually and every k-th
/// state is kept for the kernel probe; `solve_s` is then the sum of the
/// step times, so the sampling never counts. With `None` the step loop runs
/// untouched under one clock.
pub fn drive_trial(
    spec: &TrialSpec,
    game: &(dyn Game + Send + Sync),
    seed: u64,
    probe: Option<usize>,
) -> TrialRun {
    let SetUp {
        mut dynamics,
        mut rng,
        generate_s,
        new_s,
    } = set_up(spec, game, seed);
    let max_steps = spec.max_steps();
    let mut steps = 0usize;
    let mut step_s = Vec::new();
    let mut states = Vec::new();
    let mut certify_s = 0.0;
    let converged;
    let solve_s;
    match probe {
        None => {
            let t2 = Instant::now();
            converged = loop {
                if steps >= max_steps {
                    break false;
                }
                match dynamics.step(&mut rng) {
                    Some(_) => steps += 1,
                    None => break true,
                }
            };
            solve_s = t2.elapsed().as_secs_f64();
        }
        Some(every) => {
            let every = every.max(1);
            converged = loop {
                if steps.is_multiple_of(every) {
                    states.push(dynamics.graph().clone());
                }
                if steps >= max_steps {
                    break false;
                }
                let ts = Instant::now();
                let record = dynamics.step(&mut rng);
                let dt = ts.elapsed().as_secs_f64();
                match record {
                    Some(_) => {
                        steps += 1;
                        step_s.push(dt);
                    }
                    None => {
                        certify_s = dt;
                        break true;
                    }
                }
            };
            solve_s = step_s.iter().sum::<f64>() + certify_s;
        }
    }
    TrialRun {
        result: TrialResult {
            steps,
            converged,
            fingerprint: fingerprint(dynamics.graph()),
        },
        generate_s,
        new_s,
        solve_s,
        certify_s,
        step_s,
        states,
        oracle: dynamics.oracle_stats(),
    }
}

/// Order-independent identity of a network with ownership: FNV-1a over `n`
/// and the sorted `(owner, other)` edge list.
fn fingerprint(g: &OwnedGraph) -> u64 {
    let mut edges: Vec<(u32, u32)> = g
        .edges()
        .map(|e| (e.owner as u32, e.other as u32))
        .collect();
    edges.sort_unstable();
    let mut bytes = Vec::with_capacity(8 + 8 * edges.len());
    bytes.extend_from_slice(&(g.num_nodes() as u64).to_le_bytes());
    for (a, b) in edges {
        bytes.extend_from_slice(&a.to_le_bytes());
        bytes.extend_from_slice(&b.to_le_bytes());
    }
    fnv1a(&bytes)
}

// ---------------------------------------------------------------------------
// Goldens
// ---------------------------------------------------------------------------

/// The golden-checked aggregate of one sweep point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointResult {
    /// Trials aggregated.
    pub count: u64,
    /// Sum of all trials' steps.
    pub total_steps: u64,
    /// Trials that hit the step limit.
    pub non_converged: u64,
    /// Bit pattern of the Welford mean of the steps.
    pub mean_bits: u64,
}

/// The per-point results of a finished sweep, keyed by point hash.
pub fn sweep_results(outcome: &SweepOutcome) -> Vec<(u64, PointResult)> {
    outcome
        .points
        .iter()
        .map(|p| {
            (
                p.point.hash,
                PointResult {
                    count: p.stats.count,
                    total_steps: p.stats.total_steps,
                    non_converged: p.stats.non_converged,
                    mean_bits: p.stats.mean.to_bits(),
                },
            )
        })
        .collect()
}

/// A parsed golden file.
///
/// Line format (one record per line, `#` starts a comment):
///
/// ```text
/// trial <workload> <seed> steps=<u> converged=<0|1> fp=<hex64>
/// point <workload> <base-seed> <point-hash-hex64> count=<u> total_steps=<u> non_converged=<u> mean=<hex64>
/// ```
#[derive(Debug, Default)]
pub struct Golden {
    trials: HashMap<(String, u64), TrialResult>,
    points: HashMap<(String, u64, u64), PointResult>,
    plans: HashMap<(String, u64), usize>,
}

impl Golden {
    /// Parses a golden file's text.
    pub fn parse(text: &str) -> Result<Golden, String> {
        let mut golden = Golden::default();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("golden line {}: cannot parse {line:?}", i + 1);
            let words: Vec<&str> = line.split_whitespace().collect();
            let field = |key: &str| -> Result<&str, String> {
                words
                    .iter()
                    .find_map(|w| w.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
                    .ok_or_else(bad)
            };
            let dec = |key: &str| -> Result<u64, String> { field(key)?.parse().map_err(|_| bad()) };
            let hex = |s: &str| u64::from_str_radix(s, 16).map_err(|_| bad());
            match words.first().copied() {
                Some("trial") if words.len() == 6 => {
                    let seed = words[2].parse().map_err(|_| bad())?;
                    golden.trials.insert(
                        (words[1].to_string(), seed),
                        TrialResult {
                            steps: dec("steps")? as usize,
                            converged: dec("converged")? == 1,
                            fingerprint: hex(field("fp")?)?,
                        },
                    );
                }
                Some("point") if words.len() == 8 => {
                    let seed = words[2].parse().map_err(|_| bad())?;
                    let hash = hex(words[3])?;
                    golden.points.insert(
                        (words[1].to_string(), seed, hash),
                        PointResult {
                            count: dec("count")?,
                            total_steps: dec("total_steps")?,
                            non_converged: dec("non_converged")?,
                            mean_bits: hex(field("mean")?)?,
                        },
                    );
                    *golden
                        .plans
                        .entry((words[1].to_string(), seed))
                        .or_default() += 1;
                }
                _ => return Err(bad()),
            }
        }
        Ok(golden)
    }

    /// The golden of trial `(workload, seed)`.
    pub fn trial(&self, workload: Workload, seed: u64) -> Option<TrialResult> {
        self.trials
            .get(&(workload.name().to_string(), seed))
            .copied()
    }

    /// The golden of sweep point `hash` of `(workload, base_seed)`.
    pub fn point(&self, workload: Workload, base_seed: u64, hash: u64) -> Option<PointResult> {
        self.points
            .get(&(workload.name().to_string(), base_seed, hash))
            .copied()
    }

    /// True if `result` equals the golden of `(workload, seed)`; false when
    /// it differs or no golden exists.
    pub fn check_trial(&self, workload: Workload, seed: u64, result: &TrialResult) -> bool {
        self.trial(workload, seed).as_ref() == Some(result)
    }

    /// The number of sweep points that disagree with the golden of
    /// `(workload, base_seed)`: mismatching or missing points, plus golden
    /// points the sweep did not produce.
    pub fn check_sweep(
        &self,
        workload: Workload,
        base_seed: u64,
        results: &[(u64, PointResult)],
    ) -> usize {
        let mismatched = results
            .iter()
            .filter(|(hash, r)| self.point(workload, base_seed, *hash).as_ref() != Some(r))
            .count();
        let expected = self
            .plans
            .get(&(workload.name().to_string(), base_seed))
            .copied()
            .unwrap_or(0);
        mismatched + expected.saturating_sub(results.len())
    }
}

/// Renders one trial golden line.
pub fn trial_line(workload: Workload, seed: u64, r: &TrialResult) -> String {
    format!(
        "trial {} {seed} steps={} converged={} fp={:016x}",
        workload.name(),
        r.steps,
        u8::from(r.converged),
        r.fingerprint
    )
}

/// Renders the golden lines of one sweep.
pub fn sweep_lines(workload: Workload, base_seed: u64, results: &[(u64, PointResult)]) -> String {
    let mut out = String::new();
    for (hash, r) in results {
        let _ = writeln!(
            out,
            "point {} {base_seed} {hash:016x} count={} total_steps={} non_converged={} mean={:016x}",
            workload.name(),
            r.count,
            r.total_steps,
            r.non_converged,
            r.mean_bits
        );
    }
    out
}

// ---------------------------------------------------------------------------
// Small statistics helpers
// ---------------------------------------------------------------------------

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation between
/// order statistics; `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean of `values`; `NaN` when empty.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Self-time seconds per phase label across a trace report's phase tree: a
/// node's self time is its total minus its children's totals.
pub fn phase_self_s(report: &ncg_trace::TraceReport) -> HashMap<&'static str, f64> {
    fn walk(node: &ncg_trace::PhaseNode, out: &mut HashMap<&'static str, f64>) {
        let children: u64 = node.children.iter().map(|c| c.total_ns).sum();
        *out.entry(node.phase.label()).or_default() +=
            node.total_ns.saturating_sub(children) as f64 / 1e9;
        for c in &node.children {
            walk(c, out);
        }
    }
    let mut out = HashMap::new();
    for root in &report.roots {
        walk(root, &mut out);
    }
    out
}
