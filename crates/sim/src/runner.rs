//! One deterministic, seeded trial and the streaming aggregate of many.
//!
//! A *trial* generates one random initial network, runs best-response dynamics
//! under the configured move policy until a stable network is reached (or the step
//! limit fires) and records the number of steps and the kinds of moves performed.
//! Trial `t` of a point seeds its RNG stream with `base_seed + t`
//! ([`run_seeded_trial`]), so a trial's result is a pure function of the point
//! and its index, whoever runs it. Spreading trials over threads is the job of
//! the `ncg-lab` orchestrator, which uses exactly two layers of this module:
//!
//! * [`run_seeded_trial`] — one trial under the seeding convention, built on
//!   [`run_dynamics_trial_probed`], which runs the dynamics on an **already
//!   generated** initial network and returns the oracle's work counters,
//! * [`StreamingStats`] — a mergeable constant-size aggregate (count/min/max,
//!   Welford mean/variance, fixed-bucket steps-per-agent histogram) that
//!   replaces keeping every [`TrialResult`] in memory.

use crate::spec::EngineSpec;
use ncg_core::dynamics::{Dynamics, DynamicsConfig};
use ncg_core::moves::Move;
use ncg_core::policy::{Policy, TieBreak};
use ncg_core::Game;
use ncg_graph::oracle::OracleStats;
use ncg_graph::OwnedGraph;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// How many moves of each kind a trajectory contained.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MoveKindCounts {
    /// Edge deletions.
    pub deletions: usize,
    /// Edge swaps.
    pub swaps: usize,
    /// Edge purchases.
    pub purchases: usize,
    /// Whole-strategy rewrites (`SetOwned` / `SetNeighbors` moves, played by
    /// the Buy Game and the bilateral game).
    pub strategy_rewrites: usize,
}

impl MoveKindCounts {
    fn record(&mut self, mv: &Move) {
        match mv {
            Move::Delete { .. } => self.deletions += 1,
            Move::Swap { .. } => self.swaps += 1,
            Move::Buy { .. } => self.purchases += 1,
            Move::SetOwned { .. } | Move::SetNeighbors { .. } => self.strategy_rewrites += 1,
        }
    }

    /// Total number of recorded moves; equals the trajectory's step count for
    /// every game family (whole-strategy rewrites included).
    pub fn total(&self) -> usize {
        self.deletions + self.swaps + self.purchases + self.strategy_rewrites
    }

    /// Adds another count set (summing field-wise).
    pub fn merge(&mut self, other: &MoveKindCounts) {
        self.deletions += other.deletions;
        self.swaps += other.swaps;
        self.purchases += other.purchases;
        self.strategy_rewrites += other.strategy_rewrites;
    }
}

/// Result of a single trial.
#[derive(Debug, Clone, Copy)]
pub struct TrialResult {
    /// Number of improving moves until convergence (or until the step limit).
    pub steps: usize,
    /// True if a stable network was reached.
    pub converged: bool,
    /// Move-kind breakdown of the trajectory.
    pub kinds: MoveKindCounts,
}

/// Number of fixed-width buckets of the steps-per-agent histogram.
pub const STEP_HIST_BUCKETS: usize = 32;
/// Width (in steps per agent) of one histogram bucket; the last bucket
/// additionally absorbs everything beyond the covered range.
pub const STEP_HIST_BUCKET_WIDTH: f64 = 0.5;

/// The histogram bucket of a `steps / n` ratio.
pub fn step_hist_bucket(steps: usize, n: usize) -> usize {
    if n == 0 {
        return STEP_HIST_BUCKETS - 1;
    }
    let ratio = steps as f64 / n as f64;
    ((ratio / STEP_HIST_BUCKET_WIDTH) as usize).min(STEP_HIST_BUCKETS - 1)
}

/// Constant-size streaming aggregate of trial results.
///
/// `push` consumes trials one by one; `merge` combines two aggregates with
/// Chan's parallel Welford update. Merging is exact for all integer fields and
/// deterministic for the floating-point moments **given a fixed merge order**
/// — batch layers must therefore always fold their chunk aggregates in chunk
/// order (not completion order) to obtain bit-identical results independent
/// of thread count or checkpoint/resume splits.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingStats {
    /// Number of trials aggregated.
    pub count: u64,
    /// Exact sum of all step counts.
    pub total_steps: u64,
    /// Minimum steps observed (`u64::MAX` while empty).
    pub min_steps: u64,
    /// Maximum steps observed.
    pub max_steps: u64,
    /// Trials that hit the step limit without converging.
    pub non_converged: u64,
    /// Summed move-kind counts.
    pub kinds: MoveKindCounts,
    /// Welford running mean of the step count.
    pub mean: f64,
    /// Welford running sum of squared deviations.
    pub m2: f64,
    /// Fixed-bucket histogram of `steps / n` (bucket width
    /// [`STEP_HIST_BUCKET_WIDTH`], last bucket open-ended).
    pub hist: [u64; STEP_HIST_BUCKETS],
}

impl Default for StreamingStats {
    fn default() -> Self {
        StreamingStats {
            count: 0,
            total_steps: 0,
            min_steps: u64::MAX,
            max_steps: 0,
            non_converged: 0,
            kinds: MoveKindCounts::default(),
            mean: 0.0,
            m2: 0.0,
            hist: [0; STEP_HIST_BUCKETS],
        }
    }
}

impl StreamingStats {
    /// An empty aggregate.
    pub fn new() -> Self {
        StreamingStats::default()
    }

    /// Folds one trial of a point with `n` agents into the aggregate.
    pub fn push(&mut self, result: &TrialResult, n: usize) {
        let steps = result.steps as u64;
        self.count += 1;
        self.total_steps += steps;
        self.min_steps = self.min_steps.min(steps);
        self.max_steps = self.max_steps.max(steps);
        if !result.converged {
            self.non_converged += 1;
        }
        self.kinds.merge(&result.kinds);
        let delta = result.steps as f64 - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (result.steps as f64 - self.mean);
        self.hist[step_hist_bucket(result.steps, n)] += 1;
    }

    /// Merges `other` into `self` (Chan's pairwise Welford combination).
    pub fn merge(&mut self, other: &StreamingStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let (na, nb) = (self.count as f64, other.count as f64);
        let delta = other.mean - self.mean;
        let total = na + nb;
        self.mean += delta * (nb / total);
        self.m2 += other.m2 + delta * delta * (na * nb / total);
        self.count += other.count;
        self.total_steps += other.total_steps;
        self.min_steps = self.min_steps.min(other.min_steps);
        self.max_steps = self.max_steps.max(other.max_steps);
        self.non_converged += other.non_converged;
        self.kinds.merge(&other.kinds);
        for (a, b) in self.hist.iter_mut().zip(other.hist.iter()) {
            *a += b;
        }
    }

    /// Sample standard deviation of the step count (0 for fewer than two trials).
    pub fn std_dev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).sqrt()
        }
    }

    /// Collapses the aggregate into the figure pipeline's [`PointSummary`].
    pub fn summary(&self, n: usize) -> PointSummary {
        PointSummary {
            n,
            trials: self.count as usize,
            avg_steps: if self.count == 0 {
                0.0
            } else {
                self.total_steps as f64 / self.count as f64
            },
            max_steps: self.max_steps as usize,
            min_steps: if self.count == 0 {
                0
            } else {
                self.min_steps as usize
            },
            non_converged: self.non_converged as usize,
            kinds: self.kinds,
        }
    }
}

/// Aggregated results of all trials of a sweep point.
#[derive(Debug, Clone)]
pub struct PointSummary {
    /// Number of agents.
    pub n: usize,
    /// Number of trials.
    pub trials: usize,
    /// Average number of steps until convergence.
    pub avg_steps: f64,
    /// Maximum number of steps observed.
    pub max_steps: usize,
    /// Minimum number of steps observed.
    pub min_steps: usize,
    /// Number of trials that did *not* converge within the step limit
    /// (the paper never observed any; neither do we).
    pub non_converged: usize,
    /// Summed move-kind counts over all trials.
    pub kinds: MoveKindCounts,
}

impl PointSummary {
    /// Average steps per agent (`avg_steps / n`), the quantity the paper's
    /// "converges in O(n) steps" observation is about.
    pub fn avg_steps_per_agent(&self) -> f64 {
        self.avg_steps / self.n as f64
    }
}

/// Runs best-response dynamics on an **already generated** initial network
/// until convergence or `max_steps`, returning the oracle's work counters for
/// the whole trial beside the result (ablation probes; the counters never
/// influence the trajectory). This is the execution core under
/// [`run_seeded_trial_probed`], which every trial of the `ncg-lab`
/// orchestrator goes through.
///
/// `rng` must be the trial's seeded stream, already advanced past topology
/// generation. The engine in `engine` never influences the trajectory: it
/// only decides how candidate moves are scored.
pub fn run_dynamics_trial_probed(
    game: &(dyn Game + Send + Sync),
    initial: OwnedGraph,
    policy: Policy,
    engine: EngineSpec,
    max_steps: usize,
    rng: &mut StdRng,
) -> (TrialResult, OracleStats) {
    // One span per trial: the dynamics' scan/apply spans and the oracle's
    // phases all nest beneath it, so a harvested `TraceReport` reads as a
    // per-trial phase tree.
    let _sp = ncg_trace::span(ncg_trace::Phase::Trial);
    let config = DynamicsConfig {
        policy,
        tie_break: TieBreak::Random,
        max_steps,
        detect_cycles: false,
        record_trajectory: false,
        ownership_in_state: true,
        oracle: engine.oracle,
    };
    let mut dynamics = Dynamics::new(game, initial, config);
    let mut kinds = MoveKindCounts::default();
    let mut steps = 0usize;
    let converged = loop {
        if steps >= max_steps {
            break false;
        }
        match dynamics.step(rng) {
            Some(record) => {
                kinds.record(&record.mv);
                steps += 1;
            }
            None => break true,
        }
    };
    let stats = dynamics.oracle_stats();
    (
        TrialResult {
            steps,
            converged,
            kinds,
        },
        stats,
    )
}

/// **The** trial-seeding convention, shared by every batch layer: trial `t`
/// seeds its RNG stream with `base_seed + t`, `generate` consumes whatever
/// randomness it needs for the initial network, and the dynamics continue on
/// the *same* stream. Checkpoint/resume exactness rests on every executor
/// deriving trials this way and only this way.
pub fn run_seeded_trial(
    game: &(dyn Game + Send + Sync),
    policy: Policy,
    engine: EngineSpec,
    max_steps: usize,
    base_seed: u64,
    trial_index: usize,
    generate: impl FnOnce(&mut StdRng) -> OwnedGraph,
) -> TrialResult {
    run_seeded_trial_probed(
        game,
        policy,
        engine,
        max_steps,
        base_seed,
        trial_index,
        generate,
    )
    .0
}

/// Like [`run_seeded_trial`], additionally returning the trial's oracle work
/// counters — the single place the trial-seeding convention is implemented.
#[allow(clippy::too_many_arguments)]
pub fn run_seeded_trial_probed(
    game: &(dyn Game + Send + Sync),
    policy: Policy,
    engine: EngineSpec,
    max_steps: usize,
    base_seed: u64,
    trial_index: usize,
    generate: impl FnOnce(&mut StdRng) -> OwnedGraph,
) -> (TrialResult, OracleStats) {
    let mut rng = StdRng::seed_from_u64(base_seed.wrapping_add(trial_index as u64));
    let initial = {
        let _sp = ncg_trace::span(ncg_trace::Phase::Setup);
        generate(&mut rng)
    };
    run_dynamics_trial_probed(game, initial, policy, engine, max_steps, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AlphaSpec, GameFamily, InitialTopology};
    use ncg_core::policy::Policy;

    /// Agents of every test trial.
    const N: usize = 14;

    /// Trial `t` of a 14-agent point: α = n/4, base seed 99, step limit 200·n.
    fn run_trial(
        family: GameFamily,
        topology: InitialTopology,
        policy: Policy,
        trial_index: usize,
    ) -> TrialResult {
        let game = family.make_game(N, AlphaSpec::FractionOfN(0.25).resolve(N));
        run_seeded_trial(
            game.as_ref(),
            policy,
            EngineSpec::default(),
            200 * N,
            99,
            trial_index,
            |rng| topology.generate(N, rng),
        )
    }

    #[test]
    fn trials_are_reproducible() {
        let trial = |t| {
            run_trial(
                GameFamily::AsgSum,
                InitialTopology::Budgeted { k: 2 },
                Policy::MaxCost,
                t,
            )
        };
        let a = trial(3);
        let b = trial(3);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.kinds, b.kinds);
    }

    #[test]
    fn asg_trials_only_swap() {
        let r = run_trial(
            GameFamily::AsgMax,
            InitialTopology::Budgeted { k: 1 },
            Policy::Random,
            0,
        );
        assert!(r.converged);
        assert_eq!(r.kinds.deletions, 0);
        assert_eq!(r.kinds.purchases, 0);
        assert_eq!(r.kinds.strategy_rewrites, 0);
        assert_eq!(r.kinds.swaps, r.steps);
    }

    #[test]
    fn gbg_trials_converge_and_count_kinds() {
        let r = run_trial(
            GameFamily::GbgSum,
            InitialTopology::RandomEdges { m_per_n: 2 },
            Policy::MaxCost,
            1,
        );
        assert!(r.converged);
        assert_eq!(r.kinds.total(), r.steps);
    }

    #[test]
    fn strategy_rewrites_are_counted_towards_the_total() {
        // `SetOwned` / `SetNeighbors` moves (Buy-Game whole-strategy changes)
        // used to be dropped silently, breaking `total() == steps`.
        let mut kinds = MoveKindCounts::default();
        kinds.record(&Move::Buy { to: 3 });
        kinds.record(&Move::SetOwned {
            new_owned: vec![1, 2],
        });
        kinds.record(&Move::SetNeighbors {
            new_neighbors: vec![0],
        });
        assert_eq!(kinds.purchases, 1);
        assert_eq!(kinds.strategy_rewrites, 2);
        assert_eq!(kinds.total(), 3);
    }

    #[test]
    fn streaming_stats_match_batch_summary_and_merge_orderly() {
        let results: Vec<TrialResult> = (0..6)
            .map(|t| {
                run_trial(
                    GameFamily::AsgSum,
                    InitialTopology::Budgeted { k: 2 },
                    Policy::MaxCost,
                    t,
                )
            })
            .collect();
        // One pass over everything…
        let mut whole = StreamingStats::new();
        for r in &results {
            whole.push(r, N);
        }
        // …must equal chunked accumulation merged in chunk order.
        let mut merged = StreamingStats::new();
        for chunk in results.chunks(2) {
            let mut part = StreamingStats::new();
            for r in chunk {
                part.push(r, N);
            }
            merged.merge(&part);
        }
        assert_eq!(whole.count, merged.count);
        assert_eq!(whole.total_steps, merged.total_steps);
        assert_eq!(whole.hist, merged.hist);
        assert!((whole.mean - merged.mean).abs() < 1e-9);
        assert!((whole.std_dev() - merged.std_dev()).abs() < 1e-9);
        // The summary collapses the same trials.
        let steps = || results.iter().map(|r| r.steps);
        let summary = whole.summary(N);
        assert_eq!(summary.trials, results.len());
        assert_eq!(summary.avg_steps, steps().sum::<usize>() as f64 / 6.0);
        assert_eq!(Some(summary.max_steps), steps().max());
        assert_eq!(Some(summary.min_steps), steps().min());
        let mut kinds = MoveKindCounts::default();
        for r in &results {
            kinds.merge(&r.kinds);
        }
        assert_eq!(summary.kinds, kinds);
        // Histogram sanity: every trial landed in exactly one bucket.
        assert_eq!(whole.hist.iter().sum::<u64>(), whole.count);
    }

    #[test]
    fn empty_streaming_stats_collapse_safely() {
        let stats = StreamingStats::new();
        let s = stats.summary(10);
        assert_eq!(s.trials, 0);
        assert_eq!(s.avg_steps, 0.0);
        assert_eq!(s.min_steps, 0);
        assert_eq!(stats.std_dev(), 0.0);
        let mut merged = StreamingStats::new();
        merged.merge(&stats);
        assert_eq!(merged, StreamingStats::new());
    }
}
