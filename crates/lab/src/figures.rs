//! The paper's empirical figures (Fig. 7, 8 and 11–14) as sweep plans, and
//! the rendering of their results as plain-text tables and CSV.
//!
//! Every figure is one cartesian [`SweepPlan`], run by
//! [`run_sweep`](crate::run_sweep) like any other plan: journaled, resumable
//! and shardable. Each *series* of a figure (one curve per legend entry) is
//! one grid cell swept over `n`; since `n` is the innermost axis of
//! [`SweepPlan::flatten`], a series is a run of consecutive points that
//! differ only in `n`. The paper uses `n = 10, 20, …, 100` with 10,000
//! trials per configuration for the ASG figures and 5,000 for the GBG
//! figures. Those trial counts take hours on a laptop, so
//! [`FigureDef::scaled`] lets callers trade trials and sweep density for
//! runtime while keeping the shape of the curves; the regeneration binaries
//! in `ncg-bench` expose this on the command line and default to a
//! CI-friendly scale.

use crate::orchestrator::SweepOutcome;
use crate::plan::{SweepPlan, SweepPoint};
use crate::scenario::Scenario;
use ncg_core::policy::Policy;
use ncg_sim::{AlphaSpec, EngineSpec, GameFamily, InitialTopology, PointSummary};
use std::fmt::Write as _;

/// A reference envelope plotted next to the data: a label and its `f(n)`.
pub type Envelope = (&'static str, fn(f64) -> f64);

/// A full figure: its name, the sweep plan behind its series and the
/// reference envelopes the paper plots next to the data (e.g. `f(n) = 5n`).
#[derive(Debug, Clone)]
pub struct FigureDef {
    /// Identifier, e.g. `"fig07"`.
    pub id: &'static str,
    /// The caption-style title.
    pub title: &'static str,
    /// The grid: one series per (scenario, family, α, policy) cell, each
    /// swept over `plan.ns`.
    pub plan: SweepPlan,
    /// Reference envelopes as `(label, f(n))` pairs.
    pub envelopes: Vec<Envelope>,
}

impl FigureDef {
    /// Scales the figure for a quicker run: caps `n` at `max_n`, keeps every
    /// `n_stride`-th remaining sweep point and uses `trials` trials per point.
    pub fn scaled(mut self, max_n: usize, n_stride: usize, trials: usize) -> Self {
        let kept = self.plan.ns.iter().filter(|&&n| n <= max_n);
        self.plan.ns = kept.step_by(n_stride.max(1)).copied().collect();
        self.plan.set_trials(trials);
        self
    }
}

/// Values of `n` used by the paper's sweeps.
pub fn paper_n_values() -> Vec<usize> {
    (1..=10).map(|i| i * 10).collect()
}

const PAPER_ASG_TRIALS: usize = 10_000;
const PAPER_GBG_TRIALS: usize = 5_000;
/// Generous step limit (`max_steps = factor · n`); the paper observed convergence
/// within 5n–8n steps.
const STEP_FACTOR: usize = 400;

/// The plan of one figure: `family` from each of `topologies`, under each of
/// `alphas` and both policies, over the paper's `n` axis on the default
/// engine.
fn figure_plan(
    id: &str,
    family: GameFamily,
    topologies: &[InitialTopology],
    alphas: &[AlphaSpec],
    trials: usize,
    base_seed: u64,
) -> SweepPlan {
    let mut plan = SweepPlan::new(id);
    plan.scenarios = topologies.iter().copied().map(Scenario::Paper).collect();
    plan.families = vec![family];
    plan.policies = vec![Policy::MaxCost, Policy::Random];
    plan.alphas = alphas.to_vec();
    plan.ns = paper_n_values();
    plan.base_seed = base_seed;
    plan.max_steps_factor = STEP_FACTOR;
    plan.engine = EngineSpec::default();
    plan.set_trials(trials);
    plan
}

/// Fig. 7: SUM-ASG with budget `k`, both policies, envelope `5n`.
pub fn fig07() -> FigureDef {
    budgeted_figure(
        "fig07",
        "Steps until convergence, SUM-ASG, budget = k",
        GameFamily::AsgSum,
    )
}

/// Fig. 8: MAX-ASG with budget `k`, both policies, envelopes `5n` and `n log n`.
pub fn fig08() -> FigureDef {
    let mut fig = budgeted_figure(
        "fig08",
        "Steps until convergence, MAX-ASG, budget = k",
        GameFamily::AsgMax,
    );
    fig.envelopes.push(("n log n", |n| n * n.log2()));
    fig
}

fn budgeted_figure(id: &'static str, title: &'static str, family: GameFamily) -> FigureDef {
    let budgets = [1usize, 2, 3, 4, 5, 6, 10].map(|k| InitialTopology::Budgeted { k });
    // The swap games take no α; `flatten` collapses the axis to this value.
    let no_alpha = [AlphaSpec::Fixed(0.0)];
    FigureDef {
        id,
        title,
        plan: figure_plan(id, family, &budgets, &no_alpha, PAPER_ASG_TRIALS, 1000),
        envelopes: vec![("5n", |n| 5.0 * n)],
    }
}

/// Fig. 11: SUM-GBG, `m ∈ {n, 4n}`, `α ∈ {n/10, n/4, n}`, both policies,
/// envelope `7n`.
pub fn fig11() -> FigureDef {
    gbg_density_figure(
        "fig11",
        "Steps until convergence, SUM-GBG",
        GameFamily::GbgSum,
        ("7n", |n| 7.0 * n),
    )
}

/// Fig. 13: MAX-GBG, as Fig. 11, envelope `8n`.
pub fn fig13() -> FigureDef {
    gbg_density_figure(
        "fig13",
        "Steps until convergence, MAX-GBG",
        GameFamily::GbgMax,
        ("8n", |n| 8.0 * n),
    )
}

fn gbg_density_figure(
    id: &'static str,
    title: &'static str,
    family: GameFamily,
    envelope: Envelope,
) -> FigureDef {
    let densities = [1usize, 4].map(|m_per_n| InitialTopology::RandomEdges { m_per_n });
    let alphas = [0.1, 0.25, 1.0].map(AlphaSpec::FractionOfN);
    FigureDef {
        id,
        title,
        plan: figure_plan(id, family, &densities, &alphas, PAPER_GBG_TRIALS, 2000),
        envelopes: vec![envelope],
    }
}

/// Fig. 12: SUM-GBG starting-topology comparison (`random` / `rl` / `dl`) for
/// `α ∈ {n/10, n/4, n/2, n}`, envelope `3n`.
pub fn fig12() -> FigureDef {
    topology_comparison_figure(
        "fig12",
        "Starting-topology comparison, SUM-GBG",
        GameFamily::GbgSum,
        ("3n", |n| 3.0 * n),
    )
}

/// Fig. 14: MAX-GBG starting-topology comparison, envelope `6n`.
pub fn fig14() -> FigureDef {
    topology_comparison_figure(
        "fig14",
        "Starting-topology comparison, MAX-GBG",
        GameFamily::GbgMax,
        ("6n", |n| 6.0 * n),
    )
}

fn topology_comparison_figure(
    id: &'static str,
    title: &'static str,
    family: GameFamily,
    envelope: Envelope,
) -> FigureDef {
    let topologies = [
        InitialTopology::RandomEdges { m_per_n: 1 },
        InitialTopology::RandomLine,
        InitialTopology::DirectedLine,
    ];
    let alphas = [0.1, 0.25, 0.5, 1.0].map(AlphaSpec::FractionOfN);
    FigureDef {
        id,
        title,
        plan: figure_plan(id, family, &topologies, &alphas, PAPER_GBG_TRIALS, 3000),
        envelopes: vec![envelope],
    }
}

/// All empirical figures of the paper.
pub fn all_figures() -> Vec<FigureDef> {
    vec![fig07(), fig08(), fig11(), fig12(), fig13(), fig14()]
}

/// Looks a figure up by its id (`"fig07"`, …, `"fig14"`).
pub fn figure(id: &str) -> Option<FigureDef> {
    all_figures().into_iter().find(|f| f.id == id)
}

/// Measured data of one series (curve) of a figure.
#[derive(Debug, Clone)]
pub struct SeriesData {
    /// Legend label.
    pub label: String,
    /// One summary per sweep point.
    pub points: Vec<PointSummary>,
}

/// Measured data of one figure.
#[derive(Debug, Clone)]
pub struct FigureData {
    /// Figure identifier (`"fig07"`, …).
    pub id: String,
    /// Caption-style title.
    pub title: String,
    /// All measured series.
    pub series: Vec<SeriesData>,
}

impl FigureData {
    /// Collects a run of `def.plan` into the figure's series: every run of
    /// consecutive points that differ only in `n` is one series, labelled as
    /// in the paper's legends (`k=2 max cost`, `m=1n, a=n/10, max cost`).
    pub fn from_outcome(def: &FigureDef, outcome: &SweepOutcome) -> Self {
        let series = outcome
            .points
            .chunk_by(|a, b| same_series(&a.point, &b.point))
            .map(|run| SeriesData {
                label: series_label(&run[0].point),
                points: run.iter().map(|p| p.stats.summary(p.point.n)).collect(),
            })
            .collect();
        FigureData {
            id: def.id.to_string(),
            title: def.title.to_string(),
            series,
        }
    }

    /// True if at least one trial ran and every trial of every point
    /// converged (the paper's headline empirical observation). A figure
    /// without trials observed nothing, so it claims nothing.
    pub fn all_converged(&self) -> bool {
        let mut points = self.series.iter().flat_map(|s| &s.points);
        points.clone().any(|p| p.trials > 0) && points.all(|p| p.non_converged == 0)
    }

    /// The largest observed `max_steps / n` ratio over all series and points —
    /// comparable to the paper's 5n / 7n / 8n envelopes.
    pub fn worst_steps_per_agent(&self) -> f64 {
        self.series
            .iter()
            .flat_map(|s| s.points.iter())
            .map(|p| p.max_steps as f64 / p.n as f64)
            .fold(0.0, f64::max)
    }
}

/// True if two points belong to one series: they differ at most in `n`.
fn same_series(a: &SweepPoint, b: &SweepPoint) -> bool {
    a.scenario == b.scenario && a.family == b.family && a.alpha == b.alpha && a.policy == b.policy
}

/// The legend label of a point's series.
fn series_label(p: &SweepPoint) -> String {
    if p.family.needs_alpha() {
        format!(
            "{}, a={}, {}",
            p.scenario.label(),
            p.alpha.label(),
            p.policy.label()
        )
    } else {
        format!("{} {}", p.scenario.label(), p.policy.label())
    }
}

/// Renders the measured data as a plain-text table: one block per series with the
/// average and maximum steps per `n`, next to the paper's envelopes.
pub fn render_table(def: &FigureDef, data: &FigureData) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{} ({})", data.title, data.id);
    let _ = writeln!(out, "{}", "=".repeat(data.title.len() + data.id.len() + 3));
    for series in &data.series {
        let _ = writeln!(out, "\nseries: {}", series.label);
        let _ = write!(
            out,
            "{:>6} {:>12} {:>10} {:>10}",
            "n", "avg steps", "max", "trials"
        );
        for (label, _) in &def.envelopes {
            let _ = write!(out, " {:>10}", label);
        }
        let _ = writeln!(out);
        for p in &series.points {
            let _ = write!(
                out,
                "{:>6} {:>12.2} {:>10} {:>10}",
                p.n, p.avg_steps, p.max_steps, p.trials
            );
            for (_, f) in &def.envelopes {
                let _ = write!(out, " {:>10.1}", f(p.n as f64));
            }
            let _ = writeln!(out);
        }
    }
    let _ = writeln!(
        out,
        "\nall trials converged: {}   worst max-steps/n: {:.2}",
        data.all_converged(),
        data.worst_steps_per_agent()
    );
    out
}

/// Renders the measured data as CSV with one row per (series, n) pair.
pub fn render_csv(data: &FigureData) -> String {
    let mut out = String::from(
        "figure,series,n,trials,avg_steps,max_steps,min_steps,non_converged,deletions,swaps,purchases,strategy_rewrites\n",
    );
    for series in &data.series {
        for p in &series.points {
            let _ = writeln!(
                out,
                "{},{},{},{},{:.4},{},{},{},{},{},{},{}",
                data.id,
                series.label.replace(',', ";"),
                p.n,
                p.trials,
                p.avg_steps,
                p.max_steps,
                p.min_steps,
                p.non_converged,
                p.kinds.deletions,
                p.kinds.swaps,
                p.kinds.purchases,
                p.kinds.strategy_rewrites
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orchestrator::{run_sweep, RunOptions};
    use ncg_sim::MoveKindCounts;

    /// Runs a figure's plan on two workers and collects its series.
    fn measure(def: &FigureDef) -> FigureData {
        let opts = RunOptions {
            threads: Some(2),
            ..RunOptions::default()
        };
        let outcome = run_sweep(&def.plan, &opts).expect("a sweep without a journal does no I/O");
        assert!(outcome.completed);
        FigureData::from_outcome(def, &outcome)
    }

    #[test]
    fn figure_lookup() {
        assert!(figure("fig07").is_some());
        assert!(figure("fig13").is_some());
        assert!(figure("fig99").is_none());
        assert_eq!(all_figures().len(), 6);
    }

    #[test]
    fn figure_definitions_follow_the_paper() {
        let series = |plan: &SweepPlan| plan.flatten().len() / plan.ns.len();
        let f7 = fig07().plan;
        // 7 budgets × 2 policies.
        assert_eq!(series(&f7), 14);
        assert_eq!(f7.ns.len(), 10);
        assert_eq!(f7.ns[0], 10);
        assert_eq!(f7.ns[9], 100);
        assert_eq!(f7.trials, 10_000);
        let f11 = fig11().plan;
        assert_eq!(f11.trials, 5_000);
        let f12 = fig12().plan;
        assert_eq!(series(&f12), 2 * 3 * 4);
    }

    #[test]
    fn scaling_reduces_work() {
        let f = fig07().scaled(40, 2, 5);
        assert_eq!(f.plan.ns, [10, 30], "n = 10 and n = 30 survive the stride");
        assert_eq!(f.plan.chunk_size, 2, "four chunks per point");
        for p in f.plan.flatten() {
            assert!(p.n <= 40 && p.trials == 5);
        }
    }

    #[test]
    fn a_figure_without_trials_does_not_claim_convergence() {
        // No `n` survives max_n = 5; at trials = 0 every point is empty.
        for def in [fig07().scaled(5, 1, 2), fig07().scaled(10, 1, 0)] {
            let data = measure(&def);
            assert!(!data.all_converged(), "{:?}", def.plan.ns);
            assert!(render_table(&def, &data).contains("all trials converged: false"));
        }
    }

    #[test]
    fn tiny_run_of_fig07_converges_everywhere() {
        let f = fig07().scaled(12, 10, 2);
        let data = measure(&f);
        assert_eq!(data.series.len(), 14);
        assert_eq!(data.series[2].label, "k=2 max cost");
        assert_eq!(data.series[3].label, "k=2 random");
        for s in &data.series {
            for p in &s.points {
                assert_eq!(p.non_converged, 0, "series {} must converge", s.label);
            }
        }
    }

    /// A fixed two-series figure with hand-picked numbers, for golden tests.
    fn fixture() -> (FigureDef, FigureData) {
        let def = FigureDef {
            id: "figXX",
            title: "Golden fixture",
            plan: SweepPlan::new("figXX"),
            envelopes: vec![("5n", |n| 5.0 * n)],
        };
        let point = |n: usize, trials, avg, max, min, kinds| PointSummary {
            n,
            trials,
            avg_steps: avg,
            max_steps: max,
            min_steps: min,
            non_converged: 0,
            kinds,
        };
        let data = FigureData {
            id: "figXX".to_string(),
            title: "Golden fixture".to_string(),
            series: vec![
                SeriesData {
                    label: "k=1, max cost".to_string(),
                    points: vec![
                        point(
                            10,
                            4,
                            12.5,
                            20,
                            7,
                            MoveKindCounts {
                                deletions: 3,
                                swaps: 40,
                                purchases: 7,
                                strategy_rewrites: 0,
                            },
                        ),
                        point(
                            20,
                            4,
                            30.25,
                            44,
                            21,
                            MoveKindCounts {
                                deletions: 10,
                                swaps: 100,
                                purchases: 11,
                                strategy_rewrites: 0,
                            },
                        ),
                    ],
                },
                SeriesData {
                    label: "rewrites".to_string(),
                    points: vec![point(
                        10,
                        2,
                        3.0,
                        4,
                        2,
                        MoveKindCounts {
                            deletions: 0,
                            swaps: 0,
                            purchases: 1,
                            strategy_rewrites: 5,
                        },
                    )],
                },
            ],
        };
        (def, data)
    }

    #[test]
    fn golden_plain_text_table() {
        let (def, data) = fixture();
        let expected = "\
Golden fixture (figXX)
======================

series: k=1, max cost
     n    avg steps        max     trials         5n
    10        12.50         20          4       50.0
    20        30.25         44          4      100.0

series: rewrites
     n    avg steps        max     trials         5n
    10         3.00          4          2       50.0

all trials converged: true   worst max-steps/n: 2.20
";
        assert_eq!(render_table(&def, &data), expected);
    }

    #[test]
    fn golden_csv() {
        let (_, data) = fixture();
        let expected = "\
figure,series,n,trials,avg_steps,max_steps,min_steps,non_converged,deletions,swaps,purchases,strategy_rewrites
figXX,k=1; max cost,10,4,12.5000,20,7,0,3,40,7,0
figXX,k=1; max cost,20,4,30.2500,44,21,0,10,100,11,0
figXX,rewrites,10,2,3.0000,4,2,0,0,0,1,5
";
        assert_eq!(render_csv(&data), expected);
    }

    #[test]
    fn csv_escapes_commas_and_counts_rows() {
        let (_, data) = fixture();
        let csv = render_csv(&data);
        assert_eq!(csv.lines().count(), 4, "header + three points");
        assert!(
            !csv.lines().any(|l| l.split(',').count() != 12),
            "every row has exactly the header's 12 columns"
        );
    }

    #[test]
    fn measure_and_render_a_tiny_figure() {
        let def = fig11().scaled(12, 20, 2);
        let data = measure(&def);
        assert_eq!(data.series[0].label, "m=1n, a=n/10, max cost");
        assert!(data.all_converged());
        assert!(data.worst_steps_per_agent() < 20.0);
        let table = render_table(&def, &data);
        assert!(table.contains("SUM-GBG"));
        assert!(table.contains("avg steps"));
        assert!(table.contains("7n"));
        let csv = render_csv(&data);
        assert!(csv.lines().count() > 1);
        assert!(csv.starts_with("figure,series,n"));
    }
}
