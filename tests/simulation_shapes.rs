//! Integration tests reproducing the *qualitative shape* of the paper's empirical
//! study (Fig. 7, 8, 11–14) at a reduced scale:
//!
//! * every simulated run converges (no better-response cycle is ever encountered),
//! * convergence takes a small constant number of steps per agent (the paper's
//!   envelopes are 5n for the ASG, 7n / 8n for the GBG density and α sweeps,
//!   3n / 6n for the GBG starting topologies),
//! * for the SUM games the max cost policy is at least as fast as the random
//!   policy on average,
//! * for the GBG the directed-line start (`dl`) is not slower than the random
//!   start in the SUM version (Fig. 12's counter-intuitive finding).
//!
//! Every cell runs as a `SweepPlan` through `run_sweep`, the path the figure
//! binaries take.

use ncg_lab::figures::{fig07, render_table, FigureData};
use ncg_lab::{run_sweep, PointOutcome, RunOptions, Scenario, SweepPlan, SweepPoint};
use ncg_sim::{AlphaSpec, GameFamily, InitialTopology};
use selfish_ncg::prelude::Policy;

/// A plan over `families × topologies × alphas × policies` at every `n` of
/// `ns`, with a step limit of 400·n on the default engine.
fn plan(
    families: &[GameFamily],
    topologies: &[InitialTopology],
    alphas: &[AlphaSpec],
    policies: &[Policy],
    ns: &[usize],
    trials: usize,
    base_seed: u64,
) -> SweepPlan {
    let mut plan = SweepPlan::new("shape");
    plan.families = families.to_vec();
    plan.scenarios = topologies.iter().copied().map(Scenario::Paper).collect();
    plan.alphas = alphas.to_vec();
    plan.policies = policies.to_vec();
    plan.ns = ns.to_vec();
    plan.trials = trials;
    plan.base_seed = base_seed;
    plan
}

/// Runs every point of `plan` to completion.
fn run(plan: &SweepPlan) -> Vec<PointOutcome> {
    let outcome = run_sweep(plan, &RunOptions::default()).expect("no journal, no I/O");
    assert!(outcome.completed);
    outcome.points
}

/// Runs `plan` and asserts that every trial of every point converged within
/// `line(point) · n` steps.
fn assert_within_line(plan: &SweepPlan, line: impl Fn(&SweepPoint) -> u64) -> Vec<PointOutcome> {
    let points = run(plan);
    for p in &points {
        let (cell, line) = (p.point.label(), line(&p.point));
        assert_eq!(p.stats.non_converged, 0, "{cell}");
        assert!(
            p.stats.max_steps <= line * p.point.n as u64,
            "{cell}: {} steps exceeds the {line}n line",
            p.stats.max_steps
        );
    }
    points
}

const BOTH_POLICIES: [Policy; 2] = [Policy::MaxCost, Policy::Random];
const NO_ALPHA: [AlphaSpec; 1] = [AlphaSpec::Fixed(0.0)];

fn budgets(ks: &[usize]) -> Vec<InitialTopology> {
    ks.iter()
        .map(|&k| InitialTopology::Budgeted { k })
        .collect()
}

#[test]
fn fig07_shape_sum_asg_converges_within_5n() {
    let plan = plan(
        &[GameFamily::AsgSum],
        &budgets(&[1, 2, 3]),
        &NO_ALPHA,
        &BOTH_POLICIES,
        &[30],
        15,
        100,
    );
    assert_within_line(&plan, |_| 5);
}

#[test]
fn fig08_shape_max_asg_converges_within_5n() {
    let plan = plan(
        &[GameFamily::AsgMax],
        &budgets(&[1, 3]),
        &NO_ALPHA,
        &BOTH_POLICIES,
        &[30],
        15,
        200,
    );
    assert_within_line(&plan, |_| 5);
}

#[test]
fn fig11_fig13_shape_gbg_converges_linearly() {
    let plan = plan(
        &[GameFamily::GbgSum, GameFamily::GbgMax],
        &[1, 4].map(|m_per_n| InitialTopology::RandomEdges { m_per_n }),
        &[AlphaSpec::FractionOfN(0.25)],
        &[Policy::MaxCost],
        &[25],
        12,
        300,
    );
    let envelope = |p: &SweepPoint| if p.family == GameFamily::GbgSum { 7 } else { 8 };
    for p in assert_within_line(&plan, envelope) {
        // Dense starts require deletions (a star-like equilibrium has ~n-1 edges).
        if p.point.scenario == Scenario::Paper(InitialTopology::RandomEdges { m_per_n: 4 }) {
            assert!(p.stats.kinds.deletions > 0, "{}", p.point.label());
        }
    }
}

#[test]
fn sum_games_max_cost_policy_not_slower_than_random() {
    // Fig. 7 and Fig. 11: in the SUM versions the max cost policy converges at
    // least as fast (on average) as the random policy. Allow a small tolerance
    // because our trial counts are far below the paper's 10,000.
    let plan = plan(
        &[GameFamily::AsgSum],
        &budgets(&[2]),
        &NO_ALPHA,
        &BOTH_POLICIES,
        &[40],
        20,
        4242,
    );
    let points = run(&plan);
    let avg_steps = |policy| {
        let p = points.iter().find(|p| p.point.policy == policy);
        let p = p.expect("the plan runs both policies");
        p.stats.summary(p.point.n).avg_steps
    };
    let (max_cost, random) = (avg_steps(Policy::MaxCost), avg_steps(Policy::Random));
    assert!(
        max_cost <= random * 1.15,
        "max cost ({max_cost:.1}) should not be slower than random ({random:.1})"
    );
}

#[test]
fn fig12_shape_directed_line_not_slower_than_random_start() {
    // Fig. 12's surprising observation: for the SUM-GBG the dl start converges
    // at least as fast as the random start (the authors expected the opposite).
    let plan = plan(
        &[GameFamily::GbgSum],
        &[
            InitialTopology::DirectedLine,
            InitialTopology::RandomEdges { m_per_n: 1 },
        ],
        &[AlphaSpec::FractionOfN(0.25)],
        &[Policy::MaxCost],
        &[30],
        12,
        777,
    );
    let [dl, random] = &run(&plan)[..] else {
        panic!("the plan has one point per start");
    };
    assert_eq!(dl.stats.non_converged + random.stats.non_converged, 0);
    assert!(
        dl.stats.max_steps as f64 <= random.stats.max_steps as f64 * 1.5 + 10.0,
        "dl ({}) should be in the same regime as random ({})",
        dl.stats.max_steps,
        random.stats.max_steps
    );
}

#[test]
fn fig12_fig14_shape_gbg_starts_stay_within_3n_and_6n() {
    // Fig. 12 (SUM-GBG) draws a 3n line and Fig. 14 (MAX-GBG) a 6n line over
    // the three starting topologies. Only the max cost policy is checked: at
    // α = n/10 the random policy's SUM-GBG maximum reaches 4.3–5.6n at
    // n = 20–30 over 2 000 trials, and which policy's series the paper's
    // 3n line bounds is still open, so that crossing is asserted neither way.
    let plan = plan(
        &[GameFamily::GbgSum, GameFamily::GbgMax],
        &[
            InitialTopology::RandomEdges { m_per_n: 1 },
            InitialTopology::RandomLine,
            InitialTopology::DirectedLine,
        ],
        &[AlphaSpec::FractionOfN(0.25)],
        &[Policy::MaxCost],
        &[30],
        12,
        777,
    );
    assert_within_line(
        &plan,
        |p| if p.family == GameFamily::GbgSum { 3 } else { 6 },
    );
}

#[test]
fn single_trial_figure_cells_converge_at_their_seeds() {
    // One trial per cell: SUM-ASG under both policies and MAX-ASG under max
    // cost from budget-k starts (plan seed 42), then SUM- and MAX-GBG under
    // max cost (plan seed 7) over the density × α grid of Figs. 11/13 and the
    // starting topologies of Figs. 12/14. The 32 cells form four grids.
    let gbg = [GameFamily::GbgSum, GameFamily::GbgMax];
    let plans = [
        plan(
            &[GameFamily::AsgSum],
            &budgets(&[1, 2, 4]),
            &NO_ALPHA,
            &BOTH_POLICIES,
            &[20, 40],
            1,
            42,
        ),
        plan(
            &[GameFamily::AsgMax],
            &budgets(&[1, 2, 4]),
            &NO_ALPHA,
            &[Policy::MaxCost],
            &[20, 40],
            1,
            42,
        ),
        plan(
            &gbg,
            &[1, 4].map(|m_per_n| InitialTopology::RandomEdges { m_per_n }),
            &[AlphaSpec::FractionOfN(0.1), AlphaSpec::FractionOfN(1.0)],
            &[Policy::MaxCost],
            &[30],
            1,
            7,
        ),
        plan(
            &gbg,
            &[
                InitialTopology::RandomEdges { m_per_n: 1 },
                InitialTopology::RandomLine,
                InitialTopology::DirectedLine,
            ],
            &[AlphaSpec::FractionOfN(0.25)],
            &[Policy::MaxCost],
            &[30],
            1,
            7,
        ),
    ];
    let cells: Vec<PointOutcome> = plans.iter().flat_map(run).collect();
    assert_eq!(cells.len(), 32);
    for p in cells {
        assert_eq!(p.stats.non_converged, 0, "{}", p.point.label());
    }
}

#[test]
fn figure_harness_runs_end_to_end_at_tiny_scale() {
    // Smoke test of the full Fig. 7 pipeline (figure plan -> run_sweep -> report).
    let def = fig07().scaled(20, 4, 3);
    let outcome = run_sweep(&def.plan, &RunOptions::default()).expect("no journal, no I/O");
    let data = FigureData::from_outcome(&def, &outcome);
    assert!(
        data.all_converged(),
        "no better-response cycle may be encountered"
    );
    assert!(data.worst_steps_per_agent() <= 5.0);
    let table = render_table(&def, &data);
    assert!(table.contains("all trials converged: true"));
}
