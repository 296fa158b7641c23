//! # ncg-sim
//!
//! The empirical-study harness of *On Dynamics in Selfish Network Creation*
//! (Kawald & Lenzner, SPAA 2013), §3.4 and §4.2.
//!
//! The paper simulates best-response dynamics of the bounded-budget Asymmetric
//! Swap Game (Fig. 7 / Fig. 8) and of the Greedy Buy Game (Fig. 11 – Fig. 14) on
//! random initial networks, under the max-cost and the random move policy, and
//! reports the average and maximum number of steps until a stable network is
//! reached. This crate provides:
//!
//! * [`spec`] — declarative experiment descriptions (game family, α-rule, initial
//!   topology, move policy, number of agents and trials),
//! * [`runner`] — a deterministic, seedable, thread-parallel trial runner with
//!   move-kind accounting (deletions / swaps / purchases per trajectory phase),
//! * [`experiments`] — the exact parameter sweeps behind every empirical figure of
//!   the paper,
//! * [`report`] — plain-text and CSV rendering of the measured series next to the
//!   paper's qualitative envelopes (5n, 7n, 8n, n·log n, …).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod runner;
pub mod spec;

pub use experiments::{all_figures, figure, FigureDef, SeriesDef};
pub use report::{render_csv, render_table, FigureData, SeriesData};
pub use runner::{
    run_dynamics_trial_probed, run_point, run_point_trials, run_seeded_trial,
    run_seeded_trial_probed, run_trial_with_game_probed, step_hist_bucket, MoveKindCounts,
    PointSummary, StreamingStats, TrialResult, STEP_HIST_BUCKETS, STEP_HIST_BUCKET_WIDTH,
};
pub use spec::{AlphaSpec, EngineSpec, ExperimentPoint, GameFamily, InitialTopology};
