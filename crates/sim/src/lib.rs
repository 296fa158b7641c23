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
//! * [`spec`] — the axes of an experiment (game family, α-rule, initial
//!   topology, execution engine),
//! * [`runner`] — one deterministic, seeded trial with move-kind accounting
//!   (deletions / swaps / purchases / strategy rewrites), and the mergeable
//!   streaming aggregate of many trials.
//!
//! Scheduling trials over threads, the paper's figure grids and their
//! reports live one layer up, in `ncg-lab`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod runner;
pub mod spec;

pub use runner::{
    run_dynamics_trial_probed, run_seeded_trial, run_seeded_trial_probed, step_hist_bucket,
    MoveKindCounts, PointSummary, StreamingStats, TrialResult, STEP_HIST_BUCKETS,
    STEP_HIST_BUCKET_WIDTH,
};
pub use spec::{AlphaSpec, EngineSpec, GameFamily, InitialTopology};
