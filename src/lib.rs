//! # selfish-ncg
//!
//! Facade crate of the *On Dynamics in Selfish Network Creation* reproduction.
//! Re-exports the workspace crates so that examples and downstream users only need
//! a single dependency:
//!
//! * [`graph`] (`ncg-graph`) — owned graphs, distances, generators, host graphs,
//! * [`core`] (`ncg-core`) — games, costs, move policies, dynamics engine,
//! * [`instances`] (`ncg-instances`) — every constructed instance from the paper,
//! * [`sim`] (`ncg-sim`) — the empirical-study harness: experiment axes, one
//!   seeded trial and streaming aggregates,
//! * [`lab`] (`ncg-lab`) — the batch orchestrator over the paper's starting
//!   topologies (streaming stats, checkpoint/resume, sharded sweeps) and the
//!   paper's empirical figures (Fig. 7–14) as sweep plans,
//! * [`trace`] (`ncg-trace`) — the zero-overhead-when-off instrumentation
//!   layer (phase spans, counters, flame profiles).

#![forbid(unsafe_code)]

pub use ncg_core as core;
pub use ncg_graph as graph;
pub use ncg_instances as instances;
pub use ncg_lab as lab;
pub use ncg_sim as sim;
pub use ncg_trace as trace;

/// Convenient prelude importing the most frequently used items.
pub mod prelude {
    pub use ncg_core::{
        dynamics::{run_dynamics, Dynamics, DynamicsConfig, Termination},
        games::{AsymSwapGame, BilateralBuyGame, BuyGame, GreedyBuyGame, SwapGame},
        policy::{Policy, TieBreak},
        DistanceMetric, Game, Workspace,
    };
    pub use ncg_graph::{generators, HostGraph, OwnedGraph};
}
