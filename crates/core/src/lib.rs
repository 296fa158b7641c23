//! # ncg-core
//!
//! Sequential-move dynamics of network creation games — a faithful implementation
//! of the models analysed in *On Dynamics in Selfish Network Creation*
//! (Kawald & Lenzner, SPAA 2013).
//!
//! The crate provides:
//!
//! * the five game families of the paper ([`games`]): the Swap Game, the Asymmetric
//!   Swap Game, the Greedy Buy Game, the (original) Buy Game and the bilateral
//!   equal-split Buy Game, each in the SUM and MAX distance-cost flavour and
//!   optionally on a restricted host graph;
//! * the agent cost model ([`cost`]) and strategy changes ([`moves`]);
//! * best-response and improving-move computation (the [`Game`] trait);
//! * move policies ([`policy`]): max-cost, random, min-index;
//! * the sequential dynamics engine ([`dynamics`]) with trajectory recording and
//!   exact better-response-cycle detection;
//! * potential functions ([`potential`]) and equilibrium checks ([`equilibrium`]);
//! * a bounded explorer of the improving-response state graph ([`classify`]) used
//!   to certify non-weak-acyclicity on the paper's constructed instances.
//!
//! ## Quick start
//!
//! ```
//! use ncg_core::games::GreedyBuyGame;
//! use ncg_core::dynamics::{run_dynamics, DynamicsConfig};
//! use ncg_core::policy::Policy;
//! use ncg_graph::generators;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(42);
//! let n = 20;
//! let initial = generators::random_with_m_edges(n, 2 * n, &mut rng);
//! let game = GreedyBuyGame::sum(n as f64 / 4.0);
//! let config = DynamicsConfig::simulation(100 * n).with_policy(Policy::MaxCost);
//! let outcome = run_dynamics(&game, &initial, &config, &mut rng);
//! assert!(outcome.converged());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod cost;
pub mod dynamics;
pub mod equilibrium;
pub mod evaluator;
pub mod game;
pub mod games;
pub mod moves;
pub mod policy;
pub mod potential;

pub use cost::{agent_cost, agent_cost_total, AgentCost, DistanceMetric, EdgeCostMode};
pub use dynamics::{
    run_dynamics, Dynamics, DynamicsConfig, DynamicsOutcome, MoveRecord, ResponseMode, Termination,
};
pub use equilibrium::{cost_vector, is_stable, social_cost, unhappy_agents};
pub use evaluator::{edge_cost_after, party_edge_cost_after, CostEvaluator, DeltaScore};
pub use game::{Game, ScoredMove, Workspace};
pub use games::{AsymSwapGame, BilateralBuyGame, BuyGame, GreedyBuyGame, SwapGame};
pub use moves::{apply_move, undo_move, Move, UndoMove};
pub use ncg_graph::oracle::{OracleKind, OracleStats};
pub use policy::{Policy, TieBreak};
