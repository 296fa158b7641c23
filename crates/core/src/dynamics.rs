//! The sequential-move network creation process (paper §1.1).
//!
//! Starting from an initial network, in every step the move policy selects one
//! unhappy agent, who then performs a best response.
//! The process stops when no agent is unhappy (a stable network / pure Nash
//! equilibrium has been reached), when an exact previously-visited state recurs
//! (a better-response cycle has been detected), or when the step limit is hit.

use crate::game::{Game, ScoredMove, Workspace};
use crate::moves::{apply_move, Move};
use crate::policy::{Policy, TieBreak};
use ncg_graph::oracle::{OracleKind, OracleStats};
use ncg_graph::{canonical_state_key, canonical_unlabeled_key, NodeId, OwnedGraph, StateKey};
use ncg_trace as trace;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashMap;

/// Which improving moves a state-space exploration follows
/// ([`crate::classify::ExploreConfig`]): best responses only, or every
/// improving move. The dynamics always play best responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResponseMode {
    /// The moving agent performs a best possible improving move (best response).
    BestResponse,
    /// The moving agent performs the first improving move found (better response).
    FirstImproving,
}

/// Configuration of a dynamics run.
///
/// The engine has one way of choosing movers: every step, [`Dynamics::step`]
/// scans the agents in the policy's exact order (for [`Policy::MaxCost`], an
/// unhappy agent of maximum cost moves). `oracle` only decides how candidate
/// moves are scored, never which agent moves or which move it makes.
#[derive(Debug, Clone)]
pub struct DynamicsConfig {
    /// Who moves.
    pub policy: Policy,
    /// How ties are broken (both among max-cost agents and among best responses).
    pub tie_break: TieBreak,
    /// Hard limit on the number of moves.
    pub max_steps: usize,
    /// If `true`, every visited state is remembered and an exact recurrence stops
    /// the run with [`Termination::CycleDetected`].
    pub detect_cycles: bool,
    /// If `true`, every move is recorded in the trajectory.
    pub record_trajectory: bool,
    /// If `true`, edge ownership is part of the state identity used for cycle
    /// detection (correct for ASG/GBG/BG/bilateral). The symmetric Swap Game
    /// ignores ownership and should set this to `false`.
    pub ownership_in_state: bool,
    /// Which distance-oracle backend scores candidate moves.
    pub oracle: OracleKind,
}

impl DynamicsConfig {
    /// Sensible defaults for simulations: max-cost policy, random tie-break,
    /// best responses, no cycle detection, no trajectory recording.
    pub fn simulation(max_steps: usize) -> Self {
        DynamicsConfig {
            policy: Policy::MaxCost,
            tie_break: TieBreak::Random,
            max_steps,
            detect_cycles: false,
            record_trajectory: false,
            ownership_in_state: true,
            oracle: OracleKind::default(),
        }
    }

    /// Defaults for analysing small instances: deterministic tie-break, cycle
    /// detection and full trajectory recording.
    pub fn analysis(max_steps: usize) -> Self {
        DynamicsConfig {
            policy: Policy::MinIndex,
            tie_break: TieBreak::Deterministic,
            max_steps,
            detect_cycles: true,
            record_trajectory: true,
            ownership_in_state: true,
            oracle: OracleKind::default(),
        }
    }

    /// Sets the move policy.
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the tie-breaking rule.
    pub fn with_tie_break(mut self, tie_break: TieBreak) -> Self {
        self.tie_break = tie_break;
        self
    }

    /// Sets the distance-oracle backend.
    pub fn with_oracle(mut self, oracle: OracleKind) -> Self {
        self.oracle = oracle;
        self
    }
}

/// One performed move.
#[derive(Debug, Clone, PartialEq)]
pub struct MoveRecord {
    /// Index of the step (0-based).
    pub step: usize,
    /// The moving agent.
    pub agent: NodeId,
    /// The strategy change performed.
    pub mv: Move,
    /// The agent's cost before the move.
    pub old_cost: f64,
    /// The agent's cost after the move.
    pub new_cost: f64,
}

/// Why the process stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Termination {
    /// No agent has an improving move: a stable network (pure Nash equilibrium).
    Converged,
    /// The exact state of step `first_seen_step` recurred after `period` further
    /// moves — a better-response cycle.
    CycleDetected {
        /// Step at which the recurring state was first visited.
        first_seen_step: usize,
        /// Number of moves after which it recurred.
        period: usize,
    },
    /// The configured step limit was reached without convergence.
    StepLimit,
}

/// Result of a dynamics run.
#[derive(Debug, Clone)]
pub struct DynamicsOutcome {
    /// Why the run stopped.
    pub termination: Termination,
    /// Number of moves performed.
    pub steps: usize,
    /// The final network state.
    pub final_graph: OwnedGraph,
    /// The recorded trajectory (empty unless `record_trajectory` was set).
    pub trajectory: Vec<MoveRecord>,
}

impl DynamicsOutcome {
    /// Convenience: did the process converge to a stable network?
    pub fn converged(&self) -> bool {
        self.termination == Termination::Converged
    }
}

/// A stepwise-controllable network creation process.
///
/// [`run_dynamics`] drives it automatically; tests and the adversarial
/// constructions use [`Dynamics::step_with_agent`] to force particular movers.
pub struct Dynamics<'a, G: Game + ?Sized> {
    game: &'a G,
    graph: OwnedGraph,
    config: DynamicsConfig,
    ws: Workspace,
    steps: usize,
    last_mover: Option<NodeId>,
    seen: HashMap<StateKey, usize>,
    trajectory: Vec<MoveRecord>,
}

impl<'a, G: Game + ?Sized> Dynamics<'a, G> {
    /// Creates a process in the given initial state.
    pub fn new(game: &'a G, initial: OwnedGraph, config: DynamicsConfig) -> Self {
        let n = initial.num_nodes();
        let mut ws = Workspace::with_oracle(n, config.oracle);
        if config.oracle == OracleKind::Persistent {
            // Bulk-pin every agent's vector up front: the first policy scan
            // needs all n summaries anyway, and the cold fill costs ⌈n/64⌉
            // shared bitset waves instead of n scalar traversals.
            let all: Vec<NodeId> = (0..n).collect();
            ws.evaluator.pin_sources(&initial, &all);
        }
        let mut dyn_ = Dynamics {
            game,
            graph: initial,
            config,
            ws,
            steps: 0,
            last_mover: None,
            seen: HashMap::new(),
            trajectory: Vec::new(),
        };
        if dyn_.config.detect_cycles {
            let key = dyn_.state_key();
            dyn_.seen.insert(key, 0);
        }
        dyn_
    }

    fn state_key(&self) -> StateKey {
        if self.config.ownership_in_state {
            canonical_state_key(&self.graph)
        } else {
            canonical_unlabeled_key(&self.graph)
        }
    }

    /// The current network state.
    pub fn graph(&self) -> &OwnedGraph {
        &self.graph
    }

    /// Number of moves performed so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// The recorded trajectory so far.
    pub fn trajectory(&self) -> &[MoveRecord] {
        &self.trajectory
    }

    /// All currently unhappy agents (agents with at least one feasible improving move).
    pub fn unhappy_agents(&mut self) -> Vec<NodeId> {
        crate::equilibrium::unhappy_agents(self.game, &self.graph, &mut self.ws)
    }

    /// Performs one step with the configured policy. Returns `None` if the state is
    /// stable (and the process therefore stops).
    pub fn step<R: Rng>(&mut self, rng: &mut R) -> Option<MoveRecord> {
        let mover = {
            let _sp = trace::span(trace::Phase::Scan);
            self.config.policy.select_mover(
                self.game,
                &self.graph,
                &mut self.ws,
                self.config.tie_break,
                self.last_mover,
                rng,
            )?
        };
        self.step_with_agent(mover, rng)
    }

    /// Performs one step with a caller-chosen moving agent (the "adversarial"
    /// policy of the proofs). Returns `None` if the agent has no improving move.
    pub fn step_with_agent<R: Rng>(&mut self, agent: NodeId, rng: &mut R) -> Option<MoveRecord> {
        let chosen = {
            let _sp = trace::span(trace::Phase::Apply);
            let chosen = self.choose_response(agent, rng)?;
            let undo = apply_move(&mut self.graph, agent, &chosen.mv);
            debug_assert!(undo.is_some(), "selected move must be applicable");
            chosen
        };
        let record = MoveRecord {
            step: self.steps,
            agent,
            mv: chosen.mv,
            old_cost: chosen.old_cost,
            new_cost: chosen.new_cost,
        };
        self.steps += 1;
        self.last_mover = Some(agent);
        if self.config.record_trajectory {
            self.trajectory.push(record.clone());
        }
        Some(record)
    }

    /// Work counters of the workspace's distance oracle.
    pub fn oracle_stats(&self) -> OracleStats {
        self.ws.oracle_stats()
    }

    fn choose_response<R: Rng>(&mut self, agent: NodeId, rng: &mut R) -> Option<ScoredMove> {
        let candidates = self.game.best_responses(&self.graph, agent, &mut self.ws);
        if candidates.is_empty() {
            return None;
        }
        match self.config.tie_break {
            TieBreak::Deterministic => {
                let mut c = candidates;
                c.sort_by_key(|s| s.mv.sort_key());
                Some(c.remove(0))
            }
            TieBreak::Random => candidates.choose(rng).cloned(),
        }
    }

    /// Checks the current termination/cycle bookkeeping after a successful
    /// step.
    fn post_step_cycle_check(&mut self) -> Option<Termination> {
        if self.config.detect_cycles {
            let key = self.state_key();
            if let Some(&first) = self.seen.get(&key) {
                return Some(Termination::CycleDetected {
                    first_seen_step: first,
                    period: self.steps - first,
                });
            }
            self.seen.insert(key, self.steps);
        }
        None
    }

    /// Runs the process until termination and returns the outcome.
    pub fn run<R: Rng>(mut self, rng: &mut R) -> DynamicsOutcome {
        loop {
            if self.steps >= self.config.max_steps {
                return self.finish(Termination::StepLimit);
            }
            let before_steps = self.steps;
            match self.step(rng) {
                None => return self.finish(Termination::Converged),
                Some(_) => {
                    debug_assert_eq!(self.steps, before_steps + 1);
                    if let Some(termination) = self.post_step_cycle_check() {
                        return self.finish(termination);
                    }
                }
            }
        }
    }

    fn finish(self, termination: Termination) -> DynamicsOutcome {
        DynamicsOutcome {
            termination,
            steps: self.steps,
            final_graph: self.graph,
            trajectory: self.trajectory,
        }
    }
}

/// Runs the sequential-move process defined by `game` and `config` from the initial
/// network `initial`.
pub fn run_dynamics<G: Game + ?Sized, R: Rng>(
    game: &G,
    initial: &OwnedGraph,
    config: &DynamicsConfig,
    rng: &mut R,
) -> DynamicsOutcome {
    Dynamics::new(game, initial.clone(), config.clone()).run(rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::games::{AsymSwapGame, GreedyBuyGame, SwapGame};
    use ncg_graph::{generators, is_tree, properties};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn path_converges_under_sum_swap_game() {
        let game = SwapGame::sum();
        let g = generators::path(8);
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = DynamicsConfig::simulation(10_000);
        let out = run_dynamics(&game, &g, &cfg, &mut rng);
        assert!(out.converged());
        assert!(is_tree(&out.final_graph));
        // Stable trees of the SUM-SG are stars.
        assert!(properties::is_star(&out.final_graph));
    }

    #[test]
    fn max_swap_game_on_tree_converges_to_diameter_le_3() {
        let game = SwapGame::max();
        let g = generators::path(9);
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = DynamicsConfig::simulation(10_000).with_policy(Policy::MaxCost);
        let out = run_dynamics(&game, &g, &cfg, &mut rng);
        assert!(out.converged());
        assert!(properties::is_star_or_double_star(&out.final_graph));
    }

    #[test]
    fn every_recorded_move_strictly_improves_the_mover() {
        let game = AsymSwapGame::sum();
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::budgeted_random(20, 2, &mut rng);
        let mut cfg = DynamicsConfig::simulation(10_000);
        cfg.record_trajectory = true;
        let out = run_dynamics(&game, &g, &cfg, &mut rng);
        assert!(out.converged());
        for rec in &out.trajectory {
            assert!(
                rec.new_cost < rec.old_cost,
                "step {}: not improving",
                rec.step
            );
        }
    }

    #[test]
    fn step_limit_is_respected() {
        let game = GreedyBuyGame::sum(2.0);
        let mut rng = StdRng::seed_from_u64(4);
        let g = generators::random_with_m_edges(15, 30, &mut rng);
        let mut cfg = DynamicsConfig::simulation(3);
        cfg.record_trajectory = true;
        let out = run_dynamics(&game, &g, &cfg, &mut rng);
        assert!(out.steps <= 3);
        if !out.converged() {
            assert_eq!(out.termination, Termination::StepLimit);
        }
    }

    #[test]
    fn stable_initial_state_converges_in_zero_steps() {
        let game = SwapGame::sum();
        let g = generators::star(7);
        let mut rng = StdRng::seed_from_u64(5);
        let out = run_dynamics(&game, &g, &DynamicsConfig::simulation(100), &mut rng);
        assert!(out.converged());
        assert_eq!(out.steps, 0);
        assert_eq!(out.final_graph, g);
    }

    #[test]
    fn manual_stepping_controls_the_mover() {
        let game = SwapGame::sum();
        let g = generators::path(6);
        let mut rng = StdRng::seed_from_u64(6);
        let mut dynamics = Dynamics::new(&game, g, DynamicsConfig::analysis(100));
        let unhappy = dynamics.unhappy_agents();
        assert!(unhappy.contains(&0) && unhappy.contains(&5));
        // Vertex 2 (near the centre) is happy on P6? Its sum-distance is 1+2+1+2+3=9;
        // swapping cannot beat attaching to the centre it already has. Either way,
        // forcing a happy agent must return None without changing the state.
        let before = dynamics.graph().clone();
        let happy: Vec<_> = (0..6).filter(|u| !unhappy.contains(u)).collect();
        if let Some(&h) = happy.first() {
            assert!(dynamics.step_with_agent(h, &mut rng).is_none());
            assert_eq!(dynamics.graph(), &before);
        }
        let rec = dynamics.step_with_agent(0, &mut rng).expect("0 is unhappy");
        assert_eq!(rec.agent, 0);
        assert_eq!(dynamics.steps(), 1);
        assert_eq!(dynamics.trajectory().len(), 1);
    }

    #[test]
    fn persistent_engine_matches_full_bfs_trajectories() {
        // Same seed, same config, different oracle backend: the scoring is
        // exact in both, so the recorded move sequences must be identical.
        let mut seed_rng = StdRng::seed_from_u64(40);
        let n = 14;
        let g = generators::random_with_m_edges(n, 2 * n, &mut seed_rng);
        let game = GreedyBuyGame::sum(n as f64 / 4.0);
        let run = |kind: OracleKind| {
            let mut rng = StdRng::seed_from_u64(99);
            let mut cfg = DynamicsConfig::simulation(400 * n).with_oracle(kind);
            cfg.record_trajectory = true;
            run_dynamics(&game, &g, &cfg, &mut rng)
        };
        let reference = run(OracleKind::FullBfs);
        let out = run(OracleKind::Persistent);
        assert_eq!(out.termination, reference.termination);
        assert_eq!(out.trajectory, reference.trajectory);
        assert_eq!(out.final_graph, reference.final_graph);
    }

    #[test]
    fn bilateral_delta_consent_matches_fallback_trajectories() {
        // The bilateral game on a persistent engine scores every candidate
        // (and every consent check) through oracle what-ifs; the scoring is
        // exact, so its trajectories must be identical to the
        // apply → BFS → undo engines.
        use crate::games::BilateralBuyGame;
        let mut seed_rng = StdRng::seed_from_u64(71);
        let n = 9;
        let g = generators::random_with_m_edges(n, 14, &mut seed_rng);
        for &alpha in &[1.0, 4.0] {
            let game = BilateralBuyGame::sum(alpha);
            let run = |kind: OracleKind| {
                let mut rng = StdRng::seed_from_u64(13);
                let mut cfg = DynamicsConfig::simulation(200 * n).with_oracle(kind);
                cfg.record_trajectory = true;
                run_dynamics(&game, &g, &cfg, &mut rng)
            };
            let reference = run(OracleKind::FullBfs);
            assert!(reference.converged(), "α={alpha}");
            let out = run(OracleKind::Persistent);
            assert_eq!(out.termination, reference.termination, "α={alpha}");
            assert_eq!(out.trajectory, reference.trajectory, "α={alpha}");
            assert_eq!(out.final_graph, reference.final_graph, "α={alpha}");
        }
    }

    /// The four empirical families on random initial networks: the ASG on
    /// budgeted networks, the GBG on random ones (α = n/4 for SUM, 2.5 for
    /// MAX).
    fn empirical_families(n: usize, rng: &mut StdRng) -> Vec<(Box<dyn Game>, OwnedGraph)> {
        let asg = |rng: &mut StdRng| generators::budgeted_random(n, 2, rng);
        let gbg = |rng: &mut StdRng| generators::random_with_m_edges(n, 2 * n, rng);
        vec![
            (Box::new(AsymSwapGame::sum()), asg(rng)),
            (Box::new(AsymSwapGame::max()), asg(rng)),
            (Box::new(GreedyBuyGame::sum(n as f64 / 4.0)), gbg(rng)),
            (Box::new(GreedyBuyGame::max(2.5)), gbg(rng)),
        ]
    }

    #[test]
    fn max_cost_policy_moves_an_unhappy_agent_of_maximum_cost() {
        // The paper's max-cost policy on non-trees: before every step, a
        // separate full-BFS workspace finds the unhappy agents and their
        // costs by brute force; the mover `step` picks must be one of them
        // and no unhappy agent may cost more.
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(0x3a5c);
        let mut moves = 0usize;
        for case in 0..3 {
            let n = rng.gen_range(12usize..25);
            for (game, initial) in empirical_families(n, &mut rng) {
                let game = game.as_ref();
                let mut brute = Workspace::with_oracle(n, OracleKind::FullBfs);
                for kind in [OracleKind::FullBfs, OracleKind::Persistent] {
                    let cfg = DynamicsConfig::simulation(400 * n).with_oracle(kind);
                    let mut dynamics = Dynamics::new(game, initial.clone(), cfg);
                    let mut play_rng = StdRng::seed_from_u64(case);
                    loop {
                        let g = dynamics.graph().clone();
                        let unhappy: Vec<NodeId> = (0..n)
                            .filter(|&u| game.has_improving_move(&g, u, &mut brute))
                            .collect();
                        let ctx = format!("case {case} {} {}", game.name(), kind.label());
                        let Some(record) = dynamics.step(&mut play_rng) else {
                            assert!(
                                unhappy.is_empty(),
                                "{ctx}: stopped with {unhappy:?} unhappy"
                            );
                            break;
                        };
                        assert!(unhappy.contains(&record.agent), "{ctx}: happy mover");
                        let max = unhappy
                            .iter()
                            .map(|&u| game.cost(&g, u, &mut brute.bfs))
                            .fold(f64::NEG_INFINITY, f64::max);
                        assert_eq!(
                            game.cost(&g, record.agent, &mut brute.bfs),
                            max,
                            "{ctx}: mover {} is not of maximum cost",
                            record.agent
                        );
                        moves += 1;
                    }
                }
            }
        }
        assert!(moves > 100, "only {moves} moves checked");
    }

    #[test]
    fn greedy_buy_game_random_network_converges() {
        let mut rng = StdRng::seed_from_u64(8);
        let n = 20;
        let g = generators::random_with_m_edges(n, 2 * n, &mut rng);
        let game = GreedyBuyGame::sum(n as f64 / 4.0);
        let cfg = DynamicsConfig::simulation(10_000).with_policy(Policy::Random);
        let out = run_dynamics(&game, &g, &cfg, &mut rng);
        assert!(out.converged(), "GBG should converge on random instances");
        assert!(properties::is_connected(&out.final_graph));
    }
}
