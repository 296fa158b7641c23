//! Host-graph constructions of Corollary 4.2 and the state-space explorations used
//! to study them.
//!
//! Corollary 4.2 plays the Fig. 9 / Fig. 10 best-response cycles on host graphs that
//! contain only the cycle's own edges (`G1` plus the two edges bought along the
//! cycle) and claims that then, in every state of the cycle, exactly one agent is
//! unhappy with exactly one improving move — so no sequence of improving moves can
//! reach a stable network.
//!
//! **Reproduction note.** The arXiv text determines the cycle networks up to the
//! ownership of the edges that are never moved. Our exploration of the full
//! improving-move state space (see [`explore_sum_host`] / [`explore_max_host`])
//! shows that for *every* assignment of those owners some
//! non-moving agent has an improving edge-deletion in the dense middle states of
//! the cycle (e.g. the owner of `de` in state `G3` of Fig. 9 saves `α ∈ (7,8)`
//! while its distances grow by at most 5), so improving-move sequences that escape
//! the cycle — and eventually stabilise — exist. The best-response cycles
//! themselves (Theorem 4.1) verify exactly; only the stronger uniqueness claim of
//! Corollary 4.2 could not be reproduced from the information available in the
//! text. The tests below therefore certify what does hold: the state space is
//! finite, contains the better-response cycle, and the prescribed mover is unhappy
//! in every state of the cycle.

use crate::{fig09, fig10};
use ncg_core::classify::{explore, ExploreConfig, ExploreResult};
use ncg_core::GreedyBuyGame;
use ncg_graph::OwnedGraph;

/// The SUM-GBG of Cor. 4.2 together with its initial network.
pub fn sum_gbg_on_host() -> (GreedyBuyGame, OwnedGraph) {
    (
        GreedyBuyGame::sum(fig09::ALPHA).with_host(fig09::host_graph()),
        fig09::initial(),
    )
}

/// The MAX-GBG of Cor. 4.2 together with its initial network.
pub fn max_gbg_on_host() -> (GreedyBuyGame, OwnedGraph) {
    (
        GreedyBuyGame::max(fig10::ALPHA).with_host(fig10::host_graph()),
        fig10::initial(),
    )
}

/// Explores every network reachable from the Cor. 4.2 SUM instance by improving
/// moves.
pub fn explore_sum_host(max_states: usize) -> ExploreResult {
    let (game, initial) = sum_gbg_on_host();
    explore(
        &game,
        &initial,
        &ExploreConfig::default()
            .better_responses()
            .with_max_states(max_states),
    )
}

/// Explores every network reachable from the Cor. 4.2 MAX instance by improving
/// moves.
pub fn explore_max_host(max_states: usize) -> ExploreResult {
    let (game, initial) = max_gbg_on_host();
    explore(
        &game,
        &initial,
        &ExploreConfig::default()
            .better_responses()
            .with_max_states(max_states),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_host_state_space_is_finite_and_contains_the_cycle() {
        let result = explore_sum_host(20_000);
        assert!(result.complete, "state space must be fully explored");
        assert!(
            result.has_cycle(),
            "the Fig. 9 better-response cycle must be reachable"
        );
        assert!(
            result.num_states >= 6,
            "at least the six cycle states are reachable"
        );
    }

    #[test]
    fn max_host_state_space_is_finite_and_contains_the_cycle() {
        let result = explore_max_host(20_000);
        assert!(result.complete);
        assert!(
            result.has_cycle(),
            "the Fig. 10 better-response cycle must be reachable"
        );
        assert!(result.num_states >= 4);
    }

    #[test]
    fn the_prescribed_mover_is_unhappy_in_every_cycle_state_on_the_host() {
        use ncg_core::moves::apply_move;
        use ncg_core::{Game, Workspace};
        // SUM version.
        let inst = fig09::host_restricted_cycle();
        let mut g = inst.initial.clone();
        let mut ws = Workspace::new(g.num_nodes());
        for step in &inst.steps {
            assert!(
                inst.game.has_improving_move(&g, step.agent, &mut ws),
                "{} must be unhappy before '{}'",
                inst.names[step.agent],
                step.description
            );
            apply_move(&mut g, step.agent, &step.mv).unwrap();
        }
        // MAX version.
        let inst = fig10::host_restricted_cycle();
        let mut g = inst.initial.clone();
        let mut ws = Workspace::new(g.num_nodes());
        for step in &inst.steps {
            assert!(inst.game.has_improving_move(&g, step.agent, &mut ws));
            apply_move(&mut g, step.agent, &step.mv).unwrap();
        }
    }
}
