//! Strategy changes ("moves") and their application to a network state.
//!
//! A move is always performed by a single agent (the *moving agent*). The move
//! variants cover every game family of the paper:
//!
//! * [`Move::Swap`] — replace one incident/owned edge by another (SG / ASG / GBG / BG),
//! * [`Move::Buy`] — create one new owned edge (GBG / BG),
//! * [`Move::Delete`] — remove one owned edge (GBG / BG),
//! * [`Move::SetOwned`] — replace the full set of owned edges (BG: arbitrary
//!   strategy changes),
//! * [`Move::SetNeighbors`] — replace the full neighbour set (bilateral equal-split
//!   game, where strategies are neighbour sets and edge creation needs consent).
//!
//! [`apply_move`] mutates a graph in place and returns an [`UndoMove`] so that
//! best-response search can evaluate candidates without cloning the graph.

use ncg_graph::{NodeId, OwnedGraph};

/// A strategy change of a single agent.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Move {
    /// Replace edge `{agent, from}` by `{agent, to}`.
    ///
    /// In the symmetric Swap Game the agent need not own the edge; in all other
    /// games she must.
    Swap {
        /// Current endpoint being dropped.
        from: NodeId,
        /// New endpoint being connected.
        to: NodeId,
    },
    /// Buy the new edge `{agent, to}` (owned and paid by the agent).
    Buy {
        /// The new neighbour.
        to: NodeId,
    },
    /// Delete the owned edge `{agent, to}`.
    Delete {
        /// The neighbour the edge points to.
        to: NodeId,
    },
    /// Replace the agent's owned-neighbour set (an arbitrary Buy Game strategy).
    SetOwned {
        /// The new set of owned neighbours (sorted, no duplicates).
        new_owned: Vec<NodeId>,
    },
    /// Replace the agent's neighbour set (bilateral game strategy).
    SetNeighbors {
        /// The new neighbour set (sorted, no duplicates).
        new_neighbors: Vec<NodeId>,
    },
}

impl Move {
    /// Deterministic total order on moves (used to make tie-breaking reproducible).
    pub fn sort_key(&self) -> (u8, Vec<NodeId>) {
        match self {
            Move::Delete { to } => (0, vec![*to]),
            Move::Swap { from, to } => (1, vec![*from, *to]),
            Move::Buy { to } => (2, vec![*to]),
            Move::SetOwned { new_owned } => (3, new_owned.clone()),
            Move::SetNeighbors { new_neighbors } => (4, new_neighbors.clone()),
        }
    }
}

/// Information required to revert an applied move.
#[derive(Debug, Clone)]
pub enum UndoMove {
    /// Revert a swap: restore edge to `from` (owned by `original_owner`), remove edge to `to`.
    Swap {
        /// Old endpoint.
        from: NodeId,
        /// New endpoint.
        to: NodeId,
        /// Whether the *agent* owned the original edge (relevant for the symmetric SG).
        agent_owned_original: bool,
    },
    /// Revert a purchase: remove the bought edge.
    Buy {
        /// The bought neighbour.
        to: NodeId,
    },
    /// Revert a deletion: re-add the edge owned by the agent.
    Delete {
        /// The deleted neighbour.
        to: NodeId,
    },
    /// Revert a whole-strategy change by restoring the previously owned set.
    SetOwned {
        /// Previous owned neighbours of the agent.
        old_owned: Vec<NodeId>,
        /// Owned edges of the agent created by the move that must be removed.
        added: Vec<NodeId>,
    },
    /// Revert a neighbour-set change: re-add removed edges (with their original
    /// owners) and remove added edges.
    SetNeighbors {
        /// Edges removed by the move as `(owner, other)` pairs to re-add.
        removed: Vec<(NodeId, NodeId)>,
        /// Neighbours added by the move (owned by the agent) to remove again.
        added: Vec<NodeId>,
    },
}

/// Applies `mv` performed by `agent` to `g`.
///
/// Returns `None` (graph unchanged) if the move is not applicable in the current
/// state (e.g. swapping a non-existent edge, buying an existing edge). Legality
/// with respect to a specific *game* (ownership requirements, host graphs,
/// bilateral consent) is checked by the game implementations, not here.
pub fn apply_move(g: &mut OwnedGraph, agent: NodeId, mv: &Move) -> Option<UndoMove> {
    match mv {
        Move::Swap { from, to } => {
            if !g.has_edge(agent, *from) || g.has_edge(agent, *to) || *to == agent {
                return None;
            }
            let agent_owned_original = g.owns_edge(agent, *from);
            let ok = g.swap_edge(agent, *from, *to);
            debug_assert!(ok);
            Some(UndoMove::Swap {
                from: *from,
                to: *to,
                agent_owned_original,
            })
        }
        Move::Buy { to } => {
            if !g.add_edge(agent, *to) {
                return None;
            }
            Some(UndoMove::Buy { to: *to })
        }
        Move::Delete { to } => {
            if !g.remove_owned_edge(agent, *to) {
                return None;
            }
            Some(UndoMove::Delete { to: *to })
        }
        Move::SetOwned { new_owned } => {
            let old_owned: Vec<NodeId> = g.owned_neighbors(agent).to_vec();
            if !g.set_owned_neighbors(agent, new_owned) {
                return None;
            }
            let added: Vec<NodeId> = g.owned_neighbors(agent).to_vec();
            Some(UndoMove::SetOwned { old_owned, added })
        }
        Move::SetNeighbors { new_neighbors } => {
            if new_neighbors
                .iter()
                .any(|&v| v == agent || v >= g.num_nodes())
            {
                return None;
            }
            let current: Vec<NodeId> = g.neighbors(agent).to_vec();
            let mut removed = Vec::new();
            let mut added = Vec::new();
            for &v in &current {
                if !new_neighbors.contains(&v) {
                    let owner = g.edge_owner(agent, v).expect("edge exists");
                    let other = if owner == agent { v } else { agent };
                    removed.push((owner, other));
                    g.remove_edge(agent, v);
                }
            }
            for &v in new_neighbors {
                if !g.has_edge(agent, v) {
                    g.add_edge(agent, v);
                    added.push(v);
                }
            }
            Some(UndoMove::SetNeighbors { removed, added })
        }
    }
}

/// Reverts a move previously applied with [`apply_move`].
pub fn undo_move(g: &mut OwnedGraph, agent: NodeId, undo: &UndoMove) {
    match undo {
        UndoMove::Swap {
            from,
            to,
            agent_owned_original,
        } => {
            g.remove_edge(agent, *to);
            if *agent_owned_original {
                g.add_edge(agent, *from);
            } else {
                g.add_edge(*from, agent);
            }
        }
        UndoMove::Buy { to } => {
            g.remove_edge(agent, *to);
        }
        UndoMove::Delete { to } => {
            g.add_edge(agent, *to);
        }
        UndoMove::SetOwned { old_owned, added } => {
            for &v in added {
                g.remove_edge(agent, v);
            }
            for &v in old_owned {
                if !g.has_edge(agent, v) {
                    g.add_edge(agent, v);
                }
            }
        }
        UndoMove::SetNeighbors { removed, added } => {
            for &v in added {
                g.remove_edge(agent, v);
            }
            for &(owner, other) in removed {
                g.add_edge(owner, other);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncg_graph::generators;

    fn roundtrip(g0: &OwnedGraph, agent: NodeId, mv: &Move) {
        let mut g = g0.clone();
        let undo = apply_move(&mut g, agent, mv).expect("move applies");
        assert_ne!(&g, g0, "move must change the state");
        undo_move(&mut g, agent, &undo);
        assert_eq!(
            &g, g0,
            "undo must restore the exact state (incl. ownership)"
        );
        g.check_invariants().unwrap();
    }

    #[test]
    fn swap_roundtrip_owned_and_unowned() {
        let g = generators::path(5);
        // Vertex 1 owns edge to 2: owned swap.
        roundtrip(&g, 1, &Move::Swap { from: 2, to: 4 });
        // Vertex 1 does not own edge {0,1}: symmetric swap still round-trips.
        roundtrip(&g, 1, &Move::Swap { from: 0, to: 3 });
    }

    #[test]
    fn buy_and_delete_roundtrip() {
        let g = generators::path(4);
        roundtrip(&g, 0, &Move::Buy { to: 2 });
        roundtrip(&g, 0, &Move::Delete { to: 1 });
    }

    #[test]
    fn inapplicable_moves_return_none() {
        let mut g = generators::path(4);
        assert!(
            apply_move(&mut g, 0, &Move::Buy { to: 1 }).is_none(),
            "edge exists"
        );
        assert!(
            apply_move(&mut g, 3, &Move::Delete { to: 2 }).is_none(),
            "3 does not own it"
        );
        assert!(
            apply_move(&mut g, 0, &Move::Swap { from: 2, to: 3 }).is_none(),
            "no edge 0-2"
        );
        assert!(
            apply_move(&mut g, 0, &Move::Buy { to: 0 }).is_none(),
            "self loop"
        );
        let snapshot = g.clone();
        assert_eq!(g, snapshot, "failed applications leave the graph untouched");
    }

    #[test]
    fn set_owned_roundtrip() {
        let g = OwnedGraph::from_owned_edges(5, &[(0, 1), (0, 2), (3, 0), (3, 4)]);
        roundtrip(&g, 0, &Move::SetOwned { new_owned: vec![4] });
        roundtrip(&g, 0, &Move::SetOwned { new_owned: vec![] });
        roundtrip(
            &g,
            3,
            &Move::SetOwned {
                new_owned: vec![1, 2],
            },
        );
    }

    #[test]
    fn set_neighbors_roundtrip_preserves_foreign_ownership() {
        // Edge {3,0} is owned by 3. If agent 0 drops and we undo, ownership must return to 3.
        let g = OwnedGraph::from_owned_edges(5, &[(0, 1), (3, 0), (3, 4)]);
        roundtrip(
            &g,
            0,
            &Move::SetNeighbors {
                new_neighbors: vec![4],
            },
        );
        roundtrip(
            &g,
            0,
            &Move::SetNeighbors {
                new_neighbors: vec![1, 2, 3],
            },
        );
    }

    #[test]
    fn move_ordering_prefers_deletions() {
        let d = Move::Delete { to: 3 };
        let s = Move::Swap { from: 1, to: 2 };
        let b = Move::Buy { to: 0 };
        let mut moves = vec![b.clone(), s.clone(), d.clone()];
        moves.sort_by_key(|m| m.sort_key());
        assert_eq!(moves, vec![d, s, b]);
    }
}
