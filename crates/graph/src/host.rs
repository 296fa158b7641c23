//! Host graphs: restrictions on which edges agents are allowed to build.
//!
//! In the edge-restricted variants (Demaine et al.; Bilò et al.) the game is played
//! on a *host graph* `H` and agents may only create edges of `H`. Corollary 3.6 and
//! Corollary 4.2 of the paper use non-complete host graphs to show that the swap and
//! buy games are then not even weakly acyclic.

use crate::graph::NodeId;

/// The set of buildable edges.
///
/// [`HostGraph::Complete`] is the default network creation setting (any edge may be
/// bought); [`HostGraph::Restricted`] only allows the listed undirected edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostGraph {
    /// Every edge may be created.
    Complete,
    /// Only the listed edges may be created (undirected; stored with `u < v`).
    Restricted {
        /// Number of vertices.
        n: usize,
        /// Sorted list of allowed edges, normalised to `u < v`.
        allowed: Vec<(NodeId, NodeId)>,
    },
}

impl HostGraph {
    /// Complete host graph (no restriction).
    pub fn complete() -> Self {
        HostGraph::Complete
    }

    /// Host graph allowing exactly the given undirected edges.
    pub fn restricted(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let mut allowed: Vec<(NodeId, NodeId)> = edges
            .iter()
            .map(|&(a, b)| if a <= b { (a, b) } else { (b, a) })
            .collect();
        allowed.sort_unstable();
        allowed.dedup();
        HostGraph::Restricted { n, allowed }
    }

    /// Host graph that is complete except for the given forbidden edges
    /// (how Cor. 3.6 / Cor. 4.2 describe their hosts).
    pub fn complete_without(n: usize, forbidden: &[(NodeId, NodeId)]) -> Self {
        let mut allowed = Vec::with_capacity(n * (n - 1) / 2);
        for u in 0..n {
            for v in (u + 1)..n {
                let banned = forbidden
                    .iter()
                    .any(|&(a, b)| (a, b) == (u, v) || (a, b) == (v, u));
                if !banned {
                    allowed.push((u, v));
                }
            }
        }
        HostGraph::Restricted { n, allowed }
    }

    /// Returns `true` if the undirected edge `{u, v}` may be created.
    pub fn allows(&self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return false;
        }
        match self {
            HostGraph::Complete => true,
            HostGraph::Restricted { allowed, .. } => {
                let key = if u < v { (u, v) } else { (v, u) };
                allowed.binary_search(&key).is_ok()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_allows_everything_but_loops() {
        let h = HostGraph::complete();
        assert!(h.allows(0, 5));
        assert!(!h.allows(3, 3));
    }

    #[test]
    fn restricted_normalises_orientation() {
        let h = HostGraph::restricted(4, &[(2, 0), (1, 3), (0, 2)]);
        assert!(h.allows(0, 2) && h.allows(2, 0));
        assert!(h.allows(3, 1));
        assert!(!h.allows(0, 1));
        assert_eq!(h, HostGraph::restricted(4, &[(0, 2), (1, 3)]));
    }

    #[test]
    fn complete_without_removes_only_forbidden() {
        let h = HostGraph::complete_without(4, &[(1, 2)]);
        assert!(!h.allows(1, 2) && !h.allows(2, 1));
        assert!(h.allows(0, 1));
        let allowed = [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)];
        assert_eq!(h, HostGraph::restricted(4, &allowed));
    }
}
