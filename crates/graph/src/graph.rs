//! The owned undirected graph at the heart of every network creation game.
//!
//! Every vertex is an agent. Every edge `{u, v}` is *owned* by exactly one of its
//! endpoints; the owner paid for the edge and (in the asymmetric games) is the only
//! agent allowed to modify it. In figures of the paper ownership is drawn by
//! directing the edge away from its owner; here we store, for every vertex, the
//! set of neighbours it owns an edge to.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// Index of an agent / vertex. Agents are densely numbered `0..n`.
pub type NodeId = usize;

/// Source of unique lineage ids; every graph (and every clone of one) gets its
/// own lineage so a [`GraphVersion`] can never be replayed against a history it
/// was not taken from.
static NEXT_LINEAGE: AtomicU64 = AtomicU64::new(1);

/// Journal entries older than this are discarded; readers holding a version
/// from before the retained window fall back to a full recomputation.
const JOURNAL_RETAIN: usize = 2048;

/// One structural change recorded in a graph's change journal.
///
/// Only the undirected edge set is journaled — ownership transfers without a
/// structural change do not affect distances and are invisible to the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeChange {
    /// The undirected edge `{u, v}` was added.
    Added {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
    /// The undirected edge `{u, v}` was removed.
    Removed {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
}

/// An opaque stamp of a graph's mutation history: the lineage the graph
/// belongs to plus the number of structural changes applied so far.
///
/// Obtained from [`OwnedGraph::version`]; pass it back to
/// [`OwnedGraph::changes_since`] to receive the exact edge deltas applied in
/// between (or `None` when the histories are unrelated or the window has been
/// discarded). The persistent distance oracle records the one version its
/// cache reflects, and when the graph moves on, replays the deltas in
/// between into every cached distance vector instead of re-running a full
/// BFS per vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GraphVersion {
    lineage: u64,
    pos: u64,
}

/// A reference to an edge together with its owner.
///
/// `owner` is the endpoint that pays for (and may modify) the edge; `other` is the
/// passive endpoint. The undirected edge is `{owner, other}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeRef {
    /// The endpoint that owns the edge.
    pub owner: NodeId,
    /// The non-owning endpoint.
    pub other: NodeId,
}

/// An undirected graph on `n` agents with per-edge ownership.
///
/// Invariants maintained by all mutating methods:
///
/// * the graph is simple (no self loops, no multi-edges),
/// * for every edge `{u, v}` exactly one of `u`, `v` records the edge in its
///   owned-neighbour list,
/// * adjacency lists and owned lists are kept sorted so that iteration order is
///   deterministic and state encodings are canonical.
pub struct OwnedGraph {
    n: usize,
    /// `adj[u]` = sorted neighbours of `u` (both owned and non-owned edges).
    adj: Vec<Vec<NodeId>>,
    /// `owned[u]` = sorted neighbours `v` such that `u` owns the edge `{u, v}`.
    owned: Vec<Vec<NodeId>>,
    /// Unique id of this graph's mutation history (fresh per clone).
    lineage: u64,
    /// Absolute journal position of `journal[0]` (entries before it were
    /// discarded to bound memory).
    journal_base: u64,
    /// Structural changes applied since `journal_base`, newest last.
    journal: Vec<EdgeChange>,
}

impl Clone for OwnedGraph {
    /// Clones the structure; the clone starts a **fresh lineage** with an
    /// empty journal, so versions taken on the original never replay against
    /// the clone's (potentially diverging) history.
    fn clone(&self) -> Self {
        OwnedGraph {
            n: self.n,
            adj: self.adj.clone(),
            owned: self.owned.clone(),
            lineage: NEXT_LINEAGE.fetch_add(1, Ordering::Relaxed),
            journal_base: 0,
            journal: Vec::new(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.adj.clone_from(&source.adj);
        self.owned.clone_from(&source.owned);
        self.lineage = NEXT_LINEAGE.fetch_add(1, Ordering::Relaxed);
        self.journal_base = 0;
        self.journal.clear();
    }
}

/// Equality is structural (vertex count, edges, ownership); the mutation
/// history is book-keeping and does not participate.
impl PartialEq for OwnedGraph {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.adj == other.adj && self.owned == other.owned
    }
}

impl Eq for OwnedGraph {}

impl Hash for OwnedGraph {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.n.hash(state);
        self.adj.hash(state);
        self.owned.hash(state);
    }
}

impl OwnedGraph {
    /// Creates an empty graph (no edges) on `n` agents.
    ///
    /// Panics when `n` exceeds [`crate::distances::MAX_NODES`]: every
    /// distance pipeline downstream (BFS buffers, the multi-source waves,
    /// the oracle's parked vectors) stores distances as `u16`, and an
    /// oversized graph would silently truncate them.
    pub fn new(n: usize) -> Self {
        assert!(
            n <= crate::distances::MAX_NODES,
            "u16 distances support at most {} vertices (got {n})",
            crate::distances::MAX_NODES
        );
        OwnedGraph {
            n,
            adj: vec![Vec::new(); n],
            owned: vec![Vec::new(); n],
            lineage: NEXT_LINEAGE.fetch_add(1, Ordering::Relaxed),
            journal_base: 0,
            journal: Vec::new(),
        }
    }

    /// The current version stamp: lineage id plus number of structural
    /// changes ever applied to this graph instance.
    #[inline]
    pub fn version(&self) -> GraphVersion {
        GraphVersion {
            lineage: self.lineage,
            pos: self.journal_base + self.journal.len() as u64,
        }
    }

    /// The exact structural changes applied since `since` was taken, oldest
    /// first.
    ///
    /// Returns `None` if `since` belongs to a different lineage (another graph
    /// instance or a clone), lies in the discarded part of the journal, or is
    /// ahead of the current version — in all of which cases the caller must
    /// recompute from scratch.
    pub fn changes_since(&self, since: GraphVersion) -> Option<&[EdgeChange]> {
        if since.lineage != self.lineage
            || since.pos < self.journal_base
            || since.pos > self.journal_base + self.journal.len() as u64
        {
            return None;
        }
        let start = (since.pos - self.journal_base) as usize;
        Some(&self.journal[start..])
    }

    /// Appends one change to the journal, discarding the oldest half once the
    /// retained window overflows (readers holding versions from before the
    /// window simply fall back to a full recomputation).
    fn record(&mut self, change: EdgeChange) {
        if self.journal.len() >= JOURNAL_RETAIN {
            let drop = JOURNAL_RETAIN / 2;
            self.journal.drain(..drop);
            self.journal_base += drop as u64;
        }
        self.journal.push(change);
    }

    /// Builds a graph from a list of owned edges `(owner, other)`.
    ///
    /// # Panics
    /// Panics if an edge is a self loop, references a vertex `>= n`, or is listed
    /// twice (in either orientation).
    pub fn from_owned_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let mut g = OwnedGraph::new(n);
        for &(owner, other) in edges {
            assert!(
                g.add_edge(owner, other),
                "duplicate or invalid edge ({owner}, {other})"
            );
        }
        g
    }

    /// Number of agents.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of (undirected) edges.
    pub fn num_edges(&self) -> usize {
        self.owned.iter().map(Vec::len).sum()
    }

    /// Returns `true` if the undirected edge `{u, v}` is present.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        u != v && self.adj[u].binary_search(&v).is_ok()
    }

    /// Returns `true` if agent `u` owns the edge `{u, v}`.
    #[inline]
    pub fn owns_edge(&self, u: NodeId, v: NodeId) -> bool {
        u != v && self.owned[u].binary_search(&v).is_ok()
    }

    /// Returns the owner of edge `{u, v}` if the edge exists.
    pub fn edge_owner(&self, u: NodeId, v: NodeId) -> Option<NodeId> {
        if self.owns_edge(u, v) {
            Some(u)
        } else if self.owns_edge(v, u) {
            Some(v)
        } else {
            None
        }
    }

    /// Degree of vertex `u` (owned and non-owned edges).
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.adj[u].len()
    }

    /// Number of edges owned (paid for) by agent `u`.
    #[inline]
    pub fn owned_degree(&self, u: NodeId) -> usize {
        self.owned[u].len()
    }

    /// Sorted neighbours of `u`.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.adj[u]
    }

    /// Sorted neighbours `v` such that `u` owns `{u, v}` — agent `u`'s strategy in
    /// the asymmetric games.
    #[inline]
    pub fn owned_neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.owned[u]
    }

    /// Iterator over all edges as [`EdgeRef`]s, grouped by owner, ascending.
    pub fn edges(&self) -> impl Iterator<Item = EdgeRef> + '_ {
        self.owned
            .iter()
            .enumerate()
            .flat_map(|(owner, list)| list.iter().map(move |&other| EdgeRef { owner, other }))
    }

    /// Iterator over all vertices.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.n
    }

    /// Adds the edge `{owner, other}` owned by `owner`.
    ///
    /// Returns `false` (and leaves the graph unchanged) if the edge already exists,
    /// is a self loop, or references an out-of-range vertex.
    pub fn add_edge(&mut self, owner: NodeId, other: NodeId) -> bool {
        if owner == other || owner >= self.n || other >= self.n || self.has_edge(owner, other) {
            return false;
        }
        insert_sorted(&mut self.adj[owner], other);
        insert_sorted(&mut self.adj[other], owner);
        insert_sorted(&mut self.owned[owner], other);
        self.record(EdgeChange::Added { u: owner, v: other });
        true
    }

    /// Removes the undirected edge `{u, v}` regardless of who owns it.
    ///
    /// Returns `false` if the edge does not exist.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if !self.has_edge(u, v) {
            return false;
        }
        remove_sorted(&mut self.adj[u], v);
        remove_sorted(&mut self.adj[v], u);
        if !remove_sorted(&mut self.owned[u], v) {
            remove_sorted(&mut self.owned[v], u);
        }
        self.record(EdgeChange::Removed { u, v });
        true
    }

    /// Removes the edge `{owner, other}` only if it exists and is owned by `owner`.
    pub fn remove_owned_edge(&mut self, owner: NodeId, other: NodeId) -> bool {
        if !self.owns_edge(owner, other) {
            return false;
        }
        self.remove_edge(owner, other)
    }

    /// Swaps the edge `{u, from}` to `{u, to}` irrespective of ownership, keeping
    /// the original owner orientation relative to `u`.
    ///
    /// In the (symmetric) Swap Game both endpoints may swap an edge, and ownership
    /// has no game-theoretic meaning; we keep the book-keeping consistent by making
    /// `u` the owner of the replacement edge.
    pub fn swap_edge(&mut self, u: NodeId, from: NodeId, to: NodeId) -> bool {
        if !self.has_edge(u, from) || to == u || to >= self.n || self.has_edge(u, to) {
            return false;
        }
        self.remove_edge(u, from);
        let added = self.add_edge(u, to);
        debug_assert!(added);
        true
    }

    /// Replaces agent `u`'s *owned* neighbour set by `new_owned` (the Buy Game
    /// strategy change). Existing edges owned by other agents are untouched.
    ///
    /// Edges in `new_owned` that already exist in the graph but are owned by the
    /// other endpoint are left as they are (the strategy is then effectively the
    /// union; this mirrors the convention that buying an already existing edge is
    /// wasted money and the caller's best-response search will never do it, but the
    /// operation stays well defined).
    ///
    /// Returns `false` if `new_owned` contains `u` itself or an out-of-range vertex.
    pub fn set_owned_neighbors(&mut self, u: NodeId, new_owned: &[NodeId]) -> bool {
        if new_owned.iter().any(|&v| v == u || v >= self.n) {
            return false;
        }
        let old: Vec<NodeId> = self.owned[u].clone();
        for v in old {
            self.remove_edge(u, v);
        }
        for &v in new_owned {
            // Ignore edges that already exist (owned by the other side).
            self.add_edge(u, v);
        }
        true
    }

    /// Total number of edge endpoints (2·m); useful for sizing buffers.
    pub fn endpoint_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum()
    }

    /// Checks the internal invariants; used by tests and debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        for u in 0..self.n {
            let mut prev: Option<NodeId> = None;
            for &v in &self.adj[u] {
                if v == u {
                    return Err(format!("self loop at {u}"));
                }
                if v >= self.n {
                    return Err(format!("out of range neighbour {v} of {u}"));
                }
                if let Some(p) = prev {
                    if p >= v {
                        return Err(format!("adjacency of {u} not strictly sorted"));
                    }
                }
                prev = Some(v);
                if self.adj[v].binary_search(&u).is_err() {
                    return Err(format!("edge {{{u},{v}}} not symmetric"));
                }
                let u_owns = self.owned[u].binary_search(&v).is_ok();
                let v_owns = self.owned[v].binary_search(&u).is_ok();
                if u_owns == v_owns {
                    return Err(format!(
                        "edge {{{u},{v}}} must have exactly one owner (u_owns={u_owns}, v_owns={v_owns})"
                    ));
                }
            }
            for &v in &self.owned[u] {
                if self.adj[u].binary_search(&v).is_err() {
                    return Err(format!("owned edge {{{u},{v}}} missing from adjacency"));
                }
            }
        }
        Ok(())
    }
}

impl fmt::Debug for OwnedGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "OwnedGraph(n={}, edges=[", self.n)?;
        let mut first = true;
        for e in self.edges() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{}->{}", e.owner, e.other)?;
        }
        write!(f, "])")
    }
}

#[inline]
fn insert_sorted(v: &mut Vec<NodeId>, x: NodeId) {
    if let Err(pos) = v.binary_search(&x) {
        v.insert(pos, x);
    }
}

#[inline]
fn remove_sorted(v: &mut Vec<NodeId>, x: NodeId) -> bool {
    if let Ok(pos) = v.binary_search(&x) {
        v.remove(pos);
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = OwnedGraph::new(4);
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 0);
        assert!(!g.has_edge(0, 1));
        g.check_invariants().unwrap();
    }

    #[test]
    fn add_and_query_edges() {
        let mut g = OwnedGraph::new(4);
        assert!(g.add_edge(0, 1));
        assert!(g.add_edge(2, 1));
        assert!(!g.add_edge(1, 0), "duplicate edge in other orientation");
        assert!(!g.add_edge(0, 0), "self loop rejected");
        assert!(!g.add_edge(0, 9), "out of range rejected");
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert!(g.owns_edge(0, 1));
        assert!(!g.owns_edge(1, 0));
        assert_eq!(g.edge_owner(1, 2), Some(2));
        assert_eq!(g.edge_owner(0, 3), None);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.owned_degree(1), 0);
        g.check_invariants().unwrap();
    }

    #[test]
    fn remove_edges_either_orientation() {
        let mut g = OwnedGraph::from_owned_edges(3, &[(0, 1), (1, 2)]);
        assert!(g.remove_edge(1, 0));
        assert!(!g.has_edge(0, 1));
        assert!(!g.remove_edge(0, 1));
        assert!(g.remove_owned_edge(1, 2));
        assert_eq!(g.num_edges(), 0);
        g.check_invariants().unwrap();
    }

    #[test]
    fn remove_owned_edge_requires_ownership() {
        let mut g = OwnedGraph::from_owned_edges(3, &[(0, 1)]);
        assert!(!g.remove_owned_edge(1, 0), "1 does not own the edge");
        assert!(g.has_edge(0, 1));
        assert!(g.remove_owned_edge(0, 1));
    }

    #[test]
    fn swap_edge_ignores_ownership() {
        let mut g = OwnedGraph::from_owned_edges(4, &[(0, 1)]);
        // Vertex 1 does not own {0,1} but may still swap it in the symmetric game.
        assert!(g.swap_edge(1, 0, 2));
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(0, 1));
        g.check_invariants().unwrap();
    }

    #[test]
    fn swap_rejects_existing_target() {
        let mut g = OwnedGraph::from_owned_edges(4, &[(0, 1), (0, 2)]);
        assert!(!g.swap_edge(0, 1, 2), "target edge already exists");
        assert!(g.has_edge(0, 1));
    }

    #[test]
    fn set_owned_neighbors_replaces_strategy() {
        let mut g = OwnedGraph::from_owned_edges(5, &[(0, 1), (0, 2), (3, 0)]);
        assert!(g.set_owned_neighbors(0, &[3, 4]));
        // Edge {0,3} already exists and stays owned by 3; {0,4} is new.
        assert!(g.has_edge(0, 4) && g.owns_edge(0, 4));
        assert!(g.has_edge(0, 3) && g.owns_edge(3, 0));
        assert!(!g.has_edge(0, 1) && !g.has_edge(0, 2));
        assert_eq!(g.owned_degree(0), 1);
        g.check_invariants().unwrap();
    }

    #[test]
    fn edge_iteration_is_deterministic() {
        let g = OwnedGraph::from_owned_edges(4, &[(2, 0), (0, 1), (3, 1)]);
        let edges: Vec<(NodeId, NodeId)> = g.edges().map(|e| (e.owner, e.other)).collect();
        assert_eq!(edges, vec![(0, 1), (2, 0), (3, 1)]);
    }

    #[test]
    fn debug_format_lists_edges() {
        let g = OwnedGraph::from_owned_edges(3, &[(0, 1)]);
        assert_eq!(format!("{g:?}"), "OwnedGraph(n=3, edges=[0->1])");
    }

    #[test]
    fn journal_records_structural_changes_in_order() {
        let mut g = OwnedGraph::new(5);
        let v0 = g.version();
        assert_eq!(g.changes_since(v0), Some(&[][..]));
        assert!(g.add_edge(0, 1));
        assert!(g.add_edge(1, 2));
        assert!(g.remove_edge(0, 1));
        assert_eq!(
            g.changes_since(v0),
            Some(
                &[
                    EdgeChange::Added { u: 0, v: 1 },
                    EdgeChange::Added { u: 1, v: 2 },
                    EdgeChange::Removed { u: 0, v: 1 },
                ][..]
            )
        );
        let mid = g.version();
        assert!(g.swap_edge(1, 2, 4));
        assert_eq!(
            g.changes_since(mid),
            Some(
                &[
                    EdgeChange::Removed { u: 1, v: 2 },
                    EdgeChange::Added { u: 1, v: 4 },
                ][..]
            )
        );
        // Failed mutations leave the version untouched.
        let v = g.version();
        assert!(!g.add_edge(1, 4));
        assert!(!g.remove_edge(0, 3));
        assert_eq!(g.version(), v);
    }

    #[test]
    fn ownership_only_changes_are_not_journaled() {
        // set_owned_neighbors towards an existing foreign-owned edge leaves
        // the structure (and hence the journal) unchanged.
        let mut g = OwnedGraph::from_owned_edges(3, &[(1, 0)]);
        let v = g.version();
        assert!(g.set_owned_neighbors(0, &[]));
        assert_eq!(g.version(), v);
    }

    #[test]
    fn clones_start_a_fresh_lineage() {
        let mut g = OwnedGraph::new(4);
        g.add_edge(0, 1);
        let v = g.version();
        let mut c = g.clone();
        assert_eq!(g, c, "clone is structurally identical");
        assert!(
            c.changes_since(v).is_none(),
            "versions never cross lineages"
        );
        // Diverge the clone; the original's journal is unaffected.
        c.add_edge(2, 3);
        assert_eq!(g.changes_since(v), Some(&[][..]));
        let mut d = OwnedGraph::new(4);
        d.clone_from(&g);
        assert!(d.changes_since(g.version()).is_none());
        assert_eq!(d, g);
    }

    #[test]
    fn journal_window_is_bounded() {
        let mut g = OwnedGraph::new(3);
        let ancient = g.version();
        for _ in 0..3000 {
            assert!(g.add_edge(0, 1));
            assert!(g.remove_edge(0, 1));
        }
        assert!(
            g.changes_since(ancient).is_none(),
            "positions before the retained window are rejected"
        );
        let recent = g.version();
        g.add_edge(1, 2);
        assert_eq!(
            g.changes_since(recent),
            Some(&[EdgeChange::Added { u: 1, v: 2 }][..])
        );
    }

    #[test]
    fn equality_and_hash_ignore_history() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut a = OwnedGraph::new(3);
        a.add_edge(0, 1);
        a.add_edge(1, 2);
        a.remove_edge(1, 2);
        let b = OwnedGraph::from_owned_edges(3, &[(0, 1)]);
        assert_eq!(a, b, "same structure, different histories");
        let digest = |g: &OwnedGraph| {
            let mut h = DefaultHasher::new();
            g.hash(&mut h);
            h.finish()
        };
        assert_eq!(digest(&a), digest(&b));
    }
}
