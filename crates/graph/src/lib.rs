//! # ncg-graph
//!
//! Graph substrate for the selfish network creation dynamics library.
//!
//! Network creation games (Fabrikant et al., PODC'03 and variants) are played on
//! *owned* undirected graphs: every vertex is an agent, every edge is paid for and
//! controlled by exactly one of its endpoints. This crate provides
//!
//! * [`OwnedGraph`] — an undirected graph with per-edge ownership and cheap
//!   mutation (add / delete / swap an edge),
//! * shortest-path machinery with reusable buffers ([`BfsBuffer`],
//!   [`DistanceMatrix`], [`DistanceSummary`]) tuned for the inner loop of
//!   best-response computations,
//! * the persistent what-if distance oracle ([`oracle`]), which repairs a
//!   source's distance vector under single edge insert/delete deltas and
//!   carries it across graph versions, on a flat CSR adjacency snapshot
//!   ([`csr`]) for cache locality,
//! * structural predicates and descriptors ([`properties`]): connectivity, tree
//!   tests, diameter, eccentricities, centers and medians,
//! * the workload generators used by the paper's empirical study
//!   ([`generators`]): budget-constrained random networks, random spanning
//!   trees, paths, random/directed lines and Erdős–Rényi style edge fill,
//! * [`HostGraph`] — restrictions of the buildable edge set (Cor. 3.6 / 4.2), and
//! * canonical state encodings ([`canonical`]) used by the dynamics engine for
//!   exact cycle detection.
//!
//! The crate has no opinion about costs or strategies; that lives in `ncg-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod canonical;
pub mod csr;
pub mod distances;
pub mod generators;
pub mod graph;
pub mod host;
pub mod oracle;
pub mod properties;

pub use batch::{BatchSummary, MultiSourceBfs, BATCH_WIDTH};
pub use canonical::{canonical_state_key, canonical_unlabeled_key, StateKey};
pub use csr::{CsrAdjacency, PatchOutcome};
pub use distances::{BfsBuffer, DistanceMatrix, DistanceSummary, UNREACHABLE};
pub use graph::{EdgeChange, EdgeRef, GraphVersion, NodeId, OwnedGraph};
pub use host::HostGraph;
pub use oracle::{make_oracle, EdgeDelta, OracleKind, OracleStats, PersistentOracle};
pub use properties::{
    center_vertices, components, diameter, eccentricities, is_connected, is_tree, median_vertices,
    radius, sum_distance_vector,
};
