//! Structural predicates and descriptors used throughout the dynamics analysis:
//! connectivity, tree tests, diameter, eccentricities, centers and medians.

use crate::distances::{BfsBuffer, UNREACHABLE};
use crate::graph::{NodeId, OwnedGraph};

/// Returns `true` if the graph is connected (the empty graph and single vertices
/// are considered connected).
pub fn is_connected(g: &OwnedGraph) -> bool {
    let n = g.num_nodes();
    if n <= 1 {
        return true;
    }
    let mut buf = BfsBuffer::new(n);
    buf.run(g, 0).iter().all(|&d| d != UNREACHABLE)
}

/// Returns `true` if the graph is a tree (connected with exactly `n - 1` edges).
pub fn is_tree(g: &OwnedGraph) -> bool {
    let n = g.num_nodes();
    n > 0 && g.num_edges() == n - 1 && is_connected(g)
}

/// Connected components as sorted vertex lists, ordered by smallest member.
pub fn components(g: &OwnedGraph) -> Vec<Vec<NodeId>> {
    let n = g.num_nodes();
    let mut seen = vec![false; n];
    let mut out = Vec::new();
    let mut buf = BfsBuffer::new(n);
    for s in 0..n {
        if seen[s] {
            continue;
        }
        let dist = buf.run(g, s);
        let mut comp: Vec<NodeId> = (0..n).filter(|&v| dist[v] != UNREACHABLE).collect();
        comp.sort_unstable();
        for &v in &comp {
            seen[v] = true;
        }
        out.push(comp);
    }
    out
}

/// Eccentricity of every vertex; `None` entries for vertices of a disconnected graph.
pub fn eccentricities(g: &OwnedGraph) -> Vec<Option<u32>> {
    let n = g.num_nodes();
    let mut buf = BfsBuffer::new(n);
    (0..n).map(|v| buf.summary(g, v).max).collect()
}

/// Sum-distance (SUM distance-cost) of every vertex; `None` for disconnected graphs.
pub fn sum_distance_vector(g: &OwnedGraph) -> Vec<Option<u64>> {
    let n = g.num_nodes();
    let mut buf = BfsBuffer::new(n);
    (0..n).map(|v| buf.summary(g, v).sum).collect()
}

/// Diameter (max eccentricity), `None` if the graph is disconnected or empty.
pub fn diameter(g: &OwnedGraph) -> Option<u32> {
    let eccs = eccentricities(g);
    if eccs.is_empty() {
        return None;
    }
    eccs.into_iter()
        .collect::<Option<Vec<_>>>()
        .map(|v| v.into_iter().max().unwrap())
}

/// Radius (min eccentricity), `None` if the graph is disconnected or empty.
pub fn radius(g: &OwnedGraph) -> Option<u32> {
    let eccs = eccentricities(g);
    if eccs.is_empty() {
        return None;
    }
    eccs.into_iter()
        .collect::<Option<Vec<_>>>()
        .map(|v| v.into_iter().min().unwrap())
}

/// Center vertices: vertices of minimum eccentricity (the paper's "center-vertex",
/// Definition 2.5, is a vertex whose MAX cost is minimal).
///
/// Returns an empty vector for disconnected graphs.
pub fn center_vertices(g: &OwnedGraph) -> Vec<NodeId> {
    let eccs = eccentricities(g);
    let Some(all): Option<Vec<u32>> = eccs.into_iter().collect() else {
        return Vec::new();
    };
    let Some(&min) = all.iter().min() else {
        return Vec::new();
    };
    all.iter()
        .enumerate()
        .filter(|&(_, &e)| e == min)
        .map(|(v, _)| v)
        .collect()
}

/// Median vertices (1-median set): vertices of minimum sum-distance.
///
/// Returns an empty vector for disconnected graphs.
pub fn median_vertices(g: &OwnedGraph) -> Vec<NodeId> {
    let sums = sum_distance_vector(g);
    let Some(all): Option<Vec<u64>> = sums.into_iter().collect() else {
        return Vec::new();
    };
    let Some(&min) = all.iter().min() else {
        return Vec::new();
    };
    all.iter()
        .enumerate()
        .filter(|&(_, &s)| s == min)
        .map(|(v, _)| v)
        .collect()
}

/// Returns `true` if the tree `g` is a star: one center adjacent to all others.
/// (Stable trees of the SUM swap games are stars; Alon et al. SPAA'10.)
pub fn is_star(g: &OwnedGraph) -> bool {
    let n = g.num_nodes();
    if n <= 2 {
        return is_tree(g);
    }
    is_tree(g) && (0..n).any(|v| g.degree(v) == n - 1)
}

/// Returns `true` if the tree `g` is a star or a double star (two adjacent centers,
/// every other vertex a leaf attached to one of them). Stable trees of the MAX swap
/// game are exactly stars and double stars (Alon et al. SPAA'10), equivalently trees
/// of diameter at most 3.
pub fn is_star_or_double_star(g: &OwnedGraph) -> bool {
    if !is_tree(g) {
        return false;
    }
    matches!(diameter(g), Some(d) if d <= 3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn connectivity_and_tree() {
        let p = generators::path(6);
        assert!(is_connected(&p));
        assert!(is_tree(&p));
        let c = generators::cycle(6);
        assert!(is_connected(&c));
        assert!(!is_tree(&c));
        let mut g = OwnedGraph::new(3);
        g.add_edge(0, 1);
        assert!(!is_connected(&g));
        assert!(!is_tree(&g));
    }

    #[test]
    fn empty_and_singleton() {
        assert!(is_connected(&OwnedGraph::new(0)));
        assert!(is_connected(&OwnedGraph::new(1)));
        assert!(is_tree(&OwnedGraph::new(1)));
        assert!(!is_tree(&OwnedGraph::new(0)));
        assert_eq!(diameter(&OwnedGraph::new(1)), Some(0));
    }

    #[test]
    fn components_of_forest() {
        let mut g = OwnedGraph::new(5);
        g.add_edge(0, 1);
        g.add_edge(3, 4);
        let comps = components(&g);
        assert_eq!(comps, vec![vec![0, 1], vec![2], vec![3, 4]]);
    }

    #[test]
    fn diameter_radius_center_of_path() {
        let p = generators::path(7);
        assert_eq!(diameter(&p), Some(6));
        assert_eq!(radius(&p), Some(3));
        assert_eq!(center_vertices(&p), vec![3]);
        assert_eq!(median_vertices(&p), vec![3]);
        let p6 = generators::path(6);
        assert_eq!(center_vertices(&p6), vec![2, 3]);
    }

    #[test]
    fn disconnected_graph_has_no_diameter() {
        let g = OwnedGraph::new(3);
        assert_eq!(diameter(&g), None);
        assert!(center_vertices(&g).is_empty());
        assert!(median_vertices(&g).is_empty());
    }

    #[test]
    fn star_and_double_star_recognition() {
        assert!(is_star(&generators::star(5)));
        assert!(is_star_or_double_star(&generators::star(5)));
        let ds = generators::double_star(3, 2);
        assert!(!is_star(&ds));
        assert!(is_star_or_double_star(&ds));
        assert!(!is_star_or_double_star(&generators::path(6)));
        // A path on 4 vertices has diameter 3, i.e. it *is* a double star.
        assert!(is_star_or_double_star(&generators::path(4)));
    }
}
