//! The scenario axis of a sweep: the paper's starting topologies (§3.4.1 /
//! §4.2.1) as seeded, labelled initial-network families.
//!
//! Every [`Scenario`] produces [`OwnedGraph`] instances (simple, connected
//! graphs with per-edge ownership) from the trial's seeded stream, so
//! generation is deterministic under a fixed seed, which the batch
//! orchestrator relies on for exact checkpoint/resume. A scenario's label is
//! hashed into each sweep point's identity.

use ncg_graph::OwnedGraph;
use ncg_sim::InitialTopology;
use rand::Rng;

/// A named, seeded initial-network family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scenario {
    /// One of the paper's own starting topologies (§3.4.1 / §4.2.1).
    Paper(InitialTopology),
}

impl Scenario {
    /// Generates an instance on `n` agents.
    pub fn generate<R: Rng>(&self, n: usize, rng: &mut R) -> OwnedGraph {
        match *self {
            Scenario::Paper(topology) => topology.generate(n, rng),
        }
    }

    /// Short label used in reports, journals and the point hash.
    pub fn label(&self) -> String {
        match *self {
            Scenario::Paper(t) => t.label(),
        }
    }

    /// Parses a scenario label (the inverse of [`Scenario::label`]: the
    /// paper topology labels `k=…`, `m=…n`, `rl`, `dl`).
    pub fn parse(s: &str) -> Option<Scenario> {
        let topology = match s {
            "rl" => InitialTopology::RandomLine,
            "dl" => InitialTopology::DirectedLine,
            _ => match s.strip_prefix("k=") {
                Some(k) => InitialTopology::Budgeted { k: k.parse().ok()? },
                None => InitialTopology::RandomEdges {
                    m_per_n: s.strip_prefix("m=")?.strip_suffix('n')?.parse().ok()?,
                },
            },
        };
        Some(Scenario::Paper(topology))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncg_graph::properties::is_connected;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const PAPER: [Scenario; 4] = [
        Scenario::Paper(InitialTopology::Budgeted { k: 2 }),
        Scenario::Paper(InitialTopology::RandomEdges { m_per_n: 2 }),
        Scenario::Paper(InitialTopology::RandomLine),
        Scenario::Paper(InitialTopology::DirectedLine),
    ];

    #[test]
    fn every_catalog_family_is_deterministic_and_valid() {
        for scenario in PAPER {
            for n in [1usize, 2, 9, 24] {
                let a = scenario.generate(n, &mut StdRng::seed_from_u64(42));
                let b = scenario.generate(n, &mut StdRng::seed_from_u64(42));
                assert_eq!(
                    a,
                    b,
                    "{} n={n} must be seed-deterministic",
                    scenario.label()
                );
                assert_eq!(a.num_nodes(), n, "{}", scenario.label());
                a.check_invariants()
                    .unwrap_or_else(|e| panic!("{} n={n}: {e}", scenario.label()));
                if n >= 2 {
                    assert!(is_connected(&a), "{} n={n}", scenario.label());
                }
            }
        }
    }

    #[test]
    fn labels_round_trip_through_parse() {
        for scenario in PAPER {
            let label = scenario.label();
            let parsed =
                Scenario::parse(&label).unwrap_or_else(|| panic!("label {label} must parse back"));
            assert_eq!(parsed, scenario, "{label}");
        }
        assert_eq!(Scenario::parse("nonsense"), None);
        assert_eq!(Scenario::parse("m=2"), None, "missing the n suffix");
        assert_eq!(Scenario::parse("k=two"), None);
    }
}
