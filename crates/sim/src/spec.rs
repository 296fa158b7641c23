//! The axes of an experiment: game family, α-rule, initial topology and
//! execution engine.

use ncg_core::{
    AsymSwapGame, BilateralBuyGame, BuyGame, DistanceMetric, Game, GreedyBuyGame, OracleKind,
};
use ncg_graph::{generators, OwnedGraph};
use rand::Rng;

/// Execution engine of a trial: which engine scores candidate moves.
///
/// The engine never changes a trajectory: every engine moves agents in the
/// policy's exact order (for the max-cost policy the paper's experiments
/// specify, an unhappy agent of maximum cost). The default is
/// [`EngineSpec::persistent`]; [`EngineSpec::baseline`] is the full-BFS
/// reference it is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineSpec {
    /// Engine scoring candidate moves: the persistent oracle or the
    /// full-BFS reference.
    pub oracle: OracleKind,
}

impl EngineSpec {
    /// The reference engine: every candidate is applied to a scratch graph,
    /// measured by BFS and undone, consent included; its oracle never syncs.
    pub fn baseline() -> Self {
        EngineSpec {
            oracle: OracleKind::FullBfs,
        }
    }

    /// The persistent engine (the default): distance vectors are carried
    /// *across* dynamics steps (per-source cache + graph change-journal
    /// replay) instead of being re-pinned with a fresh BFS per
    /// `(agent, state)` scan, the CSR snapshot is journal-patched in place,
    /// and insertion candidates are bounded from level histograms and scored
    /// arithmetically from the parked vectors.
    pub fn persistent() -> Self {
        EngineSpec {
            oracle: OracleKind::Persistent,
        }
    }

    /// Short label (`"full-bfs"` or `"persistent"`) used in reports and
    /// hashed into every sweep point's identity and trial seeds.
    pub fn label(&self) -> String {
        self.oracle.label().to_string()
    }
}

/// Which game family a simulation runs (the empirical study only uses the ASG and
/// the GBG; best responses of the full Buy Game are NP-hard, exactly as the paper
/// notes in §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GameFamily {
    /// Asymmetric Swap Game, SUM distance-cost (Fig. 7).
    AsgSum,
    /// Asymmetric Swap Game, MAX distance-cost (Fig. 8).
    AsgMax,
    /// Greedy Buy Game, SUM distance-cost (Fig. 11 / 12).
    GbgSum,
    /// Greedy Buy Game, MAX distance-cost (Fig. 13 / 14).
    GbgMax,
    /// Bilateral equal-split Buy Game, SUM distance-cost (paper §5). Best
    /// responses enumerate `2^(n-1)` neighbour sets, so sweeps stay at tiny
    /// `n` (≤ [`GameFamily::MAX_BILATERAL_N`]); the consent checks are
    /// delta-scored on the persistent engine.
    BilateralSum,
    /// Bilateral equal-split Buy Game, MAX distance-cost.
    BilateralMax,
    /// The exact Buy Game of Fabrikant et al. (best responses enumerate every
    /// owned-neighbour subset, so sweeps stay at tiny `n` ≤
    /// [`GameFamily::MAX_EXACT_BUY_N`] — exactly like the bilateral family);
    /// SUM distance-cost. Its trajectories are the only ones whose
    /// `strategy_rewrites` move counts are non-trivial at scale, which is
    /// what the trajectory sweeps use it for.
    BuySum,
    /// The exact Buy Game, MAX distance-cost.
    BuyMax,
}

impl GameFamily {
    /// Largest `n` the bilateral families accept (their best-response scans
    /// enumerate every subset of the strategy pool, `|pool| = n - 1`).
    pub const MAX_BILATERAL_N: usize = 16;

    /// Largest `n` the exact Buy Game families accept (same exponential
    /// best-response enumeration as the bilateral game).
    pub const MAX_EXACT_BUY_N: usize = 16;

    /// Short label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            GameFamily::AsgSum => "SUM-ASG",
            GameFamily::AsgMax => "MAX-ASG",
            GameFamily::GbgSum => "SUM-GBG",
            GameFamily::GbgMax => "MAX-GBG",
            GameFamily::BilateralSum => "SUM-BIL",
            GameFamily::BilateralMax => "MAX-BIL",
            GameFamily::BuySum => "SUM-BG",
            GameFamily::BuyMax => "MAX-BG",
        }
    }

    /// Inverse of [`GameFamily::label`] (plan-spec round trips).
    pub fn parse(s: &str) -> Option<GameFamily> {
        match s {
            "SUM-ASG" => Some(GameFamily::AsgSum),
            "MAX-ASG" => Some(GameFamily::AsgMax),
            "SUM-GBG" => Some(GameFamily::GbgSum),
            "MAX-GBG" => Some(GameFamily::GbgMax),
            "SUM-BIL" => Some(GameFamily::BilateralSum),
            "MAX-BIL" => Some(GameFamily::BilateralMax),
            "SUM-BG" => Some(GameFamily::BuySum),
            "MAX-BG" => Some(GameFamily::BuyMax),
            _ => None,
        }
    }

    /// The distance metric of the family.
    pub fn metric(&self) -> DistanceMetric {
        match self {
            GameFamily::AsgSum
            | GameFamily::GbgSum
            | GameFamily::BilateralSum
            | GameFamily::BuySum => DistanceMetric::Sum,
            GameFamily::AsgMax
            | GameFamily::GbgMax
            | GameFamily::BilateralMax
            | GameFamily::BuyMax => DistanceMetric::Max,
        }
    }

    /// True for the buy games (which need an edge price α).
    pub fn needs_alpha(&self) -> bool {
        matches!(
            self,
            GameFamily::GbgSum
                | GameFamily::GbgMax
                | GameFamily::BilateralSum
                | GameFamily::BilateralMax
                | GameFamily::BuySum
                | GameFamily::BuyMax
        )
    }

    /// Instantiates the family's game for `n` agents with the resolved α —
    /// the one place a family's game is built.
    ///
    /// # Panics
    /// Panics for a bilateral or exact-Buy family with `n` above its cap
    /// (the exponential best-response enumeration would be unusable anyway).
    pub fn make_game(&self, n: usize, alpha: f64) -> Box<dyn Game + Send + Sync> {
        match self {
            GameFamily::AsgSum => Box::new(AsymSwapGame::sum()),
            GameFamily::AsgMax => Box::new(AsymSwapGame::max()),
            GameFamily::GbgSum => Box::new(GreedyBuyGame::sum(alpha)),
            GameFamily::GbgMax => Box::new(GreedyBuyGame::max(alpha)),
            GameFamily::BuySum | GameFamily::BuyMax => {
                assert!(
                    n <= Self::MAX_EXACT_BUY_N,
                    "exact Buy Game best responses enumerate 2^|pool| strategies; n = {n} exceeds {}",
                    Self::MAX_EXACT_BUY_N
                );
                if *self == GameFamily::BuySum {
                    Box::new(BuyGame::sum(alpha))
                } else {
                    Box::new(BuyGame::max(alpha))
                }
            }
            GameFamily::BilateralSum | GameFamily::BilateralMax => {
                assert!(
                    n <= Self::MAX_BILATERAL_N,
                    "bilateral best responses enumerate 2^(n-1) strategies; n = {n} exceeds {}",
                    Self::MAX_BILATERAL_N
                );
                if *self == GameFamily::BilateralSum {
                    Box::new(BilateralBuyGame::sum(alpha))
                } else {
                    Box::new(BilateralBuyGame::max(alpha))
                }
            }
        }
    }
}

/// How the edge price α is derived from the number of agents. The paper uses
/// α ∈ {n/10, n/4, n/2, n} (§4.2.1, following Demaine et al.).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AlphaSpec {
    /// A fixed price independent of `n`.
    Fixed(f64),
    /// `α = fraction · n`.
    FractionOfN(f64),
}

impl AlphaSpec {
    /// Resolves the edge price for `n` agents.
    pub fn resolve(&self, n: usize) -> f64 {
        match self {
            AlphaSpec::Fixed(a) => *a,
            AlphaSpec::FractionOfN(f) => f * n as f64,
        }
    }

    /// Label such as `"n/4"` used in the paper's legends: `n/k` when the
    /// fraction is exactly `1/k` for an integer `k ≥ 2`, `n` for 1, and
    /// `{f}n` otherwise (`2n`, `0.4n`), so distinct fractions get distinct
    /// labels.
    pub fn label(&self) -> String {
        match self {
            AlphaSpec::Fixed(a) => format!("{a}"),
            AlphaSpec::FractionOfN(f) => {
                let k = (1.0 / f).round();
                if *f == 1.0 {
                    "n".to_string()
                } else if k >= 2.0 && k.is_finite() && 1.0 / k == *f {
                    format!("n/{k}")
                } else {
                    format!("{f}n")
                }
            }
        }
    }
}

/// How the random initial network is generated (§3.4.1 and §4.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitialTopology {
    /// Every agent owns exactly `k` edges (bounded-budget ASG workload).
    Budgeted {
        /// The per-agent budget `k`.
        k: usize,
    },
    /// Connected random network with `m = m_per_n · n` edges, uniform ownership
    /// (GBG workload: Fig. 11 / 13 start from `m ∈ {n, 4n}`, Fig. 12 / 14 from
    /// `m = n`).
    RandomEdges {
        /// Edge count as a multiple of `n`.
        m_per_n: usize,
    },
    /// Path with uniformly random edge-ownership (`rl` in Fig. 12 / 14).
    RandomLine,
    /// Path whose ownership forms a directed line (`dl` in Fig. 12 / 14).
    DirectedLine,
}

impl InitialTopology {
    /// Generates an initial network on `n` agents.
    pub fn generate<R: Rng>(&self, n: usize, rng: &mut R) -> OwnedGraph {
        match self {
            InitialTopology::Budgeted { k } => generators::budgeted_random(n, *k, rng),
            InitialTopology::RandomEdges { m_per_n } => {
                generators::random_with_m_edges(n, m_per_n * n, rng)
            }
            InitialTopology::RandomLine => generators::random_line(n, rng),
            InitialTopology::DirectedLine => generators::directed_line(n),
        }
    }

    /// Label such as `"k=2"`, `"m=4n"`, `"rl"`, `"dl"`.
    pub fn label(&self) -> String {
        match self {
            InitialTopology::Budgeted { k } => format!("k={k}"),
            InitialTopology::RandomEdges { m_per_n } => format!("m={m_per_n}n"),
            InitialTopology::RandomLine => "rl".to_string(),
            InitialTopology::DirectedLine => "dl".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn engine_spec_labels_cover_all_backends() {
        assert_eq!(EngineSpec::baseline().label(), "full-bfs");
        assert_eq!(EngineSpec::default(), EngineSpec::persistent());
        assert_eq!(EngineSpec::persistent().label(), "persistent");
    }

    #[test]
    fn exact_buy_family_constructs_the_buy_game() {
        assert_eq!(GameFamily::BuySum.label(), "SUM-BG");
        assert_eq!(GameFamily::BuyMax.label(), "MAX-BG");
        assert_eq!(GameFamily::BuyMax.metric(), DistanceMetric::Max);
        assert!(GameFamily::BuySum.needs_alpha());
        let game = GameFamily::BuySum.make_game(8, 2.0);
        assert_eq!(game.name(), "SUM-BG");
        assert_eq!(game.alpha(), 2.0);
        assert!(!game.needs_consent());
    }

    #[test]
    #[should_panic(expected = "exact Buy Game best responses")]
    fn exact_buy_family_rejects_large_n() {
        let _ = GameFamily::BuySum.make_game(GameFamily::MAX_EXACT_BUY_N + 1, 1.0);
    }

    #[test]
    fn alpha_resolution_and_labels() {
        assert_eq!(AlphaSpec::Fixed(2.5).resolve(100), 2.5);
        assert_eq!(AlphaSpec::FractionOfN(0.25).resolve(40), 10.0);
        assert_eq!(AlphaSpec::FractionOfN(0.25).label(), "n/4");
        assert_eq!(AlphaSpec::FractionOfN(1.0).label(), "n");
    }

    #[test]
    fn fraction_labels_are_exact_and_distinct() {
        let cases = [
            // The published fractions keep their legend labels.
            (0.1, "n/10"),
            (0.25, "n/4"),
            (0.5, "n/2"),
            (1.0, "n"),
            (1.0 / 3.0, "n/3"),
            // Fractions that are no unit fraction print as multiples of n.
            (2.0, "2n"),
            (4.0, "4n"),
            (1.5, "1.5n"),
            (0.4, "0.4n"),
            (0.3, "0.3n"),
        ];
        for (f, label) in cases {
            assert_eq!(AlphaSpec::FractionOfN(f).label(), label, "fraction {f}");
        }
        let labels: std::collections::HashSet<String> = cases
            .iter()
            .map(|&(f, _)| AlphaSpec::FractionOfN(f).label())
            .collect();
        assert_eq!(
            labels.len(),
            cases.len(),
            "distinct fractions, distinct labels"
        );
    }

    #[test]
    fn topology_generation_matches_spec() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = InitialTopology::Budgeted { k: 2 }.generate(20, &mut rng);
        assert_eq!(g.num_edges(), 40);
        let g = InitialTopology::RandomEdges { m_per_n: 2 }.generate(20, &mut rng);
        assert_eq!(g.num_edges(), 40);
        let g = InitialTopology::RandomLine.generate(20, &mut rng);
        assert_eq!(g.num_edges(), 19);
        let g = InitialTopology::DirectedLine.generate(20, &mut rng);
        assert!(g.owns_edge(0, 1));
    }

    #[test]
    fn family_labels_and_metric() {
        assert_eq!(GameFamily::AsgSum.label(), "SUM-ASG");
        assert_eq!(GameFamily::GbgMax.metric(), DistanceMetric::Max);
        assert!(GameFamily::GbgSum.needs_alpha());
        assert!(!GameFamily::AsgMax.needs_alpha());
    }

    #[test]
    fn bilateral_family_constructs_the_consent_game() {
        assert_eq!(GameFamily::BilateralSum.label(), "SUM-BIL");
        assert_eq!(GameFamily::BilateralMax.metric(), DistanceMetric::Max);
        assert!(GameFamily::BilateralSum.needs_alpha());
        let game = GameFamily::BilateralSum.make_game(10, 2.5);
        assert!(game.name().contains("bilateral"));
        assert!(game.needs_consent());
        assert_eq!(game.alpha(), 2.5);
    }

    #[test]
    #[should_panic(expected = "bilateral best responses")]
    fn bilateral_family_rejects_large_n() {
        let _ = GameFamily::BilateralMax.make_game(GameFamily::MAX_BILATERAL_N + 1, 1.0);
    }
}
