//! The benchmark's own correctness tests: its direct trial loop and its goldens
//! agree with the repository's reference paths.
//!
//! Run in release (the workload trials take seconds there, minutes in a
//! debug build):
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use ncg_sim::{run_seeded_trial, EngineSpec, StreamingStats};
use perfbench::{
    drive_trial, run_seeds, sweep_lines, trial_line, Golden, PointResult, SeedSet, TrialResult,
    Workload,
};

fn golden(set: SeedSet) -> Golden {
    let text = match set {
        SeedSet::Default => include_str!("../golden/default.txt"),
        SeedSet::Heldout => include_str!("../golden/heldout.txt"),
    };
    Golden::parse(text).expect("committed golden parses")
}

/// The benchmark's direct `Dynamics` loop follows the runner's trial-seeding
/// convention exactly: same steps and convergence as
/// `run_seeded_trial(.., EngineSpec::persistent(), ..)`, probing changes
/// nothing, and the result is the committed golden.
#[test]
fn direct_loop_reproduces_run_seeded_trial_on_a_workload_seed() {
    let w = Workload::AsgSum1024;
    let spec = w.trial_spec().expect("trial workload");
    let seed = SeedSet::Default.seeds(w)[0];
    let game = spec.make_game();
    let reference = run_seeded_trial(
        game.as_ref(),
        ncg_core::Policy::MaxCost,
        EngineSpec::persistent(),
        spec.max_steps(),
        seed,
        0,
        |rng| spec.scenario.generate(spec.n, rng),
    );
    let plain = drive_trial(&spec, game.as_ref(), seed, None);
    assert_eq!(plain.result.steps, reference.steps);
    assert_eq!(plain.result.converged, reference.converged);
    let probed = drive_trial(&spec, game.as_ref(), seed, Some(spec.n / 4));
    assert_eq!(probed.result, plain.result, "probing never changes a trial");
    assert_eq!(probed.step_s.len(), probed.result.steps);
    assert!(!probed.states.is_empty());
    assert!(golden(SeedSet::Default).check_trial(w, seed, &plain.result));
}

/// The n = 64 points of the figure sweep, re-run on the full-BFS reference
/// engine with the same per-point seeds and chunk layout, reproduce the
/// committed goldens bit for bit — so the goldens pin the dynamics, not the
/// persistent engine's implementation.
#[test]
fn n64_sweep_goldens_equal_a_full_bfs_run() {
    let w = Workload::SweepFigs256;
    let golden = golden(SeedSet::Default);
    let seed = SeedSet::Default.seeds(w)[0];
    let plan = w.plan(seed).expect("sweep workload");
    let mut checked = 0;
    for point in plan.flatten().into_iter().filter(|p| p.n == 64) {
        let game = point.make_game();
        let mut stats = StreamingStats::new();
        for (start, len) in plan.chunks(&point) {
            let mut chunk = StreamingStats::new();
            for t in start..start + len {
                let result = run_seeded_trial(
                    game.as_ref(),
                    point.policy,
                    EngineSpec::baseline(),
                    point.max_steps(),
                    point.base_seed,
                    t,
                    |rng| point.scenario.generate(point.n, rng),
                );
                chunk.push(&result, point.n);
            }
            stats.merge(&chunk);
        }
        let reference = PointResult {
            count: stats.count,
            total_steps: stats.total_steps,
            non_converged: stats.non_converged,
            mean_bits: stats.mean.to_bits(),
        };
        assert_eq!(
            golden.point(w, seed, point.hash),
            Some(reference),
            "point {}",
            point.label()
        );
        checked += 1;
    }
    assert_eq!(checked, 8, "two scenarios × four families at n = 64");
}

/// Both committed seed sets have a golden for every seed of every workload.
#[test]
fn goldens_cover_both_seed_sets() {
    for set in [SeedSet::Default, SeedSet::Heldout] {
        let golden = golden(set);
        for w in Workload::ALL {
            for seed in set.seeds(w) {
                match w.plan(seed) {
                    None => assert!(golden.trial(w, seed).is_some(), "{} {seed}", w.name()),
                    Some(plan) => {
                        for point in plan.flatten() {
                            assert!(
                                golden.point(w, seed, point.hash).is_some(),
                                "{} {seed} {}",
                                w.name(),
                                point.label()
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn golden_lines_round_trip() {
    let trial = TrialResult {
        steps: 2160,
        converged: true,
        fingerprint: 0xdead_beef_0123_4567,
    };
    let point = PointResult {
        count: 4,
        total_steps: 517,
        non_converged: 1,
        mean_bits: 129.25f64.to_bits(),
    };
    let text = format!(
        "# comment\n{}\n{}",
        trial_line(Workload::GbgSum1024, 7, &trial),
        sweep_lines(Workload::SweepFigs256, 3, &[(0xabc, point)])
    );
    let golden = Golden::parse(&text).expect("rendered lines parse");
    assert!(golden.check_trial(Workload::GbgSum1024, 7, &trial));
    assert!(!golden.check_trial(Workload::GbgSum1024, 8, &trial));
    assert_eq!(
        golden.check_sweep(Workload::SweepFigs256, 3, &[(0xabc, point)]),
        0
    );
    let wrong = PointResult {
        total_steps: 518,
        ..point
    };
    assert_eq!(
        golden.check_sweep(Workload::SweepFigs256, 3, &[(0xabc, wrong)]),
        1
    );
    assert_eq!(
        golden.check_sweep(Workload::SweepFigs256, 3, &[]),
        1,
        "a missing point fails"
    );
    assert!(Golden::parse("trial gbg-sum-1024 x steps=1").is_err());
}

#[test]
fn run_seeds_rotate_through_the_set() {
    let set = [1, 2, 3];
    assert_eq!(run_seeds(&set, 0, 3), vec![1, 2, 3]);
    assert_eq!(run_seeds(&set, 4, 3), vec![2, 3, 1]);
    assert_eq!(run_seeds(&set, 2, 5), vec![3, 1, 2, 3, 1]);
}
