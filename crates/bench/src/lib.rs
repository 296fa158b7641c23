//! Shared helpers for the figure-regeneration binaries of the benchmark crate.
//!
//! Every binary regenerates one figure of the paper's empirical study by
//! running its `SweepPlan` (`ncg_lab::figures`) through `ncg_lab::run_sweep`.
//! The scale of the sweep (largest `n`, stride over the `n`-axis, trials per
//! point, worker threads) is controlled by simple `key=value` command-line
//! arguments so that the same binary can run a quick CI-scale sweep or the
//! paper's full 10,000-trial configuration; an unknown key warns, and an
//! argument without `=` or with a malformed value exits with status 2:
//!
//! ```text
//! cargo run -p ncg-bench --release --bin fig07_asg_sum -- max_n=100 trials=10000
//! ```

#![forbid(unsafe_code)]

use ncg_lab::figures::{render_csv, render_table, FigureData, FigureDef};
use ncg_lab::{run_sweep, RunOptions};

/// Scale parameters of a regeneration run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Largest number of agents in the sweep.
    pub max_n: usize,
    /// Keep every `stride`-th sweep point.
    pub stride: usize,
    /// Trials per point.
    pub trials: usize,
    /// Worker threads (`None` = all CPUs).
    pub threads: Option<usize>,
    /// Also print CSV after the table.
    pub csv: bool,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            max_n: 40,
            stride: 1,
            trials: 30,
            threads: None,
            csv: false,
        }
    }
}

impl Scale {
    /// Parses `key=value` arguments (`max_n`, `stride`, `trials`, `threads`,
    /// `csv`). Unknown keys only warn; an argument without `=` or a value
    /// that does not parse is an error.
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut scale = Scale::default();
        for arg in args {
            let (key, value) = split_arg(&arg)?;
            match key {
                "max_n" => scale.max_n = parse_arg(key, value)?,
                "stride" => scale.stride = parse_arg(key, value)?,
                "trials" => scale.trials = parse_arg(key, value)?,
                "threads" => scale.threads = Some(parse_arg(key, value)?),
                "csv" => scale.csv = parse_flag(key, value)?,
                _ => eprintln!("ignoring unknown argument {key}={value}"),
            }
        }
        Ok(scale)
    }

    /// Parses the process arguments; exits with status 2 on a malformed
    /// argument.
    pub fn from_env() -> Self {
        Self::from_args(std::env::args().skip(1)).unwrap_or_else(|e| exit_bad_args(&e))
    }
}

/// Splits a `key=value` command-line argument; an argument without `=` is an
/// error, not something to skip.
pub fn split_arg(arg: &str) -> Result<(&str, &str), String> {
    arg.split_once('=')
        .ok_or_else(|| format!("malformed argument {arg:?}: expected key=value"))
}

/// Parses the value of a `key=value` command-line argument.
pub fn parse_arg<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| bad_value(key, value))
}

/// Parses an on/off command-line argument: `1` or `true`, `0` or `false`.
pub fn parse_flag(key: &str, value: &str) -> Result<bool, String> {
    match value {
        "1" | "true" => Ok(true),
        "0" | "false" => Ok(false),
        _ => Err(bad_value(key, value)),
    }
}

/// The error of a malformed argument, worded as `SweepPlan::parse_spec` words
/// a malformed spec value.
fn bad_value(key: &str, value: &str) -> String {
    format!("bad value for {key}: {value:?}")
}

/// Prints a command-line error and exits with status 2.
pub fn exit_bad_args(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2)
}

/// Sweep-plan presets and reporting for the `sweep` binary: the Fig. 7/11
/// grids extended to large `n` on the persistent engine, plus the bilateral
/// and exact Buy Game families at tiny `n`.
pub mod sweeps {
    use ncg_core::policy::Policy;
    use ncg_lab::{PointOutcome, Scenario, SweepOutcome, SweepPlan};
    use ncg_sim::{AlphaSpec, EngineSpec, GameFamily, InitialTopology, STEP_HIST_BUCKET_WIDTH};
    use std::fmt::Write as _;

    /// Doubling `n` axis `64, 128, … , max_n` (clamped below by one entry).
    fn doubling_ns(max_n: usize) -> Vec<usize> {
        let mut ns = Vec::new();
        let mut n = 64usize;
        while n <= max_n {
            ns.push(n);
            n *= 2;
        }
        if ns.is_empty() {
            ns.push(max_n.max(8));
        }
        ns
    }

    /// Fig. 7-style grid (SUM-ASG, budgeted starts) extended to `max_n` on
    /// the persistent engine.
    pub fn fig07_style(max_n: usize, trials: usize, base_seed: u64) -> SweepPlan {
        let mut plan = SweepPlan::new("fig07-style");
        plan.scenarios = vec![
            Scenario::Paper(InitialTopology::Budgeted { k: 1 }),
            Scenario::Paper(InitialTopology::Budgeted { k: 3 }),
        ];
        plan.families = vec![GameFamily::AsgSum];
        plan.policies = vec![Policy::MaxCost];
        plan.ns = doubling_ns(max_n);
        plan.set_trials(trials);
        plan.base_seed = base_seed;
        plan.engine = EngineSpec::persistent();
        plan
    }

    /// Fig. 11-style grid (SUM-GBG, random `m = 2n` starts, α ∈ {n/4, n})
    /// extended to `max_n` on the persistent engine.
    pub fn fig11_style(max_n: usize, trials: usize, base_seed: u64) -> SweepPlan {
        let mut plan = SweepPlan::new("fig11-style");
        plan.scenarios = vec![Scenario::Paper(InitialTopology::RandomEdges { m_per_n: 2 })];
        plan.families = vec![GameFamily::GbgSum];
        plan.policies = vec![Policy::MaxCost];
        plan.alphas = vec![AlphaSpec::FractionOfN(0.25), AlphaSpec::FractionOfN(1.0)];
        plan.ns = doubling_ns(max_n);
        plan.set_trials(trials);
        plan.base_seed = base_seed.wrapping_add(0x11);
        plan.engine = EngineSpec::persistent();
        plan
    }

    /// Bilateral equal-split sweeps (paper §5) at tiny `n` — bilateral best
    /// responses enumerate every neighbour set, so `n` is capped at
    /// `GameFamily::MAX_BILATERAL_N` — with the consent checks delta-scored
    /// on the persistent engine (no apply → BFS → undo per candidate).
    pub fn bilateral_small(max_n: usize, trials: usize, base_seed: u64) -> SweepPlan {
        let cap = max_n.min(GameFamily::MAX_BILATERAL_N);
        let mut plan = SweepPlan::new("bilateral-small");
        plan.scenarios = vec![Scenario::Paper(InitialTopology::RandomEdges { m_per_n: 2 })];
        plan.families = vec![GameFamily::BilateralSum];
        plan.policies = vec![Policy::MaxCost];
        plan.alphas = vec![AlphaSpec::FractionOfN(0.25), AlphaSpec::FractionOfN(1.0)];
        plan.ns = [8usize, 10, 12, 14]
            .into_iter()
            .filter(|&n| n <= cap)
            .collect();
        if plan.ns.is_empty() {
            plan.ns.push(cap.max(6));
        }
        plan.set_trials(trials);
        plan.base_seed = base_seed.wrapping_add(0xb1);
        plan.engine = EngineSpec::persistent();
        plan
    }

    /// Exact Buy Game sweeps (the original NCG of Fabrikant et al.) at tiny
    /// `n` — best responses enumerate every owned-neighbour subset, so `n` is
    /// capped at `GameFamily::MAX_EXACT_BUY_N` — with the Gray-code delta
    /// scoring of the exponential enumeration on the persistent engine. Its
    /// trajectories are pure `strategy_rewrites`, which is what makes the
    /// family worth sweeping: the `sw` column of the move-kind reports is
    /// exercised at every point.
    pub fn exact_buy_small(max_n: usize, trials: usize, base_seed: u64) -> SweepPlan {
        let cap = max_n.min(GameFamily::MAX_EXACT_BUY_N);
        let mut plan = SweepPlan::new("exact-buy-small");
        plan.scenarios = vec![Scenario::Paper(InitialTopology::RandomEdges { m_per_n: 2 })];
        plan.families = vec![GameFamily::BuySum];
        plan.policies = vec![Policy::MaxCost];
        plan.alphas = vec![AlphaSpec::FractionOfN(0.25), AlphaSpec::FractionOfN(1.0)];
        plan.ns = [8usize, 10, 12].into_iter().filter(|&n| n <= cap).collect();
        if plan.ns.is_empty() {
            plan.ns.push(cap.max(6));
        }
        plan.set_trials(trials);
        plan.base_seed = base_seed.wrapping_add(0xb6);
        plan.engine = EngineSpec::persistent();
        plan
    }

    /// The non-empty buckets of a point's steps-per-agent histogram as
    /// `"[lo,hi)": count` JSON members; the last bucket is open-ended (it
    /// absorbs every ratio beyond the covered range) and renders as
    /// `"[lo,inf)"`.
    fn hist_json(p: &PointOutcome) -> String {
        let mut parts = Vec::new();
        for (i, &count) in p.stats.hist.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let lo = i as f64 * STEP_HIST_BUCKET_WIDTH;
            if i + 1 < p.stats.hist.len() {
                let hi = lo + STEP_HIST_BUCKET_WIDTH;
                parts.push(format!("\"[{lo:.1},{hi:.1})\": {count}"));
            } else {
                parts.push(format!("\"[{lo:.1},inf)\": {count}"));
            }
        }
        parts.join(", ")
    }

    /// Renders the measured sweeps as the `BENCH_sweeps.json` snapshot.
    pub fn render_json(runs: &[(SweepPlan, SweepOutcome)], smoke: bool, seconds: f64) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"smoke\": {smoke},");
        let _ = writeln!(out, "  \"wall_seconds\": {seconds:.1},");
        let _ = writeln!(out, "  \"provenance\": {},", super::provenance_json());
        out.push_str("  \"sweeps\": [\n");
        for (si, (plan, outcome)) in runs.iter().enumerate() {
            let _ = writeln!(out, "    {{\"plan\": \"{}\",", plan.name);
            let _ = writeln!(out, "     \"engine\": \"{}\",", plan.engine.label());
            let _ = writeln!(out, "     \"trials_per_point\": {},", plan.trials);
            let worst = outcome
                .points
                .iter()
                .map(|p| p.stats.max_steps as f64 / p.point.n as f64)
                .fold(0.0, f64::max);
            let _ = writeln!(out, "     \"worst_max_steps_per_agent\": {worst:.3},");
            out.push_str("     \"points\": [\n");
            for (i, p) in outcome.points.iter().enumerate() {
                let s = &p.stats;
                let _ = write!(
                    out,
                    "       {{\"label\": \"{}\", \"n\": {}, \"trials\": {}, \
                     \"avg_steps\": {:.3}, \"max_steps\": {}, \"min_steps\": {}, \
                     \"std_dev\": {:.3}, \"non_converged\": {}, \
                     \"avg_steps_per_agent\": {:.4}, \"max_steps_per_agent\": {:.4}, \
                     \"hist_steps_per_agent\": {{{}}}}}",
                    p.point.label().replace(',', ";"),
                    p.point.n,
                    s.count,
                    s.summary(p.point.n).avg_steps,
                    s.max_steps,
                    s.min_steps,
                    s.std_dev(),
                    s.non_converged,
                    s.summary(p.point.n).avg_steps_per_agent(),
                    s.max_steps as f64 / p.point.n as f64,
                    hist_json(p)
                );
                out.push_str(if i + 1 < outcome.points.len() {
                    ",\n"
                } else {
                    "\n"
                });
            }
            out.push_str("     ]}");
            out.push_str(if si + 1 < runs.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// The `provenance` object of a committed snapshot (`BENCH_oracle.json`,
/// `BENCH_sweeps.json`): where and with what the numbers were measured.
pub fn provenance_json() -> String {
    let run = |program: &str, args: &[&str]| -> Option<String> {
        let out = std::process::Command::new(program)
            .args(args)
            .output()
            .ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    // A tree with uncommitted edits to tracked files is marked, as
    // `git describe --dirty` does.
    let commit = run("git", &["rev-parse", "--short", "HEAD"]).map_or_else(
        || "unknown".to_string(),
        |hash| match run("git", &["status", "--porcelain", "--untracked-files=no"]) {
            Some(status) if !status.is_empty() => format!("{hash}-dirty"),
            _ => hash,
        },
    );
    let rustc = run("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let quote = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
    format!(
        "{{\"commit\": {}, \"rustc\": {}, \"available_parallelism\": {cores}, \"cpu\": {}}}",
        quote(&commit),
        quote(&rustc),
        quote(&cpu)
    )
}

/// Runs one figure's plan at the given scale through `run_sweep` and prints
/// the table (and optionally CSV) to stdout.
pub fn regenerate(def: FigureDef, scale: Scale) {
    let def = def.scaled(scale.max_n, scale.stride, scale.trials);
    eprintln!(
        "regenerating {} (max_n={}, stride={}, trials={}) …",
        def.id, scale.max_n, scale.stride, scale.trials
    );
    let opts = RunOptions {
        threads: scale.threads,
        ..RunOptions::default()
    };
    let outcome = run_sweep(&def.plan, &opts).expect("a sweep without a journal does no I/O");
    let data = FigureData::from_outcome(&def, &outcome);
    println!("{}", render_table(&def, &data));
    if scale.csv {
        println!("{}", render_csv(&data));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        let s = Scale::from_args(
            ["max_n=20", "trials=7", "stride=2", "csv=true", "x=1"].map(String::from),
        )
        .expect("well-formed values");
        assert_eq!(s.max_n, 20);
        assert_eq!(s.trials, 7);
        assert_eq!(s.stride, 2);
        assert!(s.csv);
        assert_eq!(s.threads, None);
        // A malformed value is an error, not its default.
        let err = Scale::from_args(["max_n=20", "trials=1O000"].map(String::from))
            .expect_err("trials=1O000 must be rejected");
        assert_eq!(err, "bad value for trials: \"1O000\"");
        // So is an argument without `=`: `trials 2` must not run the default.
        let err = Scale::from_args(["max_n=20", "bogus"].map(String::from))
            .expect_err("bogus must be rejected");
        assert_eq!(err, "malformed argument \"bogus\": expected key=value");
    }
}
