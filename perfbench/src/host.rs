//! Host probes: peak memory and the run-health figures that show whether
//! the shared host disturbed a timed region.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Peak resident set size (`VmHWM`) of this process in MB (10^6 bytes).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Steal ticks (`USER_HZ`) of all host CPUs so far, from `/proc/stat`.
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let cpu = s.lines().find(|l| l.starts_with("cpu "))?;
            cpu.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Host-wide steal rate, in ticks per second (100 ticks are one stolen
/// CPU-second; the 2-vCPU reference host has 200 per second), above which a
/// measured unit counts as disturbed by the shared host. Undisturbed units
/// see at most ~8 per second there; visibly disturbed ones 100 and more,
/// running up to twice as long.
const DISTURBED_STEAL_PER_S: f64 = 25.0;

/// Runs `measure` once, and again while the host stole more CPU time from
/// it than [`DISTURBED_STEAL_PER_S`] and `budget_s` still covers another
/// unit of `unit_s` seconds (each attempt's wall-clock is charged to the
/// budget). Returns the attempt the host disturbed least, and how many
/// attempts were repeated. Every attempt runs the same inputs, so only the
/// timing differs between them.
pub fn least_disturbed<T>(
    budget_s: &mut f64,
    unit_s: f64,
    mut measure: impl FnMut() -> T,
) -> (T, usize) {
    let mut best: Option<(f64, T)> = None;
    let mut repeated = 0;
    loop {
        let t = Instant::now();
        let steal = steal_ticks();
        let value = measure();
        let elapsed = t.elapsed().as_secs_f64();
        let rate = steal_ticks().saturating_sub(steal) as f64 / elapsed.max(1e-3);
        if best.as_ref().is_none_or(|(r, _)| rate < *r) {
            best = Some((rate, value));
        }
        if rate <= DISTURBED_STEAL_PER_S || *budget_s < unit_s {
            break;
        }
        *budget_s -= elapsed;
        repeated += 1;
    }
    (best.expect("at least one attempt").1, repeated)
}

/// Run-queue wait (ns) of every live thread of this process, keyed by
/// thread id, from `/proc/self/task/<tid>/schedstat`.
fn task_waits() -> HashMap<u64, u64> {
    let mut out = HashMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let wait = std::fs::read_to_string(entry.path().join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().nth(1)?.parse().ok());
        if let Some(wait) = wait {
            out.insert(tid, wait);
        }
    }
    out
}

/// What the host did to a timed region.
#[derive(Debug, Clone, Copy, Default)]
pub struct Health {
    /// Seconds this process's threads spent runnable but waiting for a CPU.
    pub runq_wait_s: f64,
    /// Host steal ticks (1/100 s each) while the region ran.
    pub steal_ticks: u64,
}

/// Watches a timed region. Per-thread run-queue waits are sampled every
/// 100 ms by a monitor thread (sweep workers are short-lived threads the
/// benchmark does not own, so their counters must be read while they live);
/// the monitor only sleeps and reads `/proc`, off every timed path.
pub struct HealthProbe {
    start_waits: HashMap<u64, u64>,
    start_steal: u64,
    stop: Arc<AtomicBool>,
    monitor: JoinHandle<HashMap<u64, u64>>,
}

impl HealthProbe {
    /// Starts watching.
    pub fn start() -> HealthProbe {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let monitor = std::thread::spawn(move || {
            let mut last = HashMap::new();
            loop {
                last.extend(task_waits());
                if flag.load(Ordering::Relaxed) {
                    return last;
                }
                std::thread::park_timeout(Duration::from_millis(100));
            }
        });
        HealthProbe {
            start_waits: task_waits(),
            start_steal: steal_ticks(),
            stop,
            monitor,
        }
    }

    /// Stops watching and returns the region's figures.
    pub fn stop(self) -> Health {
        let steal = steal_ticks().saturating_sub(self.start_steal);
        self.stop.store(true, Ordering::Relaxed);
        self.monitor.thread().unpark();
        let last = self.monitor.join().expect("health monitor thread");
        let wait_ns: u64 = last
            .iter()
            .map(|(tid, &w)| w.saturating_sub(self.start_waits.get(tid).copied().unwrap_or(0)))
            .sum();
        Health {
            runq_wait_s: wait_ns as f64 / 1e9,
            steal_ticks: steal,
        }
    }
}
