//! Named fault points: the kill-anywhere fault-injection harness behind the
//! fault-tolerance test matrix.
//!
//! Zero overhead when off, exactly like `ncg-trace`: every fault point is a
//! single relaxed [`AtomicBool`] load until a fault table is armed, so the
//! hooks stay in the production journal/telemetry/orchestrator paths
//! permanently. Faults are armed either programmatically ([`arm`], used by
//! in-process tests) or from the `NCG_FAULT` environment variable
//! ([`arm_from_env`], called by every shard-server process at startup — the
//! launch closure of [`crate::supervisor::LocalWorkers`] picks the spec, if
//! any, of each incarnation of each worker).
//!
//! # Spec grammar
//!
//! `NCG_FAULT` holds one or more specs separated by `;`:
//!
//! ```text
//! <point>:<action>[@<arg>][:hits=<N>]
//! ```
//!
//! * `point` — the fault-point name (`journal-append`, `telemetry-append`,
//!   `chunk-run`, …).
//! * `action` —
//!   * `kill` — abort the process on the spot (no flush, no cleanup);
//!   * `killbyte@B` — let the first `B` bytes pass through the point's write
//!     path, then write the torn prefix of the crossing write, flush, and
//!     abort: a kill at an **arbitrary journal byte offset**;
//!   * `err` — fail the operation with an injected `io::Error`
//!     (ENOSPC-style: the disk-full / yanked-volume class);
//!   * `corrupt` — flip bits in the buffer about to be written (a corrupted
//!     record that only integrity checks can catch);
//!   * `delay@MS` — sleep `MS` milliseconds (heartbeat stall);
//!   * `hang` — sleep effectively forever, forcing the coordinator's
//!     no-progress deadline to fire.
//! * `hits=N` — trigger on the `N`-th hit of the point (1-based, default 1);
//!   the spec fires exactly once. A spec only counts hits at call sites able
//!   to apply its action — `corrupt` counts buffer-mangling writes (so
//!   `hits=N` is the `N`-th record), `err` counts fallible operations —
//!   which keeps hit numbers meaningful at points with several hook kinds.
//!   `killbyte` ignores `hits` — its trigger is the cumulative byte count.
//!
//! Example: `NCG_FAULT=chunk-run:kill:hits=2;telemetry-append:err`.

use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Every fault point compiled into the production paths. Spec parsing
/// rejects any other name: a typo in an `NCG_FAULT` spec must be a loud
/// startup error, not a harness that silently tests nothing.
pub const KNOWN_POINTS: &[&str] = &[
    "journal-append",
    "telemetry-append",
    "chunk-run",
    "net-accept",
    "net-read",
    "net-write",
    "net-heartbeat",
];

/// Exit/abort is deliberately `process::abort()`: no atexit handlers, no
/// buffer flushes — the closest portable stand-in for SIGKILL.
fn die() -> ! {
    std::process::abort();
}

/// What a fault spec does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    Kill,
    KillAtByte(u64),
    Error,
    Corrupt,
    Delay(u64),
}

#[derive(Debug)]
struct Spec {
    point: String,
    action: Action,
    /// Fire on this hit (1-based). Unused by `KillAtByte`.
    at_hit: u64,
    /// Hits seen so far.
    hits: u64,
    /// Bytes already passed through (for `KillAtByte`).
    bytes: u64,
    /// A non-`killbyte` spec fires at most once.
    spent: bool,
}

static ARMED: AtomicBool = AtomicBool::new(false);
static TABLE: Mutex<Vec<Spec>> = Mutex::new(Vec::new());

/// Effectively-forever sleep used by `hang` (the coordinator's no-progress
/// deadline gives up on the assignment first; the hung process lives until
/// whoever started it kills it).
const HANG_MS: u64 = 3_600_000;

/// True once a fault table is armed. The off-path of every fault point is
/// exactly this relaxed load.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Parses one `<point>:<action>[@arg][:hits=N]` spec. Every rejection names
/// the offending token: a typo'd fault spec must fail loudly at startup, not
/// run the matrix with a harness that injects nothing.
fn parse_spec(s: &str) -> Result<Spec, String> {
    let mut parts = s.split(':');
    let point = parts.next().unwrap_or("").trim();
    if point.is_empty() {
        return Err(format!("bad fault spec {s:?}: empty fault-point name"));
    }
    if !KNOWN_POINTS.contains(&point) {
        return Err(format!(
            "bad fault spec {s:?}: unknown fault point {point:?} (known points: {})",
            KNOWN_POINTS.join(", ")
        ));
    }
    let action_str = match parts.next() {
        Some(a) => a.trim(),
        None => {
            return Err(format!(
                "bad fault spec {s:?}: missing action after {point:?}"
            ))
        }
    };
    let (action_name, arg) = match action_str.split_once('@') {
        Some((a, v)) => (a, Some(v)),
        None => (action_str, None),
    };
    let need_arg = |what: &str| -> Result<u64, String> {
        match arg {
            Some(v) => v.parse().map_err(|_| {
                format!("bad fault spec {s:?}: {action_name} needs a numeric {what}, got {v:?}")
            }),
            None => Err(format!(
                "bad fault spec {s:?}: {action_name} needs @<{what}>"
            )),
        }
    };
    let action = match action_name {
        "kill" => Action::Kill,
        "killbyte" => Action::KillAtByte(need_arg("byte offset")?),
        "err" => Action::Error,
        "corrupt" => Action::Corrupt,
        "delay" => Action::Delay(need_arg("milliseconds")?),
        "hang" => Action::Delay(HANG_MS),
        other => return Err(format!("bad fault spec {s:?}: unknown action {other:?}")),
    };
    if arg.is_some() && matches!(action_name, "kill" | "err" | "corrupt" | "hang") {
        return Err(format!(
            "bad fault spec {s:?}: {action_name} takes no @argument"
        ));
    }
    let mut at_hit = 1u64;
    for extra in parts {
        let extra = extra.trim();
        if let Some(n) = extra.strip_prefix("hits=") {
            at_hit = n
                .parse()
                .map_err(|_| format!("bad fault spec {s:?}: bad hits= value {n:?}"))?;
        } else {
            return Err(format!(
                "bad fault spec {s:?}: unknown attribute {extra:?} (only hits=N)"
            ));
        }
    }
    Ok(Spec {
        point: point.to_string(),
        action,
        at_hit: at_hit.max(1),
        hits: 0,
        bytes: 0,
        spent: false,
    })
}

/// Arms the fault table from a spec string (see the module docs for the
/// grammar), replacing any previously armed table. Returns a startup error
/// naming the bad token on a malformed spec — callers that take specs from
/// the environment ([`arm_from_env`]) surface this and refuse to run.
pub fn try_arm(specs: &str) -> Result<(), String> {
    let mut table = Vec::new();
    for part in specs.split(';') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        table.push(parse_spec(part)?);
    }
    let has_any = !table.is_empty();
    *TABLE.lock().expect("fault table poisoned") = table;
    ARMED.store(has_any, Ordering::Relaxed);
    Ok(())
}

/// [`try_arm`] for in-process tests: panics on a malformed spec — a fault
/// harness that silently ignores a typo would pass every test.
pub fn arm(specs: &str) {
    try_arm(specs).unwrap_or_else(|e| panic!("{e}"));
}

/// Arms from `NCG_FAULT` if set (shard workers and shard servers call this
/// at startup, so the launcher controls fault inheritance per attempt). A
/// malformed spec is a startup error the caller must surface — never a
/// silent no-op, never a panic.
pub fn arm_from_env() -> Result<(), String> {
    match std::env::var("NCG_FAULT") {
        Ok(spec) => try_arm(&spec).map_err(|e| format!("$NCG_FAULT: {e}")),
        Err(_) => Ok(()),
    }
}

/// Disarms every fault point (tests).
pub fn disarm() {
    TABLE.lock().expect("fault table poisoned").clear();
    ARMED.store(false, Ordering::Relaxed);
}

/// Serializes tests that arm the process-global fault table — every
/// in-process test using [`arm`] must hold this guard for its whole scope,
/// or a concurrently running test could clobber its specs.
#[doc(hidden)]
pub fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Counts a hit of `point` against every armed spec whose action the caller
/// can apply (`wants`), and returns the action if one fired. Filtering by
/// capability keeps a `corrupt` spec from being consumed — and wasted — by a
/// neighbouring `io_check` hook, and makes `hits=N` count only meaningful
/// events. `Delay` is slept here; `Kill` aborts here; `Error`/`Corrupt` are
/// returned for the caller to apply (they need the caller's buffer or
/// result type).
fn fire(point: &str, wants: impl Fn(Action) -> bool) -> Option<Action> {
    let mut table = TABLE.lock().expect("fault table poisoned");
    for spec in table.iter_mut() {
        if spec.spent || spec.point != point || !wants(spec.action) {
            continue;
        }
        if let Action::KillAtByte(_) = spec.action {
            continue; // byte-triggered, not hit-triggered
        }
        spec.hits += 1;
        if spec.hits != spec.at_hit {
            continue;
        }
        spec.spent = true;
        let action = spec.action;
        drop(table);
        match action {
            Action::Kill => die(),
            Action::Delay(ms) => std::thread::sleep(std::time::Duration::from_millis(ms)),
            _ => {}
        }
        return Some(action);
    }
    None
}

/// Hit a fault point that performs no I/O (kill / hang injection sites).
#[inline]
pub fn trip(point: &str) {
    if !armed() {
        return;
    }
    let _ = fire(point, |a| matches!(a, Action::Kill | Action::Delay(_)));
}

/// Hit a fault point guarding a fallible operation: returns the injected
/// error when an `err` spec fires (kill/delay are applied on the spot).
#[inline]
pub fn io_check(point: &str) -> io::Result<()> {
    if !armed() {
        return Ok(());
    }
    match fire(point, |a| {
        matches!(a, Action::Kill | Action::Delay(_) | Action::Error)
    }) {
        Some(Action::Error) => Err(io::Error::other(format!(
            "injected fault: no space left on device ({point})"
        ))),
        _ => Ok(()),
    }
}

/// Corrupts `buf` in place when a `corrupt` spec fires at this point: flips
/// bits in the middle of the buffer (never the trailing newline, so the
/// damage stays inside one record and must be caught by checksums, not by
/// accidental line splits).
#[inline]
pub fn mangle(point: &str, buf: &mut [u8]) {
    if !armed() {
        return;
    }
    if fire(point, |a| a == Action::Corrupt) == Some(Action::Corrupt) && buf.len() > 2 {
        let mid = buf.len() / 2;
        buf[mid] ^= 0x55;
        buf[mid / 2] ^= 0x2a;
    }
}

/// Writes `buf` through the point's byte-budget guard: when an armed
/// `killbyte@B` spec would be crossed by this write, only the prefix up to
/// byte `B` is written, the writer is flushed, and the process aborts —
/// leaving a torn record at exactly that byte offset. Without a matching
/// spec this is a plain `write_all`.
pub fn write_all<W: Write>(point: &str, w: &mut W, buf: &[u8]) -> io::Result<()> {
    if !armed() {
        return w.write_all(buf);
    }
    let cut = {
        let mut table = TABLE.lock().expect("fault table poisoned");
        let mut cut = None;
        for spec in table.iter_mut() {
            if spec.spent || spec.point != point {
                continue;
            }
            if let Action::KillAtByte(limit) = spec.action {
                if spec.bytes + buf.len() as u64 > limit {
                    spec.spent = true;
                    cut = Some((limit - spec.bytes) as usize);
                } else {
                    spec.bytes += buf.len() as u64;
                }
                break;
            }
        }
        cut
    };
    match cut {
        Some(prefix) => {
            w.write_all(&buf[..prefix])?;
            w.flush()?;
            die();
        }
        None => w.write_all(buf),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_path_is_inert() {
        let _g = test_lock();
        disarm();
        assert!(!armed());
        trip("anything");
        assert!(io_check("anything").is_ok());
        let mut buf = vec![1u8, 2, 3, 4];
        mangle("anything", &mut buf);
        assert_eq!(buf, vec![1, 2, 3, 4]);
        let mut out = Vec::new();
        write_all("anything", &mut out, b"abc").unwrap();
        assert_eq!(out, b"abc");
    }

    #[test]
    fn err_fires_on_the_configured_hit_then_disarms() {
        let _g = test_lock();
        arm("net-read:err:hits=3");
        assert!(io_check("net-read").is_ok());
        assert!(io_check("net-write").is_ok(), "foreign points never fire");
        assert!(io_check("net-read").is_ok());
        let e = io_check("net-read").unwrap_err();
        assert!(e.to_string().contains("injected fault"));
        assert!(io_check("net-read").is_ok(), "a spec fires exactly once");
        disarm();
    }

    #[test]
    fn corrupt_mangles_exactly_once() {
        let _g = test_lock();
        arm("net-write:corrupt");
        let clean = b"0123456789".to_vec();
        let mut buf = clean.clone();
        mangle("net-write", &mut buf);
        assert_ne!(buf, clean);
        let mut again = clean.clone();
        mangle("net-write", &mut again);
        assert_eq!(again, clean);
        disarm();
    }

    #[test]
    fn killbyte_budget_tracks_cumulative_bytes() {
        let _g = test_lock();
        // Budget of 10 bytes: two 4-byte writes pass, the third would cross.
        // We can't abort in-process, so only exercise the pass-through side.
        arm("journal-append:killbyte@10");
        let mut out = Vec::new();
        write_all("journal-append", &mut out, b"aaaa").unwrap();
        write_all("journal-append", &mut out, b"bbbb").unwrap();
        assert_eq!(out.len(), 8);
        disarm();
    }

    #[test]
    fn delay_spec_sleeps() {
        let _g = test_lock();
        arm("net-heartbeat:delay@30");
        let t0 = std::time::Instant::now();
        trip("net-heartbeat");
        assert!(t0.elapsed() >= std::time::Duration::from_millis(25));
        disarm();
    }

    #[test]
    fn specs_only_count_hits_at_capable_call_sites() {
        let _g = test_lock();
        arm("net-write:corrupt:hits=2;net-write:err:hits=2");
        // io_check cannot apply `corrupt`, so only the err spec counts here —
        // and a corrupt spec is never consumed (wasted) by a fallible-op hook.
        assert!(io_check("net-write").is_ok());
        let clean = b"0123456789".to_vec();
        let mut buf = clean.clone();
        mangle("net-write", &mut buf); // corrupt hit 1 of 2 — not yet
        assert_eq!(buf, clean);
        assert!(
            io_check("net-write").is_err(),
            "err fires on its 2nd fallible op"
        );
        mangle("net-write", &mut buf); // corrupt hit 2 of 2 — fires
        assert_ne!(buf, clean);
        disarm();
    }

    #[test]
    #[should_panic(expected = "bad fault spec")]
    fn bad_specs_panic_instead_of_silently_passing() {
        // Deliberately NOT taking the lock: panicking while holding it would
        // poison every other test. `arm` only mutates the table at the end.
        arm("chunk-run:explode");
    }

    #[test]
    fn spec_grammar_round_trips() {
        let s = parse_spec("journal-append:killbyte@1234").unwrap();
        assert_eq!(s.action, Action::KillAtByte(1234));
        let s = parse_spec("net-heartbeat:delay@250:hits=7").unwrap();
        assert_eq!(s.action, Action::Delay(250));
        assert_eq!(s.at_hit, 7);
        let s = parse_spec("net-heartbeat:hang").unwrap();
        assert_eq!(s.action, Action::Delay(HANG_MS));
    }

    #[test]
    fn malformed_specs_name_the_bad_token() {
        let err = |s: &str| parse_spec(s).unwrap_err();
        // Unknown point: named, with the known list for the fix.
        let e = err("journal-apend:kill");
        assert!(e.contains("unknown fault point"), "{e}");
        assert!(e.contains("journal-apend"), "{e}");
        assert!(e.contains("journal-append"), "suggests the known list: {e}");
        // Unknown action.
        let e = err("chunk-run:explode");
        assert!(e.contains("unknown action") && e.contains("explode"), "{e}");
        // Bad / missing numeric arguments.
        let e = err("journal-append:killbyte");
        assert!(e.contains("killbyte") && e.contains("byte offset"), "{e}");
        let e = err("journal-append:killbyte@twelve");
        assert!(e.contains("twelve"), "{e}");
        let e = err("net-heartbeat:delay@");
        assert!(e.contains("delay"), "{e}");
        // Bad hits= value and unknown attribute.
        let e = err("chunk-run:kill:hits=many");
        assert!(e.contains("hits=") && e.contains("many"), "{e}");
        let e = err("chunk-run:kill:whatever=1");
        assert!(
            e.contains("unknown attribute") && e.contains("whatever"),
            "{e}"
        );
        // Structural rejects.
        assert!(err(":err").contains("empty fault-point name"));
        let e = err("chunk-run");
        assert!(e.contains("missing action"), "{e}");
        let e = err("chunk-run:kill@5");
        assert!(e.contains("takes no @argument"), "{e}");
        // try_arm surfaces the same error without touching the armed table.
        let _g = test_lock();
        disarm();
        assert!(try_arm("chunk-run:kill;bogus:kill").is_err());
        assert!(!armed(), "a failed arm never half-arms");
    }
}
