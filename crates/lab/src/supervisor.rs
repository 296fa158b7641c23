//! Local shard workers: a pool of shard-server processes on loopback that a
//! [`run_distributed`](crate::transport::run_distributed) coordinator drives
//! exactly as it drives remote workers.
//!
//! [`LocalWorkers`] only keeps the processes up. Each one is started on
//! `127.0.0.1:0` and announces its port on stdout ([`ANNOUNCE`]); a worker
//! that exits is restarted on the address its slot announced, and every
//! worker is killed when the pool is dropped. Recovery belongs to the
//! coordinator: it retries and reassigns severed or stalled shards, audits
//! every `Done`, and drops a worker that keeps failing, so a slot that
//! cannot be restarted simply stays down.

use crate::transport::ANNOUNCE;
use std::io::{self, BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How often the respawner looks for workers that exited.
const RESPAWN_POLL: Duration = Duration::from_millis(10);

/// One worker slot: its fixed address and the process serving it (`None`
/// once a respawn failed and the slot is down).
struct Slot {
    addr: String,
    child: Option<Child>,
    incarnation: usize,
}

/// A pool of local shard-server processes, killed on drop.
pub struct LocalWorkers {
    addrs: Vec<String>,
    stop: Arc<AtomicBool>,
    respawner: Option<JoinHandle<Vec<Slot>>>,
}

impl LocalWorkers {
    /// Starts `k` workers. `launch(slot, incarnation, bind)` builds the
    /// command of one incarnation of one slot: a process that serves on
    /// `bind` and announces the bound address (a binary calling
    /// [`serve_main`](crate::transport::serve_main)). The first incarnation
    /// binds `127.0.0.1:0`; a restart binds the address its slot announced.
    /// `launch` may pick faults per incarnation through the command's
    /// environment.
    pub fn spawn<F>(k: usize, launch: F) -> io::Result<LocalWorkers>
    where
        F: Fn(usize, usize, &str) -> Command + Send + 'static,
    {
        let mut slots = Vec::with_capacity(k);
        for slot in 0..k {
            match start(&launch, slot, 0, "127.0.0.1:0") {
                Ok((child, addr)) => slots.push(Slot {
                    addr,
                    child: Some(child),
                    incarnation: 0,
                }),
                Err(e) => {
                    reap(slots);
                    return Err(e);
                }
            }
        }
        let addrs = slots.iter().map(|s| s.addr.clone()).collect();
        let stop = Arc::new(AtomicBool::new(false));
        let respawner = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || respawn_until(&stop, &launch, slots))
        };
        Ok(LocalWorkers {
            addrs,
            stop,
            respawner: Some(respawner),
        })
    }

    /// The workers' addresses, one per slot. A slot keeps its address across
    /// restarts.
    pub fn addrs(&self) -> &[String] {
        &self.addrs
    }
}

impl Drop for LocalWorkers {
    fn drop(&mut self) {
        // Stop the respawner first, or it would restart the workers killed
        // below.
        self.stop.store(true, Ordering::SeqCst);
        if let Some(respawner) = self.respawner.take() {
            match respawner.join() {
                Ok(slots) => reap(slots),
                Err(_) => eprintln!("local workers: the respawner panicked"),
            }
        }
    }
}

/// Spawns one incarnation and reads its announce line.
fn start(
    launch: &impl Fn(usize, usize, &str) -> Command,
    slot: usize,
    incarnation: usize,
    bind: &str,
) -> io::Result<(Child, String)> {
    let mut child = launch(slot, incarnation, bind)
        .stdout(Stdio::piped())
        .spawn()?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut line = String::new();
    let read = BufReader::new(stdout).read_line(&mut line);
    match line.trim_end().strip_prefix(ANNOUNCE) {
        Some(addr) if read.is_ok() => Ok((child, addr.to_string())),
        _ => {
            let _ = child.kill();
            let status = child.wait()?;
            Err(io::Error::other(format!(
                "local worker {slot} (incarnation {incarnation}, bind {bind}) announced no \
                 address ({status}, read {line:?})"
            )))
        }
    }
}

/// The respawner: restarts every worker that exits on its slot's address
/// until `stop` is set, then hands the slots back for reaping.
fn respawn_until(
    stop: &AtomicBool,
    launch: &impl Fn(usize, usize, &str) -> Command,
    mut slots: Vec<Slot>,
) -> Vec<Slot> {
    while !stop.load(Ordering::SeqCst) {
        for (i, slot) in slots.iter_mut().enumerate() {
            let Some(Ok(Some(status))) = slot.child.as_mut().map(Child::try_wait) else {
                continue;
            };
            slot.incarnation += 1;
            slot.child = match start(launch, i, slot.incarnation, &slot.addr) {
                Ok((child, _)) => Some(child),
                Err(e) => {
                    eprintln!(
                        "local workers: worker {i} on {} exited ({status}) and cannot be \
                         restarted: {e}; leaving it down",
                        slot.addr
                    );
                    None
                }
            };
        }
        std::thread::sleep(RESPAWN_POLL);
    }
    slots
}

/// Kills and reaps every running worker.
fn reap(slots: Vec<Slot>) {
    for mut child in slots.into_iter().filter_map(|s| s.child) {
        let _ = child.kill();
        let _ = child.wait();
    }
}
