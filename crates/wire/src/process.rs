//! Multi-process launch helpers: re-exec workers, kill-on-drop guards.
//!
//! Tests and examples need real OS processes without depending on an
//! external launcher (`mpirun`). The pattern here is *self re-exec*: the
//! driver process spawns `current_exe()` again with `MXN_WIRE_RANK` (and
//! friends) set; early in `main`/the test body, [`wire_role`] detects the
//! variables and the process becomes a worker instead of a driver. This is
//! the same trick process-spawning test harnesses use, and it keeps the
//! whole multi-process topology inside one binary.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Environment variable carrying a worker's rank (presence ⇒ worker).
pub const ENV_RANK: &str = "MXN_WIRE_RANK";
/// Environment variable carrying the mesh size.
pub const ENV_SIZE: &str = "MXN_WIRE_SIZE";
/// Environment variable carrying the socket directory.
pub const ENV_DIR: &str = "MXN_WIRE_DIR";
/// Environment variable carrying the shared deterministic seed.
pub const ENV_SEED: &str = "MXN_WIRE_SEED";
/// Environment variable carrying the membership ceiling (`max_size`).
pub const ENV_MAX: &str = "MXN_WIRE_MAX";
/// Environment variable marking a spare process (set to `1`): a worker
/// launched *after* the initial mesh, expected to join via the wire
/// handshake instead of participating in startup connect.
pub const ENV_SPARE: &str = "MXN_WIRE_SPARE";

/// What a re-exec'd process is supposed to be.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireRole {
    /// This worker's rank in the mesh.
    pub rank: usize,
    /// Total mesh size (driver + workers).
    pub size: usize,
    /// Membership ceiling (defaults to `size` when the launcher set none).
    pub max_size: usize,
    /// Whether this process is a late-joining spare.
    pub spare: bool,
    /// Directory holding the per-rank sockets.
    pub dir: PathBuf,
    /// Deterministic seed shared by the whole run.
    pub seed: u64,
}

/// Reads the worker environment; `None` means this process is the driver.
pub fn wire_role() -> Option<WireRole> {
    let rank = std::env::var(ENV_RANK).ok()?.parse().ok()?;
    let size: usize = std::env::var(ENV_SIZE).ok()?.parse().ok()?;
    let dir = PathBuf::from(std::env::var(ENV_DIR).ok()?);
    let seed = std::env::var(ENV_SEED).ok().and_then(|s| s.parse().ok()).unwrap_or(1);
    let max_size = std::env::var(ENV_MAX).ok().and_then(|s| s.parse().ok()).unwrap_or(size);
    let spare = std::env::var(ENV_SPARE).is_ok_and(|s| s == "1");
    Some(WireRole { rank, size, max_size, spare, dir, seed })
}

/// A spawned worker process, killed on drop so a failing driver/test never
/// leaks orphans.
pub struct WorkerGuard {
    child: Child,
    rank: usize,
}

impl WorkerGuard {
    /// The worker's mesh rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The worker's OS pid.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGKILLs the worker — the "pull the plug" fault. No goodbye frame,
    /// no flush: peers find out from heartbeat silence.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// SIGSTOPs the worker — the "zombie" fault. The process freezes but
    /// its sockets stay open and its listener backlog keeps accepting, so
    /// heartbeat-miss/reconnect alone never convicts it; only the
    /// progress-fence watermark does.
    ///
    /// `kill` only queues the signal: a busy thread of the worker can run
    /// on for a while before the group stop reaches it. Where `/proc`
    /// shows threads, this returns once every one of them is stopped, and
    /// `false` if that takes more than a second.
    pub fn sigstop(&self) -> bool {
        signal(self.pid(), "-STOP") && self.await_stopped(Duration::from_secs(1))
    }

    fn await_stopped(&self, timeout: Duration) -> bool {
        let tasks = PathBuf::from(format!("/proc/{}/task", self.pid()));
        let deadline = Instant::now() + timeout;
        loop {
            let Ok(threads) = std::fs::read_dir(&tasks) else {
                return true; // no per-thread view on this platform
            };
            let stopped = threads.filter_map(|t| t.ok()).all(|t| {
                std::fs::read_to_string(t.path().join("stat")).is_ok_and(|stat| {
                    // The state letter follows the parenthesised command name.
                    stat.rsplit_once(')').and_then(|(_, rest)| rest.trim_start().chars().next())
                        == Some('T')
                })
            });
            if stopped {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// SIGCONTs a stopped worker, resuming it where it froze.
    pub fn sigcont(&self) -> bool {
        signal(self.pid(), "-CONT")
    }

    /// Waits up to `timeout` for clean exit; returns whether the worker
    /// exited successfully in time.
    pub fn wait_success(&mut self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) => {
                    if Instant::now() >= deadline {
                        return false;
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(_) => return false,
            }
        }
    }
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Sends `sig` (a `/bin/kill` flag like `-STOP`) to `pid`; returns whether
/// the signal was delivered. Uses the external `kill` so no libc binding
/// is needed.
fn signal(pid: u32, sig: &str) -> bool {
    Command::new("/bin/kill")
        .args([sig, &pid.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map(|s| s.success())
        .unwrap_or(false)
}

/// Re-execs the current binary as worker `rank` of `size`, passing through
/// `extra_args` (e.g. a test filter like `--exact worker_entry`).
pub fn spawn_worker(
    rank: usize,
    size: usize,
    dir: &Path,
    seed: u64,
    extra_args: &[&str],
) -> std::io::Result<WorkerGuard> {
    spawn_inner(rank, size, size, false, dir, seed, extra_args)
}

/// [`spawn_worker`] for elastic meshes: the worker's node is configured
/// with a `max_size` ceiling above its initial `size`, leaving parked
/// slots for spare processes to join later.
pub fn spawn_worker_max(
    rank: usize,
    size: usize,
    max_size: usize,
    dir: &Path,
    seed: u64,
    extra_args: &[&str],
) -> std::io::Result<WorkerGuard> {
    spawn_inner(rank, size, max_size, false, dir, seed, extra_args)
}

/// Re-execs the current binary as a *spare* process: rank `size`
/// (the next free slot) of a mesh whose incumbents were launched with
/// `size` ranks and a `max_size` ceiling. The spare's [`wire_role`] comes
/// back with `spare == true`; its worker entry is expected to dial the
/// mesh and run the join handshake rather than the startup connect.
pub fn spawn_spare(
    rank: usize,
    size: usize,
    max_size: usize,
    dir: &Path,
    seed: u64,
    extra_args: &[&str],
) -> std::io::Result<WorkerGuard> {
    spawn_inner(rank, size, max_size, true, dir, seed, extra_args)
}

fn spawn_inner(
    rank: usize,
    size: usize,
    max_size: usize,
    spare: bool,
    dir: &Path,
    seed: u64,
    extra_args: &[&str],
) -> std::io::Result<WorkerGuard> {
    let exe = std::env::current_exe()?;
    let mut cmd = Command::new(exe);
    cmd.args(extra_args)
        .env(ENV_RANK, rank.to_string())
        .env(ENV_SIZE, size.to_string())
        .env(ENV_MAX, max_size.to_string())
        .env(ENV_DIR, dir)
        .env(ENV_SEED, seed.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::inherit())
        .stderr(Stdio::inherit());
    if spare {
        cmd.env(ENV_SPARE, "1");
    }
    let child = cmd.spawn()?;
    Ok(WorkerGuard { child, rank })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn role_is_none_without_env() {
        // The test runner itself is a driver.
        assert_eq!(wire_role(), None);
    }

    #[test]
    fn guard_kills_on_drop() {
        // Spawn a sleeper (re-exec with an unknown filter just burns a
        // moment listing tests; use /bin/sleep to be explicit).
        let child = Command::new("/bin/sleep")
            .arg("100")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn sleep");
        let pid = child.id();
        let guard = WorkerGuard { child, rank: 1 };
        assert_eq!(guard.rank(), 1);
        assert_eq!(guard.pid(), pid);
        drop(guard);
        // After drop the pid must be reaped: kill(pid, 0) fails.
        let alive = Command::new("/bin/kill")
            .args(["-0", &pid.to_string()])
            .output()
            .map(|o| o.status.success())
            .unwrap_or(false);
        assert!(!alive, "worker leaked after guard drop");
    }
}
