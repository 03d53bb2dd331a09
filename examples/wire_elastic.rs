//! Process-elastic coupling over the wire: a zombie is convicted and
//! evicted, then a *spare OS process* joins to refill the lost capacity.
//!
//! ```text
//! cargo run --release --example wire_elastic [trace.json]
//! ```
//!
//! The driver (rank 0) forks two workers (ranks 1 and 2) with a membership
//! ceiling of 4 and couples with them over Unix-domain sockets: each epoch
//! partitions a 36-element field among the live workers.
//!
//! After epoch 2 the driver SIGSTOPs worker 1 — the cruelest failure on
//! this transport, because nothing *closes*: the frozen process's sockets
//! stay open and its listener backlog even keeps accepting dials, so
//! heartbeat-miss plus reconnect "succeeds" forever. What follows:
//!
//! 1. The next epoch's assignment leaves undelivered data behind the
//!    peer's progress-fence watermark; the watermark freezes across
//!    consecutive fences and the peer is **quarantined** — provisionally
//!    dead, blocked operations fail fast, but still reversible.
//! 2. No SIGCONT comes, the grace period expires, and quarantine hardens
//!    into **eviction**. The survivors commit the shrink through the same
//!    agreement plane as a `kill -9` death.
//! 3. The driver launches a *spare process* into the freed capacity: the
//!    newcomer dials the mesh, the sponsor runs the offer → unanimous
//!    vote → commit handshake, and the state blob (the epoch to resume)
//!    is replayed to it. The interrupted epoch is retried at full width
//!    on the grown membership.
//!
//! Every completed epoch matches the fault-free oracle, and the Chrome
//! trace records the quarantine/evict/join transitions.

use std::time::{Duration, Instant};

use mxn::trace::TraceCollector;
use mxn::wire::{
    spawn_spare, spawn_worker_max, wire_role, CodecRegistry, WireConfig, WireNode, WireRole,
};
use mxn_runtime::RuntimeError;

const SIZE: usize = 3;
const MAX: usize = 4;
const SPARE_RANK: usize = 3;
const FIELD: usize = 36;
const EPOCHS: u64 = 6;
const STOP_AFTER_EPOCH: u64 = 2;
const APP: u32 = 7;
const ASSIGN_TAG: i32 = 1000;
const SEED: u64 = 42;

const MSG_DONE: u64 = u64::MAX;
const MSG_RECOVER: u64 = u64::MAX - 1;
const MSG_JOIN: u64 = u64::MAX - 2;

/// Reply tag for (epoch, attempt): retried epochs use fresh tags so a
/// stale pre-failure reply can never be mistaken for the retry's.
fn reply_tag(epoch: u64, attempt: u64) -> i32 {
    (epoch * 8 + attempt) as i32
}

fn value(idx: usize, epoch: u64) -> f64 {
    (idx as u64 + epoch * 100) as f64
}

fn config(dir: &std::path::Path, rank: usize, size: usize, max: usize) -> WireConfig {
    let mut cfg = WireConfig::new(dir, rank, size);
    cfg.max_size = max;
    cfg.seed = SEED;
    cfg
}

/// Shared serve loop: workers and the admitted spare answer assignments
/// (`[epoch, lo, hi, attempt]` → the owned slice's values), vote on
/// admissions, join survivor agreements, and exit on the goodbye.
fn serve(node: &WireNode, rank: usize) {
    loop {
        let msg: Vec<u64> = match node.recv(0, APP, ASSIGN_TAG) {
            Ok(m) => m,
            Err(RuntimeError::PeerDead { .. }) => std::process::exit(1), // driver gone
            Err(e) => panic!("worker {rank}: assignment recv failed: {e}"),
        };
        match msg[0] {
            MSG_DONE => break,
            MSG_RECOVER => {
                let survivors = node
                    .agree_survivors(msg[1] as u32, Duration::from_secs(5))
                    .expect("agree survivors");
                eprintln!("[rank {rank}] committed survivors: {survivors:?}");
            }
            MSG_JOIN => {
                let admitted = node.join_vote(0, Duration::from_secs(10)).expect("join vote");
                eprintln!(
                    "[rank {rank}] voted; rank {admitted} admitted, mesh now {}",
                    node.size()
                );
            }
            epoch => {
                let (lo, hi, attempt) = (msg[1] as usize, msg[2] as usize, msg[3]);
                let slice: Vec<(usize, f64)> =
                    (lo..hi).map(|idx| (idx, value(idx, epoch))).collect();
                node.send(0, APP, reply_tag(epoch, attempt), slice).expect("send slice");
            }
        }
    }
}

fn worker_main(role: &WireRole) {
    let node = WireNode::start(
        config(&role.dir, role.rank, role.size, role.max_size),
        CodecRegistry::with_defaults(),
    )
    .expect("start node");
    node.connect().expect("connect mesh");
    serve(&node, role.rank);
    node.shutdown();
}

/// The spare: a brand-new OS process dialing an already-running mesh. It
/// joins through the sponsor's offer/vote/commit handshake; the state blob
/// it receives back is the epoch to resume from.
fn spare_main(role: &WireRole) {
    let node = WireNode::start(
        config(&role.dir, role.rank, role.size, role.max_size),
        CodecRegistry::with_defaults(),
    )
    .expect("start spare node");
    node.connect().expect("spare: dial mesh");
    let state = node.join_mesh(0, Duration::from_secs(10)).expect("spare: join");
    let resume = u64::from_le_bytes(state[..8].try_into().expect("state blob"));
    eprintln!(
        "[spare {}] admitted into a {}-mesh; resuming at epoch {resume}",
        role.rank,
        node.size()
    );
    serve(&node, role.rank);
    node.shutdown();
}

/// Even split of `0..FIELD` over `workers`, as `(rank, lo, hi)` triples.
fn partition(workers: &[usize]) -> Vec<(usize, usize, usize)> {
    let chunk = FIELD.div_ceil(workers.len());
    workers
        .iter()
        .enumerate()
        .map(|(i, &w)| (w, (i * chunk).min(FIELD), ((i + 1) * chunk).min(FIELD)))
        .collect()
}

fn driver_main(dir: std::path::PathBuf, trace_out: String) {
    let collector = TraceCollector::new(1);
    let handle = collector.handle(0);
    let _guard = handle.install();

    let node = WireNode::start_traced(
        config(&dir, 0, SIZE, MAX),
        CodecRegistry::with_defaults(),
        Some(handle),
    )
    .expect("start driver node");

    let mut workers: Vec<_> = (1..SIZE)
        .map(|r| spawn_worker_max(r, SIZE, MAX, &dir, SEED, &[]).expect("spawn worker"))
        .collect();
    node.connect().expect("connect mesh");
    println!("mesh up: driver + {} workers, ceiling {MAX}, over {}", workers.len(), dir.display());

    let mut spare_guard = None;
    let mut live: Vec<usize> = (1..SIZE).collect();
    let mut epoch = 0u64;
    let mut attempt = 0u64;
    let mut stopped_at: Option<Instant> = None;
    let mut rejoined = false;
    while epoch < EPOCHS {
        let parts = partition(&live);
        let mut failed: Option<usize> = None;
        for &(w, lo, hi) in &parts {
            if node.send(w, APP, ASSIGN_TAG, vec![epoch, lo as u64, hi as u64, attempt]).is_err() {
                failed = Some(w);
            }
        }
        let mut field = vec![f64::NAN; FIELD];
        for &(w, _, _) in &parts {
            match node.recv_timeout::<Vec<(usize, f64)>>(
                w,
                APP,
                reply_tag(epoch, attempt),
                Duration::from_secs(2),
            ) {
                Ok(slice) => {
                    for (idx, v) in slice {
                        field[idx] = v;
                    }
                }
                Err(RuntimeError::Timeout { .. }) | Err(RuntimeError::PeerDead { .. }) => {
                    failed = Some(w);
                }
                Err(e) => panic!("driver: epoch {epoch} recv from {w}: {e}"),
            }
        }
        if let Some(zombie) = failed {
            let t0 = stopped_at.expect("only the frozen worker may fail");
            // 1. Quarantine: the fence watermark froze with data
            //    outstanding. Heartbeats alone never get here — the
            //    frozen process's sockets are all still open.
            assert!(
                node.await_quarantine(zombie, Duration::from_secs(15)),
                "zombie was never quarantined"
            );
            println!(
                "epoch {epoch}: rank {zombie} quarantined {:?} after SIGSTOP (reversible)",
                t0.elapsed()
            );
            // 2. Eviction: no resume inside the grace period → final.
            let deadline = Instant::now() + Duration::from_secs(15);
            while !node.is_evicted(zombie) {
                assert!(Instant::now() < deadline, "zombie was never evicted");
                std::thread::sleep(Duration::from_millis(5));
            }
            println!(
                "epoch {epoch}: rank {zombie} evicted {:?} after SIGSTOP (final)",
                t0.elapsed()
            );
            live.retain(|&w| w != zombie);
            for &w in &live {
                node.send(w, APP, ASSIGN_TAG, vec![MSG_RECOVER, epoch, 0, 0])
                    .expect("send recover marker");
            }
            let survivors =
                node.agree_survivors(epoch as u32, Duration::from_secs(5)).expect("agree");
            println!("epoch {epoch}: survivors committed: {survivors:?}");

            // 3. Backfill: launch a spare process into the freed capacity
            //    and sponsor its admission.
            spare_guard =
                Some(spawn_spare(SPARE_RANK, MAX, MAX, &dir, SEED, &[]).expect("spawn spare"));
            for &w in &live {
                node.send(w, APP, ASSIGN_TAG, vec![MSG_JOIN, 0, 0, 0]).expect("send join marker");
            }
            let new_size = node
                .expand_mesh(0, &epoch.to_le_bytes(), Duration::from_secs(10))
                .expect("spare join must commit");
            println!("epoch {epoch}: spare admitted as rank {SPARE_RANK}; mesh size {new_size}");
            live.push(SPARE_RANK);
            rejoined = true;
            attempt += 1;
            continue; // retry the interrupted epoch on the refilled membership
        }
        for (idx, &v) in field.iter().enumerate() {
            assert_eq!(v, value(idx, epoch), "field[{idx}] wrong in epoch {epoch}");
        }
        println!("epoch {epoch}: field complete and correct across {} worker(s)", parts.len());
        if epoch == STOP_AFTER_EPOCH && stopped_at.is_none() {
            let victim = &workers[0]; // worker rank 1
            println!(
                "SIGSTOP worker rank {} (pid {}) — a zombie, not a corpse",
                victim.rank(),
                victim.pid()
            );
            assert!(victim.sigstop(), "SIGSTOP failed");
            stopped_at = Some(Instant::now());
        }
        epoch += 1;
        attempt = 0;
    }
    assert!(rejoined, "the freeze never forced an evict + rejoin");

    for &w in &live {
        node.send(w, APP, ASSIGN_TAG, vec![MSG_DONE, 0, 0, 0]).expect("send done");
    }
    for g in &mut workers {
        if live.contains(&g.rank()) {
            assert!(g.wait_success(Duration::from_secs(10)), "worker exited unclean");
        } else {
            g.kill(); // SIGKILL lands even on a stopped process
        }
    }
    if let Some(mut spare) = spare_guard {
        assert!(spare.wait_success(Duration::from_secs(10)), "spare exited unclean");
    }
    let stats = node.stats();
    println!(
        "wire stats: fences={} quarantined={} readmitted={} evicted={} joins: committed={} aborted={}",
        stats.fences_sent,
        stats.zombies_quarantined,
        stats.zombies_readmitted,
        stats.zombies_evicted,
        stats.joins_committed,
        stats.joins_aborted
    );
    node.shutdown();

    let trace = collector.finish();
    if let Some(parent) = std::path::Path::new(&trace_out).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(&trace_out, trace.chrome_json()).expect("write chrome trace");
    println!(
        "all {EPOCHS} epochs match the fault-free oracle across a freeze, an eviction, \
         and a spare-process join; trace: {trace_out}"
    );
}

fn main() {
    if let Some(role) = wire_role() {
        if role.spare {
            spare_main(&role);
        } else {
            worker_main(&role);
        }
        return;
    }
    let trace_out =
        std::env::args().nth(1).unwrap_or_else(|| "target/wire_elastic_trace.json".to_string());
    let dir = std::env::temp_dir().join(format!("mxn-wire-elastic-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    driver_main(dir.clone(), trace_out);
    let _ = std::fs::remove_dir_all(&dir);
}
