//! Process-level robustness tests for the UDS transport: real `kill -9`,
//! real sockets, real bit damage — the run must end in a committed
//! shrink or a clean retry, never a hang and never a panic.
//!
//! Workers are re-execs of this test binary: `spawn_worker` launches
//! `current_exe()` with the `MXN_WIRE_*` environment set and the
//! `worker_entry` test filter; `wire_role()` turns that invocation into a
//! worker loop instead of a driver. Without the environment,
//! `worker_entry` is an empty pass.

use std::time::{Duration, Instant};

use mxn::wire::{
    spawn_spare, spawn_worker, spawn_worker_max, wire_role, CodecRegistry, WireConfig, WireFaults,
    WireNode, WireRole,
};
use mxn_runtime::RuntimeError;

const APP: u32 = 7;
const ASSIGN_TAG: i32 = 500;
const OP_DONE: u64 = 0;
const OP_PING: u64 = 1;
const OP_RECOVER: u64 = 2;
const OP_CHUNK: u64 = 3;
const OP_SUM: u64 = 4;
const OP_JOIN: u64 = 5;
/// Tag the admitted spare uses to report the state it was replayed.
const STATE_ECHO_TAG: i32 = 777;
/// Sentinel seed marking a spare that dies abruptly right after its
/// `JoinReq` — the deterministic kill-mid-join fault.
const SPARE_ABORT_SEED: u64 = 7777;

fn config(dir: &std::path::Path, rank: usize, size: usize, seed: u64, max: usize) -> WireConfig {
    let mut cfg = WireConfig::new(dir, rank, size);
    cfg.max_size = max;
    cfg.seed = if seed == 0 { 1 } else { seed };
    // Seed 0 = reliable wire; anything else arms seeded frame corruption
    // on every link (both directions, since workers get the same seed).
    // The abort-spare sentinel stays reliable: it tests the join rollback,
    // not the fault plane.
    if seed != 0 && seed != SPARE_ABORT_SEED {
        cfg.faults = WireFaults { seed, corrupt: 0.25, ..WireFaults::none() };
    }
    cfg
}

fn test_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mxn-wiretest-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Worker body: echo server over the assignment protocol.
/// `[OP_PING, x, token]` → reply `x * 3 + 1` on tag `token`;
/// `[OP_RECOVER, epoch]` → join survivor agreement;
/// `[OP_CHUNK, round_id, val, ack_tag]` → accumulate `val` once per
/// `round_id` (re-planned rounds dedup here), ack on `ack_tag`;
/// `[OP_SUM, reply_tag]` → report the accumulated sum;
/// `[OP_JOIN]` → vote on a spare-process admission; `[OP_DONE]` → exit.
fn worker_loop(role: &WireRole) {
    let WireRole { rank, size, max_size, dir, seed, .. } = role;
    let (rank, size) = (*rank, *size);
    let node =
        WireNode::start(config(dir, rank, size, *seed, *max_size), CodecRegistry::with_defaults())
            .expect("worker: start");
    node.connect().expect("worker: connect");
    serve(&node, rank);
    node.shutdown();
}

/// The shared serve loop (workers and admitted spares alike).
fn serve(node: &WireNode, rank: usize) {
    let mut seen = std::collections::HashSet::new();
    let mut sum = 0u64;
    loop {
        let msg: Vec<u64> = match node.recv(0, APP, ASSIGN_TAG) {
            Ok(m) => m,
            // A damaged assignment frame surfaces here as Corrupt; the
            // driver retries with a fresh token, so just keep serving.
            Err(RuntimeError::Corrupt { .. }) => continue,
            Err(RuntimeError::PeerDead { .. }) => std::process::exit(1),
            Err(e) => panic!("worker {rank}: {e}"),
        };
        match msg[0] {
            OP_DONE => break,
            OP_PING => {
                let (x, token) = (msg[1], msg[2] as i32);
                node.send(0, APP, token, x * 3 + 1).expect("worker: reply");
            }
            OP_RECOVER => {
                let survivors = node
                    .agree_survivors(msg[1] as u32, Duration::from_secs(5))
                    .expect("worker: agree");
                assert!(survivors.contains(&0) && survivors.contains(&rank));
            }
            OP_CHUNK => {
                let (round_id, val, ack_tag) = (msg[1], msg[2], msg[3] as i32);
                if seen.insert(round_id) {
                    sum += val;
                }
                node.send(0, APP, ack_tag, round_id).expect("worker: ack");
            }
            OP_SUM => {
                node.send(0, APP, msg[1] as i32, sum).expect("worker: sum");
            }
            OP_JOIN => {
                // Vote on the pending admission; an aborted attempt is a
                // normal outcome, keep serving either way.
                let _ = node.join_vote(0, Duration::from_secs(3));
            }
            other => panic!("worker {rank}: unknown opcode {other}"),
        }
    }
}

/// Spare body: a late-launched process that dials the existing mesh and
/// asks to join. In abort mode (the `SPARE_ABORT_SEED` sentinel) it dies
/// abruptly right after its `JoinReq` — kill -9 mid-handshake, exercising
/// the rollback. Otherwise it joins, echoes the replayed state blob to the
/// driver, and serves like any worker.
fn spare_loop(role: &WireRole) {
    let node = WireNode::start(
        config(&role.dir, role.rank, role.size, 0, role.max_size),
        CodecRegistry::with_defaults(),
    )
    .expect("spare: start");
    node.connect().expect("spare: connect");
    if role.seed == SPARE_ABORT_SEED {
        // Announce, then die without a goodbye: every incumbent sees raw
        // EOF and the sponsor's vote round must fail and roll back.
        node.send(0, mxn::wire::WIRE_CTRL_CONTEXT, mxn::wire::JOIN_REQ_TAG, role.rank as u64)
            .expect("spare: join req");
        std::process::abort();
    }
    let state = node.join_mesh(0, Duration::from_secs(10)).expect("spare: join");
    let step = u64::from_le_bytes(state[..8].try_into().expect("state blob"));
    node.send(0, APP, STATE_ECHO_TAG, step).expect("spare: state echo");
    serve(&node, role.rank);
    node.shutdown();
}

/// Re-exec entry point: becomes a worker (or a joining spare) when the
/// wire environment is set.
#[test]
fn worker_entry() {
    if let Some(role) = wire_role() {
        if role.spare {
            spare_loop(&role);
        } else {
            worker_loop(&role);
        }
        std::process::exit(0);
    }
}

fn ping(node: &WireNode, w: usize, x: u64, token: i32, timeout: Duration) -> Option<u64> {
    node.send(w, APP, ASSIGN_TAG, vec![OP_PING, x, token as u64]).ok()?;
    node.recv_timeout::<u64>(w, APP, token, timeout).ok()
}

/// `kill -9` of a real worker process mid-coupling: heartbeats stop, the
/// dialer's reconnect budget (rank 2 → rank 1) and the passive window
/// (rank 0 toward 1) both exhaust, the peer is declared dead within the
/// deadline, the survivors commit agreement, and the run completes.
#[test]
fn kill9_worker_is_declared_dead_and_survivors_heal() {
    let dir = test_dir("kill9");
    let node = WireNode::start(config(&dir, 0, 3, 0, 3), CodecRegistry::with_defaults())
        .expect("driver: start");
    let mut workers: Vec<_> = (1..3)
        .map(|r| spawn_worker(r, 3, &dir, 0, &["worker_entry", "--exact"]).expect("spawn"))
        .collect();
    node.connect().expect("driver: connect");

    // Healthy round trip with both workers.
    for w in 1..3 {
        assert_eq!(ping(&node, w, 7, 100 + w as i32, Duration::from_secs(5)), Some(22));
    }

    // Pull the plug on worker 1: SIGKILL, no goodbye, no flush.
    workers[0].kill();
    let t0 = Instant::now();
    assert!(
        node.await_death(1, Duration::from_secs(15)),
        "rank 1 was never declared dead after kill -9"
    );
    let detection = t0.elapsed();
    // Bounded failure detection: the passive reconnect window plus slack,
    // nowhere near the 15s give-up above.
    assert!(
        detection < Duration::from_secs(10),
        "death verdict took {detection:?}, expected well under 10s"
    );

    // Survivor agreement commits the shrink on every live rank.
    node.send(2, APP, ASSIGN_TAG, vec![OP_RECOVER, 1, 0]).expect("send recover");
    let survivors = node.agree_survivors(1, Duration::from_secs(5)).expect("agree");
    assert_eq!(survivors, vec![0, 2]);

    // The dead rank fails fast now — no hang, the in-proc error surface.
    assert!(matches!(
        node.send(1, APP, ASSIGN_TAG, vec![OP_PING, 1, 1]),
        Err(RuntimeError::PeerDead { rank: 1 })
    ));

    // And the survivor still works.
    assert_eq!(ping(&node, 2, 9, 300, Duration::from_secs(5)), Some(28));

    node.send(2, APP, ASSIGN_TAG, vec![OP_DONE]).expect("send done");
    assert!(workers[1].wait_success(Duration::from_secs(10)), "survivor exited unclean");
    node.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Seeded frame corruption on every link between two real processes: the
/// CRCs turn bit damage into `RuntimeError::Corrupt` (never a panic,
/// never a wrong value), and retrying with fresh tokens — fresh fault
/// draws — completes the exchange.
#[test]
fn corrupt_wire_degrades_to_retries_not_panics() {
    let dir = test_dir("corrupt");
    let seed = 7;
    let node = WireNode::start(config(&dir, 0, 2, seed, 2), CodecRegistry::with_defaults())
        .expect("driver: start");
    let mut worker = spawn_worker(1, 2, &dir, seed, &["worker_entry", "--exact"]).expect("spawn");
    node.connect().expect("driver: connect");

    let mut successes = 0;
    let mut retries = 0;
    for i in 0..10u64 {
        let want = i * 3 + 1;
        let mut got = None;
        for attempt in 0..40 {
            let token = 1000 + (i * 64 + attempt) as i32;
            if let Some(v) = ping(&node, 1, i, token, Duration::from_millis(500)) {
                got = Some(v);
                break;
            }
            retries += 1;
        }
        match got {
            Some(v) => {
                assert_eq!(v, want, "a damaged frame decoded to a WRONG value");
                successes += 1;
            }
            None => panic!("ping {i} never succeeded in 40 attempts"),
        }
    }
    assert_eq!(successes, 10);
    let stats = node.stats();
    println!(
        "corrupt-wire run: {} retries, driver saw {} corrupt frames",
        retries, stats.corrupt_frames
    );
    // With corrupt=0.25 on both directions and deterministic draws, some
    // damage must have been observed somewhere — otherwise the fault
    // plane was never armed.
    assert!(
        retries > 0 || stats.corrupt_frames > 0,
        "corruption faults were configured but never fired"
    );

    // Disarm before the goodbye so a corrupted DONE can't strand the
    // worker in its serve loop.
    node.set_faults_armed(false);
    node.send(1, APP, ASSIGN_TAG, vec![OP_DONE]).expect("send done");
    assert!(worker.wait_success(Duration::from_secs(10)), "worker exited unclean");
    node.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// SIGSTOP then SIGCONT before the grace period expires: the frozen
/// worker's sockets stay open (its listener backlog even keeps accepting),
/// so only the progress-fence watermark convicts it. Quarantine must
/// poison liveness immediately — and must be *reversible*: once the
/// process thaws and its watermark moves, the peer is readmitted and the
/// data dropped during quarantine is replayed, not lost.
#[test]
fn sigstop_zombie_resumed_before_verdict_is_readmitted() {
    let dir = test_dir("sigstop-readmit");
    let node = WireNode::start(config(&dir, 0, 3, 0, 3), CodecRegistry::with_defaults())
        .expect("driver: start");
    let mut workers: Vec<_> = (1..3)
        .map(|r| spawn_worker(r, 3, &dir, 0, &["worker_entry", "--exact"]).expect("spawn"))
        .collect();
    node.connect().expect("driver: connect");
    for w in 1..3 {
        assert_eq!(ping(&node, w, 7, 100 + w as i32, Duration::from_secs(5)), Some(22));
    }

    // Freeze worker 1 FIRST, then ship it work: the ping sits undelivered
    // in its socket buffer, so the driver's fence watermark stalls with
    // outstanding data — the zombie signature heartbeats cannot see.
    assert!(workers[0].sigstop(), "SIGSTOP failed");
    node.send(1, APP, ASSIGN_TAG, vec![OP_PING, 4, 900]).expect("send into zombie");

    assert!(node.await_quarantine(1, Duration::from_secs(15)), "zombie never quarantined");
    // Quarantine poisons liveness right away: blocked ops fail fast.
    assert!(node.await_death(1, Duration::from_millis(100)));
    assert!(matches!(
        node.send(1, APP, ASSIGN_TAG, vec![OP_PING, 1, 1]),
        Err(RuntimeError::PeerDead { rank: 1 })
    ));

    // Thaw well inside the grace period: the watermark moves again and the
    // peer must be readmitted, never evicted.
    assert!(workers[0].sigcont(), "SIGCONT failed");
    assert!(node.await_readmit(1, Duration::from_secs(15)), "resumed zombie never readmitted");

    // The ping swallowed by the freeze is replayed and answered.
    let reply =
        node.recv_timeout::<u64>(1, APP, 900, Duration::from_secs(15)).expect("replayed reply");
    assert_eq!(reply, 13);

    let stats = node.stats();
    assert!(stats.zombies_quarantined >= 1, "quarantine never counted");
    assert!(stats.zombies_readmitted >= 1, "readmission never counted");
    assert_eq!(stats.zombies_evicted, 0, "a resumed zombie must not be evicted");

    // Full-mesh sanity after readmission, then a clean goodbye.
    for w in 1..3 {
        assert_eq!(ping(&node, w, 9, 910 + w as i32, Duration::from_secs(5)), Some(28));
    }
    for w in 1..3 {
        node.send(w, APP, ASSIGN_TAG, vec![OP_DONE]).expect("send done");
    }
    for w in &mut workers {
        assert!(w.wait_success(Duration::from_secs(10)), "worker exited unclean");
    }
    node.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// SIGSTOP with no SIGCONT: the quarantine grace expires, the zombie is
/// evicted within a bounded window, and the survivors commit the shrink
/// through the same agreement plane as a `kill -9` death.
#[test]
fn sigstop_past_verdict_is_evicted_and_survivors_agree() {
    let dir = test_dir("sigstop-evict");
    let node = WireNode::start(config(&dir, 0, 3, 0, 3), CodecRegistry::with_defaults())
        .expect("driver: start");
    let mut workers: Vec<_> = (1..3)
        .map(|r| spawn_worker(r, 3, &dir, 0, &["worker_entry", "--exact"]).expect("spawn"))
        .collect();
    node.connect().expect("driver: connect");
    for w in 1..3 {
        assert_eq!(ping(&node, w, 7, 100 + w as i32, Duration::from_secs(5)), Some(22));
    }

    assert!(workers[0].sigstop(), "SIGSTOP failed");
    node.send(1, APP, ASSIGN_TAG, vec![OP_PING, 2, 800]).expect("send into zombie");

    // Conviction is bounded: fence stall → quarantine → grace expiry →
    // eviction, all well under ten seconds on default tuning.
    let t0 = Instant::now();
    assert!(node.await_death(1, Duration::from_secs(10)), "zombie never convicted");
    let deadline = Instant::now() + Duration::from_secs(10);
    while !node.is_evicted(1) {
        assert!(Instant::now() < deadline, "frozen zombie was never evicted within 10s");
        std::thread::sleep(Duration::from_millis(10));
    }
    println!("zombie eviction latency: {:?}", t0.elapsed());

    // The survivor set the agreement commits matches the kill -9 oracle.
    node.send(2, APP, ASSIGN_TAG, vec![OP_RECOVER, 2]).expect("send recover");
    let survivors = node.agree_survivors(2, Duration::from_secs(5)).expect("agree");
    assert_eq!(survivors, vec![0, 2]);

    // Eviction is final: the slot fails fast, the survivor still serves.
    assert!(matches!(
        node.send(1, APP, ASSIGN_TAG, vec![OP_PING, 1, 1]),
        Err(RuntimeError::PeerDead { rank: 1 })
    ));
    assert_eq!(ping(&node, 2, 9, 820, Duration::from_secs(5)), Some(28));
    let stats = node.stats();
    assert!(stats.zombies_quarantined >= 1, "quarantine never counted");
    assert!(stats.zombies_evicted >= 1, "eviction never counted");

    node.send(2, APP, ASSIGN_TAG, vec![OP_DONE]).expect("send done");
    assert!(workers[1].wait_success(Duration::from_secs(10)), "survivor exited unclean");
    // SIGKILL lands even on a stopped process; reap it explicitly.
    workers[0].kill();
    node.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// SIGSTOP in the middle of a chunked route: chunks already acknowledged
/// by the frozen worker are unreachable along with its partial sum, so the
/// driver re-plans *every* chunk it had routed there onto the survivor —
/// and the per-round dedup at the receiver keeps the total exact even when
/// a chunk the survivor already holds is sent twice.
#[test]
fn sigstop_mid_chunked_route_replans_onto_survivors() {
    let dir = test_dir("sigstop-chunk");
    let node = WireNode::start(config(&dir, 0, 3, 0, 3), CodecRegistry::with_defaults())
        .expect("driver: start");
    let mut workers: Vec<_> = (1..3)
        .map(|r| spawn_worker(r, 3, &dir, 0, &["worker_entry", "--exact"]).expect("spawn"))
        .collect();
    node.connect().expect("driver: connect");

    // Eight chunks, round-robin even → worker 1, odd → worker 2.
    let val = |id: u64| (id + 1) * 100;
    let oracle: u64 = (0..8u64).map(val).sum();
    let mut frozen = false;
    let mut replan: Vec<u64> = Vec::new();
    for id in 0..8u64 {
        let w = if id % 2 == 0 { 1 } else { 2 };
        let ack = 2000 + id as i32;
        if node.send(w, APP, ASSIGN_TAG, vec![OP_CHUNK, id, val(id), ack as u64]).is_err() {
            // Past quarantine the dead slot fails fast — replan the chunk.
            assert_eq!(w, 1, "survivor refused a chunk");
            replan.push(id);
            continue;
        }
        match node.recv_timeout::<u64>(w, APP, ack, Duration::from_millis(700)) {
            Ok(r) => {
                assert_eq!(r, id);
                if w == 1 && !frozen {
                    // First chunk landed on worker 1 — freeze it mid-route.
                    // Its accumulated partial is unreachable now, so this
                    // chunk must be replanned too.
                    assert!(workers[0].sigstop(), "SIGSTOP failed");
                    frozen = true;
                    replan.push(id);
                }
            }
            Err(_) => {
                assert_eq!(w, 1, "survivor dropped an ack");
                replan.push(id);
            }
        }
    }
    assert_eq!(replan, vec![0, 2, 4, 6], "every worker-1 chunk needs a replan");
    assert!(node.await_death(1, Duration::from_secs(15)), "zombie never convicted");

    // Re-plan onto the survivor, plus a duplicate of a chunk it already
    // holds: the round-id dedup must keep the sum exact.
    replan.push(1);
    for (i, &id) in replan.iter().enumerate() {
        let ack = 3000 + i as i32;
        node.send(2, APP, ASSIGN_TAG, vec![OP_CHUNK, id, val(id), ack as u64])
            .expect("replan send");
        let r = node.recv_timeout::<u64>(2, APP, ack, Duration::from_secs(5)).expect("replan ack");
        assert_eq!(r, id);
    }

    node.send(2, APP, ASSIGN_TAG, vec![OP_RECOVER, 3]).expect("send recover");
    assert_eq!(node.agree_survivors(3, Duration::from_secs(5)).expect("agree"), vec![0, 2]);
    node.send(2, APP, ASSIGN_TAG, vec![OP_SUM, 4000]).expect("send sum req");
    let sum = node.recv_timeout::<u64>(2, APP, 4000, Duration::from_secs(5)).expect("sum");
    assert_eq!(sum, oracle, "replanned route lost or double-counted a chunk");

    node.send(2, APP, ASSIGN_TAG, vec![OP_DONE]).expect("send done");
    assert!(workers[1].wait_success(Duration::from_secs(10)), "survivor exited unclean");
    workers[0].kill();
    node.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Spare-process join across real OS processes, both halves: a spare that
/// dies abruptly right after its `JoinReq` (kill -9 mid-handshake) forces
/// a unanimous-no and a full rollback leaving the old mesh usable; a
/// healthy spare then joins, receives the replayed state blob, and serves
/// like any incumbent.
#[test]
fn spare_join_aborts_on_mid_handshake_death_then_commits() {
    let dir = test_dir("spare-join");
    let node = WireNode::start(config(&dir, 0, 3, 0, 4), CodecRegistry::with_defaults())
        .expect("driver: start");
    let mut workers: Vec<_> = (1..3)
        .map(|r| spawn_worker_max(r, 3, 4, &dir, 0, &["worker_entry", "--exact"]).expect("spawn"))
        .collect();
    node.connect().expect("driver: connect");
    for w in 1..3 {
        assert_eq!(ping(&node, w, 7, 100 + w as i32, Duration::from_secs(5)), Some(22));
    }

    // Attempt 0: the spare announces itself and dies without a goodbye.
    // Every incumbent sees raw EOF, votes no, and the admission window
    // rolls back to the old membership.
    let abort_spare = spawn_spare(3, 4, 4, &dir, SPARE_ABORT_SEED, &["worker_entry", "--exact"])
        .expect("spawn abort spare");
    for w in 1..3 {
        node.send(w, APP, ASSIGN_TAG, vec![OP_JOIN]).expect("send join");
    }
    let err = node
        .expand_mesh(0, b"", Duration::from_secs(10))
        .expect_err("mid-join death must abort the admission");
    assert!(matches!(
        err,
        RuntimeError::ReconfigAborted { context: mxn::wire::WIRE_CTRL_CONTEXT, attempt: 0 }
    ));
    assert_eq!(node.size(), 3, "aborted join must roll the membership back");
    assert_eq!(node.stats().joins_aborted, 1);
    drop(abort_spare);
    // The old mesh is untouched: both incumbents still serve.
    for w in 1..3 {
        assert_eq!(ping(&node, w, 5, 600 + w as i32, Duration::from_secs(5)), Some(16));
    }

    // Attempt 1: a healthy spare joins. The blob handed back is the state
    // replay — here the resume step, echoed to the driver as proof.
    let mut spare =
        spawn_spare(3, 4, 4, &dir, 0, &["worker_entry", "--exact"]).expect("spawn spare");
    for w in 1..3 {
        node.send(w, APP, ASSIGN_TAG, vec![OP_JOIN]).expect("send join");
    }
    let new_size = node
        .expand_mesh(1, &42u64.to_le_bytes(), Duration::from_secs(10))
        .expect("healthy join must commit");
    assert_eq!(new_size, 4);
    assert_eq!(node.size(), 4);
    let step = node
        .recv_timeout::<u64>(3, APP, STATE_ECHO_TAG, Duration::from_secs(10))
        .expect("state echo");
    assert_eq!(step, 42, "state replay reached the newcomer damaged");
    // The admitted rank serves like any incumbent.
    assert_eq!(ping(&node, 3, 6, 650, Duration::from_secs(5)), Some(19));
    let stats = node.stats();
    assert_eq!(stats.joins_committed, 1);
    assert_eq!(stats.joins_aborted, 1);

    for w in 1..4 {
        node.send(w, APP, ASSIGN_TAG, vec![OP_DONE]).expect("send done");
    }
    for w in &mut workers {
        assert!(w.wait_success(Duration::from_secs(10)), "worker exited unclean");
    }
    assert!(spare.wait_success(Duration::from_secs(10)), "spare exited unclean");
    node.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
