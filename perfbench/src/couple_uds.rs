//! `couple_uds`: the `couple_inproc` field, layouts and schedule between two
//! `WireNode`s over real Unix-domain sockets, one thread each.
//!
//! `InterComm` cannot run over the UDS transport, so each epoch composes
//! the steps `RegionSchedule::execute_send`/`execute_recv` run: pack,
//! `WireNode::send`, `WireNode::recv`, unpack, and a one-word ack from the
//! importer that closes the epoch.

use std::any::Any;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mxn_dad::LocalArray;
use mxn_schedule::RegionSchedule;
use mxn_wire::{
    crc32, CodecRegistry, Frame, FrameKind, FrameReader, WireConfig, WireNode, WireStats,
    RING_FRAMES,
};

use crate::common::{self, Budget, Gate, LatencyLog, Layers, Outcome};
use crate::oracle;
use crate::spans::TraceClock;
use crate::stats::{self, Chain, Closure};

const EXPORTER: usize = 0;
const IMPORTER: usize = 1;
const CONTEXT: u32 = 1;
const DATA_TAG: i32 = 1;
const ACK_TAG: i32 = 2;
const READY_TAG: i32 = 3;

/// One epoch's timestamps: the exporter's `[pack start, pack end, send
/// end, ack received]` and the importer's `[recv start, recv end, unpack
/// end, ack sent]`.
type Epoch = ([Instant; 4], [Instant; 4]);

/// Per-epoch replays of the wire's public steps on the epoch's own
/// payload, outside the timed op (µs): codec encode, frame encode, one
/// payload CRC, frame decode, codec decode.
type Replay = [f64; 5];

#[derive(Default)]
struct SideRun {
    ready: Option<Instant>,
    /// The exporter's log of epoch latencies.
    log: LatencyLog,
    /// Per-epoch stamps, kept in traced windows only.
    stamps: Vec<[Instant; 4]>,
    bad: u64,
    replays: Vec<Replay>,
    stats: WireStats,
}

fn config(dir: &PathBuf, rank: usize) -> WireConfig {
    let mut cfg = WireConfig::new(dir, rank, 2);
    // The defaults convict a peer within ~100 ms of stalled delivery; a
    // loaded two-core host can stall a node's thread that long without
    // anything being wrong. Failure detection is not what this workload
    // measures, so its verdicts are slowed down; beats and fences still
    // run at their default rates.
    cfg.liveness_deadline = Duration::from_secs(5);
    cfg.fence_stall_fences = 400;
    cfg.quarantine_grace = Duration::from_secs(30);
    cfg.connect_timeout = Duration::from_secs(30);
    cfg
}

/// Runs one measurement window.
pub fn run(seed: u64, budget: Budget, traced: bool) -> Outcome {
    // Relative and short: socket paths are limited to ~100 bytes.
    let dir = PathBuf::from(format!(".perfbench_uds_{}", std::process::id()));
    let trace = traced.then(|| TraceClock::new(2));
    let gate = Gate::new(budget, 2);
    let import_end = Mutex::new(None);
    let start = Instant::now();
    let nodes: Vec<WireNode> = (0..2)
        .map(|rank| {
            let handle = trace.as_ref().map(|t| t.handle(rank));
            WireNode::start_traced(config(&dir, rank), CodecRegistry::with_defaults(), handle)
                .expect("bind the node's socket")
        })
        .collect();
    let mut sides: Vec<SideRun> = std::thread::scope(|s| {
        let handles: Vec<_> = nodes
            .iter()
            .enumerate()
            .map(|(rank, node)| {
                let (gate, trace, import_end) = (&gate, trace.as_ref(), &import_end);
                s.spawn(move || {
                    let _installed = trace.map(|t| t.handle(rank).install());
                    crate::bind::bind_rank(rank);
                    connect(node, rank);
                    if rank == EXPORTER {
                        exporter(node, gate, seed, budget.keep_samples, traced, import_end)
                    } else {
                        importer(node, gate, seed, traced, import_end)
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("node thread")).collect()
    });
    for node in nodes {
        node.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
    let setup_end = sides.iter().filter_map(|r| r.ready).max().expect("sides report ready");
    let mut out = Outcome {
        log: std::mem::take(&mut sides[EXPORTER].log),
        failed: sides.iter().map(|s| s.bad).sum(),
        setup_s: (setup_end - start).as_secs_f64(),
        ..Outcome::default()
    };
    let (exp, imp) = (&sides[EXPORTER], &sides[IMPORTER]);
    if let Some(trace) = trace {
        let epochs: Vec<Epoch> =
            exp.stamps.iter().copied().zip(imp.stamps.iter().copied()).collect();
        let (events, _) = trace.finish();
        let atts: Vec<_> = epochs.iter().map(|ep| blocking_path(ep).close(latency(ep))).collect();
        let closure = Closure::of(&atts);
        let mut layers = Layers::new();
        common::record_closure(&mut layers, &closure);
        for (metric, seg) in [
            ("schedule.pack_us", "schedule.pack"),
            ("schedule.unpack_us", "schedule.unpack"),
            ("wire.send_us", "wire.send"),
            ("wire.recv_wait_us", "wire.recv_wait"),
        ] {
            layers.insert(metric, closure.mean_segment_us.get(seg).copied().unwrap_or(0.0));
        }
        let replay =
            |i: usize| stats::median(&exp.replays.iter().map(|r| r[i]).collect::<Vec<_>>());
        let names = [
            "wire.codec_encode_us",
            "wire.frame_encode_us",
            "wire.crc_us",
            "wire.frame_decode_us",
            "wire.codec_decode_us",
        ];
        for (i, name) in names.into_iter().enumerate() {
            layers.insert(name, replay(i));
        }
        let n = epochs.len().max(1) as f64;
        let frames = exp.stats.frames_sent + imp.stats.frames_sent;
        layers.insert("wire.frames_per_op", frames as f64 / n);
        layers.insert(
            "wire.resends",
            (exp.stats.duplicates_dropped + imp.stats.duplicates_dropped) as f64,
        );
        layers.insert(
            "wire.corrupt_frames",
            (exp.stats.corrupt_frames + imp.stats.corrupt_frames) as f64,
        );
        layers.insert("schedule.build_us", common::schedule_build_us());
        let plan = RegionSchedule::for_sender(&oracle::export_dad(1), &oracle::import_dad(1), 0);
        layers.insert("schedule.runs_per_op", 2.0 * plan.plan(0).num_runs() as f64);
        layers.insert("schedule.bytes_per_op", (plan.plan(0).total() * 8) as f64);
        layers.insert("trace.dropped_events", events.dropped as f64);
        out.notes.push(wire_breakdown(&closure, &layers));
        out.closure = Some(closure);
        out.layers = layers;
    }
    out
}

/// Connects the two-node mesh. The importer dials and sends a ready word;
/// the exporter receives it before it calls `connect`, which then finds
/// its peer attached. `connect` on the listening side checks for inbound
/// dials every 2 ms, and so does the node's accept loop: started together,
/// the two loops make a set-up take one poll period or two by a race that
/// flips with the host's load, and the median of the set-ups flips with
/// it. The blocking receive keeps the accept loop's poll in the set-up as
/// a phase spread evenly over its period.
fn connect(node: &WireNode, rank: usize) {
    if rank == EXPORTER {
        let ready: u64 = node.recv(IMPORTER, CONTEXT, READY_TAG).expect("receive the ready word");
        assert_eq!(ready, 0, "the ready word");
        node.connect().expect("connect the mesh");
    } else {
        node.connect().expect("connect the mesh");
        node.send(EXPORTER, CONTEXT, READY_TAG, 0u64).expect("send the ready word");
    }
}

fn latency((e, i): &Epoch) -> f64 {
    common::us(e[0], e[3].max(i[3]))
}

/// The epoch's blocking path: pack, send, the importer's receive
/// completing, unpack, the ack's send and its arrival.
fn blocking_path((e, i): &Epoch) -> Chain {
    let at = |t: Instant| Some(common::us(e[0], t));
    let mut chain = Chain::new(0.0);
    chain
        .to(at(e[1]), "schedule.pack")
        .to(at(e[2]), "wire.send")
        .to(at(i[1]), "wire.recv_wait")
        .to(at(i[2]), "schedule.unpack")
        .to(at(i[3]), "wire.ack_send")
        .to(at(e[3].max(i[3])), "wire.ack_wait");
    chain
}

/// Splits the wire's share of the epoch by the replayed steps: two CRC
/// passes (frame encode and decode each checksum the payload once), the
/// codec, the frame's own copies, and the rest (socket, resend-ring copy,
/// reader-thread hand-off and wake-ups).
fn wire_breakdown(closure: &Closure, layers: &Layers) -> String {
    let get = |k: &str| layers.get(k).copied().unwrap_or(0.0);
    let wire = closure.mean_self_us.get("wire").copied().unwrap_or(0.0);
    let crc = 2.0 * get("wire.crc_us");
    let codec = get("wire.codec_encode_us") + get("wire.codec_decode_us");
    let framing = (get("wire.frame_encode_us") + get("wire.frame_decode_us") - crc).max(0.0);
    let rest = (wire - crc - codec - framing).max(0.0);
    let mut parts =
        [("crc", crc), ("codec", codec), ("framing", framing), ("socket+handoff", rest)];
    parts.sort_by(|a, b| b.1.total_cmp(&a.1));
    let list: Vec<String> = parts.iter().map(|(k, v)| format!("{k} {v:.0} us")).collect();
    let epoch = closure.mean_op_us;
    format!(
        "wire path {wire:.0} us of a {epoch:.0} us epoch, split by replay: {}\n\
         largest step of the epoch: {} ({:.0} us, {:.1} % of the epoch)",
        list.join(", "),
        parts[0].0,
        parts[0].1,
        100.0 * parts[0].1 / epoch
    )
}

fn exporter(
    node: &WireNode,
    gate: &Gate,
    seed: u64,
    keep_samples: bool,
    traced: bool,
    import_end: &Mutex<Option<Instant>>,
) -> SideRun {
    let (exp_dad, imp_dad) = (oracle::export_dad(1), oracle::import_dad(1));
    let sched = RegionSchedule::for_sender(&exp_dad, &imp_dad, 0);
    let mut run = SideRun {
        ready: Some(Instant::now()),
        log: LatencyLog::new(keep_samples),
        ..SideRun::default()
    };
    let registry = CodecRegistry::with_defaults();
    let mut field = LocalArray::allocate(&exp_dad, 0);
    // The link keeps its last RING_FRAMES data frames for resends, so each
    // epoch also grows the process by one frame until the ring is full.
    // That growth is a one-time cost of a new link, and it shows in
    // `peak_rss_mib`; the window measures the steady state after it.
    let warmup = if gate.measures() { RING_FRAMES as u64 } else { 0 };
    let (mut window, mut stats0) = (Instant::now(), node.stats());
    let mut epoch = 0u64;
    loop {
        if epoch < warmup {
            gate.open();
        } else {
            if epoch == warmup {
                (window, stats0) = (Instant::now(), node.stats());
            }
            gate.decide(run.log.ops(), window);
        }
        if !gate.pass() {
            break;
        }
        oracle::fill(&mut field, seed, epoch);
        gate.await_arrivals(epoch + 1);
        let t0 = Instant::now();
        let mut buf = Vec::new();
        sched.pack_pair_into(0, &field, &mut buf);
        let t1 = Instant::now();
        node.send(IMPORTER, CONTEXT, DATA_TAG, buf).expect("send the field");
        let t2 = Instant::now();
        let ack: u64 = node.recv(IMPORTER, CONTEXT, ACK_TAG).expect("receive the ack");
        let t3 = Instant::now();
        gate.sync();
        let end = import_end.lock().expect("no side panicked holding the slot").take();
        run.bad += u64::from(ack != epoch);
        if epoch < warmup {
            epoch += 1;
            continue;
        }
        run.log.record(common::us(t0, t3.max(end.expect("the importer stamped its end"))));
        if traced {
            run.stamps.push([t0, t1, t2, t3]);
            let mut again = Vec::new();
            sched.pack_pair_into(0, &field, &mut again);
            run.replays.push(replay(&registry, again, epoch));
        }
        epoch += 1;
    }
    run.stats = delta(node.stats(), stats0);
    run
}

fn importer(
    node: &WireNode,
    gate: &Gate,
    seed: u64,
    traced: bool,
    import_end: &Mutex<Option<Instant>>,
) -> SideRun {
    let (exp_dad, imp_dad) = (oracle::export_dad(1), oracle::import_dad(1));
    let mut field = LocalArray::allocate(&imp_dad, 0);
    let sched = RegionSchedule::for_receiver(&exp_dad, &imp_dad, 0);
    let mut run = SideRun { ready: Some(Instant::now()), ..SideRun::default() };
    let warmup = if gate.measures() { RING_FRAMES as u64 } else { 0 };
    let mut stats0 = node.stats();
    let mut epoch = 0u64;
    while gate.pass() {
        if epoch == warmup {
            stats0 = node.stats();
        }
        // Waits in `recv` while the exporter writes this epoch's values.
        gate.arrive();
        let r0 = Instant::now();
        let buf: Vec<f64> = node.recv(EXPORTER, CONTEXT, DATA_TAG).expect("receive the field");
        let r1 = Instant::now();
        sched.unpack_pair_from(0, &mut field, &buf);
        let r2 = Instant::now();
        node.send(EXPORTER, CONTEXT, ACK_TAG, epoch).expect("send the ack");
        let r3 = Instant::now();
        if traced && epoch >= warmup {
            run.stamps.push([r0, r1, r2, r3]);
        }
        *import_end.lock().expect("no side panicked holding the slot") = Some(r3);
        gate.sync();
        run.bad += u64::from(oracle::mismatches(&field, &imp_dad, seed, epoch) > 0);
        epoch += 1;
    }
    run.stats = delta(node.stats(), stats0);
    run
}

/// Times the wire's public steps on one epoch's packed payload: the codec
/// path `WireNode::send` takes, `Frame::encode`, one `crc32` over the
/// payload, a `FrameReader` decode and the codec decode the reader thread
/// runs. Checks that the round trip gives the payload back.
fn replay(registry: &CodecRegistry, payload: Vec<f64>, epoch: u64) -> Replay {
    let t0 = Instant::now();
    let (codec, bytes) =
        registry.encode_any(&payload as &dyn Any).expect("Vec<f64> has a default codec");
    let t1 = Instant::now();
    let frame = Frame {
        kind: FrameKind::Data,
        src: EXPORTER as u32,
        context: CONTEXT,
        tag: DATA_TAG,
        seq: epoch + 1,
        codec,
        payload: bytes,
    };
    let wire = frame.encode();
    let t2 = Instant::now();
    black_box(crc32(black_box(&frame.payload)));
    let t3 = Instant::now();
    let mut reader = FrameReader::new();
    reader.feed(&wire);
    let decoded = reader.next().expect("a whole frame").expect("an intact frame");
    let t4 = Instant::now();
    let value = registry.decode_any(decoded.codec, &decoded.payload).expect("decodable payload");
    let t5 = Instant::now();
    let back = value.downcast::<Vec<f64>>().expect("the codec gives Vec<f64> back");
    assert!(*back == payload, "wire replay must round-trip the payload");
    [t0, t1, t2, t3, t4, t5]
        .windows(2)
        .map(|w| common::us(w[0], w[1]))
        .collect::<Vec<_>>()
        .try_into()
        .expect("five steps")
}

fn delta(now: WireStats, then: WireStats) -> WireStats {
    WireStats {
        frames_sent: now.frames_sent - then.frames_sent,
        frames_received: now.frames_received - then.frames_received,
        corrupt_frames: now.corrupt_frames - then.corrupt_frames,
        duplicates_dropped: now.duplicates_dropped - then.duplicates_dropped,
        ..now
    }
}
