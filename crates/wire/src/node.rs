//! A wire-transport node: one OS process's endpoint in a UDS mesh.
//!
//! Each of the `size` participants binds `dir/rank_<r>.sock` and the mesh
//! is completed by the *higher* rank dialing the lower — every pair gets
//! exactly one bidirectional stream. On top of that sit the robustness
//! layers, bottom to top:
//!
//! * **Framing + CRC** ([`crate::frame`]): damage is detected, reported as
//!   a `WireFrameCorrupt` trace event, surfaced to the blocked receiver as
//!   [`RuntimeError::Corrupt`] when the header was routable, and the
//!   stream resyncs.
//! * **Sequencing + session resume** ([`crate::link`]): data frames carry
//!   per-link sequence numbers; a reconnecting peer announces the highest
//!   one it saw (`Hello`) and the sender replays the missing tail from its
//!   ring, while the receiver's duplicate guard drops any overlap — at
//!   the link layer, disconnects lose nothing the ring still holds.
//! * **Heartbeats** : every link is beaconed; silence past the liveness
//!   deadline is a `HeartbeatMiss` and tears the link down for reconnect.
//! * **Bounded reconnect**: the dialing side retries with deterministic
//!   seeded exponential backoff (the fault plane's RNG via
//!   [`CallPolicy::retry_pause`]); when attempts exhaust — or, on the
//!   passive side, the reconnect window passes without a new `Hello` —
//!   the peer is *reported dead* in the same [`Liveness`] registry the
//!   in-proc runtime uses, every blocked receive wakes with
//!   [`RuntimeError::PeerDead`], and recovery proceeds exactly as for an
//!   in-proc rank death: agree on survivors, shrink, go on.
//!
//! The mailbox behind `recv` *is* `mxn_runtime::mailbox::Mailbox` — the
//! wire transport changes how envelopes arrive, not how they match.

use std::any::Any;
use std::io::{self, Read};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use mxn_framework::CallPolicy;
use mxn_runtime::envelope::{Envelope, Payload, Src, Tag};
use mxn_runtime::fault::Liveness;
use mxn_runtime::mailbox::{Mailbox, PeerRef};
use mxn_runtime::membership::Revocations;
use mxn_runtime::{splitmix64, Result, RuntimeError, Transport};
use mxn_trace::{emit, emit_instant, EventId, Phase, TraceHandle};

use crate::codec::CodecRegistry;
use crate::fault::WireFaults;
use crate::frame::{Frame, FrameBuf, FrameError, FrameKind, FrameReader, MAX_PAYLOAD};
use crate::link::LinkSender;

use std::os::unix::net::{UnixListener, UnixStream};

/// Context id reserved for the node's own control protocol (survivor
/// agreement and the spare-process join handshake); application traffic
/// must stay below it.
pub const WIRE_CTRL_CONTEXT: u32 = 0xffff_fff0;

/// Join handshake: newcomer → sponsor, "I am rank `payload` and wired in".
/// The join protocol owns the *negative* tag space on the control context;
/// survivor agreement uses tags ≥ 0, so the two planes never collide.
pub const JOIN_REQ_TAG: i32 = -1;
/// Join handshake: sponsor → incumbent, a serialized
/// [`JoinOffer`](mxn_runtime::JoinOffer).
pub const JOIN_OFFER_TAG: i32 = -2;
/// Join handshake: sponsor → newcomer, `[commit_flag, attempt(u32 LE),
/// state…]` — the replayed state blob on commit, the abort notice
/// otherwise.
pub const JOIN_STATE_TAG: i32 = -6;

/// Vote tag for join `attempt` (incumbent → sponsor). Salted per attempt
/// so a straggling vote from an aborted attempt can never satisfy a later
/// one.
fn join_vote_tag(attempt: u64) -> i32 {
    -100 - attempt as i32
}

/// Commit/abort tag for join `attempt` (sponsor → incumbent).
fn join_commit_tag(attempt: u64) -> i32 {
    -200 - attempt as i32
}

/// Configuration of one wire node.
#[derive(Debug, Clone)]
pub struct WireConfig {
    /// Directory holding the per-rank socket files.
    pub dir: PathBuf,
    /// This process's global rank.
    pub rank: usize,
    /// Total participants in the mesh.
    pub size: usize,
    /// Interval between heartbeat frames on every live link.
    pub heartbeat: Duration,
    /// Silence beyond this is a heartbeat miss: the link is torn down and
    /// reconnect (or the passive reconnect window) begins.
    pub liveness_deadline: Duration,
    /// Reconnect attempts after the first (total dials = attempts + 1)
    /// before the peer is declared dead.
    pub reconnect_attempts: u32,
    /// Base reconnect backoff; doubles per attempt, jittered by `seed`.
    pub reconnect_backoff: Duration,
    /// How long `connect` waits for the full mesh at startup.
    pub connect_timeout: Duration,
    /// Seed for reconnect jitter (and anything else that must replay).
    pub seed: u64,
    /// Frame-layer fault injection policy.
    pub faults: WireFaults,
    /// Upper bound on mesh size. Peer tables are preallocated to this, so
    /// spare processes can join (rank `size`, `size+1`, …) without
    /// reallocating rank-indexed state. Defaults to `size` (no spares).
    pub max_size: usize,
    /// Interval between progress fences on every live link. Fences carry
    /// the delivered-sequence watermark that distinguishes a zombie
    /// (socket open, application frozen) from a healthy peer.
    pub fence_interval: Duration,
    /// Consecutive fence ticks a peer's watermark may stall — while we
    /// hold undelivered data for it — before it is quarantined.
    pub fence_stall_fences: u32,
    /// Reconnect-churn threshold: this many heartbeat-miss teardowns with
    /// no intact frame in between quarantines the peer even when no data
    /// is outstanding (the idle-zombie case: the kernel keeps accepting
    /// our dials on the stopped process's listener backlog).
    pub zombie_churn: u32,
    /// How long a quarantined peer may stay frozen before it is evicted
    /// for good. Resuming within the grace (watermark advances again)
    /// re-admits it; past the grace the verdict is final.
    pub quarantine_grace: Duration,
}

impl WireConfig {
    /// Defaults tuned for tests: sub-second failure detection.
    pub fn new(dir: impl Into<PathBuf>, rank: usize, size: usize) -> Self {
        WireConfig {
            dir: dir.into(),
            rank,
            size,
            heartbeat: Duration::from_millis(20),
            liveness_deadline: Duration::from_millis(250),
            reconnect_attempts: 4,
            reconnect_backoff: Duration::from_millis(25),
            connect_timeout: Duration::from_secs(10),
            seed: 1,
            faults: WireFaults::none(),
            max_size: size,
            fence_interval: Duration::from_millis(25),
            fence_stall_fences: 4,
            zombie_churn: 3,
            quarantine_grace: Duration::from_millis(1500),
        }
    }

    /// Socket path of `rank` under this configuration.
    pub fn sock_path(&self, rank: usize) -> PathBuf {
        self.dir.join(format!("rank_{rank}.sock"))
    }

    /// The longest a passive side waits for a dialer to come back before
    /// declaring it dead: the dialer's full (un-jittered) backoff schedule
    /// plus one liveness deadline of slack.
    pub fn reconnect_window(&self) -> Duration {
        let mut total = Duration::ZERO;
        let mut base = self.reconnect_backoff;
        for _ in 0..=self.reconnect_attempts {
            total += base;
            base = base.saturating_mul(2);
        }
        total + self.liveness_deadline * 2
    }
}

/// Monotone wire-level counters (diagnostics and tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Data frames handed to the link layer.
    pub frames_sent: u64,
    /// Data frames delivered into the mailbox.
    pub frames_received: u64,
    /// Frames rejected by CRC/framing checks.
    pub corrupt_frames: u64,
    /// Duplicate data frames suppressed by the resume guard.
    pub duplicates_dropped: u64,
    /// Reconnect dials attempted.
    pub reconnect_dials: u64,
    /// Heartbeat misses observed.
    pub heartbeat_misses: u64,
    /// Progress fences sent.
    pub fences_sent: u64,
    /// Peers quarantined as zombies (watermark stall or reconnect churn).
    pub zombies_quarantined: u64,
    /// Quarantined peers re-admitted after their watermark resumed.
    pub zombies_readmitted: u64,
    /// Quarantined peers evicted for good after the grace expired.
    pub zombies_evicted: u64,
    /// Spare-process joins committed (as sponsor, voter, or newcomer).
    pub joins_committed: u64,
    /// Join attempts aborted and rolled back.
    pub joins_aborted: u64,
}

#[derive(Default)]
struct StatsInner {
    frames_sent: AtomicU64,
    frames_received: AtomicU64,
    corrupt_frames: AtomicU64,
    duplicates_dropped: AtomicU64,
    reconnect_dials: AtomicU64,
    heartbeat_misses: AtomicU64,
    fences_sent: AtomicU64,
    zombies_quarantined: AtomicU64,
    zombies_readmitted: AtomicU64,
    zombies_evicted: AtomicU64,
    joins_committed: AtomicU64,
    joins_aborted: AtomicU64,
}

/// Per-peer connection state. The `LinkSender` (sequencing, ring) persists
/// across socket generations; everything else is per-connection.
struct Peer {
    sender: Mutex<LinkSender>,
    /// Last time any intact frame arrived from this peer.
    last_heard: Mutex<Instant>,
    /// Last time we beaconed this peer.
    last_beat: Mutex<Instant>,
    /// When the link dropped; `None` while connected or never-connected.
    disconnected_at: Mutex<Option<Instant>>,
    /// Whether the link has ever been established (gates the monitor).
    ever_connected: AtomicBool,
    /// Bumped on every (re)attach; readers use it to tell whether the
    /// stream that failed is still the current one.
    generation: AtomicU64,
    /// Highest data seq received from this peer (duplicate guard + the
    /// value announced in our `Hello`s).
    last_recv_seq: AtomicU64,
    /// The peer's session id, to detect a restarted peer process.
    session: AtomicU64,
    /// A reconnect thread is in flight.
    reconnecting: AtomicBool,
    /// Last time we fenced this peer.
    last_fence: Mutex<Instant>,
    /// Our fence counter toward this peer.
    fence_seq: AtomicU64,
    /// Highest delivered-sequence watermark the peer has reported for
    /// *our* outbound stream (via its ProgressFence frames).
    peer_watermark: AtomicU64,
    /// Consecutive fence ticks the watermark stalled with data
    /// outstanding.
    stall_fences: AtomicU64,
    /// Heartbeat-miss teardowns since the last intact frame.
    churn: AtomicU64,
    /// The peer is quarantined: provisionally dead, frames dropped,
    /// awaiting either resumed progress (readmit) or the grace expiring
    /// (evict).
    quarantined: AtomicBool,
    /// The verdict is final: no readmission, no reconnect, ever.
    evicted: AtomicBool,
    /// When quarantine began (drives the eviction grace timer).
    quarantined_at: Mutex<Option<Instant>>,
}

impl Peer {
    fn new(src: u32, dst: u32, faults: WireFaults) -> Self {
        let now = Instant::now();
        Peer {
            sender: Mutex::new(LinkSender::new(src, dst, faults)),
            last_heard: Mutex::new(now),
            last_beat: Mutex::new(now),
            disconnected_at: Mutex::new(None),
            ever_connected: AtomicBool::new(false),
            generation: AtomicU64::new(0),
            last_recv_seq: AtomicU64::new(0),
            session: AtomicU64::new(0),
            reconnecting: AtomicBool::new(false),
            last_fence: Mutex::new(now),
            fence_seq: AtomicU64::new(0),
            peer_watermark: AtomicU64::new(0),
            stall_fences: AtomicU64::new(0),
            churn: AtomicU64::new(0),
            quarantined: AtomicBool::new(false),
            evicted: AtomicBool::new(false),
            quarantined_at: Mutex::new(None),
        }
    }
}

struct NodeShared {
    cfg: WireConfig,
    /// This process incarnation's session id (announced in `Hello`).
    session: u64,
    mailbox: Mailbox,
    liveness: Arc<Liveness>,
    registry: CodecRegistry,
    /// Preallocated to `cfg.max_size`; ranks in `cur_size..max_size` are
    /// parked spare slots.
    peers: Vec<Peer>,
    /// Current mesh size. Starts at `cfg.size`, grows when a spare-process
    /// join commits, shrinks back when an attempt is rescinded.
    cur_size: AtomicUsize,
    abort: Arc<AtomicBool>,
    shutdown: AtomicBool,
    stats: StatsInner,
    /// Recorder the node's internal threads install, so wire spans
    /// (connect/reconnect/corrupt/heartbeat-miss) land in Chrome traces.
    trace: Option<TraceHandle>,
}

impl NodeShared {
    /// Installs this node's trace recorder on the calling thread (no-op
    /// without one). Every internal thread calls this at entry.
    fn install_trace(&self) -> Option<mxn_trace::InstallGuard> {
        self.trace.as_ref().map(TraceHandle::install)
    }
    fn declare_dead(&self, peer: usize) {
        if self.liveness.kill(peer) {
            self.mailbox.wake_all();
        }
    }

    fn cur_size(&self) -> usize {
        self.cur_size.load(Ordering::Acquire)
    }

    fn mark_disconnected(&self, peer: usize) {
        let mut at = self.peers[peer].disconnected_at.lock();
        if at.is_none() {
            *at = Some(Instant::now());
        }
    }

    /// One fence tick toward `peer`: sends our fence (carrying the
    /// delivered watermark of the peer's stream) and judges the peer's
    /// delivery of *our* stream. A watermark frozen across
    /// `fence_stall_fences` consecutive ticks while we hold undelivered
    /// data quarantines the peer — the socket being open proves nothing
    /// (a SIGSTOP'd process's listener backlog still accepts), only
    /// delivered sequence numbers prove the far application runs.
    fn fence_tick(&self, peer: usize) {
        let p = &self.peers[peer];
        let fence_seq = p.fence_seq.fetch_add(1, Ordering::AcqRel) + 1;
        let outstanding = {
            let mut sender = p.sender.lock();
            let watermark = p.last_recv_seq.load(Ordering::Acquire);
            if sender.send_fence(fence_seq, watermark).is_err() {
                sender.detach();
                drop(sender);
                self.mark_disconnected(peer);
                return;
            }
            self.stats.fences_sent.fetch_add(1, Ordering::Relaxed);
            sender.last_seq() > p.peer_watermark.load(Ordering::Acquire)
        };
        if outstanding {
            let stalled = p.stall_fences.fetch_add(1, Ordering::AcqRel) + 1;
            if stalled >= u64::from(self.cfg.fence_stall_fences) {
                self.quarantine(peer, stalled);
            }
        } else {
            p.stall_fences.store(0, Ordering::Release);
        }
    }

    /// Quarantines `peer`: provisionally dead (blocked operations fail
    /// fast with `PeerDead`), inbound data dropped, but reversible — a
    /// resumed watermark before the grace expires re-admits it.
    fn quarantine(&self, peer: usize, stalled_fences: u64) {
        let p = &self.peers[peer];
        if p.evicted.load(Ordering::Acquire) || p.quarantined.swap(true, Ordering::AcqRel) {
            return;
        }
        *p.quarantined_at.lock() = Some(Instant::now());
        self.stats.zombies_quarantined.fetch_add(1, Ordering::Relaxed);
        emit_instant(EventId::WireZombie, [peer as u64, 1, stalled_fences, 0]);
        self.declare_dead(peer);
    }

    /// Re-admits a quarantined peer whose application proved it is
    /// consuming again. Sends a fresh `Hello` so the peer replays the data
    /// we dropped during quarantine (our `last_recv_seq` never advanced
    /// past them).
    fn readmit(&self, peer: usize) {
        let p = &self.peers[peer];
        if p.evicted.load(Ordering::Acquire) || !p.quarantined.swap(false, Ordering::AcqRel) {
            return;
        }
        let held = p
            .quarantined_at
            .lock()
            .take()
            .map_or(0, |at| Instant::now().duration_since(at).as_micros() as u64);
        p.stall_fences.store(0, Ordering::Release);
        p.churn.store(0, Ordering::Release);
        self.liveness.revive(peer);
        self.stats.zombies_readmitted.fetch_add(1, Ordering::Relaxed);
        emit_instant(EventId::WireZombie, [peer as u64, 2, 0, held]);
        let mut sender = p.sender.lock();
        let _ = sender.send_hello(self.session, p.last_recv_seq.load(Ordering::Acquire));
    }

    /// Makes the quarantine verdict final: the peer stays dead, its link
    /// is closed, and no readmission or reconnect will ever touch it.
    fn evict(&self, peer: usize) {
        let p = &self.peers[peer];
        if p.evicted.swap(true, Ordering::AcqRel) {
            return;
        }
        let held = p
            .quarantined_at
            .lock()
            .take()
            .map_or(0, |at| Instant::now().duration_since(at).as_micros() as u64);
        p.quarantined.store(false, Ordering::Release);
        self.stats.zombies_evicted.fetch_add(1, Ordering::Relaxed);
        emit_instant(EventId::WireZombie, [peer as u64, 3, 0, held]);
        self.declare_dead(peer);
        p.sender.lock().shutdown();
    }

    /// Opens an admission window for `new_rank` (must be the next free
    /// slot): raises the membership so the acceptor, monitor, and send
    /// path address it, and scrubs any state a previous occupant or
    /// aborted attempt left behind. A connection the newcomer already made
    /// is kept — voters admit *after* the newcomer dials the mesh.
    fn begin_admit(&self, new_rank: usize) -> Result<()> {
        let cur = self.cur_size();
        if new_rank != cur || new_rank >= self.cfg.max_size {
            return Err(RuntimeError::InvalidRank { rank: new_rank, size: self.cfg.max_size });
        }
        let p = &self.peers[new_rank];
        p.evicted.store(false, Ordering::Release);
        p.quarantined.store(false, Ordering::Release);
        *p.quarantined_at.lock() = None;
        p.stall_fences.store(0, Ordering::Release);
        p.churn.store(0, Ordering::Release);
        {
            let mut sender = p.sender.lock();
            // The joiner owes us nothing sent to a previous occupant: the
            // watermark baseline starts at today's sequence counter, so
            // only data sent *after* admission can count as outstanding.
            p.peer_watermark.store(sender.last_seq(), Ordering::Release);
            if !sender.is_connected() {
                // No live connection from the joiner yet: forget the
                // previous occupant entirely. The ring is cleared (its
                // frames belong to a dead incarnation — replaying them at
                // a fresh process would cross sessions) but the sequence
                // counter stays monotone.
                sender.clear_ring();
                p.ever_connected.store(false, Ordering::Release);
                p.session.store(0, Ordering::Release);
                p.last_recv_seq.store(0, Ordering::Release);
            }
        }
        self.liveness.revive(new_rank);
        self.cur_size.store(cur + 1, Ordering::Release);
        Ok(())
    }

    /// Rolls an admission window back after an aborted join: closes any
    /// half-made connection, scrubs the slot, and lowers the membership
    /// (only if no later admit committed on top of it).
    fn rescind_admit(&self, new_rank: usize) {
        let p = &self.peers[new_rank];
        {
            let mut sender = p.sender.lock();
            sender.shutdown();
            sender.clear_ring();
            p.peer_watermark.store(sender.last_seq(), Ordering::Release);
        }
        p.ever_connected.store(false, Ordering::Release);
        p.session.store(0, Ordering::Release);
        p.last_recv_seq.store(0, Ordering::Release);
        *p.disconnected_at.lock() = None;
        self.liveness.revive(new_rank);
        let _ = self.cur_size.compare_exchange(
            new_rank + 1,
            new_rank,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// Routes one decoded frame from `peer`.
    fn handle_frame(self: &Arc<Self>, peer: usize, frame: Frame) {
        match frame.kind {
            FrameKind::Data => {
                let p = &self.peers[peer];
                // A quarantined peer's data is dropped *without* advancing
                // `last_recv_seq`: if the peer is re-admitted, the `Hello`
                // we send announces the pre-quarantine watermark and its
                // ring replays everything we refused here.
                if p.quarantined.load(Ordering::Acquire) || p.evicted.load(Ordering::Acquire) {
                    return;
                }
                // Duplicate guard: session resume may replay frames the
                // original delivery already landed.
                if frame.seq <= p.last_recv_seq.load(Ordering::Acquire) {
                    self.stats.duplicates_dropped.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                p.last_recv_seq.store(frame.seq, Ordering::Release);
                let bytes = frame.payload.len();
                match self.registry.decode_any(frame.codec, &frame.payload) {
                    Ok(boxed) => {
                        self.stats.frames_received.fetch_add(1, Ordering::Relaxed);
                        self.mailbox.push(Envelope::new(
                            peer,
                            peer,
                            frame.context,
                            frame.tag,
                            bytes,
                            None,
                            Payload::Owned(boxed),
                        ));
                    }
                    // Bytes passed CRC but no/odd codec: a registry
                    // mismatch between the two processes. Surface it as a
                    // detectable Corrupt — never a panic — so the
                    // receiver's retry/NACK machinery engages.
                    Err(_) => self.push_corrupt(peer, frame.context, frame.tag, bytes),
                }
            }
            FrameKind::Heartbeat => {} // `last_heard` already refreshed
            FrameKind::Hello => {
                if let Ok((session, last_recv)) =
                    crate::codec::decode_value::<(u64, u64)>(&frame.payload)
                {
                    self.note_peer_session(peer, session);
                    let mut sender = self.peers[peer].sender.lock();
                    let _ = sender.resend_since(last_recv);
                }
            }
            FrameKind::Bye => {
                // An orderly goodbye still marks the peer dead: blocked
                // receives must fail fast, exactly as for a crash; the
                // difference is no reconnect is attempted.
                self.declare_dead(peer);
            }
            FrameKind::ProgressFence => {
                if let Ok((_fence_seq, watermark)) =
                    crate::codec::decode_value::<(u64, u64)>(&frame.payload)
                {
                    let p = &self.peers[peer];
                    let prev = p.peer_watermark.fetch_max(watermark, Ordering::AcqRel);
                    let advanced = watermark > prev;
                    if advanced {
                        p.stall_fences.store(0, Ordering::Release);
                    }
                    // A fence *arriving at all* proves the peer's monitor
                    // thread is scheduled again — a stopped process sends
                    // nothing. Re-admit once it has either advanced or
                    // fully caught up with our stream.
                    if p.quarantined.load(Ordering::Acquire) {
                        let caught_up = watermark >= p.sender.lock().last_seq();
                        if advanced || caught_up {
                            self.readmit(peer);
                        }
                    } else if !advanced && !p.evicted.load(Ordering::Acquire) {
                        // A fence *repeating* a lagging watermark is a
                        // NACK, not a freeze: the peer is running but
                        // frames beyond the watermark were lost to bit
                        // damage or a torn connection. Repair from the
                        // resend ring — the duplicate guard on the far
                        // side keeps redelivery exact-once.
                        let mut sender = p.sender.lock();
                        if sender.is_connected() && sender.last_seq() > watermark {
                            let _ = sender.resend_since(watermark);
                        }
                    }
                }
            }
        }
    }

    /// Waits until `peer` is connected and has sent a frame (its beats
    /// arrive every `heartbeat`) after `since`, or `deadline` passes. An
    /// open socket alone is no proof of life: a process that dies keeps
    /// its sockets open until its teardown ends, and a vote cast in that
    /// gap would admit a dead newcomer.
    fn heard_since(&self, peer: usize, since: Instant, deadline: Instant) -> bool {
        let p = &self.peers[peer];
        loop {
            if p.sender.lock().is_connected() && *p.last_heard.lock() > since {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Delivers a checksum-damaged envelope so a receiver blocked on this
    /// `(context, tag)` observes `RuntimeError::Corrupt`, mirroring the
    /// in-proc fault plane's corrupt verdict.
    fn push_corrupt(&self, peer: usize, context: u32, tag: i32, bytes: usize) {
        let mut env = Envelope::new(peer, peer, context, tag, bytes, None, Payload::owned(()));
        env.corrupt();
        self.mailbox.push(env);
    }

    /// Records the peer's session id; a changed id means the peer process
    /// restarted, so its data sequence numbers start over.
    fn note_peer_session(&self, peer: usize, session: u64) {
        let p = &self.peers[peer];
        let prev = p.session.swap(session, Ordering::AcqRel);
        if prev != 0 && prev != session {
            p.last_recv_seq.store(0, Ordering::Release);
        }
    }

    /// Attaches a fresh stream for `peer` and spawns its reader thread.
    /// `reader` carries any bytes already consumed during the handshake.
    fn attach(
        self: &Arc<Self>,
        peer: usize,
        stream: UnixStream,
        reader: FrameReader,
        via_listener: bool,
        attempt: u64,
    ) -> io::Result<()> {
        let p = &self.peers[peer];
        // A zombie peer stops draining its socket; once the kernel buffer
        // fills, a blocking `write_all` would wedge whichever thread holds
        // the sender lock (the monitor included). Bound every write so a
        // full pipe surfaces as a link failure instead.
        stream.set_write_timeout(Some(self.cfg.liveness_deadline))?;
        let read_half = stream.try_clone()?;
        let generation = {
            let mut sender = p.sender.lock();
            sender.attach(stream);
            let generation = p.generation.fetch_add(1, Ordering::AcqRel) + 1;
            *p.last_heard.lock() = Instant::now();
            *p.disconnected_at.lock() = None;
            p.ever_connected.store(true, Ordering::Release);
            // Announce our session and what we have seen, triggering the
            // peer's resume replay toward us.
            sender.send_hello(self.session, p.last_recv_seq.load(Ordering::Acquire))?;
            generation
        };
        emit_instant(
            EventId::WireConnect,
            [
                peer as u64,
                attempt,
                self.peers[peer].last_recv_seq.load(Ordering::Relaxed),
                u64::from(via_listener),
            ],
        );
        let shared = Arc::clone(self);
        std::thread::Builder::new().name(format!("wire-read-{}-{peer}", self.cfg.rank)).spawn(
            move || {
                let _trace = shared.install_trace();
                shared.reader_loop(peer, read_half, reader, generation)
            },
        )?;
        Ok(())
    }

    /// Blocking per-connection read loop: bytes → frames → mailbox.
    fn reader_loop(
        self: Arc<Self>,
        peer: usize,
        mut stream: UnixStream,
        mut frames: FrameReader,
        generation: u64,
    ) {
        let mut buf = [0u8; 64 * 1024];
        loop {
            // Drain frames already buffered (handshake leftovers first).
            while let Some(res) = frames.next() {
                *self.peers[peer].last_heard.lock() = Instant::now();
                match res {
                    Ok(frame) => {
                        // Any intact frame resets the reconnect-churn and
                        // fence-stall counters: the peer's application
                        // demonstrably ran. A zombie sends *nothing* — a
                        // peer on a lossy wire keeps proving itself with
                        // every frame that survives, so bit damage alone
                        // can never convict it.
                        self.peers[peer].churn.store(0, Ordering::Release);
                        self.peers[peer].stall_fences.store(0, Ordering::Release);
                        self.handle_frame(peer, frame);
                    }
                    Err(FrameError::Corrupt { skipped, header, .. }) => {
                        self.stats.corrupt_frames.fetch_add(1, Ordering::Relaxed);
                        emit_instant(
                            EventId::WireFrameCorrupt,
                            [peer as u64, u64::from(header.is_some()), skipped as u64, 0],
                        );
                        if let Some(h) = header {
                            self.push_corrupt(peer, h.context, h.tag, skipped);
                        }
                    }
                }
            }
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            match stream.read(&mut buf) {
                Ok(0) | Err(_) => break, // EOF or failure: the link is down
                Ok(n) => frames.feed(&buf[..n]),
            }
        }
        // Only the *current* stream's reader tears the link down; a stale
        // generation means a reconnect already replaced us.
        let p = &self.peers[peer];
        if p.generation.load(Ordering::Acquire) == generation
            && !self.shutdown.load(Ordering::Acquire)
        {
            p.sender.lock().detach();
            self.mark_disconnected(peer);
        }
    }

    /// Reads the peer's opening `Hello` off a freshly accepted stream.
    fn read_hello(stream: &UnixStream) -> io::Result<(Frame, FrameReader)> {
        let mut s = stream.try_clone()?;
        s.set_read_timeout(Some(Duration::from_secs(5)))?;
        let mut frames = FrameReader::new();
        let mut buf = [0u8; 4096];
        loop {
            if let Some(res) = frames.next() {
                match res {
                    Ok(f) if f.kind == FrameKind::Hello => {
                        stream.set_read_timeout(None)?;
                        return Ok((f, frames));
                    }
                    // Anything else before Hello is a protocol violation
                    // from an unknown peer: drop the connection.
                    Ok(_) | Err(_) => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "expected Hello as first frame",
                        ));
                    }
                }
            }
            let n = s.read(&mut buf)?;
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "EOF before Hello"));
            }
            frames.feed(&buf[..n]);
        }
    }

    /// Accept loop: polls the nonblocking listener, handshakes inbound
    /// connections, attaches them.
    fn acceptor_loop(self: Arc<Self>, listener: UnixListener) {
        while !self.shutdown.load(Ordering::Acquire) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let shared = Arc::clone(&self);
                    // Handshake off-thread so one slow dialer cannot stall
                    // the accept queue.
                    let _ = std::thread::Builder::new()
                        .name(format!("wire-hello-{}", self.cfg.rank))
                        .spawn(move || {
                            let _trace = shared.install_trace();
                            if let Ok((hello, frames)) = NodeShared::read_hello(&stream) {
                                let peer = hello.src as usize;
                                // Accept up to `max_size`: a joining spare
                                // dials the mesh before every incumbent has
                                // raised its membership.
                                if peer < shared.cfg.max_size && peer != shared.cfg.rank {
                                    if let Ok((session, last_recv)) =
                                        crate::codec::decode_value::<(u64, u64)>(&hello.payload)
                                    {
                                        shared.note_peer_session(peer, session);
                                        let _ = shared.attach(peer, stream, frames, true, 0);
                                        let mut sender = shared.peers[peer].sender.lock();
                                        let _ = sender.resend_since(last_recv);
                                    }
                                }
                            }
                        });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }

    /// Heartbeat/liveness monitor: beacons live links, fences them for
    /// end-to-end progress, detects silence, launches reconnects, expires
    /// the passive reconnect window, and walks peers through the
    /// quarantine → readmit/evict state machine.
    fn monitor_loop(self: Arc<Self>) {
        let tick = self.cfg.heartbeat / 2;
        while !self.shutdown.load(Ordering::Acquire) {
            std::thread::sleep(tick);
            let now = Instant::now();
            for peer in 0..self.cur_size() {
                if peer == self.cfg.rank {
                    continue;
                }
                let p = &self.peers[peer];
                if p.evicted.load(Ordering::Acquire) {
                    continue; // verdict is final
                }
                if p.quarantined.load(Ordering::Acquire) {
                    // Quarantine: liveness says dead, but the link (if
                    // any) stays up so a resumed peer's fences can reach
                    // us and trigger readmission. No beacons, no silence
                    // checks, no reconnects — just the grace timer.
                    let expired = p
                        .quarantined_at
                        .lock()
                        .is_some_and(|at| now.duration_since(at) > self.cfg.quarantine_grace);
                    if expired {
                        self.evict(peer);
                    }
                    continue;
                }
                if self.liveness.is_dead(peer) {
                    continue; // dead by crash/agreement, not quarantine
                }
                if !p.ever_connected.load(Ordering::Acquire) {
                    continue; // still in startup; `connect` owns this phase
                }
                let connected = p.sender.lock().is_connected();
                if connected {
                    if now.duration_since(*p.last_beat.lock()) >= self.cfg.heartbeat {
                        *p.last_beat.lock() = now;
                        let mut sender = p.sender.lock();
                        if sender.send_control(FrameKind::Heartbeat).is_err() {
                            sender.detach();
                            drop(sender);
                            self.mark_disconnected(peer);
                            continue;
                        }
                    }
                    if now.duration_since(*p.last_fence.lock()) >= self.cfg.fence_interval {
                        *p.last_fence.lock() = now;
                        self.fence_tick(peer);
                        if p.quarantined.load(Ordering::Acquire) {
                            continue;
                        }
                    }
                    let silence = now.duration_since(*p.last_heard.lock());
                    if silence > self.cfg.liveness_deadline {
                        self.stats.heartbeat_misses.fetch_add(1, Ordering::Relaxed);
                        emit_instant(
                            EventId::HeartbeatMiss,
                            [
                                peer as u64,
                                silence.as_micros() as u64,
                                self.cfg.liveness_deadline.as_micros() as u64,
                                0,
                            ],
                        );
                        // Tear the link down; reconnect (or the passive
                        // window) decides whether the peer is dead. Count
                        // the churn: a zombie's listener backlog lets the
                        // redial "succeed", so miss → reconnect → miss
                        // cycles are themselves a detection signal.
                        let churn = p.churn.fetch_add(1, Ordering::AcqRel) + 1;
                        let mut sender = p.sender.lock();
                        sender.shutdown();
                        drop(sender);
                        self.mark_disconnected(peer);
                        if churn >= u64::from(self.cfg.zombie_churn) {
                            self.quarantine(peer, 0);
                        }
                    }
                } else {
                    let since = p.disconnected_at.lock().map(|at| now.duration_since(at));
                    let Some(since) = since else { continue };
                    if peer < self.cfg.rank {
                        // We are the dialer: bounded reconnect attempts.
                        if !p.reconnecting.swap(true, Ordering::AcqRel) {
                            let shared = Arc::clone(&self);
                            let _ = std::thread::Builder::new()
                                .name(format!("wire-redial-{}-{peer}", self.cfg.rank))
                                .spawn(move || {
                                    let _trace = shared.install_trace();
                                    shared.reconnect_loop(peer)
                                });
                        }
                    } else if since > self.cfg.reconnect_window() {
                        // Passive side: the dialer's whole backoff schedule
                        // has passed without a new Hello. It is gone.
                        self.declare_dead(peer);
                    }
                }
            }
        }
    }

    /// Dials `peer` with seeded exponential backoff; on exhaustion the
    /// peer is declared dead and heal takes over.
    fn reconnect_loop(self: Arc<Self>, peer: usize) {
        emit(EventId::WireReconnect, Phase::Begin, [peer as u64, 0, 0, 0]);
        // The jitter draws come from the same splitmix stream as the
        // in-proc retry plane, keyed so each (rank, peer) pair decorrelates.
        let policy = CallPolicy {
            backoff: self.cfg.reconnect_backoff,
            max_retries: self.cfg.reconnect_attempts,
            jitter: Some(splitmix64(self.cfg.seed ^ ((self.cfg.rank as u64) << 32 | peer as u64))),
            ..CallPolicy::default()
        };
        let mut base = self.cfg.reconnect_backoff;
        for attempt in 0..=self.cfg.reconnect_attempts {
            if self.shutdown.load(Ordering::Acquire) || self.liveness.is_dead(peer) {
                break;
            }
            self.stats.reconnect_dials.fetch_add(1, Ordering::Relaxed);
            if let Ok(stream) = UnixStream::connect(self.cfg.sock_path(peer)) {
                if self.attach(peer, stream, FrameReader::new(), false, u64::from(attempt)).is_ok()
                {
                    emit(
                        EventId::WireReconnect,
                        Phase::End,
                        [peer as u64, u64::from(attempt), 1, 0],
                    );
                    self.peers[peer].reconnecting.store(false, Ordering::Release);
                    return;
                }
            }
            // Interruptible backoff: a `Bye` (or any other death verdict)
            // that lands mid-pause must cancel the remaining attempts now,
            // not after the full schedule drains — otherwise the redial
            // races the goodbye and can resurrect a link to a peer that
            // already left on purpose.
            let wake = Instant::now() + policy.retry_pause(base, attempt);
            while Instant::now() < wake {
                if self.shutdown.load(Ordering::Acquire) || self.liveness.is_dead(peer) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            base = base.saturating_mul(2);
        }
        emit(
            EventId::WireReconnect,
            Phase::End,
            [peer as u64, u64::from(self.cfg.reconnect_attempts) + 1, 0, 0],
        );
        self.declare_dead(peer);
        self.peers[peer].reconnecting.store(false, Ordering::Release);
    }

    /// Encodes a type-erased payload straight into a frame buffer, or
    /// `None` if its type has no registered codec.
    fn encode(&self, value: &dyn Any) -> Option<(u32, FrameBuf)> {
        let mut frame = FrameBuf::new();
        let codec = self.registry.encode_any_into(value, frame.append_to())?;
        Some((codec, frame))
    }

    /// Sends one encoded frame to `dst`. A send while the link is down
    /// still succeeds: the frame enters the resend ring and session resume
    /// redelivers it (or the peer is declared dead and later operations
    /// fail with `PeerDead`). A payload no reader would accept fails with
    /// `PayloadTooLarge` before it is sequenced.
    fn send_encoded(
        &self,
        dst: usize,
        context: u32,
        tag: i32,
        codec: u32,
        frame: FrameBuf,
    ) -> Result<()> {
        let bytes = frame.payload().len();
        if bytes > MAX_PAYLOAD {
            return Err(RuntimeError::PayloadTooLarge { bytes, max: MAX_PAYLOAD });
        }
        let size = self.cur_size();
        if dst >= size {
            return Err(RuntimeError::InvalidRank { rank: dst, size });
        }
        if self.liveness.is_dead(dst) {
            return Err(RuntimeError::PeerDead { rank: dst });
        }
        if self.shutdown.load(Ordering::Acquire) {
            return Err(RuntimeError::Aborted);
        }
        let p = &self.peers[dst];
        let mut sender = p.sender.lock();
        self.stats.frames_sent.fetch_add(1, Ordering::Relaxed);
        if sender.send_data(context, tag, codec, frame).is_err() {
            // The write failed but the frame is ring-retained; the
            // reconnect/resume machinery owns redelivery from here.
            sender.detach();
            drop(sender);
            self.mark_disconnected(dst);
        }
        Ok(())
    }
}

/// A running wire-transport endpoint. See the module docs for the design.
pub struct WireNode {
    shared: Arc<NodeShared>,
    acceptor: Option<JoinHandle<()>>,
    monitor: Option<JoinHandle<()>>,
}

impl WireNode {
    /// Binds this rank's socket and starts the acceptor and monitor
    /// threads. The mesh is not connected until [`WireNode::connect`].
    pub fn start(cfg: WireConfig, registry: CodecRegistry) -> io::Result<WireNode> {
        Self::start_traced(cfg, registry, None)
    }

    /// [`WireNode::start`] with a trace recorder the node's internal
    /// threads install, so wire events show up in Chrome traces.
    pub fn start_traced(
        cfg: WireConfig,
        registry: CodecRegistry,
        trace: Option<TraceHandle>,
    ) -> io::Result<WireNode> {
        assert!(cfg.max_size >= cfg.size, "max_size must admit the initial membership");
        std::fs::create_dir_all(&cfg.dir)?;
        let path = cfg.sock_path(cfg.rank);
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        listener.set_nonblocking(true)?;
        let abort = Arc::new(AtomicBool::new(false));
        // Rank-indexed state is sized to the ceiling once; spare slots in
        // `size..max_size` sit parked until a join admits them.
        let liveness = Arc::new(Liveness::new(cfg.max_size));
        let revocations = Arc::new(Revocations::default());
        let session = splitmix64((u64::from(std::process::id()) << 20) ^ cfg.rank as u64 | 1);
        let peers = (0..cfg.max_size)
            .map(|peer| Peer::new(cfg.rank as u32, peer as u32, cfg.faults))
            .collect();
        let shared = Arc::new(NodeShared {
            mailbox: Mailbox::new(abort.clone(), liveness.clone(), revocations),
            session,
            liveness,
            registry,
            peers,
            cur_size: AtomicUsize::new(cfg.size),
            abort,
            shutdown: AtomicBool::new(false),
            stats: StatsInner::default(),
            trace,
            cfg,
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new().name(format!("wire-accept-{}", shared.cfg.rank)).spawn(
                move || {
                    let _trace = shared.install_trace();
                    let s = Arc::clone(&shared);
                    s.acceptor_loop(listener)
                },
            )?
        };
        let monitor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new().name(format!("wire-monitor-{}", shared.cfg.rank)).spawn(
                move || {
                    let _trace = shared.install_trace();
                    shared.monitor_loop()
                },
            )?
        };
        Ok(WireNode { shared, acceptor: Some(acceptor), monitor: Some(monitor) })
    }

    /// Completes the mesh: dials every lower rank (retrying while peers
    /// are still binding) and waits until every higher rank has dialed us.
    pub fn connect(&self) -> io::Result<()> {
        let cfg = &self.shared.cfg;
        let deadline = Instant::now() + cfg.connect_timeout;
        for peer in 0..cfg.rank {
            loop {
                match UnixStream::connect(cfg.sock_path(peer)) {
                    Ok(stream) => {
                        self.shared.attach(peer, stream, FrameReader::new(), false, 0)?;
                        break;
                    }
                    Err(e) => {
                        if Instant::now() >= deadline {
                            return Err(io::Error::new(
                                io::ErrorKind::TimedOut,
                                format!("rank {peer} never bound its socket: {e}"),
                            ));
                        }
                        std::thread::sleep(Duration::from_millis(5));
                    }
                }
            }
        }
        // Higher ranks dial us; wait for all of them.
        for peer in cfg.rank + 1..cfg.size {
            loop {
                if self.shared.peers[peer].ever_connected.load(Ordering::Acquire) {
                    break;
                }
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("rank {peer} never dialed us"),
                    ));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        Ok(())
    }

    /// This node's global rank.
    pub fn rank(&self) -> usize {
        self.shared.cfg.rank
    }

    /// Current mesh size (grows when a spare-process join commits).
    pub fn size(&self) -> usize {
        self.shared.cur_size()
    }

    /// The preallocated membership ceiling ([`WireConfig::max_size`]).
    pub fn max_size(&self) -> usize {
        self.shared.cfg.max_size
    }

    /// The shared liveness registry — the same type, with the same
    /// semantics, the in-proc world uses.
    pub fn liveness(&self) -> &Arc<Liveness> {
        &self.shared.liveness
    }

    /// Whether `rank` has been declared dead.
    pub fn is_dead(&self, rank: usize) -> bool {
        self.shared.liveness.is_dead(rank)
    }

    /// Blocks until `rank` is declared dead or `timeout` passes; returns
    /// whether it died in time.
    pub fn await_death(&self, rank: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while !self.is_dead(rank) {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        true
    }

    /// Whether `rank` is currently quarantined (provisionally dead: frames
    /// dropped, operations fail fast, but readmission is still possible).
    pub fn is_quarantined(&self, rank: usize) -> bool {
        self.shared.peers[rank].quarantined.load(Ordering::Acquire)
    }

    /// Whether the quarantine verdict on `rank` became final.
    pub fn is_evicted(&self, rank: usize) -> bool {
        self.shared.peers[rank].evicted.load(Ordering::Acquire)
    }

    /// Blocks until `rank` enters quarantine (or is evicted outright) or
    /// `timeout` passes; returns whether it happened in time.
    pub fn await_quarantine(&self, rank: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while !self.is_quarantined(rank) && !self.is_evicted(rank) {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        true
    }

    /// Blocks until `rank` is back in good standing — neither quarantined
    /// nor dead — or `timeout` passes; returns whether it was re-admitted.
    pub fn await_readmit(&self, rank: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.is_quarantined(rank) || self.is_dead(rank) {
            if self.is_evicted(rank) || Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        true
    }

    /// Arms or disarms frame-layer fault injection on every link (the
    /// wire analogue of `Process::set_faults_armed`).
    pub fn set_faults_armed(&self, armed: bool) {
        for peer in 0..self.shared.cur_size() {
            if peer != self.shared.cfg.rank {
                self.shared.peers[peer].sender.lock().set_armed(armed);
            }
        }
    }

    /// Sends `value` to `dst`'s mailbox bucket `(context, tag)`. The type
    /// must be registered in both processes' codec registries.
    pub fn send<T: Any + Send>(&self, dst: usize, context: u32, tag: i32, value: T) -> Result<()> {
        let (codec, frame) = self.shared.encode(&value).ok_or(RuntimeError::TypeMismatch {
            expected: std::any::type_name::<T>(),
            src: self.shared.cfg.rank,
            tag,
        })?;
        self.shared.send_encoded(dst, context, tag, codec, frame)
    }

    /// Receives a `T` from `src` on `(context, tag)`, blocking until it
    /// arrives, `src` is declared dead, or a damaged frame for this bucket
    /// surfaces as [`RuntimeError::Corrupt`].
    pub fn recv<T: Any>(&self, src: usize, context: u32, tag: i32) -> Result<T> {
        let env = self.shared.mailbox.take(
            context,
            Src::Rank(src),
            Tag::Value(tag),
            &[PeerRef { global: src, local: src }],
        )?;
        Self::unpack(env, src, tag)
    }

    /// [`WireNode::recv`] with a deadline.
    pub fn recv_timeout<T: Any>(
        &self,
        src: usize,
        context: u32,
        tag: i32,
        timeout: Duration,
    ) -> Result<T> {
        let env = self.shared.mailbox.take_timeout(
            context,
            Src::Rank(src),
            Tag::Value(tag),
            timeout,
            &[PeerRef { global: src, local: src }],
        )?;
        Self::unpack(env, src, tag)
    }

    fn unpack<T: Any>(env: Envelope, src: usize, tag: i32) -> Result<T> {
        if !env.verify() {
            return Err(RuntimeError::Corrupt { src, tag });
        }
        env.payload.into_owned::<T>().map(|(v, _)| v).map_err(|_| RuntimeError::TypeMismatch {
            expected: std::any::type_name::<T>(),
            src,
            tag,
        })
    }

    /// Agrees with the surviving peers on who is alive: two rounds of
    /// dead-set exchange on the reserved control context (round two
    /// spreads unions, so every survivor leaves with the same set — the
    /// wire analogue of the membership plane's agreement). Peers that stay
    /// silent past `timeout` are treated as dead.
    pub fn agree_survivors(&self, epoch: u32, timeout: Duration) -> Result<Vec<usize>> {
        let size = self.shared.cur_size();
        assert!(size <= 64, "bitmap agreement supports up to 64 ranks");
        let me = self.shared.cfg.rank;
        let mut view: u64 = 0;
        for r in self.shared.liveness.dead_ranks() {
            if r < size {
                view |= 1 << r;
            }
        }
        for round in 0..2i32 {
            let tag = (epoch as i32) * 2 + round;
            let audience: Vec<usize> =
                (0..size).filter(|&r| r != me && view & (1 << r) == 0).collect();
            for &r in &audience {
                match self.send(r, WIRE_CTRL_CONTEXT, tag, view) {
                    Ok(()) | Err(RuntimeError::PeerDead { .. }) => {}
                    Err(e) => return Err(e),
                }
            }
            for &r in &audience {
                match self.recv_timeout::<u64>(r, WIRE_CTRL_CONTEXT, tag, timeout) {
                    Ok(bits) => view |= bits,
                    Err(RuntimeError::PeerDead { .. }) | Err(RuntimeError::Timeout { .. }) => {
                        view |= 1 << r;
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        // Commit the verdict locally: every rank in the agreed dead set is
        // dead *and evicted* here, even if this node never independently
        // detected it — and a quarantined zombie that resumes after this
        // point must not resurrect (the agreement is the point of no
        // return, exactly like the membership plane's epoch commit).
        for r in 0..size {
            if r != me && view & (1 << r) != 0 {
                let p = &self.shared.peers[r];
                p.quarantined.store(false, Ordering::Release);
                p.evicted.store(true, Ordering::Release);
                self.shared.declare_dead(r);
            }
        }
        Ok((0..size).filter(|r| view & (1 << r) == 0).collect())
    }

    /// Sponsors one attempt to admit a spare process as rank
    /// `self.size()`, mirroring the membership plane's §4i join handshake
    /// at the wire plane: offer → unanimous vote → commit, any failure →
    /// rescind. On commit, `state` is replayed to the newcomer (the wire
    /// analogue of the RMA rebind: the blob carries whatever the
    /// application needs to resume — last committed step, bounds, data)
    /// and every incumbent's mesh has grown by one. On abort, everything
    /// rolls back and the old mesh stays fully usable.
    ///
    /// The sequence, from the sponsor's seat:
    /// 1. open the admission window (raise membership to `new_rank + 1`);
    /// 2. wait for the newcomer's `JoinReq` — it has already dialed the
    ///    whole mesh by the time it sends one;
    /// 3. serialize a [`JoinOffer`](mxn_runtime::JoinOffer) to every live
    ///    incumbent and collect their votes (an incumbent votes yes once
    ///    the newcomer is connected to it and has sent a frame since the
    ///    offer);
    /// 4. unanimity → commit + state replay; anything else →
    ///    [`RuntimeError::ReconfigAborted`] and a rescind on every node.
    pub fn expand_mesh(&self, attempt: u64, state: &[u8], timeout: Duration) -> Result<usize> {
        let me = self.shared.cfg.rank;
        let new_rank = self.shared.cur_size();
        emit(EventId::WireJoin, Phase::Begin, [new_rank as u64, attempt, 0, new_rank as u64]);
        self.shared.begin_admit(new_rank)?;
        let incumbents: Vec<usize> =
            (0..new_rank).filter(|&r| r != me && !self.is_dead(r)).collect();
        let abort = |offered: bool, err: RuntimeError| -> Result<usize> {
            // Tell the incumbents — but only if the offer went out and
            // they are actually waiting on a commit tag; a stray verdict
            // frame would linger and could satisfy a later same-numbered
            // attempt. Notify the newcomer if it is reachable, then roll
            // the window back.
            if offered {
                for &r in &incumbents {
                    let _ = self.send(r, WIRE_CTRL_CONTEXT, join_commit_tag(attempt), 0u64);
                }
            }
            let mut notice = vec![0u8];
            notice.extend_from_slice(&(attempt as u32).to_le_bytes());
            let _ = self.send(new_rank, WIRE_CTRL_CONTEXT, JOIN_STATE_TAG, notice);
            self.shared.rescind_admit(new_rank);
            self.shared.stats.joins_aborted.fetch_add(1, Ordering::Relaxed);
            emit(EventId::WireJoin, Phase::End, [new_rank as u64, attempt, 0, new_rank as u64]);
            Err(err)
        };
        // 2. The newcomer announces itself once its side of the mesh is up.
        match self.recv_timeout::<u64>(new_rank, WIRE_CTRL_CONTEXT, JOIN_REQ_TAG, timeout) {
            Ok(claimed) if claimed as usize == new_rank => {}
            Ok(_) | Err(_) => {
                return abort(
                    false,
                    RuntimeError::ReconfigAborted { context: WIRE_CTRL_CONTEXT, attempt },
                )
            }
        }
        // 3. Offer + votes.
        let new_group: Vec<usize> = (0..=new_rank).collect();
        let offer = mxn_runtime::JoinOffer {
            side: 0,
            local_rank: new_rank,
            context: WIRE_CTRL_CONTEXT,
            attempt,
            epoch: (new_rank + 1) as u64,
            local_group: new_group.clone(),
            remote_group: Vec::new(),
            old_local_group: (0..new_rank).collect(),
            old_remote_group: Vec::new(),
            participants: new_group,
        };
        let bytes = offer.to_wire_bytes();
        let offered = Instant::now();
        for &r in &incumbents {
            let _ = self.send(r, WIRE_CTRL_CONTEXT, JOIN_OFFER_TAG, bytes.clone());
        }
        let mut unanimous = true;
        for &r in &incumbents {
            match self.recv_timeout::<u64>(r, WIRE_CTRL_CONTEXT, join_vote_tag(attempt), timeout) {
                Ok(1) => {}
                Ok(_) | Err(_) => unanimous = false,
            }
        }
        // Our own vote: the newcomer must still be wired to us and alive.
        if self.is_dead(new_rank)
            || !self.shared.heard_since(new_rank, offered, Instant::now() + timeout)
        {
            unanimous = false;
        }
        if !unanimous {
            return abort(
                true,
                RuntimeError::ReconfigAborted { context: WIRE_CTRL_CONTEXT, attempt },
            );
        }
        // 4. Commit everywhere, then hand the newcomer its state.
        for &r in &incumbents {
            let _ = self.send(r, WIRE_CTRL_CONTEXT, join_commit_tag(attempt), 1u64);
        }
        let mut msg = Vec::with_capacity(5 + state.len());
        msg.push(1u8);
        msg.extend_from_slice(&(attempt as u32).to_le_bytes());
        msg.extend_from_slice(state);
        self.send(new_rank, WIRE_CTRL_CONTEXT, JOIN_STATE_TAG, msg)?;
        self.shared.stats.joins_committed.fetch_add(1, Ordering::Relaxed);
        emit(EventId::WireJoin, Phase::End, [new_rank as u64, attempt, 1, (new_rank + 1) as u64]);
        Ok(new_rank + 1)
    }

    /// Incumbent's side of one join attempt: receives the sponsor's offer,
    /// opens the admission window, waits for the newcomer's connection to
    /// arrive, votes, and applies the sponsor's verdict — growing the mesh
    /// on commit, rescinding on abort. Returns the admitted rank.
    pub fn join_vote(&self, sponsor: usize, timeout: Duration) -> Result<usize> {
        let bytes: Vec<u8> =
            self.recv_timeout(sponsor, WIRE_CTRL_CONTEXT, JOIN_OFFER_TAG, timeout)?;
        let offer = mxn_runtime::JoinOffer::from_wire_bytes(&bytes)
            .ok_or(RuntimeError::Corrupt { src: sponsor, tag: JOIN_OFFER_TAG })?;
        let attempt = offer.attempt;
        let new_rank = offer.local_rank;
        let admitted = self.shared.begin_admit(new_rank).is_ok();
        // The newcomer dials the whole mesh before announcing itself to
        // the sponsor, so its connection is usually already here; a
        // newcomer killed mid-join never speaks again.
        let offered = Instant::now();
        let wired = admitted && self.shared.heard_since(new_rank, offered, offered + timeout);
        let _ = self.send(sponsor, WIRE_CTRL_CONTEXT, join_vote_tag(attempt), u64::from(wired));
        let verdict =
            self.recv_timeout::<u64>(sponsor, WIRE_CTRL_CONTEXT, join_commit_tag(attempt), timeout);
        match verdict {
            Ok(1) => {
                self.shared.stats.joins_committed.fetch_add(1, Ordering::Relaxed);
                emit_instant(EventId::WireJoin, [new_rank as u64, attempt, 1, self.size() as u64]);
                Ok(new_rank)
            }
            _ => {
                if admitted {
                    self.shared.rescind_admit(new_rank);
                }
                self.shared.stats.joins_aborted.fetch_add(1, Ordering::Relaxed);
                emit_instant(EventId::WireJoin, [new_rank as u64, attempt, 0, self.size() as u64]);
                Err(RuntimeError::ReconfigAborted { context: WIRE_CTRL_CONTEXT, attempt })
            }
        }
    }

    /// Newcomer's side: announces itself to the sponsor (call after
    /// [`WireNode::connect`] wired the mesh) and blocks for the verdict.
    /// On commit, returns the state blob the sponsor replayed — the
    /// newcomer resumes exactly where the membership left off. On abort,
    /// [`RuntimeError::ReconfigAborted`].
    pub fn join_mesh(&self, sponsor: usize, timeout: Duration) -> Result<Vec<u8>> {
        self.send(sponsor, WIRE_CTRL_CONTEXT, JOIN_REQ_TAG, self.rank() as u64)?;
        let msg: Vec<u8> =
            self.recv_timeout(sponsor, WIRE_CTRL_CONTEXT, JOIN_STATE_TAG, timeout)?;
        match msg.split_first() {
            Some((1, rest)) if rest.len() >= 4 => Ok(rest[4..].to_vec()),
            Some((_, rest)) => {
                let attempt =
                    rest.get(..4).map_or(0, |b| u32::from_le_bytes(b.try_into().expect("4 bytes")));
                Err(RuntimeError::ReconfigAborted {
                    context: WIRE_CTRL_CONTEXT,
                    attempt: u64::from(attempt),
                })
            }
            None => Err(RuntimeError::Corrupt { src: sponsor, tag: JOIN_STATE_TAG }),
        }
    }

    /// Snapshot of the wire counters.
    pub fn stats(&self) -> WireStats {
        let s = &self.shared.stats;
        WireStats {
            frames_sent: s.frames_sent.load(Ordering::Relaxed),
            frames_received: s.frames_received.load(Ordering::Relaxed),
            corrupt_frames: s.corrupt_frames.load(Ordering::Relaxed),
            duplicates_dropped: s.duplicates_dropped.load(Ordering::Relaxed),
            reconnect_dials: s.reconnect_dials.load(Ordering::Relaxed),
            heartbeat_misses: s.heartbeat_misses.load(Ordering::Relaxed),
            fences_sent: s.fences_sent.load(Ordering::Relaxed),
            zombies_quarantined: s.zombies_quarantined.load(Ordering::Relaxed),
            zombies_readmitted: s.zombies_readmitted.load(Ordering::Relaxed),
            zombies_evicted: s.zombies_evicted.load(Ordering::Relaxed),
            joins_committed: s.joins_committed.load(Ordering::Relaxed),
            joins_aborted: s.joins_aborted.load(Ordering::Relaxed),
        }
    }

    /// A [`Transport`] handle over this node, for code written against
    /// the runtime's transport seam.
    pub fn transport(&self) -> UdsTransport {
        UdsTransport { shared: Arc::clone(&self.shared) }
    }

    /// Orderly shutdown: says goodbye to every live peer, stops the
    /// service threads, closes every link, and removes the socket file.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        for peer in 0..self.shared.cur_size() {
            if peer == self.shared.cfg.rank || self.shared.liveness.is_dead(peer) {
                continue;
            }
            let mut sender = self.shared.peers[peer].sender.lock();
            let _ = sender.send_control(FrameKind::Bye);
            sender.shutdown();
        }
        self.shared.abort.store(true, Ordering::Release);
        self.shared.mailbox.wake_all();
        if let Some(h) = self.monitor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        let _ = std::fs::remove_file(self.shared.cfg.sock_path(self.shared.cfg.rank));
    }
}

impl Drop for WireNode {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// The Unix-domain-socket [`Transport`]: envelopes crossing this seam are
/// codec-encoded into frames. [`Payload::Shared`] — the `Arc`-based
/// zero-clone multicast representation — is rejected: sharing one
/// allocation only means something inside one address space, and a silent
/// deep copy here would falsify the in-proc zero-clone accounting.
pub struct UdsTransport {
    shared: Arc<NodeShared>,
}

impl Transport for UdsTransport {
    fn kind(&self) -> &'static str {
        "uds"
    }

    fn size(&self) -> usize {
        self.shared.cur_size()
    }

    fn capacity(&self) -> usize {
        self.shared.cfg.max_size
    }

    fn deliver(&self, dst: usize, env: Envelope) -> Result<()> {
        match env.payload {
            Payload::Shared { .. } => Err(RuntimeError::TypeMismatch {
                expected: "wire-encodable payload (Payload::Shared is in-proc-only)",
                src: env.src_global,
                tag: env.tag,
            }),
            Payload::Owned(boxed) => {
                let (codec, frame) =
                    self.shared.encode(boxed.as_ref()).ok_or(RuntimeError::TypeMismatch {
                        expected: "a type registered in the CodecRegistry",
                        src: env.src_global,
                        tag: env.tag,
                    })?;
                self.shared.send_encoded(dst, env.context, env.tag, codec, frame)
            }
        }
    }

    fn deliver_pair(&self, dst: usize, first: Envelope, second: Envelope) -> Result<()> {
        self.deliver(dst, first)?;
        self.deliver(dst, second)
    }

    fn wake_all(&self) {
        self.shared.mailbox.wake_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mxn-wire-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn mesh(dir: &Path, n: usize) -> Vec<WireNode> {
        let nodes: Vec<WireNode> = (0..n)
            .map(|r| {
                WireNode::start(WireConfig::new(dir, r, n), CodecRegistry::with_defaults()).unwrap()
            })
            .collect();
        // Connect concurrently: dialing blocks until the peer binds, and
        // every node both dials and is dialed.
        std::thread::scope(|s| {
            for node in &nodes {
                s.spawn(move || node.connect().unwrap());
            }
        });
        nodes
    }

    #[test]
    fn two_nodes_exchange_typed_messages() {
        let dir = test_dir("pair");
        let nodes = mesh(&dir, 2);
        nodes[0].send(1, 7, 3, vec![1.5f64, 2.5]).unwrap();
        nodes[1].send(0, 7, 4, String::from("pong")).unwrap();
        let v: Vec<f64> = nodes[1].recv_timeout(0, 7, 3, Duration::from_secs(5)).unwrap();
        assert_eq!(v, vec![1.5, 2.5]);
        let s: String = nodes[0].recv_timeout(1, 7, 4, Duration::from_secs(5)).unwrap();
        assert_eq!(s, "pong");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fifo_order_per_link() {
        let dir = test_dir("fifo");
        let nodes = mesh(&dir, 2);
        for i in 0..100u64 {
            nodes[0].send(1, 1, 1, i).unwrap();
        }
        for i in 0..100u64 {
            let got: u64 = nodes[1].recv_timeout(0, 1, 1, Duration::from_secs(5)).unwrap();
            assert_eq!(got, i);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unregistered_type_is_a_type_error_not_a_hang() {
        struct Opaque;
        let dir = test_dir("unreg");
        let nodes = mesh(&dir, 2);
        let err = nodes[0].send(1, 1, 1, Opaque).unwrap_err();
        assert!(matches!(err, RuntimeError::TypeMismatch { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversize_send_is_refused_not_resent_forever() {
        let dir = test_dir("oversize");
        let nodes = mesh(&dir, 2);
        let err = nodes[0].send(1, 1, 1, vec![0u8; MAX_PAYLOAD + 16]).unwrap_err();
        // A `Vec<u8>` encodes as a 4-byte count and its bytes.
        assert_eq!(
            err,
            RuntimeError::PayloadTooLarge { bytes: MAX_PAYLOAD + 20, max: MAX_PAYLOAD }
        );
        nodes[0].send(1, 1, 2, 7u64).unwrap();
        let got: u64 = nodes[1].recv_timeout(0, 1, 2, Duration::from_secs(5)).unwrap();
        assert_eq!(got, 7, "the link carries on past the refused send");
        let stats = nodes[1].stats();
        assert_eq!((stats.frames_received, stats.corrupt_frames), (1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_payloads_are_rejected_by_the_uds_transport() {
        let dir = test_dir("shared");
        let nodes = mesh(&dir, 2);
        let t = nodes[0].transport();
        let env = Envelope::new(0, 0, 1, 1, 8, None, Payload::shared(Arc::new(5u64)));
        assert!(matches!(t.deliver(1, env), Err(RuntimeError::TypeMismatch { .. })));
        // Owned payloads of registered types go through the same seam.
        let env = Envelope::new(0, 0, 1, 2, 8, None, Payload::owned(9u64));
        t.deliver(1, env).unwrap();
        let got: u64 = nodes[1].recv_timeout(0, 1, 2, Duration::from_secs(5)).unwrap();
        assert_eq!(got, 9);
        assert_eq!(t.kind(), "uds");
        assert_eq!(t.size(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // (s, d) pair indexing reads clearer
    fn three_node_mesh_all_pairs() {
        let dir = test_dir("mesh3");
        let nodes = mesh(&dir, 3);
        for s in 0..3 {
            for d in 0..3 {
                if s != d {
                    nodes[s].send(d, 2, (s * 3 + d) as i32, (s as u64, d as u64)).unwrap();
                }
            }
        }
        for s in 0..3 {
            for d in 0..3 {
                if s != d {
                    let got: (u64, u64) = nodes[d]
                        .recv_timeout(s, 2, (s * 3 + d) as i32, Duration::from_secs(5))
                        .unwrap();
                    assert_eq!(got, (s as u64, d as u64));
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn orderly_shutdown_marks_peer_dead_not_hung() {
        let dir = test_dir("bye");
        let mut nodes = mesh(&dir, 2);
        let n1 = nodes.pop().unwrap();
        n1.shutdown();
        assert!(nodes[0].await_death(1, Duration::from_secs(5)), "Bye marks the peer dead");
        let err = nodes[0].recv::<u64>(1, 1, 1).unwrap_err();
        assert!(matches!(err, RuntimeError::PeerDead { rank: 1 }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn abrupt_death_is_detected_and_survivors_agree() {
        let dir = test_dir("crash");
        let mut nodes = mesh(&dir, 3);
        // Simulate a crash of rank 2: close its sockets without Bye.
        let crashed = nodes.pop().unwrap();
        {
            // Mark shutdown without the goodbye protocol: readers on the
            // peers see raw EOF, exactly like a kill -9.
            crashed.shared.shutdown.store(true, Ordering::Release);
            for peer in 0..2 {
                crashed.shared.peers[peer].sender.lock().shutdown();
            }
        }
        for node in &nodes {
            assert!(
                node.await_death(2, Duration::from_secs(10)),
                "rank {} never declared 2 dead",
                node.rank()
            );
        }
        let survivors = std::thread::scope(|s| {
            let handles: Vec<_> = nodes
                .iter()
                .map(|n| s.spawn(move || n.agree_survivors(1, Duration::from_secs(5)).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
        });
        assert_eq!(survivors[0], vec![0, 1]);
        assert_eq!(survivors[1], vec![0, 1]);
        drop(crashed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn mesh_max(dir: &Path, n: usize, max: usize) -> Vec<WireNode> {
        let nodes: Vec<WireNode> = (0..n)
            .map(|r| {
                let mut cfg = WireConfig::new(dir, r, n);
                cfg.max_size = max;
                WireNode::start(cfg, CodecRegistry::with_defaults()).unwrap()
            })
            .collect();
        std::thread::scope(|s| {
            for node in &nodes {
                s.spawn(move || node.connect().unwrap());
            }
        });
        nodes
    }

    #[test]
    fn zombie_peer_is_quarantined_then_evicted() {
        let dir = test_dir("zombie");
        std::fs::create_dir_all(&dir).unwrap();
        // Rank 0 plays the SIGSTOP'd zombie: its listener's kernel backlog
        // accepts every dial, but the "application" never reads a byte and
        // never speaks. Heartbeat-miss → reconnect loops forever; only the
        // frozen watermark tells the truth.
        let _zombie = UnixListener::bind(dir.join("rank_0.sock")).unwrap();
        let mut cfg = WireConfig::new(&dir, 1, 2);
        cfg.quarantine_grace = Duration::from_millis(400);
        let node = WireNode::start(cfg, CodecRegistry::with_defaults()).unwrap();
        node.connect().unwrap();
        // Outstanding data: the stall detector needs something undelivered.
        node.send(0, 1, 1, 7u64).unwrap();
        assert!(node.await_quarantine(0, Duration::from_secs(10)), "watermark stall missed");
        assert!(node.is_dead(0), "quarantine poisons liveness immediately");
        let deadline = Instant::now() + Duration::from_secs(10);
        while !node.is_evicted(0) {
            assert!(Instant::now() < deadline, "grace expiry never evicted");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(!node.is_quarantined(0), "eviction supersedes quarantine");
        let stats = node.stats();
        assert!(stats.fences_sent >= 1);
        assert_eq!(stats.zombies_quarantined, 1);
        assert_eq!(stats.zombies_evicted, 1);
        assert_eq!(stats.zombies_readmitted, 0);
        assert!(matches!(node.send(0, 1, 1, 8u64), Err(RuntimeError::PeerDead { rank: 0 })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spare_node_joins_and_the_mesh_grows() {
        let dir = test_dir("join");
        let nodes = mesh_max(&dir, 3, 4);
        let mut cfg = WireConfig::new(&dir, 3, 4);
        cfg.max_size = 4;
        let spare = WireNode::start(cfg, CodecRegistry::with_defaults()).unwrap();
        let t = Duration::from_secs(10);
        std::thread::scope(|s| {
            let sponsor = s.spawn(|| nodes[0].expand_mesh(0, b"step=42", t).unwrap());
            let v1 = s.spawn(|| nodes[1].join_vote(0, t).unwrap());
            let v2 = s.spawn(|| nodes[2].join_vote(0, t).unwrap());
            let newcomer = s.spawn(|| {
                spare.connect().unwrap();
                spare.join_mesh(0, t).unwrap()
            });
            assert_eq!(sponsor.join().unwrap(), 4);
            assert_eq!(v1.join().unwrap(), 3);
            assert_eq!(v2.join().unwrap(), 3);
            assert_eq!(newcomer.join().unwrap(), b"step=42".to_vec());
        });
        for node in &nodes {
            assert_eq!(node.size(), 4, "rank {} never grew", node.rank());
        }
        // The admitted rank is a first-class member: traffic both ways.
        nodes[1].send(3, 2, 9, 123u64).unwrap();
        let got: u64 = spare.recv_timeout(1, 2, 9, t).unwrap();
        assert_eq!(got, 123);
        spare.send(2, 2, 10, 321u64).unwrap();
        let got: u64 = nodes[2].recv_timeout(3, 2, 10, t).unwrap();
        assert_eq!(got, 321);
        assert_eq!(nodes[0].stats().joins_committed, 1);
        let transport = nodes[0].transport();
        assert_eq!(transport.size(), 4);
        assert_eq!(transport.capacity(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn expand_without_a_newcomer_aborts_and_rolls_back() {
        let dir = test_dir("join-abort");
        let nodes = mesh_max(&dir, 2, 3);
        let err = nodes[0].expand_mesh(5, b"", Duration::from_millis(300)).unwrap_err();
        assert!(
            matches!(err, RuntimeError::ReconfigAborted { context: WIRE_CTRL_CONTEXT, attempt: 5 }),
            "got {err:?}"
        );
        assert_eq!(nodes[0].size(), 2, "membership rolled back");
        assert_eq!(nodes[0].stats().joins_aborted, 1);
        // The old mesh is untouched by the aborted attempt.
        nodes[0].send(1, 1, 1, 11u64).unwrap();
        let got: u64 = nodes[1].recv_timeout(0, 1, 1, Duration::from_secs(5)).unwrap();
        assert_eq!(got, 11);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn messages_sent_while_disconnected_resume_after_reconnect() {
        let dir = test_dir("resume");
        let nodes = mesh(&dir, 2);
        // Tear down the link from under node 1 (the dialer side).
        nodes[1].shared.peers[0].sender.lock().shutdown();
        nodes[1].shared.peers[0].sender.lock().detach();
        nodes[1].shared.mark_disconnected(0);
        // Send while down: frames land in the ring.
        for i in 0..5u64 {
            nodes[1].send(0, 3, 3, i * 10).unwrap();
        }
        // The monitor redials, Hello resumes, and the ring drains.
        for i in 0..5u64 {
            let got: u64 = nodes[0].recv_timeout(1, 3, 3, Duration::from_secs(10)).unwrap();
            assert_eq!(got, i * 10);
        }
        assert!(nodes[0].stats().frames_received >= 5);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
