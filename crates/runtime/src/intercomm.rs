//! Inter-communicators: point-to-point messaging between two disjoint
//! groups ("parallel programs"), the substrate for inter-framework M×N
//! transfers (Figure 3 of the paper).

use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

use crate::comm::Comm;
use crate::envelope::{Envelope, MessageInfo, Payload, Src, Tag};
use crate::error::{Result, RuntimeError};
use crate::mailbox::PeerRef;
use crate::membership::{agree_over, JoinOffer, ReconfigReport, ShrinkReport, JOIN_TAG};
use crate::msgsize::MsgSize;
use crate::shared::WorldShared;
use crate::stats::{MailboxGauge, TrafficClass};
use crate::tracing::{ctx_class, record_op_error, tag_arg};
use mxn_trace::{emit_instant, EventId};

/// A one-sided handle to an inter-communicator.
///
/// Each side addresses the *other* side's ranks by their remote-local rank
/// (0-based within the remote group), exactly like `MPI_Comm_remote_size` /
/// inter-communicator point-to-point in MPI.
pub struct InterComm {
    shared: Arc<WorldShared>,
    /// My rank within my own (local) group.
    local_rank: usize,
    /// Size of my own group.
    local_size: usize,
    /// My global world rank.
    my_global: usize,
    /// Global ranks of my own (local) group, index = local rank.
    local_group: Arc<Vec<usize>>,
    /// Global ranks of the remote group, index = remote-local rank.
    remote_group: Arc<Vec<usize>>,
    /// Shared context for inter-group traffic.
    context: u32,
    /// Which side of the intercomm this handle is (0 or 1, as passed to
    /// [`InterComm::create`]); gives the two programs a symmetric identity.
    side: usize,
    /// Per-handle recovery sequence number (agreements and shrinks over an
    /// intercomm are ordered, like collectives).
    recovery_seq: Cell<u64>,
}

impl std::fmt::Debug for InterComm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InterComm")
            .field("side", &self.side)
            .field("local_rank", &self.local_rank)
            .field("local_group", &self.local_group)
            .field("remote_group", &self.remote_group)
            .field("context", &self.context)
            .finish()
    }
}

impl InterComm {
    /// Builds both-side handles collectively over `pair`, a communicator
    /// containing exactly the union of the two groups. `side` is 0 or 1 and
    /// must be consistent per group. Returns `(local_comm, intercomm)`.
    pub fn create(pair: &Comm, side: usize) -> Result<(Comm, InterComm)> {
        assert!(side < 2, "side must be 0 or 1");
        let sides: Vec<usize> = pair.allgather(side)?;
        let local = pair.split(side as i64, 0)?.expect("side is a valid non-negative color");

        // Remote group in pair-rank order (split preserves parent order for
        // equal keys, so remote-local rank k is the k-th remote pair rank).
        let remote_group: Vec<usize> =
            (0..pair.size()).filter(|&r| sides[r] != side).map(|r| pair.group()[r]).collect();
        if remote_group.is_empty() {
            return Err(RuntimeError::CollectiveMismatch {
                detail: "intercomm requires both sides non-empty".into(),
            });
        }

        let ctx = if pair.rank() == 0 {
            let ctx = pair.shared().allocate_context_pair();
            pair.bcast(0, Some(ctx))?
        } else {
            pair.bcast::<u32>(0, None)?
        };

        let ic = InterComm {
            shared: pair.shared().clone(),
            local_rank: local.rank(),
            local_size: local.size(),
            my_global: pair.global_rank(),
            local_group: Arc::new(local.group().to_vec()),
            remote_group: Arc::new(remote_group),
            context: ctx,
            side,
            recovery_seq: Cell::new(0),
        };
        Ok((local, ic))
    }

    /// This handle's side index (0 or 1) — consistent across the ranks of
    /// one program and opposite on the peer program.
    pub fn side(&self) -> usize {
        self.side
    }

    /// My rank within my own group.
    pub fn local_rank(&self) -> usize {
        self.local_rank
    }

    /// Size of my own group.
    pub fn local_size(&self) -> usize {
        self.local_size
    }

    /// Size of the remote group.
    pub fn remote_size(&self) -> usize {
        self.remote_group.len()
    }

    /// The world ranks of my own group, in local-rank order. Elastic
    /// reconfiguration (connection-level expand/contract) uses these as
    /// the member lists of the redistribution window.
    pub fn local_group(&self) -> &[usize] {
        &self.local_group
    }

    /// The world ranks of the remote group, in remote-rank order.
    pub fn remote_group(&self) -> &[usize] {
        &self.remote_group
    }

    /// `(live, peak)` payload bytes of this rank's own mailbox — what the
    /// eager transport has queued for this rank right now and the most it
    /// ever held. Spans all communicators (the mailbox is per *rank*).
    pub fn mailbox_bytes(&self) -> (u64, u64) {
        let mb = self.shared.mailbox(self.local_group[self.local_rank]);
        (mb.live_bytes(), mb.peak_bytes())
    }

    /// Resets this rank's mailbox byte high-water mark to its current live
    /// level (between measurement phases).
    pub fn reset_mailbox_peak(&self) {
        self.shared.mailbox(self.local_group[self.local_rank]).reset_peak_bytes();
    }

    /// Takes one *measured* mailbox-depth sample for this rank: live bytes,
    /// the byte high-water mark since the previous sample, and the number
    /// of queued envelopes. The peak is reset as part of the read (so each
    /// sample covers exactly the interval since the last), and the gauge is
    /// published through [`crate::WorldStats::note_queue_gauge`] — this is
    /// the sampling point autoscaling policies are meant to feed on,
    /// replacing caller-invented synthetic load numbers.
    pub fn sample_mailbox_gauge(&self) -> MailboxGauge {
        let mb = self.shared.mailbox(self.local_group[self.local_rank]);
        let gauge = MailboxGauge {
            live_bytes: mb.live_bytes(),
            peak_bytes: mb.peak_bytes(),
            depth_msgs: mb.len() as u64,
        };
        mb.reset_peak_bytes();
        self.shared.stats().note_queue_gauge(&gauge);
        gauge
    }

    fn check_remote(&self, rank: usize) -> Result<()> {
        if rank < self.remote_group.len() {
            Ok(())
        } else {
            Err(RuntimeError::InvalidRank { rank, size: self.remote_group.len() })
        }
    }

    /// The remote peers that could satisfy a receive matching `src`.
    fn peers_of(&self, src: Src) -> Vec<PeerRef> {
        match src {
            Src::Rank(r) if r < self.remote_group.len() => {
                vec![PeerRef { global: self.remote_group[r], local: r }]
            }
            Src::Rank(_) => Vec::new(),
            Src::Any => self
                .remote_group
                .iter()
                .enumerate()
                .map(|(r, &g)| PeerRef { global: g, local: r })
                .collect(),
        }
    }

    /// Whether remote-local rank `r` has been marked dead.
    pub fn is_remote_dead(&self, r: usize) -> bool {
        r < self.remote_group.len() && self.shared.liveness().is_dead(self.remote_group[r])
    }

    /// The lowest-numbered dead rank on *either* side of the intercomm, as
    /// a world rank — or `None` while everyone is alive. Lets a collective
    /// transfer fail consistently on every surviving rank.
    pub fn any_dead(&self) -> Option<usize> {
        let liveness = self.shared.liveness();
        self.local_group
            .iter()
            .chain(self.remote_group.iter())
            .copied()
            .filter(|&g| liveness.is_dead(g))
            .min()
    }

    /// Sends to remote-local rank `dst`.
    ///
    /// Under a fault plane a send fails with [`RuntimeError::PeerDead`] only
    /// when the sending rank's own scheduled death triggers; a dead remote
    /// rank is detected on the receive side (see [`InterComm::recv_timeout`]
    /// and [`InterComm::is_remote_dead`]).
    pub fn send<T: Send + MsgSize + 'static>(&self, dst: usize, tag: i32, value: T) -> Result<()> {
        self.check_remote(dst)?;
        let bytes = value.msg_size();
        let dst_global = self.remote_group[dst];
        self.shared.send_envelope(
            self.my_global,
            self.local_rank,
            dst_global,
            dst,
            self.context,
            tag,
            bytes,
            Payload::owned(value),
            None,
            TrafficClass::PointToPoint,
        )
    }

    /// Sends one value to *many* remote-local ranks as a single shared
    /// payload: one allocation however many destinations, each receiver
    /// unwrapping copy-on-write (or borrowing it outright via
    /// [`InterComm::recv_shared`]). This is the transport under collective
    /// remote method invocation, where one caller's argument fans out to
    /// every rank of the remote program.
    pub fn multicast<T: Send + Sync + Clone + MsgSize + 'static>(
        &self,
        dsts: &[usize],
        tag: i32,
        value: T,
    ) -> Result<()> {
        for &d in dsts {
            self.check_remote(d)?;
        }
        match dsts {
            [] => Ok(()),
            [dst] => self.send(*dst, tag, value),
            _ => {
                let bytes = value.msg_size();
                self.shared.stats().record_payload_alloc();
                let payload = Payload::shared(Arc::new(value));
                let dst_globals: Vec<usize> = dsts.iter().map(|&d| self.remote_group[d]).collect();
                self.shared.multicast_envelope(
                    self.my_global,
                    self.local_rank,
                    &dst_globals,
                    self.context,
                    tag,
                    bytes,
                    &payload,
                    TrafficClass::PointToPoint,
                )
            }
        }
    }

    fn downcast<T: 'static>(&self, env: Envelope) -> Result<(T, MessageInfo)> {
        let info = MessageInfo { src: env.src_local, tag: env.tag, bytes: env.bytes };
        if !env.verify() {
            let err = RuntimeError::Corrupt { src: info.src, tag: info.tag };
            record_op_error(self.shared.stats(), &err);
            return Err(err);
        }
        match env.payload.into_owned::<T>() {
            Ok((v, cloned)) => {
                if cloned {
                    self.shared.stats().record_payload_clone();
                }
                Ok((v, info))
            }
            Err(_) => {
                let err = RuntimeError::TypeMismatch {
                    expected: std::any::type_name::<T>(),
                    src: info.src,
                    tag: info.tag,
                };
                record_op_error(self.shared.stats(), &err);
                Err(err)
            }
        }
    }

    /// The intercomm's receive choke point, mirroring `Comm::recv_envelope`:
    /// `MailboxMatch` on a match, uniform error accounting on failure.
    fn recv_envelope(&self, src: Src, tag: Tag, timeout: Option<Duration>) -> Result<Envelope> {
        let res = self.shared.note_op(self.my_global, self.local_rank).and_then(|()| {
            let mailbox = self.shared.mailbox(self.my_global);
            match timeout {
                None => mailbox.take(self.context, src, tag, &self.peers_of(src)),
                Some(t) => mailbox.take_timeout(self.context, src, tag, t, &self.peers_of(src)),
            }
        });
        match &res {
            Ok(env) => emit_instant(
                EventId::MailboxMatch,
                [ctx_class(self.context), tag_arg(env.tag), env.src_local as u64, env.bytes as u64],
            ),
            Err(e) => record_op_error(self.shared.stats(), e),
        }
        res
    }

    /// Receives a multicast payload as a shared handle — zero-copy: the
    /// returned `Arc` aliases the sender's single allocation.
    pub fn recv_shared<T: Send + Sync + 'static>(
        &self,
        src: impl Into<Src>,
        tag: impl Into<Tag>,
    ) -> Result<Arc<T>> {
        let src = src.into();
        let env = self.recv_envelope(src, tag.into(), None)?;
        let info = MessageInfo { src: env.src_local, tag: env.tag, bytes: env.bytes };
        if !env.verify() {
            let err = RuntimeError::Corrupt { src: info.src, tag: info.tag };
            record_op_error(self.shared.stats(), &err);
            return Err(err);
        }
        env.payload.into_shared::<T>().map(|(v, _)| v).map_err(|_| {
            let err = RuntimeError::TypeMismatch {
                expected: std::any::type_name::<T>(),
                src: info.src,
                tag: info.tag,
            };
            record_op_error(self.shared.stats(), &err);
            err
        })
    }

    /// Receives from the remote group; `src` is a remote-local rank pattern.
    ///
    /// Fails with [`RuntimeError::PeerDead`] instead of hanging when every
    /// remote rank that could satisfy the receive has died.
    pub fn recv<T: 'static>(&self, src: impl Into<Src>, tag: impl Into<Tag>) -> Result<T> {
        self.recv_with_info(src, tag).map(|(v, _)| v)
    }

    /// Receive with sender metadata (for `Src::Any`).
    pub fn recv_with_info<T: 'static>(
        &self,
        src: impl Into<Src>,
        tag: impl Into<Tag>,
    ) -> Result<(T, MessageInfo)> {
        let src = src.into();
        let env = self.recv_envelope(src, tag.into(), None)?;
        self.downcast(env)
    }

    /// Receive with a deadline (deadlock detection across programs).
    pub fn recv_timeout<T: 'static>(
        &self,
        src: impl Into<Src>,
        tag: impl Into<Tag>,
        timeout: Duration,
    ) -> Result<T> {
        self.recv_timeout_with_info(src, tag, timeout).map(|(v, _)| v)
    }

    /// Receive with a deadline and sender metadata (for `Src::Any`).
    pub fn recv_timeout_with_info<T: 'static>(
        &self,
        src: impl Into<Src>,
        tag: impl Into<Tag>,
        timeout: Duration,
    ) -> Result<(T, MessageInfo)> {
        let src = src.into();
        let env = self.recv_envelope(src, tag.into(), Some(timeout))?;
        self.downcast(env)
    }

    /// Non-blocking receive attempt.
    pub fn try_recv<T: 'static>(
        &self,
        src: impl Into<Src>,
        tag: impl Into<Tag>,
    ) -> Result<Option<(T, MessageInfo)>> {
        match self.shared.mailbox(self.my_global).try_take(self.context, src.into(), tag.into()) {
            Some(env) => self.downcast(env).map(Some),
            None => Ok(None),
        }
    }

    /// Checks for a queued remote message without consuming it.
    pub fn iprobe(&self, src: impl Into<Src>, tag: impl Into<Tag>) -> Option<MessageInfo> {
        self.shared.mailbox(self.my_global).iprobe(self.context, src.into(), tag.into())
    }

    /// Both groups' global ranks, sorted — the agreement membership, which
    /// every rank of either side computes identically.
    fn union_sorted(&self) -> Vec<usize> {
        let mut m: Vec<usize> =
            self.local_group.iter().chain(self.remote_group.iter()).copied().collect();
        m.sort_unstable();
        m
    }

    /// Poisons this intercomm's context: every pending and future operation
    /// on it fails with [`RuntimeError::Revoked`] on both sides. Idempotent;
    /// returns whether this call newly revoked it.
    pub fn revoke(&self) -> bool {
        self.shared.revoke_context(self.context)
    }

    /// Whether this intercomm's context has been revoked.
    pub fn is_revoked(&self) -> bool {
        self.shared.revocations().is_revoked(self.context)
    }

    /// Fault-tolerant agreement across *both* groups: returns the bitwise
    /// AND of every surviving participant's `value`. Must be called by all
    /// survivors of both sides, in the same recovery order.
    pub fn agree(&self, value: u64) -> Result<u64> {
        let members = self.union_sorted();
        let seq = self.recovery_seq.get();
        self.recovery_seq.set(seq + 1);
        agree_over(&self.shared, self.my_global, &members, self.context, seq, value)
    }

    /// Boolean all-or-nothing vote over both groups: `true` iff every
    /// surviving participant voted `true`. The decision is a pure function
    /// of the agreed value, so all survivors decide identically — the
    /// primitive under transactional transfer commit.
    pub fn agree_all(&self, ok: bool) -> Result<bool> {
        self.agree(if ok { u64::MAX } else { 0 }).map(|v| v == u64::MAX)
    }

    /// Shrinks the intercomm to its survivors: both sides agree on the
    /// alive set, dead ranks are dropped from both groups, and each side is
    /// densely renumbered in ascending old-rank order on a fresh context.
    /// Idempotent for a given failure pattern (the survivor context is
    /// keyed on the agreed mask), so repeated heals of the same failure
    /// converge. The report maps new ranks back to old ones so coupling
    /// layers can re-derive data decompositions.
    pub fn shrink_with_report(&self) -> Result<(InterComm, ShrinkReport)> {
        let members = self.union_sorted();
        RuntimeError::check_mask_width(members.len())?;
        let liveness = self.shared.liveness();
        let mut mask = 0u64;
        for (i, &g) in members.iter().enumerate() {
            if !liveness.is_dead(g) {
                mask |= 1 << i;
            }
        }
        let seq = self.recovery_seq.get();
        self.recovery_seq.set(seq + 1);
        let agreed = agree_over(&self.shared, self.my_global, &members, self.context, seq, mask)?;
        let alive = |g: usize| {
            let i = members.binary_search(&g).expect("member lists are identical");
            agreed & (1 << i) != 0
        };
        let local_survivors: Vec<usize> =
            (0..self.local_group.len()).filter(|&r| alive(self.local_group[r])).collect();
        let remote_survivors: Vec<usize> =
            (0..self.remote_group.len()).filter(|&r| alive(self.remote_group[r])).collect();
        if local_survivors.is_empty() || remote_survivors.is_empty() {
            return Err(RuntimeError::CollectiveMismatch {
                detail: "shrink would leave one side of the intercomm empty".into(),
            });
        }
        let my_new = local_survivors
            .iter()
            .position(|&r| r == self.local_rank)
            .ok_or(RuntimeError::PeerDead { rank: self.local_rank })?;
        let (ctx, epoch) = self.shared.survivor_context(self.context, agreed);
        emit_instant(
            EventId::Shrink,
            [
                members.len() as u64,
                (local_survivors.len() + remote_survivors.len()) as u64,
                ctx_class(ctx),
                0,
            ],
        );
        let ic = InterComm {
            shared: self.shared.clone(),
            local_rank: my_new,
            local_size: local_survivors.len(),
            my_global: self.my_global,
            local_group: Arc::new(local_survivors.iter().map(|&r| self.local_group[r]).collect()),
            remote_group: Arc::new(
                remote_survivors.iter().map(|&r| self.remote_group[r]).collect(),
            ),
            context: ctx,
            side: self.side,
            recovery_seq: Cell::new(0),
        };
        Ok((ic, ShrinkReport { local_survivors, remote_survivors, epoch }))
    }

    /// Full mask over `n` vote bits.
    fn full_mask(n: usize) -> u64 {
        if n >= 64 {
            u64::MAX
        } else {
            (1u64 << n) - 1
        }
    }

    /// Collectively rebuilds this intercomm over new memberships — the
    /// grow-direction twin of [`InterComm::shrink_with_report`], and also
    /// the *graceful* (data-preserving) contract.
    ///
    /// `new_local` / `new_remote` are the complete global-rank lists of the
    /// two sides after the reconfiguration, from the caller's perspective;
    /// every incumbent member (both sides, including members that are about
    /// to leave) must call this with consistent arguments. Ranks present in
    /// the new membership but not in the old one are *newcomers* and must
    /// concurrently be parked in [`InterComm::await_join`] on the same
    /// world.
    ///
    /// The handshake is transactional: the lowest incumbent global rank
    /// (the *sponsor*) invites each newcomer with a [`JoinOffer`] over the
    /// world context, then every participant — incumbents, newcomers and
    /// leavers alike — votes on the observed alive set with the
    /// fault-tolerant agreement, on the proposed context's channel so
    /// attempts never cross-match. Commit requires a unanimous, all-alive
    /// vote; anything less returns [`RuntimeError::ReconfigAborted`] on
    /// every survivor and leaves the old intercomm untouched (that error
    /// *is* the rollback — retry with a fresh participant set). On commit
    /// the sponsor revokes the old context so stale traffic cannot leak
    /// across epochs, and every participant emits an `Expand` trace event.
    ///
    /// Like the agreement itself, the whole handshake runs with the
    /// caller's message-fault plane disarmed: reconfiguration is control
    /// traffic on the reliable plane (deaths are still honored).
    ///
    /// Returns `(None, report)` for a leaver, `(Some(ic), report)` for a
    /// member of the new epoch; `ic.recovery_seq` restarts at 0 for all.
    pub fn reconfigure(
        &self,
        new_local: Vec<usize>,
        new_remote: Vec<usize>,
    ) -> Result<(Option<InterComm>, ReconfigReport)> {
        if new_local.is_empty() || new_remote.is_empty() {
            return Err(RuntimeError::CollectiveMismatch {
                detail: "reconfigure requires both sides non-empty".into(),
            });
        }
        let mut new_members: Vec<usize> =
            new_local.iter().chain(new_remote.iter()).copied().collect();
        new_members.sort_unstable();
        if new_members.windows(2).any(|w| w[0] == w[1]) {
            return Err(RuntimeError::CollectiveMismatch {
                detail: "new memberships must be disjoint and duplicate-free".into(),
            });
        }
        let old_members = self.union_sorted();
        let mut participants = old_members.clone();
        participants.extend(new_members.iter().copied());
        participants.sort_unstable();
        participants.dedup();
        RuntimeError::check_mask_width(participants.len())?;

        // In lockstep on every incumbent: reconfigure is collective.
        let attempt = self.recovery_seq.get();
        self.recovery_seq.set(attempt + 1);

        let mut new_mask = 0u64;
        for (i, &g) in participants.iter().enumerate() {
            if new_members.binary_search(&g).is_ok() {
                new_mask |= 1 << i;
            }
        }
        let (ctx, epoch) = self.shared.reconfig_context(self.context, new_mask, attempt);

        // Reliable control plane for the whole handshake, not just the
        // vote: join offers must not be droppable either.
        let was_armed = self.shared.fault().map(|fp| fp.is_armed(self.my_global));
        self.shared.fault_set_armed(self.my_global, false);
        let result = self.reconfigure_inner(
            new_local,
            new_remote,
            &old_members,
            &participants,
            ctx,
            epoch,
            attempt,
        );
        if was_armed == Some(true) {
            self.shared.fault_set_armed(self.my_global, true);
        }
        result
    }

    #[allow(clippy::too_many_arguments)]
    fn reconfigure_inner(
        &self,
        new_local: Vec<usize>,
        new_remote: Vec<usize>,
        old_members: &[usize],
        participants: &[usize],
        ctx: u32,
        epoch: u64,
        attempt: u64,
    ) -> Result<(Option<InterComm>, ReconfigReport)> {
        let sponsor = old_members[0];
        if self.my_global == sponsor {
            let world = Comm::world(self.shared.clone(), self.my_global);
            let newcomers =
                participants.iter().copied().filter(|g| old_members.binary_search(g).is_err());
            for g in newcomers {
                // The offer is written from the joiner's perspective.
                let offer = if let Some(i) = new_local.iter().position(|&x| x == g) {
                    JoinOffer {
                        side: self.side,
                        local_rank: i,
                        context: ctx,
                        attempt,
                        epoch,
                        local_group: new_local.clone(),
                        remote_group: new_remote.clone(),
                        old_local_group: self.local_group.to_vec(),
                        old_remote_group: self.remote_group.to_vec(),
                        participants: participants.to_vec(),
                    }
                } else {
                    let i = new_remote
                        .iter()
                        .position(|&x| x == g)
                        .expect("participant is in one of the new groups");
                    JoinOffer {
                        side: 1 - self.side,
                        local_rank: i,
                        context: ctx,
                        attempt,
                        epoch,
                        local_group: new_remote.clone(),
                        remote_group: new_local.clone(),
                        old_local_group: self.remote_group.to_vec(),
                        old_remote_group: self.local_group.to_vec(),
                        participants: participants.to_vec(),
                    }
                };
                world.send(g, JOIN_TAG, offer)?;
            }
        }

        let liveness = self.shared.liveness();
        let mut alive_mask = 0u64;
        for (i, &g) in participants.iter().enumerate() {
            if !liveness.is_dead(g) {
                alive_mask |= 1 << i;
            }
        }
        let agreed = agree_over(&self.shared, self.my_global, participants, ctx, 0, alive_mask)?;
        if agreed != Self::full_mask(participants.len()) {
            return Err(RuntimeError::ReconfigAborted { context: ctx, attempt });
        }

        emit_instant(
            EventId::Expand,
            [
                participants.len() as u64,
                (new_local.len() + new_remote.len()) as u64,
                ctx_class(ctx),
                attempt,
            ],
        );
        // One designated revoker: the Revoke trace event fires only on the
        // newly-revoking caller, so racing revokes would be digest-racy.
        if self.my_global == sponsor {
            self.shared.revoke_context(self.context);
        }
        let report = ReconfigReport {
            old_local_group: self.local_group.to_vec(),
            old_remote_group: self.remote_group.to_vec(),
            new_local_group: new_local.clone(),
            new_remote_group: new_remote.clone(),
            epoch,
            attempt,
        };
        let ic = new_local.iter().position(|&g| g == self.my_global).map(|r| InterComm {
            shared: self.shared.clone(),
            local_rank: r,
            local_size: new_local.len(),
            my_global: self.my_global,
            local_group: Arc::new(new_local),
            remote_group: Arc::new(new_remote),
            context: ctx,
            side: self.side,
            recovery_seq: Cell::new(0),
        });
        Ok((ic, report))
    }

    /// Grows the intercomm: appends `add_local` / `add_remote` (global
    /// ranks, each parked in [`InterComm::await_join`]) to the two groups.
    /// Collective over every incumbent member; see
    /// [`InterComm::reconfigure`] for the handshake and abort semantics.
    pub fn expand(
        &self,
        add_local: &[usize],
        add_remote: &[usize],
    ) -> Result<(InterComm, ReconfigReport)> {
        let mut new_local = self.local_group.to_vec();
        new_local.extend_from_slice(add_local);
        let mut new_remote = self.remote_group.to_vec();
        new_remote.extend_from_slice(add_remote);
        let (ic, report) = self.reconfigure(new_local, new_remote)?;
        Ok((ic.expect("expand keeps every incumbent member"), report))
    }

    /// Gracefully contracts the intercomm to the given *local ranks* on
    /// each side (ascending), with the leavers still participating in the
    /// commit vote (unlike [`InterComm::shrink_with_report`], which drops
    /// the dead). Leavers receive `(None, report)`; the data they own can
    /// be moved off before the old context is retired via the report.
    pub fn contract(
        &self,
        keep_local_ranks: &[usize],
        keep_remote_ranks: &[usize],
    ) -> Result<(Option<InterComm>, ReconfigReport)> {
        let pick = |group: &[usize], keep: &[usize]| -> Result<Vec<usize>> {
            keep.iter()
                .map(|&r| {
                    group
                        .get(r)
                        .copied()
                        .ok_or(RuntimeError::InvalidRank { rank: r, size: group.len() })
                })
                .collect()
        };
        let new_local = pick(&self.local_group, keep_local_ranks)?;
        let new_remote = pick(&self.remote_group, keep_remote_ranks)?;
        self.reconfigure(new_local, new_remote)
    }

    /// Parks a newcomer rank until a reconfiguration sponsor invites it,
    /// then takes part in the commit vote. `world` must be the rank's world
    /// communicator. On commit returns the newcomer's handle in the new
    /// epoch; on an aborted handshake returns
    /// [`RuntimeError::ReconfigAborted`] (the caller may park again for the
    /// retry), and on `timeout` without any invitation the underlying
    /// [`RuntimeError::Timeout`].
    pub fn await_join(world: &Comm, timeout: Duration) -> Result<InterComm> {
        Self::await_join_with_report(world, timeout).map(|(ic, _)| ic)
    }

    /// [`InterComm::await_join`] plus the same [`ReconfigReport`] every
    /// incumbent receives from [`InterComm::expand`], so a joiner can
    /// drive the data-rebind half of the reconfiguration (it needs the
    /// old groups to know who holds the pre-grow shards).
    pub fn await_join_with_report(
        world: &Comm,
        timeout: Duration,
    ) -> Result<(InterComm, ReconfigReport)> {
        let shared = world.shared().clone();
        let my_global = world.global_rank();
        let was_armed = shared.fault().map(|fp| fp.is_armed(my_global));
        shared.fault_set_armed(my_global, false);
        let result = Self::await_join_inner(&shared, world, my_global, timeout);
        if was_armed == Some(true) {
            shared.fault_set_armed(my_global, true);
        }
        result
    }

    fn await_join_inner(
        shared: &Arc<WorldShared>,
        world: &Comm,
        my_global: usize,
        timeout: Duration,
    ) -> Result<(InterComm, ReconfigReport)> {
        let offer: JoinOffer = world.recv_timeout(Src::Any, JOIN_TAG, timeout)?;
        let liveness = shared.liveness();
        let mut alive_mask = 0u64;
        for (i, &g) in offer.participants.iter().enumerate() {
            if !liveness.is_dead(g) {
                alive_mask |= 1 << i;
            }
        }
        let agreed =
            agree_over(shared, my_global, &offer.participants, offer.context, 0, alive_mask)?;
        if agreed != Self::full_mask(offer.participants.len()) {
            return Err(RuntimeError::ReconfigAborted {
                context: offer.context,
                attempt: offer.attempt,
            });
        }
        emit_instant(
            EventId::Expand,
            [
                offer.participants.len() as u64,
                (offer.local_group.len() + offer.remote_group.len()) as u64,
                ctx_class(offer.context),
                offer.attempt,
            ],
        );
        let report = ReconfigReport {
            old_local_group: offer.old_local_group,
            old_remote_group: offer.old_remote_group,
            new_local_group: offer.local_group.clone(),
            new_remote_group: offer.remote_group.clone(),
            epoch: offer.epoch,
            attempt: offer.attempt,
        };
        let ic = InterComm {
            shared: shared.clone(),
            local_rank: offer.local_rank,
            local_size: offer.local_group.len(),
            my_global,
            local_group: Arc::new(offer.local_group),
            remote_group: Arc::new(offer.remote_group),
            context: offer.context,
            side: offer.side,
            recovery_seq: Cell::new(0),
        };
        Ok((ic, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    /// Splits a world of m + n ranks into two programs joined by an
    /// intercomm; returns per-rank (local_rank, remote_size, probe result).
    fn two_programs(m: usize, n: usize) {
        World::run(m + n, move |p| {
            let world = p.world();
            let side = usize::from(p.rank() >= m);
            let (local, ic) = InterComm::create(world, side).unwrap();

            assert_eq!(local.size(), if side == 0 { m } else { n });
            assert_eq!(ic.local_size(), local.size());
            assert_eq!(ic.remote_size(), if side == 0 { n } else { m });
            assert_eq!(ic.local_rank(), local.rank());

            // Every rank of side 0 sends its local rank to remote rank
            // (local_rank % n); side 1 counts what it receives.
            if side == 0 {
                ic.send(local.rank() % n, 7, local.rank() as u64).unwrap();
            } else {
                let expect: Vec<usize> = (0..m).filter(|r| r % n == local.rank()).collect();
                let mut got = Vec::new();
                for _ in &expect {
                    let (v, info) = ic.recv_with_info::<u64>(Src::Any, 7).unwrap();
                    assert_eq!(v as usize, info.src);
                    got.push(v as usize);
                }
                got.sort_unstable();
                assert_eq!(got, expect);
            }
        });
    }

    #[test]
    fn m_equals_n() {
        two_programs(3, 3);
    }

    #[test]
    fn m_greater_than_n() {
        two_programs(8, 3);
    }

    #[test]
    fn m_less_than_n() {
        two_programs(2, 5);
    }

    #[test]
    fn one_sided_singleton() {
        two_programs(1, 4);
    }

    #[test]
    fn intercomm_isolated_from_world_traffic() {
        World::run(2, |p| {
            let world = p.world();
            let (_, ic) = InterComm::create(world, p.rank()).unwrap();
            if p.rank() == 0 {
                world.send(1, 3, 1u8).unwrap();
                ic.send(0, 3, 2u8).unwrap();
            } else {
                // The intercomm receive must not see the world message even
                // though src/tag patterns would match.
                assert_eq!(ic.recv::<u8>(0, 3).unwrap(), 2);
                assert_eq!(world.recv::<u8>(0, 3).unwrap(), 1);
            }
        });
    }

    #[test]
    fn invalid_remote_rank() {
        World::run(2, |p| {
            let (_, ic) = InterComm::create(p.world(), p.rank()).unwrap();
            assert!(matches!(
                ic.send(5, 0, 0u8),
                Err(RuntimeError::InvalidRank { rank: 5, size: 1 })
            ));
        });
    }

    #[test]
    fn empty_side_rejected() {
        World::run(2, |p| {
            let r = InterComm::create(p.world(), 0);
            assert!(matches!(r, Err(RuntimeError::CollectiveMismatch { .. })));
        });
    }

    #[test]
    fn timeout_across_programs() {
        World::run(2, |p| {
            let (_, ic) = InterComm::create(p.world(), p.rank()).unwrap();
            let e = ic.recv_timeout::<u8>(0, 0, Duration::from_millis(10)).unwrap_err();
            assert!(matches!(e, RuntimeError::Timeout { .. }));
        });
    }

    #[test]
    fn revoke_poisons_both_sides() {
        World::run(4, |p| {
            let side = usize::from(p.rank() >= 2);
            let (local, ic) = InterComm::create(p.world(), side).unwrap();
            if p.rank() == 0 {
                assert!(ic.revoke());
                assert!(!ic.revoke(), "idempotent");
                assert!(ic.is_revoked());
                let e = ic.send(0, 1, 1u8).unwrap_err();
                assert!(e.is_revoked());
            } else {
                let e = ic.recv::<u8>(Src::Any, Tag::Any).unwrap_err();
                assert!(e.is_revoked(), "both sides fall out of the epoch: {e}");
            }
            // Intra-side communicators and the world keep working.
            local.barrier().unwrap();
        });
    }

    #[test]
    fn agree_all_is_unanimous_or_false_everywhere() {
        let votes = World::run(4, |p| {
            let side = usize::from(p.rank() >= 2);
            let (_, ic) = InterComm::create(p.world(), side).unwrap();
            let first = ic.agree_all(true).unwrap();
            let second = ic.agree_all(p.rank() != 3).unwrap();
            (first, second)
        });
        for (first, second) in votes {
            assert!(first, "unanimous yes commits");
            assert!(!second, "one dissent rolls everyone back");
        }
    }

    #[test]
    fn expand_admits_newcomers_on_both_sides() {
        World::run(6, |p| {
            let world = p.world();
            // Start: side 0 = {0,1}, side 1 = {2,3}; ranks 4 and 5 are
            // spare capacity that joins one side each.
            let color = if p.rank() < 4 { 0 } else { -1 };
            let pair = world.split(color, 0).unwrap();
            if p.rank() >= 4 {
                let ic = InterComm::await_join(world, Duration::from_secs(5)).unwrap();
                assert_eq!(ic.side(), usize::from(p.rank() == 5));
                assert_eq!(ic.local_rank(), 2, "appended after the incumbents");
                assert_eq!(ic.local_size(), 3);
                assert_eq!(ic.remote_size(), 3);
                // The new epoch carries traffic newcomer-to-newcomer.
                let (mine, theirs) = (p.rank() as u64, if p.rank() == 4 { 5 } else { 4 });
                ic.send(2, 9, mine).unwrap();
                assert_eq!(ic.recv::<u64>(2, 9).unwrap(), theirs);
                return;
            }
            let side = usize::from(p.rank() >= 2);
            let (_, ic) = InterComm::create(&pair.unwrap(), side).unwrap();
            let (add_local, add_remote) =
                if side == 0 { (&[4][..], &[5][..]) } else { (&[5][..], &[4][..]) };
            let (grown, report) = ic.expand(add_local, add_remote).unwrap();
            assert_eq!(report.epoch, 1);
            assert_eq!(grown.local_size(), 3);
            assert_eq!(grown.remote_size(), 3);
            assert_eq!(grown.local_rank(), ic.local_rank(), "incumbents keep their rank");
            if side == 0 {
                assert_eq!(report.old_local_group, vec![0, 1]);
                assert_eq!(report.new_local_group, vec![0, 1, 4]);
                assert_eq!(report.new_remote_group, vec![2, 3, 5]);
            }
            // The old epoch is retired (by the sponsor, so slightly after
            // other ranks commit): stale traffic cannot match.
            while !ic.is_revoked() {
                std::thread::yield_now();
            }
            // And the grown channel works incumbent-to-incumbent too.
            grown.send(grown.local_rank(), 3, p.rank() as u64).unwrap();
            let (v, info) = grown.recv_with_info::<u64>(Src::Any, 3).unwrap();
            assert_eq!(info.src, grown.local_rank());
            let expect = if side == 0 { p.rank() + 2 } else { p.rank() - 2 };
            assert_eq!(v, expect as u64);
        });
    }

    #[test]
    fn expand_aborts_and_rolls_back_when_newcomer_dies_then_retry_commits() {
        use crate::fault::FaultConfig;
        let cfg = FaultConfig::reliable(17);
        World::run_with_faults(6, cfg, |p| {
            let world = p.world();
            // side 0 = {0,1}, side 1 = {2,3}; rank 4 dies before joining,
            // rank 5 is the healthy spare the retry admits instead.
            let color = if p.rank() < 4 { 0 } else { -1 };
            let pair = world.split(color, 0).unwrap();
            if p.rank() == 4 {
                p.kill_rank(4);
                return;
            }
            if p.rank() == 5 {
                let ic = InterComm::await_join(world, Duration::from_secs(5)).unwrap();
                assert_eq!(ic.local_rank(), 2);
                assert_eq!(ic.recv::<u64>(0, 11).unwrap(), 7);
                return;
            }
            // The kill must be visible before the vote so every incumbent
            // observes the same (partial) alive set.
            while !p.is_dead(4) {
                std::thread::yield_now();
            }
            let side = usize::from(p.rank() >= 2);
            let (_, ic) = InterComm::create(&pair.unwrap(), side).unwrap();
            let attempt1 =
                if side == 0 { ic.expand(&[4], &[]) } else { ic.expand(&[], &[4]) }.unwrap_err();
            assert!(attempt1.is_reconfig_aborted(), "dead joiner aborts the vote: {attempt1}");
            // Transactional rollback: the old epoch is untouched and live.
            assert!(!ic.is_revoked());
            ic.send(ic.local_rank(), 3, p.rank() as u64).unwrap();
            let echoed = ic.recv::<u64>(ic.local_rank(), 3).unwrap();
            let expect = if side == 0 { p.rank() + 2 } else { p.rank() - 2 };
            assert_eq!(echoed, expect as u64);
            // Retry with the healthy spare commits on a fresh attempt.
            let (grown, report) =
                if side == 0 { ic.expand(&[5], &[]) } else { ic.expand(&[], &[5]) }.unwrap();
            assert_eq!(report.attempt, 1, "second attempt");
            assert_eq!(grown.local_size() + grown.remote_size(), 5);
            // Rank 5 joined side 0; side 1's first rank greets it.
            if p.rank() == 2 {
                grown.send(2, 11, 7u64).unwrap();
            }
        });
    }

    #[test]
    fn contract_retires_leavers_gracefully() {
        World::run(5, |p| {
            // side 0 = {0,1,2}, side 1 = {3,4}; local rank 2 of side 0
            // leaves voluntarily (no death involved).
            let side = usize::from(p.rank() >= 3);
            let (_, ic) = InterComm::create(p.world(), side).unwrap();
            let (shrunk, report) = ic.contract(&[0, 1], &[0, 1]).unwrap();
            assert_eq!(report.epoch, 1);
            if p.rank() == 2 {
                assert!(shrunk.is_none(), "leavers get no handle in the new epoch");
                assert_eq!(report.new_local_group, vec![0, 1]);
                return;
            }
            let shrunk = shrunk.unwrap();
            assert_eq!(shrunk.local_size() + shrunk.remote_size(), 4);
            // Retired by the sponsor once the contract commits.
            while !ic.is_revoked() {
                std::thread::yield_now();
            }
            shrunk.send(shrunk.local_rank(), 6, p.rank() as u64).unwrap();
            let v = shrunk.recv::<u64>(shrunk.local_rank(), 6).unwrap();
            let expect = if side == 0 { p.rank() + 3 } else { p.rank() - 3 };
            assert_eq!(v, expect as u64);
        });
    }

    #[test]
    fn await_join_times_out_without_invitation() {
        World::run(1, |p| {
            let e = InterComm::await_join(p.world(), Duration::from_millis(10)).unwrap_err();
            assert!(matches!(e, RuntimeError::Timeout { .. }));
        });
    }

    #[test]
    fn shrink_drops_dead_ranks_from_both_groups() {
        use crate::fault::FaultConfig;
        let cfg = FaultConfig::reliable(5);
        World::run_with_faults(5, cfg, |p| {
            // Side 0 = ranks {0,1,2}, side 1 = ranks {3,4}; rank 1 dies.
            let side = usize::from(p.rank() >= 3);
            let (_, ic) = InterComm::create(p.world(), side).unwrap();
            if p.rank() == 1 {
                p.kill_rank(1);
                return;
            }
            // Shrink drops only deaths already visible; wait for the kill.
            while !p.is_dead(1) {
                std::thread::yield_now();
            }
            let (healed, report) = ic.shrink_with_report().unwrap();
            if side == 0 {
                assert_eq!(report.local_survivors, vec![0, 2]);
                assert_eq!(report.remote_survivors, vec![0, 1]);
                assert_eq!(healed.local_size(), 2);
                assert_eq!(healed.remote_size(), 2);
                assert_eq!(healed.local_rank(), if p.rank() == 0 { 0 } else { 1 });
            } else {
                assert_eq!(report.local_survivors, vec![0, 1]);
                assert_eq!(report.remote_survivors, vec![0, 2]);
                assert_eq!(healed.remote_size(), 2);
            }
            assert_eq!(report.epoch, 1);
            // The healed channel carries traffic with the new numbering:
            // side-0 new rank r sends to side-1 new rank r.
            if side == 0 {
                healed.send(healed.local_rank(), 9, p.rank() as u64).unwrap();
            } else {
                let (v, info) = healed.recv_with_info::<u64>(Src::Any, 9).unwrap();
                assert_eq!(info.src, healed.local_rank());
                assert_eq!(v, 2 * healed.local_rank() as u64, "old rank of the new sender");
            }
        });
    }
}
