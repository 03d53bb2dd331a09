//! Epoch-based membership and fault-tolerant recovery, in the spirit of
//! MPI ULFM (User-Level Failure Mitigation).
//!
//! PR 1 made rank death *detectable*: blocked operations return
//! [`RuntimeError::PeerDead`] instead of hanging. This module makes it
//! *survivable*. The model mirrors ULFM's three primitives:
//!
//! * **revoke** — a survivor that observed a failure poisons the
//!   communicator's context pair; every pending and future operation on it
//!   fails with [`RuntimeError::Revoked`], so all participants fall out of
//!   the old epoch together instead of some hanging on stale traffic.
//! * **agree** — a fault-tolerant agreement collective over the world
//!   context (which is never revoked): two rounds of complete-graph
//!   gossip combining votes with bitwise AND. Dead participants are
//!   skipped via receive-side liveness; a second round spreads the
//!   first-round combination so all survivors decide the same value as
//!   long as failures do not cascade *during* the protocol itself.
//! * **shrink** — builds a dense survivor communicator with deterministic
//!   rank renumbering (ascending old rank) on a fresh context, agreed via
//!   `agree` so every survivor constructs the identical group.
//!
//! The recovery control channel is modelled as *reliable*: `agree`
//! temporarily disarms the caller's fault plane so drop/corrupt policies
//! cannot eat the agreement traffic (deaths are still honored — liveness
//! is checked regardless of arming). This keeps the commit protocols built
//! on top of it sound under every fault seed, which is exactly what a real
//! system buys with a separately-provisioned control network.
//!
//! Survivor contexts are distributed through a shared registry
//! (`Revocations::survivor_context`) keyed on `(old context, agreed
//! survivor mask)`: the first survivor to arrive allocates the fresh
//! context pair, later arrivals read the same id. Like the liveness
//! registry, this exploits the in-process runtime; a distributed
//! implementation would piggyback the id on the agreement.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::comm::Comm;
use crate::envelope::COLLECTIVE_TAG_BASE;
use crate::error::{Result, RuntimeError};
use crate::msgsize::MsgSize;
use crate::shared::WorldShared;
use crate::tracing::ctx_class;
use mxn_trace::{emit_instant, span, EventId};

/// Base of the tag range reserved for recovery-plane traffic on the world
/// context. Sits far above application tags (which stay small in practice)
/// and below [`COLLECTIVE_TAG_BASE`], so neither plane can match it.
pub(crate) const RECOVERY_TAG_BASE: i32 = COLLECTIVE_TAG_BASE - (1 << 22);

/// Tag for [`JoinOffer`] invitations to newcomer ranks, sent over the world
/// context by a reconfiguration's sponsor. Sits just below the agreement
/// tag range (and far above any tag an RMA window can produce).
pub(crate) const JOIN_TAG: i32 = RECOVERY_TAG_BASE - 1;

/// Base of the tag range reserved for one-sided RMA window traffic (see
/// [`crate::rma`]). A window's tags span `RMA_TAG_BASE ..= RMA_TAG_BASE +
/// 0x3fff`, well below [`JOIN_TAG`].
pub(crate) const RMA_TAG_BASE: i32 = RECOVERY_TAG_BASE - (1 << 22);

/// Per-peer wait inside `agree` before a silent participant is excluded.
/// Alive peers in this in-process runtime deliver promptly; only a dead
/// peer's missing contribution pays this (and usually fails fast via the
/// liveness check instead).
const AGREE_PEER_TIMEOUT: Duration = Duration::from_millis(150);

/// Encodes `(channel, seq, round)` into a recovery tag so concurrent
/// agreements on different communicators (and successive agreements on the
/// same one) never cross-match.
fn agree_tag(channel: u32, seq: u64, round: u8) -> i32 {
    RECOVERY_TAG_BASE
        + (((channel & 0x3ff) as i32) << 8)
        + (((seq & 0x3f) as i32) << 2)
        + round as i32
}

/// One gossip contribution: the sender's current AND-combined vote mask.
#[derive(Debug, Clone, Copy)]
struct AgreeMsg {
    value: u64,
}

impl MsgSize for AgreeMsg {
    fn msg_size(&self) -> usize {
        std::mem::size_of::<u64>()
    }
}

/// Registry for a shrink epoch: `(old context, survivor mask)` → the fresh
/// context pair and the 1-based shrink count of that old context.
/// `reconfigs` is the expand-direction twin, keyed additionally on the
/// attempt number so a retry after an aborted handshake gets a fresh
/// context (and therefore fresh agreement tags) instead of colliding with
/// stale traffic from the failed attempt.
#[derive(Default)]
struct RecoveryTable {
    contexts: HashMap<(u32, u64), (u32, u64)>,
    shrinks: HashMap<u32, u64>,
    reconfigs: HashMap<(u32, u64, u64), (u32, u64)>,
    reconfig_counts: HashMap<u32, u64>,
}

/// World-global revocation state: which context pairs are poisoned, the
/// global revocation epoch, and the survivor-context registry.
///
/// Shared by every mailbox of a world; consulted on every blocking receive
/// and every send so a revoked communicator fails everywhere at once.
#[derive(Default)]
pub struct Revocations {
    /// Poisoned context ids (both members of each revoked pair).
    revoked: Mutex<HashSet<u32>>,
    /// Cached `revoked.len()`; the fast path (`count == 0`, no revocations
    /// ever) skips the lock on every message operation.
    count: AtomicUsize,
    /// Bumped once per newly revoked pair.
    epoch: AtomicU64,
    table: Mutex<RecoveryTable>,
}

impl Revocations {
    /// Fresh state: nothing revoked.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `context` has been revoked.
    #[inline]
    pub fn is_revoked(&self, context: u32) -> bool {
        self.count.load(Ordering::Acquire) != 0 && self.revoked.lock().contains(&context)
    }

    /// `Err(Revoked)` if `context` has been revoked.
    #[inline]
    pub fn check(&self, context: u32) -> Result<()> {
        if self.is_revoked(context) {
            Err(RuntimeError::Revoked { context })
        } else {
            Ok(())
        }
    }

    /// Number of context pairs revoked so far.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Poisons the pair `(base, base + 1)`. Returns whether this call newly
    /// revoked it (revocation is idempotent).
    pub(crate) fn mark(&self, base: u32) -> bool {
        let mut set = self.revoked.lock();
        let newly = set.insert(base);
        set.insert(base + 1);
        self.count.store(set.len(), Ordering::Release);
        drop(set);
        if newly {
            self.epoch.fetch_add(1, Ordering::AcqRel);
        }
        newly
    }

    /// Returns the survivor context for `(old, mask)`, allocating it via
    /// `alloc` on first arrival. All survivors of one agreed shrink get the
    /// identical `(context, shrink_epoch)` without extra messaging.
    pub(crate) fn survivor_context(
        &self,
        old: u32,
        mask: u64,
        alloc: impl FnOnce() -> u32,
    ) -> (u32, u64) {
        let mut t = self.table.lock();
        if let Some(&found) = t.contexts.get(&(old, mask)) {
            return found;
        }
        let ctx = alloc();
        let epoch = {
            let e = t.shrinks.entry(old).or_insert(0);
            *e += 1;
            *e
        };
        t.contexts.insert((old, mask), (ctx, epoch));
        (ctx, epoch)
    }

    /// Returns the proposed context for reconfiguration attempt `attempt`
    /// of `old` toward the membership described by `mask`, allocating via
    /// `alloc` on first arrival. Every incumbent participant of one
    /// reconfiguration computes the same key and therefore reads the same
    /// `(context, reconfig_epoch)` without extra messaging; newcomers learn
    /// it from their [`JoinOffer`].
    pub(crate) fn reconfig_context(
        &self,
        old: u32,
        mask: u64,
        attempt: u64,
        alloc: impl FnOnce() -> u32,
    ) -> (u32, u64) {
        let mut t = self.table.lock();
        if let Some(&found) = t.reconfigs.get(&(old, mask, attempt)) {
            return found;
        }
        let ctx = alloc();
        let epoch = {
            let e = t.reconfig_counts.entry(old).or_insert(0);
            *e += 1;
            *e
        };
        t.reconfigs.insert((old, mask, attempt), (ctx, epoch));
        (ctx, epoch)
    }
}

/// What an intercomm shrink decided, in *old* rank numbering — the data a
/// coupling layer needs to re-derive decompositions over the survivor set.
/// `local_survivors[k]` is the old local rank that became new rank `k`
/// (dense renumbering preserves ascending old-rank order on both sides).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShrinkReport {
    /// Old this-side local ranks that survived, ascending.
    pub local_survivors: Vec<usize>,
    /// Old remote-side local ranks that survived, ascending.
    pub remote_survivors: Vec<usize>,
    /// 1-based count of shrinks this channel has undergone.
    pub epoch: u64,
}

/// What an intercomm reconfiguration (expand or graceful contract)
/// committed, in *global* rank numbering and from the caller's own
/// perspective (`local` = the caller's side) — the data a coupling layer
/// needs to re-derive decompositions over both memberships and move the
/// elements between epochs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconfigReport {
    /// Global ranks of the caller's side before the reconfiguration.
    pub old_local_group: Vec<usize>,
    /// Global ranks of the opposite side before the reconfiguration.
    pub old_remote_group: Vec<usize>,
    /// Global ranks of the caller's side after the reconfiguration.
    pub new_local_group: Vec<usize>,
    /// Global ranks of the opposite side after the reconfiguration.
    pub new_remote_group: Vec<usize>,
    /// 1-based count of reconfigurations this channel has undergone.
    pub epoch: u64,
    /// The attempt number that committed.
    pub attempt: u64,
}

/// The sponsor's invitation to one newcomer rank: everything the joiner
/// needs to take part in the commit vote and, on commit, construct its
/// intercomm handle. Groups are written from the *joiner's* perspective
/// (`local` = the side it is joining).
///
/// Public (not `pub(crate)`) because the wire transport sends the same
/// offer across a process boundary: [`JoinOffer::to_wire_bytes`] /
/// [`JoinOffer::from_wire_bytes`] are its length-prefixed little-endian
/// framing, used by `mxn-wire`'s spare-process join handshake.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinOffer {
    /// Which intercomm side the newcomer joins (0 or 1).
    pub side: usize,
    /// The newcomer's local rank within its side's new group.
    pub local_rank: usize,
    /// The proposed context pair base for the new epoch.
    pub context: u32,
    /// Reconfiguration attempt number of the proposing handshake.
    pub attempt: u64,
    /// 1-based reconfiguration epoch of the channel.
    pub epoch: u64,
    /// Global ranks of the joiner's side after the reconfiguration.
    pub local_group: Vec<usize>,
    /// Global ranks of the opposite side after the reconfiguration.
    pub remote_group: Vec<usize>,
    /// Pre-reconfiguration groups, joiner's perspective — for data rebind.
    pub old_local_group: Vec<usize>,
    /// Pre-reconfiguration opposite side, joiner's perspective.
    pub old_remote_group: Vec<usize>,
    /// Sorted union of old and new members: the vote membership.
    pub participants: Vec<usize>,
}

impl MsgSize for JoinOffer {
    fn msg_size(&self) -> usize {
        let vec_elems = self.local_group.len()
            + self.remote_group.len()
            + self.old_local_group.len()
            + self.old_remote_group.len()
            + self.participants.len();
        vec_elems * std::mem::size_of::<usize>() + 5 * std::mem::size_of::<u64>()
    }
}

impl JoinOffer {
    /// Serializes the offer for transmission across a process boundary:
    /// fixed scalars little-endian, each group as a `u32` length prefix
    /// followed by `u64` ranks. The in-proc path never pays this — offers
    /// inside one address space move as typed envelopes.
    pub fn to_wire_bytes(&self) -> Vec<u8> {
        fn put_group(out: &mut Vec<u8>, group: &[usize]) {
            out.extend_from_slice(&(group.len() as u32).to_le_bytes());
            for &r in group {
                out.extend_from_slice(&(r as u64).to_le_bytes());
            }
        }
        let mut out = Vec::with_capacity(self.msg_size() + 32);
        out.extend_from_slice(&(self.side as u64).to_le_bytes());
        out.extend_from_slice(&(self.local_rank as u64).to_le_bytes());
        out.extend_from_slice(&self.context.to_le_bytes());
        out.extend_from_slice(&self.attempt.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        put_group(&mut out, &self.local_group);
        put_group(&mut out, &self.remote_group);
        put_group(&mut out, &self.old_local_group);
        put_group(&mut out, &self.old_remote_group);
        put_group(&mut out, &self.participants);
        out
    }

    /// Total decoder for [`JoinOffer::to_wire_bytes`]: any truncated or
    /// trailing-garbage input returns `None`, never panics — the bytes
    /// arrive over a wire that injects faults.
    pub fn from_wire_bytes(bytes: &[u8]) -> Option<JoinOffer> {
        struct Cursor<'a>(&'a [u8]);
        impl Cursor<'_> {
            fn u64(&mut self) -> Option<u64> {
                let (head, rest) = self.0.split_at_checked(8)?;
                self.0 = rest;
                Some(u64::from_le_bytes(head.try_into().ok()?))
            }
            fn u32(&mut self) -> Option<u32> {
                let (head, rest) = self.0.split_at_checked(4)?;
                self.0 = rest;
                Some(u32::from_le_bytes(head.try_into().ok()?))
            }
            fn group(&mut self) -> Option<Vec<usize>> {
                let len = self.u32()? as usize;
                if len > self.0.len() / 8 {
                    return None; // forged length, refuse to allocate it
                }
                (0..len).map(|_| self.u64().map(|r| r as usize)).collect()
            }
        }
        let mut c = Cursor(bytes);
        let offer = JoinOffer {
            side: c.u64()? as usize,
            local_rank: c.u64()? as usize,
            context: c.u32()?,
            attempt: c.u64()?,
            epoch: c.u64()?,
            local_group: c.group()?,
            remote_group: c.group()?,
            old_local_group: c.group()?,
            old_remote_group: c.group()?,
            participants: c.group()?,
        };
        if c.0.is_empty() {
            Some(offer)
        } else {
            None
        }
    }
}

/// Fault-tolerant agreement over `members` (world ranks, identical order on
/// every participant): two AND-combining gossip rounds on the world
/// context. Returns the combined value; dead or silent members are
/// excluded from the combination.
pub(crate) fn agree_over(
    shared: &Arc<WorldShared>,
    my_global: usize,
    members: &[usize],
    channel: u32,
    seq: u64,
    value: u64,
) -> Result<u64> {
    RuntimeError::check_mask_width(members.len())?;
    // Reliable control channel: message faults are disarmed for the
    // protocol's own traffic, then the previous arming is restored.
    let was_armed = shared.fault().map(|fp| fp.is_armed(my_global));
    shared.fault_set_armed(my_global, false);
    let result = agree_rounds(shared, my_global, members, channel, seq, value);
    if was_armed == Some(true) {
        shared.fault_set_armed(my_global, true);
    }
    result
}

fn agree_rounds(
    shared: &Arc<WorldShared>,
    my_global: usize,
    members: &[usize],
    channel: u32,
    seq: u64,
    value: u64,
) -> Result<u64> {
    let world = Comm::world(shared.clone(), my_global);
    let mut guard = span(EventId::Agree, [members.len() as u64, seq, 0, 0]);
    let mut acc = value;
    let mut heard = 0u64;
    for round in 0..2u8 {
        let tag = agree_tag(channel, seq, round);
        for &peer in members.iter().filter(|&&p| p != my_global) {
            // Sends to dead peers succeed silently, so an error here is the
            // caller's own death (or abort): propagate.
            world.send(peer, tag, AgreeMsg { value: acc })?;
        }
        for &peer in members.iter().filter(|&&p| p != my_global) {
            match world.recv_timeout::<AgreeMsg>(peer, tag, AGREE_PEER_TIMEOUT) {
                Ok(m) => {
                    acc &= m.value;
                    heard += 1;
                }
                // Dead or silent: excluded from the combination.
                Err(e) if e.is_failure_detection() => {}
                Err(e) => return Err(e),
            }
        }
    }
    guard.set_end([members.len() as u64, heard, 0, 0]);
    Ok(acc)
}

/// The recovery view of a [`Comm`]: ULFM-style revoke / agree / shrink.
/// Obtained via [`Comm::membership`].
pub struct Membership<'a> {
    comm: &'a Comm,
}

impl<'a> Membership<'a> {
    pub(crate) fn new(comm: &'a Comm) -> Self {
        Membership { comm }
    }

    /// Local ranks currently alive, ascending. A snapshot — deaths after
    /// the call are not reflected.
    pub fn survivors(&self) -> Vec<usize> {
        let liveness = self.comm.shared().liveness();
        (0..self.comm.size()).filter(|&r| !liveness.is_dead(self.comm.group()[r])).collect()
    }

    /// Whether this communicator's context has been revoked.
    pub fn is_revoked(&self) -> bool {
        self.comm.shared().revocations().is_revoked(self.comm.context())
    }

    /// Poisons this communicator's context pair: every pending and future
    /// operation on it (point-to-point and collective) fails with
    /// [`RuntimeError::Revoked`] on every rank. Idempotent; returns whether
    /// this call newly revoked it. The world communicator cannot be
    /// revoked — recovery itself runs on it — so revoking it returns
    /// `false` and changes nothing.
    pub fn revoke(&self) -> bool {
        self.comm.shared().revoke_context(self.comm.context())
    }

    /// Fault-tolerant agreement across the group: returns the bitwise AND
    /// of every surviving member's `value`. Must be called by all surviving
    /// members, in the same recovery order.
    pub fn agree(&self, value: u64) -> Result<u64> {
        let comm = self.comm;
        let seq = comm.recovery_seq.get();
        comm.recovery_seq.set(seq + 1);
        agree_over(comm.shared(), comm.global_rank(), comm.group(), comm.context(), seq, value)
    }

    /// Builds the dense survivor communicator: members agree on the alive
    /// mask, dead ranks are dropped, and survivors are renumbered 0..s in
    /// ascending old-rank order on a fresh context. Deaths *during* the
    /// call surface on the next shrink, exactly like ULFM's
    /// `MPI_Comm_shrink`.
    pub fn shrink(&self) -> Result<Comm> {
        let comm = self.comm;
        let shared = comm.shared();
        let n = comm.size();
        RuntimeError::check_mask_width(n)?;
        let liveness = shared.liveness();
        let mut mask = 0u64;
        for (i, &g) in comm.group().iter().enumerate() {
            if !liveness.is_dead(g) {
                mask |= 1 << i;
            }
        }
        let seq = comm.recovery_seq.get();
        comm.recovery_seq.set(seq + 1);
        let agreed =
            agree_over(shared, comm.global_rank(), comm.group(), comm.context(), seq, mask)?;
        let survivors: Vec<usize> = (0..n).filter(|&i| agreed & (1 << i) != 0).collect();
        let my_new = survivors
            .iter()
            .position(|&i| i == comm.rank())
            .ok_or(RuntimeError::PeerDead { rank: comm.rank() })?;
        let (ctx, _epoch) = shared.survivor_context(comm.context(), agreed);
        emit_instant(EventId::Shrink, [n as u64, survivors.len() as u64, ctx_class(ctx), 0]);
        let group: Vec<usize> = survivors.iter().map(|&i| comm.group()[i]).collect();
        Ok(Comm::from_parts(shared.clone(), Arc::new(group), my_new, ctx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::{Src, Tag};
    use crate::fault::FaultConfig;
    use crate::world::World;
    use std::time::Duration;

    #[test]
    fn revoke_poisons_pending_and_future_ops() {
        World::run(2, |p| {
            let c = p.world();
            let d = c.dup().unwrap();
            if c.rank() == 0 {
                // Wait for rank 1 to be parked on the derived comm, then
                // revoke it from the other side.
                c.recv::<u8>(1, 1).unwrap();
                assert!(d.membership().revoke());
                assert!(!d.membership().revoke(), "idempotent");
                // Future ops fail too, on the revoker itself.
                let e = d.send(1, 9, 1u8).unwrap_err();
                assert!(e.is_revoked(), "send on revoked ctx: {e}");
            } else {
                c.send(0, 1, 1u8).unwrap();
                let e = d.recv::<u8>(0, 3).unwrap_err();
                assert_eq!(e, RuntimeError::Revoked { context: d.context() });
                // Collectives ride ctx + 1 of the pair: poisoned as well.
                let e = d.barrier().unwrap_err();
                assert!(e.is_revoked(), "collective on revoked ctx: {e}");
            }
            // World traffic is unaffected.
            let peer = 1 - c.rank();
            c.send(peer, 5, 7u8).unwrap();
            assert_eq!(c.recv::<u8>(peer, 5).unwrap(), 7);
        });
    }

    #[test]
    fn world_context_cannot_be_revoked() {
        World::run(1, |p| {
            let c = p.world();
            assert!(!c.membership().revoke());
            assert!(!c.membership().is_revoked());
            c.send(0, 0, 3u8).unwrap();
            assert_eq!(c.recv::<u8>(0, 0).unwrap(), 3);
        });
    }

    #[test]
    fn revoked_messages_already_queued_are_not_delivered() {
        World::run(2, |p| {
            let c = p.world();
            let d = c.dup().unwrap();
            if c.rank() == 0 {
                d.send(1, 4, 9u8).unwrap(); // queued before the revoke
                c.send(1, 0, 0u8).unwrap(); // "sent" signal
            } else {
                c.recv::<u8>(0, 0).unwrap();
                d.membership().revoke();
                let e = d.recv::<u8>(0, 4).unwrap_err();
                assert!(e.is_revoked(), "stale-epoch message must not deliver: {e}");
            }
        });
    }

    #[test]
    fn agree_ands_votes_and_skips_the_dead() {
        let cfg = FaultConfig::reliable(7);
        let (masks, _) = World::run_with_faults(3, cfg, |p| {
            if p.rank() == 0 {
                p.kill_rank(0);
                return 0;
            }
            let c = p.world();
            let vote = if c.rank() == 1 { 0b110 } else { 0b111 };
            c.membership().agree(vote).unwrap()
        });
        assert_eq!(masks[1], 0b110);
        assert_eq!(masks[2], 0b110, "all survivors agree on the AND of survivor votes");
    }

    #[test]
    fn shrink_renumbers_and_survivor_comm_works() {
        let cfg = FaultConfig::reliable(11);
        World::run_with_faults(4, cfg, |p| {
            if p.rank() == 1 {
                p.kill_rank(1);
                return;
            }
            // Shrink drops only deaths already visible; wait for the kill.
            while !p.is_dead(1) {
                std::thread::yield_now();
            }
            let c = p.world();
            let d = c.dup().unwrap();
            let s = d.membership().shrink().unwrap();
            assert_eq!(s.size(), 3);
            let expect_rank = match c.rank() {
                0 => 0,
                2 => 1,
                3 => 2,
                _ => unreachable!(),
            };
            assert_eq!(s.rank(), expect_rank, "dense ascending renumbering");
            assert_eq!(s.group(), &[0, 2, 3]);
            assert_ne!(s.context(), d.context(), "fresh context pair");
            // The survivor communicator is fully operational, collectives
            // included.
            let total: u64 = s.allreduce(c.rank() as u64, |a, b| *a += b).unwrap();
            assert_eq!(total, 2 + 3);
        });
    }

    /// A world wider than the membership masks gets a typed error from
    /// shrink on every rank instead of unwinding.
    #[test]
    fn shrink_past_the_mask_width_is_a_typed_error() {
        World::run(65, |p| {
            let err = p.world().membership().shrink().err();
            assert_eq!(err, Some(RuntimeError::TooManyParticipants { n: 65, max: 64 }));
        });
    }

    #[test]
    fn repeated_shrink_is_idempotent_on_the_same_failure() {
        let cfg = FaultConfig::reliable(13);
        World::run_with_faults(3, cfg, |p| {
            if p.rank() == 2 {
                p.kill_rank(2);
                return;
            }
            while !p.is_dead(2) {
                std::thread::yield_now();
            }
            let c = p.world();
            let d = c.dup().unwrap();
            let s1 = d.membership().shrink().unwrap();
            let s2 = d.membership().shrink().unwrap();
            assert_eq!(s1.context(), s2.context(), "same survivor mask, same context");
            assert_eq!(s1.rank(), s2.rank());
        });
    }

    #[test]
    fn agree_tags_stay_below_collective_base() {
        for channel in [0u32, 2, 1023, 4096] {
            for seq in [0u64, 1, 63, 64] {
                for round in 0..2u8 {
                    let t = agree_tag(channel, seq, round);
                    assert!(t >= RECOVERY_TAG_BASE);
                    assert!(t < COLLECTIVE_TAG_BASE);
                }
            }
        }
    }

    #[test]
    fn survivor_context_registry_is_deterministic() {
        let r = Revocations::new();
        let (a, e1) = r.survivor_context(6, 0b101, || 40);
        let (b, e2) = r.survivor_context(6, 0b101, || panic!("must not re-allocate"));
        assert_eq!((a, e1), (b, e2));
        let (c, e3) = r.survivor_context(6, 0b100, || 42);
        assert_eq!(c, 42);
        assert_eq!(e3, 2, "second shrink of the same channel");
    }

    #[test]
    fn reconfig_context_registry_keys_on_attempt() {
        let r = Revocations::new();
        let (a, e1) = r.reconfig_context(6, 0b111, 0, || 50);
        let (b, e2) = r.reconfig_context(6, 0b111, 0, || panic!("must not re-allocate"));
        assert_eq!((a, e1), (b, e2));
        // A retry after an aborted handshake is a different attempt:
        // fresh context, next reconfig epoch.
        let (c, e3) = r.reconfig_context(6, 0b111, 1, || 52);
        assert_eq!(c, 52);
        assert_eq!(e3, 2);
        // Independent of the shrink registry.
        let (d, s1) = r.survivor_context(6, 0b111, || 54);
        assert_eq!((d, s1), (54, 1));
    }

    // Tag-layout invariants, pinned at compile time: join offers sit below
    // the recovery plane, RMA window tags cannot collide with join offers,
    // and everything stays far above application tags.
    const _: () = {
        assert!(JOIN_TAG < RECOVERY_TAG_BASE);
        assert!(RMA_TAG_BASE + 0x3fff < JOIN_TAG);
        assert!(RMA_TAG_BASE > 0);
    };

    #[test]
    fn revocation_epoch_counts_pairs() {
        let r = Revocations::new();
        assert_eq!(r.epoch(), 0);
        assert!(r.mark(4));
        assert!(r.is_revoked(4));
        assert!(r.is_revoked(5), "collective context revoked with its pair");
        assert!(!r.is_revoked(6));
        assert!(!r.mark(4));
        assert_eq!(r.epoch(), 1);
        assert!(r.check(4).is_err());
        assert!(r.check(0).is_ok());
    }

    #[test]
    fn pending_recv_is_woken_by_revoke() {
        // A receiver already parked inside `take` (not just about to enter)
        // must be woken and see Revoked.
        World::run(2, |p| {
            let c = p.world();
            let d = c.dup().unwrap();
            if c.rank() == 0 {
                std::thread::sleep(Duration::from_millis(30));
                d.membership().revoke();
            } else {
                let e = d.recv::<u8>(0, 3).unwrap_err();
                assert!(e.is_revoked());
            }
        });
    }

    #[test]
    fn join_offer_wire_bytes_roundtrip_and_reject_damage() {
        let offer = JoinOffer {
            side: 1,
            local_rank: 2,
            context: 0x40,
            attempt: 3,
            epoch: 7,
            local_group: vec![0, 1, 5],
            remote_group: vec![2, 3],
            old_local_group: vec![0, 1],
            old_remote_group: vec![2, 3],
            participants: vec![0, 1, 2, 3, 5],
        };
        let bytes = offer.to_wire_bytes();
        assert_eq!(JoinOffer::from_wire_bytes(&bytes), Some(offer.clone()));
        // Truncation at every prefix length decodes to None, never panics.
        for cut in 0..bytes.len() {
            assert_eq!(JoinOffer::from_wire_bytes(&bytes[..cut]), None, "cut at {cut}");
        }
        // Trailing garbage is rejected (total decode, no silent slack).
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(JoinOffer::from_wire_bytes(&long), None);
        // A forged group length cannot drive allocation.
        let mut forged = bytes;
        let group_len_off = 8 + 8 + 4 + 8 + 8;
        forged[group_len_off..group_len_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(JoinOffer::from_wire_bytes(&forged), None);
    }

    #[test]
    fn try_take_ignores_revocation_but_take_does_not() {
        // Non-blocking try_take is documented as not revocation-checked;
        // the blocking paths are the epoch boundary.
        use crate::envelope::{Envelope, Payload};
        use crate::fault::Liveness;
        use crate::mailbox::Mailbox;
        use std::sync::atomic::AtomicBool;
        let revs = Arc::new(Revocations::new());
        let m = Mailbox::new(
            Arc::new(AtomicBool::new(false)),
            Arc::new(Liveness::new(2)),
            revs.clone(),
        );
        m.push(Envelope::new(0, 0, 6, 1, 4, None, Payload::owned(5u8)));
        m.push(Envelope::new(0, 0, 6, 1, 4, None, Payload::owned(6u8)));
        revs.mark(6);
        assert!(m.try_take(6, Src::Any, Tag::Any).is_some());
        assert!(m.take(6, Src::Any, Tag::Any, &[]).unwrap_err().is_revoked());
    }
}
