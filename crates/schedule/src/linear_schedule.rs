//! Linearization-based communication schedules (the generic sweep).
//!
//! The alternative construction of §2.3: refer both layouts to the abstract
//! 1-D linearization and intersect *segment lists* instead of rectangular
//! patches. This handles anything a linearization exists for (trees,
//! graphs, arrays in foreign orders) at the cost of per-element index
//! translation during packing — the trade-off experiment E6/E8 quantifies
//! against the region fast path.

use mxn_dad::{Dad, LocalArray};
use mxn_linearize::{extract_segments, insert_segments, ArrayOrder, SegmentList};
use mxn_runtime::{Comm, InterComm, MsgSize, Result};

use crate::region_schedule::Role;

/// A per-rank schedule expressed in linearization segments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinearSchedule {
    role: Role,
    my_rank: usize,
    order: ArrayOrder,
    /// `(peer, segments)` with non-empty segments, ascending peer.
    pairs: Vec<(usize, SegmentList)>,
}

impl LinearSchedule {
    fn build(me: &Dad, peer_dad: &Dad, my_rank: usize, order: ArrayOrder, role: Role) -> Self {
        assert!(me.conforms(peer_dad), "descriptors must share global extents");
        let mine = order.rank_segments(me, my_rank);
        let mut pairs = Vec::new();
        for peer in 0..peer_dad.nranks() {
            let theirs = order.rank_segments(peer_dad, peer);
            let overlap = mine.intersect(&theirs);
            if !overlap.is_empty() {
                pairs.push((peer, overlap));
            }
        }
        LinearSchedule { role, my_rank, order, pairs }
    }

    /// Builds the sending side's schedule for `my_rank` of `src`.
    pub fn for_sender(src: &Dad, dst: &Dad, order: ArrayOrder, my_rank: usize) -> Self {
        Self::build(src, dst, my_rank, order, Role::Sender)
    }

    /// Builds the receiving side's schedule for `my_rank` of `dst`.
    pub fn for_receiver(src: &Dad, dst: &Dad, order: ArrayOrder, my_rank: usize) -> Self {
        Self::build(dst, src, my_rank, order, Role::Receiver)
    }

    /// The schedule's role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Per-peer segment plans.
    pub fn pairs(&self) -> &[(usize, SegmentList)] {
        &self.pairs
    }

    /// Number of messages exchanged.
    pub fn num_messages(&self) -> usize {
        self.pairs.len()
    }

    /// Total elements moved by this rank.
    pub fn total_elements(&self) -> usize {
        self.pairs.iter().map(|(_, s)| s.total_len()).sum()
    }

    /// In-memory size of the schedule.
    pub fn schedule_bytes(&self) -> usize {
        self.pairs.iter().map(|(_, s)| std::mem::size_of::<usize>() + s.descriptor_bytes()).sum()
    }

    /// Sender side over an inter-communicator. Returns elements sent.
    pub fn execute_send<T>(
        &self,
        ic: &InterComm,
        dad: &Dad,
        local: &LocalArray<T>,
        tag: i32,
    ) -> Result<usize>
    where
        T: Copy + Send + MsgSize + 'static,
    {
        assert_eq!(self.role, Role::Sender, "execute_send needs a sender schedule");
        let mut moved = 0;
        for (peer, segs) in &self.pairs {
            let buf = extract_segments(local, dad.extents(), self.order, segs);
            moved += buf.len();
            ic.send(*peer, tag, buf)?;
        }
        Ok(moved)
    }

    /// Receiver side over an inter-communicator. Returns elements received.
    pub fn execute_recv<T>(
        &self,
        ic: &InterComm,
        dad: &Dad,
        local: &mut LocalArray<T>,
        tag: i32,
    ) -> Result<usize>
    where
        T: Copy + Send + MsgSize + 'static,
    {
        assert_eq!(self.role, Role::Receiver, "execute_recv needs a receiver schedule");
        let mut moved = 0;
        for (peer, segs) in &self.pairs {
            let data: Vec<T> = ic.recv(*peer, tag)?;
            moved += data.len();
            insert_segments(local, dad.extents(), self.order, segs, &data);
        }
        Ok(moved)
    }

    /// Intra-communicator redistribution: every rank posts all its sends
    /// before any receive, as [`crate::Redistribution::within`] does.
    #[allow(clippy::too_many_arguments)]
    pub fn execute_local<T>(
        send: &LinearSchedule,
        recv: &LinearSchedule,
        comm: &Comm,
        src_dad: &Dad,
        dst_dad: &Dad,
        src_local: &LocalArray<T>,
        dst_local: &mut LocalArray<T>,
        tag: i32,
    ) -> Result<usize>
    where
        T: Copy + Send + MsgSize + 'static,
    {
        assert_eq!(send.role, Role::Sender);
        assert_eq!(recv.role, Role::Receiver);
        for (peer, segs) in &send.pairs {
            let buf = extract_segments(src_local, src_dad.extents(), send.order, segs);
            comm.send(*peer, tag, buf)?;
        }
        let mut moved = 0;
        for (peer, segs) in &recv.pairs {
            let data: Vec<T> = comm.recv(*peer, tag)?;
            moved += data.len();
            insert_segments(dst_local, dst_dad.extents(), recv.order, segs, &data);
        }
        Ok(moved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region_schedule::RegionSchedule;
    use mxn_dad::Extents;
    use mxn_runtime::{Universe, World};

    #[test]
    fn agrees_with_region_schedule_on_totals() {
        let e = Extents::new([12, 8]);
        let src = Dad::block(e.clone(), &[4, 1]).unwrap();
        let dst = Dad::block(e, &[2, 2]).unwrap();
        for rank in 0..4 {
            let lin = LinearSchedule::for_sender(&src, &dst, ArrayOrder::RowMajor, rank);
            let reg = RegionSchedule::for_sender(&src, &dst, rank);
            assert_eq!(lin.total_elements(), reg.total_elements());
            assert_eq!(
                lin.pairs().iter().map(|(p, _)| *p).collect::<Vec<_>>(),
                reg.pairs().iter().map(|p| p.peer).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn end_to_end_cross_program() {
        Universe::run(&[3, 2], |_, ctx| {
            let e = Extents::new([6, 4]);
            let src = Dad::block(e.clone(), &[3, 1]).unwrap();
            let dst = Dad::block(e, &[1, 2]).unwrap();
            let order = ArrayOrder::RowMajor;
            if ctx.program == 0 {
                let sched = LinearSchedule::for_sender(&src, &dst, order, ctx.comm.rank());
                let local =
                    LocalArray::from_fn(&src, ctx.comm.rank(), |idx| (idx[0] * 4 + idx[1]) as u64);
                sched.execute_send(ctx.intercomm(1), &src, &local, 0).unwrap();
            } else {
                let sched = LinearSchedule::for_receiver(&src, &dst, order, ctx.comm.rank());
                let mut local: LocalArray<u64> = LocalArray::allocate(&dst, ctx.comm.rank());
                let moved = sched.execute_recv(ctx.intercomm(0), &dst, &mut local, 0).unwrap();
                assert_eq!(moved, local.len());
                for (idx, &v) in local.iter() {
                    assert_eq!(v, (idx[0] * 4 + idx[1]) as u64);
                }
            }
        });
    }

    #[test]
    fn intra_comm_col_major() {
        World::run(2, |p| {
            let comm = p.world();
            let e = Extents::new([4, 4]);
            let src = Dad::block(e.clone(), &[2, 1]).unwrap();
            let dst = Dad::block(e, &[1, 2]).unwrap();
            let order = ArrayOrder::ColMajor;
            let send = LinearSchedule::for_sender(&src, &dst, order, comm.rank());
            let recv = LinearSchedule::for_receiver(&src, &dst, order, comm.rank());
            let src_local =
                LocalArray::from_fn(&src, comm.rank(), |idx| (idx[0] * 4 + idx[1]) as i32);
            let mut dst_local: LocalArray<i32> = LocalArray::allocate(&dst, comm.rank());
            LinearSchedule::execute_local(
                &send,
                &recv,
                comm,
                &src,
                &dst,
                &src_local,
                &mut dst_local,
                0,
            )
            .unwrap();
            for (idx, &v) in dst_local.iter() {
                assert_eq!(v, (idx[0] * 4 + idx[1]) as i32);
            }
        });
    }

    #[test]
    fn linear_schedule_merges_fragmented_runs() {
        // Row-block → row-block with identical layouts: each rank keeps its
        // own data as one merged run (self-pair only).
        let e = Extents::new([8, 8]);
        let d = Dad::block(e, &[4, 1]).unwrap();
        for rank in 0..4 {
            let s = LinearSchedule::for_sender(&d, &d, ArrayOrder::RowMajor, rank);
            assert_eq!(s.num_messages(), 1);
            assert_eq!(s.pairs()[0].0, rank);
            assert_eq!(s.pairs()[0].1.runs().len(), 1, "contiguous rows merge");
        }
    }
}
