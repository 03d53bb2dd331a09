//! The redistribution plan value.
//!
//! "This schedule is computed prior to the transfer operation, and can be
//! reused in consecutive transfers, and even for different arrays as long
//! as they conform to the same distribution template" (paper §2.3). A
//! [`Redistribution`] is that schedule as one value per rank: built once
//! from `(src, dst, rank, side, budget)`, it owns this rank's
//! [`RegionSchedule`]s, the [`RedistRoute`] they run over and a
//! [`TransferBuffers`] pool. Reuse across transfers and across arrays on
//! the same templates comes from holding the value; a coupling whose
//! membership changes builds a new one, so a plan can never be stale.
//!
//! Every transfer runs through one `match` on the route's kind:
//!
//! * no budget — the direct lowering: one packed message per overlapping
//!   peer. Nothing is profiled and no route span is emitted.
//! * a budget — the route [`RoutePlanner`] picks for it (direct, chunked
//!   rounds, or — within one communicator only — allgather+slice),
//!   profiled once at build time and traced as `RoutePlan`/`RouteStep`
//!   spans on every transfer, with live transfer bytes threaded through
//!   [`record_transfer_acquired`] / [`record_transfer_released`].

use mxn_dad::{Dad, LocalArray};
use mxn_runtime::{
    record_transfer_acquired, record_transfer_released, Comm, InterComm, MsgSize, Result,
};
use mxn_trace::EventId;

use crate::plan::{CopyPlan, TransferBuffers};
use crate::region_schedule::RegionSchedule;
use crate::route::{RedistRoute, RouteKind, RoutePlanner, ROUTE_ACK_BIT};

/// Which part of a redistribution a plan drives on this rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// Exports this rank's `src` shard across an inter-communicator.
    Send,
    /// Imports this rank's `dst` shard across an inter-communicator.
    Recv,
    /// Both, over one communicator (a self-connection such as a transpose).
    Within,
}

/// One rank's reusable plan for redistributing arrays from `src` to `dst`.
#[derive(Debug)]
pub struct Redistribution<T> {
    /// Sender schedule ([`Side::Send`] and [`Side::Within`] plans).
    send: Option<RegionSchedule>,
    /// Receiver schedule ([`Side::Recv`] and [`Side::Within`] plans).
    recv: Option<RegionSchedule>,
    /// Source descriptor, kept only by allgather+slice plans (which only
    /// within plans can be): it slices peers' gathered shards.
    src: Option<Dad>,
    /// The planned route; `None` is the unbudgeted direct lowering.
    route: Option<RedistRoute>,
    pool: TransferBuffers<T>,
}

/// A buffer pool sized for a route: the idle pool may keep at most the
/// budget headroom above the resident shards, so pooling itself can never
/// break the declared peak.
fn budget_pool<T>(route: &RedistRoute) -> TransferBuffers<T> {
    let headroom = route.budget_bytes.saturating_sub(route.peak_bytes.min(route.budget_bytes));
    // Always leave room for at least one in-flight buffer's worth.
    let floor = (route.peak_bytes / 4).max(4096);
    TransferBuffers::with_byte_cap(16, headroom.max(floor) as usize)
}

impl<T> Redistribution<T>
where
    T: Copy + Send + Sync + MsgSize + 'static,
{
    /// Plans `rank`'s `side` of the redistribution `src → dst`. With a
    /// per-rank peak-memory `budget` (bytes) the fastest route whose
    /// declared peak fits is chosen; both sides must pass the same budget,
    /// since the route is a pure function of `(src, dst, element size,
    /// budget)`. `rank` is in `src`'s rank space for [`Side::Send`] and in
    /// `dst`'s for [`Side::Recv`] and [`Side::Within`].
    ///
    /// # Panics
    /// If the descriptors do not share global extents.
    pub fn new(src: &Dad, dst: &Dad, rank: usize, side: Side, budget: Option<u64>) -> Self {
        let within = side == Side::Within;
        let route =
            budget.map(|b| RoutePlanner::default().plan_for(src, dst, size_of::<T>(), b, within));
        let gathers = route.as_ref().is_some_and(|r| r.kind == RouteKind::AllgatherSlice);
        let send = (side != Side::Recv).then(|| RegionSchedule::for_sender(src, dst, rank));
        let recv = (side != Side::Send).then(|| RegionSchedule::for_receiver(src, dst, rank));
        // Only a within plan re-leases the buffers it has received; any
        // other pool would only ever hand out fresh ones, so it keeps none.
        let pool = if within {
            route.as_ref().map_or_else(TransferBuffers::new, budget_pool)
        } else {
            TransferBuffers::with_max_free(0)
        };
        Redistribution { send, recv, src: gathers.then(|| src.clone()), route, pool }
    }

    /// The side this plan was built for, read off the schedules it holds.
    fn side(&self) -> Side {
        match (&self.send, &self.recv) {
            (Some(_), None) => Side::Send,
            (None, Some(_)) => Side::Recv,
            _ => Side::Within,
        }
    }

    /// Sends `local` (this rank's `src` shard) across `ic`. Returns the
    /// elements sent.
    ///
    /// # Panics
    /// If the plan was not built for [`Side::Send`], or `local` does not
    /// have the layout of this rank's `src` shard.
    pub fn send(&mut self, ic: &InterComm, local: &LocalArray<T>, tag: i32) -> Result<usize> {
        assert_eq!(self.side(), Side::Send, "send needs a plan built for Side::Send");
        self.transfer(Link::Inter(ic), Some(local), None, tag)
    }

    /// Receives across `ic` into caller-owned `local` (this rank's `dst`
    /// shard), overwriting every element the redistribution covers.
    /// Returns the elements received.
    ///
    /// # Panics
    /// If the plan was not built for [`Side::Recv`], or `local` does not
    /// have the layout of this rank's `dst` shard.
    pub fn recv(&mut self, ic: &InterComm, local: &mut LocalArray<T>, tag: i32) -> Result<usize> {
        assert_eq!(self.side(), Side::Recv, "recv needs a plan built for Side::Recv");
        self.transfer(Link::Inter(ic), None, Some(local), tag)
    }

    /// Redistributes within one communicator: every rank of `comm` calls
    /// this collectively, sending from `src_local` and receiving into
    /// `dst_local`. All of a round's sends are posted before its receives,
    /// so the exchange cannot deadlock, and buffers received in one call
    /// are leased again by the next. Returns the elements received.
    ///
    /// # Panics
    /// If the plan was not built for [`Side::Within`], or a shard's layout
    /// does not match its descriptor.
    pub fn within(
        &mut self,
        comm: &Comm,
        src_local: &LocalArray<T>,
        dst_local: &mut LocalArray<T>,
        tag: i32,
    ) -> Result<usize> {
        assert_eq!(self.side(), Side::Within, "within needs a plan built for Side::Within");
        self.transfer(Link::Intra(comm), Some(src_local), Some(dst_local), tag)
    }

    fn transfer(
        &mut self,
        link: Link<'_>,
        src_local: Option<&LocalArray<T>>,
        dst_local: Option<&mut LocalArray<T>>,
        tag: i32,
    ) -> Result<usize> {
        let Redistribution { send, recv, src, route, pool } = self;
        let out = send.as_ref().zip(src_local);
        let inc = recv.as_ref().zip(dst_local);
        let Some(route) = route else {
            return direct(link, out, inc, tag, pool);
        };
        let code = route.kind.code();
        let mut span = mxn_trace::span(
            EventId::RoutePlan,
            [code, route.budget_bytes, route.peak_bytes, route.steps.len() as u64],
        );
        let moved = match (route.kind, link, src.as_ref(), out, inc) {
            (RouteKind::Chunked, link, _, out, inc) => {
                chunked(code, route.chunk_elems().max(1), link, out, inc, tag, pool)?
            }
            (
                RouteKind::AllgatherSlice,
                Link::Intra(comm),
                Some(src),
                Some((_, src_local)),
                Some(inc),
            ) => allgather(code, comm, src, src_local, inc, pool)?,
            // Only within plans are planned with the allgather candidate
            // (and keep `src` for it), so everything else is direct.
            (_, link, _, out, inc) => {
                let mut step = mxn_trace::span(EventId::RouteStep, [code, 0, 0, 0]);
                let moved = direct(link, out, inc, tag, pool)?;
                step.set_end([code, 0, bytes::<T>(moved), 0]);
                moved
            }
        };
        span.set_end([code, bytes::<T>(moved), 0, 0]);
        Ok(moved)
    }
}

impl<T> Redistribution<T> {
    /// This plan's schedule: the sender's for a [`Side::Send`] plan, the
    /// receiver's otherwise.
    pub fn schedule(&self) -> &RegionSchedule {
        self.recv.as_ref().or(self.send.as_ref()).expect("every plan holds a schedule")
    }

    /// The rank this plan was built for.
    pub fn rank(&self) -> usize {
        self.schedule().rank()
    }

    /// The planned route (`None` for an unbudgeted plan).
    pub fn route(&self) -> Option<&RedistRoute> {
        self.route.as_ref()
    }

    /// The budget the route was planned under (`None` when unbudgeted).
    pub fn budget(&self) -> Option<u64> {
        self.route.as_ref().map(|r| r.budget_bytes)
    }

    /// The plan's buffer pool (its lease statistics show reuse).
    pub fn pool(&self) -> &TransferBuffers<T> {
        &self.pool
    }
}

fn bytes<T>(elements: usize) -> u64 {
    (elements * size_of::<T>()) as u64
}

/// The communicator a transfer runs over.
#[derive(Clone, Copy)]
enum Link<'a> {
    Inter(&'a InterComm),
    Intra(&'a Comm),
}

impl Link<'_> {
    fn send<M: Send + MsgSize + 'static>(self, peer: usize, tag: i32, msg: M) -> Result<()> {
        match self {
            Link::Inter(ic) => ic.send(peer, tag, msg),
            Link::Intra(comm) => comm.send(peer, tag, msg),
        }
    }

    fn recv<M: 'static>(self, peer: usize, tag: i32) -> Result<M> {
        match self {
            Link::Inter(ic) => ic.recv(peer, tag),
            Link::Intra(comm) => comm.recv(peer, tag),
        }
    }
}

/// The outgoing half of a transfer: the sender schedule and its shard.
type Out<'a, T> = Option<(&'a RegionSchedule, &'a LocalArray<T>)>;
/// The incoming half: the receiver schedule and the storage it fills.
type In<'a, T> = Option<(&'a RegionSchedule, &'a mut LocalArray<T>)>;

/// The direct lowering: one packed message per peer, all sends posted
/// before any receive. Returns elements received, or sent when this rank
/// only sends.
fn direct<T>(
    link: Link<'_>,
    out: Out<'_, T>,
    inc: In<'_, T>,
    tag: i32,
    pool: &mut TransferBuffers<T>,
) -> Result<usize>
where
    T: Copy + Send + MsgSize + 'static,
{
    let mut sent = 0;
    if let Some((sched, local)) = out {
        sched.check_layout(local);
        for (i, pair) in sched.pairs().iter().enumerate() {
            let plan = sched.plan(i);
            let mut buf = pool.lease(plan.total());
            plan.pack_into(local, &mut buf);
            sent += buf.len();
            link.send(pair.peer, tag, buf)?;
        }
    }
    let Some((sched, local)) = inc else { return Ok(sent) };
    sched.check_layout(local);
    let mut received = 0;
    for (i, pair) in sched.pairs().iter().enumerate() {
        let data: Vec<T> = link.recv(pair.peer, tag)?;
        received += data.len();
        sched.plan(i).unpack_from(local, &data);
        pool.recycle(data);
    }
    Ok(received)
}

/// Per-pair round counts under a chunk size, identical on both sides by
/// the schedule mirror property.
fn pair_rounds(sched: &RegionSchedule, chunk: usize) -> Vec<usize> {
    (0..sched.pairs().len()).map(|i| sched.plan(i).total().div_ceil(chunk)).collect()
}

/// The chunked lowering: fenced rounds of at most `chunk` elements per
/// pair. Per round every rank posts its sends, drains its receives, acks
/// the pairs that still have data coming, then waits for its own acks — a
/// sender never posts round *k+1* to a pair before that pair's round-*k*
/// ack, which bounds every mailbox to one round of chunks. All sends
/// precede every blocking receive, so no round can deadlock.
fn chunked<T>(
    code: u64,
    chunk: usize,
    link: Link<'_>,
    out: Out<'_, T>,
    mut inc: In<'_, T>,
    tag: i32,
    pool: &mut TransferBuffers<T>,
) -> Result<usize>
where
    T: Copy + Send + MsgSize + 'static,
{
    let srounds = out.map_or_else(Vec::new, |(sched, _)| pair_rounds(sched, chunk));
    let rrounds = inc.as_ref().map_or_else(Vec::new, |(sched, _)| pair_rounds(sched, chunk));
    let max_rounds = srounds.iter().chain(&rrounds).copied().max().unwrap_or(0);
    let (mut sent, mut received) = (0, 0);
    for k in 0..max_rounds {
        let mut step = mxn_trace::span(EventId::RouteStep, [code, k as u64, 0, 0]);
        let mut posted = 0u64;
        if let Some((sched, local)) = out {
            for (i, pair) in sched.pairs().iter().enumerate() {
                if k >= srounds[i] {
                    continue;
                }
                let plan = sched.plan(i);
                let lo = k * chunk;
                let hi = (lo + chunk).min(plan.total());
                let mut buf = pool.lease(hi - lo);
                plan.pack_range_into(local, &mut buf, lo, hi);
                let b = bytes::<T>(buf.len());
                record_transfer_acquired(b);
                sent += buf.len();
                link.send(pair.peer, tag, buf)?;
                // The transport owns the buffer now; the receiver's
                // mailbox accounting carries it from here.
                record_transfer_released(b);
                posted += b;
            }
        }
        let mut drained = 0;
        if let Some((sched, local)) = inc.as_mut() {
            for (i, pair) in sched.pairs().iter().enumerate() {
                if k >= rrounds[i] {
                    continue;
                }
                let data: Vec<T> = link.recv(pair.peer, tag)?;
                let b = bytes::<T>(data.len());
                record_transfer_acquired(b);
                let lo = k * chunk;
                sched.plan(i).unpack_range_from(local, &data, lo, lo + data.len());
                record_transfer_released(b);
                drained += data.len();
                pool.recycle(data);
            }
            // Ack only after the whole round is unpacked, and only to
            // pairs that still have data coming.
            for (i, pair) in sched.pairs().iter().enumerate() {
                if k + 1 < rrounds[i] {
                    link.send(pair.peer, tag | ROUTE_ACK_BIT, 1u8)?;
                }
            }
        }
        received += drained;
        if let Some((sched, _)) = out {
            for (i, pair) in sched.pairs().iter().enumerate() {
                if k + 1 < srounds[i] {
                    let _ack: u8 = link.recv(pair.peer, tag | ROUTE_ACK_BIT)?;
                }
            }
        }
        let step_bytes = if out.is_some() { posted } else { bytes::<T>(drained) };
        step.set_end([code, k as u64, step_bytes, 0]);
    }
    Ok(if inc.is_some() { received } else { sent })
}

/// The allgather+slice lowering (within one communicator): gather every
/// rank's flat shard, then slice the needed regions out locally.
fn allgather<T>(
    code: u64,
    comm: &Comm,
    src: &Dad,
    src_local: &LocalArray<T>,
    (recv, dst_local): (&RegionSchedule, &mut LocalArray<T>),
    pool: &mut TransferBuffers<T>,
) -> Result<usize>
where
    T: Copy + Send + Sync + MsgSize + 'static,
{
    assert_eq!(
        comm.size(),
        src.nranks(),
        "allgather-slice needs the communicator to span the source decomposition"
    );
    let mut gather = mxn_trace::span(EventId::RouteStep, [code, 0, 0, 0]);
    let mut shards: Vec<Vec<T>> = comm.allgather(src_local.to_flat())?;
    let total_bytes: u64 = shards.iter().map(|s| bytes::<T>(s.len())).sum();
    record_transfer_acquired(total_bytes);
    gather.set_end([code, 0, total_bytes, 0]);

    let mut slice = mxn_trace::span(EventId::RouteStep, [code, 1, 0, 0]);
    let mut moved = 0;
    for (i, pair) in recv.pairs().iter().enumerate() {
        let peer = LocalArray::from_flat(src, pair.peer, std::mem::take(&mut shards[pair.peer]));
        let cut = CopyPlan::compile(&src.patches(pair.peer), &pair.regions);
        let mut buf = pool.lease(cut.total());
        cut.pack_into(&peer, &mut buf);
        recv.plan(i).unpack_from(dst_local, &buf);
        moved += buf.len();
        pool.recycle(buf);
    }
    record_transfer_released(total_bytes);
    slice.set_end([code, 1, bytes::<T>(moved), 0]);
    Ok(moved)
}

#[cfg(test)]
#[path = "../tests/families/mod.rs"]
mod families;

#[cfg(test)]
mod tests {
    use super::*;
    use mxn_dad::{AxisDist, Extents, Template};
    use mxn_runtime::{Universe, World};

    fn value(idx: &[usize], cols: usize) -> f64 {
        (idx[0] * cols + idx[1]) as f64
    }

    /// One transfer `src → dst` between an `m`-rank and an `n`-rank
    /// program, checked element by element on the receivers.
    fn end_to_end(m: usize, n: usize, src: Dad, dst: Dad) {
        let cols = src.extents().dims()[1];
        Universe::run(&[m, n], move |_, ctx| {
            let rank = ctx.comm.rank();
            if ctx.program == 0 {
                let local = LocalArray::from_fn(&src, rank, |idx| value(idx, cols));
                let mut plan = Redistribution::new(&src, &dst, rank, Side::Send, None);
                plan.send(ctx.intercomm(1), &local, 1).unwrap();
            } else {
                let mut plan = Redistribution::new(&src, &dst, rank, Side::Recv, None);
                let mut local: LocalArray<f64> = LocalArray::allocate(&dst, rank);
                let moved = plan.recv(ctx.intercomm(0), &mut local, 1).unwrap();
                assert_eq!(moved, local.len());
                for (idx, &v) in local.iter() {
                    assert_eq!(v, value(&idx, cols), "at {idx:?}");
                }
            }
        });
    }

    fn blocks(rows: usize, cols: usize, grid: &[usize]) -> Dad {
        Dad::block(Extents::new([rows, cols]), grid).unwrap()
    }

    #[test]
    fn rows_to_cols_2x2() {
        end_to_end(2, 2, blocks(6, 6, &[2, 1]), blocks(6, 6, &[1, 2]));
    }

    #[test]
    fn figure1_8_to_6_shape() {
        // The paper's Figure 1 layout in 2-D grids: 8 = 4×2 → 6 = 2×3.
        end_to_end(8, 6, blocks(12, 12, &[4, 2]), blocks(12, 12, &[2, 3]));
    }

    #[test]
    fn one_to_many_and_many_to_one() {
        end_to_end(1, 6, blocks(6, 6, &[1, 1]), blocks(6, 6, &[2, 3]));
        end_to_end(6, 1, blocks(6, 6, &[2, 3]), blocks(6, 6, &[1, 1]));
    }

    #[test]
    fn block_cyclic_source() {
        let e = Extents::new([8, 4]);
        let src = Dad::regular(
            Template::new(
                e.clone(),
                vec![AxisDist::BlockCyclic { block: 2, nprocs: 2 }, AxisDist::Collapsed],
            )
            .unwrap(),
        );
        end_to_end(2, 2, src, Dad::block(e, &[2, 1]).unwrap());
    }

    /// §2.3 reuse: one plan value moves two different arrays aligned to
    /// the same template, correctly both times.
    #[test]
    fn one_plan_moves_two_arrays_on_the_same_template() {
        Universe::run(&[2, 3], |_, ctx| {
            let (src, dst) = (blocks(6, 6, &[2, 1]), blocks(6, 6, &[1, 3]));
            let rank = ctx.comm.rank();
            if ctx.program == 0 {
                let density = LocalArray::from_fn(&src, rank, |idx| value(idx, 6));
                let pressure = LocalArray::from_fn(&src, rank, |idx| -value(idx, 6) - 1.0);
                let mut plan = Redistribution::new(&src, &dst, rank, Side::Send, None);
                plan.send(ctx.intercomm(1), &density, 0).unwrap();
                plan.send(ctx.intercomm(1), &pressure, 1).unwrap();
            } else {
                let mut plan = Redistribution::new(&src, &dst, rank, Side::Recv, None);
                let mut density: LocalArray<f64> = LocalArray::allocate(&dst, rank);
                let mut pressure: LocalArray<f64> = LocalArray::allocate(&dst, rank);
                plan.recv(ctx.intercomm(0), &mut density, 0).unwrap();
                plan.recv(ctx.intercomm(0), &mut pressure, 1).unwrap();
                for ((idx, &d), (_, &p)) in density.iter().zip(pressure.iter()) {
                    assert_eq!(d, value(&idx, 6));
                    assert_eq!(p, -value(&idx, 6) - 1.0);
                }
            }
        });
    }

    #[test]
    fn pooled_transpose_stops_allocating_after_first_step() {
        World::run(4, |p| {
            let comm = p.world();
            let (src, dst) = (blocks(8, 8, &[4, 1]), blocks(8, 8, &[1, 4]));
            let mut plan = Redistribution::new(&src, &dst, comm.rank(), Side::Within, None);
            let messages = RegionSchedule::for_sender(&src, &dst, comm.rank()).num_messages();
            let mut dst_local: LocalArray<f64> = LocalArray::allocate(&dst, comm.rank());
            let mut after_first = 0;
            for step in 0..6 {
                let src_local =
                    LocalArray::from_fn(&src, comm.rank(), |idx| value(idx, 8) + step as f64);
                let moved = plan.within(comm, &src_local, &mut dst_local, step).unwrap();
                assert_eq!(moved, 16);
                for (idx, &v) in dst_local.iter() {
                    assert_eq!(v, value(&idx, 8) + step as f64);
                }
                // Everyone recycles what they received before the next
                // step's sends, so the steady state leases from the pool.
                comm.barrier().unwrap();
                if step == 0 {
                    after_first = plan.pool().stats().1;
                }
            }
            let (leases, fresh) = plan.pool().stats();
            assert_eq!(leases, 6 * messages as u64);
            assert_eq!(fresh, after_first, "steady-state steps allocated fresh buffers");
        });
    }

    /// Every lowering forced on every drawn case, so each executor runs
    /// whatever the cost model would pick: chunked (with the drawn chunk
    /// length) across programs, and chunked, allgather+slice and direct
    /// within one communicator, each against the unbudgeted plan, over the
    /// five descriptor families of `tests/route_equivalence.rs`.
    mod forced_routes {
        use super::*;
        use crate::route::{RouteStep, StepOp};
        use proptest::prelude::*;
        use std::time::Duration;

        use crate::redistribution::families::{make_dad, pick};

        /// `plan` with its route replaced by a hand-forced one of `kind`
        /// (the lowerings read only the kind and, for chunked, the chunk
        /// length; cost fields are irrelevant).
        fn forced<T>(
            mut plan: Redistribution<T>,
            src: &Dad,
            kind: RouteKind,
            chunk_elems: usize,
        ) -> Redistribution<T> {
            let op = match kind {
                RouteKind::Chunked => StepOp::ChunkRounds { rounds: 0, chunk_elems },
                RouteKind::Direct => StepOp::DirectExchange,
                RouteKind::AllgatherSlice => StepOp::Allgather,
            };
            plan.route = Some(RedistRoute {
                kind,
                steps: vec![RouteStep { op, bytes: 0, peak_bytes: 0 }],
                peak_bytes: 0,
                est_time: Duration::ZERO,
                budget_bytes: u64::MAX,
                fits: true,
            });
            if kind == RouteKind::AllgatherSlice {
                plan.src = Some(src.clone());
            }
            plan
        }

        fn value(idx: &[usize], cols: usize) -> i64 {
            (idx[0] * cols + idx[1]) as i64 + 1
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            #[test]
            fn forced_chunked_inter_transfer_matches_direct(
                rows in 4..16usize,
                cols in 3..10usize,
                src_family in 0..5u8,
                dst_family in 0..5u8,
                chunk_elems in 1..5usize,
                seed in 0..u64::MAX,
            ) {
                let src = make_dad(rows, cols, src_family, seed);
                let dst = make_dad(rows, cols, dst_family, seed ^ 0x5851_f42d_4c95_7f2d);
                let (m, n) = (src.nranks(), dst.nranks());
                Universe::run(&[m, n], move |_, ctx| {
                    let rank = ctx.comm.rank();
                    if ctx.program == 0 {
                        let ic = ctx.intercomm(1);
                        let local = LocalArray::from_fn(&src, rank, |idx| value(idx, cols));
                        Redistribution::new(&src, &dst, rank, Side::Send, None)
                            .send(ic, &local, 0)
                            .unwrap();
                        let plan = Redistribution::new(&src, &dst, rank, Side::Send, None);
                        forced(plan, &src, RouteKind::Chunked, chunk_elems)
                            .send(ic, &local, 1)
                            .unwrap();
                    } else {
                        let ic = ctx.intercomm(0);
                        let mut want: LocalArray<i64> = LocalArray::allocate(&dst, rank);
                        Redistribution::new(&src, &dst, rank, Side::Recv, None)
                            .recv(ic, &mut want, 0)
                            .unwrap();
                        let plan = Redistribution::new(&src, &dst, rank, Side::Recv, None);
                        let mut plan = forced(plan, &src, RouteKind::Chunked, chunk_elems);
                        let mut got: LocalArray<i64> = LocalArray::allocate(&dst, rank);
                        let moved = plan.recv(ic, &mut got, 1).unwrap();
                        assert_eq!(moved, want.len(), "chunked route moves every element");
                        assert_eq!(got, want, "chunked != direct for {src:?} -> {dst:?}");
                    }
                });
            }

            #[test]
            fn forced_within_routes_match_direct(
                rows in 4..16usize,
                cols in 3..10usize,
                family in 0..5u8,
                chunk_elems in 1..4usize,
                seed in 0..u64::MAX,
            ) {
                let src = make_dad(rows, cols, family, seed);
                // One rank space: a gen-block destination over exactly the
                // source's rank count (empty blocks allowed).
                let p = src.nranks();
                let mut s2 = seed ^ 0xabcd_ef01;
                let mut sizes = vec![0usize; p];
                for _ in 0..rows {
                    sizes[pick(&mut s2, 0, p)] += 1;
                }
                let dst = Dad::regular(
                    Template::new(
                        Extents::new([rows, cols]),
                        vec![AxisDist::GenBlock { sizes }, AxisDist::Collapsed],
                    )
                    .unwrap(),
                );
                World::run(p, move |proc| {
                    let comm = proc.world();
                    let rank = comm.rank();
                    let src_local = LocalArray::from_fn(&src, rank, |idx| value(idx, cols));
                    let mut want: LocalArray<i64> = LocalArray::allocate(&dst, rank);
                    Redistribution::new(&src, &dst, rank, Side::Within, None)
                        .within(comm, &src_local, &mut want, 0)
                        .unwrap();
                    for (tag, kind) in
                        [(1, RouteKind::Chunked), (2, RouteKind::AllgatherSlice), (3, RouteKind::Direct)]
                    {
                        let plan = Redistribution::new(&src, &dst, rank, Side::Within, None);
                        let mut plan = forced(plan, &src, kind, chunk_elems);
                        let mut got: LocalArray<i64> = LocalArray::allocate(&dst, rank);
                        plan.within(comm, &src_local, &mut got, tag).unwrap();
                        assert_eq!(got, want, "{kind:?} != direct for {src:?} -> {dst:?}");
                    }
                });
            }
        }
    }

    #[test]
    fn budgeted_transfer_chunks_under_tight_budget() {
        // Tight enough that the full receive set cannot sit in the
        // mailbox, loose enough that fenced chunks fit.
        let budget = 2000u64;
        let (src, dst) = (blocks(24, 24, &[2, 1]), blocks(24, 24, &[3, 1]));
        let plan: Redistribution<f32> =
            Redistribution::new(&src, &dst, 0, Side::Recv, Some(budget));
        let route = plan.route().unwrap();
        assert_eq!(route.kind, RouteKind::Chunked);
        assert!(route.fits && route.rounds() > 1);
        assert_eq!(plan.budget(), Some(budget));
        Universe::run(&[2, 3], move |_, ctx| {
            let (src, dst) = (blocks(24, 24, &[2, 1]), blocks(24, 24, &[3, 1]));
            let rank = ctx.comm.rank();
            if ctx.program == 0 {
                let local = LocalArray::from_fn(&src, rank, |idx| (idx[0] * 24 + idx[1]) as f32);
                let mut plan = Redistribution::new(&src, &dst, rank, Side::Send, Some(budget));
                plan.send(ctx.intercomm(1), &local, 0).unwrap();
            } else {
                let mut plan = Redistribution::new(&src, &dst, rank, Side::Recv, Some(budget));
                let mut local: LocalArray<f32> = LocalArray::allocate(&dst, rank);
                assert_eq!(plan.recv(ctx.intercomm(0), &mut local, 0).unwrap(), 192);
                for (idx, &v) in local.iter() {
                    assert_eq!(v, (idx[0] * 24 + idx[1]) as f32);
                }
            }
        });
    }

    #[test]
    fn budgeted_within_matches_direct_results() {
        World::run(3, |p| {
            let comm = p.world();
            let (src, dst) = (blocks(12, 12, &[3, 1]), blocks(12, 12, &[1, 3]));
            let src_local = LocalArray::from_fn(&src, comm.rank(), |idx| value(idx, 12));
            // Unbudgeted, starved (best-effort chunked) and unlimited
            // (whatever the model calls fastest) must agree.
            for (tag, budget) in [(4, None), (5, Some(1u64)), (6, Some(u64::MAX))] {
                let mut plan = Redistribution::new(&src, &dst, comm.rank(), Side::Within, budget);
                let mut got: LocalArray<f64> = LocalArray::allocate(&dst, comm.rank());
                plan.within(comm, &src_local, &mut got, tag).unwrap();
                for (idx, &v) in got.iter() {
                    assert_eq!(v, value(&idx, 12), "budget {budget:?} at {idx:?}");
                }
            }
        });
    }

    /// The unbudgeted plan is the untraced direct loop: no route is
    /// profiled and no `RoutePlan`/`RouteStep` span is emitted. A
    /// budgeted plan emits both on every transfer.
    #[test]
    fn only_budgeted_plans_emit_route_spans() {
        for budget in [None, Some(u64::MAX)] {
            let (_, trace) = Universe::run_traced(&[2, 2], move |_, ctx| {
                let (src, dst) = (blocks(4, 4, &[2, 1]), blocks(4, 4, &[1, 2]));
                let rank = ctx.comm.rank();
                if ctx.program == 0 {
                    let local = LocalArray::from_fn(&src, rank, |idx| value(idx, 4));
                    let mut plan = Redistribution::new(&src, &dst, rank, Side::Send, budget);
                    assert_eq!(plan.route().is_some(), budget.is_some());
                    plan.send(ctx.intercomm(1), &local, 0).unwrap();
                } else {
                    let mut plan = Redistribution::new(&src, &dst, rank, Side::Recv, budget);
                    let mut local: LocalArray<f64> = LocalArray::allocate(&dst, rank);
                    plan.recv(ctx.intercomm(0), &mut local, 0).unwrap();
                }
            });
            let agg = trace.aggregate();
            let want = if budget.is_some() { 4 } else { 0 };
            assert_eq!(agg.count(EventId::RoutePlan), want, "budget {budget:?}");
            assert_eq!(agg.count(EventId::RouteStep), want, "budget {budget:?}");
        }
    }
}
