//! Property test: every collective route lowering moves exactly the same
//! elements as the unbudgeted (direct) [`Redistribution`] — across the
//! same five descriptor families as `pruned_equivalence.rs`, including
//! non-power-of-two rank counts and source/destination worlds of
//! different sizes.
//!
//! Lowerings are reached through budgets: a starved budget degrades to
//! single-element chunks (maximal round/fence traffic), a budget sized
//! for a drawn chunk length cuts chunks of about that length, and an
//! unlimited budget lets the model pick (allgather+slice for small
//! fields on wide communicators). Every kind forced on every drawn case —
//! whatever the model would pick — is the in-crate property test
//! `forced_routes` in `src/redistribution.rs`, over the same families.

use mxn_dad::{AxisDist, Dad, Extents, LocalArray, Template};
use mxn_runtime::{Universe, World};
use mxn_schedule::{RedistProfile, Redistribution, RouteKind, Side};
use proptest::prelude::*;

mod families;

use families::{make_dad, pick};

/// A budget under which the planner cuts chunks of about `chunk_elems`
/// `i64`s per pair (or keeps the direct route when that already fits):
/// the resident shards plus one round of such chunks and two buffers.
fn chunk_budget(src: &Dad, dst: &Dad, chunk_elems: usize, intra: bool) -> u64 {
    let p = RedistProfile::compute(src, dst, 8);
    let resident = if intra {
        p.max_src_shard_bytes + p.max_dst_shard_bytes
    } else {
        p.max_src_shard_bytes.max(p.max_dst_shard_bytes)
    };
    let pairs = p.max_send_msgs.max(p.max_recv_msgs).max(1);
    resident + (pairs + 2) * chunk_elems as u64 * 8
}

fn value(idx: &[usize], cols: usize) -> i64 {
    (idx[0] * cols + idx[1]) as i64 + 1
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cross-program (different world sizes): the chunk-sized and the
    /// starved budgeted routes deliver byte-identical arrays to the
    /// unbudgeted oracle.
    #[test]
    fn routed_inter_transfer_matches_direct_oracle(
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
        // Oracle, chunk-sized, then starved (tag separates the three).
        let budgets = [None, Some(chunk_budget(&src, &dst, chunk_elems, false)), Some(1)];
        Universe::run(&[m, n], move |_, ctx| {
            let rank = ctx.comm.rank();
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let local = LocalArray::from_fn(&src, rank, |idx| value(idx, cols));
                for (tag, budget) in budgets.into_iter().enumerate() {
                    let mut plan = Redistribution::new(&src, &dst, rank, Side::Send, budget);
                    plan.send(ic, &local, tag as i32).unwrap();
                }
            } else {
                let ic = ctx.intercomm(0);
                let mut want: LocalArray<i64> = LocalArray::allocate(&dst, rank);
                Redistribution::new(&src, &dst, rank, Side::Recv, None)
                    .recv(ic, &mut want, 0)
                    .unwrap();
                for (tag, budget) in budgets.into_iter().enumerate().skip(1) {
                    let mut plan = Redistribution::new(&src, &dst, rank, Side::Recv, budget);
                    let mut got: LocalArray<i64> = LocalArray::allocate(&dst, rank);
                    let moved = plan.recv(ic, &mut got, tag as i32).unwrap();
                    assert_eq!(moved, want.len(), "budget {budget:?} moves every element");
                    assert_eq!(got, want, "budget {budget:?} != direct for {src:?} -> {dst:?}");
                }
            }
        });
    }

    /// Intra-communicator: every budget — starved, chunk-sized and
    /// unlimited — produces the unbudgeted plan's array.
    #[test]
    fn routed_within_matches_direct_oracle(
        rows in 4..16usize,
        cols in 3..10usize,
        family in 0..5u8,
        chunk_elems in 1..4usize,
        seed in 0..u64::MAX,
    ) {
        let src = make_dad(rows, cols, family, seed);
        // The intra setting needs one rank space: pin the destination to
        // exactly the source's rank count with a gen-block axis (zero-size
        // blocks allowed, so any count works and empty shards get covered).
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
        let budgets = [Some(1), Some(chunk_budget(&src, &dst, chunk_elems, true)), Some(u64::MAX)];
        World::run(p, move |proc| {
            let comm = proc.world();
            let rank = comm.rank();
            let src_local = LocalArray::from_fn(&src, rank, |idx| value(idx, cols));
            let mut want: LocalArray<i64> = LocalArray::allocate(&dst, rank);
            Redistribution::new(&src, &dst, rank, Side::Within, None)
                .within(comm, &src_local, &mut want, 0)
                .unwrap();
            for (tag, budget) in budgets.into_iter().enumerate() {
                let mut plan = Redistribution::new(&src, &dst, rank, Side::Within, budget);
                let mut got: LocalArray<i64> = LocalArray::allocate(&dst, rank);
                plan.within(comm, &src_local, &mut got, tag as i32 + 1).unwrap();
                let kind = plan.route().map(|r| r.kind);
                assert_eq!(got, want, "{kind:?} (budget {budget:?}) != direct for {src:?} -> {dst:?}");
            }
        });
    }
}

/// Non-power-of-two and strongly asymmetric world sizes, exercised
/// deterministically (3→7, 7→3, 5→1, 1→5), with single-element chunks.
#[test]
fn asymmetric_world_sizes_chunk_correctly() {
    for (m, n) in [(3usize, 7usize), (7, 3), (5, 1), (1, 5)] {
        let rows = 21;
        let cols = 5;
        let src = Dad::block(Extents::new([rows, cols]), &[m, 1]).unwrap();
        let dst = Dad::block(Extents::new([rows, cols]), &[1, n.min(cols)]).unwrap();
        Universe::run(&[m, dst.nranks()], move |_, ctx| {
            let rank = ctx.comm.rank();
            if ctx.program == 0 {
                let mut plan = Redistribution::new(&src, &dst, rank, Side::Send, Some(1));
                let route = plan.route().unwrap();
                assert_eq!((route.kind, route.chunk_elems()), (RouteKind::Chunked, 1));
                let local = LocalArray::from_fn(&src, rank, |idx| value(idx, cols));
                plan.send(ctx.intercomm(1), &local, 0).unwrap();
            } else {
                let mut plan = Redistribution::new(&src, &dst, rank, Side::Recv, Some(1));
                let mut got: LocalArray<i64> = LocalArray::allocate(&dst, rank);
                plan.recv(ctx.intercomm(0), &mut got, 0).unwrap();
                for (idx, &v) in got.iter() {
                    assert_eq!(v, value(&idx, cols), "{m}x{n} at {idx:?}");
                }
            }
        });
    }
}

/// The allgather lowering keeps multi-patch (cyclic) source shards intact
/// through the flat round trip.
#[test]
fn allgather_slice_handles_multi_patch_sources() {
    let e = Extents::new([8, 6]);
    let src = Dad::regular(
        Template::new(e.clone(), vec![AxisDist::Cyclic { nprocs: 3 }, AxisDist::Collapsed])
            .unwrap(),
    );
    let dst = Dad::block(e, &[3, 1]).unwrap();
    World::run(3, move |proc| {
        let comm = proc.world();
        let rank = comm.rank();
        let src_local = LocalArray::from_fn(&src, rank, |idx| value(idx, 6));
        let mut want: LocalArray<i64> = LocalArray::allocate(&dst, rank);
        Redistribution::new(&src, &dst, rank, Side::Within, None)
            .within(comm, &src_local, &mut want, 0)
            .unwrap();
        // Every rank meets every peer: one allgather beats six messages.
        let mut plan = Redistribution::new(&src, &dst, rank, Side::Within, Some(u64::MAX));
        assert_eq!(plan.route().unwrap().kind, RouteKind::AllgatherSlice);
        let mut got: LocalArray<i64> = LocalArray::allocate(&dst, rank);
        plan.within(comm, &src_local, &mut got, 1).unwrap();
        assert_eq!(got, want);
    });
}
