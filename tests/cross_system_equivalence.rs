//! Cross-system equivalence: the same M×N redistribution executed through
//! every mechanism in the workspace must move exactly the same data.
//!
//! This is the integration-level statement of the paper's thesis: the M×N
//! component, linearization protocols, DCA's user-specified alltoallv and
//! MCT's routers are different *interfaces* over one underlying problem
//! (§2.3's communication schedule).

use mxn::dad::{Dad, Extents, LocalArray};
use mxn::dca::{gather_from_remote, scatter_to_remote, spec_from_dads};
use mxn::linearize::{request_and_fill, serve_requests, ArrayOrder};
use mxn::mct::{AttrVect, GlobalSegMap, ModelRegistry, Rearranger, Router};
use mxn::runtime::{Universe, World};
use mxn::schedule::{LinearSchedule, Redistribution, RegionSchedule, Side};

const ROWS: usize = 12;
const COLS: usize = 8;

fn value(idx: &[usize]) -> f64 {
    (idx[0] * COLS + idx[1]) as f64 * 1.5 + 7.0
}

fn dads(m: usize, n: usize) -> (Dad, Dad) {
    let e = Extents::new([ROWS, COLS]);
    (Dad::block(e.clone(), &[m, 1]).unwrap(), Dad::block(e, &[1, n]).unwrap())
}

fn check(local: &LocalArray<f64>) {
    assert!(!local.is_empty());
    for (idx, &v) in local.iter() {
        assert_eq!(v, value(&idx), "at {idx:?}");
    }
}

#[test]
fn region_schedule_path() {
    Universe::run(&[3, 2], |_, ctx| {
        let (src, dst) = dads(3, 2);
        if ctx.program == 0 {
            let mut plan = Redistribution::new(&src, &dst, ctx.comm.rank(), Side::Send, None);
            let local = LocalArray::from_fn(&src, ctx.comm.rank(), value);
            plan.send(ctx.intercomm(1), &local, 0).unwrap();
        } else {
            let mut plan = Redistribution::new(&src, &dst, ctx.comm.rank(), Side::Recv, None);
            let mut local = LocalArray::allocate(&dst, ctx.comm.rank());
            plan.recv(ctx.intercomm(0), &mut local, 0).unwrap();
            check(&local);
        }
    });
}

#[test]
fn linear_schedule_path() {
    Universe::run(&[3, 2], |_, ctx| {
        let (src, dst) = dads(3, 2);
        let order = ArrayOrder::RowMajor;
        if ctx.program == 0 {
            let sched = LinearSchedule::for_sender(&src, &dst, order, ctx.comm.rank());
            let local = LocalArray::from_fn(&src, ctx.comm.rank(), value);
            sched.execute_send(ctx.intercomm(1), &src, &local, 0).unwrap();
        } else {
            let sched = LinearSchedule::for_receiver(&src, &dst, order, ctx.comm.rank());
            let mut local = LocalArray::allocate(&dst, ctx.comm.rank());
            sched.execute_recv(ctx.intercomm(0), &dst, &mut local, 0).unwrap();
            check(&local);
        }
    });
}

#[test]
fn receiver_request_protocol_path() {
    Universe::run(&[3, 2], |_, ctx| {
        let (src, dst) = dads(3, 2);
        let order = ArrayOrder::RowMajor;
        if ctx.program == 0 {
            let local = LocalArray::from_fn(&src, ctx.comm.rank(), value);
            serve_requests(ctx.intercomm(1), &src, order, &local).unwrap();
        } else {
            let mut local: LocalArray<f64> = LocalArray::allocate(&dst, ctx.comm.rank());
            request_and_fill(ctx.intercomm(0), &dst, order, &mut local).unwrap();
            check(&local);
        }
    });
}

#[test]
fn dca_alltoallv_path() {
    Universe::run(&[3, 2], |_, ctx| {
        let (src, dst) = dads(3, 2);
        if ctx.program == 0 {
            let rank = ctx.comm.rank();
            let local = LocalArray::from_fn(&src, rank, value);
            let (flat, spec) = spec_from_dads(&src, &dst, rank, &local);
            scatter_to_remote(ctx.intercomm(1), &flat, &spec, 1).unwrap();
        } else {
            let rank = ctx.comm.rank();
            let sched = RegionSchedule::for_receiver(&src, &dst, rank);
            let chunks = gather_from_remote(ctx.intercomm(0), 1).unwrap();
            let mut local: LocalArray<f64> = LocalArray::allocate(&dst, rank);
            for pair in sched.pairs() {
                let mut cursor = 0;
                for region in &pair.regions {
                    local.unpack_region(region, &chunks[pair.peer][cursor..cursor + region.len()]);
                    cursor += region.len();
                }
            }
            check(&local);
        }
    });
}

/// MCT path: the same redistribution expressed as segment maps over the
/// row-major numbering, moved by a Router between two components.
#[test]
fn mct_router_path() {
    World::run(5, |p| {
        let world = p.world();
        let my_comp = if p.rank() < 3 { 1u32 } else { 2 };
        let reg = ModelRegistry::init(world, my_comp).unwrap();
        let (src, dst) = dads(3, 2);
        // Convert the DADs into segment maps over the linearization.
        let to_gsmap = |dad: &Dad, nranks: usize| {
            let mut segs = Vec::new();
            for r in 0..nranks {
                for (s, l) in ArrayOrder::RowMajor.rank_segments(dad, r).runs() {
                    segs.push(mxn::mct::Segment { start: *s, length: *l, rank: r });
                }
            }
            GlobalSegMap::new(ROWS * COLS, nranks, segs).unwrap()
        };
        let src_map = to_gsmap(&src, 3);
        let dst_map = to_gsmap(&dst, 2);
        if my_comp == 1 {
            let me = p.rank();
            let router = Router::new(&src_map, me, &dst_map, &reg, 2).unwrap();
            let mut av = AttrVect::new(&["f"], &[], src_map.lsize(me));
            for l in 0..av.lsize() {
                let g = src_map.global_index(me, l).unwrap();
                av.real_mut("f")[l] = value(&[g / COLS, g % COLS]);
            }
            router.send(world, &av, 2).unwrap();
        } else {
            let me = p.rank() - 3;
            let router = Router::new(&dst_map, me, &src_map, &reg, 1).unwrap();
            let mut av = AttrVect::new(&["f"], &[], dst_map.lsize(me));
            router.recv(world, &mut av, 2).unwrap();
            for l in 0..av.lsize() {
                let g = dst_map.global_index(me, l).unwrap();
                assert_eq!(av.real("f")[l], value(&[g / COLS, g % COLS]));
            }
        }
    });
}

/// Intra-program: a schedule-based within plan and the MCT
/// rearranger agree on a transpose-style move.
#[test]
fn rearranger_matches_schedule_redistribution() {
    World::run(4, |p| {
        let comm = p.world();
        let me = comm.rank();
        let (src, dst) = dads(4, 4);
        let src_local = LocalArray::from_fn(&src, me, value);
        let mut via_schedule = LocalArray::allocate(&dst, me);
        Redistribution::new(&src, &dst, me, Side::Within, None)
            .within(comm, &src_local, &mut via_schedule, 3)
            .unwrap();
        check(&via_schedule);

        // The same move through MCT's rearranger.
        let to_gsmap = |dad: &Dad| {
            let mut segs = Vec::new();
            for r in 0..4 {
                for (s, l) in ArrayOrder::RowMajor.rank_segments(dad, r).runs() {
                    segs.push(mxn::mct::Segment { start: *s, length: *l, rank: r });
                }
            }
            GlobalSegMap::new(ROWS * COLS, 4, segs).unwrap()
        };
        let (sm, dm) = (to_gsmap(&src), to_gsmap(&dst));
        let re = Rearranger::new(&sm, &dm, me).unwrap();
        let mut sav = AttrVect::new(&["f"], &[], sm.lsize(me));
        for l in 0..sav.lsize() {
            let g = sm.global_index(me, l).unwrap();
            sav.real_mut("f")[l] = value(&[g / COLS, g % COLS]);
        }
        let mut dav = AttrVect::new(&["f"], &[], dm.lsize(me));
        re.rearrange(comm, &sav, &mut dav, 4).unwrap();

        // Agreement, point by point.
        for l in 0..dav.lsize() {
            let g = dm.global_index(me, l).unwrap();
            let idx = [g / COLS, g % COLS];
            assert_eq!(dav.real("f")[l], *via_schedule.get(&idx).unwrap());
        }
    });
}
