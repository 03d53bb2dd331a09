//! Quickstart: the M×N problem of the paper's Figure 1.
//!
//! An 8-process simulation (2×2×2 process grid) and a 27-process
//! simulation (3×3×3) share one 3-D field. Run with:
//!
//! ```text
//! cargo run --example quickstart
//! ```

use mxn::dad::{Dad, Extents, LocalArray};
use mxn::runtime::Universe;
use mxn::schedule::{Redistribution, Side};

fn main() {
    let extents = Extents::new([6, 6, 6]);
    let src = Dad::block(extents.clone(), &[2, 2, 2]).unwrap(); // M = 8
    let dst = Dad::block(extents.clone(), &[3, 3, 3]).unwrap(); // N = 27
    println!("The M×N problem (Figure 1): M = {} processes → N = {}", src.nranks(), dst.nranks());
    println!("Global array: {:?} = {} elements\n", extents.dims(), extents.total());

    let value = |idx: &[usize]| (idx[0] * 36 + idx[1] * 6 + idx[2]) as f64;

    let (_, stats) = Universe::run_with_stats(&[8, 27], |_, ctx| {
        if ctx.program == 0 {
            // The "M side": owns the field in 3×3×3-element blocks.
            let rank = ctx.comm.rank();
            let mine = LocalArray::from_fn(&src, rank, value);
            // This rank's plan: its schedule, route and buffer pool.
            let mut plan = Redistribution::new(&src, &dst, rank, Side::Send, None);
            if rank == 0 {
                // How many receivers does this sender talk to?
                println!(
                    "sender 0 exports {} elements to {} of the 27 receivers",
                    plan.schedule().total_elements(),
                    plan.schedule().num_messages()
                );
            }
            plan.send(ctx.intercomm(1), &mine, 0).unwrap();
        } else {
            // The "N side": receives its 2×2×2-element block.
            let rank = ctx.comm.rank();
            let mut mine: LocalArray<f64> = LocalArray::allocate(&dst, rank);
            Redistribution::new(&src, &dst, rank, Side::Recv, None)
                .recv(ctx.intercomm(0), &mut mine, 0)
                .unwrap();
            for (idx, &v) in mine.iter() {
                assert_eq!(v, value(&idx), "wrong value at {idx:?}");
            }
            if ctx.comm.rank() == 0 {
                println!("receiver 0 verified its {} elements", mine.len());
            }
        }
    });

    println!("\ntransfer complete and verified on all 27 receivers");
    println!(
        "traffic: {} point-to-point messages, {} bytes ({} collective msgs for setup)",
        stats.p2p_messages, stats.p2p_bytes, stats.collective_messages
    );
}
