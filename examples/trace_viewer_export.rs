//! Runs a traced M×N redistribution and exports the merged trace as
//! Chrome trace-event JSON (load in `chrome://tracing` or Perfetto).
//!
//! ```text
//! cargo run --release --example trace_viewer_export [out.json]
//! ```
//!
//! Prints the run digest (the value the golden-trace suite pins) and the
//! per-category aggregation table, then writes the viewer JSON.

use std::fs;

use mxn::dad::{AxisDist, Dad, Extents, LocalArray, Template};
use mxn::runtime::Universe;
use mxn::schedule::{Redistribution, Side};

fn main() {
    let out_path =
        std::env::args().nth(1).unwrap_or_else(|| "target/trace_viewer_export.json".to_string());

    let (_, trace) = Universe::run_traced(&[2, 3], |_, ctx| {
        let e = Extents::new([8, 8]);
        let src = Dad::block(e.clone(), &[2, 1]).unwrap();
        let dst = Dad::regular(
            Template::new(e, vec![AxisDist::Collapsed, AxisDist::Cyclic { nprocs: 3 }]).unwrap(),
        );
        if ctx.program == 0 {
            let mine = LocalArray::from_fn(&src, ctx.comm.rank(), |i| (i[0] * 8 + i[1]) as f64);
            Redistribution::new(&src, &dst, ctx.comm.rank(), Side::Send, None)
                .send(ctx.intercomm(1), &mine, 7)
                .unwrap();
        } else {
            let mut mine: LocalArray<f64> = LocalArray::allocate(&dst, ctx.comm.rank());
            Redistribution::new(&src, &dst, ctx.comm.rank(), Side::Recv, None)
                .recv(ctx.intercomm(0), &mut mine, 7)
                .unwrap();
            for (idx, &v) in mine.iter() {
                assert_eq!(v, (idx[0] * 8 + idx[1]) as f64);
            }
        }
        // A few collectives so the viewer shows more than redistribution.
        let sum = ctx.comm.allreduce(ctx.comm.rank() as u64, |a, b| *a += b).unwrap();
        let expect: u64 = (0..ctx.comm.size() as u64).sum();
        assert_eq!(sum, expect);
        ctx.comm.barrier().unwrap();
    });

    println!("digest: {}", trace.digest_hex());
    println!("{}", trace.summary_table());

    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        fs::create_dir_all(dir).expect("create output directory");
    }
    fs::write(&out_path, trace.chrome_json()).expect("write chrome trace json");
    println!("wrote {out_path}");
}
