//! Experiment E16 (ablation) — region fast path vs generic linearization
//! sweep, for both schedule *construction* and *execution*.
//!
//! DESIGN.md marks this design decision for ablation: the region schedule
//! intersects rectangular patches and packs whole rows; the linear
//! schedule refers everything to the 1-D linearization (Meta-Chaos style)
//! and pays per-run index translation. Same transfers, same messages —
//! different constant factors, growing with fragmentation.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use mxn_bench::{criterion_config, field_value, time_universe};
use mxn_dad::{AxisDist, Dad, Extents, LocalArray, Template};
use mxn_linearize::ArrayOrder;
use mxn_schedule::{LinearSchedule, Redistribution, RegionSchedule, Side};

fn layouts(block: usize) -> (Dad, Dad) {
    let e = Extents::new([512, 32]);
    let src = Dad::regular(
        Template::new(
            e.clone(),
            vec![AxisDist::BlockCyclic { block, nprocs: 2 }, AxisDist::Collapsed],
        )
        .unwrap(),
    );
    let dst = Dad::block(e, &[2, 1]).unwrap();
    (src, dst)
}

fn run_exec(region: bool, block: usize, iters: u64) -> std::time::Duration {
    let (src, dst) = layouts(block);
    time_universe(&[2, 2], |ctx| {
        let rank = ctx.comm.rank();
        if ctx.program == 0 {
            let ic = ctx.intercomm(1);
            let local = LocalArray::from_fn(&src, rank, field_value);
            let mut reg = Redistribution::new(&src, &dst, rank, Side::Send, None);
            let lin = LinearSchedule::for_sender(&src, &dst, ArrayOrder::RowMajor, rank);
            let start = Instant::now();
            for i in 0..iters {
                let tag = (i & 0xfff) as i32;
                if region {
                    reg.send(ic, &local, tag).unwrap();
                } else {
                    lin.execute_send(ic, &src, &local, tag).unwrap();
                }
            }
            start.elapsed()
        } else {
            let ic = ctx.intercomm(0);
            let mut local: LocalArray<f64> = LocalArray::allocate(&dst, rank);
            let mut reg = Redistribution::new(&src, &dst, rank, Side::Recv, None);
            let lin = LinearSchedule::for_receiver(&src, &dst, ArrayOrder::RowMajor, rank);
            let start = Instant::now();
            for i in 0..iters {
                let tag = (i & 0xfff) as i32;
                if region {
                    reg.recv(ic, &mut local, tag).unwrap();
                } else {
                    lin.execute_recv(ic, &dst, &mut local, tag).unwrap();
                }
            }
            start.elapsed()
        }
    })
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e16_region_vs_linear");

    for block in [64usize, 8, 1] {
        let (src, dst) = layouts(block);
        // Construction.
        group.bench_with_input(
            BenchmarkId::new("build_region", format!("block{block}")),
            &block,
            |b, _| b.iter(|| std::hint::black_box(RegionSchedule::for_sender(&src, &dst, 0))),
        );
        group.bench_with_input(
            BenchmarkId::new("build_linear", format!("block{block}")),
            &block,
            |b, _| {
                b.iter(|| {
                    std::hint::black_box(LinearSchedule::for_sender(
                        &src,
                        &dst,
                        ArrayOrder::RowMajor,
                        0,
                    ))
                })
            },
        );
        // Execution.
        group.bench_with_input(
            BenchmarkId::new("exec_region", format!("block{block}")),
            &block,
            |b, &blk| b.iter_custom(|iters| run_exec(true, blk, iters)),
        );
        group.bench_with_input(
            BenchmarkId::new("exec_linear", format!("block{block}")),
            &block,
            |b, &blk| b.iter_custom(|iters| run_exec(false, blk, iters)),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = criterion_config();
    targets = bench
}
criterion_main!(benches);
