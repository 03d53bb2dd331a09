//! Experiment E6 — "Communication schedules can be expensive to calculate
//! … and can be reused in consecutive transfers" (§2.3).
//!
//! Two measurements:
//!
//! 1. schedule **construction** cost as the layouts fragment (block-cyclic
//!    block size 64 → 16 → 4 → 1: quadratically more patch intersections);
//! 2. transfer cost **with** and **without** schedule reuse (rebuild every
//!    transfer vs build once) — the amortization argument.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use mxn_bench::{criterion_config, field_value, time_universe};
use mxn_dad::{AxisDist, Dad, Extents, LocalArray, Template};
use mxn_schedule::{Redistribution, RegionSchedule, Side};

fn fragmented(extents: &Extents, block: usize, nprocs: usize) -> Dad {
    Dad::regular(
        Template::new(
            extents.clone(),
            vec![AxisDist::BlockCyclic { block, nprocs }, AxisDist::Collapsed],
        )
        .unwrap(),
    )
}

fn bench(c: &mut Criterion) {
    let extents = Extents::new([1024, 16]);
    let dst = Dad::block(extents.clone(), &[4, 1]).unwrap();

    let mut group = c.benchmark_group("e6_schedule_reuse");

    // 1. Build cost vs fragmentation.
    for block in [64usize, 16, 4, 1] {
        let src = fragmented(&extents, block, 4);
        let patches = src.patches(0).len();
        group.bench_with_input(
            BenchmarkId::new("build_blockcyclic", format!("b{block}_{patches}patches")),
            &src,
            |b, src| {
                b.iter(|| {
                    std::hint::black_box(RegionSchedule::for_sender(
                        std::hint::black_box(src),
                        &dst,
                        0,
                    ))
                })
            },
        );
    }

    // 2. Reuse vs rebuild on a live 4→4 coupling with fragmented source.
    let src = fragmented(&extents, 4, 4);
    for reuse in [true, false] {
        let label = if reuse { "transfer_with_reuse" } else { "transfer_rebuild_each" };
        let src = src.clone();
        let dst = dst.clone();
        group.bench_function(label, |b| {
            let src = src.clone();
            let dst = dst.clone();
            b.iter_custom(move |iters| {
                let src = src.clone();
                let dst = dst.clone();
                time_universe(&[4, 4], move |ctx| {
                    let rank = ctx.comm.rank();
                    if ctx.program == 0 {
                        let ic = ctx.intercomm(1);
                        let local = LocalArray::from_fn(&src, rank, field_value);
                        let plan = || Redistribution::new(&src, &dst, rank, Side::Send, None);
                        let mut held = plan();
                        let start = Instant::now();
                        for i in 0..iters {
                            if reuse {
                                held.send(ic, &local, i as i32 & 0xfff).unwrap();
                            } else {
                                plan().send(ic, &local, i as i32 & 0xfff).unwrap();
                            }
                        }
                        start.elapsed()
                    } else {
                        let ic = ctx.intercomm(0);
                        let mut local: LocalArray<f64> = LocalArray::allocate(&dst, rank);
                        let plan = || Redistribution::new(&src, &dst, rank, Side::Recv, None);
                        let mut held = plan();
                        let start = Instant::now();
                        for i in 0..iters {
                            if reuse {
                                held.recv(ic, &mut local, i as i32 & 0xfff).unwrap();
                            } else {
                                plan().recv(ic, &mut local, i as i32 & 0xfff).unwrap();
                            }
                        }
                        start.elapsed()
                    }
                })
            })
        });
    }
    group.finish();

    // Context for the report: schedule sizes at each fragmentation.
    println!("\n--- E6 schedule sizes (sender rank 0) ---");
    for block in [64usize, 16, 4, 1] {
        let src = fragmented(&extents, block, 4);
        let s = RegionSchedule::for_sender(&src, &dst, 0);
        println!(
            "block {block:>3}: {} patches, schedule {} regions / {}",
            src.patches(0).len(),
            s.pairs().iter().map(|p| p.regions.len()).sum::<usize>(),
            mxn_bench::fmt_bytes(s.schedule_bytes())
        );
    }
}

criterion_group! {
    name = benches;
    config = criterion_config();
    targets = bench
}
criterion_main!(benches);
