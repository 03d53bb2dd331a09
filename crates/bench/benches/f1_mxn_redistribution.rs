//! Experiment F1 — Figure 1: the M×N redistribution itself.
//!
//! Reproduces the paper's headline scenario (8 senders → 27 receivers in
//! 3-D) and sweeps (M, N) shapes, measuring per-transfer time with held
//! plans and reporting the message counts a cluster would see.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use mxn_bench::{criterion_config, field_value, time_universe};
use mxn_dad::{Dad, Extents, LocalArray};
use mxn_schedule::{Redistribution, RegionSchedule, Side};

/// Times `iters` held-plan transfers between an m-grid and n-grid.
fn run_transfer(m_grid: &[usize], n_grid: &[usize], extents: &Extents, iters: u64) -> Duration {
    let m: usize = m_grid.iter().product();
    let n: usize = n_grid.iter().product();
    let src = Dad::block(extents.clone(), m_grid).unwrap();
    let dst = Dad::block(extents.clone(), n_grid).unwrap();
    time_universe(&[m, n], |ctx| {
        if ctx.program == 0 {
            let rank = ctx.comm.rank();
            let ic = ctx.intercomm(1);
            let mut plan = Redistribution::new(&src, &dst, rank, Side::Send, None);
            let local = LocalArray::from_fn(&src, rank, field_value);
            let start = Instant::now();
            for i in 0..iters {
                plan.send(ic, &local, i as i32 & 0xfff).unwrap();
            }
            start.elapsed()
        } else {
            let rank = ctx.comm.rank();
            let ic = ctx.intercomm(0);
            let mut plan = Redistribution::new(&src, &dst, rank, Side::Recv, None);
            let mut local: LocalArray<f64> = LocalArray::allocate(&dst, rank);
            let start = Instant::now();
            for i in 0..iters {
                plan.recv(ic, &mut local, i as i32 & 0xfff).unwrap();
            }
            start.elapsed()
        }
    })
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("f1_mxn_redistribution");

    // The exact Figure 1 shape: M = 8 (2×2×2) → N = 27 (3×3×3), 3-D field.
    let fig1 = Extents::new([24, 24, 24]);
    group.bench_function("figure1_8_to_27_3d_24cubed", |b| {
        b.iter_custom(|iters| run_transfer(&[2, 2, 2], &[3, 3, 3], &fig1, iters))
    });

    // 2-D sweep over M×N shapes at a fixed 256×256 field.
    let e2 = Extents::new([256, 256]);
    for (m_grid, n_grid) in [
        (vec![1, 1], vec![1, 3]),
        (vec![2, 1], vec![1, 3]),
        (vec![4, 1], vec![3, 3]),
        (vec![4, 2], vec![3, 3]),
    ] {
        let m: usize = m_grid.iter().product();
        let n: usize = n_grid.iter().product();
        group.bench_with_input(
            BenchmarkId::new("sweep_256x256", format!("{m}x{n}")),
            &(m_grid, n_grid),
            |b, (mg, ng)| b.iter_custom(|iters| run_transfer(mg, ng, &e2, iters)),
        );
    }
    group.finish();

    // Report the communication structure (the "who talks to whom" table).
    println!("\n--- F1 message structure (per transfer) ---");
    for (m_grid, n_grid, label) in
        [(vec![2, 2, 2], vec![3, 3, 3], "figure1 8→27"), (vec![4, 2], vec![3, 3], "8→9 2-D")]
    {
        let extents =
            if m_grid.len() == 3 { Extents::new([24, 24, 24]) } else { Extents::new([256, 256]) };
        let src = Dad::block(extents.clone(), &m_grid).unwrap();
        let dst = Dad::block(extents, &n_grid).unwrap();
        let msgs: usize = (0..src.nranks())
            .map(|r| RegionSchedule::for_sender(&src, &dst, r).num_messages())
            .sum();
        let elems: usize = (0..src.nranks())
            .map(|r| RegionSchedule::for_sender(&src, &dst, r).total_elements())
            .sum();
        println!("{label}: {msgs} pairwise messages, {elems} elements moved");
    }
}

criterion_group! {
    name = benches;
    config = criterion_config();
    targets = bench
}
criterion_main!(benches);
