//! The five descriptor families of `pruned_equivalence.rs`, drawn
//! deterministically from a seed: shared by `route_equivalence.rs` and the
//! forced-route tests in `src/redistribution.rs`.

use mxn_dad::{AxisDist, Dad, ExplicitDist, Extents, Region, Template};

/// splitmix64, so descriptor construction is deterministic per drawn seed.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub fn pick(state: &mut u64, lo: usize, hi: usize) -> usize {
    lo + (next(state) % (hi - lo) as u64) as usize
}

/// The five descriptor families of `pruned_equivalence.rs`: block grids,
/// block-cyclic x cyclic, gen-block, implicit owners, explicit quadrants.
pub fn make_dad(rows: usize, cols: usize, family: u8, seed: u64) -> Dad {
    let mut s = seed;
    let e = Extents::new([rows, cols]);
    match family % 5 {
        0 => {
            let gr = pick(&mut s, 1, rows.min(5));
            let gc = pick(&mut s, 1, cols.min(4));
            Dad::block(e, &[gr, gc]).unwrap()
        }
        1 => Dad::regular(
            Template::new(
                e,
                vec![
                    AxisDist::BlockCyclic { block: pick(&mut s, 1, 4), nprocs: pick(&mut s, 1, 4) },
                    AxisDist::Cyclic { nprocs: pick(&mut s, 1, 4) },
                ],
            )
            .unwrap(),
        ),
        2 => {
            let nb = pick(&mut s, 1, 5);
            let mut sizes = vec![0usize; nb];
            for _ in 0..rows {
                sizes[pick(&mut s, 0, nb)] += 1;
            }
            Dad::regular(
                Template::new(e, vec![AxisDist::GenBlock { sizes }, AxisDist::Collapsed]).unwrap(),
            )
        }
        3 => {
            let nprocs = pick(&mut s, 1, 5);
            let owners = (0..rows).map(|_| pick(&mut s, 0, nprocs)).collect();
            Dad::regular(
                Template::new(
                    e,
                    vec![
                        AxisDist::Implicit { owners, nprocs },
                        AxisDist::Block { nprocs: pick(&mut s, 1, 3) },
                    ],
                )
                .unwrap(),
            )
        }
        _ => {
            let r = pick(&mut s, 1, rows);
            let c = pick(&mut s, 1, cols);
            let quads = [
                Region::new([0, 0], [r, c]),
                Region::new([0, c], [r, cols]),
                Region::new([r, 0], [rows, c]),
                Region::new([r, c], [rows, cols]),
            ];
            let nranks = pick(&mut s, 1, 5);
            let patches = quads.into_iter().map(|q| (q, pick(&mut s, 0, nranks))).collect();
            Dad::explicit(ExplicitDist::new(e, patches, nranks).unwrap())
        }
    }
}
