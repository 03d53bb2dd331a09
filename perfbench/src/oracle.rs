//! The coupled field, its two layouts, and the per-epoch value oracle.

use mxn_dad::{AxisDist, Dad, Extents, LocalArray, Template};

/// Field rows.
pub const ROWS: usize = 256;
/// Field columns.
pub const COLS: usize = 512;
/// Edge of the importer's square tiles.
pub const TILE: usize = 16;
/// Bytes of one whole field.
pub const FIELD_BYTES: usize = ROWS * COLS * std::mem::size_of::<f64>();

/// The exporter's layout: the whole field as one row block per rank.
pub fn export_dad(ranks: usize) -> Dad {
    Dad::block(Extents::new([ROWS, COLS]), &[ranks, 1]).expect("row blocks tile the field")
}

/// The importer's layout: `TILE`×`TILE` tiles dealt block-cyclically on
/// both axes over a `ranks`×1 process grid.
pub fn import_dad(ranks: usize) -> Dad {
    let axes = vec![
        AxisDist::BlockCyclic { block: TILE, nprocs: ranks },
        AxisDist::BlockCyclic { block: TILE, nprocs: 1 },
    ];
    Dad::regular(Template::new(Extents::new([ROWS, COLS]), axes).expect("tiles divide the field"))
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The value element `idx` holds after epoch `epoch` of a run seeded with
/// `seed`. Distinct for every (epoch, element) pair of one seed and exact
/// in `f64`, so a stale, shifted or torn field never passes the check.
pub fn value(seed: u64, epoch: u64, idx: &[usize]) -> f64 {
    const SPAN: u64 = 1 << 18; // > 2 × ROWS × COLS
    let mix = splitmix64(seed);
    let lin = (idx[0] * COLS + idx[1]) as u64;
    let scrambled = lin ^ (mix & (SPAN / 2 - 1));
    let offset = (mix >> 40) % (SPAN / 2);
    ((epoch + 1) * SPAN + scrambled + offset) as f64
}

/// Rank `rank`'s share of the field under `dad` as it must read after
/// `epoch`.
pub fn expected(dad: &Dad, rank: usize, seed: u64, epoch: u64) -> LocalArray<f64> {
    LocalArray::from_fn(dad, rank, |idx| value(seed, epoch, idx))
}

/// Writes the values [`expected`] holds into `arr` in place.
pub fn fill(arr: &mut LocalArray<f64>, seed: u64, epoch: u64) {
    for p in 0..arr.num_patches() {
        let (region, data) = arr.patch_mut(p);
        let (lo, width) = (region.lo().to_vec(), region.hi()[1] - region.lo()[1]);
        for (r, row) in data.chunks_exact_mut(width).enumerate() {
            for (c, v) in row.iter_mut().enumerate() {
                *v = value(seed, epoch, &[lo[0] + r, lo[1] + c]);
            }
        }
    }
}

/// Elements of `got` that differ from [`expected`] over `dad`: storage
/// whose patches are not `dad`'s patches for its rank counts every
/// element. Compares in place, without building the expected array.
pub fn mismatches(got: &LocalArray<f64>, dad: &Dad, seed: u64, epoch: u64) -> usize {
    if !got.regions().eq(dad.patches(got.rank()).iter()) {
        return got.len().max(dad.local_size(got.rank()));
    }
    (0..got.num_patches())
        .map(|p| {
            let (region, data) = got.patch(p);
            let (lo, width) = (region.lo(), region.hi()[1] - region.lo()[1]);
            data.chunks_exact(width)
                .enumerate()
                .map(|(r, row)| {
                    row.iter()
                        .enumerate()
                        .filter(|&(c, v)| *v != value(seed, epoch, &[lo[0] + r, lo[1] + c]))
                        .count()
                })
                .sum::<usize>()
        })
        .sum()
}

/// The serial floor: remaps a row-major field into the importer's tile
/// order (tiles row-major, each tile row-major) with one plain index loop —
/// no runtime, no schedule, one thread.
pub fn serial_remap(src: &[f64], dst: &mut [f64]) {
    const TILES_PER_ROW: usize = COLS / TILE;
    for i in 0..ROWS {
        let (ti, ii) = (i / TILE, i % TILE);
        for j in 0..COLS {
            let tile = ti * TILES_PER_ROW + j / TILE;
            dst[tile * TILE * TILE + ii * TILE + j % TILE] = src[i * COLS + j];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layouts_give_one_pair_of_8192_runs() {
        let exp = export_dad(1);
        let imp = import_dad(1);
        assert_eq!(imp.patches(0).len(), (ROWS / TILE) * (COLS / TILE));
        let send = mxn_schedule::RegionSchedule::for_sender(&exp, &imp, 0);
        assert_eq!(send.num_messages(), 1);
        assert_eq!(send.plan(0).num_runs(), ROWS * COLS / TILE);
        assert_eq!(send.plan(0).total() * 8, FIELD_BYTES);
    }

    #[test]
    fn values_differ_across_epochs_elements_and_seeds() {
        let a = value(7, 0, &[0, 0]);
        assert_ne!(a, value(7, 1, &[0, 0]));
        assert_ne!(a, value(7, 0, &[0, 1]));
        assert_ne!(a, value(8, 0, &[0, 0]));
        assert_eq!(a, value(7, 0, &[0, 0]));
    }

    #[test]
    fn oracle_rejects_one_flipped_element() {
        let dad = import_dad(1);
        let mut got = expected(&dad, 0, 3, 5);
        assert_eq!(mismatches(&got, &dad, 3, 5), 0);
        assert_eq!(mismatches(&got, &dad, 3, 4), got.len(), "a stale epoch fails everywhere");
        let (_, data) = got.patch_mut(17);
        data[9] = f64::from_bits(data[9].to_bits() ^ 1);
        assert_eq!(mismatches(&got, &dad, 3, 5), 1);
        assert_eq!(mismatches(&got, &import_dad(2), 3, 5), got.len(), "wrong layout");
    }

    #[test]
    fn fill_writes_what_from_fn_builds() {
        for dad in [export_dad(1), import_dad(1), import_dad(2)] {
            let mut arr = LocalArray::allocate(&dad, 0);
            fill(&mut arr, 9, 4);
            assert!(arr == expected(&dad, 0, 9, 4));
        }
    }

    #[test]
    fn serial_remap_matches_the_import_layout() {
        let src = expected(&export_dad(1), 0, 11, 2);
        let want = expected(&import_dad(1), 0, 11, 2);
        let mut dst = vec![0.0; ROWS * COLS];
        serial_remap(src.patch(0).1, &mut dst);
        assert_eq!(dst, want.to_flat());
    }
}
