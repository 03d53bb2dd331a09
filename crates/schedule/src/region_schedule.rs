//! Region-based communication schedules (the descriptor fast path).
//!
//! This is the approach of CUMULVS, PAWS and InterComm (paper §3): "distill
//! a given data decomposition on a per dimension basis into subregions or
//! sub-sampled patches". A schedule is computed *per rank, per side* by
//! intersecting this rank's rectangular patches with peer patches — no
//! central coordinator, so schedule creation is not serialized (the
//! Section 3 scalability requirement, measured by E14).
//!
//! Construction is a two-layer pipeline:
//!
//! 1. **Pruned peer discovery.** Instead of probing every peer rank, the
//!    peer descriptor's [`mxn_dad::OverlapIndex`] resolves each local patch
//!    to the peers that can overlap it per axis (binary search / closed
//!    form on the axis distributions), so build cost scales with the
//!    *overlapping* peer count, not the communicator size. The historical
//!    all-pairs construction survives as [`RegionSchedule::for_sender_naive`]
//!    / [`RegionSchedule::for_receiver_naive`] — a test oracle and bench
//!    baseline that produces byte-identical schedules.
//! 2. **Plan compilation.** Every per-peer region list is compiled into a
//!    [`CopyPlan`] against this rank's patch layout, so steady-state
//!    execution (by a [`crate::Redistribution`]) is `copy_from_slice` runs
//!    into pooled buffers ([`crate::TransferBuffers`]) with no per-region
//!    allocation.
//!
//! Because sender and receiver compute the same pairwise intersections and
//! canonicalize their order, a transfer message carries *only data*: one
//! packed buffer per peer, no per-element metadata. That is the payoff that
//! makes precomputed schedules cheaper than the receiver-request protocol
//! after a few reuses (experiment E7).

use std::collections::BTreeMap;

use crate::plan::CopyPlan;
use mxn_dad::{Dad, LocalArray, Region};
use mxn_runtime::record_schedule_build;

/// The regions this rank exchanges with one peer, canonically ordered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairRegions {
    /// Peer rank (in the *other* descriptor's rank space).
    pub peer: usize,
    /// Intersection regions, sorted by lower corner.
    pub regions: Vec<Region>,
}

impl PairRegions {
    /// Total elements exchanged with this peer.
    pub fn elements(&self) -> usize {
        self.regions.iter().map(Region::len).sum()
    }
}

/// Which side of a transfer a schedule drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// This rank exports data described by the source descriptor.
    Sender,
    /// This rank imports data described by the destination descriptor.
    Receiver,
}

/// A reusable per-rank communication schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionSchedule {
    role: Role,
    my_rank: usize,
    pairs: Vec<PairRegions>,
    /// One precompiled copy plan per pair, against `my_patches`.
    plans: Vec<CopyPlan>,
    /// This rank's patch layout at build time; execution asserts the
    /// `LocalArray` it is handed matches, since plan offsets index into it.
    my_patches: Vec<Region>,
}

/// Sorts `(source patch, region)` parts into the canonical by-lower-corner
/// order and splits them into a [`PairRegions`] plus its compiled plan.
/// Pieces are pairwise disjoint (distinct local patches or distinct peer
/// patches), so lower corners are distinct and the order is deterministic
/// and identical between the pruned and naive constructions.
fn finish_pair(
    peer: usize,
    mine: &[Region],
    mut parts: Vec<(usize, Region)>,
) -> (PairRegions, CopyPlan) {
    parts.sort_by(|a, b| a.1.lo().cmp(b.1.lo()));
    let plan = CopyPlan::from_sources(mine, &parts);
    let regions = parts.into_iter().map(|(_, r)| r).collect();
    (PairRegions { peer, regions }, plan)
}

impl RegionSchedule {
    /// Pruned construction: per-axis overlap queries give the candidate
    /// peers for each local patch, so only peers that can actually overlap
    /// are probed.
    fn build(me_dad: &Dad, peer_dad: &Dad, my_rank: usize, role: Role) -> RegionSchedule {
        assert!(
            me_dad.conforms(peer_dad),
            "source and destination descriptors must share global extents"
        );
        let mut build_span = mxn_trace::span(
            mxn_trace::EventId::ScheduleBuild,
            [role as u64, me_dad.nranks() as u64, peer_dad.nranks() as u64, 0],
        );
        let mine = me_dad.patches(my_rank);
        let index = peer_dad.overlap_index();
        let mut probes = 0u64;
        let mut per_peer: BTreeMap<usize, Vec<(usize, Region)>> = BTreeMap::new();
        for (pi, patch) in mine.iter().enumerate() {
            let hits = index.query(patch);
            probes += hits.probes as u64;
            for (peer, regions) in hits.hits {
                per_peer.entry(peer).or_default().extend(regions.into_iter().map(|r| (pi, r)));
            }
        }
        let mut pairs = Vec::with_capacity(per_peer.len());
        let mut plans = Vec::with_capacity(pairs.capacity());
        for (peer, parts) in per_peer {
            let (pair, plan) = finish_pair(peer, &mine, parts);
            pairs.push(pair);
            plans.push(plan);
        }
        record_schedule_build(probes, pairs.len() as u64);
        build_span.set_end([role as u64, probes, pairs.len() as u64, 0]);
        RegionSchedule { role, my_rank, pairs, plans, my_patches: mine }
    }

    /// All-pairs construction (probes every peer rank). Kept as the test
    /// oracle and bench baseline for the pruned [`Self::build`].
    fn build_naive(me_dad: &Dad, peer_dad: &Dad, my_rank: usize, role: Role) -> RegionSchedule {
        assert!(
            me_dad.conforms(peer_dad),
            "source and destination descriptors must share global extents"
        );
        let mut build_span = mxn_trace::span(
            mxn_trace::EventId::ScheduleBuild,
            [role as u64, me_dad.nranks() as u64, peer_dad.nranks() as u64, 0],
        );
        let mine = me_dad.patches(my_rank);
        let mut pairs = Vec::new();
        let mut plans = Vec::new();
        for peer in 0..peer_dad.nranks() {
            let theirs = peer_dad.patches(peer);
            let mut parts = Vec::new();
            for (pi, p) in mine.iter().enumerate() {
                for q in &theirs {
                    if let Some(r) = p.intersect(q) {
                        parts.push((pi, r));
                    }
                }
            }
            if !parts.is_empty() {
                let (pair, plan) = finish_pair(peer, &mine, parts);
                pairs.push(pair);
                plans.push(plan);
            }
        }
        record_schedule_build(peer_dad.nranks() as u64, pairs.len() as u64);
        build_span.set_end([role as u64, peer_dad.nranks() as u64, pairs.len() as u64, 0]);
        RegionSchedule { role, my_rank, pairs, plans, my_patches: mine }
    }

    /// Builds the sending side's schedule for `my_rank` of `src`.
    pub fn for_sender(src: &Dad, dst: &Dad, my_rank: usize) -> RegionSchedule {
        Self::build(src, dst, my_rank, Role::Sender)
    }

    /// Builds the receiving side's schedule for `my_rank` of `dst`.
    pub fn for_receiver(src: &Dad, dst: &Dad, my_rank: usize) -> RegionSchedule {
        Self::build(dst, src, my_rank, Role::Receiver)
    }

    /// All-pairs variant of [`Self::for_sender`] (test oracle / baseline).
    pub fn for_sender_naive(src: &Dad, dst: &Dad, my_rank: usize) -> RegionSchedule {
        Self::build_naive(src, dst, my_rank, Role::Sender)
    }

    /// All-pairs variant of [`Self::for_receiver`] (test oracle / baseline).
    pub fn for_receiver_naive(src: &Dad, dst: &Dad, my_rank: usize) -> RegionSchedule {
        Self::build_naive(dst, src, my_rank, Role::Receiver)
    }

    /// The schedule's role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// The rank this schedule was built for.
    pub fn rank(&self) -> usize {
        self.my_rank
    }

    /// Per-peer transfer plans (peers with nothing to exchange omitted).
    pub fn pairs(&self) -> &[PairRegions] {
        &self.pairs
    }

    /// The precompiled copy plan for pair `i` (parallel to [`Self::pairs`]).
    pub fn plan(&self, i: usize) -> &CopyPlan {
        &self.plans[i]
    }

    /// Number of messages this rank will send (or receive).
    pub fn num_messages(&self) -> usize {
        self.pairs.len()
    }

    /// Total elements this rank moves.
    pub fn total_elements(&self) -> usize {
        self.pairs.iter().map(PairRegions::elements).sum()
    }

    /// In-memory size of the schedule (E6/E8 metric).
    pub fn schedule_bytes(&self) -> usize {
        self.pairs
            .iter()
            .map(|p| {
                std::mem::size_of::<usize>()
                    + p.regions
                        .iter()
                        .map(|r| 2 * r.ndim() * std::mem::size_of::<usize>())
                        .sum::<usize>()
            })
            .sum()
    }

    pub(crate) fn check_layout<T>(&self, local: &LocalArray<T>) {
        assert!(
            local.num_patches() == self.my_patches.len()
                && local.regions().eq(self.my_patches.iter()),
            "LocalArray layout does not match the descriptor/rank this schedule was built for"
        );
    }

    /// Packs the regions exchanged with pair `i` into `out` (cleared
    /// first) via the precompiled plan — no per-region allocation.
    pub fn pack_pair_into<T: Copy>(&self, i: usize, local: &LocalArray<T>, out: &mut Vec<T>) {
        self.check_layout(local);
        self.plans[i].pack_into(local, out);
    }

    /// Unpacks a packed per-peer buffer for pair `i` via the precompiled
    /// plan.
    pub fn unpack_pair_from<T: Copy>(&self, i: usize, local: &mut LocalArray<T>, data: &[T]) {
        self.check_layout(local);
        self.plans[i].unpack_from(local, data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mxn_dad::{AxisDist, Extents, Template};
    use mxn_runtime::{reset_schedule_stats, schedule_stats};

    fn value(idx: &[usize], cols: usize) -> f64 {
        (idx[0] * cols + idx[1]) as f64
    }

    #[test]
    fn sender_and_receiver_schedules_are_mirror_images() {
        let src = Dad::block(Extents::new([8, 8]), &[4, 1]).unwrap();
        let dst = Dad::block(Extents::new([8, 8]), &[1, 2]).unwrap();
        // Sender 1 (rows 2..4) intersects both receivers.
        let s = RegionSchedule::for_sender(&src, &dst, 1);
        assert_eq!(s.num_messages(), 2);
        assert_eq!(s.total_elements(), 16);
        // Receiver 0 (cols 0..4) hears from all four senders.
        let r = RegionSchedule::for_receiver(&src, &dst, 0);
        assert_eq!(r.num_messages(), 4);
        assert_eq!(r.total_elements(), 32);
        // Mirror: sender 1's plan for peer 0 equals receiver 0's for peer 1.
        let s_to_0 = s.pairs().iter().find(|p| p.peer == 0).unwrap();
        let r_from_1 = r.pairs().iter().find(|p| p.peer == 1).unwrap();
        assert_eq!(s_to_0.regions, r_from_1.regions);
    }

    #[test]
    fn pruned_matches_naive_oracle() {
        let e = Extents::new([24, 24]);
        let dads = [
            Dad::block(e.clone(), &[4, 2]).unwrap(),
            Dad::block(e.clone(), &[1, 8]).unwrap(),
            Dad::regular(
                Template::new(
                    e.clone(),
                    vec![
                        AxisDist::BlockCyclic { block: 3, nprocs: 4 },
                        AxisDist::Cyclic { nprocs: 2 },
                    ],
                )
                .unwrap(),
            ),
        ];
        for src in &dads {
            for dst in &dads {
                for rank in 0..src.nranks() {
                    let pruned = RegionSchedule::for_sender(src, dst, rank);
                    let naive = RegionSchedule::for_sender_naive(src, dst, rank);
                    assert_eq!(pruned, naive, "sender rank {rank}");
                }
                for rank in 0..dst.nranks() {
                    let pruned = RegionSchedule::for_receiver(src, dst, rank);
                    let naive = RegionSchedule::for_receiver_naive(src, dst, rank);
                    assert_eq!(pruned, naive, "receiver rank {rank}");
                }
            }
        }
    }

    #[test]
    fn build_probes_scale_with_overlap_not_nranks() {
        // 256 → 256 block↔block: only 16 of the 256 column-block receivers
        // own a non-empty column, and the index probes exactly those.
        let e = Extents::new([4096, 16]);
        let src = Dad::block(e.clone(), &[256, 1]).unwrap();
        let dst = Dad::block(e, &[1, 256]).unwrap();
        reset_schedule_stats();
        let s = RegionSchedule::for_sender(&src, &dst, 17);
        let stats = schedule_stats();
        assert_eq!(stats.builds, 1);
        assert_eq!(s.num_messages(), 16, "row block meets 16 non-empty col blocks");
        assert!(stats.peer_probes <= 18, "probed {} peers out of 256", stats.peer_probes);

        // Aligned 256 → 256 (same layout both sides): one overlapping peer.
        let e2 = Extents::new([4096, 16]);
        let a = Dad::block(e2.clone(), &[256, 1]).unwrap();
        let b = Dad::block(e2, &[256, 1]).unwrap();
        reset_schedule_stats();
        let s = RegionSchedule::for_sender(&a, &b, 100);
        let stats = schedule_stats();
        assert_eq!(s.num_messages(), 1);
        assert!(
            stats.peer_probes <= 3,
            "probed {} peers out of 256 for an aligned redistribution",
            stats.peer_probes
        );

        // Naive oracle probes all 256 by construction.
        reset_schedule_stats();
        let _ = RegionSchedule::for_sender_naive(&a, &b, 100);
        assert_eq!(schedule_stats().peer_probes, 256);
    }

    #[test]
    fn conformance_checked() {
        let a = Dad::block(Extents::new([4]), &[2]).unwrap();
        let b = Dad::block(Extents::new([5]), &[2]).unwrap();
        let r = std::panic::catch_unwind(|| RegionSchedule::for_sender(&a, &b, 0));
        assert!(r.is_err());
    }

    #[test]
    fn layout_mismatch_rejected() {
        let e = Extents::new([8, 8]);
        let src = Dad::block(e.clone(), &[4, 1]).unwrap();
        let dst = Dad::block(e, &[1, 2]).unwrap();
        let sched = RegionSchedule::for_sender(&src, &dst, 1);
        // A LocalArray for the wrong rank must be rejected, not misread.
        let local = LocalArray::from_fn(&src, 0, |idx| value(idx, 8));
        let mut out = Vec::new();
        let r = std::panic::catch_unwind(move || sched.pack_pair_into(0, &local, &mut out));
        assert!(r.is_err());
    }

    #[test]
    fn schedule_bytes_reflect_fragmentation() {
        let e = Extents::new([64, 4]);
        let dst = Dad::block(e.clone(), &[2, 1]).unwrap();
        let coarse = Dad::block(e.clone(), &[4, 1]).unwrap();
        let fine = Dad::regular(
            Template::new(
                e,
                vec![AxisDist::BlockCyclic { block: 2, nprocs: 4 }, AxisDist::Collapsed],
            )
            .unwrap(),
        );
        let s_coarse = RegionSchedule::for_receiver(&coarse, &dst, 0);
        let s_fine = RegionSchedule::for_receiver(&fine, &dst, 0);
        assert!(s_fine.schedule_bytes() > s_coarse.schedule_bytes());
        assert_eq!(s_fine.total_elements(), s_coarse.total_elements());
    }
}
