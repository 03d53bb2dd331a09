//! # mxn-schedule — communication schedules for parallel data redistribution
//!
//! "A communication schedule for distributed arrays specifies the
//! destination process of each of the data elements in the source array and
//! their locations in the destination processes. This schedule is computed
//! prior to the transfer operation, and can be reused" (paper §2.3).
//!
//! Two constructions are provided:
//!
//! * [`RegionSchedule`] — the descriptor fast path: intersect rectangular
//!   patches directly (CUMULVS/PAWS/InterComm style). Packing moves whole
//!   rows; messages carry data only. Construction prunes the peer space
//!   with the descriptor's per-axis overlap index (build cost scales with
//!   overlapping peers, not communicator size) and compiles each pair into
//!   a [`CopyPlan`] executed against pooled [`TransferBuffers`].
//! * [`LinearSchedule`] — the generic path: refer both layouts to the
//!   abstract 1-D linearization and intersect segment lists (Meta-Chaos
//!   style). Works for any linearizable structure, pays per-element index
//!   translation.
//!
//! Both are built *per rank with no coordinator* (scalability requirement
//! of §3). Region schedules execute through one plan value,
//! [`Redistribution`]: built per rank from `(src, dst, rank, side,
//! budget)`, it owns the schedules, the [`RedistRoute`] they run over
//! (planned by [`RoutePlanner`] under an optional per-rank memory budget)
//! and a buffer pool, and moves data with `send`/`recv` across an
//! inter-communicator (coupled programs) or `within` one communicator
//! (self-connections such as transposes). Holding the value reuses it
//! across transfers and across arrays conforming to the same templates.

pub mod halo;
pub mod linear_schedule;
pub mod plan;
pub mod redistribution;
pub mod region_schedule;
pub mod route;

pub use halo::{GhostedPatch, HaloSchedule};
pub use linear_schedule::LinearSchedule;
pub use plan::{CopyPlan, TransferBuffers};
pub use redistribution::{Redistribution, Side};
pub use region_schedule::{PairRegions, RegionSchedule, Role};
pub use route::{
    RedistProfile, RedistRoute, RouteKind, RoutePlanner, RouteStep, StepOp, ROUTE_ACK_BIT,
};
