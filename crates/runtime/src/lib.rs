//! # mxn-runtime — an MPI-like message-passing runtime for M×N research
//!
//! This crate is the substrate beneath the whole `mxn` workspace: an
//! in-process message-passing runtime with MPI semantics, where each rank is
//! an OS thread and payloads move by ownership transfer. It exists because
//! the systems reproduced from the paper (the CCA M×N component, PRMI,
//! DCA, InterComm, MCT) are all *defined in terms of* message-passing
//! semantics — matching, non-overtaking ordering, communicators, and
//! collectives — and those semantics are reproduced here exactly:
//!
//! * **Point-to-point**: eager [`Comm::send`] / blocking [`Comm::recv`] with
//!   `(source, tag)` matching including wildcards, plus nonblocking
//!   [`Comm::isend`] / [`Comm::irecv`], probes, and timeouts
//!   ([`Comm::recv_timeout`]) for the deadlock experiments of Figure 5.
//! * **Communicators**: [`Comm::dup`], [`Comm::split`], [`Comm::subgroup`],
//!   each with a private message context.
//! * **Collectives**: barrier, bcast, gather, scatter, allgather,
//!   alltoall(v), reduce, allreduce, scan (see [`collectives`]).
//! * **Inter-communicators** ([`InterComm`]) and multi-program
//!   [`Universe`]s for coupled-code runs (the "M job talks to N job" case).
//! * **Traffic accounting** ([`stats`]): every payload reports its wire
//!   size via [`MsgSize`], so benchmarks can report message counts and
//!   volumes that transfer to a real cluster.
//! * **Deterministic fault injection** ([`fault`]): a seeded
//!   [`FaultConfig`] drops, duplicates, corrupts, and delays messages and
//!   kills ranks mid-run ([`World::run_with_faults`]); blocked peers of a
//!   dead rank get [`RuntimeError::PeerDead`] instead of hanging, and the
//!   same seed always reproduces a byte-identical [`FaultTrace`].
//! * **Self-healing recovery** ([`membership`]): ULFM-style epoch-based
//!   membership — survivors `revoke` a failed communicator's context,
//!   `agree` on the alive set with a fault-tolerant agreement, and `shrink`
//!   to a dense survivor communicator on a fresh context
//!   ([`Comm::membership`], [`InterComm::shrink_with_report`]).
//!
//! ## Quick example
//!
//! ```
//! use mxn_runtime::World;
//!
//! let sums = World::run(4, |p| {
//!     let comm = p.world();
//!     comm.allreduce(comm.rank() as u64, |a, b| *a += b).unwrap()
//! });
//! assert_eq!(sums, vec![6, 6, 6, 6]);
//! ```

pub mod cart;
pub mod collectives;
pub mod comm;
pub mod envelope;
pub mod error;
pub mod fault;
pub mod intercomm;
pub mod mailbox;
pub mod membership;
pub mod msgsize;
pub mod network;
pub mod ops;
pub mod request;
pub mod rma;
pub mod shared;
pub mod stats;
pub mod tracing;
pub mod transport;
pub mod universe;
pub mod world;

pub use cart::{dims_create, CartComm};
pub use collectives::SMALL_COLLECTIVE_BYTES;
pub use comm::Comm;
pub use envelope::{MessageInfo, Payload, Src, Tag};
pub use error::{Result, RuntimeError, MASK_PARTICIPANTS};
pub use fault::{
    splitmix64, unit, ChannelPolicy, FaultConfig, FaultEvent, FaultKind, FaultTrace, Liveness,
    RankDeath,
};
pub use intercomm::InterComm;
pub use membership::{JoinOffer, Membership, ReconfigReport, Revocations, ShrinkReport};
pub use msgsize::MsgSize;
pub use network::NetworkModel;
pub use request::{wait_all, RecvRequest, SendRequest};
pub use rma::RmaWindow;
pub use stats::{
    record_buffer_lease, record_pool_bytes, record_schedule_build, record_schedule_copy,
    record_transfer_acquired, record_transfer_released, reset_schedule_stats, schedule_stats,
    CollOp, CollOpStats, MailboxGauge, ScheduleStats, StatsSnapshot, TrafficClass, WorldStats,
};
pub use tracing::{coll_algo, err_code, fault_kind};
pub use transport::{InProcTransport, Transport};
pub use universe::{ProgramCtx, Universe};
pub use world::{Process, World};

// The trace plane's public surface, re-exported so downstream code (tests,
// examples, benches) can collect and digest traces without a direct
// `mxn-trace` dependency.
pub use mxn_trace::{
    CollTotals, EventId, Phase, RunTrace, TraceAggregate, TraceCollector, TraceEvent, TraceHandle,
};
