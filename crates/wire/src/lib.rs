//! `mxn-wire`: the Unix-domain-socket transport for the M×N runtime.
//!
//! The in-proc runtime (`mxn-runtime`) models ranks as threads in one
//! address space: envelopes move by pointer, broadcasts share one `Arc`.
//! This crate is the other side of the [`mxn_runtime::Transport`] seam —
//! ranks as *real OS processes*, envelopes as length-prefixed CRC-checked
//! frames over Unix-domain sockets, and the paper's robustness story
//! (heartbeat liveness, bounded reconnect, survivor shrink) carried across
//! a wire that can actually fail.
//!
//! Layers, bottom to top:
//!
//! * [`crc`] — CRC-32 (the IEEE polynomial): carry-less-multiply folding
//!   where the CPU has it, a const-built table otherwise.
//! * [`codec`] — [`codec::WireCodec`], byte serialization for payloads
//!   that cross a process boundary, plus the [`codec::CodecRegistry`]
//!   mapping `TypeId` ⇄ wire tag. `Payload::Shared` deliberately has no
//!   encoding: zero-clone sharing is an address-space concept.
//! * [`frame`] — `MxN1` framing: 40-byte header (own CRC) + payload
//!   (own CRC), resync-on-damage, never trusts a length the header CRC
//!   has not vouched for.
//! * [`fault`] — seeded frame-level fault injection (drop / bit-flip /
//!   delay) driven by the same `MXN_FAULT_SEED` × `MXN_FAULT_KIND`
//!   environment as the in-proc fault matrix.
//! * [`link`] — per-peer sequencing and the resend ring behind session
//!   resume; control frames ride outside the sequence space.
//! * [`node`] — [`node::WireNode`]: the mesh endpoint. Acceptor, reader
//!   and monitor threads; heartbeats feeding a [`mxn_runtime::Liveness`]
//!   registry; reconnect with seeded exponential backoff bounded at
//!   N attempts, after which the peer is *dead* and recovery proceeds
//!   exactly as for an in-proc rank death. Progress fences catch the
//!   failure heartbeats cannot — a *zombie* whose sockets stay open while
//!   its application is frozen — quarantining it (reversible) and
//!   evicting it (final) on frozen delivery watermarks. The membership is
//!   elastic up to `max_size`: a spare OS process joins at runtime via an
//!   offer/vote/commit handshake mirroring the membership plane's §4i
//!   protocol. [`node::UdsTransport`] is the `Transport` impl.
//! * [`mux`] — connection multiplexing over *one* UDS listener: the
//!   serving plane's wire front. Any number of client connections, each
//!   with a reader/writer thread pair, requests handed to a pluggable
//!   [`mux::MuxHandler`]; blocking the handler parks exactly one client.
//! * [`process`] — self re-exec helpers for multi-process tests and
//!   examples (spawn workers and spare joiners, kill-on-drop guards,
//!   `kill -9` / SIGSTOP / SIGCONT on demand).

pub mod codec;
pub mod crc;
pub mod fault;
pub mod frame;
pub mod link;
pub mod mux;
pub mod node;
pub mod process;

pub use codec::{decode_value, encode_value, CodecError, CodecRegistry, WireCodec};
pub use crc::crc32;
pub use fault::{WireFaults, WireVerdict};
pub use frame::{Frame, FrameBuf, FrameError, FrameKind, FrameReader, HEADER_LEN, MAX_PAYLOAD};
pub use link::{LinkSender, RING_FRAMES};
pub use mux::{
    ConnId, MuxClient, MuxHandler, MuxReplier, MuxRequest, MuxResponse, MuxServer, MuxStatus,
    MUX_REQ_CODEC, MUX_RESP_CODEC,
};
pub use node::{
    UdsTransport, WireConfig, WireNode, WireStats, JOIN_OFFER_TAG, JOIN_REQ_TAG, JOIN_STATE_TAG,
    WIRE_CTRL_CONTEXT,
};
pub use process::{spawn_spare, spawn_worker, spawn_worker_max, wire_role, WireRole, WorkerGuard};
