//! Golden-trace regression tests: fixed scenarios whose merged trace
//! digest must never drift.
//!
//! Each scenario runs **twice in-process** — the two digests must match
//! (the determinism axiom: identical seeds ⇒ identical digests) — and the
//! digest must equal the committed golden in
//! `tests/golden/trace_digests.txt`. After an *intentional* change to the
//! trace format or to the traced code paths, regenerate the goldens with
//!
//! ```text
//! MXN_BLESS_TRACES=1 cargo test --test golden_traces
//! ```
//!
//! and commit the new file. A digest mismatch without an intentional
//! change means the runtime's logical behavior changed — a real
//! regression, not a flaky test: wall time, raced clone attribution,
//! wildcard match order and timeout-poll counts are all excluded from the
//! canonical serialization.

use std::time::Duration;

use mxn::core::redistribute_elastic;
use mxn::dad::{AxisDist, Dad, Extents, LocalArray, Template};
use mxn::dca::{alltoallv_within, AlltoallvSpec};
use mxn::framework::{AnyPayload, Dispatch, RemoteService};
use mxn::prmi::{collective_serve, CollectiveEndpoint};
use mxn::runtime::{ChannelPolicy, FaultConfig, InterComm, RunTrace, Universe, World};
use mxn::schedule::{Redistribution, Side};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/trace_digests.txt");

/// 8×8 block-rows on 2 ranks → cyclic-columns on 3 ranks.
fn redistribute_block_to_cyclic() -> RunTrace {
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
    });
    trace
}

/// The reverse direction: cyclic-columns on 3 ranks → block-rows on 2.
fn redistribute_cyclic_to_block() -> RunTrace {
    let (_, trace) = Universe::run_traced(&[3, 2], |_, ctx| {
        let e = Extents::new([8, 8]);
        let src = Dad::regular(
            Template::new(e.clone(), vec![AxisDist::Collapsed, AxisDist::Cyclic { nprocs: 3 }])
                .unwrap(),
        );
        let dst = Dad::block(e, &[2, 1]).unwrap();
        if ctx.program == 0 {
            let mine = LocalArray::from_fn(&src, ctx.comm.rank(), |i| (i[0] * 8 + i[1]) as f64);
            Redistribution::new(&src, &dst, ctx.comm.rank(), Side::Send, None)
                .send(ctx.intercomm(1), &mine, 9)
                .unwrap();
        } else {
            let mut mine: LocalArray<f64> = LocalArray::allocate(&dst, ctx.comm.rank());
            Redistribution::new(&src, &dst, ctx.comm.rank(), Side::Recv, None)
                .recv(ctx.intercomm(0), &mut mine, 9)
                .unwrap();
            for (idx, &v) in mine.iter() {
                assert_eq!(v, (idx[0] * 8 + idx[1]) as f64);
            }
        }
    });
    trace
}

/// Intra-program alltoallv in the latency-bound regime: tiny chunks on 4
/// ranks take the Bruck path.
fn dca_alltoallv_small() -> RunTrace {
    let (_, trace) = World::run_traced(4, |p| {
        let c = p.world();
        let r = c.rank();
        let data: Vec<f64> = (0..8).map(|i| (r * 100 + i) as f64).collect();
        let spec = AlltoallvSpec::contiguous(&[2, 2, 2, 2]);
        let got = alltoallv_within(c, &data, &spec).unwrap();
        for (src, chunk) in got.iter().enumerate() {
            assert_eq!(chunk, &[(src * 100 + r * 2) as f64, (src * 100 + r * 2 + 1) as f64]);
        }
    });
    trace
}

/// The bandwidth-bound regime: 4800-byte chunks exceed the small-message
/// threshold, so the same call takes the pairwise path.
fn dca_alltoallv_large() -> RunTrace {
    let (_, trace) = World::run_traced(4, |p| {
        let c = p.world();
        let r = c.rank();
        const PER_PEER: usize = 600; // 4800 B/chunk > SMALL_COLLECTIVE_BYTES
        let data: Vec<f64> = (0..4 * PER_PEER).map(|i| (r * 10_000 + i) as f64).collect();
        let spec = AlltoallvSpec::contiguous(&[PER_PEER; 4]);
        let got = alltoallv_within(c, &data, &spec).unwrap();
        for (src, chunk) in got.iter().enumerate() {
            assert_eq!(chunk.len(), PER_PEER);
            assert_eq!(chunk[0], (src * 10_000 + r * PER_PEER) as f64);
        }
    });
    trace
}

/// A PRMI collective call: 2 callers drive 2 providers through three
/// ordered collective invocations.
fn prmi_collective_call() -> RunTrace {
    struct AddMethod;
    impl RemoteService for AddMethod {
        fn dispatch(&self, method: u32, arg: AnyPayload) -> Dispatch {
            let v: f64 = arg.downcast().unwrap();
            AnyPayload::replicable(v + method as f64).into()
        }
    }
    let (_, trace) = Universe::run_traced(&[2, 2], |_, ctx| {
        if ctx.program == 0 {
            let ic = ctx.intercomm(1);
            let mut ep = CollectiveEndpoint::new();
            for method in 0..3u32 {
                let r: f64 = ep.call(ic, method, 50.0f64).unwrap();
                assert_eq!(r, 50.0 + method as f64);
            }
            ep.shutdown(ic).unwrap();
        } else {
            collective_serve(ctx.intercomm(0), &AddMethod).unwrap();
        }
    });
    trace
}

/// A lossy run under the seeded fault plane: a dropped message, then the
/// sender's scheduled death unblocks the receiver. Every injection is a
/// send-side, seeded verdict, so the digest is stable.
fn lossy_faulted_run() -> RunTrace {
    let cfg = FaultConfig::reliable(0xD1CE)
        .with_channel(0, 1, ChannelPolicy::lossy(1.0))
        .with_death(0, 1);
    let (_, _, trace) = World::run_traced_with_faults(2, cfg, |p| {
        let c = p.world();
        if c.rank() == 0 {
            c.send(1, 5, 1u8).unwrap(); // op 0: sent, dropped by policy
            c.send(1, 5, 2u8).unwrap_err(); // op 1: own scheduled death
        } else {
            c.recv::<u8>(0, 5).unwrap_err(); // unblocked by PeerDead
        }
    });
    trace
}

/// Shared body for the elastic-grow scenarios: a 1×1 coupling on world
/// ranks {0, 1} admits the parked rank 2 onto side 0 via the rank-join
/// handshake, then spreads side 0's 6×6 field over the grown membership
/// through the one-sided RMA window. Records the `Expand` membership
/// event plus the full `RmaExpose`/`RmaPut`/`RmaGet`/`RmaFence` plane.
///
/// With `faulted`, the incumbents arm the (fully lossy sponsor→newcomer)
/// fault plane for exactly the handshake-plus-one-probe window: the join
/// handshake runs fault-disarmed internally, so the grow still commits,
/// and the armed probe send is deterministically dropped — both facts
/// pinned by the digest.
fn elastic_grow_body(p: &mxn::runtime::Process, faulted: bool) {
    let world = p.world();
    // World-level collectives (split, window drains) must not cross the
    // armed lossy channels; arming is scoped to the handshake below.
    p.set_faults_armed(false);
    let old = Dad::block(Extents::new([6, 6]), &[1, 1]).unwrap();
    let new = old.expand(2).unwrap();
    let color = if p.rank() < 2 { 0 } else { -1 };
    let pair = world.split(color, 0).unwrap();
    if p.rank() == 2 {
        let (_ic, report) =
            InterComm::await_join_with_report(world, Duration::from_secs(10)).unwrap();
        assert_eq!(report.new_local_group, vec![0, 2]);
        let got = redistribute_elastic(world, 9, &old, &new, &[0], &[0, 2], None, Some(1))
            .unwrap()
            .unwrap();
        for (idx, &v) in got.iter() {
            assert_eq!(v, (idx[0] * 6 + idx[1]) as f64);
        }
        return;
    }
    let side = p.rank();
    let (_prog, ic) = InterComm::create(&pair.unwrap(), side).unwrap();
    if faulted {
        p.set_faults_armed(true);
    }
    let (add_local, add_remote): (&[usize], &[usize]) =
        if side == 0 { (&[2], &[]) } else { (&[], &[2]) };
    let (_grown, report) = ic.expand(add_local, add_remote).unwrap();
    assert_eq!(report.epoch, 1);
    if faulted && p.rank() == 0 {
        // Still armed: this fire-and-forget probe hits the lossy(1.0)
        // sponsor→newcomer channel and is dropped — the event the digest
        // pins. The newcomer never posts a matching receive.
        world.send(2, 777, 1u8).unwrap();
    }
    p.set_faults_armed(false);
    if p.rank() == 0 {
        let mine = LocalArray::from_fn(&old, 0, |i| (i[0] * 6 + i[1]) as f64);
        let got =
            redistribute_elastic(world, 9, &old, &new, &[0], &[0, 2], Some((0, &mine)), Some(0))
                .unwrap()
                .unwrap();
        assert_eq!(got.len(), new.local_size(0));
    }
}

/// A clean elastic grow: membership handshake, commit, RMA spread.
fn elastic_grow_commit() -> RunTrace {
    let (_, trace) = World::run_traced(3, |p| elastic_grow_body(p, false));
    trace
}

/// The same grow under a seeded fault plane: the sponsor→newcomer channel
/// is fully lossy while armed, but the join handshake runs fault-disarmed
/// by design, so the grow still commits — and the digest pins that the
/// armed-fault path stays deterministic.
fn elastic_grow_under_seeded_faults() -> RunTrace {
    let cfg = FaultConfig::reliable(0xE1A5)
        .with_channel(0, 2, ChannelPolicy::lossy(1.0))
        .with_channel(1, 2, ChannelPolicy::lossy(1.0));
    let (_, _, trace) = World::run_traced_with_faults(3, cfg, |p| elastic_grow_body(p, true));
    trace
}

type Scenario = (&'static str, fn() -> RunTrace);

fn scenarios() -> Vec<Scenario> {
    vec![
        ("redistribute_block_to_cyclic", redistribute_block_to_cyclic),
        ("redistribute_cyclic_to_block", redistribute_cyclic_to_block),
        ("dca_alltoallv_small_bruck", dca_alltoallv_small),
        ("dca_alltoallv_large_pairwise", dca_alltoallv_large),
        ("prmi_collective_call", prmi_collective_call),
        ("lossy_faulted_run", lossy_faulted_run),
        ("elastic_grow_commit", elastic_grow_commit),
        ("elastic_grow_under_seeded_faults", elastic_grow_under_seeded_faults),
    ]
}

fn committed_goldens() -> Vec<(String, String)> {
    let text = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|e| {
        panic!("missing golden file {GOLDEN_PATH} ({e}); bless with MXN_BLESS_TRACES=1")
    });
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (name, digest) = l.split_once(' ').expect("golden line: `<name> <digest>`");
            (name.to_string(), digest.trim().to_string())
        })
        .collect()
}

#[test]
fn golden_digests_are_stable_and_match() {
    let mut fresh = Vec::new();
    for (name, run) in scenarios() {
        let a = run();
        let b = run();
        assert_eq!(a.dropped, 0, "{name}: trace buffer overflowed");
        assert_eq!(
            a.digest_hex(),
            b.digest_hex(),
            "{name}: two in-process runs produced different digests — the \
             scenario (or an event it records) is not deterministic"
        );
        assert!(!a.events.is_empty(), "{name}: recorded nothing");
        fresh.push((name.to_string(), a.digest_hex()));
    }

    if std::env::var_os("MXN_BLESS_TRACES").is_some() {
        let mut out = String::from(
            "# Golden trace digests — one `<scenario> <digest>` per line.\n\
             # Regenerate with: MXN_BLESS_TRACES=1 cargo test --test golden_traces\n",
        );
        for (name, digest) in &fresh {
            out.push_str(&format!("{name} {digest}\n"));
        }
        std::fs::write(GOLDEN_PATH, out).expect("write blessed goldens");
        return;
    }

    let committed = committed_goldens();
    assert_eq!(
        committed.len(),
        fresh.len(),
        "scenario list differs from the golden file; bless with MXN_BLESS_TRACES=1"
    );
    for ((want_name, want), (got_name, got)) in committed.iter().zip(fresh.iter()) {
        assert_eq!(want_name, got_name, "scenario order differs from the golden file");
        assert_eq!(
            want, got,
            "{got_name}: digest drifted from the committed golden — if the \
             change is intentional, bless with MXN_BLESS_TRACES=1"
        );
    }
}
