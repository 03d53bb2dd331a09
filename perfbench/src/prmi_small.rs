//! `prmi_small`: collective PRMI calls with a 64 B argument, one caller to
//! one provider.

use std::collections::HashMap;
use std::time::Instant;

use mxn_framework::{AnyPayload, Dispatch, RemoteService};
use mxn_prmi::{collective_serve, CollectiveEndpoint};
use mxn_runtime::{StatsSnapshot, Universe};

use crate::common::{self, Budget, Gate, LatencyLog, Layers, Outcome};
use mxn_trace::{EventId, Phase, RunTrace, TraceEvent};

use crate::spans::{BenchSpan, SpanStore, TraceClock};
use crate::stats::{self, Chain, Closure};

const CALLER: u32 = 0;
const PROVIDER: u32 = 1;
const METHOD: u32 = 7;
/// Argument bytes per call.
pub const ARG_BYTES: usize = 64;

/// The provider's method: FNV-1a over the argument, salted by the method.
fn digest(method: u32, arg: &[u8]) -> u64 {
    arg.iter().fold(0xcbf2_9ce4_8422_2325 ^ u64::from(method), |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Call `call`'s argument in a run seeded with `seed`.
fn argument(seed: u64, call: u64) -> Vec<u8> {
    let mut x = seed ^ call.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (0..ARG_BYTES)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect()
}

struct Digest;

impl RemoteService for Digest {
    fn dispatch(&self, method: u32, arg: AnyPayload) -> Dispatch {
        match arg.downcast::<Vec<u8>>() {
            Ok(bytes) => AnyPayload::replicable(digest(method, &bytes)).into(),
            Err(_) => Dispatch::MethodNotFound,
        }
    }
}

#[derive(Default)]
struct RankRun {
    ready: Option<Instant>,
    log: LatencyLog,
    /// Per-call `(start, end)`, kept in traced windows only.
    ops: Vec<(Instant, Instant)>,
    bad: u64,
    stats: Option<StatsSnapshot>,
    mailbox_peak: u64,
}

/// Runs one measurement window.
pub fn run(seed: u64, budget: Budget, traced: bool) -> Outcome {
    let trace = traced.then(|| TraceClock::new(2));
    let gate = Gate::new(budget, 2);
    let start = Instant::now();
    let mut ranks = Universe::run(&[1, 1], |p, ctx| {
        let _installed = trace.as_ref().map(|t| t.handle(p.rank()).install());
        crate::bind::bind_rank(p.rank());
        let ic = ctx.intercomm(1 - ctx.program);
        let mut run = RankRun {
            ready: Some(Instant::now()),
            log: LatencyLog::new(budget.keep_samples),
            ..RankRun::default()
        };
        gate.sync();
        if ctx.program == 1 {
            collective_serve(ic, &Digest).expect("provider serve loop");
            run.mailbox_peak = ic.mailbox_bytes().1;
            return run;
        }
        let mut ep = CollectiveEndpoint::new();
        let stats0 = p.stats();
        ic.reset_mailbox_peak();
        let window = Instant::now();
        let mut call = 0u64;
        while call < budget.max_ops as u64 && window.elapsed() < budget.window {
            let arg = argument(seed, call);
            let want = digest(METHOD, &arg);
            let t0 = Instant::now();
            let got: Result<u64, _> = ep.call(ic, METHOD, arg);
            let t1 = Instant::now();
            match got {
                Ok(v) => run.bad += u64::from(v != want),
                Err(e) => panic!("prmi_small call {call} failed: {e}"),
            }
            run.log.record(common::us(t0, t1));
            if traced {
                run.ops.push((t0, t1));
            }
            call += 1;
        }
        run.stats = Some(p.stats().since(&stats0));
        run.mailbox_peak = ic.mailbox_bytes().1;
        ep.shutdown(ic).expect("provider shutdown");
        run
    });
    let setup_end = ranks.iter().filter_map(|r| r.ready).max().expect("ranks report ready");
    let mut out = Outcome {
        log: std::mem::take(&mut ranks[0].log),
        failed: ranks[0].bad,
        setup_s: (setup_end - start).as_secs_f64(),
        ..Outcome::default()
    };
    let (caller, provider) = (&ranks[0], &ranks[1]);
    if let Some(trace) = trace {
        let (events, clock) = trace.finish();
        let bench: Vec<BenchSpan> = caller
            .ops
            .iter()
            .enumerate()
            .map(|(op, &(start, end))| BenchSpan {
                rank: CALLER,
                layer: "prmi",
                name: "bench.call",
                start,
                end,
                op,
            })
            .collect();
        let windows = common::op_windows(clock, &caller.ops);
        let calls = Calls::new(&events);
        let atts: Vec<_> = windows
            .iter()
            .enumerate()
            .map(|(op, &(t0, t1))| blocking_path(&calls, op, t0).close(t1 - t0))
            .collect();
        let closure = Closure::of(&atts);
        let mut layers = Layers::new();
        common::record_closure(&mut layers, &closure);
        layers.insert("prmi.call_us", common::us_median(&caller.ops));
        layers.insert(
            "prmi.dispatch_us",
            closure.mean_segment_us.get("prmi.dispatch").copied().unwrap_or(0.0),
        );
        layers.insert(
            "runtime.match_wait_us",
            closure.mean_segment_us.get("runtime.match_wait").copied().unwrap_or(0.0),
        );
        let idle: Vec<f64> = (1..windows.len() as u64).filter_map(|op| calls.idle_us(op)).collect();
        layers.insert("prmi.serve_idle_us", stats::mean(&idle));
        let n = caller.ops.len().max(1) as f64;
        common::record_runtime(
            &mut layers,
            caller.stats.as_ref(),
            n,
            caller.mailbox_peak.max(provider.mailbox_peak),
        );
        layers.insert("trace.dropped_events", events.dropped as f64);
        let store = SpanStore::build(&events, clock, &bench, &windows);
        out.closure = Some(closure);
        out.layers = layers;
        common::write_spans(&store, "prmi_small");
    }
    out
}

/// The call's blocking path: the caller multicasts the request, the
/// provider matches and dispatches it and posts the reply, the caller
/// matches the reply. Calls run back to back, closer together than the
/// trace's 1 µs stamps resolve, so events are tied to call `op` by the
/// call sequence number `PrmiCall` and `PrmiServe` carry and by program
/// order on each rank, not by time.
fn blocking_path(trace: &Calls, op: usize, t0: f64) -> Chain {
    let at = |e: Option<&TraceEvent>| e.map(|e| e.wall_us as f64);
    let (caller, provider) = (&trace.caller, &trace.provider);
    let call = trace.call_begin.get(&(op as u64)).copied();
    let call_end = call.and_then(|b| {
        caller[b..].iter().position(|e| is(e, EventId::PrmiCall, Phase::End)).map(|i| b + i)
    });
    let in_call = |id: EventId| {
        let (b, e) = (call?, call_end?);
        caller[b..e].iter().rev().find(move |ev| ev.id == id)
    };
    let serve = trace.serve.get(&(op as u64)).copied();
    let before_serve =
        serve.and_then(|j| provider[..j].iter().rev().find(|e| e.id == EventId::MailboxMatch));
    let after_serve =
        serve.and_then(|j| provider[j..].iter().find(|e| e.id == EventId::MailboxPost));
    let mut chain = Chain::new(t0);
    chain
        .to(at(call.map(|b| &caller[b])), "prmi.call_entry")
        .to(at(in_call(EventId::MailboxPost)), "prmi.request")
        .to(at(before_serve), "runtime.match_wait")
        .to(at(serve.map(|j| &provider[j])), "prmi.dispatch")
        .to(at(after_serve), "prmi.reply")
        .to(at(in_call(EventId::MailboxMatch)), "runtime.match_wait")
        .to(at(call_end.map(|e| &caller[e])), "prmi.call_exit");
    chain
}

fn is(e: &TraceEvent, id: EventId, phase: Phase) -> bool {
    e.id == id && e.phase == phase
}

/// Both ranks' events in program order, indexed by call sequence number.
struct Calls {
    caller: Vec<TraceEvent>,
    provider: Vec<TraceEvent>,
    /// Call seq → index of the caller's `PrmiCall` Begin.
    call_begin: HashMap<u64, usize>,
    /// Call seq → index of the provider's `PrmiServe`.
    serve: HashMap<u64, usize>,
}

impl Calls {
    fn new(trace: &RunTrace) -> Calls {
        let caller: Vec<TraceEvent> = trace.events_for(CALLER as usize).copied().collect();
        let provider: Vec<TraceEvent> = trace.events_for(PROVIDER as usize).copied().collect();
        let index = |evs: &[TraceEvent], id: EventId, phase: Phase| {
            evs.iter()
                .enumerate()
                .filter(|(_, e)| is(e, id, phase))
                .map(|(i, e)| (e.args[1], i))
                .collect()
        };
        let call_begin = index(&caller, EventId::PrmiCall, Phase::Begin);
        let serve = index(&provider, EventId::PrmiServe, Phase::Instant);
        Calls { caller, provider, call_begin, serve }
    }

    /// Provider idle before call `op`: from posting reply `op - 1` to
    /// matching request `op`.
    fn idle_us(&self, op: u64) -> Option<f64> {
        let prev = *self.serve.get(&(op - 1))?;
        let next = *self.serve.get(&op)?;
        let posted = self.provider[prev..next].iter().find(|e| e.id == EventId::MailboxPost)?;
        let matched = self.provider[..next].iter().rev().find(|e| e.id == EventId::MailboxMatch)?;
        Some(matched.wall_us as f64 - posted.wall_us as f64)
    }
}
