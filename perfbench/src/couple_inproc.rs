//! `couple_inproc`: transactional `data_ready` epochs, one exporter to one
//! importer in a `Universe`.

use std::sync::Mutex;
use std::time::Instant;

use mxn_core::{ConnectionKind, Direction, FieldRegistry, MxnConnection, TransferOutcome};
use mxn_dad::AccessMode;
use mxn_runtime::{StatsSnapshot, Universe};

use crate::common::{self, Budget, Gate, LatencyLog, Layers, Outcome};
use crate::oracle::{self, FIELD_BYTES};
use crate::spans::{BenchSpan, SpanStore, TraceClock};
use crate::stats::{Chain, Closure};

const EXPORTER: u32 = 0;
const IMPORTER: u32 = 1;

#[derive(Default)]
struct RankRun {
    ready: Option<Instant>,
    /// The exporter's log of op latencies.
    log: LatencyLog,
    /// Per-op `(call start, call end)`, kept in traced windows only.
    ops: Vec<(Instant, Instant)>,
    bad: u64,
    stats: Option<StatsSnapshot>,
    mailbox_peak: u64,
}

/// Runs one measurement window.
pub fn run(seed: u64, budget: Budget, traced: bool) -> Outcome {
    let trace = traced.then(|| TraceClock::new(2));
    let gate = Gate::new(budget, 2);
    let import_end = Mutex::new(None);
    let start = Instant::now();
    let mut ranks = Universe::run(&[1, 1], |p, ctx| {
        let _installed = trace.as_ref().map(|t| t.handle(p.rank()).install());
        crate::bind::bind_rank(p.rank());
        let exporter = ctx.program == 0;
        let ic = ctx.intercomm(1 - ctx.program);
        let mut reg = FieldRegistry::new(ic.local_rank());
        let (dad, access) = if exporter {
            (oracle::export_dad(1), AccessMode::Read)
        } else {
            (oracle::import_dad(1), AccessMode::Write)
        };
        let data = reg.register_allocated("field", dad.clone(), access).expect("register field");
        let mut conn = if exporter {
            let kind = ConnectionKind::Persistent { period: 1 };
            MxnConnection::initiate(ic, &reg, 0, "field", "field", Direction::Export, kind)
        } else {
            MxnConnection::accept(ic, &reg, 0)
        }
        .expect("connection handshake");
        conn.set_transactional(true);
        let mut run = RankRun {
            ready: Some(Instant::now()),
            log: LatencyLog::new(budget.keep_samples),
            ..RankRun::default()
        };
        let stats0 = p.stats();
        ic.reset_mailbox_peak();
        let window = Instant::now();
        let mut epoch = 0u64;
        loop {
            if exporter {
                gate.decide(run.log.ops(), window);
            }
            if !gate.pass() {
                break;
            }
            // The importer waits inside `data_ready` while the exporter
            // writes this epoch's values; the op starts when both are in.
            if exporter {
                oracle::fill(&mut data.write(), seed, epoch);
                gate.await_arrivals(epoch + 1);
            } else {
                gate.arrive();
            }
            let t0 = Instant::now();
            let outcome = conn.data_ready(ic, &reg);
            let t1 = Instant::now();
            match outcome {
                Ok(TransferOutcome::Transferred { .. }) => {}
                other => panic!("couple_inproc epoch {epoch} failed: {other:?}"),
            }
            if traced {
                run.ops.push((t0, t1));
            }
            if !exporter {
                *import_end.lock().expect("no rank panicked holding the slot") = Some(t1);
            }
            // Both ends are stamped before either side checks anything.
            gate.sync();
            if exporter {
                let end = import_end.lock().expect("no rank panicked holding the slot").take();
                run.log.record(common::us(t0, t1.max(end.expect("the importer stamped its end"))));
            } else {
                run.bad += u64::from(oracle::mismatches(&data.read(), &dad, seed, epoch) > 0);
            }
            epoch += 1;
        }
        run.stats = Some(p.stats().since(&stats0));
        run.mailbox_peak = ic.mailbox_bytes().1;
        run
    });
    let setup_end = ranks.iter().filter_map(|r| r.ready).max().expect("ranks report ready");
    let mut out = Outcome {
        log: std::mem::take(&mut ranks[0].log),
        failed: ranks[1].bad,
        setup_s: (setup_end - start).as_secs_f64(),
        ..Outcome::default()
    };
    let (exp, imp) = (&ranks[0], &ranks[1]);
    if let Some(trace) = trace {
        let ops: Vec<(Instant, Instant)> =
            exp.ops.iter().zip(&imp.ops).map(|(e, i)| (e.0, e.1.max(i.1))).collect();
        let (events, clock) = trace.finish();
        let mut bench = Vec::new();
        for (op, (e, i)) in exp.ops.iter().zip(&imp.ops).enumerate() {
            bench.push(span(EXPORTER, e, op));
            bench.push(span(IMPORTER, &(e.0.max(i.0), i.1), op));
        }
        let windows = common::op_windows(clock, &ops);
        let store = SpanStore::build(&events, clock, &bench, &windows);
        let atts: Vec<_> = windows
            .iter()
            .enumerate()
            .map(|(op, &(t0, t1))| blocking_path(&store, op, t0, t1).close(t1 - t0))
            .collect();
        let closure = Closure::of(&atts);
        let mut layers = Layers::new();
        common::record_closure(&mut layers, &closure);
        for (metric, seg) in [
            ("schedule.pack_us", "schedule.pack"),
            ("schedule.unpack_us", "schedule.unpack"),
            ("runtime.match_wait_us", "runtime.match_wait"),
            ("runtime.agree_us", "runtime.agree"),
        ] {
            layers.insert(metric, closure.mean_segment_us.get(seg).copied().unwrap_or(0.0));
        }
        let n = ops.len().max(1) as f64;
        // The importer enters first and waits; its share of the op is
        // timed from the exporter's start.
        let import: Vec<_> = exp.ops.iter().zip(&imp.ops).map(|(e, i)| (e.0, i.1)).collect();
        layers.insert("core.data_ready_export_us", common::us_median(&exp.ops));
        layers.insert("core.data_ready_import_us", common::us_median(&import));
        layers.insert("schedule.build_us", common::schedule_build_us());
        common::record_copies(&mut layers, &store, n);
        common::record_runtime(
            &mut layers,
            exp.stats.as_ref(),
            n,
            exp.mailbox_peak.max(imp.mailbox_peak),
        );
        layers.insert("trace.dropped_events", store.dropped as f64);
        out.closure = Some(closure);
        out.layers = layers;
        common::write_spans(&store, "couple_inproc");
    }
    out
}

fn span(rank: u32, &(start, end): &(Instant, Instant), op: usize) -> BenchSpan {
    BenchSpan { rank, layer: "core", name: "bench.data_ready", start, end, op }
}

/// The op's blocking path across both ranks: the exporter packs and posts,
/// the importer matches the message, both vote, the importer unpacks and
/// commits.
fn blocking_path(store: &SpanStore, op: usize, t0: f64, t1: f64) -> Chain {
    let big = |s: &crate::spans::Span| s.args[3] as usize >= FIELD_BYTES / 2;
    let any = |_: &crate::spans::Span| true;
    let at = |s: Option<&crate::spans::Span>| s.map(|s| s.start);
    let agree = store.last(IMPORTER, op, "Agree", any);
    let commit = store.last(IMPORTER, op, "Commit", any);
    let mut chain = Chain::new(t0);
    chain
        .to(at(store.last(EXPORTER, op, "CopyPack", any)), "schedule.pack")
        .to(at(store.first(EXPORTER, op, "MailboxPost", big)), "runtime.post")
        .to(at(store.first(IMPORTER, op, "MailboxMatch", big)), "runtime.match_wait")
        .to(agree.map(|s| s.start), "core.stage")
        .to(agree.map(|s| s.end), "runtime.agree")
        .to(at(store.last(IMPORTER, op, "CopyUnpack", any)), "schedule.unpack")
        .to(at(commit), "core.commit")
        .to(commit.map(|_| t1), "core.return");
    chain
}
