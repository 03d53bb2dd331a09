//! `elastic_cycle`: `expand` by one spare importer, one epoch at the grown
//! size, `contract`, one epoch at the original size. The spare re-parks in
//! `MxnConnection::join` after every cycle.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mxn_core::{ConnectionKind, Direction, FieldRegistry, MxnConnection, TransferOutcome};
use mxn_dad::AccessMode;
use mxn_runtime::{InterComm, StatsSnapshot, World};

use crate::common::{self, Budget, Gate, LatencyLog, Layers, Outcome};
use crate::oracle;
use crate::spans::{BenchSpan, SpanStore, TraceClock};
use crate::stats::{self, Attribution, Closure};

const EXPORTER: usize = 0;
const IMPORTER: usize = 1;
const SPARE: usize = 2;
const FIELD: &str = "field";
const JOIN_TIMEOUT: Duration = Duration::from_secs(60);

/// One cycle as one rank saw it: `[expand start, expand end, grown epoch
/// end, contract start, contract end, shrunk epoch end]`. The spare's
/// expand start is its `join` call; a leaver has no shrunk epoch, so its
/// last stamp repeats its contract end.
type Stamps = [Instant; 6];

#[derive(Default)]
struct RankRun {
    ready: Option<Instant>,
    /// The exporter's log of cycle latencies.
    log: LatencyLog,
    /// Per-cycle stamps, kept in traced windows only.
    cycles: Vec<Stamps>,
    bad: u64,
    stats: Option<StatsSnapshot>,
    mailbox_peak: u64,
}

/// What the three rank threads share besides the gate: the other ranks'
/// end stamps of the current half, so the exporter can time each half
/// until the last rank is done.
#[derive(Default)]
struct Ends {
    grown: Mutex<Vec<Instant>>,
    shrunk: Mutex<Vec<Instant>>,
}

impl Ends {
    fn stamp(ends: &Mutex<Vec<Instant>>, t: Instant) {
        ends.lock().expect("no rank panicked holding the stamps").push(t);
    }

    /// Takes the other ranks' stamps from `ends` (all in, since a barrier
    /// followed them) and returns the latest of them and `mine`.
    fn last(ends: &Mutex<Vec<Instant>>, mine: Instant) -> Instant {
        let mut v = ends.lock().expect("no rank panicked holding the stamps");
        assert_eq!(v.len(), 2, "both other ranks stamped their ends");
        v.drain(..).fold(mine, Instant::max)
    }
}

/// Runs one measurement window.
pub fn run(seed: u64, budget: Budget, traced: bool) -> Outcome {
    let trace = traced.then(|| TraceClock::new(3));
    // Arrivals at the gate: the importer before `expand`, the importer and
    // the spare before `contract` — three per cycle.
    let gate = Gate::new(budget, 3);
    let ends = Ends::default();
    let start = Instant::now();
    let mut ranks = World::run(3, |p| {
        let _installed = trace.as_ref().map(|t| t.handle(p.rank()).install());
        // The spare shares the exporter's CPU: the importer and the spare
        // unpack side by side in the grown epoch.
        crate::bind::bind_rank(p.rank());
        let log = LatencyLog::new(budget.keep_samples);
        if p.rank() == SPARE {
            spare(p.world(), &gate, &ends, seed, traced)
        } else {
            incumbent(p, &gate, &ends, seed, traced, log)
        }
    });
    let setup_end =
        ranks[..SPARE].iter().filter_map(|r| r.ready).max().expect("ranks report ready");
    let mut out = Outcome {
        log: std::mem::take(&mut ranks[EXPORTER].log),
        failed: ranks.iter().map(|r| r.bad).sum(),
        setup_s: (setup_end - start).as_secs_f64(),
        ..Outcome::default()
    };
    let cycles: Vec<[&Stamps; 3]> = (0..ranks[EXPORTER].cycles.len())
        .map(|c| [&ranks[EXPORTER].cycles[c], &ranks[IMPORTER].cycles[c], &ranks[SPARE].cycles[c]])
        .collect();
    // The grown half runs from the exporter's expand start until the last
    // rank finishes the grown epoch; the shrunk half likewise.
    let halves = |c: &[&Stamps; 3]| {
        let grown = (c[0][0], c.iter().map(|s| s[2]).max().expect("three ranks"));
        let shrunk = (c[0][3], c.iter().map(|s| s[5]).max().expect("three ranks"));
        (grown, shrunk)
    };
    if let Some(trace) = trace {
        let (events, clock) = trace.finish();
        let mut bench = Vec::new();
        for (op, c) in cycles.iter().enumerate() {
            for (rank, s) in c.iter().enumerate() {
                let mut push = |name, a: Instant, b: Instant| {
                    bench.push(BenchSpan {
                        rank: rank as u32,
                        layer: "core",
                        name,
                        start: a,
                        end: b,
                        op,
                    })
                };
                push(if rank == SPARE { "bench.join" } else { "bench.expand" }, s[0], s[1]);
                push("bench.data_ready", s[1], s[2]);
                push("bench.contract", s[3], s[4]);
                if rank != SPARE {
                    push("bench.data_ready", s[4], s[5]);
                }
            }
        }
        // A cycle's spans fall between its expand start and shrunk end.
        let whole: Vec<(Instant, Instant)> =
            cycles.iter().map(|c| (halves(c).0 .0, halves(c).1 .1)).collect();
        let windows = common::op_windows(clock, &whole);
        let store = SpanStore::build(&events, clock, &bench, &windows);
        let atts: Vec<Attribution> = cycles
            .iter()
            .enumerate()
            .map(|(op, c)| {
                let (g, s) = halves(c);
                let mut self_us = BTreeMap::new();
                for (a, b) in [g, s] {
                    for (layer, us) in
                        store.self_times(EXPORTER as u32, op, clock.us(a), clock.us(b))
                    {
                        *self_us.entry(layer).or_insert(0.0) += us;
                    }
                }
                let op_us = common::us(g.0, g.1) + common::us(s.0, s.1);
                let attributed: f64 = self_us.values().sum();
                Attribution {
                    segments: BTreeMap::new(),
                    self_us,
                    unattributed_us: (op_us - attributed).max(0.0),
                    op_us,
                }
            })
            .collect();
        let closure = Closure::of(&atts);
        let mut layers = Layers::new();
        common::record_closure(&mut layers, &closure);
        let exp = &ranks[EXPORTER].cycles;
        let pick = |i: usize, j: usize| exp.iter().map(|s| (s[i], s[j])).collect::<Vec<_>>();
        layers.insert("core.expand_us", common::us_median(&pick(0, 1)));
        layers.insert("core.contract_us", common::us_median(&pick(3, 4)));
        let joins: Vec<(Instant, Instant)> =
            cycles.iter().map(|c| (c[EXPORTER][0], c[SPARE][1])).collect();
        layers.insert("core.join_us", common::us_median(&joins));
        let epochs: Vec<f64> =
            exp.iter().map(|s| common::us(s[1], s[2]) + common::us(s[4], s[5])).collect();
        layers.insert("core.data_ready_export_us", stats::median(&epochs));
        let imp = &ranks[IMPORTER].cycles;
        let epochs: Vec<f64> =
            imp.iter().map(|s| common::us(s[1], s[2]) + common::us(s[4], s[5])).collect();
        layers.insert("core.data_ready_import_us", stats::median(&epochs));
        let per_op = |rank: usize, name: &str| -> f64 {
            let xs: Vec<f64> = (0..cycles.len())
                .map(|op| {
                    store
                        .in_op(rank as u32, op)
                        .filter(|s| s.name == name)
                        .map(|s| s.end - s.start)
                        .sum()
                })
                .collect();
            stats::mean(&xs)
        };
        layers.insert("runtime.agree_us", per_op(EXPORTER, "Agree"));
        // Inside each epoch: the exporter packs from its call's start to
        // its last `CopyPack`; the importer unpacks from the vote's end
        // to its last `CopyUnpack`.
        let epoch_part = |rank: usize, from: &str, to: &str| -> f64 {
            let xs: Vec<f64> = (0..cycles.len())
                .map(|op| {
                    let spans: Vec<_> = store.in_op(rank as u32, op).collect();
                    spans
                        .iter()
                        .filter(|d| d.name == "bench.data_ready")
                        .filter_map(|d| {
                            let last = |name: &str| {
                                spans.iter().rev().find(|s| {
                                    s.name == name && s.start >= d.start - 1.0 && s.start <= d.end
                                })
                            };
                            let end = last(to)?;
                            let begin = if from.is_empty() { d.start } else { last(from)?.end };
                            Some((end.start - begin).max(0.0))
                        })
                        .sum()
                })
                .collect();
            stats::mean(&xs)
        };
        layers.insert("schedule.pack_us", epoch_part(EXPORTER, "", "CopyPack"));
        layers.insert("schedule.unpack_us", epoch_part(IMPORTER, "Agree", "CopyUnpack"));
        layers.insert("schedule.build_us", per_op(EXPORTER, "ScheduleBuild"));
        let n = cycles.len().max(1) as f64;
        common::record_copies(&mut layers, &store, n);
        let peak = ranks[EXPORTER].mailbox_peak.max(ranks[IMPORTER].mailbox_peak);
        common::record_runtime(&mut layers, ranks[EXPORTER].stats.as_ref(), n, peak);
        layers.insert("trace.dropped_events", store.dropped as f64);
        out.closure = Some(closure);
        out.layers = layers;
        common::write_spans(&store, "elastic_cycle");
    }
    out
}

fn incumbent(
    p: &mxn_runtime::Process,
    gate: &Gate,
    ends: &Ends,
    seed: u64,
    traced: bool,
    log: LatencyLog,
) -> RankRun {
    let world = p.world();
    let exporter = p.rank() == EXPORTER;
    let pair = world.split(0, 0).expect("split the incumbents").expect("incumbents are colored");
    let (_, mut ic) = InterComm::create(&pair, p.rank()).expect("create the intercomm");
    let mut reg = FieldRegistry::new(0);
    let (dad, access) = if exporter {
        (oracle::export_dad(1), AccessMode::Read)
    } else {
        (oracle::import_dad(1), AccessMode::Write)
    };
    reg.register_allocated(FIELD, dad, access).expect("register field");
    let mut conn = if exporter {
        let kind = ConnectionKind::Persistent { period: 1 };
        MxnConnection::initiate(&ic, &reg, 0, FIELD, FIELD, Direction::Export, kind)
    } else {
        MxnConnection::accept(&ic, &reg, 0)
    }
    .expect("connection handshake");
    conn.set_transactional(true);
    let mut run = RankRun { ready: Some(Instant::now()), log, ..RankRun::default() };
    let stats0 = p.stats();
    ic.reset_mailbox_peak();
    let window = Instant::now();
    if exporter {
        gate.decide(0, window);
    }
    gate.sync();
    let mut epoch = 0u64;
    let (add_local, add_remote): (&[usize], &[usize]) =
        if exporter { (&[], &[SPARE]) } else { (&[SPARE], &[]) };
    let mut cycle = 0u64;
    while gate.go() {
        if exporter {
            fill(&reg, seed, epoch);
            gate.await_arrivals(3 * cycle + 1);
        } else {
            gate.arrive();
        }
        let s0 = Instant::now();
        let (grown, _) = conn.expand(&ic, world, &mut reg, add_local, add_remote).expect("expand");
        let s1 = Instant::now();
        transfer(&mut conn, &grown, &reg, "grown");
        let s2 = Instant::now();
        if !exporter {
            Ends::stamp(&ends.grown, s2);
        }
        gate.sync();
        let grown_end = exporter.then(|| Ends::last(&ends.grown, s2));
        run.bad += check(&reg, exporter, seed, epoch);
        epoch += 1;
        if exporter {
            gate.decide(run.log.ops() + 1, window);
        }
        gate.sync();
        if exporter {
            fill(&reg, seed, epoch);
            gate.await_arrivals(3 * cycle + 3);
        } else {
            gate.arrive();
        }
        let s3 = Instant::now();
        let (shrunk, _) = conn.contract(&grown, world, &mut reg, &[0], &[0]).expect("contract");
        let s4 = Instant::now();
        ic = shrunk.expect("incumbents stay");
        transfer(&mut conn, &ic, &reg, "shrunk");
        let s5 = Instant::now();
        if !exporter {
            Ends::stamp(&ends.shrunk, s5);
        }
        // The spare leaves on `contract`; it stamps its end and meets the
        // incumbents here before anyone checks or re-parks.
        gate.sync();
        if let Some(grown_end) = grown_end {
            let shrunk_end = Ends::last(&ends.shrunk, s5);
            run.log.record(common::us(s0, grown_end) + common::us(s3, shrunk_end));
        }
        if traced {
            run.cycles.push([s0, s1, s2, s3, s4, s5]);
        }
        run.bad += check(&reg, exporter, seed, epoch);
        epoch += 1;
        cycle += 1;
    }
    run.stats = Some(p.stats().since(&stats0));
    run.mailbox_peak = ic.mailbox_bytes().1;
    run
}

fn spare(world: &mxn_runtime::Comm, gate: &Gate, ends: &Ends, seed: u64, traced: bool) -> RankRun {
    assert!(world.split(-1, 0).expect("opt out of the incumbents' split").is_none());
    let mut run = RankRun::default();
    gate.sync();
    let mut epoch = 0u64;
    while gate.go() {
        let s0 = Instant::now();
        let (mut conn, ic, mut reg) = MxnConnection::join(world, JOIN_TIMEOUT).expect("join");
        let s1 = Instant::now();
        transfer(&mut conn, &ic, &reg, "grown");
        let s2 = Instant::now();
        Ends::stamp(&ends.grown, s2);
        gate.sync();
        run.bad += check(&reg, false, seed, epoch);
        epoch += 2;
        gate.sync();
        gate.arrive();
        let s3 = Instant::now();
        let (left, _) = conn.contract(&ic, world, &mut reg, &[0], &[0]).expect("contract");
        let s4 = Instant::now();
        Ends::stamp(&ends.shrunk, s4);
        gate.sync();
        assert!(left.is_none(), "the spare leaves on contract");
        if traced {
            run.cycles.push([s0, s1, s2, s3, s4, s4]);
        }
    }
    run
}

fn transfer(conn: &mut MxnConnection, ic: &InterComm, reg: &FieldRegistry, size: &str) {
    match conn.data_ready(ic, reg) {
        Ok(TransferOutcome::Transferred { .. }) => {}
        other => panic!("elastic_cycle {size} epoch failed: {other:?}"),
    }
}

/// The exporter writes epoch `epoch`'s values over its current layout.
fn fill(reg: &FieldRegistry, seed: u64, epoch: u64) {
    let entry = reg.get(FIELD).expect("registered field");
    oracle::fill(&mut entry.data().write(), seed, epoch);
}

/// An importer's field must equal the oracle over its current layout.
fn check(reg: &FieldRegistry, exporter: bool, seed: u64, epoch: u64) -> u64 {
    if exporter {
        return 0;
    }
    let entry = reg.get(FIELD).expect("registered field");
    let data = entry.data().read();
    u64::from(oracle::mismatches(&data, entry.dad(), seed, epoch) > 0)
}
