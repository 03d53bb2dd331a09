//! The traced run's span store: the program's own trace events and the
//! benchmark's spans around public calls, on one clock, with parent ids.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use mxn_trace::{EventId, Phase, RunTrace, TraceCollector, TraceEvent, TraceHandle};

/// The workspace crate an event or span belongs to.
pub fn layer_of(id: EventId) -> &'static str {
    use EventId::*;
    match id {
        ScheduleBuild | CopyPack | CopyUnpack | BufferLease | RoutePlan | RouteStep => "schedule",
        PrmiCall | PrmiServe | DcaBarrier => "prmi",
        Commit | Rollback | Heal => "core",
        WireConnect | WireReconnect | WireFrameCorrupt | HeartbeatMiss | WireZombie | WireJoin => {
            "wire"
        }
        _ => "runtime",
    }
}

/// A trace collector plus the clock that maps the benchmark's `Instant`s
/// onto the collector's microsecond timestamps.
pub struct TraceClock {
    collector: TraceCollector,
    epoch: Instant,
}

impl TraceClock {
    /// Arms tracing for `ranks` recorders. The collector stamps events in
    /// whole microseconds since the clock read that opens its constructor,
    /// so a read just before the call pins the benchmark's clock to it.
    pub fn new(ranks: usize) -> TraceClock {
        let epoch = Instant::now();
        TraceClock { collector: TraceCollector::new(ranks), epoch }
    }

    /// Rank `rank`'s recorder.
    pub fn handle(&self, rank: usize) -> TraceHandle {
        self.collector.handle(rank)
    }

    /// Disarms tracing and returns the events and the clock.
    pub fn finish(self) -> (RunTrace, Clock) {
        (self.collector.finish(), Clock { epoch: self.epoch })
    }
}

/// Maps `Instant`s onto trace microseconds.
#[derive(Clone, Copy)]
pub struct Clock {
    epoch: Instant,
}

impl Clock {
    /// Microseconds since the trace epoch.
    pub fn us(&self, t: Instant) -> f64 {
        if t >= self.epoch {
            (t - self.epoch).as_secs_f64() * 1e6
        } else {
            -((self.epoch - t).as_secs_f64() * 1e6)
        }
    }
}

/// One span in the store. Program instants are zero-length spans.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within the store.
    pub id: usize,
    /// The innermost span on the same rank that encloses this one.
    pub parent: Option<usize>,
    /// Recording rank (world rank; wire node rank over UDS).
    pub rank: u32,
    /// Workspace crate the span belongs to.
    pub layer: &'static str,
    /// Event or call name.
    pub name: &'static str,
    /// Start (µs on the trace clock).
    pub start: f64,
    /// End (µs on the trace clock).
    pub end: f64,
    /// Event arguments (zero for benchmark spans).
    pub args: [u64; 4],
    /// The op the span falls in, if any.
    pub op: Option<usize>,
}

/// Begin events still waiting for their End, per `(rank, event id)`:
/// `(start, begin args)`, innermost last.
type OpenSpans = BTreeMap<(u32, u16), Vec<(f64, [u64; 4])>>;

/// A benchmark span around a public call.
#[derive(Debug, Clone, Copy)]
pub struct BenchSpan {
    /// Rank whose thread made the call.
    pub rank: u32,
    /// Crate the call enters.
    pub layer: &'static str,
    /// Call name.
    pub name: &'static str,
    /// Call start.
    pub start: Instant,
    /// Call end.
    pub end: Instant,
    /// Op index.
    pub op: usize,
}

/// Every span of a traced window, grouped per rank in time order.
pub struct SpanStore {
    /// All spans, ids are indices.
    pub spans: Vec<Span>,
    /// Events the recorders dropped or could not publish.
    pub dropped: u64,
    /// `(rank, op)` → ids of the spans in that op, in time order.
    by_op: BTreeMap<(u32, usize), Vec<usize>>,
}

impl SpanStore {
    /// Merges the program's events with the benchmark's spans and links
    /// every span to its innermost enclosing span on the same rank.
    /// `ops` holds each op's `[start, end]` on the trace clock.
    pub fn build(trace: &RunTrace, clock: Clock, bench: &[BenchSpan], ops: &[(f64, f64)]) -> Self {
        let mut spans = Vec::new();
        let mut open: OpenSpans = BTreeMap::new();
        for ev in &trace.events {
            let t = ev.wall_us as f64;
            let key = (ev.rank, ev.id as u16);
            match ev.phase {
                Phase::Begin => open.entry(key).or_default().push((t, ev.args)),
                Phase::End => {
                    if let Some((start, args)) = open.get_mut(&key).and_then(Vec::pop) {
                        spans.push(program_span(ev, start, t, args));
                    }
                }
                Phase::Instant => spans.push(program_span(ev, t, t, ev.args)),
            }
        }
        for b in bench {
            spans.push(Span {
                id: 0,
                parent: None,
                rank: b.rank,
                layer: b.layer,
                name: b.name,
                start: clock.us(b.start),
                end: clock.us(b.end),
                args: [0; 4],
                op: Some(b.op),
            });
        }
        // Outer spans first at equal starts, so a parent precedes its child.
        spans.sort_by(|a, b| {
            a.rank.cmp(&b.rank).then(a.start.total_cmp(&b.start)).then(b.end.total_cmp(&a.end))
        });
        let mut stack: Vec<usize> = Vec::new();
        let mut rank = u32::MAX;
        for i in 0..spans.len() {
            spans[i].id = i;
            if spans[i].rank != rank {
                rank = spans[i].rank;
                stack.clear();
            }
            while let Some(&top) = stack.last() {
                if spans[top].end >= spans[i].end && spans[top].start <= spans[i].start {
                    break;
                }
                stack.pop();
            }
            spans[i].parent = stack.last().copied();
            if spans[i].op.is_none() {
                spans[i].op = op_of(ops, spans[i].start);
            }
            stack.push(i);
        }
        let mut by_op: BTreeMap<(u32, usize), Vec<usize>> = BTreeMap::new();
        for s in &spans {
            if let Some(op) = s.op {
                by_op.entry((s.rank, op)).or_default().push(s.id);
            }
        }
        SpanStore { spans, dropped: trace.dropped, by_op }
    }

    /// Spans of `rank` in op `op`, in time order.
    pub fn in_op(&self, rank: u32, op: usize) -> impl Iterator<Item = &Span> {
        self.by_op.get(&(rank, op)).into_iter().flatten().map(|&i| &self.spans[i])
    }

    /// First span named `name` of `rank` in op `op` that satisfies `pred`.
    pub fn first(
        &self,
        rank: u32,
        op: usize,
        name: &str,
        pred: impl Fn(&Span) -> bool,
    ) -> Option<&Span> {
        self.in_op(rank, op).find(|s| s.name == name && pred(s))
    }

    /// Last such span.
    pub fn last(
        &self,
        rank: u32,
        op: usize,
        name: &str,
        pred: impl Fn(&Span) -> bool,
    ) -> Option<&Span> {
        self.in_op(rank, op).filter(|s| s.name == name && pred(s)).last()
    }

    /// Self time per layer of `rank`'s spans in op `op`, clipped to
    /// `[lo, hi]`: every instant is charged to the innermost span open at
    /// that instant; time covered by no span is not charged.
    pub fn self_times(
        &self,
        rank: u32,
        op: usize,
        lo: f64,
        hi: f64,
    ) -> BTreeMap<&'static str, f64> {
        let inside: Vec<&Span> = self
            .in_op(rank, op)
            .filter(|s| s.end > lo && s.start < hi && s.end > s.start)
            .collect();
        let mut cuts: Vec<f64> =
            inside.iter().flat_map(|s| [s.start.max(lo), s.end.min(hi)]).collect();
        cuts.sort_by(f64::total_cmp);
        cuts.dedup();
        let mut out = BTreeMap::new();
        for w in cuts.windows(2) {
            let mid = (w[0] + w[1]) / 2.0;
            // Innermost = the covering span that starts last.
            let owner = inside
                .iter()
                .filter(|s| s.start <= mid && mid < s.end)
                .max_by(|a, b| a.start.total_cmp(&b.start).then(b.end.total_cmp(&a.end)));
            if let Some(s) = owner {
                *out.entry(s.layer).or_insert(0.0) += w[1] - w[0];
            }
        }
        out
    }

    /// Writes the spans of the first `max_ops` ops as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path, max_ops: usize) -> std::io::Result<()> {
        let mut out = String::new();
        for s in self.spans.iter().filter(|s| s.op.is_some_and(|op| op < max_ops)) {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"rank\":{},\"layer\":\"{}\",\"name\":\"{}\",\
                 \"start_us\":{:.3},\"end_us\":{:.3},\"args\":[{},{},{},{}]}}",
                s.id,
                parent,
                s.op.unwrap_or(0),
                s.rank,
                s.layer,
                s.name,
                s.start,
                s.end,
                s.args[0],
                s.args[1],
                s.args[2],
                s.args[3]
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

fn program_span(ev: &TraceEvent, start: f64, end: f64, args: [u64; 4]) -> Span {
    Span {
        id: 0,
        parent: None,
        rank: ev.rank,
        layer: layer_of(ev.id),
        name: ev.id.name(),
        start,
        end,
        args,
        op: None,
    }
}

/// The op whose window holds `t` (windows are disjoint and ascending);
/// the 1 µs slack absorbs the trace clock's truncation to whole µs.
fn op_of(ops: &[(f64, f64)], t: f64) -> Option<usize> {
    let i = ops.partition_point(|&(_, end)| end + 1.0 < t);
    ops.get(i).filter(|&&(start, _)| start - 1.0 <= t).map(|_| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_are_found_by_window() {
        let ops = [(10.0, 20.0), (30.0, 40.0)];
        assert_eq!(op_of(&ops, 15.0), Some(0));
        assert_eq!(op_of(&ops, 20.5), Some(0));
        assert_eq!(op_of(&ops, 25.0), None);
        assert_eq!(op_of(&ops, 29.5), Some(1));
        assert_eq!(op_of(&ops, 45.0), None);
    }
}
