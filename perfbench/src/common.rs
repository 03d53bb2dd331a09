//! What every workload shares: the measurement budget, the per-window
//! outcome, and the per-layer metric table.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use mxn_runtime::StatsSnapshot;
use mxn_schedule::RegionSchedule;

use crate::oracle;
use crate::spans::{Clock, SpanStore};
use crate::stats::{self, Closure};

/// How long one measurement window runs.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Wall-clock length of the window.
    pub window: Duration,
    /// Op cap (bounds the traced window's span memory).
    pub max_ops: usize,
    /// Keep every latency sample (see [`LatencyLog::new`]).
    pub keep_samples: bool,
}

impl Budget {
    /// A window of `seconds`, at most `max_ops` ops.
    pub fn new(seconds: f64, max_ops: usize) -> Budget {
        Budget { window: Duration::from_secs_f64(seconds.max(0.0)), max_ops, keep_samples: false }
    }

    /// Set-up only: no op runs.
    pub fn setup_only() -> Budget {
        Budget::new(0.0, 0)
    }

    /// The same budget, keeping every latency sample.
    pub fn keeping_samples(self) -> Budget {
        Budget { keep_samples: true, ..self }
    }
}

/// The closed loop's go/stop gate: the client decides before each op
/// whether another one fits the budget, and every rank thread of the op
/// learns the decision at the same barrier.
pub struct Gate {
    budget: Budget,
    go: AtomicBool,
    barrier: Barrier,
    arrivals: AtomicU64,
}

impl Gate {
    /// A gate for `parties` rank threads.
    pub fn new(budget: Budget, parties: usize) -> Gate {
        Gate {
            budget,
            go: AtomicBool::new(false),
            barrier: Barrier::new(parties),
            arrivals: AtomicU64::new(0),
        }
    }

    /// Called by the client alone, before the barrier: opens the next op
    /// if `done` ops since `window_start` leave room for it.
    pub fn decide(&self, done: usize, window_start: Instant) {
        let more = done < self.budget.max_ops && window_start.elapsed() < self.budget.window;
        self.go.store(more, Ordering::SeqCst);
    }

    /// Called by the client alone: opens the next op whatever the budget
    /// (a warm-up op, before the measured window).
    pub fn open(&self) {
        self.go.store(true, Ordering::SeqCst);
    }

    /// Whether the budget measures any op (not a set-up-only run).
    pub fn measures(&self) -> bool {
        self.budget.max_ops > 0 && !self.budget.window.is_zero()
    }

    /// Waits for every party; returns whether the next op runs.
    pub fn pass(&self) -> bool {
        self.barrier.wait();
        self.go()
    }

    /// The last decision, for a party that met the client at a barrier
    /// since it was made.
    pub fn go(&self) -> bool {
        self.go.load(Ordering::SeqCst)
    }

    /// Plain rendezvous of every party (no decision).
    pub fn sync(&self) {
        self.barrier.wait();
    }

    /// A server-side rank announces it is about to enter the op's call.
    pub fn arrive(&self) {
        self.arrivals.fetch_add(1, Ordering::SeqCst);
    }

    /// The client waits, yielding its core, until `total` arrivals have
    /// been announced since the gate was made. Starting the op's clock
    /// only then keeps a late thread wake-up out of the op.
    pub fn await_arrivals(&self, total: u64) {
        while self.arrivals.load(Ordering::SeqCst) < total {
            std::thread::yield_now();
        }
    }
}

/// Ops per chunk of a latency log: the fewest that leave 10 samples
/// beyond a p99, which the run prints next to the reported p90.
pub const CHUNK_OPS: usize = 1000;

/// Op latencies of one window, kept in constant memory unless every
/// sample is asked for: each chunk of [`CHUNK_OPS`] consecutive ops is
/// reduced to its median, its p90, its p99 and its rate as it fills, so a long run
/// does not grow the process the benchmark reports the peak memory of.
#[derive(Default, Debug)]
pub struct LatencyLog {
    chunk: Vec<f64>,
    /// Per completed chunk: (p50, p90, p99, ops per second of op time).
    chunks: Vec<(f64, f64, f64, f64)>,
    all: Option<Vec<f64>>,
    ops: usize,
}

impl LatencyLog {
    /// A log that keeps every sample too when `keep_all` (traced windows,
    /// whose size the op cap bounds).
    pub fn new(keep_all: bool) -> LatencyLog {
        LatencyLog {
            chunk: Vec::with_capacity(CHUNK_OPS),
            chunks: Vec::new(),
            all: keep_all.then(Vec::new),
            ops: 0,
        }
    }

    /// Records one op's latency (µs).
    pub fn record(&mut self, us: f64) {
        self.ops += 1;
        if let Some(all) = &mut self.all {
            all.push(us);
        }
        self.chunk.push(us);
        if self.chunk.len() == CHUNK_OPS {
            let rate = CHUNK_OPS as f64 * 1e6 / self.chunk.iter().sum::<f64>();
            self.chunk.sort_by(f64::total_cmp);
            let p50 = stats::percentile(&self.chunk, 0.5).expect("a full chunk");
            let p90 = stats::percentile(&self.chunk, 0.9).expect("a full chunk");
            let p99 =
                stats::tail_percentile(&self.chunk, 0.99).expect("a chunk leaves 10 beyond p99");
            self.chunks.push((p50, p90, p99, rate));
            self.chunk.clear();
        }
    }

    /// Ops recorded.
    pub fn ops(&self) -> usize {
        self.ops
    }

    /// Completed chunks.
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Median latency: over every sample when kept, else the median of the
    /// chunks' medians.
    pub fn p50(&self) -> Option<f64> {
        match &self.all {
            Some(all) if !all.is_empty() => Some(stats::median(all)),
            Some(_) => None,
            None => self.over_chunks(|c| c.0),
        }
    }

    /// Median of the chunks' p90s.
    pub fn p90(&self) -> Option<f64> {
        self.over_chunks(|c| c.1)
    }

    /// Median of the chunks' p99s.
    pub fn p99(&self) -> Option<f64> {
        self.over_chunks(|c| c.2)
    }

    /// Median of the chunks' rates (ops per second of op time).
    pub fn rate(&self) -> Option<f64> {
        self.over_chunks(|c| c.3)
    }

    /// Min, quartiles and max over the chunks of their p50 (`which` 0),
    /// p90 (1), p99 (2) or rate (3): how much the figure moved within the
    /// run.
    pub fn chunk_spread(&self, which: usize) -> [f64; 5] {
        let mut xs: Vec<f64> = self.chunks.iter().map(|c| [c.0, c.1, c.2, c.3][which]).collect();
        xs.sort_by(f64::total_cmp);
        let q = |p: f64| stats::percentile(&xs, p).unwrap_or(0.0);
        [q(0.0), q(0.25), q(0.5), q(0.75), q(1.0)]
    }

    fn over_chunks(&self, f: impl Fn(&(f64, f64, f64, f64)) -> f64) -> Option<f64> {
        let xs: Vec<f64> = self.chunks.iter().map(f).collect();
        (!xs.is_empty()).then(|| stats::median(&xs))
    }
}

/// The outcome of one measurement window.
#[derive(Default)]
pub struct Outcome {
    /// Op latencies.
    pub log: LatencyLog,
    /// Ops that erred or failed the oracle.
    pub failed: u64,
    /// World or mesh start, handshake and first schedule build (s).
    pub setup_s: f64,
    /// Per-layer metrics of a traced window.
    pub layers: Layers,
    /// Blocking-path closure of a traced window.
    pub closure: Option<Closure>,
    /// Human-readable notes of a traced window.
    pub notes: Vec<String>,
}

/// Per-layer metrics, by `<crate>.<metric>` name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Every per-layer metric the benchmark reports, with its unit. A traced
/// run prints all of them; a layer the workload does not cross reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("schedule.build_us", "us"),
    ("schedule.pack_us", "us"),
    ("schedule.unpack_us", "us"),
    ("schedule.runs_per_op", "count"),
    ("schedule.bytes_per_op", "B"),
    ("schedule.path_us", "us"),
    ("wire.send_us", "us"),
    ("wire.recv_wait_us", "us"),
    ("wire.codec_encode_us", "us"),
    ("wire.codec_decode_us", "us"),
    ("wire.frame_encode_us", "us"),
    ("wire.frame_decode_us", "us"),
    ("wire.crc_us", "us"),
    ("wire.frames_per_op", "count"),
    ("wire.resends", "count"),
    ("wire.corrupt_frames", "count"),
    ("wire.path_us", "us"),
    ("runtime.msgs_per_op", "count"),
    ("runtime.bytes_per_op", "B"),
    ("runtime.payload_clones_per_op", "count"),
    ("runtime.payload_allocs_per_op", "count"),
    ("runtime.match_wait_us", "us"),
    ("runtime.agree_us", "us"),
    ("runtime.mailbox_peak_bytes", "B"),
    ("runtime.path_us", "us"),
    ("core.data_ready_export_us", "us"),
    ("core.data_ready_import_us", "us"),
    ("core.rollbacks", "count"),
    ("core.expand_us", "us"),
    ("core.contract_us", "us"),
    ("core.join_us", "us"),
    ("core.path_us", "us"),
    ("prmi.call_us", "us"),
    ("prmi.dispatch_us", "us"),
    ("prmi.serve_idle_us", "us"),
    ("prmi.path_us", "us"),
    ("bench.serial_remap_us", "us"),
    ("bench.unattributed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
    ("trace.op_p50_us", "us"),
    ("trace.dropped_events", "count"),
];

/// Op windows `[start, end]` on the trace clock.
pub fn op_windows(clock: Clock, ops: &[(Instant, Instant)]) -> Vec<(f64, f64)> {
    ops.iter().map(|&(a, b)| (clock.us(a), clock.us(b))).collect()
}

/// Copies a closure's per-layer means into `<layer>.path_us` metrics and
/// its unattributed share into `bench.unattributed_frac`.
pub fn record_closure(layers: &mut Layers, closure: &Closure) {
    for (&layer, &us) in &closure.mean_self_us {
        let name = match layer {
            "schedule" => "schedule.path_us",
            "wire" => "wire.path_us",
            "runtime" => "runtime.path_us",
            "core" => "core.path_us",
            "prmi" => "prmi.path_us",
            _ => continue,
        };
        layers.insert(name, us);
    }
    layers.insert("bench.unattributed_frac", closure.unattributed_frac);
}

/// `CopyPlan` runs and packed bytes per op, and rollbacks, from the
/// program's `CopyPack`/`CopyUnpack`/`Rollback` events inside ops.
pub fn record_copies(layers: &mut Layers, store: &SpanStore, ops: f64) {
    let in_ops =
        |name: &'static str| store.spans.iter().filter(move |s| s.name == name && s.op.is_some());
    let runs: u64 = in_ops("CopyPack").chain(in_ops("CopyUnpack")).map(|s| s.args[1]).sum();
    let packed: u64 = in_ops("CopyPack").map(|s| s.args[0] * 8).sum();
    layers.insert("schedule.runs_per_op", runs as f64 / ops);
    layers.insert("schedule.bytes_per_op", packed as f64 / ops);
    layers.insert("core.rollbacks", in_ops("Rollback").count() as f64);
}

/// Median time (µs) to build both sides' schedules of the 1 → 1 coupling,
/// replayed on the workload's own layouts outside any op.
pub fn schedule_build_us() -> f64 {
    let (exp, imp) = (oracle::export_dad(1), oracle::import_dad(1));
    let xs: Vec<f64> = (0..21)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(RegionSchedule::for_sender(&exp, &imp, 0));
            std::hint::black_box(RegionSchedule::for_receiver(&exp, &imp, 0));
            us(t0, Instant::now())
        })
        .collect();
    stats::median(&xs)
}

/// Elapsed microseconds from `a` to `b`.
pub fn us(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e6
}

/// Median duration (µs) of `(start, end)` pairs.
pub fn us_median(pairs: &[(Instant, Instant)]) -> f64 {
    let xs: Vec<f64> = pairs.iter().map(|&(a, b)| us(a, b)).collect();
    stats::median(&xs)
}

/// The runtime's traffic counters over a window of `ops` ops.
pub fn record_runtime(layers: &mut Layers, stats: Option<&StatsSnapshot>, ops: f64, peak: u64) {
    if let Some(s) = stats {
        layers.insert("runtime.msgs_per_op", s.total_messages() as f64 / ops);
        layers.insert("runtime.bytes_per_op", s.total_bytes() as f64 / ops);
        layers.insert("runtime.payload_clones_per_op", s.payload_clones as f64 / ops);
        layers.insert("runtime.payload_allocs_per_op", s.payload_allocs as f64 / ops);
    }
    layers.insert("runtime.mailbox_peak_bytes", peak as f64);
}

/// Writes the spans of the first ops of a traced window next to the build
/// output (`$CARGO_TARGET_DIR`, else `.bench_build`), for a trace viewer or
/// a closer look. Failure to write is reported, not fatal.
pub fn write_spans(store: &SpanStore, workload: &str) {
    let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    let path = std::path::Path::new(&dir).join("perfbench").join(format!("spans_{workload}.jsonl"));
    match store.write_jsonl(&path, SPAN_DUMP_OPS) {
        Ok(()) => println!("spans of the first {SPAN_DUMP_OPS} traced ops: {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Ops whose spans [`write_spans`] keeps.
const SPAN_DUMP_OPS: usize = 50;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_reduces_full_chunks_only() {
        let mut log = LatencyLog::new(false);
        for i in 0..2500 {
            log.record(f64::from(i % 1000 + 1));
        }
        assert_eq!((log.ops(), log.num_chunks()), (2500, 2));
        assert_eq!(log.p50(), Some(500.0));
        assert_eq!(log.p90(), Some(900.0));
        assert_eq!(log.p99(), Some(990.0));
        assert!((log.rate().unwrap() - 1e6 / 500.5).abs() < 1e-9);
        assert_eq!(LatencyLog::new(false).p90(), None);
    }

    #[test]
    fn kept_samples_give_the_exact_median() {
        let mut log = LatencyLog::new(true);
        for x in [5.0, 1.0, 3.0] {
            log.record(x);
        }
        assert_eq!(log.p50(), Some(3.0));
        assert_eq!(log.p90(), None, "three samples make no chunk");
    }

    #[test]
    fn per_layer_list_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in PER_LAYER {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{name} ({unit}) missing from BENCHMARK.json");
        }
        assert_eq!(json.matches("\"better\"").count(), PER_LAYER.len() + 5);
    }
}
