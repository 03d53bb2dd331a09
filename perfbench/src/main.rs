//! End-to-end and per-layer benchmark of the mxn system's user-visible
//! operations: the M×N coupling epoch in-proc and over Unix-domain sockets,
//! the collective PRMI call, and an elastic grow/shrink cycle.
//!
//! ```text
//! perfbench --workload <couple_inproc|couple_uds|prmi_small|elastic_cycle>
//!           --seed <n> --seconds <s> --trace <0|1> [--l2-bytes <n>]
//! ```
//!
//! Every workload is a closed loop with one client; each op is checked
//! against an oracle. `--trace 0` measures the end-to-end metrics with
//! tracing off. `--trace 1` spends half the time untraced and half traced,
//! and attributes each traced op's time to the crates it crosses. The last
//! line of standard output is one JSON object with the metrics.

mod bind;
mod common;
mod couple_inproc;
mod couple_uds;
mod elastic_cycle;
mod oracle;
mod prmi_small;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use common::{Budget, Outcome, CHUNK_OPS, PER_LAYER};

/// Set-up samples taken before and again after the measured window of an
/// end-to-end run; `setup_s` is the median of all of them.
const SETUP_SAMPLES: usize = 25;

struct Workload {
    name: &'static str,
    rank_threads: usize,
    /// Op cap of a traced window, which bounds the span store's memory.
    traced_ops: usize,
    run: fn(u64, Budget, bool) -> Outcome,
}

const WORKLOADS: &[Workload] = &[
    Workload { name: "couple_inproc", rank_threads: 2, traced_ops: 4000, run: couple_inproc::run },
    Workload { name: "couple_uds", rank_threads: 2, traced_ops: 2000, run: couple_uds::run },
    Workload { name: "prmi_small", rank_threads: 2, traced_ops: 20000, run: prmi_small::run },
    Workload { name: "elastic_cycle", rank_threads: 3, traced_ops: 1500, run: elastic_cycle::run },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    l2_bytes: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k.strip_prefix("--").ok_or_else(|| format!("unexpected argument {k}"))?;
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        kv.insert(key.to_string(), v);
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
    let name = get("workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    let num = |k: &str| get(k)?.parse::<f64>().map_err(|e| format!("--{k}: {e}"));
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: num("seconds")?,
        trace,
        l2_bytes: kv.get("l2-bytes").and_then(|v| v.parse().ok()).unwrap_or(0),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    header(&args);
    let result =
        catch_unwind(AssertUnwindSafe(
            || {
                if args.trace {
                    traced(&args)
                } else {
                    end_to_end(&args)
                }
            },
        ));
    let report = result.unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        eprintln!("perfbench: {} failed: {msg}", args.workload.name);
        Report { attempted: 1, failed: 1, metrics: Vec::new(), ok: false }
    });
    report.print();
    if report.ok && report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn header(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let l2 = if args.l2_bytes > 0 {
        format!("{} KiB per-core L2", args.l2_bytes / 1024)
    } else {
        "per-core L2 unknown".to_string()
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={} rank_threads={}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc,
        args.workload.rank_threads
    );
    println!(
        "field {}x{} f64 = {} KiB ({l2}); exporter: one row block, importer: {}x{} tiles \
         block-cyclic on both axes",
        oracle::ROWS,
        oracle::COLS,
        oracle::FIELD_BYTES / 1024,
        oracle::TILE,
        oracle::TILE
    );
}

struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    ok: bool,
}

impl Report {
    fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("  {name:<32} {value:>16.4} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_num(*value))
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.ok && self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn end_to_end(args: &Args) -> Report {
    let w = args.workload;
    // Set-ups are measured while the spinners are stopped: a thread
    // spawned while they spin waits out a scheduler tick. The host's load
    // moves a set-up by a third within seconds, so half the samples are
    // taken after the window, tens of seconds later.
    let setup = || (w.run)(args.seed, Budget::setup_only(), false).setup_s;
    let mut setups: Vec<f64> = (0..SETUP_SAMPLES).map(|_| setup()).collect();
    let spinners = bind::Spinners::start();
    let out = (w.run)(args.seed, Budget::new(args.seconds, usize::MAX), false);
    drop(spinners);
    setups.extend((0..SETUP_SAMPLES).map(|_| setup()));
    let log = &out.log;
    let n = log.ops();
    let failed_frac = if n > 0 { out.failed as f64 / n as f64 } else { 1.0 };
    // Every figure is the median over chunks of consecutive ops, each
    // large enough for its own p99: a few milliseconds of stolen CPU then
    // move one chunk, not the figure. The p99 is printed, not reported:
    // see `op_p90_us` in PREDICTIONS.md.
    println!(
        "{n} ops in {} chunks of {CHUNK_OPS}, each with {} samples beyond its p99; p50, p90 and \
         ops_per_s are medians over the chunks; failed_frac {failed_frac} ({} of {n})",
        log.num_chunks(),
        stats::samples_beyond(CHUNK_OPS, 0.99),
        out.failed
    );
    for (i, name) in ["p50", "p90", "p99", "rate"].iter().enumerate() {
        let q = log.chunk_spread(i);
        println!(
            "  chunk {name}: min {:.1} q1 {:.1} median {:.1} q3 {:.1} max {:.1}",
            q[0], q[1], q[2], q[3], q[4]
        );
    }
    let ok = log.num_chunks() > 0;
    match log.p99() {
        Some(p99) => println!("op_p99_us {p99} us (median of the chunks' p99s; printed only)"),
        None => {
            eprintln!("perfbench: {n} ops are fewer than the {CHUNK_OPS} a p99 needs; run longer")
        }
    }
    Report {
        attempted: n.max(1) as u64,
        failed: out.failed,
        metrics: vec![
            ("op_p50_us", log.p50().unwrap_or(0.0), "us"),
            ("op_p90_us", log.p90().unwrap_or(0.0), "us"),
            ("ops_per_s", log.rate().unwrap_or(0.0), "1/s"),
            ("setup_s", stats::median(&setups), "s"),
        ],
        ok,
    }
}

fn traced(args: &Args) -> Report {
    let w = args.workload;
    let half = args.seconds / 2.0;
    let spinners = bind::Spinners::start();
    let plain = (w.run)(args.seed, Budget::new(half, usize::MAX).keeping_samples(), false);
    let out = (w.run)(args.seed, Budget::new(half, w.traced_ops).keeping_samples(), true);
    drop(spinners);
    let p50 = |o: &Outcome| o.log.p50().unwrap_or(0.0);
    let mut layers: BTreeMap<&str, f64> = PER_LAYER.iter().map(|&(k, _)| (k, 0.0)).collect();
    layers.extend(out.layers.iter().map(|(&k, &v)| (k, v)));
    layers.insert("bench.serial_remap_us", serial_remap_us());
    layers.insert("trace.op_p50_us", p50(&out));
    layers.insert("trace.overhead_frac", p50(&out) / p50(&plain) - 1.0);
    println!(
        "traced {} ops (untraced {}): op p50 {:.1} us traced vs {:.1} us untraced",
        out.log.ops(),
        plain.log.ops(),
        p50(&out),
        p50(&plain)
    );
    if let Some(c) = &out.closure {
        println!("self time on the blocking path, mean per op of {:.1} us:", c.mean_op_us);
        for (layer, us) in &c.mean_self_us {
            println!("  {layer:<10} {us:>10.1} us  {:>5.1} %", 100.0 * c.share(layer));
        }
        println!("  {:<10} {:>10} {:>5.1} %", "unattributed", "", 100.0 * c.unattributed_frac);
        if let Some((layer, us)) = c.largest() {
            println!("largest layer: {layer} ({us:.1} us, {:.1} %)", 100.0 * c.share(layer));
        }
    }
    for note in &out.notes {
        println!("{note}");
    }
    let attempted = (plain.log.ops() + out.log.ops()) as u64;
    Report {
        attempted: attempted.max(1),
        failed: plain.failed + out.failed,
        metrics: PER_LAYER.iter().map(|&(k, unit)| (k, layers[k], unit)).collect(),
        ok: out.log.ops() > 0 && plain.log.ops() > 0,
    }
}

/// Median time of the serial floor: one thread remapping the field from
/// the export layout to the import layout with a plain index loop. Checks
/// the remap against the oracle once.
fn serial_remap_us() -> f64 {
    const REPS: usize = 201;
    let src = oracle::expected(&oracle::export_dad(1), 0, 1, 0);
    let want = oracle::expected(&oracle::import_dad(1), 0, 1, 0).to_flat();
    let src = src.patch(0).1;
    let mut dst = vec![0.0; src.len()];
    let mut times = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t0 = Instant::now();
        oracle::serial_remap(std::hint::black_box(src), &mut dst);
        std::hint::black_box(&mut dst);
        times.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    assert!(dst == want, "the serial remap must match the import layout");
    stats::median(&times)
}
