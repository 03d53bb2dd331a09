//! Sample statistics and the closure arithmetic of the layer attribution.

use std::collections::BTreeMap;

/// Samples a percentile must leave above it before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `q` (0 < q ≤ 1) of `sorted`, which must be in
/// ascending order. Returns `None` for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Samples strictly above the nearest-rank `q` percentile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// The `q` percentile, refused (`None`) unless at least [`TAIL_SAMPLES`]
/// samples lie beyond it — a p99 needs 1000 samples.
pub fn tail_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if samples_beyond(sorted.len(), q) < TAIL_SAMPLES {
        return None;
    }
    percentile(sorted, q)
}

/// Mean of samples (0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Median of unsorted samples (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5).unwrap_or(0.0)
}

/// One op's blocking path: the op's start followed by boundary points, each
/// closing a named segment `<layer>.<what>` of the path. Points may arrive
/// out of order (clock granularity); a running maximum keeps every segment
/// non-negative, so the attributed time never exceeds the span from the
/// start to the last point.
pub struct Chain {
    start: f64,
    at: f64,
    order: Vec<(&'static str, f64)>,
}

impl Chain {
    /// A chain opened at `start` (µs).
    pub fn new(start: f64) -> Chain {
        Chain { start, at: start, order: Vec::new() }
    }

    /// Closes the segment ending at `t` (µs) and charges it to `seg`. A
    /// missing point (`None`) charges nothing, so the time up to it is
    /// charged to the next segment that has a point.
    pub fn to(&mut self, t: Option<f64>, seg: &'static str) -> &mut Chain {
        if let Some(t) = t {
            let next = self.at.max(t);
            self.order.push((seg, next - self.at));
            self.at = next;
        }
        self
    }

    /// Finishes the chain against the op's measured latency `op_us`.
    /// Points past the op's end (clock granularity) are clipped to it.
    pub fn close(&self, op_us: f64) -> Attribution {
        let mut budget = op_us;
        let mut segments = BTreeMap::new();
        let mut self_us = BTreeMap::new();
        for &(seg, us) in &self.order {
            let us = us.min(budget);
            budget -= us;
            *segments.entry(seg).or_insert(0.0) += us;
            *self_us.entry(layer_of_segment(seg)).or_insert(0.0) += us;
        }
        let attributed = op_us - budget;
        debug_assert!(attributed <= self.at - self.start + 1e-9);
        Attribution { segments, self_us, unattributed_us: (op_us - attributed).max(0.0), op_us }
    }
}

/// The layer of segment `<layer>.<what>`.
fn layer_of_segment(seg: &'static str) -> &'static str {
    seg.split('.').next().unwrap_or(seg)
}

/// Per-layer self time of one op.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// Segment → time on the blocking path (µs).
    pub segments: BTreeMap<&'static str, f64>,
    /// Layer → self time on the blocking path (µs).
    pub self_us: BTreeMap<&'static str, f64>,
    /// Op time no layer accounts for (µs).
    pub unattributed_us: f64,
    /// The op's measured latency (µs).
    pub op_us: f64,
}

/// Aggregate of many ops' attributions. Means, not medians: the layers'
/// means add up with the unattributed remainder to the mean op, and the
/// trace's whole-microsecond stamps would make every median a whole number.
#[derive(Debug, Clone, Default)]
pub struct Closure {
    /// Layer → mean self time per op (µs).
    pub mean_self_us: BTreeMap<&'static str, f64>,
    /// Segment → mean time per op (µs).
    pub mean_segment_us: BTreeMap<&'static str, f64>,
    /// Mean op latency (µs).
    pub mean_op_us: f64,
    /// Share of total op time no layer accounts for.
    pub unattributed_frac: f64,
}

impl Closure {
    /// Sums the attributions of `ops`. `unattributed_frac` is the
    /// unattributed share of the summed op time, so the named layers'
    /// shares and it add up to exactly 1.
    pub fn of(ops: &[Attribution]) -> Closure {
        let mut out = Closure::default();
        if ops.is_empty() {
            out.unattributed_frac = 1.0;
            return out;
        }
        let n = ops.len() as f64;
        let total_op: f64 = ops.iter().map(|a| a.op_us).sum();
        // Ops that never crossed a layer or segment count as 0.
        for a in ops {
            for (&layer, &us) in &a.self_us {
                *out.mean_self_us.entry(layer).or_insert(0.0) += us / n;
            }
            for (&seg, &us) in &a.segments {
                *out.mean_segment_us.entry(seg).or_insert(0.0) += us / n;
            }
        }
        out.mean_op_us = total_op / n;
        let unattributed: f64 = ops.iter().map(|a| a.unattributed_us).sum();
        out.unattributed_frac = if total_op > 0.0 { unattributed / total_op } else { 1.0 };
        out
    }

    /// Share of the mean op time carried by `layer`.
    pub fn share(&self, layer: &str) -> f64 {
        let us = self.mean_self_us.get(layer).copied().unwrap_or(0.0);
        if self.mean_op_us > 0.0 {
            us / self.mean_op_us
        } else {
            0.0
        }
    }

    /// The layer with the largest mean self time.
    pub fn largest(&self) -> Option<(&'static str, f64)> {
        self.mean_self_us.iter().max_by(|a, b| a.1.total_cmp(b.1)).map(|(&layer, &us)| (layer, us))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(tail_percentile(&xs, 0.99), None, "999 samples leave only 9 beyond p99");
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(tail_percentile(&xs, 0.99), Some(990.0));
        assert_eq!(tail_percentile(&xs, 0.5), Some(500.0));
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.5), Some(2.0));
        assert_eq!(percentile(&xs, 1.0), Some(4.0));
        assert_eq!(percentile(&xs, 0.01), Some(1.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn chain_tiles_the_blocking_path() {
        let mut c = Chain::new(10.0);
        c.to(Some(14.0), "schedule.pack")
            .to(Some(15.0), "runtime.post")
            .to(Some(20.0), "schedule.unpack");
        let a = c.close(12.0);
        assert_eq!(a.segments["schedule.pack"], 4.0);
        assert_eq!(a.self_us["schedule"], 9.0);
        assert_eq!(a.self_us["runtime"], 1.0);
        assert_eq!(a.unattributed_us, 2.0);
    }

    #[test]
    fn chain_clamps_out_of_order_and_skips_missing_points() {
        let mut c = Chain::new(0.0);
        c.to(Some(5.0), "a.x").to(Some(3.0), "b.x").to(None, "c.x").to(Some(8.0), "d.x");
        let a = c.close(10.0);
        assert_eq!(a.self_us["a"], 5.0);
        assert_eq!(a.self_us["b"], 0.0, "a point behind the clock charges nothing");
        assert!(!a.self_us.contains_key("c"));
        assert_eq!(a.self_us["d"], 3.0);
        assert_eq!(a.unattributed_us, 2.0);
    }

    #[test]
    fn chain_clips_points_past_the_op_end() {
        let mut c = Chain::new(0.0);
        c.to(Some(6.0), "a.x").to(Some(11.0), "b.x");
        let a = c.close(10.0);
        assert_eq!(a.segments["a.x"], 6.0);
        assert_eq!(a.segments["b.x"], 4.0);
        assert_eq!(a.unattributed_us, 0.0);
    }

    #[test]
    fn closure_shares_sum_to_one() {
        let mut c1 = Chain::new(0.0);
        c1.to(Some(6.0), "wire.send").to(Some(8.0), "schedule.unpack");
        let mut c2 = Chain::new(0.0);
        c2.to(Some(9.0), "wire.send");
        let cl = Closure::of(&[c1.close(10.0), c2.close(10.0)]);
        assert_eq!(cl.mean_op_us, 10.0);
        assert_eq!(cl.mean_self_us["wire"], 7.5);
        assert_eq!(cl.mean_self_us["schedule"], 1.0);
        assert_eq!(cl.mean_segment_us["wire.send"], 7.5);
        assert_eq!(cl.mean_segment_us["schedule.unpack"], 1.0, "an op that skips it counts 0");
        assert!((cl.unattributed_frac - 0.15).abs() < 1e-12);
        let total = cl.share("wire") + cl.share("schedule") + cl.unattributed_frac;
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(cl.largest(), Some(("wire", 7.5)));
        assert_eq!(Closure::of(&[]).unattributed_frac, 1.0);
    }
}
