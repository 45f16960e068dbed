//! From a window's operations to its headline numbers.
//!
//! This box is a small VM whose speed moves in stretches of a few
//! seconds (`bench/README.md`, *Measured*): a ten-second window catches
//! two to four of them, and its plain median lands in whichever was
//! longer. So the window is cut into one-second slices, each statistic
//! is taken per slice, and the headline is the quartile of the slices
//! on the statistic's good side — the median latency, tail latency and
//! goodput the program shows in the quieter part of the window. Noise
//! from neighbours only ever adds time; this keeps it out without
//! touching what a change to the program itself would move. The
//! whole-window numbers are printed beside it as diagnostics.

use crate::stats::{percentile, sorted};
use crate::workloads::Op;

/// Slices a window is cut into.
const SLICES: usize = 10;
/// A slice with fewer operations than this has no percentiles.
const MIN_SLICE_OPS: usize = 3;

#[derive(Debug, Clone, Copy, Default)]
pub struct Headline {
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub goodput_per_s: f64,
    /// The same three over the whole window, regimes and all.
    pub window_p50_ms: f64,
    pub window_p95_ms: f64,
    pub window_goodput_per_s: f64,
}

/// `(first start, last end)` of `ops`, in window seconds.
fn extent(ops: &[Op]) -> (f64, f64) {
    ops.iter().fold((f64::MAX, f64::MIN), |(lo, hi), op| (lo.min(op.start_s), hi.max(op.end_s)))
}

/// Latency percentile `p` of each slice, operations binned by when they
/// completed.
fn slice_latencies(ops: &[Op], p: f64) -> Vec<f64> {
    let (lo, hi) = extent(ops);
    let width = (hi - lo) / SLICES as f64;
    let mut bins: Vec<Vec<f64>> = vec![Vec::new(); SLICES];
    for op in ops {
        let bin = (((op.end_s - lo) / width) as usize).min(SLICES - 1);
        bins[bin].push(op.latency_ms());
    }
    bins.into_iter()
        .filter(|bin| bin.len() >= MIN_SLICE_OPS)
        .map(|bin| percentile(&sorted(bin), p))
        .collect()
}

/// Credit per second of each slice; an operation's credit is spread
/// evenly over the time it was in flight, so a join that straddles two
/// slices counts towards both.
fn slice_goodput(ops: &[Op]) -> Vec<f64> {
    let (lo, hi) = extent(ops);
    let width = (hi - lo) / SLICES as f64;
    (0..SLICES)
        .map(|i| {
            let (a, b) = (lo + width * i as f64, lo + width * (i + 1) as f64);
            let credit: f64 = ops
                .iter()
                .map(|op| {
                    let overlap = (op.end_s.min(b) - op.start_s.max(a)).max(0.0);
                    op.credit * overlap / (op.end_s - op.start_s).max(f64::MIN_POSITIVE)
                })
                .sum();
            credit / width
        })
        .collect()
}

/// Headline numbers of a window; all zero when nothing was verified
/// (such a window has already failed its correctness gate).
pub fn headline(ops: &[Op], goodput_ops: &[Op]) -> Headline {
    if ops.is_empty() || goodput_ops.is_empty() {
        return Headline::default();
    }
    let all = sorted(ops.iter().map(Op::latency_ms).collect());
    let (lo, hi) = extent(goodput_ops);
    let quiet = |per_slice: Vec<f64>, quartile: f64, whole: f64| {
        if per_slice.is_empty() {
            whole
        } else {
            percentile(&sorted(per_slice), quartile)
        }
    };
    let window_p50_ms = percentile(&all, 50.0);
    let window_p95_ms = percentile(&all, 95.0);
    let window_goodput_per_s =
        goodput_ops.iter().map(|op| op.credit).sum::<f64>() / (hi - lo).max(f64::MIN_POSITIVE);
    Headline {
        p50_ms: quiet(slice_latencies(ops, 50.0), 25.0, window_p50_ms),
        p95_ms: quiet(slice_latencies(ops, 95.0), 25.0, window_p95_ms),
        goodput_per_s: quiet(slice_goodput(goodput_ops), 75.0, window_goodput_per_s),
        window_p50_ms,
        window_p95_ms,
        window_goodput_per_s,
    }
}
