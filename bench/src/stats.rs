//! Order statistics over measured samples.

/// Sort `samples` ascending (all harness samples are finite).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    samples
}

/// Nearest-rank percentile of an ascending sample; 0.0 for an empty
/// one (a window that completed no operation has already failed its
/// correctness gate).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Median of an unsorted sample.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples.to_vec()), 50.0)
}

/// Arithmetic mean; 0.0 for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}
