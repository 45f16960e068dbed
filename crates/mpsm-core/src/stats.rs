//! Per-phase execution statistics.
//!
//! The paper's evaluation reports stacked per-phase bars (Figures 12–16);
//! [`JoinStats`] carries the same breakdown: per-worker wall time of each
//! of the (up to) four phases, plus total wall-clock time. Phase meaning
//! per algorithm:
//!
//! | phase | B-MPSM            | P-MPSM               | D-MPSM                |
//! |-------|-------------------|----------------------|-----------------------|
//! | 1     | sort public `S`   | sort public `S`      | sort + spool `S`      |
//! | 2     | sort private `R`  | range-partition `R`  | sort + spool `R`      |
//! | 3     | join              | sort private `R_i`   | (unused)              |
//! | 4     | (unused)          | join                 | windowed join         |
//!
//! Parallel sections book here through
//! [`ExecContext::run_phase`](crate::context::ExecContext::run_phase),
//! which times each worker's own share of the section and books it
//! together with the section's access counters under one phase. The
//! only direct [`JoinStats::record_phase`] callers are work that runs
//! outside the pool (a coordinator-thread copy, a sequential merge)
//! and wall-clock spans a caller cannot split by worker.

use std::time::Duration;

/// The four MPSM phases (indices into the stats arrays).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Phase 1 (see module table).
    One = 0,
    /// Phase 2.
    Two = 1,
    /// Phase 3.
    Three = 2,
    /// Phase 4.
    Four = 3,
}

impl Phase {
    /// All phases in order.
    pub const ALL: [Phase; 4] = [Phase::One, Phase::Two, Phase::Three, Phase::Four];
}

/// Execution statistics of one join run.
#[derive(Debug, Clone, Default)]
pub struct JoinStats {
    /// `per_worker[w][p]` = wall time worker `w` spent in phase `p`.
    pub per_worker: Vec<[Duration; 4]>,
    /// Total wall-clock time of the join (includes coordination).
    pub wall: Duration,
}

impl JoinStats {
    /// Create stats for `workers` workers.
    pub fn new(workers: usize) -> Self {
        JoinStats { per_worker: vec![[Duration::ZERO; 4]; workers], wall: Duration::ZERO }
    }

    /// Add one duration per worker to `phase` (what
    /// [`crate::context::ExecContext::run_phase`] does for each section).
    pub fn record_phase(&mut self, phase: Phase, durations: &[Duration]) {
        assert_eq!(durations.len(), self.per_worker.len(), "one duration per worker");
        for (w, d) in durations.iter().enumerate() {
            self.per_worker[w][phase as usize] += *d;
        }
    }

    /// Critical-path duration of a phase: the slowest worker (phases are
    /// barrier-separated, so this is the phase's wall contribution).
    pub fn phase_critical(&self, phase: Phase) -> Duration {
        self.per_worker.iter().map(|p| p[phase as usize]).max().unwrap_or(Duration::ZERO)
    }

    /// Phase duration in milliseconds (critical path).
    pub fn phase_ms(&self, phase: Phase) -> f64 {
        self.phase_critical(phase).as_secs_f64() * 1e3
    }

    /// All four phase durations in ms, in order.
    pub fn phases_ms(&self) -> [f64; 4] {
        [
            self.phase_ms(Phase::One),
            self.phase_ms(Phase::Two),
            self.phase_ms(Phase::Three),
            self.phase_ms(Phase::Four),
        ]
    }

    /// Total wall time in milliseconds.
    pub fn wall_ms(&self) -> f64 {
        self.wall.as_secs_f64() * 1e3
    }

    /// Per-worker total time across phases, in ms (the bars of
    /// Figure 16b/c).
    pub fn worker_totals_ms(&self) -> Vec<f64> {
        self.per_worker.iter().map(|p| p.iter().map(|d| d.as_secs_f64() * 1e3).sum()).collect()
    }

    /// Load imbalance: slowest worker total / average worker total
    /// (1.0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        let totals = self.worker_totals_ms();
        if totals.is_empty() {
            return 1.0;
        }
        let max = totals.iter().cloned().fold(0.0, f64::max);
        let avg = totals.iter().sum::<f64>() / totals.len() as f64;
        if avg == 0.0 {
            1.0
        } else {
            max / avg
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_per_worker_phase_times() {
        let mut st = JoinStats::new(2);
        st.record_phase(Phase::One, &[Duration::from_millis(10), Duration::from_millis(20)]);
        st.record_phase(Phase::Four, &[Duration::from_millis(5), Duration::from_millis(1)]);
        assert_eq!(st.phase_critical(Phase::One), Duration::from_millis(20));
        assert_eq!(st.phase_critical(Phase::Four), Duration::from_millis(5));
        assert_eq!(st.phase_critical(Phase::Two), Duration::ZERO);
    }

    #[test]
    fn repeated_recording_accumulates() {
        let mut st = JoinStats::new(1);
        st.record_phase(Phase::Two, &[Duration::from_millis(3)]);
        st.record_phase(Phase::Two, &[Duration::from_millis(4)]);
        assert_eq!(st.phase_critical(Phase::Two), Duration::from_millis(7));
    }

    #[test]
    fn worker_totals_and_imbalance() {
        let mut st = JoinStats::new(2);
        st.record_phase(Phase::One, &[Duration::from_millis(10), Duration::from_millis(30)]);
        let totals = st.worker_totals_ms();
        assert_eq!(totals.len(), 2);
        assert!((totals[1] - 30.0).abs() < 1e-9);
        assert!((st.imbalance() - 1.5).abs() < 1e-9, "30 / 20 = 1.5");
    }

    #[test]
    fn empty_stats_are_balanced() {
        let st = JoinStats::new(0);
        assert_eq!(st.imbalance(), 1.0);
        assert_eq!(st.phase_ms(Phase::One), 0.0);
    }

    #[test]
    #[should_panic(expected = "one duration per worker")]
    fn mismatched_worker_count_panics() {
        let mut st = JoinStats::new(2);
        st.record_phase(Phase::One, &[Duration::ZERO]);
    }
}
