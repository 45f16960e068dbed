//! Latency cost model calibrated against the paper's Figure 1.
//!
//! The model prices a memory access by two orthogonal properties:
//!
//! * **locality** — does the touched cache line live on the worker's own
//!   NUMA node or on a remote one?
//! * **pattern** — is the access part of a sequential scan (the hardware
//!   prefetcher hides latency, commandment C2) or a random access?
//!
//! plus a separate price for **synchronization events** (atomic
//! read-modify-write on contended cache lines, commandment C3).
//!
//! Calibration targets, from Figure 1 of the paper (32 workers, 50M-tuple
//! chunks of 16-byte tuples):
//!
//! | experiment | NUMA-affine | NUMA-agnostic | ratio |
//! |------------|-------------|---------------|-------|
//! | (1) sort local vs. globally allocated | 12 946 ms | 41 734 ms | 3.22× |
//! | (2) partition prefix-sum vs. synchronized | 7 440 ms | 22 756 ms | 3.06× |
//! | (3) merge join both-local vs. one-remote | 837 ms | 1 000 ms | 1.19× |

use crate::counters::AccessCounters;

/// Classification of a priced memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Sequential scan of node-local memory.
    LocalSeq,
    /// Random access into node-local memory.
    LocalRand,
    /// Sequential scan of a remote node's memory (prefetcher-friendly).
    RemoteSeq,
    /// Random access into a remote node's memory (the pattern the paper's
    /// commandment C1 forbids).
    RemoteRand,
}

impl AccessKind {
    /// All four kinds, in a fixed order usable for array indexing.
    pub const ALL: [AccessKind; 4] = [
        AccessKind::LocalSeq,
        AccessKind::LocalRand,
        AccessKind::RemoteSeq,
        AccessKind::RemoteRand,
    ];

    /// Dense index of this kind, matching [`AccessKind::ALL`].
    pub fn index(self) -> usize {
        match self {
            AccessKind::LocalSeq => 0,
            AccessKind::LocalRand => 1,
            AccessKind::RemoteSeq => 2,
            AccessKind::RemoteRand => 3,
        }
    }

    /// Derive the kind from locality and pattern flags.
    pub fn from_flags(local: bool, sequential: bool) -> Self {
        match (local, sequential) {
            (true, true) => AccessKind::LocalSeq,
            (true, false) => AccessKind::LocalRand,
            (false, true) => AccessKind::RemoteSeq,
            (false, false) => AccessKind::RemoteRand,
        }
    }
}

/// Nanosecond prices per *tuple-sized* (16-byte) access, plus a price per
/// synchronization event.
///
/// Only the ratios matter for reproducing the paper's figures; the
/// absolute scale is anchored so that the Figure 1 experiment (3) —
/// a two-run merge scan — matches the paper's 837 ms for 32 × 50M tuples.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// ns per 16-byte access, indexed by [`AccessKind::index`].
    pub ns_per_access: [f64; 4],
    /// ns per synchronization event (test-and-set / fetch-add on a
    /// contended line, as in Figure 1 experiment (2)).
    pub ns_per_sync: f64,
}

impl CostModel {
    /// Model calibrated against Figure 1 (see module docs).
    ///
    /// Derivation at the paper's scale (32 workers × 50M tuples):
    /// * experiment (3): each worker streams 2 × 50M tuples in 837 ms
    ///   when both runs are local → `local_seq ≈ 837e6 / 100M ≈ 8 ns`
    ///   per tuple (one 16-byte tuple per access, two runs). With the
    ///   second run remote the time is 1000 ms, so
    ///   `remote_seq = 2 × 1000/837 − 1 ≈ 1.39 × local_seq`.
    /// * experiment (1): sorting 50M tuples locally takes 12 946 ms.
    ///   Pricing sort traffic as `n·(log2 n + 2)` random accesses gives
    ///   `local_rand ≈ 9 ns`. On a globally allocated array 3/4 of those
    ///   accesses are remote; 41 734 ms requires
    ///   `remote_rand ≈ 4 × local_rand`.
    /// * experiment (2): scatter of 50M tuples with prefix sums = 7 440 ms
    ///   (one local random write per tuple plus a sequential read);
    ///   with a synchronized index = 22 756 ms, so the sync event costs
    ///   `≈ (22 756 − 7 440) ms / 50M ≈ 306 ns`.
    pub fn paper_calibrated() -> Self {
        let local_seq = 8.37;
        let local_rand = 9.0;
        CostModel {
            ns_per_access: [
                local_seq,
                local_rand,
                local_seq * 1.39, // remote sequential: prefetcher mostly hides it
                local_rand * 4.0, // remote random: the expensive pattern
            ],
            ns_per_sync: 306.0,
        }
    }

    /// Price a number of accesses of one kind, in nanoseconds.
    pub fn access_ns(&self, kind: AccessKind, count: u64) -> f64 {
        self.ns_per_access[kind.index()] * count as f64
    }

    /// Price a number of synchronization events, in nanoseconds.
    pub fn sync_ns(&self, count: u64) -> f64 {
        self.ns_per_sync * count as f64
    }

    /// Total modeled nanoseconds for a set of counters.
    pub fn total_ns(&self, counters: &AccessCounters) -> f64 {
        let mut ns = 0.0;
        for kind in AccessKind::ALL {
            ns += self.access_ns(kind, counters.accesses(kind));
        }
        ns + self.sync_ns(counters.syncs())
    }

    /// Total modeled milliseconds for a set of counters.
    pub fn total_ms(&self, counters: &AccessCounters) -> f64 {
        self.total_ns(counters) / 1e6
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::paper_calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_index_into_all() {
        for (i, k) in AccessKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn from_flags_covers_all_combinations() {
        assert_eq!(AccessKind::from_flags(true, true), AccessKind::LocalSeq);
        assert_eq!(AccessKind::from_flags(true, false), AccessKind::LocalRand);
        assert_eq!(AccessKind::from_flags(false, true), AccessKind::RemoteSeq);
        assert_eq!(AccessKind::from_flags(false, false), AccessKind::RemoteRand);
    }

    #[test]
    fn remote_random_is_most_expensive() {
        let m = CostModel::paper_calibrated();
        let costs = m.ns_per_access;
        assert!(costs[AccessKind::RemoteRand.index()] > costs[AccessKind::LocalRand.index()]);
        assert!(costs[AccessKind::RemoteSeq.index()] > costs[AccessKind::LocalSeq.index()]);
        assert!(costs[AccessKind::LocalRand.index()] > costs[AccessKind::LocalSeq.index()]);
    }

    #[test]
    fn sequential_remote_penalty_is_mild() {
        // Commandment C2: remote sequential must be far cheaper than
        // remote random — the whole point of the MPSM design.
        let m = CostModel::paper_calibrated();
        let seq_penalty = m.ns_per_access[AccessKind::RemoteSeq.index()]
            / m.ns_per_access[AccessKind::LocalSeq.index()];
        let rand_penalty = m.ns_per_access[AccessKind::RemoteRand.index()]
            / m.ns_per_access[AccessKind::LocalRand.index()];
        assert!(seq_penalty < 1.5);
        assert!(rand_penalty > 3.0);
    }

    #[test]
    fn total_combines_accesses_and_syncs() {
        let m = CostModel::paper_calibrated();
        let mut c = AccessCounters::default();
        c.record(AccessKind::LocalSeq, 1000);
        c.record_syncs(10);
        let expected = m.access_ns(AccessKind::LocalSeq, 1000) + m.sync_ns(10);
        assert!((m.total_ns(&c) - expected).abs() < 1e-9);
    }
}
