//! The MPSM join suite: configuration, the algorithm trait, and the
//! three variants (B-MPSM, P-MPSM, D-MPSM).

pub mod anytime;
pub mod b_mpsm;
pub mod d_mpsm;
pub mod delta;
pub mod p_mpsm;
pub mod runs;
pub mod variant;

use crate::context::ExecContext;
use crate::sink::{CountSink, JoinSink, MaxAggSink};
use crate::stats::JoinStats;
use crate::tuple::Tuple;

pub use variant::JoinVariant;

/// Which input plays the private role `R` (the one that is
/// range-partitioned and scanned repeatedly).
///
/// §3.2: "Assigning the private input role R to the smaller of the input
/// relations [...] yields the best performance"; §5.4 measures the cost
/// of getting this wrong (role reversal).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Role {
    /// The first argument is private, as passed (default; lets the
    /// caller and the role-reversal experiment control roles exactly).
    #[default]
    FirstPrivate,
    /// Pick the smaller input as private automatically.
    SmallerPrivate,
}

/// Configuration shared by the MPSM variants.
#[derive(Debug, Clone)]
pub struct JoinConfig {
    /// Number of worker threads `T` the context-free
    /// [`JoinAlgorithm::join_with_sink`] convenience provisions.
    /// [`JoinAlgorithm::join_in`] takes `T` from the context it is
    /// handed and never reads this.
    pub threads: usize,
    /// Histogram granularity `B` for radix-clustering the private input
    /// (`2^B` buckets). The paper requires `log2(T) ≤ B` and uses up to
    /// 10 (Figure 16); finer histograms cost almost nothing (Figure 9).
    pub radix_bits: u32,
    /// CDF precision factor `f`: every worker contributes `f · T`
    /// equi-height bounds to the global CDF (§4.1 proposes `f · T` for
    /// better precision).
    pub cdf_fan: usize,
    /// Role assignment policy.
    pub role: Role,
}

impl JoinConfig {
    /// Config with `threads` workers and paper-like defaults
    /// (`B = max(10, ⌈log2 T⌉)`, `f = 4`).
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker");
        let min_bits = usize::BITS - threads.next_power_of_two().leading_zeros() - 1;
        JoinConfig {
            threads,
            radix_bits: 10u32.max(min_bits),
            cdf_fan: 4,
            role: Role::FirstPrivate,
        }
    }

    /// Builder-style override of the histogram granularity `B`.
    pub fn radix_bits(mut self, bits: u32) -> Self {
        assert!((1..=20).contains(&bits), "B out of supported range");
        assert!(
            (1usize << bits) >= self.threads,
            "need log2(T) <= B so every worker can get a partition"
        );
        self.radix_bits = bits;
        self
    }

    /// Builder-style override of the role policy.
    pub fn role(mut self, role: Role) -> Self {
        self.role = role;
        self
    }

    /// Apply the role policy: returns `(private, public, swapped)`.
    /// Used by every join implementation (including the baselines) at
    /// the top of `join_in`.
    pub fn assign_roles<'a>(
        &self,
        r: &'a [Tuple],
        s: &'a [Tuple],
    ) -> (&'a [Tuple], &'a [Tuple], bool) {
        match self.role {
            Role::FirstPrivate => (r, s, false),
            Role::SmallerPrivate => {
                if r.len() <= s.len() {
                    (r, s, false)
                } else {
                    (s, r, true)
                }
            }
        }
    }
}

impl Default for JoinConfig {
    fn default() -> Self {
        Self::with_threads(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4))
    }
}

/// A parallel equi-join algorithm over `Tuple` relations.
pub trait JoinAlgorithm {
    /// Short display name (used by the benchmark harness).
    fn name(&self) -> &'static str;

    /// The worker count [`JoinAlgorithm::join_with_sink`] provisions
    /// (the configuration's `threads`).
    fn threads(&self) -> usize;

    /// Join `r ⋈ s` on `key` inside an execution context, feeding
    /// matches through per-worker sinks of type `S`; returns the
    /// combined result and per-phase stats. Every parallel phase runs
    /// on `cx`'s pool — whose width is the worker count `T` — run and
    /// partition storage comes from its node-local arenas, and the
    /// context's per-phase counters record the local-vs-remote access
    /// audit. This is the one entry shape every execution layer uses.
    ///
    /// The sink sees `(private, public)` pairs; with
    /// [`Role::SmallerPrivate`] the private side may be `s` — symmetric
    /// aggregates (count, the paper's `max(R.payload + S.payload)`) are
    /// unaffected, order-sensitive consumers should pin
    /// [`Role::FirstPrivate`].
    fn join_in<S: JoinSink>(
        &self,
        cx: &ExecContext,
        r: &[Tuple],
        s: &[Tuple],
    ) -> (S::Result, JoinStats);

    /// [`JoinAlgorithm::join_in`] on a flat (single-node) context of
    /// [`JoinAlgorithm::threads`] workers built for this one call.
    fn join_with_sink<S: JoinSink>(&self, r: &[Tuple], s: &[Tuple]) -> (S::Result, JoinStats) {
        self.join_in::<S>(&ExecContext::flat(self.threads()), r, s)
    }

    /// Join and count result tuples.
    fn count(&self, r: &[Tuple], s: &[Tuple]) -> u64 {
        self.join_with_sink::<CountSink>(r, s).0
    }

    /// Run the paper's benchmark query
    /// `SELECT max(R.payload + S.payload) …` (`None` on empty join).
    fn max_payload_sum(&self, r: &[Tuple], s: &[Tuple]) -> Option<u64> {
        self.join_with_sink::<MaxAggSink>(r, s).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = JoinConfig::with_threads(8);
        assert_eq!(c.threads, 8);
        assert!(c.radix_bits >= 3, "log2(8) = 3 <= B");
        assert_eq!(c.cdf_fan, 4);
    }

    #[test]
    fn radix_bits_grows_with_threads() {
        let c = JoinConfig::with_threads(2048);
        assert!((1usize << c.radix_bits) >= 2048);
    }

    #[test]
    fn role_assignment() {
        let r: Vec<Tuple> = (0..3).map(|k| Tuple::new(k, 0)).collect();
        let s: Vec<Tuple> = (0..9).map(|k| Tuple::new(k, 0)).collect();
        let cfg = JoinConfig::with_threads(2);
        let (p, _, swapped) = cfg.assign_roles(&r, &s);
        assert_eq!(p.len(), 3);
        assert!(!swapped);

        let cfg = cfg.role(Role::SmallerPrivate);
        let (p, q, swapped) = cfg.assign_roles(&s, &r);
        assert_eq!(p.len(), 3, "smaller side becomes private");
        assert_eq!(q.len(), 9);
        assert!(swapped);
    }

    #[test]
    #[should_panic(expected = "log2(T) <= B")]
    fn too_few_radix_bits_rejected() {
        let _ = JoinConfig::with_threads(32).radix_bits(3);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let _ = JoinConfig::with_threads(0);
    }
}
