//! Sort-kernel registry and per-machine tuning.
//!
//! The paper's sort is the dominant phase of every MPSM variant, and the
//! best finishing kernel for cache-resident radix buckets is a property
//! of the *machine* (branch-predictor quality, SIMD width, cache
//! latencies), not of the algorithm. This module makes the choice a
//! first-class, observable decision instead of a hard-coded constant:
//!
//! * [`SortKernel`] enumerates the finishing kernels wired into
//!   `finish_bucket` ([`super::three_phase_sort_tuned`]);
//! * [`SortTuning`] bundles a kernel with its network block threshold
//!   and records where the choice came from ([`TuningSource`]), which
//!   EXPLAIN surfaces per query;
//! * [`SortTuning::auto_tune`] runs a deterministic microbench sweep
//!   over kernel × block candidates and picks the winner for this
//!   machine — the fixed [`SortTuning::DEFAULT`] keeps tests
//!   deterministic unless a caller explicitly opts in.
//!
//! The process-wide default used by the classic entry points
//! ([`super::three_phase_sort`]) is [`SortTuning::current`]; executor
//! paths carry a `SortTuning` on their `ExecContext` instead so that
//! concurrent sessions with different tunings cannot interfere.

use std::sync::OnceLock;
use std::time::Instant;

use crate::sort::bitonic::SortScratch;
use crate::sort::{simd, INSERTION_CUTOFF};
use crate::tuple::Tuple;

/// The finishing kernel applied to cache-resident radix buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SortKernel {
    /// The paper's literal phase 2+3: depth-limited quicksort to the
    /// insertion cutoff, then an insertion pass (PR 2 behaviour).
    IntrosortInsertion,
    /// Branch-free scalar sorting network on blocks ≤ the tuning's
    /// `block` threshold, reached via the same depth-limited quicksort.
    Bitonic,
    /// Feature-gated AVX2 network that compare-exchanges key lanes in
    /// SoA staging and moves payloads alongside. Falls back to
    /// [`SortKernel::Bitonic`] when the `simd-sort` feature is off or
    /// the CPU lacks AVX2 — always correct, never required.
    Simd,
}

impl SortKernel {
    /// Every kernel, in registry order (stable for benches and docs).
    pub const ALL: [SortKernel; 3] =
        [SortKernel::IntrosortInsertion, SortKernel::Bitonic, SortKernel::Simd];

    /// Stable snake_case identifier (bench JSON, EXPLAIN).
    pub fn name(self) -> &'static str {
        match self {
            SortKernel::IntrosortInsertion => "introsort_insertion",
            SortKernel::Bitonic => "bitonic",
            SortKernel::Simd => "simd",
        }
    }
}

/// Where a [`SortTuning`] came from — surfaced in EXPLAIN so a plan
/// reader can tell a tuned machine from the deterministic default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TuningSource {
    /// The fixed, deterministic default ([`SortTuning::DEFAULT`]).
    Default,
    /// Chosen by the [`SortTuning::auto_tune`] microbench sweep.
    AutoTuned,
    /// Supplied explicitly by the caller.
    Explicit,
}

impl TuningSource {
    /// Stable label (EXPLAIN, bench JSON).
    pub fn label(self) -> &'static str {
        match self {
            TuningSource::Default => "default",
            TuningSource::AutoTuned => "auto-tuned",
            TuningSource::Explicit => "explicit",
        }
    }
}

/// Kernel choice plus the block threshold at which the quicksort
/// recursion hands a partition to the sorting network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortTuning {
    /// The finishing kernel for cache-resident buckets.
    pub kernel: SortKernel,
    /// Partitions at or below this size go to the network (ignored by
    /// [`SortKernel::IntrosortInsertion`], which uses the paper's
    /// insertion cutoff).
    pub block: usize,
    /// Issue software-prefetch hints in the radix permutation loop.
    /// A per-machine property: the displacement chain is serially
    /// dependent, so the hint leads its use by only one hop — on cores
    /// where that lead time beats the extra issue slots it wins, on
    /// others it is a measured loss. Swept by [`SortTuning::auto_tune`];
    /// off in the deterministic default.
    pub prefetch: bool,
    /// Provenance of this tuning, for EXPLAIN.
    pub source: TuningSource,
}

/// Block-threshold candidates swept by [`SortTuning::auto_tune`].
pub const BLOCK_CANDIDATES: [usize; 4] = [16, 32, 64, 128];

/// Tuples sorted per candidate by the auto-tune sweep (large enough to
/// exercise the radix pass and realistic bucket shapes, small enough to
/// keep the sweep under ~1 s even on a 1-vCPU box).
pub const AUTO_TUNE_TUPLES: usize = 1 << 18;

static INSTALLED: OnceLock<SortTuning> = OnceLock::new();

impl SortTuning {
    /// The fixed deterministic default: the branch-free scalar network
    /// with a 64-tuple block. Chosen over the PR 2 introsort+insertion
    /// finisher by the PR 7 ablation matrix
    /// (`docs/bench-history/BENCH_7.json`); kept fixed (rather than
    /// auto-tuned at startup) so test runs are reproducible.
    pub const DEFAULT: SortTuning = SortTuning {
        kernel: SortKernel::Bitonic,
        block: 64,
        prefetch: false,
        source: TuningSource::Default,
    };

    /// An explicit tuning (marked [`TuningSource::Explicit`], prefetch
    /// off — opt in with [`SortTuning::with_prefetch`]).
    pub fn new(kernel: SortKernel, block: usize) -> Self {
        SortTuning {
            kernel,
            block: block.clamp(2, 4096),
            prefetch: false,
            source: TuningSource::Explicit,
        }
    }

    /// This tuning with the radix-permutation prefetch knob set.
    pub fn with_prefetch(self, prefetch: bool) -> Self {
        SortTuning { prefetch, ..self }
    }

    /// The process-wide tuning: whatever was [`SortTuning::install`]ed,
    /// else [`SortTuning::DEFAULT`]. Classic (non-`ExecContext`) entry
    /// points such as [`super::three_phase_sort`] read this.
    pub fn current() -> SortTuning {
        *INSTALLED.get().unwrap_or(&SortTuning::DEFAULT)
    }

    /// Install a process-wide tuning (first install wins; later calls
    /// are no-ops). Returns the tuning actually in effect. Intended for
    /// binaries and the scheduler's opt-in auto-tune knob — tests rely
    /// on nobody installing implicitly.
    pub fn install(self) -> SortTuning {
        *INSTALLED.get_or_init(|| self)
    }

    /// One-line EXPLAIN/bench label, e.g. `bitonic, block=64, default`.
    pub fn describe(&self) -> String {
        let pf = if self.prefetch { ", prefetch" } else { "" };
        match self.kernel {
            SortKernel::IntrosortInsertion => format!(
                "{}, cutoff={}{pf}, {}",
                self.kernel.name(),
                INSERTION_CUTOFF,
                self.source.label()
            ),
            _ => {
                format!("{}, block={}{pf}, {}", self.kernel.name(), self.block, self.source.label())
            }
        }
    }

    /// Microbench sweep over kernel × block candidates on deterministic
    /// pseudo-random data; returns the fastest candidate (marked
    /// [`TuningSource::AutoTuned`]). The [`SortKernel::Simd`] column is
    /// swept only when the gated path is actually active
    /// ([`simd::simd_active`]) — otherwise it would just re-measure the
    /// scalar fallback.
    pub fn auto_tune() -> SortTuning {
        let sweep = Self::sweep(AUTO_TUNE_TUPLES);
        let mut best = sweep[0];
        for &(t, ns) in &sweep[1..] {
            if ns < best.1 {
                best = (t, ns);
            }
        }
        SortTuning { source: TuningSource::AutoTuned, ..best.0 }
    }

    /// The raw sweep behind [`SortTuning::auto_tune`]: every candidate
    /// with its measured ns/tuple over `n` deterministic pseudo-random
    /// tuples. Candidates are timed **interleaved** (round-robin across
    /// repetitions, median per candidate) so machine-wide drift — the
    /// dominant error source on shared/virtualized boxes — hits every
    /// candidate equally instead of biasing whichever ran during a
    /// quiet window. Public so a caller can read the whole matrix, not
    /// only the winner [`SortTuning::auto_tune`] installs.
    pub fn sweep(n: usize) -> Vec<(SortTuning, f64)> {
        const REPS: usize = 5;
        let master = sweep_data(n);
        let mut candidates =
            vec![SortTuning::new(SortKernel::IntrosortInsertion, INSERTION_CUTOFF)];
        for &block in &BLOCK_CANDIDATES {
            candidates.push(SortTuning::new(SortKernel::Bitonic, block));
        }
        if simd::simd_active() {
            for &block in &BLOCK_CANDIDATES {
                candidates.push(SortTuning::new(SortKernel::Simd, block));
            }
        }
        // The prefetch knob is a second sweep axis: every candidate gets
        // a prefetch twin, so machines where the hint helps pick it up
        // and machines where it costs (serial displacement chain) don't.
        let twins: Vec<SortTuning> = candidates.iter().map(|t| t.with_prefetch(true)).collect();
        candidates.extend(twins);
        let mut scratch = SortScratch::new();
        let mut samples = vec![Vec::with_capacity(REPS); candidates.len()];
        for rep in 0..=REPS {
            for (c, t) in candidates.iter().enumerate() {
                let mut data = master.clone();
                let start = Instant::now();
                super::three_phase_sort_tuned(&mut data, t, &mut scratch);
                let ns = start.elapsed().as_nanos() as f64 / n.max(1) as f64;
                if rep > 0 {
                    samples[c].push(ns); // round 0 is warmup
                }
            }
        }
        candidates
            .into_iter()
            .zip(samples)
            .map(|(t, s)| {
                // Minimum, not median: scheduling noise on a shared box
                // only ever *adds* time, so the fastest repetition is
                // the least-contaminated estimate of the kernel itself.
                (t, s.into_iter().fold(f64::INFINITY, f64::min))
            })
            .collect()
    }
}

/// Deterministic pseudo-random sweep input (same LCG as the test
/// suites, so the sweep is reproducible on a given machine).
fn sweep_data(n: usize) -> Vec<Tuple> {
    let mut state = 0x5EED_0007u64;
    (0..n)
        .map(|i| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            Tuple::new(state >> 32, i as u64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::is_key_sorted;

    #[test]
    fn default_is_fixed_and_scalar() {
        let t = SortTuning::DEFAULT;
        assert_eq!(t.kernel, SortKernel::Bitonic);
        assert_eq!(t.source, TuningSource::Default);
        assert_eq!(t.describe(), "bitonic, block=64, default");
    }

    #[test]
    fn explicit_tuning_clamps_block() {
        assert_eq!(SortTuning::new(SortKernel::Bitonic, 0).block, 2);
        assert_eq!(SortTuning::new(SortKernel::Bitonic, 1 << 20).block, 4096);
        assert_eq!(SortTuning::new(SortKernel::Bitonic, 48).source, TuningSource::Explicit);
    }

    #[test]
    fn kernel_names_are_stable() {
        let names: Vec<&str> = SortKernel::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, ["introsort_insertion", "bitonic", "simd"]);
    }

    #[test]
    fn sweep_measures_every_candidate_and_sorts_correctly() {
        // Small n keeps this test cheap; the sweep itself must produce
        // finite timings for every candidate.
        let sweep = SortTuning::sweep(4096);
        assert!(sweep.len() >= 5, "introsort + 4 bitonic blocks at minimum");
        for (t, ns) in &sweep {
            assert!(ns.is_finite() && *ns >= 0.0, "{}: non-finite timing", t.describe());
        }
        // And the winning tuning actually sorts.
        let tuned = SortTuning::auto_tune();
        assert_eq!(tuned.source, TuningSource::AutoTuned);
        let mut data = sweep_data(10_000);
        let mut scratch = SortScratch::new();
        crate::sort::three_phase_sort_tuned(&mut data, &tuned, &mut scratch);
        assert!(is_key_sorted(&data));
    }

    #[test]
    fn current_without_install_is_the_default() {
        // Nothing in the test binary installs a global tuning, so the
        // classic entry points must see the deterministic default.
        assert_eq!(SortTuning::current(), SortTuning::DEFAULT);
    }
}
