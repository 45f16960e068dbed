//! The three Figure 1 micro-benchmarks, instrumented.
//!
//! Figure 1 of the paper motivates the NUMA commandments with three
//! experiments run by 32 threads over 50M-tuple chunks:
//!
//! 1. **sort**: sorting each chunk in the worker's local RAM partition vs.
//!    sorting on a globally allocated (interleaved) array — paper: 12 946 ms
//!    vs. 41 734 ms (3.2×);
//! 2. **partitioning**: scattering tuples into partition arrays whose write
//!    positions come from precomputed prefix sums vs. from a test-and-set
//!    synchronized index variable — paper: 7 440 ms vs. 22 756 ms (3.1×);
//! 3. **merge join**: sequentially merge-scanning two runs where the second
//!    run is local vs. remote — paper: 837 ms vs. 1 000 ms (1.2×).
//!
//! This module re-executes the three access patterns. Where the pattern's
//! penalty exists on any shared-memory multi-core (experiment 2 —
//! synchronization) we *measure* real wall-clock time. Where the penalty
//! requires physical NUMA distance (experiments 1 and 3 — remote memory)
//! we *model* the time by counting accesses and pricing them with the
//! calibrated [`CostModel`]; the NUMA-affine variants are additionally
//! measured for real to anchor the scale.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::cost::CostModel;
use crate::counters::{AccessCounters, CounterScope};
use crate::topology::{CoreId, Topology};

/// A 16-byte record matching the paper's `[joinkey: 64-bit, payload: 64-bit]`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Rec {
    key: u64,
    payload: u64,
}

/// SplitMix64: tiny, seedable generator for benchmark data (keeps this
/// substrate crate free of the `rand` dependency).
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64(pub u64);

impl SplitMix64 {
    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Configuration shared by the three experiments.
#[derive(Debug, Clone)]
pub struct MicrobenchConfig {
    /// Simulated machine (defaults to the paper's 4 × 8 × 2 box).
    pub topology: Topology,
    /// Number of worker threads (paper: 32).
    pub workers: usize,
    /// Tuples per worker chunk (paper: 50M = 50 · 2^20; default here is
    /// scaled down to keep the harness fast).
    pub tuples_per_worker: usize,
    /// RNG seed for the generated chunks.
    pub seed: u64,
    /// Cost model used for the modeled variants.
    pub model: CostModel,
}

impl Default for MicrobenchConfig {
    fn default() -> Self {
        MicrobenchConfig {
            topology: Topology::paper_machine(),
            workers: 32,
            tuples_per_worker: 1 << 20,
            seed: 0x4d50_534d, // "MPSM"
            model: CostModel::paper_calibrated(),
        }
    }
}

/// Result of one experiment variant.
#[derive(Debug, Clone)]
pub struct VariantResult {
    /// Display label, e.g. `"sort local"`.
    pub label: &'static str,
    /// Time predicted by the access-count cost model, in ms.
    pub modeled_ms: f64,
    /// Real wall-clock time, in ms, where the variant is executable
    /// without physical NUMA hardware.
    pub measured_ms: Option<f64>,
    /// The access counters behind the model.
    pub counters: AccessCounters,
}

/// Result of one of the three Figure 1 experiments.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Experiment name, e.g. `"(1) sort"`.
    pub name: &'static str,
    /// NUMA-affine ("green") variant.
    pub affine: VariantResult,
    /// NUMA-agnostic ("red"/"yellow") variant.
    pub agnostic: VariantResult,
}

impl ExperimentResult {
    /// Modeled slowdown of the NUMA-agnostic variant.
    pub fn modeled_ratio(&self) -> f64 {
        self.agnostic.modeled_ms / self.affine.modeled_ms
    }
}

fn gen_chunk(n: usize, seed: u64) -> Vec<Rec> {
    let mut rng = SplitMix64(seed);
    (0..n).map(|_| Rec { key: rng.next() & 0xffff_ffff, payload: rng.next() }).collect()
}

/// Number of priced accesses for sorting `n` tuples with the paper's
/// three-phase sort: one radix read+scatter pass (2·n) plus
/// `n · log2(n)` comparison-phase touches.
fn sort_access_count(n: usize) -> u64 {
    let n64 = n as u64;
    let log = (n.max(2) as f64).log2();
    (n64 as f64 * (log + 2.0)) as u64
}

/// Experiment (1): parallel chunk sorting, local vs. globally allocated.
pub fn exp1_sort(cfg: &MicrobenchConfig) -> ExperimentResult {
    let n = cfg.tuples_per_worker;
    let t = cfg.workers;

    // --- NUMA-affine: every worker sorts its chunk on its own node. ---
    // Counters: all sort traffic is local random.
    let mut affine_counters = AccessCounters::default();
    for w in 0..t {
        let mut scope = CounterScope::new(cfg.topology.clone(), CoreId(w as u32));
        let home = scope.node();
        scope.touch(home, false, sort_access_count(n));
        affine_counters.merge(&scope.finish());
    }
    // Measured: really sort T chunks in parallel (thread-local Vecs —
    // first-touch local on any host).
    let started = Instant::now();
    std::thread::scope(|s| {
        for w in 0..t {
            let seed = cfg.seed.wrapping_add(w as u64);
            s.spawn(move || {
                let mut chunk = gen_chunk(n, seed);
                chunk.sort_unstable_by_key(|r| r.key);
                std::hint::black_box(&chunk);
            });
        }
    });
    let affine_measured = started.elapsed().as_secs_f64() * 1e3;

    // --- NUMA-agnostic: the array is globally allocated (interleaved);
    // the topology's remote fraction of the random traffic goes remote.
    let mut agnostic_counters = AccessCounters::default();
    for w in 0..t {
        let mut scope = CounterScope::new(cfg.topology.clone(), CoreId(w as u32));
        scope.touch_interleaved(false, sort_access_count(n));
        agnostic_counters.merge(&scope.finish());
    }

    // Per-worker wall time = total / workers (perfectly parallel phases).
    let per_worker = |c: &AccessCounters| cfg.model.total_ms(c) / t as f64;
    ExperimentResult {
        name: "(1) sort",
        affine: VariantResult {
            label: "sort local",
            modeled_ms: per_worker(&affine_counters),
            measured_ms: Some(affine_measured),
            counters: affine_counters,
        },
        agnostic: VariantResult {
            label: "sort global (interleaved)",
            modeled_ms: per_worker(&agnostic_counters),
            measured_ms: None,
            counters: agnostic_counters,
        },
    }
}

/// Per-tuple cost of the prefix-sum scatter at the paper's scale:
/// 7 440 ms / 50M tuples. The absolute scatter cost is dominated by
/// effects below this model's granularity (TLB misses on 32 open write
/// streams, memory-bandwidth saturation), so experiment (2) anchors its
/// base to the paper's own green measurement; the *difference* between
/// the variants — one test-and-set synchronized index update per tuple,
/// the commandment-C3 content — is predicted from [`CostModel::ns_per_sync`]
/// and additionally measured live below.
pub const SCATTER_NS_PER_TUPLE: f64 = 148.8;

/// Experiment (2): scatter with precomputed prefix sums vs. a
/// test-and-set synchronized write index per partition.
///
/// Both variants run for real: synchronization contention does not need
/// NUMA hardware to hurt.
pub fn exp2_partition(cfg: &MicrobenchConfig) -> ExperimentResult {
    let n = cfg.tuples_per_worker;
    let t = cfg.workers;
    let total = n * t;

    let data: Vec<Rec> = gen_chunk(total, cfg.seed);
    let parts = t; // one partition per worker, as in the paper
    let mask = (parts - 1) as u64;
    assert!(parts.is_power_of_two(), "worker count must be a power of two for the scatter mask");
    let part_of = |r: &Rec| (r.key & mask) as usize;

    // ---

    // Affine/green: histogram pass + prefix sums + sequential scatter into
    // precomputed disjoint ranges.
    let started = Instant::now();
    // Per-worker histograms.
    let chunks: Vec<&[Rec]> = data.chunks(n).collect();
    let mut histograms: Vec<Vec<usize>> = vec![vec![0; parts]; t];
    std::thread::scope(|s| {
        for (w, (chunk, hist)) in chunks.iter().zip(histograms.iter_mut()).enumerate() {
            let _ = w;
            s.spawn(move || {
                for r in *chunk {
                    hist[part_of(r)] += 1;
                }
            });
        }
    });
    // Column-wise prefix sums: worker w writes partition p at
    // offset sum(hist[0..w][p]).
    let mut part_sizes = vec![0usize; parts];
    for h in &histograms {
        for (p, c) in h.iter().enumerate() {
            part_sizes[p] += c;
        }
    }
    let mut outputs: Vec<Vec<Rec>> =
        part_sizes.iter().map(|&sz| vec![Rec::default(); sz]).collect();
    // Carve each partition into per-worker windows.
    let mut windows: Vec<Vec<&mut [Rec]>> = Vec::with_capacity(t);
    {
        let mut remaining: Vec<&mut [Rec]> = outputs.iter_mut().map(|v| v.as_mut_slice()).collect();
        for hist in &histograms {
            let mut row = Vec::with_capacity(parts);
            for (take, rem) in hist.iter().zip(remaining.iter_mut()) {
                let slot = std::mem::take(rem);
                let (head, tail) = slot.split_at_mut(*take);
                row.push(head);
                *rem = tail;
            }
            windows.push(row);
        }
    }
    std::thread::scope(|s| {
        for (chunk, row) in chunks.iter().zip(windows) {
            s.spawn(move || {
                let mut cursors = vec![0usize; row.len()];
                let mut row = row;
                for r in *chunk {
                    let p = part_of(r);
                    row[p][cursors[p]] = *r;
                    cursors[p] += 1;
                }
            });
        }
    });
    let affine_measured = started.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(&outputs);

    // Affine counters: 2 passes over the chunk (histogram + scatter read)
    // sequential local, plus one sequential write per tuple into the
    // (remote, but sequential) target window.
    let mut affine_counters = AccessCounters::default();
    for w in 0..t {
        let mut scope = CounterScope::new(cfg.topology.clone(), CoreId(w as u32));
        let home = scope.node();
        scope.touch(home, true, 2 * n as u64);
        scope.touch_interleaved(true, n as u64);
        affine_counters.merge(&scope.finish());
    }

    // --- Agnostic/red: every write first does fetch_add on the target
    // partition's shared index variable.
    let started = Instant::now();
    let sync_outputs: Vec<Vec<AtomicU64>> =
        part_sizes.iter().map(|&sz| (0..sz * 2).map(|_| AtomicU64::new(0)).collect()).collect();
    let indices: Vec<AtomicU64> = (0..parts).map(|_| AtomicU64::new(0)).collect();
    std::thread::scope(|s| {
        for chunk in &chunks {
            let sync_outputs = &sync_outputs;
            let indices = &indices;
            s.spawn(move || {
                for r in *chunk {
                    let p = part_of(r);
                    // Test-and-set synchronized next-write position.
                    let slot = indices[p].fetch_add(1, Ordering::Relaxed) as usize;
                    sync_outputs[p][slot * 2].store(r.key, Ordering::Relaxed);
                    sync_outputs[p][slot * 2 + 1].store(r.payload, Ordering::Relaxed);
                }
            });
        }
    });
    let agnostic_measured = started.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(&sync_outputs);

    let mut agnostic_counters = AccessCounters::default();
    for w in 0..t {
        let mut scope = CounterScope::new(cfg.topology.clone(), CoreId(w as u32));
        let home = scope.node();
        scope.touch(home, true, n as u64); // read own chunk
        scope.touch_interleaved(false, n as u64); // random write position
        scope.sync(n as u64); // one fetch_add per tuple
        agnostic_counters.merge(&scope.finish());
    }

    // Anchored model (see SCATTER_NS_PER_TUPLE): base per-tuple scatter
    // cost from the paper's green bar, plus one sync event per tuple for
    // the red bar.
    let green_ms = n as f64 * SCATTER_NS_PER_TUPLE / 1e6;
    let red_ms = n as f64 * (SCATTER_NS_PER_TUPLE + cfg.model.ns_per_sync) / 1e6;
    ExperimentResult {
        name: "(2) partitioning",
        affine: VariantResult {
            label: "precomputed prefix sums",
            modeled_ms: green_ms,
            measured_ms: Some(affine_measured),
            counters: affine_counters,
        },
        agnostic: VariantResult {
            label: "synchronized index",
            modeled_ms: red_ms,
            measured_ms: Some(agnostic_measured),
            counters: agnostic_counters,
        },
    }
}

/// Experiment (3): merge-join scan of two runs; the second run is local
/// vs. remote (sequential either way — commandment C2).
pub fn exp3_merge_join(cfg: &MicrobenchConfig) -> ExperimentResult {
    let n = cfg.tuples_per_worker;
    let t = cfg.workers;

    // Measured (both-local on the host): really merge T pairs of sorted runs.
    let started = Instant::now();
    std::thread::scope(|s| {
        for w in 0..t {
            let seed = cfg.seed.wrapping_add(w as u64);
            s.spawn(move || {
                let mut a = gen_chunk(n, seed);
                let mut b = gen_chunk(n, seed ^ 0xdead_beef);
                a.sort_unstable_by_key(|r| r.key);
                b.sort_unstable_by_key(|r| r.key);
                let gen_ready = Instant::now();
                let (mut i, mut j, mut matches) = (0usize, 0usize, 0u64);
                while i < a.len() && j < b.len() {
                    match a[i].key.cmp(&b[j].key) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            matches += 1;
                            i += 1;
                            j += 1;
                        }
                    }
                }
                std::hint::black_box((matches, gen_ready));
            });
        }
    });
    let affine_measured = started.elapsed().as_secs_f64() * 1e3;

    let mut affine_counters = AccessCounters::default();
    let mut agnostic_counters = AccessCounters::default();
    for w in 0..t {
        let topo = &cfg.topology;
        let core = CoreId(w as u32);
        let home = topo.node_of(core);
        // A remote node (any other); on a flat topology it stays local.
        let remote = crate::topology::NodeId((home.0 + 1) % topo.nodes);

        let mut scope = CounterScope::new(topo.clone(), core);
        scope.touch(home, true, n as u64); // own run
        scope.touch(home, true, n as u64); // second run, local
        affine_counters.merge(&scope.finish());

        let mut scope = CounterScope::new(topo.clone(), core);
        scope.touch(home, true, n as u64); // own run
        scope.touch(remote, true, n as u64); // second run, remote
        agnostic_counters.merge(&scope.finish());
    }

    let per_worker = |c: &AccessCounters| cfg.model.total_ms(c) / t as f64;
    ExperimentResult {
        name: "(3) merge join",
        affine: VariantResult {
            label: "second run local",
            modeled_ms: per_worker(&affine_counters),
            measured_ms: Some(affine_measured),
            counters: affine_counters,
        },
        agnostic: VariantResult {
            label: "second run remote",
            modeled_ms: per_worker(&agnostic_counters),
            measured_ms: None,
            counters: agnostic_counters,
        },
    }
}

/// Run all three Figure 1 experiments.
pub fn figure1(cfg: &MicrobenchConfig) -> Vec<ExperimentResult> {
    vec![exp1_sort(cfg), exp2_partition(cfg), exp3_merge_join(cfg)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> MicrobenchConfig {
        MicrobenchConfig { workers: 4, tuples_per_worker: 1 << 12, ..MicrobenchConfig::default() }
    }

    #[test]
    fn exp1_models_the_paper_ratio() {
        let r = exp1_sort(&tiny_cfg());
        // Paper: 41 734 / 12 946 ≈ 3.22. The model should land close.
        let ratio = r.modeled_ratio();
        assert!((2.8..3.7).contains(&ratio), "sort NUMA penalty ratio {ratio}");
    }

    #[test]
    fn exp1_at_paper_scale_matches_absolute_numbers() {
        // At 50M tuples/worker the modeled local sort should be within
        // 20% of the paper's 12 946 ms.
        let cfg = MicrobenchConfig { tuples_per_worker: 50 << 20, ..MicrobenchConfig::default() };
        let n = cfg.tuples_per_worker;
        let mut scope = CounterScope::new(cfg.topology.clone(), CoreId(0));
        scope.touch(crate::topology::NodeId(0), false, sort_access_count(n));
        let ms = cfg.model.total_ms(scope.counters());
        assert!((10_000.0..16_000.0).contains(&ms), "modeled local sort {ms} ms");
    }

    #[test]
    fn exp2_sync_variant_is_slower_measured() {
        let r = exp2_partition(&tiny_cfg());
        // Both variants run for real; at this tiny test scale the
        // measured numbers are noise (contention needs volume), so only
        // their presence is asserted here — `fig01_numa` runs at scale.
        assert!(r.affine.measured_ms.is_some() && r.agnostic.measured_ms.is_some());
        // Modeled ratio reproduces the paper's 22 756 / 7 440 ≈ 3.06
        // by construction of the anchored base + derived sync price.
        assert!((2.9..3.2).contains(&r.modeled_ratio()), "ratio {}", r.modeled_ratio());
    }

    #[test]
    fn exp2_preserves_all_tuples() {
        // Covered implicitly by the scatter windows summing to the
        // partition sizes; run at a size where off-by-ones would panic.
        let cfg = MicrobenchConfig { workers: 4, tuples_per_worker: 1000, ..tiny_cfg() };
        let _ = exp2_partition(&cfg);
    }

    #[test]
    fn exp3_remote_penalty_is_mild() {
        let r = exp3_merge_join(&tiny_cfg());
        let ratio = r.modeled_ratio();
        // Paper: 1000 / 837 ≈ 1.19.
        assert!((1.05..1.35).contains(&ratio), "merge join remote ratio {ratio}");
    }

    #[test]
    fn figure1_returns_three_experiments() {
        let rs = figure1(&tiny_cfg());
        assert_eq!(rs.len(), 3);
        assert!(rs.iter().all(|r| r.affine.modeled_ms > 0.0));
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64(42);
        let mut b = SplitMix64(42);
        for _ in 0..10 {
            assert_eq!(a.next(), b.next());
        }
    }
}
