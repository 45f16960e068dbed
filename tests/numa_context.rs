//! Property-based accounting invariants of [`mpsm::core::ExecContext`]:
//! the per-phase local/remote counter totals must equal the tuple
//! traffic the documented access model predicts, across worker counts
//! and topologies — so the audit can neither double-count nor lose
//! accesses, whatever machine shape it runs on.
//!
//! The model (see `mpsm_core::context` docs): base relations are
//! interleaved; a sort phase on a chunk of `n` tuples records
//! `n` (chunk read) + `n` (run write) + `2n` (in-place sort) = `4n`
//! accesses; P-MPSM's partition phase records `n` (min/max scan) +
//! `n` (histogram) + `n` (scatter histogram) + `2n` (scatter
//! read/write) = `5n`; the private-partition sort records `2n`; merge
//! phases record actual scan extents (data-dependent, bounded by the
//! full-scan worst case).

use mpsm::baselines::nested_loop::oracle_count;
use mpsm::core::context::{AllocPolicy, ExecContext};
use mpsm::core::join::b_mpsm::BMpsmJoin;
use mpsm::core::join::d_mpsm::{DMpsmConfig, DMpsmJoin};
use mpsm::core::join::p_mpsm::PMpsmJoin;
use mpsm::core::join::{JoinAlgorithm, JoinConfig};
use mpsm::core::sink::CountSink;
use mpsm::core::worker::WorkerPlacement;
use mpsm::core::{Phase, Tuple};
use mpsm::numa::{AccessCounters, AccessKind, NodeId, Topology};
use mpsm::workload::fk_uniform;
use proptest::prelude::*;
use proptest::TestCaseError;

fn tuples(keys: Vec<u64>) -> Vec<Tuple> {
    keys.into_iter().enumerate().map(|(i, k)| Tuple::new(k, i as u64)).collect()
}

/// local + remote must cover every access, in every phase.
fn assert_conserved(c: &AccessCounters) -> Result<(), TestCaseError> {
    let local = c.accesses(AccessKind::LocalSeq) + c.accesses(AccessKind::LocalRand);
    let remote = c.accesses(AccessKind::RemoteSeq) + c.accesses(AccessKind::RemoteRand);
    prop_assert_eq!(local + remote, c.total_accesses());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bmpsm_phase_totals_match_the_model(
        r_keys in proptest::collection::vec(any::<u64>(), 0..600),
        s_keys in proptest::collection::vec(any::<u64>(), 0..900),
        threads in 1usize..7,
        nodes in 1u32..5,
    ) {
        let r = tuples(r_keys);
        let s = tuples(s_keys);
        let topology = Topology { nodes, cores_per_node: 4, smt: 1 };
        let cx = ExecContext::new(topology, threads);
        let join = BMpsmJoin::new(JoinConfig::with_threads(threads));
        let (count, _) = join.join_in::<CountSink>(&cx, &r, &s);
        prop_assert_eq!(count, oracle_count(&r, &s));

        let t = threads as u64;
        let p1 = cx.phase_counters(Phase::One);
        let p2 = cx.phase_counters(Phase::Two);
        let p3 = cx.phase_counters(Phase::Three);
        // Sort phases are exact: chunk read + run write + in-place sort.
        prop_assert_eq!(p1.total_accesses(), 4 * s.len() as u64);
        prop_assert_eq!(p2.total_accesses(), 4 * r.len() as u64);
        // Merge phase: actual scan extents, never more than every
        // worker fully scanning its own run (T×) plus all public runs.
        prop_assert!(p3.total_accesses() <= t * (r.len() + s.len()) as u64);
        // C2 on the real path: remote merge reads are sequential-only.
        prop_assert_eq!(p3.accesses(AccessKind::RemoteRand), 0);
        for c in [&p1, &p2, &p3] {
            assert_conserved(c)?;
            prop_assert_eq!(c.syncs(), 0, "C3: no synchronization inside phases");
        }
        // Nothing is recorded outside the three phases, and the merged
        // view loses nothing.
        prop_assert_eq!(cx.phase_counters(Phase::Four).total_accesses(), 0);
        prop_assert_eq!(
            cx.counters().total_accesses(),
            p1.total_accesses() + p2.total_accesses() + p3.total_accesses()
        );
        // A single-node machine has no remote memory at all.
        if nodes == 1 {
            prop_assert_eq!(cx.counters().remote_fraction(), 0.0);
        }
    }

    #[test]
    fn pmpsm_phase_totals_match_the_model(
        r_keys in proptest::collection::vec(0u64..100_000, 0..600),
        s_keys in proptest::collection::vec(0u64..100_000, 0..900),
        threads in 1usize..6,
        nodes in 1u32..5,
    ) {
        let r = tuples(r_keys);
        let s = tuples(s_keys);
        let topology = Topology { nodes, cores_per_node: 4, smt: 1 };
        let cx = ExecContext::new(topology, threads);
        let join = PMpsmJoin::new(JoinConfig::with_threads(threads));
        let (count, _) = join.join_in::<CountSink>(&cx, &r, &s);
        prop_assert_eq!(count, oracle_count(&r, &s));

        let t = threads as u64;
        let p1 = cx.phase_counters(Phase::One);
        let p2 = cx.phase_counters(Phase::Two);
        let p3 = cx.phase_counters(Phase::Three);
        let p4 = cx.phase_counters(Phase::Four);
        // Deterministic phases: public sort, partition pipeline,
        // private-partition sort.
        prop_assert_eq!(p1.total_accesses(), 4 * s.len() as u64);
        prop_assert_eq!(p2.total_accesses(), 5 * r.len() as u64);
        prop_assert_eq!(p3.total_accesses(), 2 * r.len() as u64);
        // The private sort runs on partitions homed on the sorting
        // worker's own node: 100% local however many nodes exist (C1).
        prop_assert_eq!(p3.remote_fraction(), 0.0);
        // Merge phase: bounded by full scans plus the entry probes.
        let max_run = s.len().div_ceil(threads).max(2) as u64;
        let probe_ceiling = t * t * (max_run.ilog2() as u64 + 1);
        prop_assert!(
            p4.total_accesses() <= t * (r.len() + s.len()) as u64 + probe_ceiling
        );
        // C1: no phase before the merge touches remote memory randomly.
        for c in [&p1, &p2, &p3] {
            prop_assert_eq!(c.accesses(AccessKind::RemoteRand), 0);
        }
        // The merge's only random remote reads are the entry probes.
        prop_assert!(p4.accesses(AccessKind::RemoteRand) <= probe_ceiling);
        for c in [&p1, &p2, &p3, &p4] {
            assert_conserved(c)?;
            prop_assert_eq!(c.syncs(), 0, "C3: no synchronization inside phases");
        }
        prop_assert_eq!(
            cx.counters().total_accesses(),
            p1.total_accesses() + p2.total_accesses() + p3.total_accesses()
                + p4.total_accesses()
        );
        if nodes == 1 {
            prop_assert_eq!(cx.counters().remote_fraction(), 0.0);
        }
    }
}

#[test]
fn paper_machine_placement_is_figure_11_round_robin() {
    // Figure 11: hardware contexts are numbered round-robin across the
    // four sockets, so a pool placed on Topology::paper_machine() puts
    // worker w on node w mod 4 and spreads every 4-worker group over
    // all sockets.
    let topology = Topology::paper_machine();
    let placement = WorkerPlacement::round_robin(topology.clone(), 64);
    for w in 0..64 {
        assert_eq!(placement.node_of(w), NodeId(w as u32 % 4), "worker {w}");
    }
    for n in 0..4u32 {
        assert_eq!(
            (0..64).filter(|&w| placement.node_of(w) == NodeId(n)).count(),
            16,
            "node {n} must host exactly its share of the contexts"
        );
    }
    // The ExecContext built for the paper machine inherits the mapping.
    let cx = ExecContext::paper_machine();
    assert_eq!(cx.threads(), 32, "one worker per physical core");
    assert_eq!(cx.worker_node(5), NodeId(1));
    assert_eq!(cx.single_node(), None);
}

#[test]
fn misplaced_allocation_policy_is_visible_in_the_audit() {
    // The anti-pattern ExecContext exists to make measurable: homing
    // every run on socket 0 turns the (random-access) private sort into
    // remote traffic for 3 of 4 workers — a C1 violation the audit
    // must expose.
    let keys: Vec<u64> = (0..4000u64).map(|i| (i * 2654435761) % 500_000).collect();
    let r = tuples(keys.clone());
    let s = tuples(keys);
    let join = PMpsmJoin::new(JoinConfig::with_threads(4));

    let placed = ExecContext::new(Topology::paper_machine(), 4);
    let (placed_count, _) = join.join_in::<CountSink>(&placed, &r, &s);

    let misplaced =
        ExecContext::new(Topology::paper_machine(), 4).alloc_policy(AllocPolicy::Pinned(NodeId(0)));
    let (misplaced_count, _) = join.join_in::<CountSink>(&misplaced, &r, &s);

    assert_eq!(placed_count, misplaced_count, "placement must never change results");
    let good_sort = placed.phase_counters(Phase::Three);
    let bad_sort = misplaced.phase_counters(Phase::Three);
    assert_eq!(good_sort.accesses(AccessKind::RemoteRand), 0, "placed sort obeys C1");
    assert!(
        bad_sort.accesses(AccessKind::RemoteRand) > 0,
        "misplaced sort must show remote random accesses"
    );
    assert!(bad_sort.remote_fraction() > 0.5, "3 of 4 workers sort remotely");
}

/// One variant on a fresh paper-machine context: join cardinality plus
/// the per-phase access audit of the real execution path.
fn audited<J: JoinAlgorithm>(join: &J, r: &[Tuple], s: &[Tuple]) -> (u64, Vec<AccessCounters>) {
    let cx = ExecContext::paper_machine();
    let (count, _) = join.join_in::<CountSink>(&cx, r, s);
    (count, Phase::ALL.iter().map(|&p| cx.phase_counters(p)).collect())
}

#[test]
fn paper_topology_joins_obey_the_commandments() {
    // B-, P- and D-MPSM on the 4-node × 8-core paper machine (Figure
    // 11), 16 Ki ⋈ 16 Ki uniform FK tuples over 32 workers.
    let w = fk_uniform(1 << 14, 1, 42);
    let config = JoinConfig::with_threads(ExecContext::paper_machine().threads());
    let (b_count, b) = audited(&BMpsmJoin::new(config.clone()), &w.r, &w.s);
    let (p_count, p) = audited(&PMpsmJoin::new(config.clone()), &w.r, &w.s);
    let d_join = DMpsmJoin::new(DMpsmConfig::with_join(config.clone()));
    let (d_count, d) = audited(&d_join, &w.r, &w.s);
    assert_eq!(b_count, oracle_count(&w.r, &w.s));
    assert_eq!((p_count, d_count), (b_count, b_count), "variants disagree on the cardinality");

    for (name, phases) in [("B-MPSM", &b), ("P-MPSM", &p)] {
        for (i, c) in phases.iter().enumerate() {
            assert_eq!(c.syncs(), 0, "{name} phase {}: synchronization inside a phase (C3)", i + 1);
        }
        // C1: sort and partition phases never touch remote memory randomly.
        for (i, c) in phases[..3].iter().enumerate() {
            assert_eq!(c.accesses(AccessKind::RemoteRand), 0, "{name} phase {} (C1)", i + 1);
        }
    }
    // C2: B-MPSM's merge (its phase 3) scans every remote run, only sequentially.
    assert!(b[2].accesses(AccessKind::RemoteSeq) > 0, "B-MPSM merge must scan remote runs");
    assert_eq!(b[2].accesses(AccessKind::RemoteRand), 0, "B-MPSM remote reads sequential (C2)");
    // Locality: P-MPSM's private sort and merge stay on the worker's node.
    for (what, c) in [("sort", &p[2]), ("merge", &p[3])] {
        let local = 1.0 - c.remote_fraction();
        assert!(local >= 0.95, "P-MPSM {what} only {:.1}% node-local", local * 100.0);
    }
    // The audit counts tuple traffic, not timing: a second run reads the same.
    assert_eq!(audited(&BMpsmJoin::new(config.clone()), &w.r, &w.s).1, b);
    assert_eq!(audited(&PMpsmJoin::new(config), &w.r, &w.s).1, p);
    assert_eq!(audited(&d_join, &w.r, &w.s).1, d);
}
