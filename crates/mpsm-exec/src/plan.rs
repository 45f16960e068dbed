//! Query plans and EXPLAIN output.
//!
//! The executor's pipeline shape is fixed (scan → select → join →
//! aggregate, the paper's evaluation plan), but which join runs, with
//! which roles, threads, and estimated cardinalities is worth seeing —
//! especially since the paper's HyPer context compiles exactly such
//! plans \[21\]. [`QueryPlan`] describes one pipeline instance and
//! renders the usual indented EXPLAIN tree.
//!
//! Scheduled executions (see [`crate::sched`]) additionally report how
//! long the query waited in the admission queue and the per-phase
//! critical-path timings of the join, both rendered as extra EXPLAIN
//! nodes.

use std::fmt;

/// One node of the (linear) plan tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanStep {
    /// Base-table scan.
    Scan {
        /// Relation name.
        relation: String,
        /// Base cardinality.
        rows: usize,
    },
    /// Filter over the child scan.
    Select {
        /// Rows surviving the predicate (exact, post-execution; the
        /// executor materializes selections).
        rows_out: usize,
    },
}

impl PlanStep {
    fn label(&self) -> String {
        match self {
            PlanStep::Scan { relation, rows } => format!("Scan {relation} [{rows} rows]"),
            PlanStep::Select { rows_out } => format!("Select [out = {rows_out} rows]"),
        }
    }
}

/// NUMA placement of a join's execution, derived from the
/// [`mpsm_core::context::ExecContext`] that ran it and rendered as the
/// `Placement` EXPLAIN node.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementInfo {
    /// The node every worker of the query sat on, when the scheduler
    /// pinned the query to one socket (`None` = workers spread over
    /// the machine).
    pub node: Option<u32>,
    /// Percentage of the join's audited accesses that hit node-local
    /// memory.
    pub local_pct: f64,
    /// Percentage that crossed to a remote node.
    pub remote_pct: f64,
    /// The context's topology had a single node: placement is trivial
    /// and rendered as `Placement [flat, …]` — an explicit value, so
    /// flat-scheduler tests need no `unwrap` chains to distinguish
    /// "no placement info" from "nothing to place".
    pub flat: bool,
    /// Fresh run/partition bytes the query's context drew from its NUMA
    /// arena per node (index = node id), sampled at plan-assembly time:
    /// lifetime volume, not live memory, and buffers reused from the
    /// machine's spares are not counted — a warm cache miss reports 0.
    /// Empty when the execution path did not sample the arena; the
    /// label then omits the `arena=` field.
    pub arena_bytes: Vec<u64>,
}

impl PlacementInfo {
    fn label(&self) -> String {
        let node = if self.flat {
            "flat".to_string()
        } else {
            match self.node {
                Some(n) => format!("node={n}"),
                None => "node=spread".to_string(),
            }
        };
        let arena = if self.arena_bytes.is_empty() {
            String::new()
        } else {
            let per_node: Vec<String> = self.arena_bytes.iter().map(|b| b.to_string()).collect();
            format!(", arena={} B", per_node.join("/"))
        };
        format!(
            "Placement [{node}, local={:.1}%, remote={:.1}%{arena}]",
            self.local_pct, self.remote_pct
        )
    }
}

/// The consistent snapshot one join input was executed against,
/// rendered as a `Snapshot` EXPLAIN node: the base version the side's
/// cached runs key on, and how many delta ops the snapshot merged in on
/// the fly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Which input the snapshot covers (`"R"` or `"S"`).
    pub side: &'static str,
    /// Catalog version of the immutable base the snapshot pinned.
    pub base_version: u64,
    /// Delta ops visible at the snapshot's watermark (0 = the side was
    /// clean; the query read pure base runs).
    pub delta: usize,
}

impl SnapshotInfo {
    fn label(&self) -> String {
        format!(
            "Snapshot [{}: base=v{}, delta={} tuples]",
            self.side, self.base_version, self.delta
        )
    }
}

/// How far an interruptible (deadline-carrying) query got before its
/// [`mpsm_core::join::anytime::AnytimeToken`] expired, rendered as the
/// `Anytime` EXPLAIN node. Present exactly when the query executed on
/// the anytime merge path; `complete` queries render it too (coverage
/// 100%), so a plan reader can tell "ran anytime and finished" from
/// "ran the ordinary path".
#[derive(Debug, Clone, PartialEq)]
pub struct AnytimeInfo {
    /// Fraction of the private input merged, in `[0, 1]`.
    pub coverage: f64,
    /// Private runs merged to completion.
    pub merged_runs: usize,
    /// Private runs total.
    pub total_runs: usize,
    /// Whether the merge ran to completion before the token expired.
    pub complete: bool,
    /// Whether the merge stopped early because a `rows_cap` was
    /// satisfied. A capped stop is voluntary — the caller got every row
    /// it asked for — so it is not an SLA miss and not a partial answer
    /// even though `complete` is false and coverage is below 100%.
    pub capped: bool,
    /// Per-key-range coverage histogram (one entry per non-empty
    /// private run, ascending key order). Empty when the execution
    /// predates the histogram or never reached the merge.
    pub ranges: Vec<mpsm_core::join::anytime::KeyRangeCoverage>,
}

impl AnytimeInfo {
    fn label(&self) -> String {
        let mut label = format!(
            "Anytime [coverage={:.1}%, runs={}/{}, {}]",
            self.coverage * 100.0,
            self.merged_runs,
            self.total_runs,
            if self.complete {
                "complete"
            } else if self.capped {
                "capped"
            } else {
                "partial"
            },
        );
        if !self.ranges.is_empty() {
            // Render at most 8 key ranges so wide machines stay on one
            // readable line; the elided tail is summarized by count.
            let shown = self.ranges.iter().take(8);
            let body = shown
                .map(|kr| format!("{}..{}={:.0}%", kr.lo, kr.hi, kr.fraction * 100.0))
                .collect::<Vec<_>>()
                .join(" ");
            let elided = self.ranges.len().saturating_sub(8);
            let tail = if elided > 0 { format!(" +{elided}") } else { String::new() };
            label.push_str(&format!(" ranges[{body}{tail}]"));
        }
        label
    }
}

/// What the run cache did for one join input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunCacheOutcome {
    /// Sorted runs were served from the cache; the side skipped the
    /// cut.
    Hit,
    /// Runs were cut by this query and published.
    Miss,
    /// The side was not cacheable (filtered, unregistered, or no cache
    /// attached to the spec).
    Bypass,
}

impl RunCacheOutcome {
    fn as_str(self) -> &'static str {
        match self {
            RunCacheOutcome::Hit => "hit",
            RunCacheOutcome::Miss => "miss",
            RunCacheOutcome::Bypass => "bypass",
        }
    }
}

/// Per-query run-cache report, rendered as the `RunCache` EXPLAIN
/// node: what the cache did for each input of this query. The cache's
/// lifetime totals are [`crate::run_cache::RunCache::stats`]' business.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunCacheInfo {
    /// Outcome for the private input `R`.
    pub r: RunCacheOutcome,
    /// Outcome for the public input `S`.
    pub s: RunCacheOutcome,
}

impl RunCacheInfo {
    fn label(&self) -> String {
        format!("RunCache [R={}, S={}]", self.r.as_str(), self.s.as_str())
    }
}

/// A described execution of the paper's pipeline.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// Join algorithm display name.
    pub algorithm: String,
    /// Worker threads used by the join.
    pub threads: usize,
    /// Private-side (build/partitioned) input pipeline.
    pub private: Vec<PlanStep>,
    /// Public-side input pipeline.
    pub public: Vec<PlanStep>,
    /// Aggregate on top.
    pub aggregate: String,
    /// Join output cardinality if the sink counted it.
    pub join_rows: Option<u64>,
    /// Time the query waited in the scheduler's admission queue before
    /// execution started, in ms (`None` for unscheduled executions).
    pub queue_wait_ms: Option<f64>,
    /// Anytime-merge coverage, when the query ran interruptibly.
    pub anytime: Option<AnytimeInfo>,
    /// Critical-path duration of each join phase, in ms, when the
    /// execution recorded them.
    pub phases_ms: Option<[f64; 4]>,
    /// Tuples that entered the join (selected R + selected S) — the
    /// normalizer for the per-tuple phase rates row. Only rendered when
    /// `phases_ms` is also present.
    pub phase_tuples: Option<u64>,
    /// NUMA placement and locality of the join, when it executed
    /// inside an [`mpsm_core::context::ExecContext`].
    pub placement: Option<PlacementInfo>,
    /// Run-cache outcomes, when the query ran through a cache-aware
    /// session.
    pub run_cache: Option<RunCacheInfo>,
    /// The consistent snapshots the query's inputs were pinned to, one
    /// entry per catalog-resolved side (empty for inputs outside any
    /// session catalog).
    pub snapshots: Vec<SnapshotInfo>,
}

/// A rendered EXPLAIN node: a label plus child nodes.
struct Node {
    label: String,
    children: Vec<Node>,
}

impl Node {
    fn new(label: impl Into<String>) -> Self {
        Node { label: label.into(), children: Vec::new() }
    }

    fn child(mut self, c: Node) -> Self {
        self.children.push(c);
        self
    }

    /// Standard tree rendering: every child is introduced by `├─ ` /
    /// `└─ `, and descendants of a non-last child keep the `│ `
    /// continuation — correct at any depth, which the old
    /// fixed-three-space renderer was not once a side pipeline grew
    /// beyond two steps.
    fn render(&self, prefix: &str, out: &mut String) {
        let n = self.children.len();
        for (i, child) in self.children.iter().enumerate() {
            let last = i + 1 == n;
            let branch = if last { "└─ " } else { "├─ " };
            let cont = if last { "   " } else { "│  " };
            out.push_str(prefix);
            out.push_str(branch);
            out.push_str(&child.label);
            out.push('\n');
            child.render(&format!("{prefix}{cont}"), out);
        }
    }
}

impl QueryPlan {
    /// Render the indented EXPLAIN tree.
    pub fn explain(&self) -> String {
        // A side's steps are stored scan-first; rendered outermost
        // (last step) down to the scan.
        let side = |label: &str, steps: &[PlanStep]| -> Node {
            let mut node = Node::new(format!("{label}:"));
            let mut slot = &mut node;
            for step in steps.iter().rev() {
                slot.children.push(Node::new(step.label()));
                slot = slot.children.last_mut().expect("just pushed");
            }
            node
        };

        let mut join = Node::new(format!(
            "Join [{}; T = {}{}]",
            self.algorithm,
            self.threads,
            self.join_rows.map_or(String::new(), |r| format!("; out = {r} rows")),
        ));
        if let Some(placement) = &self.placement {
            join = join.child(Node::new(placement.label()));
        }
        if let Some(anytime) = &self.anytime {
            join = join.child(Node::new(anytime.label()));
        }
        for snapshot in &self.snapshots {
            join = join.child(Node::new(snapshot.label()));
        }
        if let Some(cache) = &self.run_cache {
            join = join.child(Node::new(cache.label()));
        }
        if let Some(p) = self.phases_ms {
            join = join.child(Node::new(format!(
                "Phases [1: {:.3} ms, 2: {:.3} ms, 3: {:.3} ms, 4: {:.3} ms]",
                p[0], p[1], p[2], p[3],
            )));
            // Per-tuple rates, grouped by what the phases do: sort =
            // run production (phases 1 + 3), scatter = the partition
            // pass (phase 2), merge = the join itself (phase 4). The
            // normalizer is the tuples that entered the join, so the
            // numbers compare directly with the sort bench's ns/tuple.
            if let Some(tuples) = self.phase_tuples {
                if tuples > 0 {
                    let per = |ms: f64| ms * 1e6 / tuples as f64;
                    join = join.child(Node::new(format!(
                        "Phases [sort={:.1} ns/t, scatter={:.1} ns/t, merge={:.1} ns/t]",
                        per(p[0] + p[2]),
                        per(p[1]),
                        per(p[3]),
                    )));
                }
            }
        }
        join =
            join.child(side("private (R)", &self.private)).child(side("public (S)", &self.public));

        let aggregate = Node::new(format!("Aggregate [{}]", self.aggregate)).child(join);
        let root = match self.queue_wait_ms {
            Some(wait) => Node::new(format!("Queue [wait = {wait:.3} ms]")).child(aggregate),
            None => aggregate,
        };

        let mut out = String::new();
        out.push_str(&root.label);
        out.push('\n');
        root.render("", &mut out);
        out
    }
}

impl fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.explain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> QueryPlan {
        QueryPlan {
            algorithm: "P-MPSM".into(),
            threads: 8,
            private: vec![
                PlanStep::Scan { relation: "orders".into(), rows: 1000 },
                PlanStep::Select { rows_out: 500 },
            ],
            public: vec![
                PlanStep::Scan { relation: "lineitem".into(), rows: 4000 },
                PlanStep::Select { rows_out: 4000 },
            ],
            aggregate: "max(R.payload + S.payload)".into(),
            join_rows: Some(2000),
            queue_wait_ms: None,
            anytime: None,
            phases_ms: None,
            phase_tuples: None,
            placement: None,
            run_cache: None,
            snapshots: vec![],
        }
    }

    #[test]
    fn explain_contains_every_node() {
        let text = sample().explain();
        for needle in [
            "Aggregate [max(R.payload + S.payload)]",
            "Join [P-MPSM; T = 8; out = 2000 rows]",
            "Scan orders [1000 rows]",
            "Select [out = 500 rows]",
            "Scan lineitem [4000 rows]",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn display_matches_explain() {
        let p = sample();
        assert_eq!(format!("{p}"), p.explain());
    }

    #[test]
    fn join_rows_are_optional() {
        let mut p = sample();
        p.join_rows = None;
        assert!(p.explain().contains("Join [P-MPSM; T = 8]"));
    }

    #[test]
    fn exact_tree_at_depth_three() {
        // Three steps per side: the tree must stay aligned below depth
        // 2 (each nested step indents exactly one level under its
        // parent, and the `│` continuation of the non-last side runs
        // the full depth of its subtree).
        let mut p = sample();
        p.private.push(PlanStep::Select { rows_out: 100 });
        p.public.push(PlanStep::Select { rows_out: 7 });
        let expected = "\
Aggregate [max(R.payload + S.payload)]
└─ Join [P-MPSM; T = 8; out = 2000 rows]
   ├─ private (R):
   │  └─ Select [out = 100 rows]
   │     └─ Select [out = 500 rows]
   │        └─ Scan orders [1000 rows]
   └─ public (S):
      └─ Select [out = 7 rows]
         └─ Select [out = 4000 rows]
            └─ Scan lineitem [4000 rows]
";
        assert_eq!(p.explain(), expected);
    }

    #[test]
    fn scheduled_plans_render_queue_and_phases() {
        let mut p = sample();
        p.queue_wait_ms = Some(1.25);
        p.phases_ms = Some([0.5, 1.0, 0.25, 2.0]);
        let text = p.explain();
        assert!(text.starts_with("Queue [wait = 1.250 ms]\n└─ Aggregate"), "{text}");
        assert!(
            text.contains("      ├─ Phases [1: 0.500 ms, 2: 1.000 ms, 3: 0.250 ms, 4: 2.000 ms]"),
            "{text}"
        );
        // The queue node shifts the whole pipeline one level deeper;
        // the private side keeps its continuation bars intact.
        assert!(text.contains("      ├─ private (R):\n      │  └─ Select"), "{text}");
    }

    #[test]
    fn phase_rates_row_renders_exactly() {
        // The per-tuple row: sort = phases 1 + 3, scatter = phase 2,
        // merge = phase 4, normalized by the tuples entering the join.
        // 0.5 ms + 0.25 ms over 50k tuples = 15.0 ns/t, and so on.
        let mut p = sample();
        p.phases_ms = Some([0.5, 1.0, 0.25, 2.0]);
        p.phase_tuples = Some(50_000);
        let expected = "\
Aggregate [max(R.payload + S.payload)]
└─ Join [P-MPSM; T = 8; out = 2000 rows]
   ├─ Phases [1: 0.500 ms, 2: 1.000 ms, 3: 0.250 ms, 4: 2.000 ms]
   ├─ Phases [sort=15.0 ns/t, scatter=20.0 ns/t, merge=40.0 ns/t]
   ├─ private (R):
   │  └─ Select [out = 500 rows]
   │     └─ Scan orders [1000 rows]
   └─ public (S):
      └─ Select [out = 4000 rows]
         └─ Scan lineitem [4000 rows]
";
        assert_eq!(p.explain(), expected);
        // Zero tuples (empty inputs) suppresses the rate row instead of
        // rendering infinities.
        p.phase_tuples = Some(0);
        assert!(!p.explain().contains("ns/t"), "{}", p.explain());
        // Without the normalizer the ms row still renders alone.
        p.phase_tuples = None;
        assert!(p.explain().contains("Phases [1: 0.500 ms"), "{}", p.explain());
        assert!(!p.explain().contains("ns/t"));
    }

    #[test]
    fn queue_row_carries_only_the_wait() {
        // The Queue row reports this query's wait and nothing of the
        // scheduler's lifetime counters (those are
        // `Scheduler::metrics`'), and exists only for scheduled
        // executions.
        let mut p = sample();
        p.queue_wait_ms = Some(0.75);
        let text = p.explain();
        assert!(text.starts_with("Queue [wait = 0.750 ms]\n└─ Aggregate"), "{text}");
        p.queue_wait_ms = None;
        assert!(!p.explain().contains("Queue ["), "{}", p.explain());
    }

    #[test]
    fn anytime_node_renders_exactly() {
        let mut p = sample();
        p.anytime = Some(AnytimeInfo {
            coverage: 0.625,
            merged_runs: 5,
            total_runs: 8,
            complete: false,
            capped: false,
            ranges: vec![],
        });
        let expected = "\
Aggregate [max(R.payload + S.payload)]
└─ Join [P-MPSM; T = 8; out = 2000 rows]
   ├─ Anytime [coverage=62.5%, runs=5/8, partial]
   ├─ private (R):
   │  └─ Select [out = 500 rows]
   │     └─ Scan orders [1000 rows]
   └─ public (S):
      └─ Select [out = 4000 rows]
         └─ Scan lineitem [4000 rows]
";
        assert_eq!(p.explain(), expected);
        p.anytime = Some(AnytimeInfo {
            coverage: 1.0,
            merged_runs: 8,
            total_runs: 8,
            complete: true,
            capped: false,
            ranges: vec![],
        });
        assert!(
            p.explain().contains("Anytime [coverage=100.0%, runs=8/8, complete]"),
            "{}",
            p.explain()
        );
        // A rows_cap stop renders as "capped", not "partial": the
        // caller got every row it asked for.
        p.anytime = Some(AnytimeInfo {
            coverage: 0.4,
            merged_runs: 3,
            total_runs: 8,
            complete: false,
            capped: true,
            ranges: vec![],
        });
        assert!(
            p.explain().contains("Anytime [coverage=40.0%, runs=3/8, capped]"),
            "{}",
            p.explain()
        );
    }

    #[test]
    fn anytime_key_range_histogram_renders_on_the_anytime_row() {
        use mpsm_core::join::anytime::KeyRangeCoverage;

        let kr = |lo: u64, hi: u64, fraction: f64| KeyRangeCoverage { lo, hi, fraction };
        let mut p = sample();
        p.anytime = Some(AnytimeInfo {
            coverage: 0.5,
            merged_runs: 1,
            total_runs: 3,
            complete: false,
            capped: false,
            ranges: vec![kr(0, 99, 1.0), kr(100, 199, 0.5), kr(200, 299, 0.0)],
        });
        assert!(
            p.explain().contains(
                "Anytime [coverage=50.0%, runs=1/3, partial] \
                 ranges[0..99=100% 100..199=50% 200..299=0%]"
            ),
            "{}",
            p.explain()
        );
        // A wide machine elides the histogram tail instead of wrapping
        // the row.
        p.anytime = Some(AnytimeInfo {
            coverage: 1.0,
            merged_runs: 10,
            total_runs: 10,
            complete: true,
            capped: false,
            ranges: (0..10u64).map(|i| kr(i * 10, i * 10 + 9, 1.0)).collect(),
        });
        let text = p.explain();
        assert!(!text.contains("90..99=100%"), "tail elided: {text}");
        assert!(text.contains(" +2]"), "elision count renders: {text}");
    }

    #[test]
    fn placement_node_renders_exactly() {
        // The acceptance shape of the NUMA refactor: a pinned query's
        // EXPLAIN carries the Placement node directly under the join.
        let mut p = sample();
        p.placement = Some(PlacementInfo {
            node: Some(2),
            local_pct: 97.7,
            remote_pct: 2.3,
            flat: false,
            arena_bytes: vec![],
        });
        let expected = "\
Aggregate [max(R.payload + S.payload)]
└─ Join [P-MPSM; T = 8; out = 2000 rows]
   ├─ Placement [node=2, local=97.7%, remote=2.3%]
   ├─ private (R):
   │  └─ Select [out = 500 rows]
   │     └─ Scan orders [1000 rows]
   └─ public (S):
      └─ Select [out = 4000 rows]
         └─ Scan lineitem [4000 rows]
";
        assert_eq!(p.explain(), expected);
        // A spread (unpinned) execution names no node.
        p.placement = Some(PlacementInfo {
            node: None,
            local_pct: 31.25,
            remote_pct: 68.75,
            flat: false,
            arena_bytes: vec![],
        });
        assert!(
            p.explain().contains("Placement [node=spread, local=31.2%, remote=68.8%]"),
            "{}",
            p.explain()
        );
        // A single-node topology renders the explicit flat placement.
        p.placement = Some(PlacementInfo {
            node: Some(0),
            local_pct: 100.0,
            remote_pct: 0.0,
            flat: true,
            arena_bytes: vec![],
        });
        assert!(
            p.explain().contains("Placement [flat, local=100.0%, remote=0.0%]"),
            "{}",
            p.explain()
        );
    }

    #[test]
    fn placement_arena_bytes_render_exactly() {
        // The carried PR 5 EXPLAIN item: per-node arena residency joins
        // the Placement row. One entry per node, slash-separated, in
        // node-id order.
        let mut p = sample();
        p.placement = Some(PlacementInfo {
            node: Some(1),
            local_pct: 92.5,
            remote_pct: 7.5,
            flat: false,
            arena_bytes: vec![0, 16384, 0, 512],
        });
        let expected = "\
Aggregate [max(R.payload + S.payload)]
└─ Join [P-MPSM; T = 8; out = 2000 rows]
   ├─ Placement [node=1, local=92.5%, remote=7.5%, arena=0/16384/0/512 B]
   ├─ private (R):
   │  └─ Select [out = 500 rows]
   │     └─ Scan orders [1000 rows]
   └─ public (S):
      └─ Select [out = 4000 rows]
         └─ Scan lineitem [4000 rows]
";
        assert_eq!(p.explain(), expected);
        // A flat machine has one node and therefore one arena figure.
        p.placement = Some(PlacementInfo {
            node: Some(0),
            local_pct: 100.0,
            remote_pct: 0.0,
            flat: true,
            arena_bytes: vec![4096],
        });
        assert!(
            p.explain().contains("Placement [flat, local=100.0%, remote=0.0%, arena=4096 B]"),
            "{}",
            p.explain()
        );
    }

    #[test]
    fn snapshot_rows_render_exactly() {
        let mut p = sample();
        p.snapshots = vec![
            SnapshotInfo { side: "R", base_version: 3, delta: 4 },
            SnapshotInfo { side: "S", base_version: 1, delta: 0 },
        ];
        let expected = "\
Aggregate [max(R.payload + S.payload)]
└─ Join [P-MPSM; T = 8; out = 2000 rows]
   ├─ Snapshot [R: base=v3, delta=4 tuples]
   ├─ Snapshot [S: base=v1, delta=0 tuples]
   ├─ private (R):
   │  └─ Select [out = 500 rows]
   │     └─ Scan orders [1000 rows]
   └─ public (S):
      └─ Select [out = 4000 rows]
         └─ Scan lineitem [4000 rows]
";
        assert_eq!(p.explain(), expected);
    }

    #[test]
    fn run_cache_node_renders_exactly() {
        let mut p = sample();
        p.run_cache = Some(RunCacheInfo { r: RunCacheOutcome::Hit, s: RunCacheOutcome::Miss });
        let expected = "\
Aggregate [max(R.payload + S.payload)]
└─ Join [P-MPSM; T = 8; out = 2000 rows]
   ├─ RunCache [R=hit, S=miss]
   ├─ private (R):
   │  └─ Select [out = 500 rows]
   │     └─ Scan orders [1000 rows]
   └─ public (S):
      └─ Select [out = 4000 rows]
         └─ Scan lineitem [4000 rows]
";
        assert_eq!(p.explain(), expected);
        p.run_cache.as_mut().expect("set above").s = RunCacheOutcome::Bypass;
        assert!(p.explain().contains("RunCache [R=hit, S=bypass]"), "{}", p.explain());
    }

    #[test]
    fn empty_side_renders_just_the_label() {
        let mut p = sample();
        p.private.clear();
        let text = p.explain();
        assert!(text.contains("├─ private (R):\n"), "{text}");
    }
}
