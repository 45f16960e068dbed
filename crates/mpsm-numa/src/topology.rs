//! NUMA topology description.
//!
//! A [`Topology`] is a static description of a machine: how many NUMA
//! nodes it has, how many physical cores sit on each node, and how many
//! hardware threads (SMT contexts) each core exposes. Worker threads are
//! identified by a dense [`CoreId`] in `0..total_contexts()`; the mapping
//! from worker to node follows the paper's machine (Figure 11), where
//! contexts are numbered round-robin across sockets.

use std::fmt;

/// Identifier of a NUMA node (socket).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Identifier of a hardware context (logical core) a worker is pinned to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub u32);

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// Static machine description used by the cost model and the placement
/// bookkeeping of the join algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// Number of NUMA nodes (sockets).
    pub nodes: u32,
    /// Physical cores per node.
    pub cores_per_node: u32,
    /// Hardware threads per physical core (1 = no SMT).
    pub smt: u32,
}

impl Topology {
    /// The machine of the paper's evaluation (Figure 11): four Intel
    /// X7560 sockets, eight cores each, two hyper-threads per core —
    /// 32 physical cores, 64 hardware contexts.
    pub fn paper_machine() -> Self {
        Topology { nodes: 4, cores_per_node: 8, smt: 2 }
    }

    /// A uniform (non-NUMA) machine with `cores` physical cores.
    pub fn flat(cores: u32) -> Self {
        Topology { nodes: 1, cores_per_node: cores.max(1), smt: 1 }
    }

    /// A topology sized after the host the process is running on,
    /// modeled as a single node (containers rarely expose NUMA
    /// distances; the simulated topology is what experiments configure
    /// explicitly).
    pub fn host() -> Self {
        let cores = std::thread::available_parallelism().map(|n| n.get() as u32).unwrap_or(1);
        Self::flat(cores)
    }

    /// Total physical cores.
    pub fn total_cores(&self) -> u32 {
        self.nodes * self.cores_per_node
    }

    /// Total hardware contexts (cores × SMT).
    pub fn total_contexts(&self) -> u32 {
        self.total_cores() * self.smt
    }

    /// The NUMA node a given hardware context belongs to.
    ///
    /// Contexts are distributed round-robin over nodes, matching the
    /// paper's machine where contexts `(0, 4, 8, ...)` share socket 0.
    /// This means the first `nodes` workers land on distinct sockets,
    /// which is the scheduling the paper's NUMA-affine experiments use.
    pub fn node_of(&self, core: CoreId) -> NodeId {
        NodeId(core.0 % self.nodes)
    }

    /// Whether memory homed on `home` is local to a worker on `core`.
    pub fn is_local(&self, core: CoreId, home: NodeId) -> bool {
        self.node_of(core) == home
    }

    /// Fraction of uniformly spread memory that is remote to any single
    /// worker; `3/4` on the paper machine. Used by the cost model when
    /// pricing accesses to globally interleaved allocations.
    pub fn remote_fraction(&self) -> f64 {
        if self.nodes <= 1 {
            0.0
        } else {
            (self.nodes - 1) as f64 / self.nodes as f64
        }
    }
}

impl Default for Topology {
    fn default() -> Self {
        Self::paper_machine()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_machine_matches_figure_11() {
        let t = Topology::paper_machine();
        assert_eq!(t.total_cores(), 32);
        assert_eq!(t.total_contexts(), 64);
        assert_eq!(t.nodes, 4);
    }

    #[test]
    fn contexts_round_robin_over_nodes() {
        let t = Topology::paper_machine();
        assert_eq!(t.node_of(CoreId(0)), NodeId(0));
        assert_eq!(t.node_of(CoreId(1)), NodeId(1));
        assert_eq!(t.node_of(CoreId(4)), NodeId(0));
        assert_eq!(t.node_of(CoreId(32)), NodeId(0));
    }

    #[test]
    fn flat_topology_has_no_remote_memory() {
        let t = Topology::flat(24);
        assert_eq!(t.remote_fraction(), 0.0);
        for c in 0..24 {
            assert!(t.is_local(CoreId(c), NodeId(0)));
        }
    }

    #[test]
    fn remote_fraction_on_paper_machine() {
        assert!((Topology::paper_machine().remote_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn host_topology_is_single_node() {
        let t = Topology::host();
        assert_eq!(t.nodes, 1);
        assert!(t.total_cores() >= 1);
    }
}
