//! Node-tagged allocations.
//!
//! A [`NumaBuf`] is a heap buffer with a declared *home node*. On the real
//! paper machine the home node would be enforced with `numactl`/
//! `mbind`; in this simulated substrate the tag exists so that algorithms
//! and audits can classify every access as local or remote. The join
//! algorithms in `mpsm-core` allocate run storage through a [`NumaArena`]
//! so that per-node allocation volumes can be reported, mirroring the
//! paper's claim that all sorting happens in local RAM partitions.

use std::ops::{Deref, DerefMut};

use parking_lot::Mutex;

use crate::topology::{NodeId, Topology};

/// A buffer of `T` homed on a specific NUMA node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NumaBuf<T> {
    home: NodeId,
    data: Vec<T>,
}

impl<T> NumaBuf<T> {
    /// Wrap an existing vector, declaring its home node.
    pub fn from_vec(home: NodeId, data: Vec<T>) -> Self {
        NumaBuf { home, data }
    }

    /// Allocate an empty buffer with `capacity` reserved on `home`.
    pub fn with_capacity(home: NodeId, capacity: usize) -> Self {
        NumaBuf { home, data: Vec::with_capacity(capacity) }
    }

    /// The node this buffer is homed on.
    pub fn home(&self) -> NodeId {
        self.home
    }

    /// Elements the buffer holds room for without reallocating.
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Unwrap into the underlying vector.
    pub fn into_inner(self) -> Vec<T> {
        self.data
    }

    /// Borrow the underlying vector mutably.
    pub fn vec_mut(&mut self) -> &mut Vec<T> {
        &mut self.data
    }
}

impl<T: Clone + Default> NumaBuf<T> {
    /// Allocate a zero-initialised buffer of `len` elements on `home`.
    pub fn zeroed(home: NodeId, len: usize) -> Self {
        NumaBuf { home, data: vec![T::default(); len] }
    }
}

impl<T> Deref for NumaBuf<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.data
    }
}

impl<T> DerefMut for NumaBuf<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.data
    }
}

/// Per-node allocation statistics: lifetime volume, not live memory.
/// Nothing is subtracted when a buffer drops, and a buffer recycled
/// without passing through the arena again is not counted again.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeAllocStats {
    /// Buffers the arena has handed out on this node since it was made.
    pub buffers: u64,
    /// Bytes the arena has handed out on this node since it was made.
    pub bytes: u64,
}

/// Allocation bookkeeper handing out node-homed buffers.
///
/// The arena does not own the buffers it vends (they are ordinary `Vec`s
/// underneath); it tracks per-node allocation volume (see
/// [`NodeAllocStats`]) so experiments can assert NUMA-affine placement,
/// e.g. "every worker's runs live on its own node".
#[derive(Debug)]
pub struct NumaArena {
    topology: Topology,
    stats: Mutex<Vec<NodeAllocStats>>,
}

impl NumaArena {
    /// Create an arena for `topology`.
    pub fn new(topology: Topology) -> Self {
        let stats = Mutex::new(vec![NodeAllocStats::default(); topology.nodes as usize]);
        NumaArena { topology, stats }
    }

    /// The topology this arena allocates for.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Allocate a buffer of `len` default-initialised elements homed on
    /// `node`.
    ///
    /// # Panics
    /// Panics if `node` is outside the topology.
    pub fn alloc<T: Clone + Default>(&self, node: NodeId, len: usize) -> NumaBuf<T> {
        assert!(node.0 < self.topology.nodes, "node {node} outside topology");
        let bytes = (len * std::mem::size_of::<T>()) as u64;
        let mut stats = self.stats.lock();
        stats[node.0 as usize].buffers += 1;
        stats[node.0 as usize].bytes += bytes;
        NumaBuf::zeroed(node, len)
    }

    /// Adopt an existing vector, homing it on `node` and accounting it.
    pub fn adopt<T>(&self, node: NodeId, data: Vec<T>) -> NumaBuf<T> {
        assert!(node.0 < self.topology.nodes, "node {node} outside topology");
        let bytes = (data.len() * std::mem::size_of::<T>()) as u64;
        let mut stats = self.stats.lock();
        stats[node.0 as usize].buffers += 1;
        stats[node.0 as usize].bytes += bytes;
        NumaBuf::from_vec(node, data)
    }

    /// Snapshot of per-node allocation statistics.
    pub fn stats(&self) -> Vec<NodeAllocStats> {
        self.stats.lock().clone()
    }

    /// Total bytes handed out across all nodes (lifetime volume).
    pub fn total_bytes(&self) -> u64 {
        self.stats.lock().iter().map(|s| s.bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_remember_their_home() {
        let buf: NumaBuf<u64> = NumaBuf::zeroed(NodeId(2), 8);
        assert_eq!(buf.home(), NodeId(2));
        assert_eq!(buf.len(), 8);
        assert!(buf.iter().all(|&x| x == 0));
    }

    #[test]
    fn deref_allows_slice_ops() {
        let mut buf: NumaBuf<u32> = NumaBuf::zeroed(NodeId(0), 4);
        buf[0] = 7;
        buf.sort_unstable();
        assert_eq!(&buf[..], &[0, 0, 0, 7]);
    }

    #[test]
    fn arena_accounts_per_node() {
        let arena = NumaArena::new(Topology::paper_machine());
        let _a: NumaBuf<u64> = arena.alloc(NodeId(0), 100);
        let _b: NumaBuf<u64> = arena.alloc(NodeId(0), 50);
        let _c: NumaBuf<u64> = arena.alloc(NodeId(3), 10);
        let stats = arena.stats();
        assert_eq!(stats[0].buffers, 2);
        assert_eq!(stats[0].bytes, 150 * 8);
        assert_eq!(stats[3].buffers, 1);
        assert_eq!(arena.total_bytes(), 160 * 8);
    }

    #[test]
    fn adopt_accounts_existing_vec() {
        let arena = NumaArena::new(Topology::flat(4));
        let buf = arena.adopt(NodeId(0), vec![1u8, 2, 3]);
        assert_eq!(buf.home(), NodeId(0));
        assert_eq!(arena.stats()[0].bytes, 3);
    }

    #[test]
    #[should_panic(expected = "outside topology")]
    fn alloc_on_unknown_node_panics() {
        let arena = NumaArena::new(Topology::flat(4));
        let _: NumaBuf<u8> = arena.alloc(NodeId(1), 1);
    }

    #[test]
    fn with_capacity_starts_empty() {
        let buf: NumaBuf<u64> = NumaBuf::with_capacity(NodeId(1), 32);
        assert!(buf.is_empty());
    }

    #[test]
    fn into_inner_roundtrip() {
        let buf = NumaBuf::from_vec(NodeId(0), vec![9u64, 1]);
        assert_eq!(buf.into_inner(), vec![9, 1]);
    }
}
