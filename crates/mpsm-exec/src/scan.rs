//! Base relations.

use std::sync::OnceLock;

use mpsm_core::Tuple;

/// A named, in-memory base table of join tuples.
///
/// Registered relations additionally carry a catalog identity: a
/// stable `id` shared by every version of the same name, and a
/// monotonic `version` bumped on each re-registration. The pair is
/// what cache keys and invalidation hang off — an unregistered
/// relation reports `(0, 0)` and is never cached.
///
/// A relation's tuples never change after construction — a write
/// makes a new version — so facts derived from them, such as the key
/// range, are computed once and kept.
#[derive(Debug, Clone)]
pub struct Relation {
    name: String,
    tuples: Vec<Tuple>,
    id: u64,
    version: u64,
    key_range: OnceLock<Option<(u64, u64)>>,
}

impl Relation {
    /// Create a relation from tuples (unregistered: no identity yet).
    pub fn new(name: impl Into<String>, tuples: Vec<Tuple>) -> Self {
        Relation { name: name.into(), tuples, id: 0, version: 0, key_range: OnceLock::new() }
    }

    /// The relation's name (for plan display).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Stable catalog id (0 = not registered with any session).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Monotonic catalog version (0 = not registered; bumped every
    /// time the name is re-registered).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Stamp the catalog identity onto this relation (done once by
    /// [`crate::session::Session::register`]).
    pub(crate) fn with_identity(mut self, id: u64, version: u64) -> Self {
        self.id = id;
        self.version = version;
        self
    }

    /// The stored tuples.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// The smallest and largest key (`None` when empty), scanned on the
    /// first call and kept: a cache-miss build of this version skips
    /// its own scan pass.
    pub fn key_range(&self) -> Option<(u64, u64)> {
        *self.key_range.get_or_init(|| mpsm_core::tuple::key_range(&self.tuples))
    }

    /// Cardinality.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relation_basics() {
        let r = Relation::new("orders", vec![Tuple::new(1, 2)]);
        assert_eq!(r.name(), "orders");
        assert_eq!(r.len(), 1);
        assert!(!r.is_empty());
        assert_eq!(r.tuples()[0], Tuple::new(1, 2));
    }

    #[test]
    fn empty_relation() {
        let r = Relation::new("empty", vec![]);
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn key_range_is_scanned_once_and_kept() {
        let r = Relation::new("keys", vec![Tuple::new(9, 0), Tuple::new(2, 1), Tuple::new(5, 2)]);
        assert_eq!(r.key_range.get(), None, "nothing scanned before the first call");
        assert_eq!(r.key_range(), Some((2, 9)));
        assert_eq!(r.key_range.get(), Some(&Some((2, 9))));
        assert_eq!(r.clone().with_identity(1, 1).key_range.get(), Some(&Some((2, 9))));
        assert_eq!(Relation::new("empty", vec![]).key_range(), None);
    }

    #[test]
    fn unregistered_relations_have_no_identity() {
        let r = Relation::new("raw", vec![]);
        assert_eq!((r.id(), r.version()), (0, 0));
        let stamped = r.with_identity(3, 2);
        assert_eq!((stamped.id(), stamped.version()), (3, 2));
    }
}
