//! Base relations.

use mpsm_core::context::ExecContext;
use mpsm_core::join::runs::sort_in_place;
use mpsm_core::join::JoinConfig;
use mpsm_core::tuple::is_key_sorted;
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
/// makes a new version — and every version a session's catalog holds
/// is key-sorted, so a query cuts its runs out of the stored order.
#[derive(Debug, Clone)]
pub struct Relation {
    name: String,
    tuples: Vec<Tuple>,
    id: u64,
    version: u64,
}

impl Relation {
    /// Create a relation from tuples (unregistered: no identity yet).
    pub fn new(name: impl Into<String>, tuples: Vec<Tuple>) -> Self {
        Relation { name: name.into(), tuples, id: 0, version: 0 }
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

    /// This relation with its tuples in key order, sorted on `cx`'s pool
    /// ([`sort_in_place`]) unless they already are — what
    /// [`crate::session::Session::register`] stores.
    pub(crate) fn key_sorted(mut self, cx: &ExecContext) -> Self {
        if !is_key_sorted(&self.tuples) {
            let radix_bits = JoinConfig::with_threads(cx.threads()).radix_bits;
            sort_in_place(cx, &mut self.tuples, radix_bits);
        }
        self
    }

    /// The stored tuples: in key order once registered (registration
    /// sorts them and compaction keeps the order), as constructed
    /// otherwise.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
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
    fn unregistered_relations_have_no_identity() {
        let r = Relation::new("raw", vec![]);
        assert_eq!((r.id(), r.version()), (0, 0));
        let stamped = r.with_identity(3, 2);
        assert_eq!((stamped.id(), stamped.version()), (3, 2));
    }
}
