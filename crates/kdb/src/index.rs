//! Secondary ordered indexes.
//!
//! An index maps the value at one dotted path to the set of document ids
//! holding it, inside a `BTreeMap` keyed by a *total-ordered* encoding of
//! values ([`IndexKey`]), so both equality and range filters can be
//! answered with a tree lookup / range scan instead of a full collection
//! scan. Numeric keys unify `I64` and `F64` (matching the query layer's
//! coercion semantics).

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

use crate::collection::DocId;
use crate::document::{Document, Value};

/// An `f64` with the IEEE total order, usable as a BTreeMap key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrderedF64(pub f64);

impl Eq for OrderedF64 {}
impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Total-ordered key form of a [`Value`].
///
/// The variant order (null < bool < number < string < other) is the
/// cross-type ordering; within `Other`, composite values order by their
/// canonical encoding (total, if arbitrary — only equality matters
/// there).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum IndexKey {
    /// Null values.
    Null,
    /// Booleans.
    Bool(bool),
    /// Unified numeric key (`I64` coerces to `f64`; exact for |v| < 2⁵³,
    /// which covers every id and count this system stores).
    Num(OrderedF64),
    /// Strings.
    Str(String),
    /// Arrays/documents, keyed by canonical encoding.
    Other(String),
}

impl IndexKey {
    /// Converts a value into its key form.
    pub fn from_value(value: &Value) -> Self {
        match value {
            Value::Null => IndexKey::Null,
            Value::Bool(b) => IndexKey::Bool(*b),
            Value::I64(v) => IndexKey::Num(OrderedF64(*v as f64)),
            Value::F64(v) => IndexKey::Num(OrderedF64(*v)),
            Value::Str(s) => IndexKey::Str(s.clone()),
            composite => IndexKey::Other(composite.encode()),
        }
    }
}

/// A secondary index over one dotted path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Index {
    path: String,
    entries: BTreeMap<IndexKey, BTreeSet<DocId>>,
}

impl Index {
    /// An empty index on `path`.
    pub fn new(path: impl Into<String>) -> Self {
        Self {
            path: path.into(),
            entries: BTreeMap::new(),
        }
    }

    /// The indexed path.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Indexes a document (no-op when the path is absent).
    pub fn add(&mut self, id: DocId, doc: &Document) {
        if let Some(v) = doc.get_path(&self.path) {
            self.entries
                .entry(IndexKey::from_value(v))
                .or_default()
                .insert(id);
        }
    }

    /// Removes a document from the index (no-op when absent).
    pub fn remove(&mut self, id: DocId, doc: &Document) {
        if let Some(v) = doc.get_path(&self.path) {
            let key = IndexKey::from_value(v);
            if let Some(set) = self.entries.get_mut(&key) {
                set.remove(&id);
                if set.is_empty() {
                    self.entries.remove(&key);
                }
            }
        }
    }

    /// Ids of documents whose indexed value equals `value`.
    pub fn lookup_eq(&self, value: &Value) -> Vec<DocId> {
        self.entries
            .get(&IndexKey::from_value(value))
            .map(|set| set.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Ids of documents whose indexed value lies in the given half-open
    /// range relative to `value` — candidates for `Gt`/`Gte`/`Lt`/`Lte`
    /// filters. Only same-kind keys (numeric vs. string) are scanned, so
    /// the result honours the query layer's "type mismatch is false"
    /// rule.
    pub fn lookup_range(&self, value: &Value, lower: Bound<()>, upper: Bound<()>) -> Vec<DocId> {
        let key = IndexKey::from_value(value);
        let (lo, hi): (Bound<&IndexKey>, Bound<&IndexKey>) = match (lower, upper) {
            (Bound::Excluded(()), Bound::Unbounded) => (Bound::Excluded(&key), Bound::Unbounded),
            (Bound::Included(()), Bound::Unbounded) => (Bound::Included(&key), Bound::Unbounded),
            (Bound::Unbounded, Bound::Excluded(())) => (Bound::Unbounded, Bound::Excluded(&key)),
            (Bound::Unbounded, Bound::Included(())) => (Bound::Unbounded, Bound::Included(&key)),
            _ => (Bound::Unbounded, Bound::Unbounded),
        };
        let same_kind = |k: &IndexKey| {
            matches!(
                (k, &key),
                (IndexKey::Num(_), IndexKey::Num(_)) | (IndexKey::Str(_), IndexKey::Str(_))
            )
        };
        self.entries
            .range((lo, hi))
            .filter(|(k, _)| same_kind(k))
            .flat_map(|(_, set)| set.iter().copied())
            .collect()
    }

    /// Number of distinct indexed keys.
    pub fn num_keys(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(v: impl Into<Value>) -> Document {
        Document::new().with("score", v)
    }

    #[test]
    fn add_lookup_remove() {
        let mut idx = Index::new("score");
        idx.add(1, &doc(5i64));
        idx.add(2, &doc(5i64));
        idx.add(3, &doc(7i64));
        assert_eq!(idx.lookup_eq(&Value::I64(5)), vec![1, 2]);
        assert_eq!(idx.lookup_eq(&Value::I64(7)), vec![3]);
        assert!(idx.lookup_eq(&Value::I64(9)).is_empty());
        idx.remove(1, &doc(5i64));
        assert_eq!(idx.lookup_eq(&Value::I64(5)), vec![2]);
        idx.remove(2, &doc(5i64));
        assert_eq!(idx.num_keys(), 1);
    }

    #[test]
    fn i64_and_f64_unify() {
        let mut idx = Index::new("score");
        idx.add(1, &doc(5i64));
        idx.add(2, &doc(5.0f64));
        assert_eq!(idx.lookup_eq(&Value::F64(5.0)), vec![1, 2]);
        assert_eq!(idx.lookup_eq(&Value::I64(5)), vec![1, 2]);
    }

    #[test]
    fn missing_path_not_indexed() {
        let mut idx = Index::new("score");
        idx.add(1, &Document::new().with("other", 1i64));
        assert_eq!(idx.num_keys(), 0);
    }

    #[test]
    fn range_scans_numeric() {
        let mut idx = Index::new("score");
        for (id, v) in [(1, 1.0), (2, 2.0), (3, 3.0), (4, 4.0)] {
            idx.add(id, &doc(v));
        }
        idx.add(9, &doc("banana")); // different kind, must not appear
        let gt2: Vec<DocId> =
            idx.lookup_range(&Value::F64(2.0), Bound::Excluded(()), Bound::Unbounded);
        assert_eq!(gt2, vec![3, 4]);
        let lte3 = idx.lookup_range(&Value::I64(3), Bound::Unbounded, Bound::Included(()));
        assert_eq!(lte3, vec![1, 2, 3]);
    }

    #[test]
    fn range_scans_strings() {
        let mut idx = Index::new("score");
        idx.add(1, &doc("apple"));
        idx.add(2, &doc("banana"));
        idx.add(3, &doc("cherry"));
        idx.add(9, &doc(1i64));
        let gte_b = idx.lookup_range(
            &Value::Str("banana".into()),
            Bound::Included(()),
            Bound::Unbounded,
        );
        assert_eq!(gte_b, vec![2, 3]);
    }

    #[test]
    fn nested_path_index() {
        let mut idx = Index::new("meta.k");
        let d = Document::new().with("meta", Document::new().with("k", 8i64));
        idx.add(1, &d);
        assert_eq!(idx.lookup_eq(&Value::I64(8)), vec![1]);
    }

    #[test]
    fn key_total_order_across_types() {
        let keys = [
            IndexKey::Null,
            IndexKey::Bool(false),
            IndexKey::Bool(true),
            IndexKey::Num(OrderedF64(-1.0)),
            IndexKey::Num(OrderedF64(2.0)),
            IndexKey::Str("a".into()),
        ];
        for w in keys.windows(2) {
            assert!(w[0] < w[1], "{:?} < {:?}", w[0], w[1]);
        }
    }
}
