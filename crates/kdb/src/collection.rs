//! A collection: documents with ids, filtered scans, and indexes.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::document::Document;
use crate::error::KdbError;
use crate::index::Index;
use crate::query::Filter;

/// Document identifier within a collection.
pub type DocId = u64;

/// A named set of documents with optional secondary indexes.
///
/// Documents are stored behind `Arc` and never mutated in place
/// (`update` swaps the `Arc`), so a clone of the collection — a snapshot
/// image — shares every document with the original.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Collection {
    name: String,
    docs: BTreeMap<DocId, Arc<Document>>,
    next_id: DocId,
    indexes: BTreeMap<String, Index>,
}

impl Collection {
    /// An empty collection.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            docs: BTreeMap::new(),
            next_id: 1,
            indexes: BTreeMap::new(),
        }
    }

    /// The collection name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True when the collection holds no documents.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Inserts a document, assigning the next id and materializing it
    /// into the document's `_id` field. Returns the id.
    pub fn insert(&mut self, mut doc: Document) -> DocId {
        let id = self.next_id;
        self.next_id += 1;
        doc.set("_id", id as i64);
        for index in self.indexes.values_mut() {
            index.add(id, &doc);
        }
        self.docs.insert(id, Arc::new(doc));
        id
    }

    /// Inserts a document under an explicit id (journal replay).
    ///
    /// # Errors
    /// Returns [`KdbError::UnknownDocument`] when the id is already
    /// taken (re-used ids would corrupt the journal semantics).
    pub fn insert_with_id(&mut self, id: DocId, mut doc: Document) -> Result<(), KdbError> {
        if self.docs.contains_key(&id) {
            return Err(KdbError::UnknownDocument(id));
        }
        doc.set("_id", id as i64);
        self.next_id = self.next_id.max(id + 1);
        for index in self.indexes.values_mut() {
            index.add(id, &doc);
        }
        self.docs.insert(id, Arc::new(doc));
        Ok(())
    }

    /// The document with the given id.
    pub fn get(&self, id: DocId) -> Option<&Document> {
        self.docs.get(&id).map(Arc::as_ref)
    }

    /// The shared allocation of the document with the given id: equal
    /// pointers across two images mean the document was not rewritten
    /// between them.
    pub fn get_shared(&self, id: DocId) -> Option<&Arc<Document>> {
        self.docs.get(&id)
    }

    /// Replaces the document with the given id (its `_id` field is
    /// restored), updating indexes.
    ///
    /// # Errors
    /// Returns [`KdbError::UnknownDocument`] when the id is absent.
    pub fn update(&mut self, id: DocId, mut doc: Document) -> Result<(), KdbError> {
        let old = Arc::clone(self.docs.get(&id).ok_or(KdbError::UnknownDocument(id))?);
        doc.set("_id", id as i64);
        for index in self.indexes.values_mut() {
            index.remove(id, &old);
            index.add(id, &doc);
        }
        self.docs.insert(id, Arc::new(doc));
        Ok(())
    }

    /// Deletes the document with the given id, updating indexes.
    ///
    /// # Errors
    /// Returns [`KdbError::UnknownDocument`] when the id is absent.
    pub fn delete(&mut self, id: DocId) -> Result<(), KdbError> {
        let old = self.docs.remove(&id).ok_or(KdbError::UnknownDocument(id))?;
        for index in self.indexes.values_mut() {
            index.remove(id, &old);
        }
        Ok(())
    }

    /// Creates a secondary index on a dotted path, indexing existing
    /// documents.
    ///
    /// # Errors
    /// Returns [`KdbError::IndexExists`] when the path is already
    /// indexed.
    pub fn create_index(&mut self, path: impl Into<String>) -> Result<(), KdbError> {
        let path = path.into();
        if self.indexes.contains_key(&path) {
            return Err(KdbError::IndexExists(path));
        }
        let mut index = Index::new(path.clone());
        for (&id, doc) in &self.docs {
            index.add(id, doc);
        }
        self.indexes.insert(path, index);
        Ok(())
    }

    /// Removes a secondary index (used to roll back a `CreateIndex`
    /// whose journal append failed). Returns whether it existed.
    pub fn drop_index(&mut self, path: &str) -> bool {
        self.indexes.remove(path).is_some()
    }

    /// Undoes the most recent [`Collection::insert`]: removes the
    /// document and returns the id counter so the next insert re-uses
    /// the same id. Only valid for the id just handed out.
    pub(crate) fn uninsert(&mut self, id: DocId) {
        debug_assert_eq!(id + 1, self.next_id, "uninsert must undo the last insert");
        if let Some(old) = self.docs.remove(&id) {
            for index in self.indexes.values_mut() {
                index.remove(id, &old);
            }
        }
        self.next_id = id;
    }

    /// True when a dotted path is indexed.
    pub fn has_index(&self, path: &str) -> bool {
        self.indexes.contains_key(path)
    }

    /// Indexed paths.
    pub fn index_paths(&self) -> Vec<&str> {
        self.indexes.keys().map(String::as_str).collect()
    }

    /// All documents matching the filter, in id order. Uses an index to
    /// pre-select candidates when the filter (or one leg of a top-level
    /// `And`) is an `Eq`/range test on an indexed path; every candidate
    /// is still verified against the full filter.
    pub fn find(&self, filter: &Filter) -> Vec<(DocId, &Document)> {
        match self.index_candidates(filter) {
            Some(mut ids) => {
                ids.sort_unstable();
                ids.dedup();
                ids.into_iter()
                    .filter_map(|id| self.get(id).map(|d| (id, d)))
                    .filter(|(_, d)| filter.matches(d))
                    .collect()
            }
            None => self.iter().filter(|(_, d)| filter.matches(d)).collect(),
        }
    }

    /// Number of documents matching the filter.
    pub fn count(&self, filter: &Filter) -> usize {
        self.find(filter).len()
    }

    /// First document matching the filter (lowest id).
    pub fn find_one(&self, filter: &Filter) -> Option<(DocId, &Document)> {
        self.find(filter).into_iter().next()
    }

    /// Iterates over all (id, document) pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (DocId, &Document)> {
        self.docs.iter().map(|(&id, d)| (id, d.as_ref()))
    }

    /// Iterates over the (id, document) pairs with id greater than
    /// `after`, in ascending id order — a range scan, so a paged listing
    /// pays for the page and not for the records before it.
    pub fn iter_after(&self, after: DocId) -> impl Iterator<Item = (DocId, &Document)> {
        self.docs
            .range((Bound::Excluded(after), Bound::Unbounded))
            .map(|(&id, d)| (id, d.as_ref()))
    }

    /// Candidate ids from an index, or `None` when no index applies.
    fn index_candidates(&self, filter: &Filter) -> Option<Vec<DocId>> {
        match filter {
            Filter::Eq(path, v) => self.indexes.get(path).map(|i| i.lookup_eq(v)),
            Filter::Gt(path, v) => self
                .indexes
                .get(path)
                .map(|i| i.lookup_range(v, Bound::Excluded(()), Bound::Unbounded)),
            Filter::Gte(path, v) => self
                .indexes
                .get(path)
                .map(|i| i.lookup_range(v, Bound::Included(()), Bound::Unbounded)),
            Filter::Lt(path, v) => self
                .indexes
                .get(path)
                .map(|i| i.lookup_range(v, Bound::Unbounded, Bound::Excluded(()))),
            Filter::Lte(path, v) => self
                .indexes
                .get(path)
                .map(|i| i.lookup_range(v, Bound::Unbounded, Bound::Included(()))),
            Filter::In(path, values) => self.indexes.get(path).map(|i| {
                values
                    .iter()
                    .flat_map(|v| i.lookup_eq(v))
                    .collect::<Vec<_>>()
            }),
            Filter::And(filters) => filters.iter().find_map(|f| self.index_candidates(f)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::Value;

    fn item(kind: &str, score: f64) -> Document {
        Document::new().with("kind", kind).with("score", score)
    }

    #[test]
    fn insert_assigns_sequential_ids_and_sets_id_field() {
        let mut c = Collection::new("items");
        let a = c.insert(item("cluster", 0.9));
        let b = c.insert(item("pattern", 0.5));
        assert_eq!((a, b), (1, 2));
        assert_eq!(c.get(1).unwrap().get("_id").unwrap().as_i64(), Some(1));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn update_and_delete() {
        let mut c = Collection::new("items");
        let id = c.insert(item("cluster", 0.9));
        c.update(id, item("cluster", 0.1)).unwrap();
        assert_eq!(c.get(id).unwrap().get("score").unwrap().as_f64(), Some(0.1));
        assert_eq!(
            c.get(id).unwrap().get("_id").unwrap().as_i64(),
            Some(id as i64)
        );
        c.delete(id).unwrap();
        assert!(c.get(id).is_none());
        assert_eq!(
            c.update(id, item("x", 0.0)),
            Err(KdbError::UnknownDocument(id))
        );
        assert_eq!(c.delete(id), Err(KdbError::UnknownDocument(id)));
    }

    #[test]
    fn unindexed_find_scans() {
        let mut c = Collection::new("items");
        c.insert(item("cluster", 0.9));
        c.insert(item("pattern", 0.5));
        c.insert(item("cluster", 0.2));
        let found = c.find(&Filter::eq("kind", "cluster"));
        assert_eq!(found.len(), 2);
        assert_eq!(found[0].0, 1);
        assert_eq!(found[1].0, 3);
        assert_eq!(c.count(&Filter::True), 3);
    }

    #[test]
    fn indexed_find_matches_scan() {
        let mut c = Collection::new("items");
        for i in 0..50 {
            c.insert(item(
                if i % 3 == 0 { "cluster" } else { "pattern" },
                i as f64 / 50.0,
            ));
        }
        let scan: Vec<DocId> = c
            .find(&Filter::eq("kind", "cluster"))
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        c.create_index("kind").unwrap();
        let indexed: Vec<DocId> = c
            .find(&Filter::eq("kind", "cluster"))
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        assert_eq!(scan, indexed);
        assert!(c.has_index("kind"));
        assert_eq!(
            c.create_index("kind"),
            Err(KdbError::IndexExists("kind".into()))
        );
    }

    #[test]
    fn indexed_range_queries() {
        let mut c = Collection::new("items");
        for i in 0..20 {
            c.insert(item("x", i as f64));
        }
        c.create_index("score").unwrap();
        let gt = c.find(&Filter::Gt("score".into(), Value::F64(16.5)));
        assert_eq!(gt.len(), 3);
        let lte = c.find(&Filter::Lte("score".into(), Value::I64(2)));
        assert_eq!(lte.len(), 3);
    }

    #[test]
    fn index_survives_updates_and_deletes() {
        let mut c = Collection::new("items");
        let id = c.insert(item("cluster", 1.0));
        c.create_index("kind").unwrap();
        c.update(id, item("pattern", 1.0)).unwrap();
        assert!(c.find(&Filter::eq("kind", "cluster")).is_empty());
        assert_eq!(c.find(&Filter::eq("kind", "pattern")).len(), 1);
        c.delete(id).unwrap();
        assert!(c.find(&Filter::eq("kind", "pattern")).is_empty());
    }

    #[test]
    fn and_filter_uses_index_leg() {
        let mut c = Collection::new("items");
        for i in 0..30 {
            c.insert(item(if i < 10 { "a" } else { "b" }, i as f64));
        }
        c.create_index("kind").unwrap();
        let f = Filter::and([
            Filter::eq("kind", "a"),
            Filter::Gt("score".into(), Value::F64(5.0)),
        ]);
        let found = c.find(&f);
        assert_eq!(found.len(), 4); // scores 6..=9
    }

    #[test]
    fn insert_with_id_respects_sequence() {
        let mut c = Collection::new("items");
        c.insert_with_id(10, item("a", 1.0)).unwrap();
        assert!(c.insert_with_id(10, item("b", 1.0)).is_err());
        let next = c.insert(item("c", 1.0));
        assert_eq!(next, 11);
    }

    #[test]
    fn find_one_returns_lowest_id() {
        let mut c = Collection::new("items");
        c.insert(item("a", 1.0));
        c.insert(item("a", 2.0));
        let (id, _) = c.find_one(&Filter::eq("kind", "a")).unwrap();
        assert_eq!(id, 1);
        assert!(c.find_one(&Filter::eq("kind", "zzz")).is_none());
    }

    #[test]
    fn iter_is_id_ordered_whatever_the_insertion_order() {
        // Listings (`past_sessions`, `past_traces`) rely on this instead
        // of sorting what they collect.
        let mut c = Collection::new("items");
        for id in [9, 2, 40, 7] {
            c.insert_with_id(id, item("a", id as f64)).unwrap();
        }
        c.insert(item("a", 41.0));
        c.delete(7).unwrap();
        c.update(2, item("b", 0.0)).unwrap();
        let ids: Vec<DocId> = c.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![2, 9, 40, 41]);
        let tail: Vec<DocId> = c.iter_after(9).map(|(id, _)| id).collect();
        assert_eq!(tail, vec![40, 41]);
        assert_eq!(c.iter_after(0).count(), 4);
        assert_eq!(c.iter_after(41).count(), 0);
    }

    #[test]
    fn a_clone_shares_documents_and_update_swaps_the_allocation() {
        let mut c = Collection::new("items");
        let kept = c.insert(item("a", 1.0));
        let rewritten = c.insert(item("a", 2.0));
        let image = c.clone();
        c.update(rewritten, item("a", 3.0)).unwrap();
        assert!(Arc::ptr_eq(
            image.get_shared(kept).unwrap(),
            c.get_shared(kept).unwrap()
        ));
        assert!(!Arc::ptr_eq(
            image.get_shared(rewritten).unwrap(),
            c.get_shared(rewritten).unwrap()
        ));
        let score = |coll: &Collection| coll.get(rewritten).unwrap().get("score").unwrap().as_f64();
        assert_eq!(score(&image), Some(2.0), "the image kept the old document");
        assert_eq!(score(&c), Some(3.0));
    }
}
