//! The incremental vector-space model.
//!
//! `ada_vsm::VsmBuilder` builds a whole-cohort matrix in one pass; the
//! streaming layer cannot afford that — it updates per-patient count
//! vectors *in place* as windows close. Rows (patients) and columns
//! (exam types) are appended in order of first appearance in the
//! canonical fold sequence, which makes the layout a pure function of
//! the folded record multiset: any delivery order that folds the same
//! windows produces a byte-identical matrix.
//!
//! The state fingerprint covers every cell, but the matrix is ≈ 93 %
//! zeros, so each run of zero cells is hashed in one step
//! ([`Fnv64::write_f64s`], same digest as byte-serial FNV-1a). It is
//! memoised the way `DenseMatrix` memoises its row norms: computed on
//! first request, reset by the one private `invalidate()` every mutator
//! calls. A sealed or idle stream answers status queries without
//! re-hashing the matrix; a stream under feed recomputes once per closed
//! window, which its checkpoint needs anyway.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::OnceLock;

use ada_dataset::{ExamTypeId, PatientId};
use ada_vsm::DenseMatrix;

use crate::fingerprint::Fnv64;

/// One folded record group: `(day, patient, exam, count)` in canonical
/// `(day, patient, exam)` order.
pub type FoldEntry = (i64, u32, u32, i64);

/// A multiplicative hasher for the dense `u32` id keys of the row and
/// column maps: the fold path does two lookups per record, and SipHash
/// is measurable overhead there. Fibonacci hashing mixes the id into
/// the high bits; the final xor-shift folds them back down for the
/// table's low-bit bucket index.
#[derive(Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.0 = (self.0 ^ u64::from(i)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

type IdMap = HashMap<u32, usize, BuildHasherDefault<IdHasher>>;

/// Per-patient exam-count vectors, grown in place.
#[derive(Debug, Clone)]
pub struct IncrementalVsm {
    matrix: DenseMatrix,
    row_of: IdMap,
    patients: Vec<PatientId>,
    col_of: IdMap,
    features: Vec<ExamTypeId>,
    version: u64,
    /// Memoised [`IncrementalVsm::fingerprint`].
    fingerprint: OnceLock<u64>,
}

impl Default for IncrementalVsm {
    fn default() -> Self {
        Self::new()
    }
}

impl IncrementalVsm {
    /// An empty model: no patients, no vocabulary.
    pub fn new() -> Self {
        Self {
            matrix: DenseMatrix::zeros(0, 0),
            row_of: IdMap::default(),
            patients: Vec::new(),
            col_of: IdMap::default(),
            features: Vec::new(),
            version: 0,
            fingerprint: OnceLock::new(),
        }
    }

    /// Drops the memoised fingerprint; every mutator calls this first.
    fn invalidate(&mut self) {
        self.fingerprint = OnceLock::new();
    }

    /// Folds one closed window's entries (canonical order) into the
    /// matrix. New exam types grow the vocabulary — the column map's
    /// version bumps once per growth event — and new patients append
    /// zero rows before their counts land.
    pub fn fold(&mut self, entries: &[FoldEntry]) {
        self.invalidate();
        // Vocabulary growth first, one restride for the whole window.
        let mut grew = false;
        for &(_, _, exam, _) in entries {
            if !self.col_of.contains_key(&exam) {
                self.col_of.insert(exam, self.features.len());
                self.features.push(ExamTypeId(exam));
                grew = true;
            }
        }
        if grew {
            self.version += 1;
            self.matrix.grow_cols(self.features.len());
        }
        for &(_, patient, exam, count) in entries {
            let row = *self.row_of.entry(patient).or_insert_with(|| {
                self.patients.push(PatientId(patient));
                self.matrix.push_zero_row()
            });
            let col = self.col_of[&exam];
            let cell = self.matrix.get(row, col);
            self.matrix.set(row, col, cell + count as f64);
        }
    }

    /// The count matrix (active patients × seen exam types).
    pub fn matrix(&self) -> &DenseMatrix {
        &self.matrix
    }

    /// Active patients in row order.
    pub fn patients(&self) -> &[PatientId] {
        &self.patients
    }

    /// Seen exam types in column order.
    pub fn features(&self) -> &[ExamTypeId] {
        &self.features
    }

    /// Number of active patients (rows).
    pub fn rows(&self) -> usize {
        self.patients.len()
    }

    /// Vocabulary size (columns).
    pub fn vocab(&self) -> usize {
        self.features.len()
    }

    /// Column-map version: bumps once per window that grew the
    /// vocabulary. A model fitted at version `v` must be zero-padded
    /// before warm-starting at a later version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// FNV-1a over the whole state: shape, version, row/column orders,
    /// and every cell's exact bit pattern. Memoised until the next fold.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| self.compute_fingerprint())
    }

    /// The fingerprint hashed from scratch.
    pub(crate) fn compute_fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.patients.len() as u64);
        h.write_u64(self.features.len() as u64);
        h.write_u64(self.version);
        for p in &self.patients {
            h.write_u64(u64::from(p.0));
        }
        for e in &self.features {
            h.write_u64(u64::from(e.0));
        }
        h.write_f64s(self.matrix.as_flat());
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_grows_rows_and_columns_in_first_appearance_order() {
        let mut vsm = IncrementalVsm::new();
        vsm.fold(&[(10, 7, 3, 2), (10, 9, 1, 1)]);
        assert_eq!(vsm.rows(), 2);
        assert_eq!(vsm.vocab(), 2);
        assert_eq!(vsm.version(), 1);
        assert_eq!(vsm.patients(), &[PatientId(7), PatientId(9)]);
        assert_eq!(vsm.features(), &[ExamTypeId(3), ExamTypeId(1)]);
        assert_eq!(vsm.matrix().row(0), &[2.0, 0.0]);
        assert_eq!(vsm.matrix().row(1), &[0.0, 1.0]);
        // Second window: existing patient gains counts, new exam grows
        // the vocabulary (version bump), new patient appends a row.
        vsm.fold(&[(20, 7, 5, 1), (20, 2, 3, 4)]);
        assert_eq!(vsm.rows(), 3);
        assert_eq!(vsm.vocab(), 3);
        assert_eq!(vsm.version(), 2);
        assert_eq!(vsm.matrix().row(0), &[2.0, 0.0, 1.0]);
        assert_eq!(vsm.matrix().row(2), &[4.0, 0.0, 0.0]);
        // A window with no new vocabulary does not bump the version.
        vsm.fold(&[(30, 7, 1, 1)]);
        assert_eq!(vsm.version(), 2);
    }

    #[test]
    fn fingerprint_tracks_state_exactly() {
        let mut a = IncrementalVsm::new();
        let mut b = IncrementalVsm::new();
        a.fold(&[(1, 0, 0, 1), (1, 1, 1, 1)]);
        b.fold(&[(1, 0, 0, 1), (1, 1, 1, 1)]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.fold(&[(2, 0, 0, 1)]);
        assert_ne!(a.fingerprint(), b.fingerprint());
        // Same multiset, different fold grouping, same windows → equal:
        let mut c = IncrementalVsm::new();
        c.fold(&[(1, 0, 0, 1)]);
        c.fold(&[(1, 1, 1, 1)]);
        // Row/column order differs only if first-appearance order
        // differs; here it does not.
        a.fold(&[]);
        assert_eq!(c.rows(), a.rows());
    }

    #[test]
    fn every_mutator_invalidates_the_fingerprint() {
        // `fold` is the only `&mut self` method; a fold that grows rows,
        // grows columns, or only bumps a cell must each drop the memo.
        let mut vsm = IncrementalVsm::new();
        for entries in [
            &[(1, 0, 0, 1)][..],
            &[(2, 1, 0, 1)],
            &[(3, 0, 1, 1)],
            &[(4, 0, 0, 5)],
        ] {
            let before = vsm.fingerprint();
            assert_eq!(vsm.fingerprint.get(), Some(&before), "memoised");
            vsm.fold(entries);
            assert_eq!(vsm.fingerprint.get(), None, "fold dropped the memo");
            assert_ne!(vsm.fingerprint(), before);
            assert_eq!(vsm.fingerprint(), vsm.compute_fingerprint());
        }
        // A clone carries the memo of the state it copied.
        let copy = vsm.clone();
        assert_eq!(copy.fingerprint(), vsm.compute_fingerprint());
    }
}
