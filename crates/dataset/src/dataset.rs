//! The [`ExamLog`] container: an in-memory examination log with validated
//! referential integrity and the per-patient / per-exam views every
//! downstream component consumes.

use std::collections::BTreeMap;

use crate::date::Date;
use crate::error::DatasetError;
use crate::record::{ExamRecord, ExamType, ExamTypeId, Patient, PatientId};
use crate::taxonomy::Taxonomy;

/// An anonymized medical examination log.
///
/// Holds the patient registry, the examination-type catalog, and the
/// record list, with referential integrity enforced at insertion time:
/// every record must reference a registered patient and a cataloged exam
/// type. Ids are dense (patient `k` has id `k`), which lets downstream
/// code use plain arrays for per-patient and per-exam aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct ExamLog {
    patients: Vec<Patient>,
    catalog: Vec<ExamType>,
    records: Vec<ExamRecord>,
}

impl ExamLog {
    /// Creates an empty log over the given patient registry and exam
    /// catalog.
    ///
    /// # Errors
    /// Returns [`DatasetError::DuplicateId`] if patient or exam ids are
    /// not exactly the dense sequence `0..len`.
    pub fn new(patients: Vec<Patient>, catalog: Vec<ExamType>) -> Result<Self, DatasetError> {
        for (i, p) in patients.iter().enumerate() {
            if p.id.index() != i {
                return Err(DatasetError::DuplicateId(p.id.0));
            }
        }
        for (i, e) in catalog.iter().enumerate() {
            if e.id.index() != i {
                return Err(DatasetError::DuplicateId(e.id.0));
            }
        }
        Ok(Self {
            patients,
            catalog,
            records: Vec::new(),
        })
    }

    /// Appends a record after validating its references.
    ///
    /// # Errors
    /// Returns [`DatasetError::UnknownPatient`] or
    /// [`DatasetError::UnknownExamType`] on dangling references.
    pub fn push_record(&mut self, record: ExamRecord) -> Result<(), DatasetError> {
        if record.patient.index() >= self.patients.len() {
            return Err(DatasetError::UnknownPatient(record.patient.0));
        }
        if record.exam.index() >= self.catalog.len() {
            return Err(DatasetError::UnknownExamType(record.exam.0));
        }
        self.records.push(record);
        Ok(())
    }

    /// Appends many records, validating each.
    ///
    /// # Errors
    /// Fails on the first invalid record; earlier records remain appended.
    pub fn extend_records(
        &mut self,
        records: impl IntoIterator<Item = ExamRecord>,
    ) -> Result<(), DatasetError> {
        for r in records {
            self.push_record(r)?;
        }
        Ok(())
    }

    /// Number of patients in the registry.
    pub fn num_patients(&self) -> usize {
        self.patients.len()
    }

    /// Number of examination types in the catalog.
    pub fn num_exam_types(&self) -> usize {
        self.catalog.len()
    }

    /// Number of examination records.
    pub fn num_records(&self) -> usize {
        self.records.len()
    }

    /// The patient registry, indexed by [`PatientId`].
    pub fn patients(&self) -> &[Patient] {
        &self.patients
    }

    /// The exam-type catalog, indexed by [`ExamTypeId`].
    pub fn catalog(&self) -> &[ExamType] {
        &self.catalog
    }

    /// All records, in insertion order.
    pub fn records(&self) -> &[ExamRecord] {
        &self.records
    }

    /// The taxonomy induced by the catalog's condition-group annotations.
    pub fn taxonomy(&self) -> Taxonomy {
        Taxonomy::from_catalog(&self.catalog)
    }

    /// Per-exam-type record counts (the raw frequency each downstream
    /// "mine the most frequent exams first" strategy ranks by).
    pub fn exam_frequencies(&self) -> Vec<usize> {
        let mut freq = vec![0usize; self.catalog.len()];
        for r in &self.records {
            freq[r.exam.index()] += 1;
        }
        freq
    }

    /// Exam-type ids sorted by decreasing record frequency (ties broken by
    /// id for determinism). This is the ordering the paper's horizontal
    /// partial-mining strategy grows its feature subset along.
    pub fn exams_by_frequency(&self) -> Vec<ExamTypeId> {
        let freq = self.exam_frequencies();
        let mut ids: Vec<ExamTypeId> = (0..self.catalog.len() as u32).map(ExamTypeId).collect();
        ids.sort_by_key(|id| (std::cmp::Reverse(freq[id.index()]), id.0));
        ids
    }

    /// Per-patient exam-count rows: `counts[p][e]` is how many times
    /// patient `p` underwent exam type `e`. This is the raw material of
    /// the paper's Vector Space Model transformation.
    pub fn patient_exam_counts(&self) -> Vec<Vec<u32>> {
        let mut counts = vec![vec![0u32; self.catalog.len()]; self.patients.len()];
        for r in &self.records {
            counts[r.patient.index()][r.exam.index()] += 1;
        }
        counts
    }

    /// Per-patient *sets* of distinct exam types, as sorted id vectors.
    /// These are the transactions the pattern-mining component consumes
    /// ("medical examinations commonly prescribed to patients").
    pub fn patient_exam_sets(&self) -> Vec<Vec<ExamTypeId>> {
        let mut sets = vec![Vec::new(); self.patients.len()];
        for r in &self.records {
            sets[r.patient.index()].push(r.exam);
        }
        for s in &mut sets {
            s.sort_unstable();
            s.dedup();
        }
        sets
    }

    /// Groups records into *visits*: the set of distinct exams a patient
    /// underwent on one calendar day, sorted by (patient, date). Visits
    /// are the finer-grained transactions used for co-prescription
    /// pattern mining.
    pub fn visits(&self) -> Vec<Visit> {
        let mut by_key: BTreeMap<(PatientId, Date), Vec<ExamTypeId>> = BTreeMap::new();
        for r in &self.records {
            by_key.entry((r.patient, r.date)).or_default().push(r.exam);
        }
        by_key
            .into_iter()
            .map(|((patient, date), mut exams)| {
                exams.sort_unstable();
                exams.dedup();
                Visit {
                    patient,
                    date,
                    exams,
                }
            })
            .collect()
    }

    /// The (min, max) record dates, or `None` when the log is empty.
    pub fn date_range(&self) -> Option<(Date, Date)> {
        let first = self.records.first()?.date;
        let (mut lo, mut hi) = (first, first);
        for r in &self.records {
            if r.date < lo {
                lo = r.date;
            }
            if r.date > hi {
                hi = r.date;
            }
        }
        Some((lo, hi))
    }

    /// A new log containing only records within `[from, to]` (inclusive).
    /// The patient registry and catalog are preserved unchanged.
    pub fn filter_by_date(&self, from: Date, to: Date) -> ExamLog {
        ExamLog {
            patients: self.patients.clone(),
            catalog: self.catalog.clone(),
            records: self
                .records
                .iter()
                .copied()
                .filter(|r| r.date >= from && r.date <= to)
                .collect(),
        }
    }

    /// A new log restricted to the given exam types (a *horizontal*
    /// partial-mining view in the paper's terminology: fewer feature
    /// dimensions, fewer raw rows, all patients kept). The catalog keeps
    /// its full width so exam ids remain stable.
    pub fn filter_by_exams(&self, keep: &[ExamTypeId]) -> ExamLog {
        let mut mask = vec![false; self.catalog.len()];
        for id in keep {
            if id.index() < mask.len() {
                mask[id.index()] = true;
            }
        }
        ExamLog {
            patients: self.patients.clone(),
            catalog: self.catalog.clone(),
            records: self
                .records
                .iter()
                .copied()
                .filter(|r| mask[r.exam.index()])
                .collect(),
        }
    }

    /// A new log restricted to the given patients (a *vertical*
    /// partial-mining view: fewer input objects). The registry keeps its
    /// full width so patient ids remain stable.
    pub fn filter_by_patients(&self, keep: &[PatientId]) -> ExamLog {
        let mut mask = vec![false; self.patients.len()];
        for id in keep {
            if id.index() < mask.len() {
                mask[id.index()] = true;
            }
        }
        ExamLog {
            patients: self.patients.clone(),
            catalog: self.catalog.clone(),
            records: self
                .records
                .iter()
                .copied()
                .filter(|r| mask[r.patient.index()])
                .collect(),
        }
    }
}

/// All distinct exams one patient underwent on one calendar day.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Visit {
    /// The patient.
    pub patient: PatientId,
    /// The calendar day.
    pub date: Date,
    /// Distinct exam types performed that day, sorted by id.
    pub exams: Vec<ExamTypeId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taxonomy::ConditionGroup;

    fn tiny_log() -> ExamLog {
        let patients = (0..3)
            .map(|i| Patient::new(PatientId(i), 40 + i as u16).unwrap())
            .collect();
        let catalog = vec![
            ExamType::new(ExamTypeId(0), "HbA1c", ConditionGroup::GlycemicControl),
            ExamType::new(ExamTypeId(1), "ECG", ConditionGroup::Cardiovascular),
            ExamType::new(ExamTypeId(2), "Fundus", ConditionGroup::Ophthalmic),
        ];
        let mut log = ExamLog::new(patients, catalog).unwrap();
        let d = |m, day| Date::new(2015, m, day).unwrap();
        log.extend_records([
            ExamRecord::new(PatientId(0), ExamTypeId(0), d(1, 10)),
            ExamRecord::new(PatientId(0), ExamTypeId(1), d(1, 10)),
            ExamRecord::new(PatientId(0), ExamTypeId(0), d(6, 2)),
            ExamRecord::new(PatientId(1), ExamTypeId(0), d(3, 5)),
            ExamRecord::new(PatientId(2), ExamTypeId(2), d(12, 30)),
        ])
        .unwrap();
        log
    }

    #[test]
    fn rejects_non_dense_ids() {
        let patients = vec![Patient::new(PatientId(1), 30).unwrap()];
        assert!(ExamLog::new(patients, vec![]).is_err());
    }

    #[test]
    fn rejects_dangling_references() {
        let mut log = tiny_log();
        let d = Date::new(2015, 1, 1).unwrap();
        assert_eq!(
            log.push_record(ExamRecord::new(PatientId(9), ExamTypeId(0), d)),
            Err(DatasetError::UnknownPatient(9))
        );
        assert_eq!(
            log.push_record(ExamRecord::new(PatientId(0), ExamTypeId(9), d)),
            Err(DatasetError::UnknownExamType(9))
        );
    }

    #[test]
    fn frequency_views() {
        let log = tiny_log();
        assert_eq!(log.exam_frequencies(), vec![3, 1, 1]);
        let order = log.exams_by_frequency();
        assert_eq!(order[0], ExamTypeId(0));
        // Tie between exams 1 and 2 broken by id.
        assert_eq!(order[1], ExamTypeId(1));
        assert_eq!(order[2], ExamTypeId(2));
    }

    #[test]
    fn count_matrix() {
        let log = tiny_log();
        let counts = log.patient_exam_counts();
        assert_eq!(counts[0], vec![2, 1, 0]);
        assert_eq!(counts[1], vec![1, 0, 0]);
        assert_eq!(counts[2], vec![0, 0, 1]);
    }

    #[test]
    fn exam_sets_dedupe() {
        let log = tiny_log();
        let sets = log.patient_exam_sets();
        assert_eq!(sets[0], vec![ExamTypeId(0), ExamTypeId(1)]);
        assert_eq!(sets[1], vec![ExamTypeId(0)]);
    }

    #[test]
    fn visits_group_by_patient_day() {
        let log = tiny_log();
        let visits = log.visits();
        assert_eq!(visits.len(), 4);
        assert_eq!(visits[0].exams, vec![ExamTypeId(0), ExamTypeId(1)]);
    }

    #[test]
    fn date_range_and_filter() {
        let log = tiny_log();
        let (lo, hi) = log.date_range().unwrap();
        assert_eq!(lo, Date::new(2015, 1, 10).unwrap());
        assert_eq!(hi, Date::new(2015, 12, 30).unwrap());
        let h1 = log.filter_by_date(
            Date::new(2015, 1, 1).unwrap(),
            Date::new(2015, 6, 30).unwrap(),
        );
        assert_eq!(h1.num_records(), 4);
        assert_eq!(h1.num_patients(), 3); // registry preserved
    }

    #[test]
    fn horizontal_filter_keeps_patients_drops_rows() {
        let log = tiny_log();
        let sub = log.filter_by_exams(&[ExamTypeId(0)]);
        assert_eq!(sub.num_records(), 3);
        assert_eq!(sub.num_patients(), 3);
        assert_eq!(sub.num_exam_types(), 3); // catalog width stable
    }

    #[test]
    fn vertical_filter_drops_patient_rows() {
        let log = tiny_log();
        let sub = log.filter_by_patients(&[PatientId(0)]);
        assert_eq!(sub.num_records(), 3);
    }

    #[test]
    fn empty_log_has_no_date_range() {
        let log = ExamLog::new(vec![], vec![]).unwrap();
        assert!(log.date_range().is_none());
    }
}
