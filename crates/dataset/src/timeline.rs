//! Per-patient timelines and temporal statistics.
//!
//! The examination log is longitudinal ("covering the time period of
//! one year"); compliance assessment and sequential-pattern mining both
//! consume the per-patient visit order, and resource planning consumes
//! the volume-over-time profile.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::dataset::{ExamLog, Visit};
use crate::date::Date;
use crate::record::{ExamRecord, PatientId};

/// One patient's visits in chronological order.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// The patient.
    pub patient: PatientId,
    /// Visits, sorted by date.
    pub visits: Vec<Visit>,
}

impl Timeline {
    /// Number of visits.
    pub fn num_visits(&self) -> usize {
        self.visits.len()
    }

    /// Day gaps between consecutive visits (empty for < 2 visits).
    pub fn gaps_days(&self) -> Vec<i64> {
        self.visits
            .windows(2)
            .map(|w| w[1].date.days_between(w[0].date))
            .collect()
    }

    /// The dates the given exam type was performed, in order.
    pub fn dates_of(&self, exam: crate::record::ExamTypeId) -> Vec<Date> {
        self.visits
            .iter()
            .filter(|v| v.exams.binary_search(&exam).is_ok())
            .map(|v| v.date)
            .collect()
    }
}

/// Builds every patient's timeline (index = patient id). Patients with
/// no records get an empty timeline.
pub fn timelines(log: &ExamLog) -> Vec<Timeline> {
    let mut out: Vec<Timeline> = (0..log.num_patients())
        .map(|i| Timeline {
            patient: PatientId(i as u32),
            visits: Vec::new(),
        })
        .collect();
    for visit in log.visits() {
        out[visit.patient.index()].visits.push(visit);
    }
    // `ExamLog::visits` is sorted by (patient, date), so each patient's
    // slice is already chronological; assert in debug builds.
    debug_assert!(out
        .iter()
        .all(|t| t.visits.windows(2).all(|w| w[0].date <= w[1].date)));
    out
}

/// Record volume per calendar month of a given year: `counts[m - 1]` is
/// the number of records in month `m`. Records outside `year` are
/// ignored.
pub fn monthly_volume(log: &ExamLog, year: u16) -> [usize; 12] {
    let mut counts = [0usize; 12];
    for r in log.records() {
        if r.date.year() == year {
            counts[(r.date.month() - 1) as usize] += 1;
        }
    }
    counts
}

/// Summary of inter-visit gaps across the whole cohort.
#[derive(Debug, Clone, PartialEq)]
pub struct GapSummary {
    /// Number of gaps measured.
    pub count: usize,
    /// Mean gap in days.
    pub mean_days: f64,
    /// Median gap in days.
    pub median_days: f64,
    /// Maximum gap in days.
    pub max_days: i64,
}

/// Computes the cohort-wide inter-visit gap summary; `None` when no
/// patient has two visits.
pub fn gap_summary(log: &ExamLog) -> Option<GapSummary> {
    let mut gaps: Vec<i64> = timelines(log)
        .iter()
        .flat_map(Timeline::gaps_days)
        .collect();
    if gaps.is_empty() {
        return None;
    }
    gaps.sort_unstable();
    let count = gaps.len();
    Some(GapSummary {
        count,
        mean_days: gaps.iter().sum::<i64>() as f64 / count as f64,
        median_days: if count % 2 == 1 {
            gaps[count / 2] as f64
        } else {
            (gaps[count / 2 - 1] + gaps[count / 2]) as f64 / 2.0
        },
        max_days: *gaps.last().expect("non-empty"),
    })
}

/// Replays a log's records the way a hospital feed would deliver them:
/// globally in timestamp order, but locally jumbled.
///
/// The records are first put into *canonical stream order* — sorted by
/// `(date, patient, exam)`, the order every streaming consumer treats
/// as the reference sequence — and then perturbed by a seeded bounded
/// shuffle: consecutive blocks of `disorder` records are each
/// Fisher–Yates-shuffled, so no record moves more than `disorder - 1`
/// positions from its canonical slot. `disorder <= 1` yields the
/// canonical order unchanged; larger values simulate out-of-order
/// arrival within a bounded horizon, which is exactly what a
/// watermarking ingester (`ada-stream`) must tolerate. Ingestion tests
/// and the `stream_smoke` bench share this one source so they exercise
/// the same delivery model.
#[derive(Debug, Clone)]
pub struct StreamOrder {
    records: Vec<ExamRecord>,
    pos: usize,
}

impl StreamOrder {
    /// Builds the delivery sequence for `log` (see the type docs).
    pub fn new(log: &ExamLog, seed: u64, disorder: usize) -> Self {
        let mut records = log.records().to_vec();
        records.sort_by_key(|r| (r.date, r.patient.0, r.exam.0));
        if disorder > 1 {
            let mut rng = StdRng::seed_from_u64(seed);
            for block in records.chunks_mut(disorder) {
                block.shuffle(&mut rng);
            }
        }
        Self { records, pos: 0 }
    }

    /// The records not yet yielded, in delivery order.
    pub fn remaining(&self) -> &[ExamRecord] {
        &self.records[self.pos..]
    }

    /// Total number of records in the feed (yielded or not).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the feed holds no records at all.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

impl Iterator for StreamOrder {
    type Item = ExamRecord;

    fn next(&mut self) -> Option<ExamRecord> {
        let r = self.records.get(self.pos).copied();
        self.pos += usize::from(r.is_some());
        r
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.records.len() - self.pos;
        (left, Some(left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{ExamRecord, ExamType, ExamTypeId, Patient};
    use crate::taxonomy::ConditionGroup;

    fn log_with_dates(rows: &[(u32, u32, u16, u8, u8)]) -> ExamLog {
        let np = rows.iter().map(|r| r.0).max().unwrap_or(0) + 1;
        let ne = rows.iter().map(|r| r.1).max().unwrap_or(0) + 1;
        let patients = (0..np)
            .map(|i| Patient::new(PatientId(i), 50).unwrap())
            .collect();
        let catalog = (0..ne)
            .map(|i| ExamType::new(ExamTypeId(i), format!("e{i}"), ConditionGroup::GeneralLab))
            .collect();
        let mut log = ExamLog::new(patients, catalog).unwrap();
        for &(p, e, y, m, d) in rows {
            log.push_record(ExamRecord::new(
                PatientId(p),
                ExamTypeId(e),
                Date::new(y, m, d).unwrap(),
            ))
            .unwrap();
        }
        log
    }

    #[test]
    fn timelines_are_chronological_per_patient() {
        let log = log_with_dates(&[
            (0, 0, 2015, 6, 1),
            (0, 1, 2015, 1, 15),
            (0, 0, 2015, 9, 3),
            (1, 0, 2015, 3, 1),
        ]);
        let ts = timelines(&log);
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[0].num_visits(), 3);
        assert_eq!(ts[0].visits[0].date, Date::new(2015, 1, 15).unwrap());
        assert_eq!(ts[1].num_visits(), 1);
    }

    #[test]
    fn gaps_and_dates_of() {
        let log = log_with_dates(&[(0, 0, 2015, 1, 1), (0, 0, 2015, 1, 31), (0, 1, 2015, 3, 2)]);
        let t = &timelines(&log)[0];
        assert_eq!(t.gaps_days(), vec![30, 30]);
        assert_eq!(t.dates_of(ExamTypeId(0)).len(), 2);
        assert_eq!(t.dates_of(ExamTypeId(1)).len(), 1);
        assert!(t.dates_of(ExamTypeId(9)).is_empty());
    }

    #[test]
    fn monthly_volume_buckets() {
        let log = log_with_dates(&[
            (0, 0, 2015, 1, 1),
            (0, 0, 2015, 1, 20),
            (0, 0, 2015, 12, 31),
            (0, 0, 2014, 6, 1), // outside year, ignored
        ]);
        let v = monthly_volume(&log, 2015);
        assert_eq!(v[0], 2);
        assert_eq!(v[11], 1);
        assert_eq!(v.iter().sum::<usize>(), 3);
    }

    #[test]
    fn gap_summary_statistics() {
        let log = log_with_dates(&[
            (0, 0, 2015, 1, 1),
            (0, 0, 2015, 1, 11), // gap 10
            (0, 0, 2015, 1, 31), // gap 20
            (1, 0, 2015, 2, 1),
            (1, 0, 2015, 3, 3), // gap 30
        ]);
        let s = gap_summary(&log).unwrap();
        assert_eq!(s.count, 3);
        assert!((s.mean_days - 20.0).abs() < 1e-12);
        assert_eq!(s.median_days, 20.0);
        assert_eq!(s.max_days, 30);
    }

    #[test]
    fn gap_summary_none_without_repeat_visits() {
        let log = log_with_dates(&[(0, 0, 2015, 1, 1), (1, 0, 2015, 2, 1)]);
        assert!(gap_summary(&log).is_none());
    }

    fn canonical_key(r: &ExamRecord) -> (Date, u32, u32) {
        (r.date, r.patient.0, r.exam.0)
    }

    #[test]
    fn stream_order_without_disorder_is_canonical() {
        let log = log_with_dates(&[
            (1, 0, 2015, 3, 1),
            (0, 1, 2015, 1, 15),
            (0, 0, 2015, 1, 15),
            (0, 0, 2015, 9, 3),
        ]);
        let got: Vec<_> = StreamOrder::new(&log, 7, 1).collect();
        let mut want = log.records().to_vec();
        want.sort_by_key(canonical_key);
        assert_eq!(got, want);
    }

    #[test]
    fn stream_order_is_a_bounded_permutation() {
        let rows: Vec<(u32, u32, u16, u8, u8)> = (0..60)
            .map(|i| (i % 7, i % 5, 2015, 1 + (i % 12) as u8, 1 + (i % 28) as u8))
            .collect();
        let log = log_with_dates(&rows);
        let disorder = 8;
        let feed: Vec<_> = StreamOrder::new(&log, 42, disorder).collect();
        let mut canonical = log.records().to_vec();
        canonical.sort_by_key(canonical_key);
        // Same multiset...
        let mut sorted_feed = feed.clone();
        sorted_feed.sort_by_key(canonical_key);
        assert_eq!(sorted_feed, canonical);
        // ...and no record strays outside its disorder block.
        for (pos, r) in feed.iter().enumerate() {
            let canon_pos = canonical
                .iter()
                .position(|c| canonical_key(c) == canonical_key(r))
                .unwrap();
            assert!(
                pos.abs_diff(canon_pos) < disorder,
                "record displaced {} > bound {}",
                pos.abs_diff(canon_pos),
                disorder - 1
            );
        }
        // Seeded: same seed reproduces, different seed perturbs.
        let again: Vec<_> = StreamOrder::new(&log, 42, disorder).collect();
        assert_eq!(feed, again);
        let other: Vec<_> = StreamOrder::new(&log, 43, disorder).collect();
        assert_ne!(feed, other);
    }

    #[test]
    fn stream_order_remaining_tracks_iteration() {
        let log = log_with_dates(&[(0, 0, 2015, 1, 1), (0, 1, 2015, 2, 1)]);
        let mut feed = StreamOrder::new(&log, 0, 1);
        assert_eq!(feed.len(), 2);
        assert_eq!(feed.remaining().len(), 2);
        feed.next().unwrap();
        assert_eq!(feed.remaining().len(), 1);
        feed.next().unwrap();
        assert!(feed.next().is_none());
        assert!(feed.remaining().is_empty());
    }
}
