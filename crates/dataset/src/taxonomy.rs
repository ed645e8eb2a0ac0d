//! Three-level examination taxonomy.
//!
//! The paper's pattern-mining component builds on MeTA (Antonelli et al.,
//! ACM TIST 2015), which characterizes medical treatments *at different
//! abstraction levels*. We model the standard three-level hierarchy:
//!
//! ```text
//! level 0: examination type   (leaf, e.g. "Glycated hemoglobin")
//! level 1: condition group    (e.g. GlycemicControl, Cardiovascular)
//! level 2: clinical domain    (e.g. Laboratory, Specialist)
//! ```
//!
//! `ada-mining`'s taxonomy-aware itemset miner generalizes items upward
//! through this hierarchy when leaf-level support is too low.

use std::fmt;

use crate::record::{ExamType, ExamTypeId};

/// Mid-level taxonomy node: the medical condition a group of exams
/// monitors or diagnoses. The variants mirror the complication spectrum
/// the paper mentions for overt diabetes (regular checkups plus specific
/// diagnostic tests for complications of varying severity, e.g.
/// cardiovascular complications and blindness).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ConditionGroup {
    /// Routine diabetes follow-up: glucose, HbA1c, standard visits.
    GlycemicControl,
    /// General blood work and biochemistry panels.
    GeneralLab,
    /// Heart and vessel complications (ECG, echo, stress tests…).
    Cardiovascular,
    /// Diabetic retinopathy and vision loss work-ups.
    Ophthalmic,
    /// Diabetic nephropathy: renal function monitoring.
    Renal,
    /// Peripheral and autonomic neuropathy assessments.
    Neurological,
    /// Diabetic foot: vascular and wound care exams.
    Podiatric,
    /// Dyslipidemia monitoring.
    Lipid,
    /// General imaging (ultrasound, radiography…).
    Imaging,
    /// Other specialist referrals and rare diagnostics.
    Specialist,
}

impl ConditionGroup {
    /// All condition groups, in a stable order.
    pub const ALL: [ConditionGroup; 10] = [
        ConditionGroup::GlycemicControl,
        ConditionGroup::GeneralLab,
        ConditionGroup::Cardiovascular,
        ConditionGroup::Ophthalmic,
        ConditionGroup::Renal,
        ConditionGroup::Neurological,
        ConditionGroup::Podiatric,
        ConditionGroup::Lipid,
        ConditionGroup::Imaging,
        ConditionGroup::Specialist,
    ];

    /// The top-level clinical domain this group belongs to.
    pub fn domain(self) -> Domain {
        match self {
            ConditionGroup::GlycemicControl => Domain::Routine,
            ConditionGroup::GeneralLab | ConditionGroup::Lipid | ConditionGroup::Renal => {
                Domain::Laboratory
            }
            ConditionGroup::Imaging => Domain::Imaging,
            ConditionGroup::Cardiovascular
            | ConditionGroup::Ophthalmic
            | ConditionGroup::Neurological
            | ConditionGroup::Podiatric
            | ConditionGroup::Specialist => Domain::Specialist,
        }
    }

    /// Stable dense index of this group within [`ConditionGroup::ALL`].
    pub fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|g| *g == self)
            .expect("every variant is listed in ALL")
    }
}

impl fmt::Display for ConditionGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ConditionGroup::GlycemicControl => "glycemic-control",
            ConditionGroup::GeneralLab => "general-lab",
            ConditionGroup::Cardiovascular => "cardiovascular",
            ConditionGroup::Ophthalmic => "ophthalmic",
            ConditionGroup::Renal => "renal",
            ConditionGroup::Neurological => "neurological",
            ConditionGroup::Podiatric => "podiatric",
            ConditionGroup::Lipid => "lipid",
            ConditionGroup::Imaging => "imaging",
            ConditionGroup::Specialist => "specialist",
        };
        f.write_str(s)
    }
}

impl std::str::FromStr for ConditionGroup {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::ALL
            .iter()
            .copied()
            .find(|g| g.to_string() == s)
            .ok_or_else(|| format!("unknown condition group {s:?}"))
    }
}

/// Top-level taxonomy node: the broad clinical domain of an exam.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Domain {
    /// Scheduled diabetes follow-up activity.
    Routine,
    /// Laboratory tests on biological samples.
    Laboratory,
    /// Diagnostic imaging.
    Imaging,
    /// Specialist consultations and instrumental exams.
    Specialist,
}

impl Domain {
    /// All domains, in a stable order.
    pub const ALL: [Domain; 4] = [
        Domain::Routine,
        Domain::Laboratory,
        Domain::Imaging,
        Domain::Specialist,
    ];

    /// Stable dense index of this domain within [`Domain::ALL`].
    pub fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|d| *d == self)
            .expect("every variant is listed in ALL")
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Domain::Routine => "routine",
            Domain::Laboratory => "laboratory",
            Domain::Imaging => "imaging",
            Domain::Specialist => "specialist",
        };
        f.write_str(s)
    }
}

/// A materialized taxonomy over a concrete exam catalog: maps every
/// exam-type id to its condition group and clinical domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Taxonomy {
    groups: Vec<ConditionGroup>,
}

impl Taxonomy {
    /// Builds the taxonomy from an exam catalog (indexed by exam-type id).
    pub fn from_catalog(catalog: &[ExamType]) -> Self {
        Self {
            groups: catalog.iter().map(|e| e.group).collect(),
        }
    }

    /// Number of leaf exam types covered.
    pub fn num_exams(&self) -> usize {
        self.groups.len()
    }

    /// The condition group of an exam type, or `None` for out-of-range ids.
    pub fn group_of(&self, exam: ExamTypeId) -> Option<ConditionGroup> {
        self.groups.get(exam.index()).copied()
    }

    /// The clinical domain of an exam type, or `None` for out-of-range ids.
    pub fn domain_of(&self, exam: ExamTypeId) -> Option<Domain> {
        self.group_of(exam).map(ConditionGroup::domain)
    }

    /// All exam-type ids belonging to the given condition group.
    pub fn exams_in_group(&self, group: ConditionGroup) -> Vec<ExamTypeId> {
        self.groups
            .iter()
            .enumerate()
            .filter(|(_, g)| **g == group)
            .map(|(i, _)| ExamTypeId(i as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_group_has_a_domain() {
        for g in ConditionGroup::ALL {
            let _ = g.domain(); // must not panic
        }
    }

    #[test]
    fn group_indices_are_dense_and_stable() {
        for (i, g) in ConditionGroup::ALL.iter().enumerate() {
            assert_eq!(g.index(), i);
        }
        for (i, d) in Domain::ALL.iter().enumerate() {
            assert_eq!(d.index(), i);
        }
    }

    #[test]
    fn group_display_parse_round_trip() {
        for g in ConditionGroup::ALL {
            let parsed: ConditionGroup = g.to_string().parse().unwrap();
            assert_eq!(parsed, g);
        }
        assert!("bogus".parse::<ConditionGroup>().is_err());
    }

    #[test]
    fn taxonomy_lookups() {
        let catalog = vec![
            ExamType::new(ExamTypeId(0), "HbA1c", ConditionGroup::GlycemicControl),
            ExamType::new(ExamTypeId(1), "ECG", ConditionGroup::Cardiovascular),
            ExamType::new(ExamTypeId(2), "Fundus exam", ConditionGroup::Ophthalmic),
        ];
        let tax = Taxonomy::from_catalog(&catalog);
        assert_eq!(tax.num_exams(), 3);
        assert_eq!(
            tax.group_of(ExamTypeId(1)),
            Some(ConditionGroup::Cardiovascular)
        );
        assert_eq!(tax.domain_of(ExamTypeId(0)), Some(Domain::Routine));
        assert_eq!(tax.group_of(ExamTypeId(9)), None);
        assert_eq!(
            tax.exams_in_group(ConditionGroup::Ophthalmic),
            vec![ExamTypeId(2)]
        );
    }
}
