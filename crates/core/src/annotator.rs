//! The simulated physician.
//!
//! The paper enriches knowledge items "with the support of a physician
//! … with a degree of interestingness {high, medium, low}", and notes
//! that end-goal selection "is strongly affected … by differences in
//! physician opinions, due to their diverse background and
//! specialization". No physician is available to a reproduction, so this
//! module provides the documented substitution (see DESIGN.md): a
//! deterministic labelling policy over item statistics, with
//! configurable label noise — consistent enough to learn from, noisy
//! enough to be realistic.

use ada_kdb::schema::Interestingness;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded, noisy annotator standing in for the domain expert.
#[derive(Debug)]
pub struct SimulatedPhysician {
    rng: StdRng,
    /// Probability that a label is replaced by a uniformly random one.
    noise: f64,
}

impl SimulatedPhysician {
    /// Creates an annotator.
    ///
    /// # Panics
    /// Panics when `noise` is outside [0, 1].
    pub fn new(seed: u64, noise: f64) -> Self {
        assert!((0.0..=1.0).contains(&noise), "noise must be in [0, 1]");
        Self {
            rng: StdRng::seed_from_u64(seed),
            noise,
        }
    }

    /// A noiseless annotator.
    pub fn strict(seed: u64) -> Self {
        Self::new(seed, 0.0)
    }

    /// Labels a *pattern* knowledge item from its rule statistics.
    ///
    /// Policy: strong, non-obvious co-prescriptions are interesting —
    /// lift ≥ 1.5 and confidence ≥ 0.6 with support ≥ 2% is `High`;
    /// moderate lift or confidence is `Medium`; near-independent or
    /// ubiquitous rules are `Low`.
    pub fn label_pattern(&mut self, support: f64, confidence: f64, lift: f64) -> Interestingness {
        let base = if lift >= 1.5 && confidence >= 0.6 && support >= 0.02 {
            Interestingness::High
        } else if lift >= 1.2 && confidence >= 0.4 && support >= 0.01 {
            Interestingness::Medium
        } else {
            Interestingness::Low
        };
        self.finalize(base)
    }

    /// Labels a *cluster* knowledge item from its shape statistics.
    ///
    /// Policy: cohesive clusters of clinically-actionable size (2%–60%
    /// of the cohort) are interesting; slivers and catch-all blobs are
    /// not.
    pub fn label_cluster(&mut self, size_fraction: f64, cohesion: f64) -> Interestingness {
        let good_size = (0.02..=0.60).contains(&size_fraction);
        let base = if good_size && cohesion >= 0.5 {
            Interestingness::High
        } else if good_size && cohesion >= 0.3 {
            Interestingness::Medium
        } else {
            Interestingness::Low
        };
        self.finalize(base)
    }

    /// Labels a *safety-signal* knowledge item from its
    /// disproportionality statistics (`ror_low` = lower 95% CI bound of
    /// the reporting odds ratio, `shrunk` = EBGM-style shrunken
    /// reporting ratio).
    ///
    /// Policy: a signal whose CI excludes the null from above and whose
    /// shrunken estimate survives is interesting; a positive but
    /// fragile association is `Medium`; CI-crossing-1 or shrunk-to-null
    /// findings are `Low`.
    pub fn label_signal(&mut self, support: f64, ror_low: f64, shrunk: f64) -> Interestingness {
        let base = if ror_low >= 1.5 && shrunk >= 1.5 && support >= 0.01 {
            Interestingness::High
        } else if ror_low >= 1.0 && shrunk >= 1.2 {
            Interestingness::Medium
        } else {
            Interestingness::Low
        };
        self.finalize(base)
    }

    fn finalize(&mut self, label: Interestingness) -> Interestingness {
        if self.noise > 0.0 && self.rng.gen::<f64>() < self.noise {
            match self.rng.gen_range(0..3) {
                0 => Interestingness::Low,
                1 => Interestingness::Medium,
                _ => Interestingness::High,
            }
        } else {
            label
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_pattern_policy() {
        let mut doc = SimulatedPhysician::strict(1);
        assert_eq!(doc.label_pattern(0.10, 0.9, 2.5), Interestingness::High);
        assert_eq!(doc.label_pattern(0.05, 0.5, 1.3), Interestingness::Medium);
        assert_eq!(
            doc.label_pattern(0.30, 0.9, 1.0),
            Interestingness::Low,
            "independent rule is uninteresting however confident"
        );
    }

    #[test]
    fn strict_cluster_policy() {
        let mut doc = SimulatedPhysician::strict(2);
        assert_eq!(doc.label_cluster(0.10, 0.7), Interestingness::High);
        assert_eq!(doc.label_cluster(0.10, 0.35), Interestingness::Medium);
        assert_eq!(
            doc.label_cluster(0.005, 0.9),
            Interestingness::Low,
            "sliver clusters are not actionable"
        );
        assert_eq!(
            doc.label_cluster(0.9, 0.9),
            Interestingness::Low,
            "catch-all clusters are not actionable"
        );
    }

    #[test]
    fn noise_flips_some_labels_deterministically() {
        let mut a = SimulatedPhysician::new(7, 0.5);
        let mut b = SimulatedPhysician::new(7, 0.5);
        let labels_a: Vec<_> = (0..50).map(|_| a.label_pattern(0.10, 0.9, 2.5)).collect();
        let labels_b: Vec<_> = (0..50).map(|_| b.label_pattern(0.10, 0.9, 2.5)).collect();
        assert_eq!(labels_a, labels_b, "same seed, same labels");
        assert!(
            labels_a.iter().any(|&l| l != Interestingness::High),
            "50% noise must flip something"
        );
        assert!(
            labels_a
                .iter()
                .filter(|&&l| l == Interestingness::High)
                .count()
                > 25,
            "the policy signal must still dominate"
        );
    }

    #[test]
    #[should_panic(expected = "noise")]
    fn rejects_bad_noise() {
        let _ = SimulatedPhysician::new(0, 1.5);
    }
}
