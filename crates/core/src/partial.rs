//! Adaptive partial mining strategies.
//!
//! "To avoid the expensive and resource-consuming procedure of mining
//! the entire dataset when not necessary, adaptive partial mining
//! strategies need to be designed." The paper's preliminary
//! implementation — and its Section IV-B experiment — is the
//! [`HorizontalPartialMiner`]: K-means runs on incrementally larger
//! subsets of the *examination types*, chosen in decreasing frequency
//! order (20% → 40% → 100% of types, covering ≈ 70% / 85% / 100% of the
//! raw records), and the smallest subset whose overall similarity is
//! within ε (5%) of the full-data value is selected.
//!
//! The paper also names a second axis ("partial mining can reduce the
//! dataset along any dimension (vertical mining)"): the
//! [`VerticalPartialMiner`] grows a *patient* sample instead (the
//! `partial_mining` bin's "Extension" table in EXPERIMENTS.md).
//!
//! Every rung is clustered from a fresh initialization: seeding a rung
//! from the previous rung's centroids would correlate their partitions
//! and bias the similarity-vs-full estimate the ε rule compares.
//!
//! Every K-means run scans the rung matrix's non-zero view
//! (`DenseMatrix::sparse_rows` — the matrices are built once per rung,
//! never mutated, and 77–93 % zeros at paper scale; same models bit for
//! bit as a dense scan) and is row-serial by default: a sparse Lloyd
//! pass at paper scale is 0.1–0.3 ms of work, less than opening the
//! thread scope costs, and a service runs several sessions side by
//! side. `threads` still buys latency on much larger cohorts (0 = one
//! per core, byte-identical output for every value).

use ada_dataset::ExamLog;
use ada_metrics::cluster;
use ada_mining::kmeans::{KMeans, KernelStats};
use ada_vsm::{VsmBuilder, Weighting};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::control::{PipelineError, PipelineStage, RunControl};

/// Result of one partial-mining step (one subset size).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepResult {
    /// Fraction of the growth axis included (exam types or patients).
    pub fraction: f64,
    /// Absolute number of included exam types (horizontal) or patients
    /// (vertical).
    pub included: usize,
    /// Fraction of raw records retained by this subset.
    pub row_coverage: f64,
    /// Per-K overall similarity: `(k, overall_similarity)`.
    pub per_k: Vec<(usize, f64)>,
    /// Per-K adjusted Rand index between this step's partition and the
    /// full-data partition at the same K (restart-paired mean); 1.0 on
    /// the full step by construction. Empty when not computed (the
    /// vertical miner's samples have incomparable supports).
    pub agreement_vs_full: Vec<(usize, f64)>,
    /// Total K-means iterations spent on this step, summed over every
    /// `(K, restart)` run.
    pub kmeans_iterations: usize,
}

impl StepResult {
    /// Mean overall similarity across the probed K values.
    pub fn mean_similarity(&self) -> f64 {
        if self.per_k.is_empty() {
            return 0.0;
        }
        self.per_k.iter().map(|&(_, s)| s).sum::<f64>() / self.per_k.len() as f64
    }

    /// Mean adjusted Rand agreement with the full-data partition, or
    /// `None` when agreement was not computed.
    pub fn mean_agreement(&self) -> Option<f64> {
        if self.agreement_vs_full.is_empty() {
            None
        } else {
            Some(
                self.agreement_vs_full.iter().map(|&(_, a)| a).sum::<f64>()
                    / self.agreement_vs_full.len() as f64,
            )
        }
    }
}

/// The report of an adaptive partial-mining run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartialMiningReport {
    /// One entry per step, in growth order (last step = full data).
    pub steps: Vec<StepResult>,
    /// Index into `steps` of the selected (smallest acceptable) subset.
    pub selected: usize,
    /// The ε tolerance used (paper: 0.05).
    pub epsilon: f64,
}

impl PartialMiningReport {
    /// The selected step.
    pub fn selected_step(&self) -> &StepResult {
        &self.steps[self.selected]
    }

    /// Percentage difference of a step's mean similarity vs. full data.
    pub fn difference_vs_full(&self, step: usize) -> f64 {
        let full = self
            .steps
            .last()
            .expect("at least the full step exists")
            .mean_similarity();
        if full == 0.0 {
            return 0.0;
        }
        (full - self.steps[step].mean_similarity()).abs() / full
    }
}

/// Selects the smallest step whose mean similarity is within `epsilon`
/// (relative) of the final, full-data step.
fn select_step(steps: &[StepResult], epsilon: f64) -> usize {
    let full = steps.last().expect("non-empty steps").mean_similarity();
    if full == 0.0 {
        return steps.len() - 1;
    }
    steps
        .iter()
        .position(|s| (full - s.mean_similarity()).abs() / full <= epsilon)
        .unwrap_or(steps.len() - 1)
}

/// The paper's horizontal partial miner: grows the examination-type
/// subset along decreasing record frequency.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HorizontalPartialMiner {
    /// Exam-type fractions to probe, ascending; 1.0 is appended when
    /// missing (the full-data reference run).
    pub fractions: Vec<f64>,
    /// K values each step is clustered at.
    pub ks: Vec<usize>,
    /// Relative similarity tolerance (paper: 0.05).
    pub epsilon: f64,
    /// VSM weighting (paper: raw counts).
    pub weighting: Weighting,
    /// L2-normalize patient rows before clustering, so the partition
    /// keys on the *mix* of examinations rather than raw visit volume.
    pub normalize: bool,
    /// K-means restarts per (step, K); the reported similarity is the
    /// restart mean, damping local-optimum noise so the ε comparison
    /// reflects the subset, not one lucky initialization.
    pub restarts: usize,
    /// Clustering seed.
    pub seed: u64,
    /// Row-level worker threads for every K-means run (default 1;
    /// 0 = one per available core); output is byte-identical for every
    /// value.
    pub threads: usize,
}

impl Default for HorizontalPartialMiner {
    fn default() -> Self {
        Self {
            fractions: vec![0.2, 0.4, 1.0],
            ks: vec![8, 12, 16],
            epsilon: 0.05,
            weighting: Weighting::Count,
            normalize: true,
            restarts: 3,
            seed: 0,
            threads: 1,
        }
    }
}

impl HorizontalPartialMiner {
    /// Runs the adaptive strategy.
    ///
    /// # Panics
    /// Panics when the log has no records or `ks` is empty/exceeds the
    /// patient count.
    pub fn run(&self, log: &ExamLog) -> PartialMiningReport {
        self.run_with_control(log, &RunControl::new())
            .expect("a default RunControl never cancels or expires")
    }

    /// Runs the adaptive strategy under `control`, polling the cancel
    /// flag and deadline before the reference clustering and before
    /// each growth step (the expensive units of work).
    ///
    /// # Panics
    /// Panics when the log has no records or `ks` is empty/exceeds the
    /// patient count.
    #[allow(clippy::needless_range_loop)] // restart-paired reference partitions
    pub fn run_with_control(
        &self,
        log: &ExamLog,
        control: &RunControl,
    ) -> Result<PartialMiningReport, PipelineError> {
        assert!(log.num_records() > 0, "cannot partial-mine an empty log");
        assert!(!self.ks.is_empty(), "need at least one K to probe");
        let mut fractions = self.fractions.clone();
        fractions.sort_by(|a, b| a.partial_cmp(b).expect("finite fractions"));
        if fractions.last().copied().unwrap_or(0.0) < 1.0 {
            fractions.push(1.0);
        }

        let order = log.exams_by_frequency();
        let freq = log.exam_frequencies();
        let total_records: usize = freq.iter().sum();
        let n_types = order.len();

        // The reference representation: every partition — whichever
        // feature subset it was *computed* on — is scored by its overall
        // similarity in the complete feature space. Scoring each subset
        // in its own space would inflate low-dimensional cosines and
        // make subsets incomparable; scoring in the full space directly
        // measures how well the cheap clustering approximates the
        // full-data structure (and yields the paper's observation that
        // similarity decreases as exam types are dropped).
        let full = VsmBuilder::new()
            .weighting(self.weighting)
            .normalize(self.normalize)
            .build(log);

        // The ladder: steps run in ascending-fraction order.
        // Assignments are collected per step so agreement can be scored
        // against the full-data partition once the ladder tops out.
        let restarts = self.restarts.max(1);
        struct RawStep {
            fraction: f64,
            included: usize,
            covered: usize,
            kmeans_iterations: usize,
            per_k: Vec<(usize, f64)>,
            /// `[ki][restart]` -> assignments.
            partitions: Vec<Vec<Vec<usize>>>,
        }
        let mut raw: Vec<RawStep> = Vec::with_capacity(fractions.len());
        for &fraction in &fractions {
            control.checkpoint(PipelineStage::PartialMining)?;
            // Each rung is a sub-span; rung names are unique within the
            // run (fractions are sorted and deduplicated by growth), so
            // an observer can pair start/end events by name. Kernel
            // counters aggregate over every (K, restart) run of the rung
            // and are emitted while the rung span is still open.
            let step = control.span(
                PipelineStage::PartialMining,
                &format!("rung:{fraction:.2}"),
                || -> Result<RawStep, PipelineError> {
                    let included = ((fraction * n_types as f64).ceil() as usize).clamp(1, n_types);
                    let features = order[..included].to_vec();
                    let covered: usize = features.iter().map(|e| freq[e.index()]).sum();
                    // The full step reuses the id-order reference matrix.
                    let owned_pv;
                    let matrix = if included == n_types {
                        &full.matrix
                    } else {
                        owned_pv = VsmBuilder::new()
                            .weighting(self.weighting)
                            .normalize(self.normalize)
                            .features(features)
                            .build(log);
                        &owned_pv.matrix
                    };
                    let rows = matrix.sparse_rows();
                    let mut per_k = Vec::with_capacity(self.ks.len());
                    let mut partitions = Vec::with_capacity(self.ks.len());
                    let mut kmeans_iterations = 0usize;
                    let mut rung_stats = KernelStats::default();
                    for &k in &self.ks {
                        let mut sim_acc = 0.0;
                        let mut k_parts = Vec::with_capacity(restarts);
                        for r in 0..restarts {
                            control.checkpoint(PipelineStage::PartialMining)?;
                            let seed = self.seed.wrapping_add(1_000 * r as u64);
                            let (result, stats) = KMeans::new(k)
                                .seed(seed)
                                .threads(self.threads)
                                .fit_rows(&rows);
                            rung_stats.merge(&stats);
                            kmeans_iterations += result.iterations;
                            sim_acc +=
                                cluster::overall_similarity(&full.matrix, &result.assignments, k);
                            k_parts.push(result.assignments);
                        }
                        per_k.push((k, sim_acc / restarts as f64));
                        partitions.push(k_parts);
                    }
                    control.counters(PipelineStage::PartialMining, &rung_stats.as_pairs());
                    Ok(RawStep {
                        fraction,
                        included,
                        covered,
                        kmeans_iterations,
                        per_k,
                        partitions,
                    })
                },
            )?;
            raw.push(step);
        }

        // Agreement: restart-paired adjusted Rand index against the
        // ladder's own full-data partitions (the last rung).
        let full_partitions = &raw.last().expect("full step always runs").partitions;
        let steps: Vec<StepResult> = raw
            .iter()
            .map(|step| {
                let agreement = self
                    .ks
                    .iter()
                    .enumerate()
                    .map(|(ki, &k)| {
                        let mean = (0..restarts)
                            .map(|r| {
                                ada_metrics::adjusted_rand_index(
                                    &step.partitions[ki][r],
                                    &full_partitions[ki][r],
                                )
                            })
                            .sum::<f64>()
                            / restarts as f64;
                        (k, mean)
                    })
                    .collect();
                StepResult {
                    fraction: step.fraction,
                    included: step.included,
                    row_coverage: step.covered as f64 / total_records as f64,
                    per_k: step.per_k.clone(),
                    agreement_vs_full: agreement,
                    kmeans_iterations: step.kmeans_iterations,
                }
            })
            .collect();

        let selected = select_step(&steps, self.epsilon);
        Ok(PartialMiningReport {
            steps,
            selected,
            epsilon: self.epsilon,
        })
    }
}

/// Vertical partial miner: grows a seeded random *patient* sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VerticalPartialMiner {
    /// Patient fractions to probe, ascending; 1.0 appended when missing.
    pub fractions: Vec<f64>,
    /// K values each step is clustered at.
    pub ks: Vec<usize>,
    /// Relative similarity tolerance.
    pub epsilon: f64,
    /// VSM weighting.
    pub weighting: Weighting,
    /// Sampling + clustering seed.
    pub seed: u64,
    /// Row-level worker threads for every K-means run (default 1;
    /// 0 = one per available core); output is byte-identical for every
    /// value.
    pub threads: usize,
}

impl Default for VerticalPartialMiner {
    fn default() -> Self {
        Self {
            fractions: vec![0.25, 0.5, 1.0],
            ks: vec![6, 8, 10],
            epsilon: 0.05,
            weighting: Weighting::Count,
            seed: 0,
            threads: 1,
        }
    }
}

impl VerticalPartialMiner {
    /// Runs the adaptive strategy over patient samples.
    ///
    /// # Panics
    /// Panics when the log has no records or patients, or `ks` is empty.
    pub fn run(&self, log: &ExamLog) -> PartialMiningReport {
        assert!(log.num_records() > 0, "cannot partial-mine an empty log");
        assert!(log.num_patients() > 0, "no patients");
        assert!(!self.ks.is_empty(), "need at least one K to probe");
        let mut fractions = self.fractions.clone();
        fractions.sort_by(|a, b| a.partial_cmp(b).expect("finite fractions"));
        if fractions.last().copied().unwrap_or(0.0) < 1.0 {
            fractions.push(1.0);
        }

        // One seeded permutation; each step takes a prefix, so samples
        // are nested exactly like the horizontal miner's feature sets.
        let mut permutation: Vec<usize> = (0..log.num_patients()).collect();
        permutation.shuffle(&mut StdRng::seed_from_u64(self.seed));

        let pv = VsmBuilder::new().weighting(self.weighting).build(log);
        let per_patient_records: Vec<f64> = pv
            .matrix
            .rows_iter()
            .map(|row| row.iter().sum::<f64>())
            .collect();
        let total_records: f64 = match self.weighting {
            Weighting::Count => per_patient_records.iter().sum(),
            _ => log.num_records() as f64,
        };

        let steps: Vec<StepResult> = fractions
            .iter()
            .map(|&fraction| {
                let included = ((fraction * log.num_patients() as f64).ceil() as usize)
                    .clamp(1, log.num_patients());
                let sample = &permutation[..included];
                let matrix = pv.matrix.select_rows(sample);
                let rows = matrix.sparse_rows();
                let row_coverage = match self.weighting {
                    Weighting::Count => {
                        sample.iter().map(|&p| per_patient_records[p]).sum::<f64>()
                            / total_records.max(1.0)
                    }
                    _ => included as f64 / log.num_patients() as f64,
                };
                let mut kmeans_iterations = 0usize;
                let per_k = self
                    .ks
                    .iter()
                    .filter(|&&k| k <= matrix.num_rows())
                    .map(|&k| {
                        let (result, _) = KMeans::new(k)
                            .seed(self.seed)
                            .threads(self.threads)
                            .fit_rows(&rows);
                        kmeans_iterations += result.iterations;
                        let sim = cluster::overall_similarity(&matrix, &result.assignments, k);
                        (k, sim)
                    })
                    .collect();
                StepResult {
                    fraction,
                    included,
                    row_coverage,
                    per_k,
                    agreement_vs_full: Vec::new(),
                    kmeans_iterations,
                }
            })
            .collect();

        let selected = select_step(&steps, self.epsilon);
        PartialMiningReport {
            steps,
            selected,
            epsilon: self.epsilon,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ada_dataset::synthetic::{generate, SyntheticConfig};

    fn small_log() -> ExamLog {
        generate(&SyntheticConfig::small(), 11)
    }

    #[test]
    fn horizontal_steps_cover_paper_points() {
        let log = small_log();
        let report = HorizontalPartialMiner::default().run(&log);
        assert_eq!(report.steps.len(), 3);
        // Row coverage grows with the feature fraction and matches the
        // synthetic generator's calibration (~70% / ~85% / 100%).
        let cov: Vec<f64> = report.steps.iter().map(|s| s.row_coverage).collect();
        assert!(cov[0] < cov[1] && cov[1] < cov[2]);
        assert!((0.50..=0.72).contains(&cov[0]), "cov20 = {}", cov[0]);
        assert!((0.75..=0.90).contains(&cov[1]), "cov40 = {}", cov[1]);
        assert!((cov[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn horizontal_selects_within_epsilon() {
        let log = small_log();
        let report = HorizontalPartialMiner::default().run(&log);
        // The selected step must actually satisfy the tolerance.
        assert!(report.difference_vs_full(report.selected) <= report.epsilon + 1e-12);
        // And every earlier step must violate it (smallest acceptable).
        for earlier in 0..report.selected {
            assert!(report.difference_vs_full(earlier) > report.epsilon);
        }
    }

    #[test]
    fn similarity_decreases_with_fewer_exams_at_fixed_k() {
        // The paper: "For a fixed number of clusters, the overall
        // similarity decreases as the number of exams is reduced."
        let log = small_log();
        let report = HorizontalPartialMiner::default().run(&log);
        let sims: Vec<f64> = report.steps.iter().map(|s| s.mean_similarity()).collect();
        assert!(
            sims[0] < sims[2],
            "20% subset must not beat full data: {sims:?}"
        );
        assert!(
            sims[1] <= sims[2] + 0.01,
            "40% subset must not beat full data: {sims:?}"
        );
        // The paper's crossover: the 40%-of-types step is within the 5%
        // tolerance, the 20% step is not.
        assert!(report.difference_vs_full(0) > report.epsilon);
        assert!(report.difference_vs_full(1) <= report.epsilon);
        assert_eq!(report.selected, 1);
    }

    #[test]
    fn full_step_appended_when_missing() {
        let log = small_log();
        let report = HorizontalPartialMiner {
            fractions: vec![0.3],
            ks: vec![4],
            ..Default::default()
        }
        .run(&log);
        assert_eq!(report.steps.len(), 2);
        assert!((report.steps[1].fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn vertical_miner_runs_and_selects() {
        let log = small_log();
        let report = VerticalPartialMiner::default().run(&log);
        assert_eq!(report.steps.len(), 3);
        assert!(report.selected < report.steps.len());
        let last = report.steps.last().unwrap();
        assert_eq!(last.included, log.num_patients());
        assert!((last.row_coverage - 1.0).abs() < 1e-9);
        // Nested samples: included counts strictly increase.
        assert!(report.steps[0].included < report.steps[1].included);
    }

    #[test]
    fn deterministic_given_seed() {
        let log = small_log();
        let a = HorizontalPartialMiner::default().run(&log);
        let b = HorizontalPartialMiner::default().run(&log);
        assert_eq!(a, b);
        let va = VerticalPartialMiner::default().run(&log);
        let vb = VerticalPartialMiner::default().run(&log);
        assert_eq!(va, vb);
    }

    #[test]
    fn default_reports_are_pinned() {
        // Every f64 of both default reports, as the bit patterns the
        // dense-row kernel printed before the miners scanned non-zeros
        // (and ran row-parallel by default): how rows are stored and
        // how many threads walk them may change no digit.
        type Pairs<'a> = &'a [(usize, u64)];
        let step = |fraction: u64,
                    included: usize,
                    row_coverage: u64,
                    per_k: Pairs,
                    agreement: Pairs,
                    kmeans_iterations: usize| {
            let floats = |pairs: Pairs| -> Vec<(usize, f64)> {
                pairs
                    .iter()
                    .map(|&(k, bits)| (k, f64::from_bits(bits)))
                    .collect()
            };
            StepResult {
                fraction: f64::from_bits(fraction),
                included,
                row_coverage: f64::from_bits(row_coverage),
                per_k: floats(per_k),
                agreement_vs_full: floats(agreement),
                kmeans_iterations,
            }
        };
        let report = |steps, selected| PartialMiningReport {
            steps,
            selected,
            epsilon: f64::from_bits(0x3fa999999999999a),
        };
        let log = small_log();
        #[rustfmt::skip]
        let horizontal = report(vec![
            step(0x3fc999999999999a, 12, 0x3fe226d8920c2bae,
                &[(8, 0x3fe14d0ea9a32da8), (12, 0x3fe29aa2bbafac5d), (16, 0x3fe38057a052c65b)],
                &[(8, 0x3fd9b0e24931b51d), (12, 0x3fdc72b817f1571b), (16, 0x3fd98bf1e102fa70)], 120),
            step(0x3fd999999999999a, 24, 0x3fea66332eee93e2,
                &[(8, 0x3fe179d08ebc3ced), (12, 0x3fe336b61172d329), (16, 0x3fe41be5413761c3)],
                &[(8, 0x3fdf2a760c938923), (12, 0x3fe195a17a680cd5), (16, 0x3fe0e48ab1a7a4f3)], 101),
            step(0x3ff0000000000000, 60, 0x3ff0000000000000,
                &[(8, 0x3fe209c33a350d47), (12, 0x3fe422e3d1eecda9), (16, 0x3fe560b2ed2c4409)],
                &[(8, 0x3ff0000000000000), (12, 0x3ff0000000000000), (16, 0x3ff0000000000000)], 132),
        ], 1);
        assert_eq!(HorizontalPartialMiner::default().run(&log), horizontal);
        #[rustfmt::skip]
        let vertical = report(vec![
            step(0x3fd0000000000000, 100, 0x3fcf5d47c5fb2a44,
                &[(6, 0x3fe0772af148baef), (8, 0x3fe053a37a5d460d), (10, 0x3fe1663e7e77466d)], &[], 23),
            step(0x3fe0000000000000, 200, 0x3fe012ac3904c065,
                &[(6, 0x3fdfe88eadfa2ad7), (8, 0x3fe0754539579948), (10, 0x3fe1774bbd969324)], &[], 23),
            step(0x3ff0000000000000, 400, 0x3ff0000000000000,
                &[(6, 0x3fde72c8256b3e16), (8, 0x3fdf3a5b12fa95d7), (10, 0x3fdfd331144dd1ce)], &[], 48),
        ], 2);
        assert_eq!(VerticalPartialMiner::default().run(&log), vertical);
    }

    #[test]
    #[should_panic(expected = "empty log")]
    fn rejects_empty_log() {
        let log = ExamLog::new(vec![], vec![]).unwrap();
        let _ = HorizontalPartialMiner::default().run(&log);
    }
}

#[cfg(test)]
mod agreement_tests {
    use super::*;
    use ada_dataset::synthetic::{generate, SyntheticConfig};

    #[test]
    fn agreement_is_one_on_full_step_and_grows_with_subset_size() {
        let log = generate(&SyntheticConfig::small(), 11);
        let report = HorizontalPartialMiner::default().run(&log);
        let agreements: Vec<f64> = report
            .steps
            .iter()
            .map(|s| s.mean_agreement().expect("horizontal miner computes ARI"))
            .collect();
        let full = *agreements.last().unwrap();
        assert!(
            (full - 1.0).abs() < 1e-9,
            "full step must agree with itself"
        );
        // The selected (acceptable) step approximates the full partition
        // substantially better than chance.
        assert!(
            agreements[report.selected] > 0.2,
            "selected-step agreement too low: {agreements:?}"
        );
        // Bigger subsets approximate the reference at least as well.
        assert!(
            agreements[0] <= agreements[report.selected] + 0.05,
            "agreement should not degrade with more features: {agreements:?}"
        );
    }

    #[test]
    fn vertical_miner_reports_no_agreement() {
        let log = generate(&SyntheticConfig::small(), 11);
        let report = VerticalPartialMiner::default().run(&log);
        assert!(report.steps.iter().all(|s| s.mean_agreement().is_none()));
    }
}
