//! Seeded synthetic generator for the paper's diabetic-patient cohort.
//!
//! The real dataset behind the paper's Section IV (6,380 patients, 159
//! examination types, 95,788 records over one year, ages 4–95) is
//! proprietary. Every experiment in the paper, however, depends only on
//! aggregate properties of that log, which this generator reproduces:
//!
//! * **scale** — the exact patient/exam-type counts and the record count
//!   within a small tolerance (per-patient volumes are Poisson draws);
//! * **long-tail exam frequency** — a Zipf-like popularity profile,
//!   calibrated so the top ~20% of exam types cover ≈70% of raw records
//!   and the top ~40% cover ≈85%, the two coverage points the paper
//!   publishes for its horizontal partial-mining experiment;
//! * **latent cluster structure** — each patient is drawn from one of
//!   eight condition *profiles* (well-controlled, cardiovascular,
//!   retinopathy, nephropathy, neuropathy, foot care, multi-morbid
//!   elderly, early-onset) that boost the exam groups monitoring that
//!   condition; the paper's optimizer auto-selects K = 8 on its data,
//!   and the synthetic cohort plants a matching number of latent groups;
//! * **correlated exams** — panel partners co-occur within the same
//!   visit day, producing the co-prescription association rules the
//!   pattern-mining component looks for, and explaining (as the paper
//!   conjectures) why clustering quality survives dropping the rare
//!   exam-type tail.
//!
//! Everything is deterministic given `(config, seed)`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dataset::ExamLog;
use crate::date::Date;
use crate::record::{ExamRecord, ExamType, ExamTypeId, Patient, PatientId};
use crate::sampling::{normal, poisson, AliasTable};
use crate::taxonomy::ConditionGroup;

/// A latent patient condition profile.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Human-readable profile name.
    pub name: String,
    /// Mixture weight of this profile in the cohort (weights are
    /// normalized internally).
    pub weight: f64,
    /// Mean number of exam records for a patient of this profile, before
    /// global rescaling toward `target_records`.
    pub mean_records: f64,
    /// Condition groups whose exams this profile over-prescribes.
    pub focus: Vec<ConditionGroup>,
    /// Mean patient age for this profile.
    pub age_mean: f64,
    /// Age standard deviation for this profile.
    pub age_std: f64,
}

/// The eight default condition profiles planted in the synthetic cohort.
pub fn default_profiles() -> Vec<Profile> {
    use ConditionGroup::*;
    let p =
        |name: &str, weight, mean_records, focus: &[ConditionGroup], age_mean, age_std| Profile {
            name: name.to_owned(),
            weight,
            mean_records,
            focus: focus.to_vec(),
            age_mean,
            age_std,
        };
    vec![
        p("well-controlled", 0.30, 9.0, &[GlycemicControl], 58.0, 12.0),
        p(
            "cardiovascular-risk",
            0.12,
            17.0,
            &[Cardiovascular, Lipid],
            66.0,
            10.0,
        ),
        p("retinopathy", 0.10, 15.0, &[Ophthalmic], 62.0, 11.0),
        p("nephropathy", 0.10, 16.0, &[Renal, GeneralLab], 64.0, 10.0),
        p("neuropathy", 0.08, 14.0, &[Neurological], 61.0, 11.0),
        p("foot-care", 0.08, 15.0, &[Podiatric, Imaging], 63.0, 10.0),
        p(
            "multi-morbid-elderly",
            0.12,
            26.0,
            &[Cardiovascular, Renal, Imaging],
            78.0,
            7.0,
        ),
        p(
            "early-onset",
            0.10,
            18.0,
            &[GlycemicControl, Specialist],
            16.0,
            6.0,
        ),
    ]
}

/// Configuration of the synthetic cohort generator.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticConfig {
    /// Number of patients (paper: 6,380).
    pub num_patients: usize,
    /// Number of examination types in the catalog (paper: 159).
    pub num_exam_types: usize,
    /// Target total record count (paper: 95,788); realized totals are
    /// Poisson-distributed around this value.
    pub target_records: usize,
    /// Calendar year the one-year observation window covers.
    pub year: u16,
    /// Exponent of the global exam-type popularity profile, a *shifted*
    /// Zipf `1/(rank + shift)^s`: the shift flattens the head (no single
    /// ubiquitous exam dominates every patient vector, as in real
    /// hospital logs) while the exponent keeps the tail long.
    pub zipf_exponent: f64,
    /// Head-flattening shift, as a fraction of the catalog size.
    pub zipf_shift_fraction: f64,
    /// Multiplicative boost a profile applies to exams in its focus
    /// condition groups. The boost only applies *outside* the generic
    /// head (see `generic_head_fraction`): routine exams are prescribed
    /// uniformly to every profile, and condition profiles express
    /// themselves through specialist exams further down the catalog.
    pub bundle_boost: f64,
    /// Fraction of top catalog ranks treated as the generic head, where
    /// no profile boost applies.
    pub generic_head_fraction: f64,
    /// Extra boost for a profile's *signature* exams: focus-group exams
    /// whose catalog rank falls inside the signature band. Signatures
    /// are what make condition profiles separable — and the band is
    /// placed so that their *realized* frequency ranks land between the
    /// 20% and 40% cuts of the paper's partial-mining experiment:
    /// retained by a top-40% feature subset, lost by a top-20% one.
    pub signature_boost: f64,
    /// Signature band start, as a fraction of the catalog size (on base
    /// catalog ranks).
    pub signature_band_lo: f64,
    /// Signature band end (exclusive), as a fraction of the catalog
    /// size.
    pub signature_band_hi: f64,
    /// Probability that drawing a panel-leader exam also emits its panel
    /// partner within the same visit.
    pub panel_prob: f64,
    /// Fraction of patients that are *episodic*: followed elsewhere for
    /// routine care, they only appear in this log for specific
    /// specialist work-ups and therefore draw exclusively from the rare
    /// tail of the catalog. Under a top-frequency feature restriction
    /// their VSM vectors vanish — the property that makes the paper's
    /// overall similarity *decrease* as exam types are dropped.
    pub episodic_fraction: f64,
    /// Fraction of top catalog ranks masked out for episodic patients.
    pub episodic_mask: f64,
    /// The latent condition profiles.
    pub profiles: Vec<Profile>,
}

impl SyntheticConfig {
    /// The paper-scale cohort: 6,380 patients, 159 exam types, ~95,788
    /// records over the year 2015, ages 4–95.
    pub fn paper() -> Self {
        Self {
            num_patients: 6_380,
            num_exam_types: 159,
            target_records: 95_788,
            year: 2015,
            zipf_exponent: 2.5,
            zipf_shift_fraction: 0.06,
            bundle_boost: 6.0,
            generic_head_fraction: 0.20,
            signature_boost: 60.0,
            signature_band_lo: 0.28,
            signature_band_hi: 0.50,
            panel_prob: 0.5,
            episodic_fraction: 0.25,
            episodic_mask: 0.28,
            profiles: default_profiles(),
        }
    }

    /// A down-scaled cohort (~400 patients) for fast tests and doc
    /// examples; preserves the distributional shape of [`paper`].
    ///
    /// [`paper`]: SyntheticConfig::paper
    pub fn small() -> Self {
        Self {
            num_patients: 400,
            num_exam_types: 60,
            target_records: 6_000,
            ..Self::paper()
        }
    }
}

/// A generated cohort together with its latent ground truth.
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    /// The examination log.
    pub log: ExamLog,
    /// For each patient, the index (into `profile_names`) of the latent
    /// profile the patient was drawn from. Useful for validating that
    /// clustering recovers planted structure.
    pub true_profile: Vec<usize>,
    /// Names of the latent profiles, aligned with `true_profile` values.
    pub profile_names: Vec<String>,
    /// For each patient, whether they are an episodic (specialist-only)
    /// patient drawing exclusively from the rare exam tail.
    pub episodic: Vec<bool>,
}

/// Generates an examination log (see module docs). Deterministic in
/// `(config, seed)`.
pub fn generate(config: &SyntheticConfig, seed: u64) -> ExamLog {
    generate_with_truth(config, seed).log
}

/// Generates an examination log plus its latent profile assignment.
///
/// # Panics
/// Panics when the configuration is degenerate (no patients, fewer exam
/// types than condition groups, empty or zero-weight profile list).
pub fn generate_with_truth(config: &SyntheticConfig, seed: u64) -> SyntheticDataset {
    assert!(config.num_patients > 0, "cohort needs at least one patient");
    assert!(
        config.num_exam_types >= ConditionGroup::ALL.len(),
        "catalog needs at least one exam per condition group"
    );
    assert!(!config.profiles.is_empty(), "need at least one profile");

    let mut rng = StdRng::seed_from_u64(seed);
    let catalog = build_catalog(config.num_exam_types);
    let popularity = global_popularity(&catalog, config.zipf_exponent, config.zipf_shift_fraction);
    let panel_partner = panel_partners(&catalog);

    // Per-profile exam-type samplers: global popularity, boosted on the
    // profile's focus groups. The episodic variant masks out the top
    // catalog ranks (episodic patients never undergo routine exams in
    // this log).
    let mask_count = ((config.episodic_mask * catalog.len() as f64) as usize)
        .min(catalog.len().saturating_sub(1));
    // Signature band: focus exams in the configured catalog-rank band
    // get the strong signature boost (see `SyntheticConfig`).
    let sig_lo = (config.signature_band_lo * catalog.len() as f64) as usize;
    let sig_hi = (config.signature_band_hi * catalog.len() as f64) as usize;
    let head_cut = (config.generic_head_fraction * catalog.len() as f64) as usize;
    let build_tables = |masked: bool| -> Vec<AliasTable> {
        config
            .profiles
            .iter()
            .map(|profile| {
                let weights: Vec<f64> = catalog
                    .iter()
                    .zip(&popularity)
                    .enumerate()
                    .map(|(rank, (exam, &w))| {
                        if masked && rank < mask_count {
                            0.0
                        } else if rank >= head_cut && profile.focus.contains(&exam.group) {
                            if (sig_lo..sig_hi).contains(&rank) {
                                w * config.signature_boost
                            } else {
                                w * config.bundle_boost
                            }
                        } else {
                            w
                        }
                    })
                    .collect();
                AliasTable::new(&weights)
            })
            .collect()
    };
    let profile_tables = build_tables(false);
    let episodic_tables = if config.episodic_fraction > 0.0 {
        Some(build_tables(true))
    } else {
        None
    };

    let profile_weights: Vec<f64> = config.profiles.iter().map(|p| p.weight).collect();
    let profile_picker = AliasTable::new(&profile_weights);

    // Rescale per-profile record means so the expected total matches
    // `target_records`.
    let total_weight: f64 = profile_weights.iter().sum();
    let weighted_mean: f64 = config
        .profiles
        .iter()
        .map(|p| p.weight / total_weight * p.mean_records)
        .sum();
    // Episodic patients contribute half volume on average; fold that
    // into the rescaling so the realized total still hits the target.
    let episodic_volume = 1.0 - config.episodic_fraction * 0.5;
    let scale = config.target_records as f64
        / (config.num_patients as f64 * weighted_mean * episodic_volume);

    let days_in_year = if crate::date::is_leap(config.year) {
        366u16
    } else {
        365
    };

    let mut patients = Vec::with_capacity(config.num_patients);
    let mut true_profile = Vec::with_capacity(config.num_patients);
    let mut episodic = Vec::with_capacity(config.num_patients);
    for i in 0..config.num_patients {
        let pi = profile_picker.sample(&mut rng);
        let profile = &config.profiles[pi];
        let age = normal(&mut rng, profile.age_mean, profile.age_std)
            .round()
            .clamp(4.0, 95.0) as u16;
        patients.push(Patient::new(PatientId(i as u32), age).expect("age clamped to valid range"));
        true_profile.push(pi);
        episodic.push(episodic_tables.is_some() && rng.gen::<f64>() < config.episodic_fraction);
    }

    let mut log = ExamLog::new(patients, catalog).expect("generator produces dense ids");

    for i in 0..config.num_patients {
        let pi = true_profile[i];
        let profile = &config.profiles[pi];
        // Episodic patients have roughly half the contact volume.
        let volume_factor = if episodic[i] { 0.5 } else { 1.0 };
        let target =
            poisson(&mut rng, profile.mean_records * scale * volume_factor).clamp(1, 250) as usize;

        // Visit days for this patient: roughly one visit per 3 records.
        let n_visits = (target / 3).clamp(1, 60);
        let mut visit_days: Vec<u16> = (0..n_visits)
            .map(|_| rng.gen_range(1..=days_in_year))
            .collect();
        visit_days.sort_unstable();
        visit_days.dedup();

        let table = if episodic[i] {
            &episodic_tables
                .as_ref()
                .expect("episodic flag implies tables")[pi]
        } else {
            &profile_tables[pi]
        };
        let mut emitted = 0usize;
        while emitted < target {
            let exam = ExamTypeId(table.sample(&mut rng) as u32);
            let day = visit_days[rng.gen_range(0..visit_days.len())];
            let date = Date::from_ordinal(config.year, day).expect("day within year");
            log.push_record(ExamRecord::new(PatientId(i as u32), exam, date))
                .expect("generated ids are valid");
            emitted += 1;
            // Panel co-prescription: the partner exam lands in the same
            // visit with probability `panel_prob`. Episodic patients
            // never receive masked (routine) partners.
            if emitted < target && rng.gen::<f64>() < config.panel_prob {
                if let Some(partner) = panel_partner[exam.index()] {
                    if !(episodic[i] && partner.index() < mask_count) {
                        log.push_record(ExamRecord::new(PatientId(i as u32), partner, date))
                            .expect("generated ids are valid");
                        emitted += 1;
                    }
                }
            }
        }
    }

    SyntheticDataset {
        log,
        true_profile,
        profile_names: config.profiles.iter().map(|p| p.name.clone()).collect(),
        episodic,
    }
}

/// Curated leading exam names per condition group; deeper exams get
/// generated panel names.
fn curated_names(group: ConditionGroup) -> &'static [&'static str] {
    use ConditionGroup::*;
    match group {
        GlycemicControl => &[
            "Glycated hemoglobin (HbA1c)",
            "Fasting plasma glucose",
            "Diabetologist visit",
            "Oral glucose tolerance test",
            "Self-monitoring review",
        ],
        GeneralLab => &[
            "Complete blood count",
            "Blood urea nitrogen",
            "Electrolyte panel",
            "Liver function panel",
            "C-reactive protein",
        ],
        Cardiovascular => &[
            "Electrocardiogram",
            "Blood pressure monitoring",
            "Echocardiography",
            "Cardiology consultation",
            "Exercise stress test",
        ],
        Ophthalmic => &[
            "Fundus examination",
            "Visual acuity test",
            "Fluorescein angiography",
            "Tonometry",
            "Retinal photography",
        ],
        Renal => &[
            "Serum creatinine",
            "Urine microalbumin",
            "Estimated GFR",
            "Urinalysis",
            "Nephrology consultation",
        ],
        Neurological => &[
            "Monofilament sensitivity test",
            "Nerve conduction study",
            "Vibration perception threshold",
            "Neurology consultation",
            "Autonomic function test",
        ],
        Podiatric => &[
            "Diabetic foot screening",
            "Podiatry consultation",
            "Ankle-brachial index",
            "Foot ulcer assessment",
            "Orthotic evaluation",
        ],
        Lipid => &[
            "Total cholesterol",
            "HDL cholesterol",
            "LDL cholesterol",
            "Triglycerides",
            "Lipoprotein(a)",
        ],
        Imaging => &[
            "Abdominal ultrasound",
            "Carotid doppler",
            "Chest radiography",
            "Lower-limb doppler",
            "Renal ultrasound",
        ],
        Specialist => &[
            "Dietetic consultation",
            "Endocrinology consultation",
            "Dermatology consultation",
            "Dental examination",
            "Psychological assessment",
        ],
    }
}

/// Paper-scale group sizes over a 159-type catalog; other catalog sizes
/// scale these proportionally.
const GROUP_SIZES_159: [usize; 10] = [12, 30, 22, 14, 16, 12, 10, 8, 15, 20];

/// Builds an examination catalog of `n` types distributed across the ten
/// condition groups proportionally to the paper-scale allocation.
///
/// # Panics
/// Panics when `n` is smaller than the number of condition groups.
pub fn build_catalog(n: usize) -> Vec<ExamType> {
    let groups = ConditionGroup::ALL;
    assert!(n >= groups.len(), "need at least one exam per group");
    // Largest-remainder apportionment of n over the reference sizes.
    let total: usize = GROUP_SIZES_159.iter().sum();
    let mut alloc = [0usize; 10];
    let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(10);
    let mut assigned = 0usize;
    for (g, &size) in GROUP_SIZES_159.iter().enumerate() {
        let exact = n as f64 * size as f64 / total as f64;
        let floor = (exact.floor() as usize).max(1);
        alloc[g] = floor;
        assigned += floor;
        remainders.push((g, exact - floor as f64));
    }
    remainders.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite remainders"));
    let mut idx = 0usize;
    while assigned < n {
        alloc[remainders[idx % remainders.len()].0] += 1;
        assigned += 1;
        idx += 1;
    }
    while assigned > n {
        // Shave from the largest allocations (keeping ≥ 1 per group).
        let g = (0..10).max_by_key(|&g| alloc[g]).expect("ten groups exist");
        assert!(alloc[g] > 1, "cannot shrink catalog below one exam/group");
        alloc[g] -= 1;
        assigned -= 1;
    }

    // Interleave: the k-th exam of every group sits at depth k, so the
    // leading exam of each group is globally common and depth grows rare.
    let mut slots: Vec<(usize, usize)> = Vec::with_capacity(n); // (depth, group)
    for (g, &count) in alloc.iter().enumerate() {
        for depth in 0..count {
            slots.push((depth, g));
        }
    }
    slots.sort_unstable();

    slots
        .into_iter()
        .enumerate()
        .map(|(id, (depth, g))| {
            let group = groups[g];
            let curated = curated_names(group);
            let name = if depth < curated.len() {
                curated[depth].to_owned()
            } else {
                format!("{group} panel {}", depth + 1 - curated.len())
            };
            ExamType::new(ExamTypeId(id as u32), name, group)
        })
        .collect()
}

/// Global popularity weights: shifted Zipf `1/(rank + shift)^s` over
/// the catalog's id order (which [`build_catalog`] arranges from common
/// to rare). The shift flattens the head; see [`SyntheticConfig`].
fn global_popularity(catalog: &[ExamType], exponent: f64, shift_fraction: f64) -> Vec<f64> {
    let n = catalog.len();
    let shift = (shift_fraction * n as f64).max(0.0);
    (1..=n)
        .map(|rank| (rank as f64 + shift).powf(-exponent))
        .collect()
}

/// Panel-partner map: within each condition group, exams pair up in id
/// order (1st↔2nd, 3rd↔4th, …); a trailing odd exam has no partner. The
/// partner relation is symmetric.
fn panel_partners(catalog: &[ExamType]) -> Vec<Option<ExamTypeId>> {
    let mut partner = vec![None; catalog.len()];
    for group in ConditionGroup::ALL {
        let members: Vec<usize> = catalog
            .iter()
            .enumerate()
            .filter(|(_, e)| e.group == group)
            .map(|(i, _)| i)
            .collect();
        for pair in members.chunks_exact(2) {
            partner[pair[0]] = Some(ExamTypeId(pair[1] as u32));
            partner[pair[1]] = Some(ExamTypeId(pair[0] as u32));
        }
    }
    partner
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    #[test]
    fn catalog_paper_scale() {
        let catalog = build_catalog(159);
        assert_eq!(catalog.len(), 159);
        for (i, e) in catalog.iter().enumerate() {
            assert_eq!(e.id.index(), i);
        }
        // Every group represented.
        for g in ConditionGroup::ALL {
            assert!(catalog.iter().any(|e| e.group == g), "missing group {g}");
        }
        // Names unique.
        let mut names: Vec<&str> = catalog.iter().map(|e| e.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 159, "duplicate exam names");
    }

    #[test]
    fn catalog_small_sizes() {
        for n in [10, 23, 60, 159, 300] {
            let catalog = build_catalog(n);
            assert_eq!(catalog.len(), n, "size {n}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one exam per group")]
    fn catalog_rejects_tiny() {
        let _ = build_catalog(5);
    }

    #[test]
    fn panel_partner_symmetric() {
        let catalog = build_catalog(60);
        let partner = panel_partners(&catalog);
        for (i, p) in partner.iter().enumerate() {
            if let Some(j) = p {
                assert_eq!(partner[j.index()], Some(ExamTypeId(i as u32)));
                assert_eq!(catalog[i].group, catalog[j.index()].group);
            }
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let cfg = SyntheticConfig::small();
        let a = generate(&cfg, 7);
        let b = generate(&cfg, 7);
        assert_eq!(a, b);
        let c = generate(&cfg, 8);
        assert_ne!(a.records(), c.records());
    }

    #[test]
    fn small_cohort_shape() {
        let cfg = SyntheticConfig::small();
        let data = generate_with_truth(&cfg, 42);
        assert_eq!(data.log.num_patients(), cfg.num_patients);
        assert_eq!(data.log.num_exam_types(), cfg.num_exam_types);
        assert_eq!(data.true_profile.len(), cfg.num_patients);
        assert_eq!(data.profile_names.len(), cfg.profiles.len());
        let total = data.log.num_records() as f64;
        let target = cfg.target_records as f64;
        assert!(
            (total - target).abs() / target < 0.10,
            "records {total} vs target {target}"
        );
        // All ages in the paper's range.
        for p in data.log.patients() {
            assert!((4..=95).contains(&p.age));
        }
        // Dates confined to the configured year.
        let (lo, hi) = data.log.date_range().unwrap();
        assert_eq!(lo.year(), cfg.year);
        assert_eq!(hi.year(), cfg.year);
    }

    #[test]
    fn long_tail_coverage_points() {
        // The property the paper's partial-mining experiment rests on:
        // top 20% of exam types ≈ 70% of rows, top 40% ≈ 85%.
        let cfg = SyntheticConfig::small();
        let log = generate(&cfg, 1);
        let c20 = stats::coverage_at_fraction(&log, 0.20);
        let c40 = stats::coverage_at_fraction(&log, 0.40);
        assert!((0.50..=0.72).contains(&c20), "coverage@20% = {c20}");
        assert!((0.75..=0.90).contains(&c40), "coverage@40% = {c40}");
        assert!(c40 > c20);
    }

    #[test]
    fn profiles_boost_their_focus_groups() {
        let cfg = SyntheticConfig::small();
        let data = generate_with_truth(&cfg, 3);
        let taxonomy = data.log.taxonomy();
        // Compare cardiovascular share between cardiovascular-risk
        // patients and well-controlled patients.
        let mut share = vec![(0usize, 0usize); cfg.profiles.len()]; // (cardio, total)
        for r in data.log.records() {
            let pi = data.true_profile[r.patient.index()];
            share[pi].1 += 1;
            if taxonomy.group_of(r.exam) == Some(ConditionGroup::Cardiovascular) {
                share[pi].0 += 1;
            }
        }
        let frac = |pi: usize| share[pi].0 as f64 / share[pi].1.max(1) as f64;
        let cardio_profile = cfg
            .profiles
            .iter()
            .position(|p| p.name == "cardiovascular-risk")
            .unwrap();
        let well = cfg
            .profiles
            .iter()
            .position(|p| p.name == "well-controlled")
            .unwrap();
        assert!(
            frac(cardio_profile) > 1.5 * frac(well),
            "cardio share {} vs well-controlled {}",
            frac(cardio_profile),
            frac(well)
        );
    }

    #[test]
    fn sparsity_is_inherent() {
        // The paper stresses the log's "inherently sparse distribution".
        let cfg = SyntheticConfig::small();
        let log = generate(&cfg, 5);
        let s = stats::summarize(&log);
        assert!(s.sparsity > 0.5, "sparsity = {}", s.sparsity);
        assert!(
            s.exam_frequency_gini > 0.4,
            "gini = {}",
            s.exam_frequency_gini
        );
    }
}

#[cfg(test)]
mod slow_tests {
    use super::*;
    use crate::stats;

    /// Paper-scale calibration check; run explicitly with `--ignored`.
    #[test]
    #[ignore = "paper-scale generation (~100k records); run with --ignored"]
    fn paper_scale_calibration() {
        let cfg = SyntheticConfig::paper();
        let log = generate(&cfg, 42);
        assert_eq!(log.num_patients(), 6_380);
        assert_eq!(log.num_exam_types(), 159);
        let total = log.num_records() as f64;
        assert!(
            (total - 95_788.0).abs() / 95_788.0 < 0.05,
            "records {total}"
        );
        let c20 = stats::coverage_at_fraction(&log, 0.20);
        let c40 = stats::coverage_at_fraction(&log, 0.40);
        assert!((0.63..=0.77).contains(&c20), "coverage@20% = {c20}");
        assert!((0.85..=0.95).contains(&c40), "coverage@40% = {c40}");
        let s = stats::summarize(&log);
        assert_eq!(s.age_range, Some((4, 95)));
        assert!(s.sparsity > 0.8, "sparsity {}", s.sparsity);
    }
}
