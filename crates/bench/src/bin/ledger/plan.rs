//! Seeded inputs: everything a workload sends is a pure function of
//! `--seed`, so the same seed replays the same operation sequence and
//! the program under test receives only the generated inputs. (One
//! input is the same under every seed: see [`PAPER_DATA_SET`].)

use ada_dataset::synthetic::{generate, SyntheticConfig};
use ada_dataset::{ExamLog, ExamRecord, StreamOrder};
use ada_net::{CohortSpec, Preset, Request, WireJobSpec};
use ada_stream::{Fnv64, StreamMiningSpec};

/// The paper's cohort shape (6,380 × 159 × 95,788).
pub const PAPER: Shape = Shape {
    patients: 6_380,
    exam_types: 159,
    records: 95_788,
};

/// Cohort size multiplier of the `ingest_feed` streams.
pub const INGEST_SCALE: usize = 3;

/// Bounded-disorder block of every fed stream (within the 7-day
/// lateness bound at these record densities, so nothing is dropped
/// late and the sealed state is delivery-order independent).
pub const DISORDER: usize = 6;

/// A cohort's dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub patients: usize,
    pub exam_types: usize,
    pub records: usize,
}

impl Shape {
    /// The same catalog with `factor` times the patients and records.
    pub fn scaled(self, factor: usize) -> Shape {
        Shape {
            patients: self.patients * factor,
            records: self.records * factor,
            ..self
        }
    }

    pub fn cohort(self, seed: u64) -> CohortSpec {
        CohortSpec {
            patients: self.patients,
            exam_types: self.exam_types,
            records: self.records,
            seed,
        }
    }

    /// Materialises the cohort exactly as `WireJobSpec::materialize`
    /// does on the server.
    pub fn generate(self, seed: u64) -> ExamLog {
        generate(
            &SyntheticConfig {
                num_patients: self.patients,
                num_exam_types: self.exam_types,
                target_records: self.records,
                ..SyntheticConfig::small()
            },
            seed,
        )
    }
}

/// SplitMix64: one 64-bit state, no dependency.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// A value derived from `seed` and a few indexes, independent of any
/// other derivation (wire seeds stay below 2^63: they travel as `i64`).
pub fn derive(seed: u64, salt: &str, a: u64, b: u64) -> u64 {
    let mut h = Fnv64::new();
    h.write(salt.as_bytes());
    h.write_u64(seed);
    h.write_u64(a);
    h.write_u64(b);
    Rng::new(h.finish()).next_u64() >> 1
}

/// The `i`-th small session of driver `lane` under `tag`: two
/// `Preset::Quick` to one `Preset::Signals`, each over its own small
/// cohort.
pub fn small_spec(seed: u64, tag: &str, lane: u64, i: u64) -> WireJobSpec {
    let mut spec = WireJobSpec::quick(
        format!("{tag}-{lane}-{i}"),
        CohortSpec::small(derive(seed, "small-cohort", lane, i)),
    );
    spec.seed = derive(seed, "small-seed", lane, i);
    if i % 3 == 2 {
        spec.preset = Preset::Signals;
    }
    spec
}

/// A `Preset::Quick` small session (the paced writer and the preload).
pub fn quick_spec(seed: u64, tag: &str, lane: u64, i: u64) -> WireJobSpec {
    let mut spec = small_spec(seed, tag, lane, i);
    spec.preset = Preset::Quick;
    spec
}

/// Distinct paper-scale specs a `paper_submit` run cycles through. Two
/// keeps the in-process reference runs of the oracle affordable (one
/// per core) while no connection repeats its previous cohort.
pub const PAPER_VARIANTS: u64 = 2;

/// What the two `paper_submit` cohorts are derived from, whatever
/// `--seed` is: they are the benchmark's fixed data set. Cohorts of one
/// shape cost 5.3 to 7.2 s a session when two share the two cores, so
/// cohorts drawn from the seed spread every gated number 10-25 % between
/// seeds; `--seed` varies the mining seeds instead.
const PAPER_DATA_SET: u64 = 1;

/// The `i`-th paper-preset session of connection `conn`; its name ends
/// in the variant it runs (see [`paper_variant_of`]).
pub fn paper_spec(seed: u64, conn: u64, i: u64) -> WireJobSpec {
    let variant = (conn + i) % PAPER_VARIANTS;
    let mut spec = WireJobSpec::quick(
        format!("paper-{conn}-{i}-v{variant}"),
        PAPER.cohort(derive(PAPER_DATA_SET, "paper-cohort", variant, 0)),
    );
    spec.preset = Preset::Paper;
    spec.seed = derive(seed, "paper-seed", variant, 0);
    spec
}

/// The variant a [`paper_spec`] session named `name` ran.
pub fn paper_variant_of(name: &str) -> usize {
    name.rsplit_once("-v")
        .and_then(|(_, variant)| variant.parse().ok())
        .expect("a paper session's name ends in its variant")
}

/// The mining knobs of every fed stream.
pub fn stream_spec(seed: u64, index: u64) -> StreamMiningSpec {
    StreamMiningSpec::quick()
        .k(8)
        .seed(derive(seed, "stream-seed", index, 0))
}

/// The delivery sequence of stream `index` over `log`.
pub fn stream_feed(log: &ExamLog, seed: u64, index: u64) -> Vec<ExamRecord> {
    StreamOrder::new(log, derive(seed, "stream-order", index, 0), DISORDER).collect()
}

/// The delivery sequence of `ingest_feed` stream `index`: its own
/// [`INGEST_SCALE`]-times-paper cohort in its own bounded disorder.
pub fn ingest_feed(seed: u64, index: u64) -> Vec<ExamRecord> {
    let log = PAPER
        .scaled(INGEST_SCALE)
        .generate(derive(seed, "ingest-cohort", index, 0));
    stream_feed(&log, seed, index)
}

/// One read of the `read_under_write` mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadKind {
    Results,
    Status,
    StreamQuery,
    PastSessions,
    Health,
    MetricsSnapshot,
}

/// The read mix, dealt from a seeded deck of twenty so that every
/// twenty reads hold exactly `Results` 60 % / `Status` 15 % /
/// `StreamQuery` 10 % / `PastSessions` 5 % / `Health` 5 % /
/// `MetricsSnapshot` 5 % — the mix's cost does not depend on the luck
/// of the draw, only its order does.
pub struct ReadMix {
    rng: Rng,
    deck: Vec<ReadKind>,
}

impl ReadMix {
    const DECK: [(ReadKind, usize); 6] = [
        (ReadKind::Results, 12),
        (ReadKind::Status, 3),
        (ReadKind::StreamQuery, 2),
        (ReadKind::PastSessions, 1),
        (ReadKind::Health, 1),
        (ReadKind::MetricsSnapshot, 1),
    ];

    pub fn new(seed: u64) -> Self {
        Self {
            rng: Rng::new(derive(seed, "reads", 0, 0)),
            deck: Vec::new(),
        }
    }

    /// The next read, the session-addressed ones over `preloaded` ids.
    pub fn next(&mut self, preloaded: &[u64], stream: &str) -> (ReadKind, Request) {
        if self.deck.is_empty() {
            self.deck = Self::DECK
                .iter()
                .flat_map(|&(kind, copies)| std::iter::repeat_n(kind, copies))
                .collect();
            for i in (1..self.deck.len()).rev() {
                self.deck.swap(i, self.rng.below(i as u64 + 1) as usize);
            }
        }
        let kind = self.deck.pop().expect("deck was just dealt");
        let session = preloaded[self.rng.below(preloaded.len() as u64) as usize];
        let request = match kind {
            ReadKind::Results => Request::Results { session },
            ReadKind::Status => Request::Status { session },
            ReadKind::StreamQuery => Request::StreamQuery {
                stream: stream.to_owned(),
            },
            ReadKind::PastSessions => Request::PastSessions,
            ReadKind::Health => Request::Health,
            ReadKind::MetricsSnapshot => Request::MetricsSnapshot,
        };
        (kind, request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::BATCH;
    use crate::WORKLOADS;

    /// Requests hashed per lane by [`sequence_hash`].
    const HASHED_OPS: u64 = 64;

    /// FNV-1a over the encoded bytes of the first requests each driver
    /// lane of `workload` would send under `seed`: equal seeds must give
    /// equal hashes, different seeds different ones. `ingest_shape` is the
    /// fed cohort's shape (tests pass a small one).
    fn sequence_hash(workload: &str, seed: u64, ingest_shape: Shape) -> Option<u64> {
        let mut h = Fnv64::new();
        let mut push = |request: Request| h.write(&request.encode(0));
        match workload {
            "paper_submit" => {
                for conn in 0..2 {
                    for i in 0..HASHED_OPS {
                        push(Request::Submit(paper_spec(seed, conn, i)));
                    }
                }
            }
            "small_mix" => {
                for lane in 0..8 {
                    for i in 0..HASHED_OPS {
                        push(Request::Submit(small_spec(seed, "mix", lane, i)));
                    }
                }
            }
            "ingest_feed" => {
                let log = ingest_shape.generate(derive(seed, "ingest-cohort", 0, 0));
                for index in 0..2 {
                    let feed = stream_feed(&log, seed, index);
                    for batch in feed.chunks(BATCH).take(HASHED_OPS as usize) {
                        push(Request::Ingest {
                            stream: format!("feed-{index}"),
                            records: batch.to_vec(),
                        });
                    }
                }
            }
            "read_under_write" => {
                let mut mix = ReadMix::new(seed);
                let preloaded: Vec<u64> = (1..=400).collect();
                for _ in 0..HASHED_OPS * 4 {
                    push(mix.next(&preloaded, "preload").1);
                }
                for i in 0..HASHED_OPS {
                    push(Request::Submit(quick_spec(seed, "writer", 0, i)));
                }
            }
            _ => return None,
        }
        Some(h.finish())
    }

    const TINY: Shape = Shape {
        patients: 120,
        exam_types: 20,
        records: 2_400,
    };

    #[test]
    fn same_seed_same_sequence_and_other_seed_other_sequence() {
        for workload in WORKLOADS {
            let a = sequence_hash(workload.name, 7, TINY).expect("known workload");
            let again = sequence_hash(workload.name, 7, TINY).expect("known workload");
            let b = sequence_hash(workload.name, 8, TINY).expect("known workload");
            assert_eq!(a, again, "{}: seed 7 replayed differently", workload.name);
            assert_ne!(a, b, "{}: seeds 7 and 8 collide", workload.name);
        }
        assert_eq!(sequence_hash("no_such_workload", 7, TINY), None);
    }

    #[test]
    fn read_mix_holds_its_shares_exactly_every_twenty_reads() {
        let mut mix = ReadMix::new(42);
        let kinds = [
            ReadKind::Results,
            ReadKind::Status,
            ReadKind::StreamQuery,
            ReadKind::PastSessions,
            ReadKind::Health,
            ReadKind::MetricsSnapshot,
        ];
        let mut orders = std::collections::BTreeSet::new();
        for _ in 0..50 {
            let mut counts = [0u32; 6];
            let mut order = Vec::new();
            for _ in 0..20 {
                let (kind, _) = mix.next(&[1, 2, 3], "s");
                let slot = kinds.iter().position(|k| *k == kind).unwrap();
                counts[slot] += 1;
                order.push(slot);
            }
            assert_eq!(counts, [12, 3, 2, 1, 1, 1]);
            orders.insert(order);
        }
        assert!(orders.len() > 40, "the deck is reshuffled every deal");
    }

    #[test]
    fn small_mix_is_two_quick_to_one_signals() {
        let presets: Vec<Preset> = (0..6).map(|i| small_spec(1, "t", 0, i).preset).collect();
        assert_eq!(
            presets,
            [
                Preset::Quick,
                Preset::Quick,
                Preset::Signals,
                Preset::Quick,
                Preset::Quick,
                Preset::Signals
            ]
        );
        assert!(small_spec(1, "t", 0, 0).seed < (1 << 63));
    }
}
