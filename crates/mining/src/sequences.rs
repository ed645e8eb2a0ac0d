//! Sequential-pattern mining over per-patient visit timelines.
//!
//! MeTA (the paper's reference \[2\]) characterizes *treatments* — ordered
//! examination histories — not just co-occurrence sets. This module
//! mines frequent *sequences*: ordered item lists that appear, in order
//! and in distinct visits, within at least `min_support` patients'
//! timelines (an AprioriAll-style level-wise miner). Sequences feed the
//! treatment-compliance end-goal ("which examinations follow which").

use std::collections::HashMap;

use super::patterns::{Item, Itemset};

/// One patient's timeline: visits in chronological order, each a sorted
/// set of items.
pub type VisitSequence = Vec<Itemset>;

/// A frequent sequential pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrequentSequence {
    /// The ordered items (each step matched in a *distinct, later*
    /// visit).
    pub sequence: Vec<Item>,
    /// Number of timelines containing the sequence.
    pub support: usize,
}

impl FrequentSequence {
    /// Relative support given the timeline count.
    pub fn relative_support(&self, num_sequences: usize) -> f64 {
        if num_sequences == 0 {
            0.0
        } else {
            self.support as f64 / num_sequences as f64
        }
    }
}

/// True when `pattern` occurs in `timeline`: items matched in strictly
/// increasing visit positions.
pub fn contains_sequence(timeline: &VisitSequence, pattern: &[Item]) -> bool {
    let mut visit_idx = 0usize;
    'outer: for item in pattern {
        while visit_idx < timeline.len() {
            let visit = &timeline[visit_idx];
            visit_idx += 1;
            if visit.binary_search(item).is_ok() {
                continue 'outer;
            }
        }
        return false;
    }
    true
}

/// Mines all sequences of length ≤ `max_len` with support ≥
/// `min_support`, in canonical order (length, then lexicographic).
///
/// # Panics
/// Panics when `min_support == 0` or `max_len == 0`.
pub fn mine(
    timelines: &[VisitSequence],
    min_support: usize,
    max_len: usize,
) -> Vec<FrequentSequence> {
    assert!(min_support >= 1, "min_support must be at least 1");
    assert!(max_len >= 1, "max_len must be at least 1");

    // L1: frequent single items (timeline-level support).
    let mut item_support: HashMap<Item, usize> = HashMap::new();
    for timeline in timelines {
        let mut seen: Vec<Item> = timeline.iter().flatten().copied().collect();
        seen.sort_unstable();
        seen.dedup();
        for item in seen {
            *item_support.entry(item).or_insert(0) += 1;
        }
    }
    let mut frequent_items: Vec<Item> = item_support
        .iter()
        .filter(|&(_, &c)| c >= min_support)
        .map(|(&i, _)| i)
        .collect();
    frequent_items.sort_unstable();

    let mut result: Vec<FrequentSequence> = frequent_items
        .iter()
        .map(|&i| FrequentSequence {
            sequence: vec![i],
            support: item_support[&i],
        })
        .collect();

    let mut current: Vec<Vec<Item>> = result.iter().map(|f| f.sequence.clone()).collect();
    let mut length = 1usize;
    while length < max_len && !current.is_empty() {
        // Candidate generation: extend every frequent sequence with every
        // frequent item (sequences, unlike itemsets, allow repeats —
        // "HbA1c then HbA1c again" is a real follow-up pattern).
        let mut next = Vec::new();
        for base in &current {
            for &item in &frequent_items {
                let mut candidate = base.clone();
                candidate.push(item);
                // Prune: the (k)-suffix must be frequent (downward
                // closure for sequences).
                let suffix = &candidate[1..];
                if !current.iter().any(|s| s == suffix) {
                    continue;
                }
                let support = timelines
                    .iter()
                    .filter(|t| contains_sequence(t, &candidate))
                    .count();
                if support >= min_support {
                    next.push(FrequentSequence {
                        sequence: candidate,
                        support,
                    });
                }
            }
        }
        current = next.iter().map(|f| f.sequence.clone()).collect();
        result.extend(next);
        length += 1;
    }

    result.sort_by(|a, b| {
        a.sequence
            .len()
            .cmp(&b.sequence.len())
            .then_with(|| a.sequence.cmp(&b.sequence))
    });
    result
}

/// The confidence of the sequential rule `prefix ⇒ next`: among
/// timelines containing `prefix`, the fraction that continue with
/// `next` afterwards. Returns 0.0 when the prefix never occurs.
pub fn sequence_confidence(timelines: &[VisitSequence], prefix: &[Item], next: Item) -> f64 {
    let mut with_prefix = 0usize;
    let mut continued = 0usize;
    let mut full: Vec<Item> = prefix.to_vec();
    full.push(next);
    for t in timelines {
        if contains_sequence(t, prefix) {
            with_prefix += 1;
            if contains_sequence(t, &full) {
                continued += 1;
            }
        }
    }
    if with_prefix == 0 {
        0.0
    } else {
        continued as f64 / with_prefix as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timelines() -> Vec<VisitSequence> {
        vec![
            // patient 0: a -> b -> c
            vec![vec![0], vec![1], vec![2]],
            // patient 1: a -> b (same visit has d)
            vec![vec![0, 3], vec![1]],
            // patient 2: b -> a (reversed)
            vec![vec![1], vec![0]],
            // patient 3: a -> a -> b (repeat)
            vec![vec![0], vec![0], vec![1]],
        ]
    }

    #[test]
    fn containment_requires_order_and_distinct_visits() {
        let t: VisitSequence = vec![vec![0, 1], vec![2]];
        assert!(contains_sequence(&t, &[0, 2]));
        assert!(contains_sequence(&t, &[1, 2]));
        // 0 and 1 share a visit: no "0 then 1" sequence.
        assert!(!contains_sequence(&t, &[0, 1]));
        assert!(!contains_sequence(&t, &[2, 0]));
        assert!(contains_sequence(&t, &[]));
        assert!(contains_sequence(&t, &[2]));
    }

    #[test]
    fn mines_ordered_patterns() {
        let result = mine(&timelines(), 2, 3);
        let find = |seq: &[Item]| result.iter().find(|f| f.sequence == seq).map(|f| f.support);
        assert_eq!(find(&[0]), Some(4));
        assert_eq!(find(&[1]), Some(4));
        // a -> b in patients 0, 1, 3.
        assert_eq!(find(&[0, 1]), Some(3));
        // b -> a only in patient 2: below support 2.
        assert_eq!(find(&[1, 0]), None);
    }

    #[test]
    fn repeats_are_found() {
        let result = mine(&timelines(), 1, 2);
        let rep = result.iter().find(|f| f.sequence == vec![0, 0]);
        assert_eq!(rep.map(|f| f.support), Some(1)); // patient 3 only
    }

    #[test]
    fn max_len_caps_pattern_length() {
        let result = mine(&timelines(), 1, 2);
        assert!(result.iter().all(|f| f.sequence.len() <= 2));
        let longer = mine(&timelines(), 1, 3);
        assert!(longer.iter().any(|f| f.sequence.len() == 3));
    }

    #[test]
    fn downward_closure_for_sequences() {
        let result = mine(&timelines(), 1, 3);
        let supports: HashMap<&Vec<Item>, usize> =
            result.iter().map(|f| (&f.sequence, f.support)).collect();
        for f in &result {
            if f.sequence.len() >= 2 {
                let prefix = f.sequence[..f.sequence.len() - 1].to_vec();
                let suffix = f.sequence[1..].to_vec();
                assert!(supports[&prefix] >= f.support);
                assert!(supports[&suffix] >= f.support);
            }
        }
    }

    #[test]
    fn sequence_rule_confidence() {
        let ts = timelines();
        // P(continue with b | saw a) = 3 of 4 timelines with a.
        let c = sequence_confidence(&ts, &[0], 1);
        assert!((c - 0.75).abs() < 1e-12);
        assert_eq!(sequence_confidence(&ts, &[9], 1), 0.0);
    }

    #[test]
    fn empty_inputs() {
        assert!(mine(&[], 1, 3).is_empty());
        let empty_timelines: Vec<VisitSequence> = vec![vec![], vec![]];
        assert!(mine(&empty_timelines, 1, 3).is_empty());
    }

    #[test]
    #[should_panic(expected = "min_support")]
    fn rejects_zero_support() {
        let _ = mine(&[], 0, 2);
    }
}
