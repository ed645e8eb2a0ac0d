//! Association-rule generation from frequent itemsets.
//!
//! Produces every rule `A → B` (A, B non-empty, disjoint, A∪B frequent)
//! whose confidence clears a threshold, with the full battery of
//! interestingness measures from `ada-metrics` attached — these scores
//! are what ADA-HEALTH's knowledge-ranking component orders pattern
//! knowledge items by.

use std::collections::HashMap;

use ada_metrics::interest::RuleCounts;

use super::{FrequentItemset, Item, Itemset};

/// An association rule with its contingency counts.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Antecedent itemset (sorted, non-empty).
    pub antecedent: Itemset,
    /// Consequent itemset (sorted, non-empty, disjoint from antecedent).
    pub consequent: Itemset,
    /// The counts all interestingness measures derive from.
    pub counts: RuleCounts,
}

impl Rule {
    /// Rule confidence P(B|A).
    pub fn confidence(&self) -> f64 {
        self.counts.confidence()
    }

    /// Rule support P(A ∧ B).
    pub fn support(&self) -> f64 {
        self.counts.support()
    }

    /// Rule lift.
    pub fn lift(&self) -> f64 {
        self.counts.lift()
    }
}

/// Generates rules from a frequent-itemset collection.
///
/// `num_transactions` is the collection size the supports were counted
/// over. Rules are returned sorted by descending confidence, then
/// descending support, then antecedent for determinism.
///
/// # Panics
/// Panics when `min_confidence` is outside [0, 1].
pub fn generate(
    frequent: &[FrequentItemset],
    num_transactions: usize,
    min_confidence: f64,
) -> Vec<Rule> {
    assert!(
        (0.0..=1.0).contains(&min_confidence),
        "confidence must be in [0, 1]"
    );
    let support: HashMap<&Itemset, usize> =
        frequent.iter().map(|f| (&f.items, f.support)).collect();

    let mut rules = Vec::new();
    for f in frequent {
        if f.items.len() < 2 {
            continue;
        }
        // Every non-empty proper subset as antecedent.
        for mask in 1..(1u32 << f.items.len()) - 1 {
            let mut antecedent: Itemset = Vec::new();
            let mut consequent: Itemset = Vec::new();
            for (pos, &item) in f.items.iter().enumerate() {
                if mask & (1 << pos) != 0 {
                    antecedent.push(item);
                } else {
                    consequent.push(item);
                }
            }
            let count_a = *support
                .get(&antecedent)
                .expect("subsets of frequent itemsets are frequent (downward closure)");
            let count_b = *support
                .get(&consequent)
                .expect("subsets of frequent itemsets are frequent (downward closure)");
            // Zero-support marginals make every measure degenerate
            // (confidence and lift are *defined* as 0.0 then, never
            // NaN/Inf — see `RuleCounts` — but such a rule carries no
            // information, so it never enters the ranking).
            if count_a == 0 || count_b == 0 || f.support == 0 {
                continue;
            }
            let counts = RuleCounts::new(num_transactions, count_a, count_b, f.support);
            if counts.confidence() >= min_confidence {
                rules.push(Rule {
                    antecedent,
                    consequent,
                    counts,
                });
            }
        }
    }
    rules.sort_by(|a, b| {
        // total_cmp: the sort stays total even if a measure ever went
        // non-finite, instead of panicking mid-ranking.
        b.confidence()
            .total_cmp(&a.confidence())
            .then_with(|| b.counts.count_ab.cmp(&a.counts.count_ab))
            .then_with(|| a.antecedent.cmp(&b.antecedent))
            .then_with(|| a.consequent.cmp(&b.consequent))
    });
    rules
}

/// Formats a rule using an item-name lookup (for reports and examples).
pub fn format_rule(rule: &Rule, name_of: impl Fn(Item) -> String) -> String {
    let side = |items: &Itemset| {
        items
            .iter()
            .map(|&i| name_of(i))
            .collect::<Vec<_>>()
            .join(" + ")
    };
    format!(
        "{} => {}  (sup {:.3}, conf {:.3}, lift {:.2})",
        side(&rule.antecedent),
        side(&rule.consequent),
        rule.support(),
        rule.confidence(),
        rule.lift()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::{fpgrowth, testutil::market_basket};

    #[test]
    fn generates_expected_rules_from_textbook_basket() {
        let t = market_basket();
        let frequent = fpgrowth::mine(&t, 2);
        let rules = generate(&frequent, t.len(), 0.7);
        // {5} -> {1,2}: support({1,2,5}) = 2, support({5}) = 2 -> conf 1.0.
        let rule = rules
            .iter()
            .find(|r| r.antecedent == vec![5] && r.consequent == vec![1, 2])
            .expect("rule {5} -> {1,2} must exist");
        assert!((rule.confidence() - 1.0).abs() < 1e-12);
        assert!((rule.support() - 2.0 / 9.0).abs() < 1e-12);
        // lift = conf / P(B) = 1.0 / (4/9) = 2.25.
        assert!((rule.lift() - 2.25).abs() < 1e-12);
        // All returned rules respect the threshold.
        assert!(rules.iter().all(|r| r.confidence() >= 0.7));
    }

    #[test]
    fn rules_sorted_by_confidence() {
        let t = market_basket();
        let frequent = fpgrowth::mine(&t, 2);
        let rules = generate(&frequent, t.len(), 0.0);
        for w in rules.windows(2) {
            assert!(w[0].confidence() >= w[1].confidence() - 1e-12);
        }
        // Antecedent and consequent always disjoint and non-empty.
        for r in &rules {
            assert!(!r.antecedent.is_empty() && !r.consequent.is_empty());
            assert!(r.antecedent.iter().all(|i| !r.consequent.contains(i)));
        }
    }

    #[test]
    fn no_rules_from_singletons() {
        let frequent = vec![FrequentItemset {
            items: vec![1],
            support: 5,
        }];
        assert!(generate(&frequent, 10, 0.0).is_empty());
    }

    #[test]
    fn min_confidence_filters() {
        let t = market_basket();
        let frequent = fpgrowth::mine(&t, 2);
        let all = generate(&frequent, t.len(), 0.0);
        let strict = generate(&frequent, t.len(), 0.9);
        assert!(strict.len() < all.len());
        assert!(strict.iter().all(|r| r.confidence() >= 0.9));
    }

    #[test]
    fn format_is_readable() {
        let rule = Rule {
            antecedent: vec![0],
            consequent: vec![1],
            counts: RuleCounts::new(10, 4, 5, 4),
        };
        let s = format_rule(&rule, |i| format!("exam{i}"));
        assert!(s.contains("exam0 => exam1"));
        assert!(s.contains("conf 1.000"));
    }

    #[test]
    #[should_panic(expected = "confidence")]
    fn rejects_bad_confidence() {
        let _ = generate(&[], 10, 1.5);
    }

    /// Zero-support itemsets (possible with hand-built or filtered
    /// collections) must not produce rules — and no measure of any
    /// generated rule may go NaN/Inf into the ranking.
    #[test]
    fn zero_support_marginals_never_reach_the_ranking() {
        let frequent = vec![
            FrequentItemset {
                items: vec![1],
                support: 0,
            },
            FrequentItemset {
                items: vec![2],
                support: 4,
            },
            FrequentItemset {
                items: vec![1, 2],
                support: 0,
            },
        ];
        assert!(generate(&frequent, 10, 0.0).is_empty());

        let t = market_basket();
        let rules = generate(&fpgrowth::mine(&t, 1), t.len(), 0.0);
        assert!(!rules.is_empty());
        for r in &rules {
            for v in [r.support(), r.confidence(), r.lift()] {
                assert!(v.is_finite(), "non-finite measure in {r:?}");
            }
            assert!(r.counts.count_a > 0 && r.counts.count_b > 0);
        }
    }

    /// The defined-value contract for degenerate divisions: a
    /// zero-antecedent (or zero-consequent) rule has confidence 0 and
    /// lift 0 — not NaN, not Inf.
    #[test]
    fn degenerate_counts_have_defined_confidence_and_lift() {
        let zero_a = RuleCounts::new(10, 0, 5, 0);
        assert_eq!(zero_a.confidence(), 0.0);
        assert_eq!(zero_a.lift(), 0.0);
        let zero_b = RuleCounts::new(10, 5, 0, 0);
        assert_eq!(zero_b.confidence(), 0.0);
        assert_eq!(zero_b.lift(), 0.0);
        let empty = RuleCounts::new(0, 0, 0, 0);
        for v in [empty.support(), empty.confidence(), empty.lift()] {
            assert_eq!(v, 0.0);
        }
    }
}
