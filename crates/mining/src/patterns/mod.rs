//! Frequent-pattern discovery: shared types and helpers.
//!
//! The paper's second exploratory family — "a frequent pattern
//! discovering approach can be exploited" for finding examinations
//! commonly prescribed together — is implemented here as two miners over
//! the same transaction model ([`apriori`] as the classical baseline,
//! [`fpgrowth`] as the efficient default; the test suite checks they
//! produce identical outputs), plus association-rule generation
//! ([`rules`]) and a MeTA-style multi-level miner over the exam taxonomy
//! ([`taxonomy_mine`]).

pub mod apriori;
pub mod fpgrowth;
pub mod rules;
pub mod taxonomy_mine;

/// An item (exam-type id, or a generalized taxonomy node id in
/// multi-level mining).
pub type Item = u32;

/// A sorted, duplicate-free set of items.
pub type Itemset = Vec<Item>;

/// One transaction: the sorted, duplicate-free items of one basket (a
/// patient's distinct exams, or one visit's exams).
pub type Transaction = Vec<Item>;

/// A frequent itemset together with its absolute support count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrequentItemset {
    /// The sorted items.
    pub items: Itemset,
    /// Number of transactions containing all of `items`.
    pub support: usize,
}

impl FrequentItemset {
    /// Relative support given the transaction count.
    pub fn relative_support(&self, num_transactions: usize) -> f64 {
        if num_transactions == 0 {
            0.0
        } else {
            self.support as f64 / num_transactions as f64
        }
    }
}

/// Normalizes a basket into a [`Transaction`]: sorted and deduplicated.
pub fn normalize_transaction(items: impl IntoIterator<Item = Item>) -> Transaction {
    let mut t: Vec<Item> = items.into_iter().collect();
    t.sort_unstable();
    t.dedup();
    t
}

/// True when sorted `needle` is a subset of sorted `haystack`
/// (merge-join containment).
pub fn is_subset(needle: &[Item], haystack: &[Item]) -> bool {
    let mut h = haystack.iter();
    'outer: for n in needle {
        for x in h.by_ref() {
            match x.cmp(n) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// Converts a relative minimum support in (0, 1] to an absolute count
/// (at least 1).
pub fn relative_min_support(num_transactions: usize, fraction: f64) -> usize {
    assert!(
        fraction > 0.0 && fraction <= 1.0,
        "relative support must be in (0, 1]"
    );
    ((num_transactions as f64 * fraction).ceil() as usize).max(1)
}

/// Canonical ordering for miner outputs (by length, then lexicographic),
/// so different miners can be compared directly.
pub fn sort_itemsets(itemsets: &mut [FrequentItemset]) {
    itemsets.sort_by(|a, b| {
        a.items
            .len()
            .cmp(&b.items.len())
            .then_with(|| a.items.cmp(&b.items))
    });
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// The classic textbook transaction set used across miner tests.
    pub fn market_basket() -> Vec<Transaction> {
        vec![
            normalize_transaction([1, 2, 5]),
            normalize_transaction([2, 4]),
            normalize_transaction([2, 3]),
            normalize_transaction([1, 2, 4]),
            normalize_transaction([1, 3]),
            normalize_transaction([2, 3]),
            normalize_transaction([1, 3]),
            normalize_transaction([1, 2, 3, 5]),
            normalize_transaction([1, 2, 3]),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_sorts_and_dedupes() {
        assert_eq!(normalize_transaction([3, 1, 3, 2, 1]), vec![1, 2, 3]);
        assert_eq!(normalize_transaction([]), Vec::<Item>::new());
    }

    #[test]
    fn subset_checks() {
        assert!(is_subset(&[1, 3], &[1, 2, 3, 4]));
        assert!(is_subset(&[], &[1]));
        assert!(is_subset(&[], &[]));
        assert!(!is_subset(&[1, 5], &[1, 2, 3, 4]));
        assert!(!is_subset(&[0], &[1, 2]));
        assert!(!is_subset(&[1], &[]));
    }

    #[test]
    fn relative_support_conversion() {
        assert_eq!(relative_min_support(100, 0.05), 5);
        assert_eq!(relative_min_support(100, 0.041), 5);
        assert_eq!(relative_min_support(10, 0.001), 1);
        assert_eq!(relative_min_support(0, 0.5), 1);
    }

    #[test]
    #[should_panic(expected = "relative support")]
    fn relative_support_rejects_zero() {
        let _ = relative_min_support(10, 0.0);
    }

    #[test]
    fn itemset_ordering_is_canonical() {
        let mut sets = vec![
            FrequentItemset {
                items: vec![2, 3],
                support: 1,
            },
            FrequentItemset {
                items: vec![9],
                support: 2,
            },
            FrequentItemset {
                items: vec![1, 2],
                support: 3,
            },
        ];
        sort_itemsets(&mut sets);
        assert_eq!(sets[0].items, vec![9]);
        assert_eq!(sets[1].items, vec![1, 2]);
        assert_eq!(sets[2].items, vec![2, 3]);
    }

    #[test]
    fn relative_support_of_itemset() {
        let f = FrequentItemset {
            items: vec![1],
            support: 3,
        };
        assert!((f.relative_support(12) - 0.25).abs() < 1e-12);
        assert_eq!(f.relative_support(0), 0.0);
    }
}
