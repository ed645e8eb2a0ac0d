//! Zero-skipping fingerprints against byte-serial FNV-1a: hashing a run
//! of zero bytes in one step must give the digest of feeding them one
//! at a time, for every cell pattern a matrix can hold.

use ada_stream::{Fnv64, IncrementalVsm};
use proptest::prelude::*;

/// Byte-serial FNV-1a over `bytes`, from the offset basis.
fn serial(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn cell_bytes(cells: &[f64]) -> Vec<u8> {
    cells
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect()
}

fn zero_skipping(cells: &[f64]) -> u64 {
    let mut h = Fnv64::new();
    h.write_f64s(cells);
    h.finish()
}

/// The byte-serial digest of a VSM's whole state, read through its
/// public accessors in the order the fingerprint documents.
fn serial_vsm(vsm: &IncrementalVsm) -> u64 {
    let mut bytes = Vec::new();
    for v in [vsm.rows() as u64, vsm.vocab() as u64, vsm.version()] {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    for p in vsm.patients() {
        bytes.extend_from_slice(&u64::from(p.0).to_le_bytes());
    }
    for e in vsm.features() {
        bytes.extend_from_slice(&u64::from(e.0).to_le_bytes());
    }
    bytes.extend(cell_bytes(vsm.matrix().as_flat()));
    serial(&bytes)
}

/// One non-zero cell value: ordinary counts and fractions, `-0.0`
/// (sign bit only), NaNs with arbitrary payloads, and subnormals.
fn special_cell() -> impl Strategy<Value = f64> {
    prop_oneof![
        (1u32..1_000).prop_map(f64::from),
        any::<u64>().prop_map(|bits| f64::from_bits(bits.max(1))),
        Just(-0.0),
        (1u64..(1 << 51)).prop_map(|payload| f64::from_bits(0x7ff8_0000_0000_0000 | payload)),
        (1u64..(1 << 52)).prop_map(f64::from_bits),
        (1u64..(1 << 52)).prop_map(|m| -f64::from_bits(m)),
    ]
}

/// The flat cells of a `rows × cols` matrix (0–12 rows, 0–6 columns,
/// so empty and one-column matrices come up), each `+0.0` with
/// probability 0, ½, 0.93 or 1.
fn matrices() -> impl Strategy<Value = Vec<f64>> {
    (
        0usize..12,
        0usize..6,
        prop_oneof![Just(0u32), Just(50), Just(93), Just(100)],
    )
        .prop_flat_map(|(rows, cols, zero_pct)| {
            let cell = (0u32..100, special_cell())
                .prop_map(move |(roll, v)| if roll < zero_pct { 0.0 } else { v });
            prop::collection::vec(cell, rows * cols)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // The flat buffer is hashed as one sequence, so zero runs that
    // cross row boundaries are runs like any other.
    #[test]
    fn write_f64s_equals_byte_serial(cells in matrices()) {
        prop_assert_eq!(zero_skipping(&cells), serial(&cell_bytes(&cells)));
    }

    #[test]
    fn write_zeros_equals_byte_serial(prefix in prop::collection::vec(any::<u8>(), 0..16), n in 0u64..4_096) {
        let mut h = Fnv64::new();
        h.write(&prefix);
        h.write_zeros(n);
        let mut bytes = prefix;
        bytes.resize(bytes.len() + n as usize, 0);
        prop_assert_eq!(h.finish(), serial(&bytes));
    }

    // Folded VSMs: patients and exams drawn from small id ranges, so
    // the matrix runs from fully dense to mostly zeros, with zero runs
    // spanning rows.
    #[test]
    fn vsm_fingerprint_equals_byte_serial(
        windows in prop::collection::vec(
            prop::collection::vec((0u32..30, 0u32..12, 1i64..4), 0..40),
            1..5,
        ),
    ) {
        let mut vsm = IncrementalVsm::new();
        prop_assert_eq!(vsm.fingerprint(), serial_vsm(&vsm));
        for (day, mut window) in windows.into_iter().enumerate() {
            window.sort_unstable();
            let entries: Vec<_> = window
                .into_iter()
                .map(|(p, e, c)| (day as i64, p, e, c))
                .collect();
            vsm.fold(&entries);
            prop_assert_eq!(vsm.fingerprint(), serial_vsm(&vsm));
        }
    }
}

#[test]
fn write_zeros_of_nothing_is_the_identity() {
    let mut h = Fnv64::new();
    h.write(b"ada");
    let before = h.finish();
    h.write_zeros(0);
    assert_eq!(h.finish(), before);
    h.write_f64s(&[]);
    assert_eq!(h.finish(), before);
}

#[test]
fn runs_longer_than_a_mebibyte_match() {
    let n = (1u64 << 20) + 12_345;
    let mut h = Fnv64::new();
    h.write(b"x");
    h.write_zeros(n);
    let mut bytes = vec![b'x'];
    bytes.resize(1 + n as usize, 0);
    assert_eq!(h.finish(), serial(&bytes));

    // The same through cells: 2^17 + 3 zero cells (just over 2^20
    // bytes) between two non-zeros, then a trailing run.
    let mut cells = vec![0.0; (1 << 17) + 3];
    cells[0] = 1.0;
    cells.push(-0.0);
    cells.extend(std::iter::repeat_n(0.0, 1 << 17));
    assert_eq!(zero_skipping(&cells), serial(&cell_bytes(&cells)));
}

#[test]
fn vsm_edge_shapes_match() {
    // Dense (no zero cell), one column, and a fold that cancels every
    // count back to +0.0 (all cells zero, rows still present).
    let mut dense = IncrementalVsm::new();
    dense.fold(&[(1, 0, 0, 1), (1, 0, 1, 2), (1, 1, 0, 3), (1, 1, 1, 4)]);
    assert_eq!(dense.fingerprint(), serial_vsm(&dense));

    let mut one_col = IncrementalVsm::new();
    one_col.fold(&[(1, 0, 9, 1), (1, 1, 9, 1), (1, 2, 9, 5)]);
    assert_eq!(one_col.vocab(), 1);
    assert_eq!(one_col.fingerprint(), serial_vsm(&one_col));

    let mut cancelled = IncrementalVsm::new();
    cancelled.fold(&[(1, 0, 0, 1), (1, 1, 1, 1)]);
    cancelled.fold(&[(2, 0, 0, -1), (2, 1, 1, -1)]);
    assert!(cancelled
        .matrix()
        .as_flat()
        .iter()
        .all(|v| v.to_bits() == 0));
    assert_eq!(cancelled.fingerprint(), serial_vsm(&cancelled));
}
