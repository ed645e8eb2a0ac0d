//! Streaming FNV-1a fingerprints.
//!
//! The determinism gates compare VSM and model state across ingestion
//! orders, chunkings, and crash replays without shipping matrices
//! around; a 64-bit FNV-1a over the exact bit patterns is the
//! established workspace idiom for "byte-identical or not".
//!
//! FNV-1a xors each byte into the state and then multiplies by a prime,
//! and xor with a zero byte is the identity: `n` zero bytes are one
//! multiplication by `PRIME^n` (mod 2^64). [`Fnv64::write_zeros`] takes
//! that shortcut, so hashing a mostly-zero matrix costs a pass over its
//! cells plus one power per run of zeros, with the byte-serial digest.

/// The 64-bit FNV prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental 64-bit FNV-1a hasher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Mixes `n` zero bytes in `O(log n)`: the same digest as
    /// `write(&vec![0; n])`.
    pub fn write_zeros(&mut self, n: u64) {
        let (mut power, mut n) = (PRIME, n);
        while n > 0 {
            if n & 1 == 1 {
                self.0 = self.0.wrapping_mul(power);
            }
            power = power.wrapping_mul(power);
            n >>= 1;
        }
    }

    /// Mixes one `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Mixes one `f64`'s exact bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Mixes every value's exact bit pattern, in order, hashing each run
    /// of all-zero-bit cells in one [`write_zeros`](Fnv64::write_zeros)
    /// step. Only `+0.0` is skipped: `-0.0` has its sign bit set and
    /// hashes its eight bytes like any other value.
    pub fn write_f64s(&mut self, values: &[f64]) {
        let mut zeros = 0u64;
        for &v in values {
            if v.to_bits() == 0 {
                zeros += 1;
            } else {
                self.write_zeros(8 * zeros);
                zeros = 0;
                self.write_f64(v);
            }
        }
        self.write_zeros(8 * zeros);
    }

    /// The current digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Formats a digest the way the `stream_windows` schema stores it: 16
/// lowercase hex digits.
pub fn format_fp(fp: u64) -> String {
    format!("{fp:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector_and_sensitivity() {
        // FNV-1a("a") is a published test vector.
        let mut h = Fnv64::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut x = Fnv64::new();
        x.write_f64(1.0);
        let mut y = Fnv64::new();
        y.write_f64(1.0 + f64::EPSILON);
        assert_ne!(x.finish(), y.finish(), "one-ulp difference must show");
        assert_eq!(format_fp(0xaf), "00000000000000af");
    }
}
