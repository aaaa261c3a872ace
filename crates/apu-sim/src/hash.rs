//! Deterministic, dependency-free hashing shared by the whole workspace:
//! 64-bit FNV-1a (one-shot and streaming) and the splitmix64 mixer.
//!
//! Every fingerprint, checksum, placement point, and seeded stream in
//! the workspace is built from these few functions, so their output is
//! pinned: cache fingerprints, certificate checksums, journal snapshot
//! fingerprints, and replayed fault draws all depend on it staying
//! byte-identical. No `RandomState`, nothing platform-dependent.

const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// The splitmix64 increment (2^64 / golden ratio).
pub const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// FNV-1a over raw bytes.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bytes);
    h.finish()
}

/// Streaming FNV-1a. Integers hash as their little-endian bytes, floats
/// as their bit pattern, strings length-prefixed (so `("ab", "c")` and
/// `("a", "bc")` differ).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    /// A fresh hasher at the FNV offset basis.
    #[inline]
    #[must_use]
    pub fn new() -> Fnv {
        Fnv(FNV_OFFSET_BASIS)
    }

    /// Fold raw bytes.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Fold a `u64` (little-endian bytes).
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold an `f64` by its bit pattern.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Fold a string: its byte length, then its bytes.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// The hash so far.
    #[inline]
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The splitmix64 finalizer: a bijective avalanche of `z`.
#[inline]
pub fn mix64(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One splitmix64 step from state `x`: advance by [`GOLDEN_GAMMA`], then
/// [`mix64`].
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    mix64(x.wrapping_add(GOLDEN_GAMMA))
}

/// Map a hash to a uniform float in `[0, 1)` with 53 bits of precision.
#[inline]
pub fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut h = Fnv::new();
        h.u64(7);
        h.str("srad");
        h.f64(1.5);
        let mut bytes = 7u64.to_le_bytes().to_vec();
        bytes.extend(4u64.to_le_bytes());
        bytes.extend(b"srad");
        bytes.extend(1.5f64.to_bits().to_le_bytes());
        assert_eq!(h.finish(), fnv1a(&bytes));
    }

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        // First outputs of splitmix64 seeded with 0.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(GOLDEN_GAMMA), 0x6e78_9e6a_a1b9_65f4);
        assert!((0.0..1.0).contains(&unit(u64::MAX)));
    }
}
