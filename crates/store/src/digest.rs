//! FNV-1a 64-bit digests — the content-address of the store.
//!
//! FNV-1a is deliberately chosen over a cryptographic hash: the cache is a
//! correctness-preserving accelerator (a wrong hit is guarded against by
//! the key block embedded in every entry, see [`crate::store`]), the
//! key space per store is a few thousand entries, and FNV is dependency-free
//! and stable across platforms and releases.

/// FNV-1a offset basis.
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a hasher.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(OFFSET)
    }
}

impl Fnv1a {
    /// Fresh hasher at the offset basis.
    pub fn new() -> Fnv1a {
        Fnv1a::default()
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
        self
    }

    /// Absorb a `u64` (little-endian) with a trailing separator so adjacent
    /// fields cannot alias.
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write(&v.to_le_bytes()).write(&[0xff])
    }

    /// Absorb a length-prefix-free string field with a trailing separator.
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write(s.as_bytes()).write(&[0xfe])
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a of a byte string.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    Fnv1a::new().write(bytes).finish()
}

/// Fixed-width lowercase hex rendering (cache file names).
pub fn hex16(v: u64) -> String {
    format!("{v:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_known_fnv1a_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn field_separators_prevent_aliasing() {
        let ab_c = Fnv1a::new().write_str("ab").write_str("c").finish();
        let a_bc = Fnv1a::new().write_str("a").write_str("bc").finish();
        assert_ne!(ab_c, a_bc);
        let one_two = Fnv1a::new().write_u64(1).write_u64(2).finish();
        let two_one = Fnv1a::new().write_u64(2).write_u64(1).finish();
        assert_ne!(one_two, two_one);
    }

    #[test]
    fn hex16_is_fixed_width() {
        assert_eq!(hex16(0xab), "00000000000000ab");
        assert_eq!(hex16(u64::MAX), "ffffffffffffffff");
    }
}
