//! FNV-1a 64-bit digests — the content-address of the store.
//!
//! FNV-1a is deliberately chosen over a cryptographic hash: the cache is a
//! correctness-preserving accelerator (a wrong hit is guarded against by
//! the key block embedded in every entry, see [`crate::store`]), the
//! key space per store is a few thousand entries, and FNV is dependency-free
//! and stable across platforms and releases. The hasher lives in
//! `synrd-data`, whose dataset content digest (the dataset component of
//! every fit key) runs through the same one.

pub use synrd_data::{fnv1a64, Fnv1a};

/// Fixed-width lowercase hex rendering (cache file names).
pub fn hex16(v: u64) -> String {
    format!("{v:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex16_is_fixed_width() {
        assert_eq!(hex16(0xab), "00000000000000ab");
        assert_eq!(hex16(u64::MAX), "ffffffffffffffff");
    }
}
