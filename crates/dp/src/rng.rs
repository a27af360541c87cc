//! Deterministic seed derivation.
//!
//! Every stochastic component of the benchmark takes an explicit `u64` seed.
//! To keep independent components decorrelated while reproducible, child
//! seeds are derived from a master seed and a string tag via splitmix64 over
//! an FNV-1a hash of the tag — the same scheme regardless of platform.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// splitmix64 step (the canonical constants from Steele et al.).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a hash of a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Deterministic child seed for `(master, tag)`.
pub fn derive_seed(master: u64, tag: &str) -> u64 {
    splitmix64(master ^ fnv1a(tag.as_bytes()))
}

/// A seeded RNG for `(master, tag)`.
pub fn rng_for(master: u64, tag: &str) -> StdRng {
    StdRng::seed_from_u64(derive_seed(master, tag))
}

/// 32-byte ChaCha8 key identifying one benchmark grid cell: the master seed,
/// the paper, the synthesizer and the (bit-exact) ε value each occupy eight
/// bytes, so any change to any coordinate yields an unrelated keystream.
fn grid_key(master: u64, paper_id: &str, synthesizer: &str, epsilon: f64) -> [u8; 32] {
    let mut key = [0u8; 32];
    key[0..8].copy_from_slice(&splitmix64(master).to_le_bytes());
    key[8..16].copy_from_slice(&fnv1a(paper_id.as_bytes()).to_le_bytes());
    key[16..24].copy_from_slice(&fnv1a(synthesizer.as_bytes()).to_le_bytes());
    key[24..32].copy_from_slice(&epsilon.to_bits().to_le_bytes());
    key
}

/// The ChaCha8 keystream of one benchmark grid cell
/// `(master, paper, synthesizer, ε)`. Every trial seed of the cell is a
/// word of this stream, so cell results are a pure function of the cell's
/// identity — independent of worker-thread scheduling, of which other cells
/// run, and of their order.
pub fn grid_rng(master: u64, paper_id: &str, synthesizer: &str, epsilon: f64) -> ChaCha8Rng {
    ChaCha8Rng::from_seed(grid_key(master, paper_id, synthesizer, epsilon))
}

/// Deterministic seed for trial `trial` of a benchmark grid cell: the
/// `trial`-th 64-bit word of the cell's ChaCha8 keystream (an O(1) seek —
/// ChaCha is a counter-mode cipher).
pub fn grid_seed(master: u64, paper_id: &str, synthesizer: &str, epsilon: f64, trial: u64) -> u64 {
    let mut rng = grid_rng(master, paper_id, synthesizer, epsilon);
    rng.set_word_pos(trial * 2);
    rng.next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_deterministic_and_tag_sensitive() {
        assert_eq!(derive_seed(1, "fit"), derive_seed(1, "fit"));
        assert_ne!(derive_seed(1, "fit"), derive_seed(1, "sample"));
        assert_ne!(derive_seed(1, "fit"), derive_seed(2, "fit"));
    }

    #[test]
    fn grid_seed_is_deterministic_and_coordinate_sensitive() {
        let base = grid_seed(1, "saw2018", "MST", 1.0, 0);
        assert_eq!(base, grid_seed(1, "saw2018", "MST", 1.0, 0));
        assert_ne!(base, grid_seed(2, "saw2018", "MST", 1.0, 0), "master");
        assert_ne!(base, grid_seed(1, "lee2021", "MST", 1.0, 0), "paper");
        assert_ne!(base, grid_seed(1, "saw2018", "GEM", 1.0, 0), "synth");
        assert_ne!(base, grid_seed(1, "saw2018", "MST", 2.0, 0), "epsilon");
        assert_ne!(base, grid_seed(1, "saw2018", "MST", 1.0, 1), "trial");
    }

    #[test]
    fn grid_seed_matches_cell_keystream() {
        // grid_seed(…, t) must be the t-th u64 of the cell's grid_rng
        // stream: the seekable and sequential views agree.
        let mut stream = grid_rng(7, "fruiht2018", "AIM", 0.5);
        for trial in 0..20u64 {
            assert_eq!(
                stream.next_u64(),
                grid_seed(7, "fruiht2018", "AIM", 0.5, trial),
                "trial {trial}"
            );
        }
    }

    #[test]
    fn splitmix_avalanches_small_inputs() {
        // Consecutive indices must map to very different seeds.
        let s0 = splitmix64(0);
        let s1 = splitmix64(1);
        assert!((s0 ^ s1).count_ones() > 10);
    }
}
