//! One fast hasher for the tables whose keys this process chooses.
//!
//! `std`'s default `RandomState` runs SipHash-1-3 under per-map random
//! keys: it resists a remote party that picks keys to collide, at
//! 13–20 ns for a `u64` key and 36–39 ns for a `(u32, u32, u32)` flow
//! key on a 2-core Xeon KVM guest, where [`FxHasher`] takes 1–3 ns.
//! Most engine tables are keyed by values nobody outside the process
//! picks — request ids and send handles it allocates, flows its own
//! application posts — and are hashed several times per message, so
//! they use [`FxHasher`]: one add and one multiply per word, one rotate
//! at the end. Tables whose keys a remote peer chooses (the receiver's
//! unexpected and parked-RTS queues, a slot's rendezvous chunk
//! offsets) keep `RandomState`.
//!
//! The hasher is deterministic: iteration order of an [`FxHashMap`]
//! repeats from run to run, where `RandomState`'s changes with every
//! map. No scheduling decision may depend on either.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-mixed bits (as in rustc's FxHash).
const SEED: u64 = 0xf135_7aea_2e62_a9c5;

/// FxHash-style word hasher: `h = (h + word) * SEED` per word, rotated
/// on [`finish`](Hasher::finish) so the product's well-mixed high bits
/// land in the low bits the table indexes by (keys that differ only in
/// high bits, or share low bits such as ids striped by `% 16`, still
/// spread over every bucket).
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Slice and str `Hash` impls prefix the length, so zero padding
        // the last word cannot alias two keys.
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// Builds [`FxHasher`]s (stateless: every map hashes alike).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` under [`FxHasher`]; construct with `default()`.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` under [`FxHasher`]; construct with `default()`.
pub type FxHashSet<K> = HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn fx<T: Hash>(v: T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_and_field_order_sensitive() {
        assert_eq!(fx((1u32, 2u32, 3u32)), fx((1u32, 2u32, 3u32)));
        assert_ne!(fx((1u32, 2u32)), fx((2u32, 1u32)));
        assert_ne!(fx(&b"ab"[..]), fx(&b"ab\0"[..]));
    }

    #[test]
    fn strided_ids_spread_over_low_bits() {
        // Ids sharing their low four bits (one completion-board bucket
        // out of 16) must still fill a 1024-slot table evenly.
        let mut slots = [0u32; 1024];
        for i in 0..8192u64 {
            slots[(fx(i * 16 + 3) % 1024) as usize] += 1;
        }
        let used = slots.iter().filter(|&&n| n > 0).count();
        assert!(used > 1000, "only {used} of 1024 slots used");
        assert!(slots.iter().all(|&n| n <= 32), "a slot took > 4x its share");
    }
}
