//! Deterministic seed derivation and per-trial RNG streams.
//!
//! A Monte-Carlo run is reproducible if and only if the random stream fed
//! to trial `i` does not depend on which thread happens to execute it. We
//! therefore never share a single RNG across trials: each trial (and, in
//! the LOCAL-model simulator, each *node* within a trial — the paper's
//! "private source of independent random bits") derives its own ChaCha8
//! stream from a master seed via a SplitMix64 mixing function.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// SplitMix64 finalizer: a cheap, well-mixed 64 → 64 bit hash used to
/// derive independent sub-seeds from `(master, index)` pairs.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a sub-seed for stream `index` of the given `master` seed.
///
/// Distinct `(master, index)` pairs give (with overwhelming probability)
/// distinct, decorrelated seeds.
#[inline]
pub fn derive_seed(master: u64, index: u64) -> u64 {
    splitmix64(master ^ splitmix64(index.wrapping_mul(0xA24B_AED4_963E_E407)))
}

/// Creates a ChaCha8 RNG from a 64-bit seed.
pub fn rng_from_seed(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// A hierarchical seed sequence: a master seed plus a path of indices.
///
/// `SeedSequence::new(42).child(3).child(7).rng()` always yields the same
/// stream, independent of thread scheduling, making nested experiments
/// (sweep → trial → node) reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedSequence {
    state: u64,
}

impl SeedSequence {
    /// Starts a sequence from a master seed.
    pub fn new(master: u64) -> Self {
        SeedSequence {
            state: splitmix64(master),
        }
    }

    /// Derives the child sequence with the given index.
    pub fn child(&self, index: u64) -> Self {
        SeedSequence {
            state: derive_seed(self.state, index),
        }
    }

    /// The raw 64-bit seed at this point of the hierarchy.
    pub fn seed(&self) -> u64 {
        self.state
    }

    /// Materializes a ChaCha8 RNG for this node of the hierarchy.
    pub fn rng(&self) -> ChaCha8Rng {
        rng_from_seed(self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn splitmix_is_deterministic_and_not_identity() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_ne!(splitmix64(1), 1);
        assert_ne!(splitmix64(1), splitmix64(2));
    }

    #[test]
    fn derived_seeds_differ_across_indices() {
        let master = 0xDEAD_BEEF;
        let seeds: Vec<u64> = (0..1000).map(|i| derive_seed(master, i)).collect();
        let unique: std::collections::HashSet<u64> = seeds.iter().copied().collect();
        assert_eq!(unique.len(), seeds.len());
    }

    #[test]
    fn derived_seeds_differ_across_masters() {
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    }

    #[test]
    fn seed_sequence_is_reproducible() {
        let a = SeedSequence::new(99).child(5).child(11);
        let b = SeedSequence::new(99).child(5).child(11);
        assert_eq!(a.seed(), b.seed());
        let mut ra = a.rng();
        let mut rb = b.rng();
        for _ in 0..16 {
            assert_eq!(ra.random::<u64>(), rb.random::<u64>());
        }
    }

    #[test]
    fn sibling_sequences_are_decorrelated() {
        let parent = SeedSequence::new(7);
        let seeds: Vec<u64> = (0..256).map(|i| parent.child(i).seed()).collect();
        let unique: std::collections::HashSet<u64> = seeds.iter().copied().collect();
        assert_eq!(unique.len(), 256);
    }
}
