//! Small deterministic utilities shared by the predictor implementations.

/// A tiny deterministic xorshift64* PRNG.
///
/// Predictors need randomness for probabilistic counter updates (FPC) and
/// allocation tie-breaking, but simulation results must be reproducible,
/// so each predictor owns one of these seeded generators instead of using
/// a global source of entropy.
#[derive(Clone, Debug)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Creates a generator from a non-zero seed (zero is mapped to a
    /// fixed constant, since xorshift has a zero fixed point).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        XorShift64 { state: if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed } }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Returns `true` with probability `1/denominator`.
    ///
    /// # Panics
    ///
    /// Panics if `denominator` is zero.
    pub fn one_in(&mut self, denominator: u32) -> bool {
        assert!(denominator > 0, "denominator must be non-zero");
        self.next_u64().is_multiple_of(u64::from(denominator))
    }

    /// Uniform value in `0..bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u32) -> u32 {
        assert!(bound > 0, "bound must be non-zero");
        (self.next_u64() % u64::from(bound)) as u32
    }
}

/// Mixes a program counter into a table index; spreads the (4-byte
/// aligned) PC bits across the index space.
#[must_use]
pub fn pc_hash(pc: u64) -> u64 {
    let pc = pc >> 2;
    pc ^ (pc >> 17) ^ (pc >> 33)
}

/// Reduces a hash to an index into a table of `n` entries: `hash % n`,
/// as a mask when `n` is a power of two (every Table 2 size) and a
/// division only for the fractional sizes of Table 3's storage sweep.
/// Built once per table, so a lookup pays no division for the common
/// sizes.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TableIndex {
    entries: u64,
    pow2: bool,
}

impl TableIndex {
    /// The reduction for a table of `entries` entries.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub(crate) fn new(entries: u32) -> Self {
        assert!(entries > 0, "a table needs at least one entry");
        TableIndex { entries: u64::from(entries), pow2: entries.is_power_of_two() }
    }

    /// `hash % entries`.
    #[inline]
    pub(crate) fn of(self, hash: u64) -> u32 {
        let index = if self.pow2 { hash & (self.entries - 1) } else { hash % self.entries };
        index as u32
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn xorshift_is_deterministic() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn zero_seed_does_not_stick() {
        let mut r = XorShift64::new(0);
        assert_ne!(r.next_u64(), 0);
        assert_ne!(r.next_u64(), r.next_u64());
    }

    #[test]
    fn one_in_roughly_matches_probability() {
        let mut r = XorShift64::new(7);
        let hits = (0..160_000).filter(|_| r.one_in(16)).count();
        // Expected 10000; accept a generous window.
        assert!((8_000..12_000).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn below_respects_bound() {
        let mut r = XorShift64::new(3);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    fn pc_hash_distinguishes_nearby_pcs() {
        assert_ne!(pc_hash(0x1000), pc_hash(0x1004));
        assert_ne!(pc_hash(0x1000), pc_hash(0x2000));
    }

    proptest! {
        #[test]
        fn table_index_reduction_equals_modulo(
            hash in any::<u64>(),
            log2 in 4u32..16,
            fraction in 1u32..1_000,
        ) {
            // Table 2's power-of-two sizes, and Table 3's scaled ones.
            let pow2 = 1u32 << log2;
            let scaled =
                (u64::from(pow2) * u64::from(fraction) / 1_000).max(16) as u32 + fraction % 7;
            for entries in [pow2, scaled, 1] {
                prop_assert_eq!(
                    u64::from(TableIndex::new(entries).of(hash)),
                    hash % u64::from(entries),
                    "{} entries",
                    entries
                );
            }
        }
    }
}
