//! The benchmark's seeded input generator.

use tcf_isa::word::Word;

/// SplitMix64: a small, fast generator whose whole state is one word, so
/// every input the benchmark feeds a program follows from `--seed` alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from the generators of other
    /// `stream`s of the same seed (one stream per op keeps an op's inputs
    /// independent of the ops listed before it).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `n` words in `-range..range`.
    pub fn words(&mut self, n: usize, range: Word) -> Vec<Word> {
        (0..n)
            .map(|_| (self.next_u64() % (2 * range as u64)) as Word - range)
            .collect()
    }

    /// A uniformly random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 3).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 3).next_u64(), Rng::new(7, 4).next_u64());
        assert_ne!(Rng::new(7, 3).next_u64(), Rng::new(8, 3).next_u64());
    }

    #[test]
    fn permutation_is_a_bijection() {
        let mut p = Rng::new(1, 1).permutation(1000);
        p.sort_unstable();
        assert!(p.iter().enumerate().all(|(i, &v)| i == v));
    }
}
