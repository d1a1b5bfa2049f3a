//! Address-to-module placement.
//!
//! ESM realizations of the PRAM distribute the shared address space over
//! `M` physical modules. Plain interleaving (`addr mod M`) is simple but
//! pathological for strided access; the classical remedy — used by the
//! machines the paper builds on — is a *randomizing linear hash*
//! `h(a) = ((α·a + β) mod p) mod M` with `p` prime, which spreads any fixed
//! access pattern nearly evenly over the modules with high probability.

use serde::{Deserialize, Serialize};

use tcf_isa::word::Addr;

/// A large prime for the linear hash, comfortably above any simulated
/// address space (2^61 - 1, a Mersenne prime).
pub const HASH_PRIME: u128 = (1 << 61) - 1;

/// Maps shared-memory word addresses to memory modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModuleMap {
    /// Low-order interleaving: module = `addr mod M`.
    Interleaved,
    /// Randomizing linear hash `((a·addr + b) mod HASH_PRIME) mod M`.
    ///
    /// `a` must be non-zero; `Self::linear` picks suitable defaults from a
    /// seed.
    LinearHash {
        /// Multiplier (non-zero, < `HASH_PRIME`).
        a: u64,
        /// Offset (< `HASH_PRIME`).
        b: u64,
    },
}

impl ModuleMap {
    /// Creates a linear hash with parameters derived from `seed` using a
    /// splitmix64 scramble, so different seeds give independent placements.
    pub fn linear(seed: u64) -> ModuleMap {
        let mut x = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let a = (next() % (HASH_PRIME as u64 - 1)) + 1; // non-zero mod p
        let b = next() % HASH_PRIME as u64;
        ModuleMap::LinearHash { a, b }
    }

    /// Module index for `addr` with `modules` modules.
    #[inline]
    pub fn module_of(&self, addr: Addr, modules: usize) -> usize {
        debug_assert!(modules > 0);
        match *self {
            ModuleMap::Interleaved => addr % modules,
            ModuleMap::LinearHash { a, b } => (linear_hash(a, b, addr) % modules as u64) as usize,
        }
    }

    /// The modules of the address progression `base + k·stride`,
    /// `k = 0..count`, in lane order — lane for lane what
    /// [`module_of`](ModuleMap::module_of) returns, without its per-lane
    /// multiply and reduction. Interleaving advances a residue by
    /// `stride mod modules`; the hash advances its pre-modulus value by
    /// `a·stride mod HASH_PRIME`, since
    /// `a·(base + k·stride) + b ≡ (a·base + b) + k·(a·stride)`.
    ///
    /// Every lane address must be exact: `base + k·stride` a valid
    /// [`Addr`] for every `k < count` (bounds-checked references and the
    /// engine's guarded progressions are).
    pub fn strided_modules(
        &self,
        base: Addr,
        stride: i64,
        count: usize,
        modules: usize,
    ) -> StridedModules {
        debug_assert!(modules > 0);
        let (cur, step, wrap) = match *self {
            ModuleMap::Interleaved => (
                (base % modules) as u64,
                stride.rem_euclid(modules as i64) as u64,
                modules as u64,
            ),
            ModuleMap::LinearHash { a, b } => {
                let up = mod_mersenne61(a as u128 * stride.unsigned_abs() as u128);
                let step = if stride < 0 && up != 0 {
                    MERSENNE61 - up
                } else {
                    up
                };
                (linear_hash(a, b, base), step, MERSENNE61)
            }
        };
        StridedModules {
            cur,
            step,
            wrap,
            modules: modules as u64,
            left: count,
        }
    }
}

/// [`HASH_PRIME`] as a machine word.
const MERSENNE61: u64 = HASH_PRIME as u64;

/// `(a·addr + b) mod HASH_PRIME`, the hash before the module reduction.
#[inline]
fn linear_hash(a: u64, b: u64, addr: Addr) -> u64 {
    mod_mersenne61(a as u128 * addr as u128 + b as u128)
}

/// `x mod (2^61 − 1)` by shift-and-add folding: `2^61 ≡ 1`, so the bits
/// above position 61 add onto the low 61 bits. Two folds bring any `u128`
/// below `2^61 + 2^7`, and one conditional subtraction finishes —
/// bit-identical to `x % HASH_PRIME` without a 128-bit division.
#[inline]
fn mod_mersenne61(x: u128) -> u64 {
    const P: u128 = HASH_PRIME;
    let x = (x & P) + (x >> 61);
    let x = ((x & P) + (x >> 61)) as u64;
    if x >= MERSENNE61 {
        x - MERSENNE61
    } else {
        x
    }
}

/// Iterator over the modules of an address progression, from
/// [`ModuleMap::strided_modules`].
#[derive(Debug, Clone)]
pub struct StridedModules {
    /// The current lane's value before the module reduction: its module
    /// under interleaving, its hash under the linear hash.
    cur: u64,
    /// Per-lane increment of `cur`, already reduced below `wrap`.
    step: u64,
    /// Modulus of `cur` (the module count, or the hash prime).
    wrap: u64,
    modules: u64,
    left: usize,
}

impl Iterator for StridedModules {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let module = self.cur % self.modules;
        self.cur += self.step;
        if self.cur >= self.wrap {
            self.cur -= self.wrap;
        }
        Some(module as usize)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for StridedModules {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaved_is_modulo() {
        let m = ModuleMap::Interleaved;
        for a in 0..100 {
            assert_eq!(m.module_of(a, 8), a % 8);
        }
    }

    /// The fold's edge cases, which random addresses essentially never
    /// hit: sums that are exact multiples of the prime (the final
    /// conditional subtraction) and the extremes of both operands. A
    /// module count above the prime exposes the raw hash value.
    #[test]
    fn mersenne_fold_edges_match_u128_modulo() {
        let p = HASH_PRIME as u64;
        let maps = [
            ModuleMap::LinearHash { a: 1, b: 0 },
            ModuleMap::LinearHash { a: p - 1, b: p - 1 },
            ModuleMap::LinearHash {
                a: u64::MAX,
                b: u64::MAX,
            },
            ModuleMap::linear(42),
        ];
        let mut addrs = vec![0, 1, usize::MAX, usize::MAX - 1, 1 << 61, 1 << 62];
        for k in 1..8usize {
            for d in 0..3 {
                addrs.push(k * p as usize + d);
                addrs.push(k * p as usize - d);
            }
        }
        for map in maps {
            let ModuleMap::LinearHash { a, b } = map else {
                unreachable!()
            };
            for &addr in &addrs {
                let h = (a as u128 * addr as u128 + b as u128) % HASH_PRIME;
                for modules in [1usize, 7, 16, 1 << 62] {
                    assert_eq!(
                        map.module_of(addr, modules),
                        (h % modules as u128) as usize,
                        "{map:?} addr {addr} modules {modules}"
                    );
                }
            }
        }
    }

    #[test]
    fn linear_hash_in_range() {
        let m = ModuleMap::linear(42);
        for a in 0..10_000 {
            assert!(m.module_of(a, 7) < 7);
        }
    }

    #[test]
    fn linear_hash_is_deterministic_per_seed() {
        let m1 = ModuleMap::linear(1);
        let m2 = ModuleMap::linear(1);
        let m3 = ModuleMap::linear(2);
        assert_eq!(m1, m2);
        assert_ne!(m1, m3);
    }

    #[test]
    fn linear_hash_spreads_strided_pattern() {
        // Stride-8 access over 8 modules is the worst case for interleaving
        // (everything lands in module 0); the hash must spread it.
        let modules = 8;
        let strided: Vec<usize> = (0..1024).map(|i| i * modules).collect();
        let inter = ModuleMap::Interleaved;
        assert!(strided.iter().all(|&a| inter.module_of(a, modules) == 0));

        let hash = ModuleMap::linear(7);
        let mut counts = vec![0usize; modules];
        for &a in &strided {
            counts[hash.module_of(a, modules)] += 1;
        }
        let max = *counts.iter().max().unwrap();
        // Perfect balance would be 128 per module; accept anything far from
        // the degenerate 1024-in-one-module case.
        assert!(
            max < 320,
            "hash failed to spread strided pattern: {counts:?}"
        );
    }
}
