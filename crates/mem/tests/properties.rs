//! Property tests of the shared-memory step semantics.

use proptest::prelude::*;

use tcf_isa::instr::MultiKind;
use tcf_isa::word::Word;
use tcf_mem::hash::HASH_PRIME;
use tcf_mem::module::{fold_progression, fold_words};
use tcf_mem::{CrcwPolicy, MemOp, MemRef, ModuleMap, RefOrigin, SharedMemory};

const SIZE: usize = 128;

fn arb_kind() -> impl Strategy<Value = MultiKind> {
    prop::sample::select(&MultiKind::ALL[..])
}

const POLICIES: [CrcwPolicy; 5] = [
    CrcwPolicy::Arbitrary,
    CrcwPolicy::Priority,
    CrcwPolicy::Common,
    CrcwPolicy::Crew,
    CrcwPolicy::Erew,
];

/// One generated reference of the bulk-equivalence property: scalar ops
/// plus strided bulk reads/writes (possibly overlapping, possibly out of
/// bounds — fault behaviour is part of the contract).
#[derive(Debug, Clone)]
enum GenRef {
    Read(usize),
    Write(usize, i32),
    Multi(MultiKind, usize, i32),
    Prefix(MultiKind, usize, i32),
    StridedRead {
        base: usize,
        stride: i64,
        count: u32,
    },
    StridedWrite {
        base: usize,
        stride: i64,
        count: u32,
        vbase: i32,
        vstride: i32,
    },
    BulkMulti {
        kind: MultiKind,
        prefix: bool,
        base: usize,
        astride: i64,
        count: u32,
        vbase: i32,
        vstride: i32,
    },
}

fn arb_gen_ref() -> impl Strategy<Value = GenRef> {
    // Progressions stay on non-negative addresses (the emitting layer
    // guarantees this; negative lane addresses have sentinel semantics
    // covered by unit tests) but may leave the address space upward.
    let strided = (0usize..SIZE + 8, 0i64..6, 1u32..24)
        .prop_map(|(base, stride, count)| (base, stride, count));
    prop_oneof![
        (0usize..SIZE + 4).prop_map(GenRef::Read),
        (0usize..SIZE + 4, any::<i32>()).prop_map(|(a, v)| GenRef::Write(a, v)),
        (arb_kind(), 0usize..SIZE, any::<i32>()).prop_map(|(k, a, v)| GenRef::Multi(k, a, v)),
        (arb_kind(), 0usize..SIZE, any::<i32>()).prop_map(|(k, a, v)| GenRef::Prefix(k, a, v)),
        strided
            .clone()
            .prop_map(|(base, stride, count)| GenRef::StridedRead {
                base,
                stride,
                count
            }),
        (strided, any::<i32>(), -4i32..5).prop_map(|((base, stride, count), vbase, vstride)| {
            GenRef::StridedWrite {
                base,
                stride,
                count,
                vbase,
                vstride,
            }
        }),
        // Bulk multioperations: `astride == 0` (the combining-run shape
        // the closed forms target) is weighted heavily, but strided
        // targets and both reply modes are exercised too.
        (
            arb_kind(),
            any::<bool>(),
            0usize..SIZE + 8,
            prop_oneof![Just(0i64), Just(0i64), Just(0i64), 1i64..4],
            1u32..24,
            any::<i32>(),
            -4i32..5,
        )
            .prop_map(|(kind, prefix, base, astride, count, vbase, vstride)| {
                GenRef::BulkMulti {
                    kind,
                    prefix,
                    base,
                    astride,
                    count,
                    vbase,
                    vstride,
                }
            },),
    ]
}

/// Builds the `MemRef` list (each reference claims a rank block as wide
/// as its lane count, the way the execution layer assigns ranks) and its
/// scalar lane expansion.
fn build_refs(gens: &[GenRef]) -> (Vec<MemRef>, Vec<MemRef>) {
    let mut refs = Vec::new();
    let mut flat = Vec::new();
    let mut rank = 0usize;
    for g in gens {
        match *g {
            GenRef::Read(a) => {
                refs.push(MemRef::new(RefOrigin::new(0, rank), MemOp::Read(a)));
                flat.push(*refs.last().unwrap());
                rank += 1;
            }
            GenRef::Write(a, v) => {
                refs.push(MemRef::new(
                    RefOrigin::new(0, rank),
                    MemOp::Write(a, v as Word),
                ));
                flat.push(*refs.last().unwrap());
                rank += 1;
            }
            GenRef::Multi(k, a, v) => {
                refs.push(MemRef::new(
                    RefOrigin::new(0, rank),
                    MemOp::Multi(k, a, v as Word),
                ));
                flat.push(*refs.last().unwrap());
                rank += 1;
            }
            GenRef::Prefix(k, a, v) => {
                refs.push(MemRef::new(
                    RefOrigin::new(0, rank),
                    MemOp::Prefix(k, a, v as Word),
                ));
                flat.push(*refs.last().unwrap());
                rank += 1;
            }
            GenRef::StridedRead {
                base,
                stride,
                count,
            } => {
                refs.push(MemRef::new(
                    RefOrigin::new(0, rank),
                    MemOp::StridedRead {
                        base,
                        stride,
                        count,
                    },
                ));
                flat.extend((0..count as usize).map(|k| {
                    MemRef::new(
                        RefOrigin::new(0, rank + k),
                        MemOp::Read((base as i64 + k as i64 * stride) as usize),
                    )
                }));
                rank += count as usize;
            }
            GenRef::StridedWrite {
                base,
                stride,
                count,
                vbase,
                vstride,
            } => {
                refs.push(MemRef::new(
                    RefOrigin::new(0, rank),
                    MemOp::StridedWrite {
                        base,
                        stride,
                        count,
                        vbase: vbase as Word,
                        vstride: vstride as Word,
                    },
                ));
                flat.extend((0..count as usize).map(|k| {
                    MemRef::new(
                        RefOrigin::new(0, rank + k),
                        MemOp::Write(
                            (base as i64 + k as i64 * stride) as usize,
                            (vbase as Word).wrapping_add((k as Word).wrapping_mul(vstride as Word)),
                        ),
                    )
                }));
                rank += count as usize;
            }
            GenRef::BulkMulti {
                kind,
                prefix,
                base,
                astride,
                count,
                vbase,
                vstride,
            } => {
                refs.push(MemRef::new(
                    RefOrigin::new(0, rank),
                    MemOp::BulkMulti {
                        kind,
                        prefix,
                        base,
                        astride,
                        count,
                        vbase: vbase as Word,
                        vstride: vstride as Word,
                    },
                ));
                flat.extend((0..count as usize).map(|k| {
                    let a = (base as i64 + k as i64 * astride) as usize;
                    let v = (vbase as Word).wrapping_add((k as Word).wrapping_mul(vstride as Word));
                    MemRef::new(
                        RefOrigin::new(0, rank + k),
                        if prefix {
                            MemOp::Prefix(kind, a, v)
                        } else {
                            MemOp::Multi(kind, a, v)
                        },
                    )
                }));
                rank += count as usize;
            }
        }
    }
    (refs, flat)
}

proptest! {
    /// A multiprefix over n participants leaves kind-combination of all
    /// contributions (seeded by the old value) in memory, and participant
    /// prefixes reconstruct the same total.
    #[test]
    fn multiprefix_consistency(
        kind in arb_kind(),
        seed: i32,
        contributions in prop::collection::vec(any::<i32>(), 1..32),
    ) {
        let mut m = SharedMemory::new(SIZE, 4, ModuleMap::Interleaved, CrcwPolicy::Arbitrary);
        m.poke(0, seed as Word).unwrap();
        let refs: Vec<MemRef> = contributions
            .iter()
            .enumerate()
            .map(|(rank, &c)| {
                MemRef::new(RefOrigin::new(0, rank), MemOp::Prefix(kind, 0, c as Word))
            })
            .collect();
        let (replies, _) = m.step(&refs).unwrap();

        // Sequential reference computation.
        let mut acc = seed as Word;
        let mut expected_prefixes = Vec::new();
        for &c in &contributions {
            expected_prefixes.push(acc);
            acc = kind.combine(acc, c as Word);
        }
        prop_assert_eq!(m.peek(0).unwrap(), acc);
        for (i, exp) in expected_prefixes.into_iter().enumerate() {
            prop_assert_eq!(replies[i], Some(exp));
        }
    }

    /// Multioperations are order-independent: shuffling the reference
    /// vector never changes the resulting memory value.
    #[test]
    fn multiop_order_independent(
        kind in arb_kind(),
        contributions in prop::collection::vec(any::<i32>(), 1..24),
        rotate in 0usize..24,
    ) {
        let build = |order: &[(usize, i32)]| {
            let mut m = SharedMemory::new(SIZE, 4, ModuleMap::Interleaved, CrcwPolicy::Arbitrary);
            let refs: Vec<MemRef> = order
                .iter()
                .map(|&(rank, c)| MemRef::new(RefOrigin::new(0, rank), MemOp::Multi(kind, 3, c as Word)))
                .collect();
            m.step(&refs).unwrap();
            m.peek(3).unwrap()
        };
        let ranked: Vec<(usize, i32)> = contributions.iter().copied().enumerate().collect();
        let mut shuffled = ranked.clone();
        let n = shuffled.len().max(1);
        shuffled.rotate_left(rotate % n);
        prop_assert_eq!(build(&ranked), build(&shuffled));
    }

    /// Reads in a mixed step always see the pre-step value regardless of
    /// how many writes target the same address.
    #[test]
    fn reads_unaffected_by_same_step_writes(
        old: i32,
        writes in prop::collection::vec(any::<i32>(), 1..16),
    ) {
        let mut m = SharedMemory::new(SIZE, 4, ModuleMap::Interleaved, CrcwPolicy::Arbitrary);
        m.poke(7, old as Word).unwrap();
        let mut refs = vec![MemRef::new(RefOrigin::new(0, 0), MemOp::Read(7))];
        for (i, &w) in writes.iter().enumerate() {
            refs.push(MemRef::new(RefOrigin::new(0, i + 1), MemOp::Write(7, w as Word)));
        }
        let (replies, _) = m.step(&refs).unwrap();
        prop_assert_eq!(replies[0], Some(old as Word));
        // Arbitrary policy: highest rank wins.
        prop_assert_eq!(m.peek(7).unwrap(), *writes.last().unwrap() as Word);
    }

    /// The linear hash never sends an address outside the module range and
    /// two different seeds are deterministic.
    #[test]
    fn hash_in_range(seed: u64, addrs in prop::collection::vec(0usize..1_000_000, 1..64), modules in 1usize..64) {
        let map = ModuleMap::linear(seed);
        for &a in &addrs {
            let m1 = map.module_of(a, modules);
            let m2 = map.module_of(a, modules);
            prop_assert!(m1 < modules);
            prop_assert_eq!(m1, m2);
        }
    }

    /// The Mersenne-folded hash is bit-identical to the `u128 %`
    /// reduction it replaced, kept here as the reference: any seed, any
    /// address up to `usize::MAX`, any module count.
    #[test]
    fn mersenne_fold_matches_u128_modulo(
        seed: u64,
        addrs in prop::collection::vec(prop_oneof![any::<usize>(), Just(usize::MAX), 0usize..4096], 1..64),
        modules in 1usize..1024,
    ) {
        let map = ModuleMap::linear(seed);
        let ModuleMap::LinearHash { a, b } = map else { unreachable!() };
        for &addr in &addrs {
            let h = (a as u128 * addr as u128 + b as u128) % HASH_PRIME;
            let reference = (h % modules as u128) as usize;
            prop_assert_eq!(map.module_of(addr, modules), reference, "addr {}", addr);
        }
    }

    /// Walking a progression's modules agrees lane for lane with
    /// `module_of`, under interleaving and the hash, for ascending,
    /// descending and zero strides.
    #[test]
    fn strided_modules_match_module_of(
        seed: u64,
        hashed: bool,
        base in prop_oneof![0usize..4096, (usize::MAX / 2)..usize::MAX],
        stride in prop_oneof![-64i64..64, any::<i32>().prop_map(i64::from)],
        count in 0usize..200,
        modules in 1usize..40,
    ) {
        let map = if hashed { ModuleMap::linear(seed) } else { ModuleMap::Interleaved };
        // Keep every lane address exact (the walker's precondition).
        let room = if stride > 0 { usize::MAX - base } else { base };
        let count = count.min(room / stride.unsigned_abs().max(1) as usize + 1);
        let walked: Vec<usize> = map.strided_modules(base, stride, count, modules).collect();
        let direct: Vec<usize> = (0..count)
            .map(|k| map.module_of((base as i128 + k as i128 * stride as i128) as usize, modules))
            .collect();
        prop_assert_eq!(walked, direct);
    }

    /// Per-module statistics always sum to the number of references.
    #[test]
    fn stats_sum_to_refs(addrs in prop::collection::vec(0usize..SIZE, 0..64)) {
        let mut m = SharedMemory::new(SIZE, 8, ModuleMap::linear(3), CrcwPolicy::Arbitrary);
        let refs: Vec<MemRef> = addrs
            .iter()
            .enumerate()
            .map(|(rank, &a)| MemRef::new(RefOrigin::new(0, rank), MemOp::Read(a)))
            .collect();
        let (_, stats) = m.step(&refs).unwrap();
        prop_assert_eq!(stats.per_module.iter().sum::<usize>(), refs.len());
        prop_assert_eq!(stats.refs, refs.len());
    }
}

proptest! {
    /// Priority CRCW always selects the lowest-rank writer; Arbitrary (as
    /// refined here) the highest; and both agree with a host-side fold.
    #[test]
    fn crcw_winners_by_policy(
        writes in prop::collection::vec((0usize..64, any::<i32>()), 1..24)
    ) {
        // Deduplicate ranks (one reference per thread per step).
        let mut seen = std::collections::BTreeMap::new();
        for (rank, v) in writes {
            seen.entry(rank).or_insert(v as Word);
        }
        let refs: Vec<MemRef> = seen
            .iter()
            .map(|(&rank, &v)| MemRef::new(RefOrigin::new(0, rank), MemOp::Write(9, v)))
            .collect();

        let mut m = SharedMemory::new(SIZE, 4, ModuleMap::Interleaved, CrcwPolicy::Priority);
        m.step(&refs).unwrap();
        prop_assert_eq!(m.peek(9).unwrap(), *seen.values().next().unwrap());

        let mut m = SharedMemory::new(SIZE, 4, ModuleMap::Interleaved, CrcwPolicy::Arbitrary);
        m.step(&refs).unwrap();
        prop_assert_eq!(m.peek(9).unwrap(), *seen.values().last().unwrap());
    }

    /// Common CRCW accepts agreeing writers and rejects any disagreement.
    #[test]
    fn common_policy_agreement(
        n in 1usize..16,
        v: i32,
        disagree in proptest::bool::ANY,
    ) {
        let mut refs: Vec<MemRef> = (0..n)
            .map(|rank| MemRef::new(RefOrigin::new(0, rank), MemOp::Write(3, v as Word)))
            .collect();
        if disagree {
            refs.push(MemRef::new(
                RefOrigin::new(0, n),
                MemOp::Write(3, v as Word ^ 1),
            ));
        }
        let mut m = SharedMemory::new(SIZE, 4, ModuleMap::Interleaved, CrcwPolicy::Common);
        let r = m.step(&refs);
        if disagree {
            prop_assert!(r.is_err());
        } else {
            prop_assert!(r.is_ok());
            prop_assert_eq!(m.peek(3).unwrap(), v as Word);
        }
    }

    /// A step is atomic on fault: no partial writes survive a failed step.
    #[test]
    fn failed_step_leaves_memory_untouched(
        good in prop::collection::vec((0usize..32, any::<i32>()), 1..8)
    ) {
        let mut m = SharedMemory::new(SIZE, 4, ModuleMap::Interleaved, CrcwPolicy::Arbitrary);
        let mut refs: Vec<MemRef> = good
            .iter()
            .enumerate()
            .map(|(rank, &(a, v))| MemRef::new(RefOrigin::new(0, rank), MemOp::Write(a, v as Word)))
            .collect();
        refs.push(MemRef::new(RefOrigin::new(0, 99), MemOp::Read(SIZE + 5)));
        prop_assert!(m.step(&refs).is_err());
        for a in 0..32 {
            prop_assert_eq!(m.peek(a).unwrap(), 0);
        }
    }
}

/// One combining contribution: small magnitudes plus the wrapping
/// extremes (where `Add`'s regrouped chunk sums wrap differently lane by
/// lane but must still agree in total).
fn arb_fold_word() -> impl Strategy<Value = Word> {
    prop_oneof![
        -1000i64..1000,
        prop::sample::select(&[i64::MIN, i64::MIN + 7, -1, 0, 1, i64::MAX - 7, i64::MAX][..]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The chunked [`fold_words`] kernel is bit-exact with the sequential
    /// left fold for every [`MultiKind`] — including the empty slice,
    /// single words, and every non-multiple-of-8 tail. Regrouping is
    /// sound because each kind is associative and commutative with a true
    /// identity; this pins that no kind with weaker structure slips in.
    #[test]
    fn fold_words_matches_sequential_fold(
        seed in arb_fold_word(),
        xs in prop::collection::vec(arb_fold_word(), 0..40),
    ) {
        for &kind in MultiKind::ALL.iter() {
            let expect = xs.iter().fold(seed, |a, &b| kind.combine(a, b));
            prop_assert_eq!(
                fold_words(kind, seed, &xs), expect,
                "{:?} diverged over {} words", kind, xs.len()
            );
            // The identity really is an identity under the kernel too.
            prop_assert_eq!(
                fold_words(kind, kind.identity(), &xs),
                xs.iter().fold(kind.identity(), |a, &b| kind.combine(a, b))
            );
        }
    }

    /// [`fold_progression`] equals [`fold_words`] of the materialized
    /// progression (and hence the sequential fold) for every kind, count
    /// and wrapping stride — zero counts and sub-chunk counts included.
    #[test]
    fn fold_progression_matches_materialized_fold(
        seed in arb_fold_word(),
        vbase in arb_fold_word(),
        vstride in prop_oneof![
            -6i64..6,
            prop::sample::select(&[i64::MIN, -(1i64 << 40), 1i64 << 40, i64::MAX][..]),
        ],
        count in 0usize..40,
    ) {
        let lanes: Vec<Word> = (0..count)
            .map(|k| vbase.wrapping_add(vstride.wrapping_mul(k as Word)))
            .collect();
        for &kind in MultiKind::ALL.iter() {
            let expect = lanes.iter().fold(seed, |a, &b| kind.combine(a, b));
            prop_assert_eq!(
                fold_progression(kind, seed, vbase, vstride, count), expect,
                "{:?} diverged: base {} stride {} count {}", kind, vbase, vstride, count
            );
        }
    }
}

proptest! {
    /// Strided bulk references are bit-equivalent to their per-lane
    /// expansion under every CRCW policy: same faults, same replies (bulk
    /// lanes included), same statistics, same final memory — whether the
    /// bulk step takes its disjoint fast path or the expansion fallback.
    #[test]
    fn bulk_step_matches_per_lane_expansion(
        gens in prop::collection::vec(arb_gen_ref(), 0..8),
        policy_idx in 0usize..POLICIES.len(),
        map_seed in any::<u64>(),
    ) {
        let policy = POLICIES[policy_idx];
        let map = if map_seed.is_multiple_of(2) {
            ModuleMap::Interleaved
        } else {
            ModuleMap::linear(map_seed)
        };
        let (refs, flat) = build_refs(&gens);
        let mut a = SharedMemory::new(SIZE, 4, map, policy);
        let mut b = SharedMemory::new(SIZE, 4, map, policy);
        for addr in 0..SIZE {
            a.poke(addr, (addr as Word).wrapping_mul(5) - 11).unwrap();
            b.poke(addr, (addr as Word).wrapping_mul(5) - 11).unwrap();
        }
        let bulk_result = a.step_bulk(&refs);
        let flat_result = b.step(&flat);
        match (bulk_result, flat_result) {
            (Err(e1), Err(e2)) => prop_assert_eq!(e1, e2),
            (Ok((replies, bulk, s1)), Ok((flat_replies, s2))) => {
                prop_assert_eq!(s1, s2);
                let mut pos = 0usize;
                for (i, r) in refs.iter().enumerate() {
                    match r.op {
                        MemOp::StridedRead { count, .. } => {
                            for k in 0..count as usize {
                                prop_assert_eq!(bulk.lane(i, k), flat_replies[pos + k]);
                            }
                            pos += count as usize;
                        }
                        MemOp::StridedWrite { count, .. } => pos += count as usize,
                        MemOp::BulkMulti { prefix, count, .. } => {
                            if prefix {
                                for k in 0..count as usize {
                                    prop_assert_eq!(bulk.lane(i, k), flat_replies[pos + k]);
                                }
                            }
                            pos += count as usize;
                        }
                        _ => {
                            prop_assert_eq!(replies[i], flat_replies[pos]);
                            pos += 1;
                        }
                    }
                }
            }
            (x, y) => prop_assert!(false, "fault behaviour diverged: {:?} vs {:?}", x, y),
        }
        for addr in 0..SIZE {
            prop_assert_eq!(a.peek(addr).unwrap(), b.peek(addr).unwrap());
        }
    }

    /// Atomicity also under policy faults (not just bounds faults): a
    /// Common-policy conflict anywhere in the step leaves every address
    /// untouched.
    #[test]
    fn common_conflict_is_atomic(
        good in prop::collection::vec((0usize..32, any::<i32>()), 1..8),
        conflict_addr in 40usize..48,
    ) {
        let mut m = SharedMemory::new(SIZE, 4, ModuleMap::Interleaved, CrcwPolicy::Common);
        let mut refs: Vec<MemRef> = good
            .iter()
            .enumerate()
            .map(|(rank, &(a, v))| MemRef::new(RefOrigin::new(0, rank), MemOp::Write(a, v as Word)))
            .collect();
        // Deduplicate addresses so the good writes themselves agree.
        let mut seen = std::collections::BTreeSet::new();
        refs.retain(|r| seen.insert(r.op.addr()));
        let base = refs.len();
        refs.push(MemRef::new(RefOrigin::new(0, base), MemOp::Write(conflict_addr, 1)));
        refs.push(MemRef::new(RefOrigin::new(0, base + 1), MemOp::Write(conflict_addr, 2)));
        prop_assert!(m.step(&refs).is_err());
        for a in 0..SIZE {
            prop_assert_eq!(m.peek(a).unwrap(), 0, "address {} mutated by failed step", a);
        }
    }
}

/// Splits `total` lanes into the run lengths a lane mask would produce
/// from the given cut points (deduplicated, sorted, clamped).
fn runs_from_cuts(total: usize, cuts: &[usize]) -> Vec<(usize, usize)> {
    let mut points: Vec<usize> = cuts.iter().map(|&c| c % (total + 1)).collect();
    points.push(0);
    points.push(total);
    points.sort_unstable();
    points.dedup();
    points
        .windows(2)
        .filter(|w| w[1] > w[0])
        .map(|w| (w[0], w[1] - w[0]))
        .collect()
}

proptest! {
    /// A masked thick multioperation splits into a *rank-ordered chain* of
    /// same-word `BulkMulti` references at mask-run boundaries. The chain
    /// must stay bit-equivalent to the per-lane expansion — replies,
    /// per-step stats, final memory — for every kind, reply mode and CRCW
    /// policy, and must resolve on the closed-form fast path (the whole
    /// point of splitting at run boundaries instead of materializing).
    #[test]
    fn masked_multiop_chain_matches_expansion(
        kind in arb_kind(),
        prefix in any::<bool>(),
        base in 0usize..SIZE,
        total in 1usize..40,
        cuts in prop::collection::vec(0usize..40, 0..6),
        vbase in any::<i32>(),
        vstride in -4i32..5,
        policy_idx in 0usize..POLICIES.len(),
    ) {
        let policy = POLICIES[policy_idx];
        let runs = runs_from_cuts(total, &cuts);
        let lane_val =
            |k: usize| (vbase as Word).wrapping_add((k as Word).wrapping_mul(vstride as Word));
        let chain: Vec<MemRef> = runs
            .iter()
            .map(|&(start, len)| {
                MemRef::new(
                    RefOrigin::new(0, start),
                    MemOp::BulkMulti {
                        kind,
                        prefix,
                        base,
                        astride: 0,
                        count: len as u32,
                        vbase: lane_val(start),
                        vstride: vstride as Word,
                    },
                )
            })
            .collect();
        let flat: Vec<MemRef> = (0..total)
            .map(|k| {
                MemRef::new(
                    RefOrigin::new(0, k),
                    if prefix {
                        MemOp::Prefix(kind, base, lane_val(k))
                    } else {
                        MemOp::Multi(kind, base, lane_val(k))
                    },
                )
            })
            .collect();
        let mut a = SharedMemory::new(SIZE, 4, ModuleMap::Interleaved, policy);
        let mut b = SharedMemory::new(SIZE, 4, ModuleMap::Interleaved, policy);
        for addr in 0..SIZE {
            a.poke(addr, (addr as Word).wrapping_mul(3) + 2).unwrap();
            b.poke(addr, (addr as Word).wrapping_mul(3) + 2).unwrap();
        }
        let (_, bulk, s1) = a.step_bulk(&chain).unwrap();
        let (flat_replies, s2) = b.step(&flat).unwrap();
        prop_assert_eq!(s1, s2, "per-step stats diverged");
        prop_assert_eq!(
            a.bulk_stats().expanded, 0,
            "rank-ordered chain fell off the closed-form path"
        );
        prop_assert_eq!(a.bulk_stats().fast, chain.len() as u64);
        if prefix {
            for (i, &(start, len)) in runs.iter().enumerate() {
                for k in 0..len {
                    prop_assert_eq!(bulk.lane(i, k), flat_replies[start + k]);
                }
            }
        }
        for addr in 0..SIZE {
            prop_assert_eq!(a.peek(addr).unwrap(), b.peek(addr).unwrap());
        }
    }

    /// A masked strided reference (one address progression split at
    /// mask-run boundaries into sub-progressions) is bit-equivalent to the
    /// unsplit reference and to the per-lane expansion.
    #[test]
    fn masked_strided_split_matches_unsplit(
        base in 0usize..32,
        stride in 1i64..4,
        total in 1usize..32,
        cuts in prop::collection::vec(0usize..32, 0..5),
        vbase in any::<i32>(),
        vstride in -4i32..5,
    ) {
        // base < 32, stride < 4, total <= 31 keeps every lane address
        // under 32 + 31*3 < SIZE — in bounds by construction.
        let runs = runs_from_cuts(total, &cuts);
        let lane_addr = |k: usize| (base as i64 + k as i64 * stride) as usize;
        let lane_val =
            |k: usize| (vbase as Word).wrapping_add((k as Word).wrapping_mul(vstride as Word));
        let split: Vec<MemRef> = runs
            .iter()
            .map(|&(start, len)| {
                MemRef::new(
                    RefOrigin::new(0, start),
                    MemOp::StridedWrite {
                        base: lane_addr(start),
                        stride,
                        count: len as u32,
                        vbase: lane_val(start),
                        vstride: vstride as Word,
                    },
                )
            })
            .collect();
        let whole = vec![MemRef::new(
            RefOrigin::new(0, 0),
            MemOp::StridedWrite {
                base,
                stride,
                count: total as u32,
                vbase: vbase as Word,
                vstride: vstride as Word,
            },
        )];
        let mut a = SharedMemory::new(SIZE, 4, ModuleMap::Interleaved, CrcwPolicy::Arbitrary);
        let mut b = SharedMemory::new(SIZE, 4, ModuleMap::Interleaved, CrcwPolicy::Arbitrary);
        a.step_bulk(&split).unwrap();
        b.step_bulk(&whole).unwrap();
        prop_assert_eq!(a.bulk_stats().expanded, 0, "disjoint sub-progressions expanded");
        for addr in 0..SIZE {
            prop_assert_eq!(a.peek(addr).unwrap(), b.peek(addr).unwrap());
        }
    }
}

/// A chain whose references arrive rank-*misordered* must not take the
/// closed-form path (sequential resolution would combine in the wrong
/// order for non-commutative observers — prefix replies), and must still
/// match the per-lane expansion bit-for-bit through the fallback.
#[test]
fn misordered_multiop_chain_expands_and_matches() {
    let chain = vec![
        MemRef::new(
            RefOrigin::new(0, 4),
            MemOp::BulkMulti {
                kind: MultiKind::Add,
                prefix: true,
                base: 9,
                astride: 0,
                count: 3,
                vbase: 100,
                vstride: 1,
            },
        ),
        MemRef::new(
            RefOrigin::new(0, 0),
            MemOp::BulkMulti {
                kind: MultiKind::Add,
                prefix: true,
                base: 9,
                astride: 0,
                count: 4,
                vbase: 5,
                vstride: 2,
            },
        ),
    ];
    let flat = vec![
        MemRef::new(RefOrigin::new(0, 4), MemOp::Prefix(MultiKind::Add, 9, 100)),
        MemRef::new(RefOrigin::new(0, 5), MemOp::Prefix(MultiKind::Add, 9, 101)),
        MemRef::new(RefOrigin::new(0, 6), MemOp::Prefix(MultiKind::Add, 9, 102)),
        MemRef::new(RefOrigin::new(0, 0), MemOp::Prefix(MultiKind::Add, 9, 5)),
        MemRef::new(RefOrigin::new(0, 1), MemOp::Prefix(MultiKind::Add, 9, 7)),
        MemRef::new(RefOrigin::new(0, 2), MemOp::Prefix(MultiKind::Add, 9, 9)),
        MemRef::new(RefOrigin::new(0, 3), MemOp::Prefix(MultiKind::Add, 9, 11)),
    ];
    let mut a = SharedMemory::new(SIZE, 4, ModuleMap::Interleaved, CrcwPolicy::Arbitrary);
    let mut b = SharedMemory::new(SIZE, 4, ModuleMap::Interleaved, CrcwPolicy::Arbitrary);
    a.poke(9, 1000).unwrap();
    b.poke(9, 1000).unwrap();
    let (_, bulk, s1) = a.step_bulk(&chain).unwrap();
    let (flat_replies, s2) = b.step(&flat).unwrap();
    assert_eq!(s1, s2);
    assert_eq!(a.bulk_stats().expanded, 2, "misordered chain must expand");
    for (k, &reply) in flat_replies.iter().enumerate() {
        let (chain_idx, lane) = if k < 3 { (0, k) } else { (1, k - 3) };
        assert_eq!(bulk.lane(chain_idx, lane), reply);
    }
    assert_eq!(a.peek(9).unwrap(), b.peek(9).unwrap());
}
