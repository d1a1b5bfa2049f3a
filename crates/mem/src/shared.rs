//! The emulated shared memory: step-synchronous word storage distributed
//! over modules.

use serde::{Deserialize, Serialize};

use tcf_isa::instr::MultiKind;
use tcf_isa::program::DataBlock;
use tcf_isa::word::{Addr, Word};

use crate::error::MemError;
use crate::hash::{ModuleMap, StridedModules};
use crate::module::combine;
use crate::refs::{MemOp, MemRef, RefOrigin};
use crate::stats::StepStats;

/// Concurrent-access policy of the shared memory.
///
/// The PRAM-NUMA machine family is a CRCW PRAM with multioperations; the
/// weaker policies are provided so algorithm implementations can be checked
/// against stricter PRAM submodels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrcwPolicy {
    /// Concurrent writes allowed; the *highest*-rank writer wins. (A legal
    /// refinement of "arbitrary" that keeps simulation deterministic, and
    /// deliberately different from `Priority` so the two are observably
    /// distinct.)
    Arbitrary,
    /// Concurrent writes allowed; the *lowest*-rank writer wins (the
    /// classical Priority CRCW PRAM).
    Priority,
    /// Concurrent writes must all carry the same value, else a fault.
    Common,
    /// Concurrent reads allowed, concurrent writes fault (CREW).
    Crew,
    /// Any concurrent access to one address faults (EREW).
    Erew,
}

/// How bulk (strided) references were resolved so far: through the
/// disjoint closed-form path or through literal lane expansion. These are
/// memory-lifetime counters (not per-step [`StepStats`]) so the
/// fast-vs-expansion equivalence tests, which compare per-step stats
/// across the two paths, stay meaningful.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BulkPathStats {
    /// Bulk references resolved by the disjoint fast path (no lane
    /// materialization).
    pub fast: u64,
    /// Bulk references that fell back to literal lane expansion
    /// (conflict-driven: overlapping address sets or a zero stride).
    pub expanded: u64,
    /// Total lanes materialized by those expansions.
    pub expanded_lanes: u64,
}

/// Reusable buffers for the shared-memory step: the sort-based
/// address-grouping pairs plus per-address resolution arenas.
///
/// A machine in steady state issues a memory step every cycle; building a
/// fresh `BTreeMap<Addr, Vec<usize>>` (plus per-address vectors) each time
/// dominated the resolution cost. A `StepScratch` persists across steps —
/// its vectors reach the workload's high-water mark once and then recycle
/// their allocations. [`SharedMemory::step_with`] takes one; the
/// scratch-free [`step`](SharedMemory::step) wrapper builds a throwaway
/// (tests, one-shot host calls).
///
/// Determinism is unchanged: the pair sort orders by `(addr, ref index)`,
/// reproducing the old map's ascending-address iteration with
/// ascending-index groups, and the per-kind combine buffers are visited in
/// [`MultiKind`] declaration order — the same order the old
/// `BTreeMap<MultiKind, _>` iterated, since the enum's `Ord` derives from
/// declaration order.
#[derive(Debug, Default, Clone)]
pub struct StepScratch {
    /// `(addr, ref index)` pairs, sorted to group references by address.
    pairs: Vec<(Addr, usize)>,
    /// Pending `(ref index, reply)` pairs of the step.
    replies: Vec<(usize, Word)>,
    /// Staged `(addr, new value)` writes of the step.
    staged: Vec<(Addr, Word)>,
    /// Per-address resolution arena.
    addr: AddrScratch,
    /// Lane-expanded references of a bulk step that could not take the
    /// disjoint fast path.
    flat: Vec<MemRef>,
    /// Reply slots of the lane-expanded step.
    flat_replies: Vec<Option<Word>>,
}

/// Per-address scratch of [`StepScratch`]: plain-write and combining
/// buffers, cleared for every resolved address.
#[derive(Debug, Default, Clone)]
struct AddrScratch {
    /// `(rank, value)` plain-write contenders.
    plain_writes: Vec<(usize, Word)>,
    /// `(rank, contribution, reply slot)` per combining kind, indexed by
    /// `MultiKind` declaration order.
    combines: [Vec<(usize, Word, Option<usize>)>; 6],
    /// Rank-ordered contribution values handed to the combiner.
    values: Vec<Word>,
    /// Rank-indexed slot map of the dense scatter (`u32::MAX` = empty).
    slots: Vec<u32>,
    /// Scatter output, swapped with the combine buffer being ordered.
    sorted: Vec<(usize, Word, Option<usize>)>,
}

/// Orders combine entries by rank. Ranks within one combining step are
/// lane ids and in practice unique and near-contiguous, so a dense
/// rank-bucket scatter replaces the former `O(n log n)`
/// `sort_by_key(rank)`: place each entry at `rank - min` in a slot map,
/// then read the slots back in order. Falls back to the stable sort when
/// ranks collide (two flows contributing under the same rank) or span too
/// wide a range for a cheap slot fill — the fallback preserves the exact
/// pre-scatter semantics (issue order among equal ranks).
fn order_by_rank(
    entries: &mut Vec<(usize, Word, Option<usize>)>,
    slots: &mut Vec<u32>,
    sorted: &mut Vec<(usize, Word, Option<usize>)>,
) {
    let n = entries.len();
    if n <= 1 {
        return;
    }
    let mut lo = usize::MAX;
    let mut hi = 0usize;
    for &(rank, _, _) in entries.iter() {
        lo = lo.min(rank);
        hi = hi.max(rank);
    }
    let range = hi - lo + 1;
    // `range < n` implies a duplicate; a huge sparse range would make the
    // slot fill itself the cost.
    if range >= n && range <= 4 * n + 1024 {
        slots.clear();
        slots.resize(range, u32::MAX);
        let mut unique = true;
        for (j, &(rank, _, _)) in entries.iter().enumerate() {
            let s = rank - lo;
            if slots[s] != u32::MAX {
                unique = false;
                break;
            }
            slots[s] = j as u32;
        }
        if unique {
            sorted.clear();
            sorted.extend(
                slots
                    .iter()
                    .filter(|&&j| j != u32::MAX)
                    .map(|&j| entries[j as usize]),
            );
            std::mem::swap(entries, sorted);
            return;
        }
    }
    entries.sort_by_key(|&(rank, _, _)| rank);
}

/// The step-synchronous shared memory of one machine.
///
/// Within a [`step`](SharedMemory::step) every read observes the state
/// before the step's writes (the classical PRAM read-then-write step), plain
/// concurrent writes resolve per [`CrcwPolicy`], and
/// multioperation/multiprefix contributions to one word are combined by the
/// active memory unit in thread-rank order. Multioperations are exempt from
/// the exclusivity checks of `Crew`/`Erew`: combining is their entire
/// purpose, and the machines that provide them route them through dedicated
/// hardware.
///
/// If one step mixes plain writes and multioperations on the same address,
/// the plain writes resolve first and the combinations apply on top — a
/// defined (if inadvisable) guest behaviour.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SharedMemory {
    words: Vec<Word>,
    modules: usize,
    map: ModuleMap,
    policy: CrcwPolicy,
    bulk_stats: BulkPathStats,
}

impl SharedMemory {
    /// Creates a zeroed shared memory of `size` words over `modules`
    /// modules.
    pub fn new(size: usize, modules: usize, map: ModuleMap, policy: CrcwPolicy) -> SharedMemory {
        assert!(modules > 0, "a machine needs at least one memory module");
        SharedMemory {
            words: vec![0; size],
            modules,
            map,
            policy,
            bulk_stats: BulkPathStats::default(),
        }
    }

    /// Bulk-resolution counters so far (fast-path vs conflict-driven
    /// expansion).
    pub fn bulk_stats(&self) -> &BulkPathStats {
        &self.bulk_stats
    }

    /// Size of the address space in words.
    #[inline]
    pub fn size(&self) -> usize {
        self.words.len()
    }

    /// Number of physical modules.
    #[inline]
    pub fn modules(&self) -> usize {
        self.modules
    }

    /// The module an address maps to.
    #[inline]
    pub fn module_of(&self, addr: Addr) -> usize {
        self.map.module_of(addr, self.modules)
    }

    /// Per-lane module increment of an address progression with the given
    /// stride, when the module map preserves progressions: under low-order
    /// interleaving lane `k` of a strided access hits module
    /// `(module_of(base) + k·step) mod modules`, and a zero stride stays
    /// on one module under any map. A hashed map scatters a nonzero
    /// stride's progression, so there is no step — callers walk it with
    /// [`strided_modules`](SharedMemory::strided_modules).
    #[inline]
    pub fn strided_node_step(&self, stride: i64) -> Option<usize> {
        match self.map {
            _ if stride == 0 => Some(0),
            ModuleMap::Interleaved => Some(stride.rem_euclid(self.modules as i64) as usize),
            ModuleMap::LinearHash { .. } => None,
        }
    }

    /// The modules of the address progression `base + k·stride`,
    /// `k = 0..count`, in lane order ([`ModuleMap::strided_modules`] over
    /// this memory's modules). Every lane address must be exact.
    #[inline]
    pub fn strided_modules(&self, base: Addr, stride: i64, count: usize) -> StridedModules {
        self.map.strided_modules(base, stride, count, self.modules)
    }

    /// Host read (no step semantics), for runtimes and tests.
    pub fn peek(&self, addr: Addr) -> Result<Word, MemError> {
        self.words.get(addr).copied().ok_or(MemError::OutOfBounds {
            addr,
            size: self.words.len(),
        })
    }

    /// Host write (no step semantics), for runtimes and tests.
    pub fn poke(&mut self, addr: Addr, value: Word) -> Result<(), MemError> {
        let size = self.words.len();
        match self.words.get_mut(addr) {
            Some(w) => {
                *w = value;
                Ok(())
            }
            None => Err(MemError::OutOfBounds { addr, size }),
        }
    }

    /// Host read of a contiguous range.
    pub fn peek_range(&self, base: Addr, len: usize) -> Result<Vec<Word>, MemError> {
        (base..base + len).map(|a| self.peek(a)).collect()
    }

    /// Loads a program's static data blocks.
    pub fn load_data(&mut self, blocks: &[DataBlock]) -> Result<(), MemError> {
        for block in blocks {
            for (i, &w) in block.words.iter().enumerate() {
                self.poke(block.base + i, w)?;
            }
        }
        Ok(())
    }

    /// Executes one synchronous memory step.
    ///
    /// Returns one reply slot per input reference (aligned by index): the
    /// read value for `Read`, the rank-order exclusive prefix for `Prefix`,
    /// and `None` for `Write`/`Multi`. Also returns the step's congestion
    /// statistics.
    pub fn step(&mut self, refs: &[MemRef]) -> Result<(Vec<Option<Word>>, StepStats), MemError> {
        let mut scratch = StepScratch::default();
        self.step_with(refs, &mut scratch)
    }

    /// [`step`](SharedMemory::step) with caller-provided scratch buffers —
    /// the steady-state entry point. Machines keep one [`StepScratch`] per
    /// resolution context so the per-step address grouping and combining
    /// allocate nothing once warm.
    pub fn step_with(
        &mut self,
        refs: &[MemRef],
        scratch: &mut StepScratch,
    ) -> Result<(Vec<Option<Word>>, StepStats), MemError> {
        let mut replies = Vec::new();
        let stats = self.step_into(refs, scratch, &mut replies)?;
        Ok((replies, stats))
    }

    /// [`step_with`](SharedMemory::step_with), writing the per-reference
    /// reply slots into a caller-owned buffer (cleared and refilled each
    /// call) so a warm caller allocates nothing at all.
    pub fn step_into(
        &mut self,
        refs: &[MemRef],
        scratch: &mut StepScratch,
        replies: &mut Vec<Option<Word>>,
    ) -> Result<StepStats, MemError> {
        debug_assert!(
            refs.iter().all(|r| !r.op.is_bulk()),
            "bulk references resolve through step_bulk_into"
        );
        let mut stats = StepStats::new(self.modules);
        stats.refs = refs.len();

        // Bounds check and module accounting up front so faults are
        // reported before any mutation.
        for r in refs {
            let addr = r.op.addr();
            if addr >= self.words.len() {
                return Err(MemError::OutOfBounds {
                    addr,
                    size: self.words.len(),
                });
            }
            stats.per_module[self.module_of(addr)] += 1;
        }

        // Group references by address, deterministically: sorting the
        // `(addr, index)` pairs yields ascending addresses with ascending
        // indices inside each address run (the pair order is total, so the
        // unstable sort is deterministic).
        scratch.pairs.clear();
        scratch
            .pairs
            .extend(refs.iter().enumerate().map(|(i, r)| (r.op.addr(), i)));
        scratch.pairs.sort_unstable();

        replies.clear();
        replies.resize(refs.len(), None);
        // The step is atomic: new values are staged and applied only after
        // every address resolved without fault, so a failed step never
        // leaves partial writes behind.
        scratch.replies.clear();
        scratch.staged.clear();

        self.resolve_pairs(refs, scratch, &mut stats)?;
        for &(i, v) in &scratch.replies {
            replies[i] = Some(v);
        }
        for &(addr, value) in &scratch.staged {
            self.words[addr] = value;
        }

        Ok(stats)
    }

    /// Resolves the sorted `(addr, index)` pairs in `scratch.pairs` into
    /// `scratch.replies`/`scratch.staged`, accumulating `hot_addrs` and
    /// `combined` into `stats` — the address-grouped core of
    /// [`step_into`](SharedMemory::step_into), shared with the
    /// scalar-subset resolution of the bulk path.
    fn resolve_pairs(
        &self,
        refs: &[MemRef],
        scratch: &mut StepScratch,
        stats: &mut StepStats,
    ) -> Result<(), MemError> {
        let mut start = 0;
        while start < scratch.pairs.len() {
            let addr = scratch.pairs[start].0;
            let mut end = start + 1;
            while end < scratch.pairs.len() && scratch.pairs[end].0 == addr {
                end += 1;
            }
            let value = if end - start == 1 {
                // Overwhelmingly common case (per-thread strided access):
                // one reference per address needs no policy check and no
                // combine arena.
                self.resolve_single(scratch.pairs[start].1, refs, &mut scratch.replies)
            } else {
                stats.hot_addrs += 1;
                let run = &scratch.pairs[start..end];
                let (value, combined) =
                    self.resolve_addr(addr, run, refs, &mut scratch.addr, &mut scratch.replies)?;
                stats.combined += combined;
                value
            };
            scratch.staged.push((addr, value));
            start = end;
        }
        Ok(())
    }

    /// Resolves an address referenced exactly once — the overwhelmingly
    /// common case under per-thread strided access. A lone reference can
    /// violate no exclusivity policy and a lone multioperation
    /// contribution combines directly, so the combine arena (and its
    /// per-address clear/sort work) is skipped entirely. Must agree with
    /// [`resolve_addr`](Self::resolve_addr) on single-element runs (see
    /// the `single_ref_fast_path_matches_general_path` test).
    #[inline]
    fn resolve_single(&self, i: usize, refs: &[MemRef], replies: &mut Vec<(usize, Word)>) -> Word {
        match refs[i].op {
            MemOp::Read(addr) => {
                let old = self.words[addr];
                replies.push((i, old));
                old
            }
            MemOp::Write(_, v) => v,
            MemOp::Multi(kind, addr, v) => kind.combine(self.words[addr], v),
            MemOp::Prefix(kind, addr, v) => {
                // The exclusive prefix of the sole participant is the
                // memory's old value (the combine seed).
                let old = self.words[addr];
                replies.push((i, old));
                kind.combine(old, v)
            }
            MemOp::StridedRead { .. } | MemOp::StridedWrite { .. } | MemOp::BulkMulti { .. } => {
                unreachable!("bulk references resolve through step_bulk_into")
            }
        }
    }

    /// Resolves every reference to one address (the `run` of sorted
    /// `(addr, index)` pairs): CRCW policy checks, plain write resolution,
    /// multioperation combining. Pure with respect to the stored words.
    /// Replies append to `replies`; returns `(staged value, references
    /// absorbed by combining)`.
    fn resolve_addr(
        &self,
        addr: Addr,
        run: &[(Addr, usize)],
        refs: &[MemRef],
        arena: &mut AddrScratch,
        replies: &mut Vec<(usize, Word)>,
    ) -> Result<(Word, usize), MemError> {
        let old = self.words[addr];
        let mut combined = 0usize;

        arena.plain_writes.clear();
        for c in &mut arena.combines {
            c.clear();
        }
        let mut readers = 0usize;
        let mut writers = 0usize;

        for &(_, i) in run {
            match refs[i].op {
                MemOp::Read(_) => {
                    replies.push((i, old));
                    readers += 1;
                }
                MemOp::Write(_, v) => {
                    arena.plain_writes.push((refs[i].origin.rank, v));
                    writers += 1;
                }
                MemOp::Multi(kind, _, v) => {
                    arena.combines[kind as usize].push((refs[i].origin.rank, v, None));
                }
                MemOp::Prefix(kind, _, v) => {
                    arena.combines[kind as usize].push((refs[i].origin.rank, v, Some(i)));
                }
                MemOp::StridedRead { .. }
                | MemOp::StridedWrite { .. }
                | MemOp::BulkMulti { .. } => {
                    unreachable!("bulk references resolve through step_bulk_into")
                }
            }
        }

        // Exclusivity policies (multioperations exempt, see type docs).
        match self.policy {
            CrcwPolicy::Erew => {
                if readers + writers > 1 {
                    return Err(MemError::ExclusiveViolation {
                        addr,
                        refs: readers + writers,
                    });
                }
            }
            CrcwPolicy::Crew => {
                if writers > 1 {
                    return Err(MemError::ExclusiveViolation {
                        addr,
                        refs: writers,
                    });
                }
            }
            CrcwPolicy::Common => {
                if writers > 1 {
                    let first = arena.plain_writes[0].1;
                    if arena.plain_writes.iter().any(|&(_, v)| v != first) {
                        return Err(MemError::CommonWriteConflict { addr });
                    }
                }
            }
            CrcwPolicy::Arbitrary | CrcwPolicy::Priority => {}
        }

        // Resolve plain writes. Only one extreme-rank contender survives,
        // so a linear scan replaces the former stable sort: `Arbitrary`
        // takes the highest rank (`>=` so the later contender wins rank
        // ties, as `.last()` after a stable sort did), everything else
        // the lowest (strict `<` keeps the earliest tied contender, as
        // `.first()` did).
        let mut value = old;
        if let Some(&first) = arena.plain_writes.first() {
            let mut best = first;
            match self.policy {
                CrcwPolicy::Arbitrary => {
                    for &(rank, v) in &arena.plain_writes[1..] {
                        if rank >= best.0 {
                            best = (rank, v);
                        }
                    }
                }
                _ => {
                    for &(rank, v) in &arena.plain_writes[1..] {
                        if rank < best.0 {
                            best = (rank, v);
                        }
                    }
                }
            }
            value = best.1;
        }

        // Apply combinations in `MultiKind` declaration order (== the
        // enum's `Ord`, so the same deterministic order the former
        // `BTreeMap<MultiKind, _>` iterated in).
        for k in 0..arena.combines.len() {
            if arena.combines[k].is_empty() {
                continue;
            }
            let kind = MultiKind::ALL[k];
            {
                let AddrScratch {
                    combines,
                    slots,
                    sorted,
                    ..
                } = arena;
                order_by_rank(&mut combines[k], slots, sorted);
            }
            combined += arena.combines[k].len().saturating_sub(1);
            arena.values.clear();
            arena
                .values
                .extend(arena.combines[k].iter().map(|&(_, v, _)| v));
            let want_prefixes = arena.combines[k].iter().any(|&(_, _, slot)| slot.is_some());
            let outcome = combine(kind, value, &arena.values, want_prefixes);
            if want_prefixes {
                for (j, &(_, _, slot)) in arena.combines[k].iter().enumerate() {
                    if let Some(i) = slot {
                        replies.push((i, outcome.prefixes[j]));
                    }
                }
            }
            value = outcome.new_value;
        }

        Ok((value, combined))
    }

    /// [`step`](SharedMemory::step) for reference lists that may contain
    /// bulk (strided) references; the one-shot convenience wrapper around
    /// [`step_bulk_into`](SharedMemory::step_bulk_into).
    pub fn step_bulk(
        &mut self,
        refs: &[MemRef],
    ) -> Result<(Vec<Option<Word>>, BulkReplies, StepStats), MemError> {
        let mut scratch = StepScratch::default();
        let mut replies = Vec::new();
        let mut bulk = BulkReplies::default();
        let stats = self.step_bulk_into(refs, &mut scratch, &mut replies, &mut bulk)?;
        Ok((replies, bulk, stats))
    }

    /// [`step_into`](SharedMemory::step_into) accepting bulk (strided)
    /// references.
    ///
    /// A bulk reference's semantics are its lane expansion (see
    /// [`MemOp`]); this entry point resolves it without materializing the
    /// lanes whenever the step's address sets are provably disjoint —
    /// each bulk read gathers directly (compressing an affine value run
    /// back to `base + k·stride` form when it detects one) and each bulk
    /// write scatters its progression, for O(lanes) word traffic instead
    /// of O(lanes · log lanes) sort-and-resolve work and no per-lane
    /// `MemRef` materialization. Anything short of provable disjointness
    /// (including a zero address stride) falls back to literal expansion,
    /// so CRCW policies, combining and fault semantics cannot diverge
    /// from the scalar path.
    ///
    /// Scalar replies land in `replies` (aligned by reference index, as
    /// in `step_into`; bulk slots stay `None`); each `StridedRead`'s lane
    /// values land in `bulk` keyed by its reference index.
    pub fn step_bulk_into(
        &mut self,
        refs: &[MemRef],
        scratch: &mut StepScratch,
        replies: &mut Vec<Option<Word>>,
        bulk: &mut BulkReplies,
    ) -> Result<StepStats, MemError> {
        bulk.clear();
        if refs.iter().all(|r| !r.op.is_bulk()) {
            return self.step_into(refs, scratch, replies);
        }
        if self.bulk_overlaps(refs) {
            for r in refs.iter().filter(|r| r.op.is_bulk()) {
                self.bulk_stats.expanded += 1;
                self.bulk_stats.expanded_lanes += r.op.bulk_count() as u64;
            }
            return self.step_bulk_expanded(refs, scratch, replies, bulk);
        }
        self.bulk_stats.fast += refs.iter().filter(|r| r.op.is_bulk()).count() as u64;

        // Disjoint fast path. Bounds-check every lane in issue order
        // first, so faults are reported before any mutation and agree
        // with the expansion.
        let mut stats = StepStats::new(self.modules);
        // Zero-astride multioperation targets, grouped after the scan:
        // a rank-ordered chain of same-word references must count its hot
        // address once with `total - 1` combines, matching the expansion.
        let mut hot: Vec<(Addr, usize)> = Vec::new();
        for r in refs {
            match r.op {
                MemOp::StridedRead {
                    base,
                    stride,
                    count,
                }
                | MemOp::StridedWrite {
                    base,
                    stride,
                    count,
                    ..
                } => {
                    if let Some(addr) = self.first_oob_lane(base, stride, count) {
                        return Err(MemError::OutOfBounds {
                            addr,
                            size: self.words.len(),
                        });
                    }
                    stats.refs += count as usize;
                    self.count_strided_modules(base, stride, count, &mut stats);
                }
                MemOp::BulkMulti {
                    base,
                    astride,
                    count,
                    ..
                } => {
                    if let Some(addr) = self.first_oob_lane(base, astride, count) {
                        return Err(MemError::OutOfBounds {
                            addr,
                            size: self.words.len(),
                        });
                    }
                    stats.refs += count as usize;
                    self.count_strided_modules(base, astride, count, &mut stats);
                    if astride == 0 && count >= 1 {
                        hot.push((base, count as usize));
                    }
                }
                op => {
                    let addr = op.addr();
                    if addr >= self.words.len() {
                        return Err(MemError::OutOfBounds {
                            addr,
                            size: self.words.len(),
                        });
                    }
                    stats.refs += 1;
                    stats.per_module[self.module_of(addr)] += 1;
                }
            }
        }
        // The expansion resolves all contributions to one word through the
        // combine arena, whether they arrive as one `BulkMulti` or as a
        // rank-ordered chain of them.
        hot.sort_unstable();
        let mut k = 0usize;
        while k < hot.len() {
            let base = hot[k].0;
            let mut total = 0usize;
            while k < hot.len() && hot[k].0 == base {
                total += hot[k].1;
                k += 1;
            }
            if total >= 2 {
                stats.hot_addrs += 1;
                stats.combined += total - 1;
            }
        }

        // Resolve the scalar subset through the ordinary grouped path
        // (it may still fault on a policy violation, in which case
        // nothing has been applied yet).
        scratch.pairs.clear();
        scratch.pairs.extend(
            refs.iter()
                .enumerate()
                .filter(|(_, r)| !r.op.is_bulk())
                .map(|(i, r)| (r.op.addr(), i)),
        );
        scratch.pairs.sort_unstable();
        scratch.replies.clear();
        scratch.staged.clear();
        self.resolve_pairs(refs, scratch, &mut stats)?;

        // Gather bulk reads against the pre-step state (scalar writes are
        // still only staged), then apply scalar writes and scatter bulk
        // writes — disjointness makes the write order immaterial. Bulk
        // multioperations resolve in this same pass: disjointness proves
        // no other reference of the step touches their addresses, so the
        // read-combine-write (and its prefix replies, pushed in reference
        // order like the reads) cannot be observed out of order.
        for (i, r) in refs.iter().enumerate() {
            match r.op {
                MemOp::StridedRead {
                    base,
                    stride,
                    count,
                } => {
                    bulk.push_gathered(
                        i,
                        (0..count as usize)
                            .map(|k| self.words[(base as i64 + k as i64 * stride) as usize]),
                    );
                }
                MemOp::BulkMulti {
                    kind,
                    prefix,
                    base,
                    astride,
                    count,
                    vbase,
                    vstride,
                } => {
                    self.resolve_bulk_multi(
                        i, kind, prefix, base, astride, count, vbase, vstride, bulk,
                    );
                }
                _ => {}
            }
        }
        replies.clear();
        replies.resize(refs.len(), None);
        for &(i, v) in &scratch.replies {
            replies[i] = Some(v);
        }
        for &(addr, value) in &scratch.staged {
            self.words[addr] = value;
        }
        for r in refs {
            if let MemOp::StridedWrite {
                base,
                stride,
                count,
                vbase,
                vstride,
            } = r.op
            {
                for k in 0..count as usize {
                    let addr = (base as i64 + k as i64 * stride) as usize;
                    self.words[addr] = vbase.wrapping_add((k as Word).wrapping_mul(vstride));
                }
            }
        }

        Ok(stats)
    }

    /// Resolves one disjoint-path `BulkMulti`: lane `k` contributes
    /// `vbase + k·vstride` to `base + k·astride`, with rank order equal
    /// to lane order by construction. With `astride == 0` the whole run
    /// combines into one word: `Add` folds by the arithmetic-series sum
    /// in O(1) (exact mod 2^64), `Max`/`Min` take the progression's
    /// endpoint extremes when it provably does not wrap, the bitwise
    /// kinds collapse for uniform contributions, and anything else folds
    /// the `count` values directly — still without materializing per-lane
    /// `MemRef`s or touching the combine arena. Prefix replies are the
    /// running combine in lane (= rank) order, pushed through the same
    /// compressing reply arena as bulk reads. Only called from the
    /// disjoint fast path, where no other reference of the step can touch
    /// this reference's addresses.
    #[allow(clippy::too_many_arguments)]
    fn resolve_bulk_multi(
        &mut self,
        ref_idx: usize,
        kind: MultiKind,
        prefix: bool,
        base: Addr,
        astride: i64,
        count: u32,
        vbase: Word,
        vstride: Word,
        bulk: &mut BulkReplies,
    ) {
        let count = count as usize;
        if count == 0 {
            if prefix {
                bulk.push_gathered(ref_idx, std::iter::empty());
            }
            return;
        }
        let contrib = |k: usize| vbase.wrapping_add((k as Word).wrapping_mul(vstride));
        if astride != 0 {
            // Distinct addresses: every lane is its combine's sole
            // participant, so its exclusive prefix is the word's old
            // value (the combine seed).
            if prefix {
                bulk.push_gathered(
                    ref_idx,
                    (0..count).map(|k| self.words[(base as i64 + k as i64 * astride) as usize]),
                );
            }
            for k in 0..count {
                let addr = (base as i64 + k as i64 * astride) as usize;
                self.words[addr] = kind.combine(self.words[addr], contrib(k));
            }
            return;
        }
        let old = self.words[base];
        if prefix {
            let mut acc = old;
            bulk.push_gathered(
                ref_idx,
                (0..count).map(|k| {
                    let p = acc;
                    acc = kind.combine(acc, contrib(k));
                    p
                }),
            );
            self.words[base] = acc;
            return;
        }
        let new = match kind {
            MultiKind::Add => {
                // Σ_k (vbase + k·vstride) = count·vbase + vstride·T(count−1),
                // with the triangular number taken mod 2^64 — wrapping
                // addition is associative and commutative, so the series
                // sum equals the lane-order fold exactly.
                let tri = ((count as u128 * (count as u128 - 1)) / 2) as u64 as i64;
                old.wrapping_add((count as Word).wrapping_mul(vbase))
                    .wrapping_add(vstride.wrapping_mul(tri))
            }
            MultiKind::Max | MultiKind::Min if progression_fits(vbase, vstride, count) => {
                // No wrap ⇒ the progression is monotone, so its extremes
                // sit at the endpoints.
                let last = contrib(count - 1);
                if kind == MultiKind::Max {
                    old.max(vbase.max(last))
                } else {
                    old.min(vbase.min(last))
                }
            }
            MultiKind::And if vstride == 0 => old & vbase,
            MultiKind::Or if vstride == 0 => old | vbase,
            MultiKind::Xor if vstride == 0 => {
                if count % 2 == 1 {
                    old ^ vbase
                } else {
                    old
                }
            }
            // No closed form: chunked progression reduction (exact —
            // every kind is associative and commutative).
            _ => crate::module::fold_progression(kind, old, vbase, vstride, count),
        };
        self.words[base] = new;
    }

    /// The literal-expansion fallback of
    /// [`step_bulk_into`](SharedMemory::step_bulk_into): replace every
    /// bulk reference by its lanes in place (lane `k` gets rank
    /// `origin.rank + k`), run the scalar step, and reassemble the bulk
    /// replies. Trivially equivalent to the defined semantics.
    fn step_bulk_expanded(
        &mut self,
        refs: &[MemRef],
        scratch: &mut StepScratch,
        replies: &mut Vec<Option<Word>>,
        bulk: &mut BulkReplies,
    ) -> Result<StepStats, MemError> {
        let mut flat = std::mem::take(&mut scratch.flat);
        let mut flat_replies = std::mem::take(&mut scratch.flat_replies);
        flat.clear();
        for r in refs {
            match r.op {
                MemOp::StridedRead {
                    base,
                    stride,
                    count,
                } => {
                    flat.extend((0..count as usize).map(|k| {
                        MemRef::new(
                            RefOrigin::new(r.origin.group, r.origin.rank + k),
                            MemOp::Read(Self::lane_addr(base, stride, k)),
                        )
                    }));
                }
                MemOp::StridedWrite {
                    base,
                    stride,
                    count,
                    vbase,
                    vstride,
                } => {
                    flat.extend((0..count as usize).map(|k| {
                        MemRef::new(
                            RefOrigin::new(r.origin.group, r.origin.rank + k),
                            MemOp::Write(
                                Self::lane_addr(base, stride, k),
                                vbase.wrapping_add((k as Word).wrapping_mul(vstride)),
                            ),
                        )
                    }));
                }
                MemOp::BulkMulti {
                    kind,
                    prefix,
                    base,
                    astride,
                    count,
                    vbase,
                    vstride,
                } => {
                    flat.extend((0..count as usize).map(|k| {
                        let addr = Self::lane_addr(base, astride, k);
                        let v = vbase.wrapping_add((k as Word).wrapping_mul(vstride));
                        MemRef::new(
                            RefOrigin::new(r.origin.group, r.origin.rank + k),
                            if prefix {
                                MemOp::Prefix(kind, addr, v)
                            } else {
                                MemOp::Multi(kind, addr, v)
                            },
                        )
                    }));
                }
                _ => flat.push(*r),
            }
        }
        let result = self.step_into(&flat, scratch, &mut flat_replies);
        scratch.flat = flat;
        let stats = match result {
            Ok(s) => s,
            Err(e) => {
                scratch.flat_replies = flat_replies;
                return Err(e);
            }
        };
        replies.clear();
        replies.resize(refs.len(), None);
        let mut pos = 0usize;
        for (i, r) in refs.iter().enumerate() {
            match r.op {
                MemOp::StridedRead { count, .. } => {
                    bulk.push_gathered(
                        i,
                        flat_replies[pos..pos + count as usize]
                            .iter()
                            .map(|v| v.expect("lane read always replies")),
                    );
                    pos += count as usize;
                }
                MemOp::StridedWrite { count, .. } => pos += count as usize,
                MemOp::BulkMulti { prefix, count, .. } => {
                    if prefix {
                        bulk.push_gathered(
                            i,
                            flat_replies[pos..pos + count as usize]
                                .iter()
                                .map(|v| v.expect("lane prefix always replies")),
                        );
                    }
                    pos += count as usize;
                }
                _ => {
                    replies[i] = flat_replies[pos];
                    pos += 1;
                }
            }
        }
        scratch.flat_replies = flat_replies;
        Ok(stats)
    }

    /// Address of lane `k` of a strided reference. Negative lane
    /// addresses cannot arise from a bounds-checked reference; in the
    /// unchecked expansion they saturate to an out-of-range sentinel so
    /// the scalar step faults instead of wrapping.
    #[inline]
    fn lane_addr(base: Addr, stride: i64, k: usize) -> Addr {
        let a = base as i128 + k as i128 * stride as i128;
        if a < 0 {
            usize::MAX
        } else {
            a.min(usize::MAX as i128) as usize
        }
    }

    /// First out-of-bounds lane address of a strided reference, if any —
    /// the lane-order first fault, computed without walking the lanes.
    /// Negative lane addresses report the [`lane_addr`](Self::lane_addr)
    /// sentinel.
    fn first_oob_lane(&self, base: Addr, stride: i64, count: u32) -> Option<Addr> {
        if count == 0 {
            return None;
        }
        let size = self.words.len() as i128;
        let first = base as i128;
        let last = base as i128 + (count as i128 - 1) * stride as i128;
        if first >= 0 && first < size && last >= 0 && last < size {
            // The progression is monotone, so its extremes are at the
            // ends; both in bounds ⇒ every lane in bounds.
            return None;
        }
        // Walk-free first offender: a monotone progression leaves the
        // window exactly once.
        let k = if first >= size {
            0
        } else if stride > 0 {
            // first lane with base + k·stride ≥ size
            ((size - first) + stride as i128 - 1) / stride as i128
        } else if stride < 0 {
            // first lane with base + k·stride < 0
            (first / (-stride as i128)) + 1
        } else {
            0
        };
        Some(Self::lane_addr(base, stride, k as usize))
    }

    /// Adds a strided reference's per-module load to `stats`, matching
    /// the lane expansion. A zero stride puts every lane on one word, so
    /// one lookup counts it under any map. Under low-order interleaving
    /// the progression's residues cycle with period
    /// `modules / gcd(stride, modules)`, so the count folds into one pass
    /// over that cycle; a hashed map walks the progression through
    /// [`ModuleMap::strided_modules`].
    fn count_strided_modules(&self, base: Addr, stride: i64, count: u32, stats: &mut StepStats) {
        let count = count as usize;
        if count == 0 {
            return;
        }
        if stride == 0 {
            stats.per_module[self.module_of(base)] += count;
            return;
        }
        match self.map {
            ModuleMap::Interleaved => {
                let m = self.modules;
                let s = stride.rem_euclid(m as i64) as usize;
                let cycle = if s == 0 { 1 } else { m / gcd(s, m) };
                let mut module = base % m;
                for k in 0..cycle.min(count) {
                    // Lanes k, k+cycle, k+2·cycle… all land on `module`.
                    stats.per_module[module] += (count - k).div_ceil(cycle);
                    module = (module + s) % m;
                }
            }
            ModuleMap::LinearHash { .. } => {
                for module in self.strided_modules(base, stride, count) {
                    stats.per_module[module] += 1;
                }
            }
        }
    }

    /// Whether any two references of the step can touch a common address,
    /// treating bulk references as their lane progressions. Conservative:
    /// `true` routes to the expansion path, so false positives cost only
    /// speed, never correctness. Progressions are compared exactly when
    /// they share a stride (the common case: slices of one thick access),
    /// by address-interval intersection otherwise.
    fn bulk_overlaps(&self, refs: &[MemRef]) -> bool {
        // Normalized (lo, hi, step, aligned) progressions of the bulk
        // refs, with `step > 0`; scalar refs use step 0.
        fn norm(op: &MemOp) -> Option<(i128, i128, i128)> {
            match *op {
                MemOp::StridedRead {
                    base,
                    stride,
                    count,
                }
                | MemOp::StridedWrite {
                    base,
                    stride,
                    count,
                    ..
                } => {
                    if count == 0 {
                        return None;
                    }
                    if stride == 0 && count > 1 {
                        // Self-overlapping: every lane hits `base`.
                        return Some((base as i128, base as i128, -1));
                    }
                    let first = base as i128;
                    let last = base as i128 + (count as i128 - 1) * stride as i128;
                    Some((
                        first.min(last),
                        first.max(last),
                        (stride as i128).abs().max(1),
                    ))
                }
                MemOp::BulkMulti {
                    base,
                    astride,
                    count,
                    ..
                } => {
                    if count == 0 {
                        return None;
                    }
                    if astride == 0 {
                        // Every lane combining into one word is the
                        // reference's purpose, not a self-conflict: it
                        // occupies a single-address span.
                        return Some((base as i128, base as i128, 1));
                    }
                    let first = base as i128;
                    let last = base as i128 + (count as i128 - 1) * astride as i128;
                    Some((first.min(last), first.max(last), (astride as i128).abs()))
                }
                op => Some((op.addr() as i128, op.addr() as i128, 1)),
            }
        }
        type Chain = ((Addr, tcf_isa::instr::MultiKind, bool), usize, usize);
        type Span = ((i128, i128, i128), Option<Chain>);
        // A masked thick multioperation splits into up to one chained
        // same-word reference per mask run, so the cheap pairwise check
        // must hold a full run-budget chain plus the step's other bulk
        // refs before giving up and expanding.
        let mut spans: [Option<Span>; 48] = [None; 48];
        let mut n = 0usize;
        for r in refs {
            let Some(s) = norm(&r.op) else { continue };
            if s.2 < 0 {
                return true; // zero-stride bulk self-overlaps
            }
            let chain = r.multi_chain_key();
            for &(prev, pchain) in spans.iter().take(n).flatten() {
                let (lo1, hi1, s1) = prev;
                let (lo2, hi2, s2) = s;
                if hi1 < lo2 || hi2 < lo1 {
                    continue; // disjoint intervals
                }
                let collide = if s1 == s2 {
                    // Same stride: progressions collide iff their bases
                    // agree modulo the stride (given the intervals meet).
                    (lo1 - lo2).rem_euclid(s1) == 0
                } else {
                    true // different strides, intervals meet: assume the worst
                };
                if collide {
                    // Exception: a rank-ordered chain of same-word bulk
                    // multioperations (equal address/operator/reply kind,
                    // later reference's rank window strictly after the
                    // earlier's) combines associatively in reference
                    // order — exactly the rank-ordered expansion — so the
                    // disjoint fast path resolves it sequentially. This
                    // is what a masked thick multioperation splits into.
                    if let (Some((pk, _, pend)), Some((ck, clo, _))) = (pchain, chain) {
                        if pk == ck && clo >= pend {
                            continue;
                        }
                    }
                    return true;
                }
            }
            if n == spans.len() {
                return true; // too many spans to check cheaply: expand
            }
            spans[n] = Some((s, chain));
            n += 1;
        }
        false
    }
}

/// Whether `vbase + k·vstride` stays within `i64` for every `k < count`
/// when computed exactly — the progression never wraps and is therefore
/// monotone with its extremes at the endpoints. (Intermediate terms lie
/// between the first and last, so checking the last term suffices.)
fn progression_fits(vbase: Word, vstride: Word, count: usize) -> bool {
    let last = vbase as i128 + (count as i128 - 1) * vstride as i128;
    (i64::MIN as i128..=i64::MAX as i128).contains(&last)
}

/// Greatest common divisor (positive inputs).
fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Reply data of one bulk step's `StridedRead` references.
///
/// Lane values are either recognized as an arithmetic progression
/// (`Affine`) — which lets the machine write the destination register
/// back in compressed form — or stored in a flat arena shared by the
/// step's reads. Cleared and refilled by every
/// [`SharedMemory::step_bulk_into`] call.
#[derive(Debug, Default, Clone)]
pub struct BulkReplies {
    /// `(reference index, data)` per replying bulk reference, in
    /// reference order.
    entries: Vec<(usize, BulkData)>,
    /// Value arena backing [`BulkData::Values`].
    words: Vec<Word>,
}

/// The shape of one bulk read's lane values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BulkData {
    /// Lane `k` read `base + k·stride` (wrapping word arithmetic).
    Affine {
        /// Lane 0's value.
        base: Word,
        /// Per-lane increment.
        stride: Word,
    },
    /// Lane values live in the arena at `start .. start + len`.
    Values {
        /// Arena offset of lane 0.
        start: usize,
        /// Lane count.
        len: usize,
    },
}

/// A borrowed view of one bulk read's lane values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BulkView<'a> {
    /// Lane `k` read `base + k·stride` (wrapping word arithmetic).
    Affine {
        /// Lane 0's value.
        base: Word,
        /// Per-lane increment.
        stride: Word,
    },
    /// One value per lane.
    Values(&'a [Word]),
}

impl BulkReplies {
    /// Drops all entries and arena contents (capacity is kept).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.words.clear();
    }

    /// The lane values of the bulk read at reference index `ref_idx`.
    pub fn get(&self, ref_idx: usize) -> Option<BulkView<'_>> {
        let &(_, data) = self.entries.iter().find(|&&(i, _)| i == ref_idx)?;
        Some(match data {
            BulkData::Affine { base, stride } => BulkView::Affine { base, stride },
            BulkData::Values { start, len } => BulkView::Values(&self.words[start..start + len]),
        })
    }

    /// Lane `k` of the bulk read at `ref_idx` (test/debug convenience).
    pub fn lane(&self, ref_idx: usize, k: usize) -> Option<Word> {
        match self.get(ref_idx)? {
            BulkView::Affine { base, stride } => {
                Some(base.wrapping_add((k as Word).wrapping_mul(stride)))
            }
            BulkView::Values(vals) => vals.get(k).copied(),
        }
    }

    /// Records the gathered lane values of the read at `ref_idx`,
    /// compressing them to affine form when they form an arithmetic
    /// progression (so an affine value written by a strided sweep reads
    /// back in the same compressed representation it was written from).
    fn push_gathered(&mut self, ref_idx: usize, vals: impl Iterator<Item = Word>) {
        let start = self.words.len();
        self.words.extend(vals);
        let lane = &self.words[start..];
        let affine = match lane {
            [] | [_] => true,
            [first, second, rest @ ..] => {
                let d = second.wrapping_sub(*first);
                let mut prev = *second;
                let mut ok = true;
                for &w in rest {
                    if w.wrapping_sub(prev) != d {
                        ok = false;
                        break;
                    }
                    prev = w;
                }
                ok
            }
        };
        let data = if affine {
            let base = lane.first().copied().unwrap_or(0);
            let stride = if lane.len() >= 2 {
                lane[1].wrapping_sub(base)
            } else {
                0
            };
            self.words.truncate(start);
            BulkData::Affine { base, stride }
        } else {
            BulkData::Values {
                start,
                len: self.words.len() - start,
            }
        };
        self.entries.push((ref_idx, data));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refs::RefOrigin;

    fn sm(policy: CrcwPolicy) -> SharedMemory {
        SharedMemory::new(64, 4, ModuleMap::Interleaved, policy)
    }

    fn rref(rank: usize, addr: Addr) -> MemRef {
        MemRef::new(RefOrigin::new(0, rank), MemOp::Read(addr))
    }

    /// The rank-bucket scatter must reproduce the stable sort it replaced
    /// across its regimes: dense unique ranks, gappy ranks, duplicate
    /// ranks (fallback), and ranges too sparse to scatter (fallback).
    #[test]
    fn order_by_rank_matches_stable_sort() {
        let cases: Vec<Vec<usize>> = vec![
            vec![],
            vec![7],
            vec![3, 1, 2, 0],            // dense unique, shuffled
            vec![10, 2, 6, 4],           // gappy unique
            vec![5, 1, 5, 3],            // duplicate -> fallback
            vec![100_000, 3, 50_000, 7], // sparse -> fallback
            (0..500).rev().collect(),    // larger dense run
        ];
        let mut slots = Vec::new();
        let mut sorted = Vec::new();
        for ranks in cases {
            // Payload tags each entry with its issue position so tie
            // handling is observable.
            let mut scattered: Vec<(usize, Word, Option<usize>)> = ranks
                .iter()
                .enumerate()
                .map(|(j, &r)| (r, j as Word, Some(j)))
                .collect();
            let mut reference = scattered.clone();
            reference.sort_by_key(|&(rank, _, _)| rank);
            order_by_rank(&mut scattered, &mut slots, &mut sorted);
            assert_eq!(scattered, reference, "ranks {ranks:?}");
        }
    }

    fn wref(rank: usize, addr: Addr, v: Word) -> MemRef {
        MemRef::new(RefOrigin::new(0, rank), MemOp::Write(addr, v))
    }

    #[test]
    fn reads_see_pre_step_state() {
        let mut m = sm(CrcwPolicy::Arbitrary);
        m.poke(5, 100).unwrap();
        let (replies, _) = m.step(&[rref(0, 5), wref(1, 5, 7)]).unwrap();
        assert_eq!(replies[0], Some(100)); // read ignores same-step write
        assert_eq!(m.peek(5).unwrap(), 7);
    }

    #[test]
    fn arbitrary_highest_rank_wins_priority_lowest() {
        let refs = [wref(2, 1, 20), wref(0, 1, 10), wref(1, 1, 15)];
        let mut m = sm(CrcwPolicy::Arbitrary);
        m.step(&refs).unwrap();
        assert_eq!(m.peek(1).unwrap(), 20);
        let mut m = sm(CrcwPolicy::Priority);
        m.step(&refs).unwrap();
        assert_eq!(m.peek(1).unwrap(), 10);
    }

    #[test]
    fn common_agreeing_ok_conflict_faults() {
        let mut m = sm(CrcwPolicy::Common);
        m.step(&[wref(0, 2, 9), wref(1, 2, 9)]).unwrap();
        assert_eq!(m.peek(2).unwrap(), 9);
        let e = m.step(&[wref(0, 2, 1), wref(1, 2, 2)]).unwrap_err();
        assert!(matches!(e, MemError::CommonWriteConflict { addr: 2 }));
    }

    #[test]
    fn crew_faults_on_concurrent_writes_only() {
        let mut m = sm(CrcwPolicy::Crew);
        m.step(&[rref(0, 3), rref(1, 3), wref(2, 4, 1)]).unwrap();
        let e = m.step(&[wref(0, 3, 1), wref(1, 3, 2)]).unwrap_err();
        assert!(matches!(e, MemError::ExclusiveViolation { .. }));
    }

    #[test]
    fn erew_faults_on_any_concurrency() {
        let mut m = sm(CrcwPolicy::Erew);
        m.step(&[rref(0, 3), wref(1, 4, 1)]).unwrap();
        let e = m.step(&[rref(0, 3), rref(1, 3)]).unwrap_err();
        assert!(matches!(e, MemError::ExclusiveViolation { .. }));
    }

    #[test]
    fn multiadd_combines_in_one_step() {
        let mut m = sm(CrcwPolicy::Arbitrary);
        m.poke(10, 5).unwrap();
        let refs: Vec<MemRef> = (0..8)
            .map(|rank| {
                MemRef::new(
                    RefOrigin::new(0, rank),
                    MemOp::Multi(MultiKind::Add, 10, rank as Word + 1),
                )
            })
            .collect();
        let (_, stats) = m.step(&refs).unwrap();
        assert_eq!(m.peek(10).unwrap(), 5 + 36);
        assert_eq!(stats.combined, 7);
        assert_eq!(stats.hot_addrs, 1);
    }

    #[test]
    fn multiprefix_returns_rank_ordered_prefixes() {
        let mut m = sm(CrcwPolicy::Arbitrary);
        m.poke(10, 100).unwrap();
        // Issue out of rank order to check the sort.
        let refs = vec![
            MemRef::new(RefOrigin::new(0, 2), MemOp::Prefix(MultiKind::Add, 10, 30)),
            MemRef::new(RefOrigin::new(0, 0), MemOp::Prefix(MultiKind::Add, 10, 10)),
            MemRef::new(RefOrigin::new(0, 1), MemOp::Prefix(MultiKind::Add, 10, 20)),
        ];
        let (replies, _) = m.step(&refs).unwrap();
        assert_eq!(replies[1], Some(100)); // rank 0: memory seed
        assert_eq!(replies[2], Some(110)); // rank 1: seed + 10
        assert_eq!(replies[0], Some(130)); // rank 2: seed + 10 + 20
        assert_eq!(m.peek(10).unwrap(), 160);
    }

    #[test]
    fn multiops_allowed_under_erew() {
        let mut m = sm(CrcwPolicy::Erew);
        let refs: Vec<MemRef> = (0..4)
            .map(|rank| {
                MemRef::new(
                    RefOrigin::new(0, rank),
                    MemOp::Multi(MultiKind::Max, 0, rank as Word),
                )
            })
            .collect();
        m.step(&refs).unwrap();
        assert_eq!(m.peek(0).unwrap(), 3);
    }

    #[test]
    fn mixed_write_and_multi_write_first() {
        let mut m = sm(CrcwPolicy::Priority);
        m.poke(0, 1000).unwrap();
        let refs = vec![
            MemRef::new(RefOrigin::new(0, 0), MemOp::Write(0, 50)),
            MemRef::new(RefOrigin::new(0, 1), MemOp::Multi(MultiKind::Add, 0, 3)),
        ];
        m.step(&refs).unwrap();
        assert_eq!(m.peek(0).unwrap(), 53); // write resolves, then combine
    }

    #[test]
    fn out_of_bounds_faults_before_mutation() {
        let mut m = sm(CrcwPolicy::Arbitrary);
        let e = m.step(&[wref(0, 1, 7), wref(1, 9999, 1)]).unwrap_err();
        assert!(matches!(e, MemError::OutOfBounds { addr: 9999, .. }));
        assert_eq!(m.peek(1).unwrap(), 0); // first write not applied
    }

    #[test]
    fn multikind_cast_indexes_declaration_order() {
        // The per-kind combine buffers are indexed by `kind as usize`;
        // that is only the declaration (== `Ord`) order while the enum
        // carries no explicit discriminants.
        for (k, kind) in MultiKind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, k);
        }
    }

    #[test]
    fn step_with_reused_scratch_matches_fresh_scratch() {
        // One scratch driven across dissimilar steps (combines, then plain
        // writes, then a faulting step, then reads) must behave exactly
        // like per-step fresh scratch: stale buffer contents never leak.
        let steps: Vec<Vec<MemRef>> = vec![
            vec![
                MemRef::new(RefOrigin::new(0, 1), MemOp::Prefix(MultiKind::Add, 9, 4)),
                MemRef::new(RefOrigin::new(0, 0), MemOp::Prefix(MultiKind::Add, 9, 3)),
                MemRef::new(RefOrigin::new(0, 2), MemOp::Multi(MultiKind::Max, 13, 44)),
            ],
            vec![wref(2, 1, 20), wref(0, 1, 10), rref(1, 9)],
            vec![wref(0, 2, 7), wref(1, 9999, 1)], // faults, nothing staged
            vec![rref(0, 1), rref(1, 13), rref(2, 2)],
        ];
        let mut reused = sm(CrcwPolicy::Arbitrary);
        let mut fresh = sm(CrcwPolicy::Arbitrary);
        let mut scratch = StepScratch::default();
        for refs in &steps {
            let a = reused.step_with(refs, &mut scratch);
            let b = fresh.step(refs);
            match (a, b) {
                (Ok((r1, s1)), Ok((r2, s2))) => {
                    assert_eq!(r1, r2);
                    assert_eq!(s1, s2);
                }
                (Err(e1), Err(e2)) => assert_eq!(e1, e2),
                (a, b) => panic!("diverged: {a:?} vs {b:?}"),
            }
        }
        for a in 0..64 {
            assert_eq!(reused.peek(a).unwrap(), fresh.peek(a).unwrap());
        }
    }

    #[test]
    fn single_ref_fast_path_matches_general_path() {
        // Every op kind through a single-reference address must produce
        // the replies, staged value and stats `resolve_addr` would: pair
        // each lone reference with a two-reference run of the same ops so
        // both paths execute in one step, then cross-check against a
        // memory resolving the lone references via the general path (by
        // duplicating them at rank order extremes that keep the outcome).
        for kind in MultiKind::ALL {
            let mut m = sm(CrcwPolicy::Arbitrary);
            m.poke(3, 100).unwrap();
            m.poke(7, -5).unwrap();
            let refs = vec![
                rref(0, 3),
                wref(1, 5, 42),
                MemRef::new(RefOrigin::new(0, 2), MemOp::Multi(kind, 7, 9)),
                MemRef::new(RefOrigin::new(0, 3), MemOp::Prefix(kind, 11, 6)),
            ];
            let (replies, stats) = m.step(&refs).unwrap();
            assert_eq!(replies[0], Some(100));
            assert_eq!(replies[1], None);
            assert_eq!(replies[2], None);
            assert_eq!(replies[3], Some(0)); // exclusive prefix = old value
            assert_eq!(m.peek(5).unwrap(), 42);
            assert_eq!(m.peek(7).unwrap(), kind.combine(-5, 9));
            assert_eq!(m.peek(11).unwrap(), kind.combine(0, 6));
            assert_eq!(m.peek(3).unwrap(), 100); // read stages the old value
            assert_eq!(stats.hot_addrs, 0);
            assert_eq!(stats.combined, 0);
        }
    }

    /// Expands bulk references into their defining lane references (the
    /// reference semantics the bulk path must reproduce).
    fn expand(refs: &[MemRef]) -> Vec<MemRef> {
        let mut flat = Vec::new();
        for r in refs {
            match r.op {
                MemOp::StridedRead {
                    base,
                    stride,
                    count,
                } => flat.extend((0..count as usize).map(|k| {
                    MemRef::new(
                        RefOrigin::new(r.origin.group, r.origin.rank + k),
                        MemOp::Read((base as i64 + k as i64 * stride) as usize),
                    )
                })),
                MemOp::StridedWrite {
                    base,
                    stride,
                    count,
                    vbase,
                    vstride,
                } => flat.extend((0..count as usize).map(|k| {
                    MemRef::new(
                        RefOrigin::new(r.origin.group, r.origin.rank + k),
                        MemOp::Write(
                            (base as i64 + k as i64 * stride) as usize,
                            vbase.wrapping_add((k as Word).wrapping_mul(vstride)),
                        ),
                    )
                })),
                MemOp::BulkMulti {
                    kind,
                    prefix,
                    base,
                    astride,
                    count,
                    vbase,
                    vstride,
                } => flat.extend((0..count as usize).map(|k| {
                    let addr = (base as i64 + k as i64 * astride) as usize;
                    let v = vbase.wrapping_add((k as Word).wrapping_mul(vstride));
                    MemRef::new(
                        RefOrigin::new(r.origin.group, r.origin.rank + k),
                        if prefix {
                            MemOp::Prefix(kind, addr, v)
                        } else {
                            MemOp::Multi(kind, addr, v)
                        },
                    )
                })),
                _ => flat.push(*r),
            }
        }
        flat
    }

    /// Runs `refs` through the bulk step on one memory and the expansion
    /// through the scalar step on another, asserting identical faults,
    /// replies, statistics, and final memory.
    fn assert_bulk_matches_expansion(policy: CrcwPolicy, refs: &[MemRef]) {
        let mut a = sm(policy);
        let mut b = sm(policy);
        for addr in 0..64 {
            a.poke(addr, addr as Word * 3 - 20).unwrap();
            b.poke(addr, addr as Word * 3 - 20).unwrap();
        }
        let flat = expand(refs);
        let bulk_result = a.step_bulk(refs);
        let flat_result = b.step(&flat);
        match (bulk_result, flat_result) {
            (Err(e1), Err(e2)) => assert_eq!(e1, e2),
            (Ok((replies, bulk, s1)), Ok((flat_replies, s2))) => {
                assert_eq!(s1, s2, "stats diverged");
                let mut pos = 0usize;
                for (i, r) in refs.iter().enumerate() {
                    match r.op {
                        MemOp::StridedRead { count, .. } => {
                            for k in 0..count as usize {
                                assert_eq!(
                                    bulk.lane(i, k),
                                    flat_replies[pos + k],
                                    "lane {k} of bulk read {i}"
                                );
                            }
                            pos += count as usize;
                        }
                        MemOp::StridedWrite { count, .. } => pos += count as usize,
                        _ => {
                            assert_eq!(replies[i], flat_replies[pos]);
                            pos += 1;
                        }
                    }
                }
            }
            (x, y) => panic!("fault behaviour diverged: {x:?} vs {y:?}"),
        }
        for addr in 0..64 {
            assert_eq!(
                a.peek(addr).unwrap(),
                b.peek(addr).unwrap(),
                "address {addr} diverged"
            );
        }
    }

    fn sread(rank: usize, base: Addr, stride: i64, count: u32) -> MemRef {
        MemRef::new(
            RefOrigin::new(0, rank),
            MemOp::StridedRead {
                base,
                stride,
                count,
            },
        )
    }

    fn swrite(
        rank: usize,
        base: Addr,
        stride: i64,
        count: u32,
        vbase: Word,
        vstride: Word,
    ) -> MemRef {
        MemRef::new(
            RefOrigin::new(0, rank),
            MemOp::StridedWrite {
                base,
                stride,
                count,
                vbase,
                vstride,
            },
        )
    }

    #[test]
    fn strided_write_then_read_roundtrips_affine() {
        let mut m = sm(CrcwPolicy::Arbitrary);
        let (_, _, stats) = m.step_bulk(&[swrite(0, 4, 2, 16, 100, 7)]).unwrap();
        assert_eq!(stats.refs, 16);
        for k in 0..16 {
            assert_eq!(m.peek(4 + 2 * k).unwrap(), 100 + 7 * k as Word);
        }
        let (replies, bulk, _) = m.step_bulk(&[sread(0, 4, 2, 16)]).unwrap();
        assert_eq!(replies[0], None); // bulk replies bypass the scalar slot
        assert_eq!(
            bulk.get(0),
            Some(BulkView::Affine {
                base: 100,
                stride: 7
            }),
            "an affine sweep must read back in compressed form"
        );
    }

    #[test]
    fn non_affine_gather_returns_values() {
        let mut m = sm(CrcwPolicy::Arbitrary);
        m.poke(10, 5).unwrap();
        m.poke(11, 6).unwrap();
        m.poke(12, 99).unwrap();
        let (_, bulk, _) = m.step_bulk(&[sread(0, 10, 1, 3)]).unwrap();
        assert_eq!(bulk.get(0), Some(BulkView::Values(&[5, 6, 99])));
    }

    #[test]
    fn bulk_fast_path_matches_expansion_when_disjoint() {
        for policy in [
            CrcwPolicy::Arbitrary,
            CrcwPolicy::Priority,
            CrcwPolicy::Common,
            CrcwPolicy::Crew,
            CrcwPolicy::Erew,
        ] {
            // One read sweep, one write sweep, and scalar traffic — all
            // address-disjoint.
            assert_bulk_matches_expansion(
                policy,
                &[
                    sread(0, 0, 2, 8),
                    swrite(8, 1, 2, 8, -4, 3),
                    rref(16, 63),
                    wref(17, 33, 7),
                ],
            );
        }
    }

    #[test]
    fn overlapping_bulk_falls_back_to_expansion() {
        // Zero-stride bulk write: every lane hits one address; the CRCW
        // policy decides (Arbitrary: highest lane rank wins).
        assert_bulk_matches_expansion(CrcwPolicy::Arbitrary, &[swrite(0, 9, 0, 5, 10, 1)]);
        let mut m = sm(CrcwPolicy::Arbitrary);
        m.step_bulk(&[swrite(0, 9, 0, 5, 10, 1)]).unwrap();
        assert_eq!(m.peek(9).unwrap(), 14);

        // Bulk write crossing a scalar read and a scalar write.
        for policy in [CrcwPolicy::Arbitrary, CrcwPolicy::Priority] {
            assert_bulk_matches_expansion(
                policy,
                &[swrite(0, 0, 3, 10, 50, 5), rref(10, 6), wref(11, 9, -1)],
            );
        }
        // Two overlapping sweeps with equal strides.
        assert_bulk_matches_expansion(
            CrcwPolicy::Arbitrary,
            &[swrite(0, 0, 2, 10, 1, 1), swrite(10, 4, 2, 10, 2, 2)],
        );
        // EREW must fault on the collision exactly as the expansion does.
        assert_bulk_matches_expansion(
            CrcwPolicy::Erew,
            &[swrite(0, 0, 2, 10, 1, 1), swrite(10, 4, 2, 10, 2, 2)],
        );
    }

    #[test]
    fn bulk_out_of_bounds_faults_atomically_with_first_lane() {
        let mut m = sm(CrcwPolicy::Arbitrary);
        // Lanes 0..10 at stride 7 from 22: lane 6 is the first ≥ 64.
        let e = m
            .step_bulk(&[swrite(0, 0, 1, 4, 9, 0), sread(4, 22, 7, 10)])
            .unwrap_err();
        assert!(matches!(e, MemError::OutOfBounds { addr: 64, .. }));
        assert_eq!(m.peek(0).unwrap(), 0, "faulted step must not mutate");
        // A two-lane sweep whose second lane crosses the boundary.
        let e = m.step_bulk(&[sread(0, 63, 1, 2)]).unwrap_err();
        assert!(matches!(e, MemError::OutOfBounds { addr: 64, .. }));
    }

    #[test]
    fn bulk_module_stats_match_expansion() {
        // Strides that are coprime with, divide, and share factors with
        // the module count, plus descending and zero-stride progressions,
        // under interleaving and two hash seeds. Zero-stride strided reads
        // self-overlap and expand; zero-astride multioperations take the
        // fast path, so both kinds of zero stride are covered.
        let maps = [
            ModuleMap::Interleaved,
            ModuleMap::linear(7),
            ModuleMap::linear(0xC0FFEE),
        ];
        let shapes = [
            (0usize, 1i64, 13u32),
            (5, 3, 9),
            (0, 4, 10),
            (2, 6, 7),
            (63, -2, 20),
            (40, -5, 9),
            (8, 0, 1),
            (8, 0, 17),
        ];
        for map in maps {
            for (base, stride, count) in shapes {
                let multi = MemRef::new(
                    RefOrigin::new(0, 0),
                    MemOp::BulkMulti {
                        kind: MultiKind::Add,
                        prefix: false,
                        base,
                        astride: stride,
                        count,
                        vbase: 1,
                        vstride: 0,
                    },
                );
                for refs in [[sread(0, base, stride, count)], [multi]] {
                    let mut a = SharedMemory::new(64, 4, map, CrcwPolicy::Arbitrary);
                    let mut b = SharedMemory::new(64, 4, map, CrcwPolicy::Arbitrary);
                    let (_, _, s1) = a.step_bulk(&refs).unwrap();
                    let (_, s2) = b.step(&expand(&refs)).unwrap();
                    let what = format!("{map:?} {:?}", refs[0].op);
                    assert_eq!(s1.per_module, s2.per_module, "{what}");
                    assert_eq!(s1.refs, s2.refs, "{what}");
                    if matches!(refs[0].op, MemOp::BulkMulti { .. }) {
                        // The counted (not expanded) path was the one checked.
                        assert_eq!(a.bulk_stats().fast, 1, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn step_bulk_without_bulk_refs_matches_step() {
        let refs = [rref(0, 5), wref(1, 5, 70), wref(2, 9, 4)];
        let mut a = sm(CrcwPolicy::Arbitrary);
        let mut b = sm(CrcwPolicy::Arbitrary);
        let (r1, bulk, s1) = a.step_bulk(&refs).unwrap();
        let (r2, s2) = b.step(&refs).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(s1, s2);
        assert!(bulk.get(0).is_none());
    }

    #[test]
    fn load_data_places_blocks() {
        let mut m = sm(CrcwPolicy::Arbitrary);
        m.load_data(&[DataBlock {
            base: 8,
            words: vec![1, 2, 3],
        }])
        .unwrap();
        assert_eq!(m.peek_range(8, 3).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn stats_track_module_loads() {
        let mut m = sm(CrcwPolicy::Arbitrary);
        // Interleaved over 4 modules: addresses 0,4,8 hit module 0.
        let (_, stats) = m
            .step(&[rref(0, 0), rref(1, 4), rref(2, 8), rref(3, 1)])
            .unwrap();
        assert_eq!(stats.per_module[0], 3);
        assert_eq!(stats.max_module_load(), 3);
    }
}
