//! The deterministic parallel execution engine for the synchronous
//! variants.
//!
//! Opt-in via [`TcfMachine::set_engine`] or the `TCF_ENGINE` environment
//! variable (`seq` or `par:<workers>`). The engine shards the
//! embarrassingly parallel phase of a synchronous step, **thick
//! execution**, across a persistent worker pool. A thick instruction's
//! fragments live on *distinct* processor groups, per-lane operations
//! never read another lane's same-instruction writes, and local memories
//! are per-group, so each fragment executes on its own worker against a
//! read-only view of the registers, producing a [`FragOut`] (issue units,
//! memory references, a register write log, a local-memory undo log). The
//! coordinator merges the outputs in fragment order, replaying register
//! writes through the exact `ThickRegs::set` sequence the sequential
//! engine performs — bit-identical down to the `Uniform`/`PerThread`
//! representation.
//!
//! The shared-memory step resolves on the coordinator under both engines
//! (`TcfMachine::memory_step`): a per-module fan-out of it never beat the
//! sequential step.
//!
//! Flow-wise instructions, NUMA slices and the timing phase stay on the
//! coordinator: flows interact (split/join/bunch absorption, shared local
//! memories), and the network's link/service reservations are
//! order-dependent, so parallelizing them could not be bit-identical. See
//! `docs/PARALLEL.md` for the full determinism argument.
//!
//! Both engines execute thick lanes through the same
//! [`exec_thick_lanes`]/[`TcfMachine::merge_frag_outs`] pair — the
//! sequential engine simply runs the fragments inline — so the differential
//! conformance suite (`tests/engine_differential.rs`) guards the merge
//! logic rather than two divergent interpreters.

use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use tcf_isa::reg::Reg;
use tcf_isa::word::{Addr, Word};
use tcf_machine::{IssueUnit, MachineConfig, UnitSeq};
use tcf_mem::{LocalMemory, MemRef, SharedMemory, StepStats};
use tcf_obs::{FlowEvent, ObsSink};

use crate::decoded::DecodedInst;
use crate::error::TcfError;
use crate::exec_sync::{WbTarget, Writeback};
use crate::flow::{Flow, Fragment};
use crate::lanes::{self, LanePlanes};
use crate::machine::TcfMachine;
use crate::thick::{affine_alu, LaneMask, MaskError, Seg, MASK_RUN_BUDGET};

/// Which execution engine a machine steps with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The default single-threaded engine.
    Sequential,
    /// The deterministic parallel engine: thick fragments sharded over
    /// `workers` host threads (the coordinating thread counts as one
    /// worker). `workers == 1` exercises the parallel code path without
    /// spawning threads.
    Parallel {
        /// Total worker count, coordinator included (clamped to ≥ 1).
        workers: usize,
    },
}

impl Engine {
    /// Parses an engine spec: `seq`/`sequential` or `par:<workers>`.
    pub fn from_spec(spec: &str) -> Option<Engine> {
        let s = spec.trim();
        if s.eq_ignore_ascii_case("seq") || s.eq_ignore_ascii_case("sequential") {
            return Some(Engine::Sequential);
        }
        let n = s.strip_prefix("par:")?;
        let workers: usize = n.trim().parse().ok()?;
        Some(Engine::Parallel {
            workers: workers.max(1),
        })
    }

    /// The engine selected by the `TCF_ENGINE` environment variable
    /// (`Sequential` when unset or unparseable).
    pub fn from_env() -> Engine {
        std::env::var("TCF_ENGINE")
            .ok()
            .and_then(|s| Engine::from_spec(&s))
            .unwrap_or(Engine::Sequential)
    }

    /// Whether this is the parallel engine.
    pub fn is_parallel(&self) -> bool {
        matches!(self, Engine::Parallel { .. })
    }
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

type StaticTask = Box<dyn FnOnce() + Send + 'static>;

struct BatchState {
    remaining: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

struct Batch {
    state: Mutex<BatchState>,
    done: Condvar,
}

struct PoolInner {
    queue: Mutex<VecDeque<StaticTask>>,
    work_ready: Condvar,
}

/// A persistent pool of host worker threads. Pools are process-global
/// (keyed by worker count, see [`global_pool`]) so repeated short steps
/// reuse warm threads instead of paying a spawn per step; idle workers
/// park on a condvar.
pub struct WorkerPool {
    inner: Arc<PoolInner>,
    workers: usize,
}

impl WorkerPool {
    /// A pool where `workers` threads (including the calling coordinator)
    /// drain each batch; `workers - 1` background threads are spawned.
    fn new(workers: usize) -> WorkerPool {
        let inner = Arc::new(PoolInner {
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
        });
        for _ in 1..workers {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("tcf-par-worker".into())
                .spawn(move || worker_loop(inner))
                .expect("spawn pool worker");
        }
        WorkerPool { inner, workers }
    }

    /// Total worker count (coordinator included).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `tasks` to completion across the pool. The calling thread
    /// participates in draining the queue, then blocks until the last task
    /// finishes; a panicking task is re-raised here after the whole batch
    /// has drained.
    pub fn run<'env>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        if tasks.is_empty() {
            return;
        }
        let batch = Arc::new(Batch {
            state: Mutex::new(BatchState {
                remaining: tasks.len(),
                panic: None,
            }),
            done: Condvar::new(),
        });
        {
            let mut queue = self.inner.queue.lock().expect("pool queue poisoned");
            for task in tasks {
                let b = Arc::clone(&batch);
                let wrapped: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
                    let outcome = catch_unwind(AssertUnwindSafe(task));
                    let mut st = b.state.lock().expect("batch state poisoned");
                    st.remaining -= 1;
                    if let Err(p) = outcome {
                        st.panic.get_or_insert(p);
                    }
                    if st.remaining == 0 {
                        b.done.notify_all();
                    }
                });
                // SAFETY: `run` does not return before `remaining` reaches
                // zero (the wait below), so every borrow captured by the
                // task outlives its execution on whichever thread picks it
                // up. This is the scoped-thread guarantee, applied to a
                // persistent pool.
                let wrapped: StaticTask = unsafe {
                    std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, StaticTask>(wrapped)
                };
                queue.push_back(wrapped);
            }
            self.inner.work_ready.notify_all();
        }
        // The coordinator drains too — essential on hosts where it holds
        // the only runnable CPU, and it keeps `workers == 1` pools valid
        // with zero background threads.
        loop {
            let task = self
                .inner
                .queue
                .lock()
                .expect("pool queue poisoned")
                .pop_front();
            match task {
                Some(t) => t(),
                None => break,
            }
        }
        let mut st = batch.state.lock().expect("batch state poisoned");
        while st.remaining > 0 {
            st = batch.done.wait(st).expect("batch state poisoned");
        }
        if let Some(p) = st.panic.take() {
            drop(st);
            resume_unwind(p);
        }
    }
}

fn worker_loop(inner: Arc<PoolInner>) {
    loop {
        let task = {
            let mut queue = inner.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(t) = queue.pop_front() {
                    break t;
                }
                queue = inner.work_ready.wait(queue).expect("pool queue poisoned");
            }
        };
        task();
    }
}

/// The process-global pool for `workers` total workers. Machines with the
/// same `par:<N>` engine share one pool; threads persist for the process
/// lifetime and park when idle.
pub fn global_pool(workers: usize) -> Arc<WorkerPool> {
    static POOLS: OnceLock<Mutex<HashMap<usize, Arc<WorkerPool>>>> = OnceLock::new();
    let pools = POOLS.get_or_init(|| Mutex::new(HashMap::new()));
    let mut pools = pools.lock().expect("pool registry poisoned");
    Arc::clone(
        pools
            .entry(workers)
            .or_insert_with(|| Arc::new(WorkerPool::new(workers))),
    )
}

// ---------------------------------------------------------------------------
// Engine-shared thick-lane executor
// ---------------------------------------------------------------------------

/// Read-only context for executing one fragment's lanes of a thick
/// instruction. Everything mutable lands in a [`FragOut`] (or in the
/// fragment group's own [`LocalMemory`], which no other fragment of the
/// instruction can touch).
pub(crate) struct ThickCtx<'a> {
    pub flow: &'a Flow,
    pub instr: DecodedInst,
    pub group: usize,
    pub shared: &'a SharedMemory,
    pub config: &'a MachineConfig,
    pub step: u64,
}

/// One fragment's outputs from a thick instruction, merged by the
/// coordinator in fragment order (see [`TcfMachine::merge_frag_outs`]).
pub(crate) struct FragOut {
    pub frag: Fragment,
    pub range: Range<usize>,
    /// Issue units for `frag.group`, in lane order (run-length compressed
    /// when the slice executed in closed form).
    pub units: Vec<UnitSeq>,
    /// Shared-memory references, in lane order (one strided bulk
    /// reference stands for the whole slice on the compressed path).
    pub refs: Vec<MemRef>,
    /// Pending write-backs as `(rd, destination lanes, index into
    /// self.refs)`.
    pub wbs: Vec<(Reg, WbTarget, usize)>,
    /// Affine register writes as `(rd, base lane, count, vbase, vstride)`
    /// — the compressed path's counterpart of `reg_runs`, replayed by the
    /// coordinator through `ThickRegs::write_affine`. A slice populates
    /// either this or `reg_runs`, never both.
    pub reg_affine: Vec<(Reg, usize, usize, Word, Word)>,
    /// Register writes as contiguous lane runs `(rd, base lane, range
    /// into reg_values)`, replayed by the coordinator through
    /// `ThickRegs::write_lanes` (bit-identical to an ascending per-lane
    /// replay). Lanes execute in ascending order writing one register per
    /// instruction, so a slice's whole log is typically ONE run — the
    /// flat encoding makes the replay a bulk copy instead of a per-lane
    /// representation decision.
    pub reg_runs: Vec<(Reg, usize, Range<usize>)>,
    /// Backing values of `reg_runs`, in push order.
    pub reg_values: Vec<Word>,
    /// `(addr, previous value)` per local-memory write, for rolling the
    /// group's local memory back when an *earlier* fragment faulted (the
    /// sequential engine would never have reached this fragment).
    pub local_undo: Vec<(Addr, Word)>,
    /// Worker-side observability events, absorbed in fragment order.
    pub obs: ObsSink,
    /// First fault; lanes after it did not execute.
    pub fault: Option<TcfError>,
    /// Whether the slice executed on the closed-form compressed path
    /// (feeds the `engine.compressed_slices` counter).
    pub compressed: bool,
    /// Whether the slice stayed closed-form *through divergence* — a lane
    /// mask or piecewise operand split was used (feeds `engine.mask_hits`).
    pub mask_hit: bool,
    /// Whether a masked / piecewise attempt fell back to the per-lane path
    /// (feeds `engine.mask_misses`).
    pub mask_miss: bool,
    /// Whether the fallback was specifically the mask-run budget — the
    /// `decay_mask_runs` reason of the decay taxonomy.
    pub mask_decay: bool,
    /// Pooled structure-of-arrays operand planes for the vectorized
    /// per-lane fallback ([`exec_thick_vector`]); capacity survives
    /// `reset`, so steady-state slices gather operands allocation-free.
    pub planes: LanePlanes,
    /// Pooled run-length scratch of the masked compressed path; capacity
    /// survives `reset`.
    pub scratch: MaskScratch,
}

/// Pooled buffers of the masked compressed executor: the condition's lane
/// mask and two piece lists for operand splitting.
#[derive(Debug, Default)]
pub(crate) struct MaskScratch {
    pub mask: LaneMask,
    pub a: Vec<Seg>,
    pub b: Vec<Seg>,
}

impl FragOut {
    /// A pool placeholder; [`reset`](FragOut::reset) before use.
    pub(crate) fn empty() -> FragOut {
        FragOut {
            frag: Fragment::new(0, 0, 0),
            range: 0..0,
            units: Vec::new(),
            refs: Vec::new(),
            wbs: Vec::new(),
            reg_runs: Vec::new(),
            reg_values: Vec::new(),
            reg_affine: Vec::new(),
            local_undo: Vec::new(),
            obs: ObsSink::disabled(),
            fault: None,
            compressed: false,
            mask_hit: false,
            mask_miss: false,
            mask_decay: false,
            planes: LanePlanes::default(),
            scratch: MaskScratch::default(),
        }
    }

    /// Rearms a pooled output for one slice, keeping every buffer's
    /// allocation.
    pub(crate) fn reset(&mut self, frag: Fragment, range: Range<usize>, obs_enabled: bool) {
        self.frag = frag;
        self.range = range;
        self.units.clear();
        self.refs.clear();
        self.wbs.clear();
        self.reg_runs.clear();
        self.reg_values.clear();
        self.reg_affine.clear();
        self.local_undo.clear();
        self.obs = if obs_enabled {
            ObsSink::recording()
        } else {
            ObsSink::disabled()
        };
        self.fault = None;
        self.compressed = false;
        self.mask_hit = false;
        self.mask_miss = false;
        self.mask_decay = false;
    }

    /// Appends one lane's register write, extending the current run when
    /// it continues the same register at the next lane.
    #[inline]
    fn log_reg(&mut self, rd: Reg, e: usize, v: Word) {
        let n = self.reg_values.len();
        if let Some((lrd, base, range)) = self.reg_runs.last_mut() {
            if *lrd == rd && *base + (range.end - range.start) == e && range.end == n {
                self.reg_values.push(v);
                range.end = n + 1;
                return;
            }
        }
        self.reg_values.push(v);
        self.reg_runs.push((rd, e, n..n + 1));
    }
}

/// Lane addresses `to_addr(lane_value + off)` of an affine base operand
/// as an exact strided progression, when per-lane wrapping and clamping
/// provably cannot kick in: the exact (i128) progression must stay in
/// `[0, i64::MAX]` — it is monotone, so checking both endpoints covers
/// every lane (the wrapped per-lane i64 result is the unique
/// representative of the exact value's residue class in i64 range, hence
/// equal to it, and `to_addr` is the identity on non-negatives). Returns
/// lane 0's address.
fn strided_addr(ab: Word, off: Word, astride: Word, len: usize) -> Option<Addr> {
    let w0 = (ab as i128) + (off as i128);
    let wlast = w0 + (astride as i128) * ((len - 1) as i128);
    let max = i64::MAX as i128;
    if w0 < 0 || w0 > max || wlast < 0 || wlast > max {
        return None;
    }
    Some(w0 as Addr)
}

/// Pushes the issue units of `count` shared-memory lanes from `thread0`
/// whose addresses are the exact progression `a0 + k·astride`. A
/// progression that stays on one module or steps through them evenly
/// (interleaving, or a zero stride under any map) is one
/// [`UnitSeq::SharedRun`]; a hashed nonzero stride scatters, so it pushes
/// the per-lane units with the map's modules in lane order — exactly the
/// units the per-lane loop pushes.
fn push_shared_units(
    ctx: &ThickCtx<'_>,
    out: &mut FragOut,
    thread0: usize,
    a0: Addr,
    astride: Word,
    count: usize,
) {
    let flow = ctx.flow.id;
    match ctx.shared.strided_node_step(astride) {
        Some(node_step) => out.units.push(UnitSeq::SharedRun {
            flow,
            thread0,
            count,
            node0: ctx.shared.module_of(a0),
            node_step,
            nodes: ctx.shared.modules(),
        }),
        None => out.units.extend(
            ctx.shared
                .strided_modules(a0, astride, count)
                .enumerate()
                .map(|(k, node)| UnitSeq::One(IssueUnit::shared_mem(flow, thread0 + k, node))),
        ),
    }
}

/// Walks two piece lists covering the same lane count in lockstep,
/// calling `f(start, len, a_run, b_run)` once per maximal sub-run over
/// which both lists are single progressions — the union of the two run
/// boundary sets. Aborts (returning `false`) as soon as `f` does.
fn each_piece_pair(
    a: &[Seg],
    b: &[Seg],
    mut f: impl FnMut(usize, usize, (Word, Word), (Word, Word)) -> bool,
) -> bool {
    let (mut ai, mut aoff) = (0usize, 0usize);
    let (mut bi, mut boff) = (0usize, 0usize);
    let mut at = 0usize;
    while ai < a.len() && bi < b.len() {
        let ra = a[ai].len as usize - aoff;
        let rb = b[bi].len as usize - boff;
        let n = ra.min(rb);
        let ar = (a[ai].get(aoff), a[ai].stride);
        let br = (b[bi].get(boff), b[bi].stride);
        if !f(at, n, ar, br) {
            return false;
        }
        at += n;
        aoff += n;
        boff += n;
        if aoff == a[ai].len as usize {
            ai += 1;
            aoff = 0;
        }
        if boff == b[bi].len as usize {
            bi += 1;
            boff = 0;
        }
    }
    true
}

/// Truncates a fragment output's accumulating logs back to the given
/// marks — the masked compressed path emits runs as it walks the mask and
/// must unwind them completely when a later run escapes the closed form
/// (the per-lane fallback re-executes the whole slice).
fn unwind(out: &mut FragOut, marks: (usize, usize, usize, usize)) {
    let (units, refs, wbs, affine) = marks;
    out.units.truncate(units);
    out.refs.truncate(refs);
    out.wbs.truncate(wbs);
    out.reg_affine.truncate(affine);
}

/// Emits the closed-form stores of lanes `[sub_lo, sub_lo + n)` — issue
/// units ([`push_shared_units`]) plus one `StridedWrite` per sub-run of
/// the union split of the base and value registers' run boundaries.
/// `Err(Lanes)` when either register holds explicit lanes or an address
/// progression escapes the [`strided_addr`] guard; `Err(Budget)` past the
/// run budget.
#[allow(clippy::too_many_arguments)]
fn emit_strided_store(
    ctx: &ThickCtx<'_>,
    out: &mut FragOut,
    a: &mut Vec<Seg>,
    b: &mut Vec<Seg>,
    base: Reg,
    off: Word,
    rs: Reg,
    sub_lo: usize,
    n: usize,
) -> Result<(), MaskError> {
    use tcf_mem::{MemOp, RefOrigin};

    let flow = ctx.flow;
    a.clear();
    b.clear();
    if !flow.regs.value(base).piece_runs(sub_lo, n, a)
        || !flow.regs.value(rs).piece_runs(sub_lo, n, b)
    {
        return Err(MaskError::Lanes);
    }
    if a.len().max(b.len()) > MASK_RUN_BUDGET {
        return Err(MaskError::Budget);
    }
    let ok = each_piece_pair(a, b, |start, m, (ab, astride), (vb, vstride)| {
        let Some(a0) = strided_addr(ab, off, astride, m) else {
            return false;
        };
        push_shared_units(ctx, out, sub_lo + start, a0, astride, m);
        out.refs.push(MemRef::new(
            RefOrigin::new(ctx.group, flow.rank_base + sub_lo + start),
            MemOp::StridedWrite {
                base: a0,
                stride: astride,
                count: m as u32,
                vbase: vb,
                vstride,
            },
        ));
        true
    });
    if ok {
        Ok(())
    } else {
        Err(MaskError::Lanes)
    }
}

/// Attempts to execute the whole slice in closed form: when every operand
/// the instruction reads is stride-compressed (uniform, affine or a
/// segment run) over the slice's lanes, the per-lane loop collapses to
/// O(#runs) affine algebra — run-length [`UnitSeq`] spans, an affine
/// register-write log, and (for shared-memory traffic) strided bulk
/// references. Divergence no longer forces a fallback: a non-uniform
/// `Sel`/`StMasked` condition classifies into a run-length [`LaneMask`]
/// and each run executes its branch closed-form, while operands whose
/// range straddles `Segments` boundaries split at the union of their run
/// boundaries ([`each_piece_pair`]) — so comparisons over compressed
/// operands produce masks (segment runs) instead of decaying. Returns
/// `false` to fall back to the per-lane loop only when the algebra
/// genuinely escapes (per-thread operands, guarded comparisons out of
/// exact range, wrapping/clamping addresses, local memory) or when the
/// run count exceeds [`MASK_RUN_BUDGET`] (the `decay_mask_runs` taxonomy
/// reason, flagged on `out.mask_decay`). Multioperations and multiprefixes with piecewise
/// base and contribution operands compress to one [`MemOp::BulkMulti`]
/// reference per sub-run.
///
/// Bit-identity with the per-lane path holds by construction: ALU folding
/// goes through [`affine_alu`] (exact mod 2^64; comparisons only when
/// both progressions are provably exact), mask classification only
/// happens on exact progressions, strided addresses are only emitted
/// under the [`strided_addr`] guard, and every run-length unit/reference
/// sequence expands to exactly the per-lane sequence in lane order.
///
/// [`LaneMask`]: crate::thick::LaneMask
/// [`MASK_RUN_BUDGET`]: crate::thick::MASK_RUN_BUDGET
fn exec_thick_compressed(ctx: &ThickCtx<'_>, out: &mut FragOut, scratch: &mut MaskScratch) -> bool {
    use tcf_isa::instr::{MemSpace, Operand};
    use tcf_isa::reg::SpecialReg;
    use tcf_mem::{MemOp, RefOrigin};

    let flow = ctx.flow;
    let fid = flow.id;
    let lo = out.range.start;
    let len = out.range.len();
    if len == 0 {
        return true;
    }
    let affine_reg = |r: Reg| flow.regs.value(r).affine_over(lo, len);
    let affine_opnd = |o: Operand| match o {
        Operand::Reg(r) => affine_reg(r),
        Operand::Imm(w) => Some((w, 0)),
    };
    let compute_run = UnitSeq::ComputeRun {
        flow: fid,
        thread0: lo,
        count: len,
    };
    match ctx.instr {
        DecodedInst::Alu { op, rd, ra, rb } => {
            // Single-run fast path: both operands are one progression over
            // the whole slice.
            if let (Some(a), Some(b)) = (affine_reg(ra), affine_opnd(rb)) {
                let runs = match affine_alu(op, a, b, len) {
                    Some(r) => r,
                    None => return false,
                };
                let mut base = lo;
                for s in runs.runs() {
                    out.reg_affine
                        .push((rd, base, s.len as usize, s.base, s.stride));
                    base += s.len as usize;
                }
                out.units.push(compute_run);
                return true;
            }
            // Piecewise path: split at the union of both operands' run
            // boundaries and fold each sub-run. This keeps comparison
            // results over `Segments` operands compressed — they become
            // runs (masks) instead of decaying to lanes.
            scratch.a.clear();
            scratch.b.clear();
            if !flow.regs.value(ra).piece_runs(lo, len, &mut scratch.a) {
                out.mask_miss = true;
                return false;
            }
            let ok = match rb {
                Operand::Reg(r) => flow.regs.value(r).piece_runs(lo, len, &mut scratch.b),
                Operand::Imm(w) => {
                    scratch.b.push(Seg {
                        len: len as u32,
                        base: w,
                        stride: 0,
                    });
                    true
                }
            };
            if !ok {
                out.mask_miss = true;
                return false;
            }
            if scratch.a.len().max(scratch.b.len()) > MASK_RUN_BUDGET {
                out.mask_decay = true;
                out.mask_miss = true;
                return false;
            }
            let marks = (
                out.units.len(),
                out.refs.len(),
                out.wbs.len(),
                out.reg_affine.len(),
            );
            let ok = each_piece_pair(&scratch.a, &scratch.b, |start, n, ar, br| {
                let Some(runs) = affine_alu(op, ar, br, n) else {
                    return false;
                };
                let mut base = lo + start;
                for s in runs.runs() {
                    out.reg_affine
                        .push((rd, base, s.len as usize, s.base, s.stride));
                    base += s.len as usize;
                }
                true
            });
            if !ok {
                unwind(out, marks);
                out.mask_miss = true;
                return false;
            }
            out.mask_hit = true;
            out.units.push(compute_run);
            true
        }
        DecodedInst::Mfs { rd, sr } => {
            // Thick classification admits only Tid/Gid here; both are
            // the lane index plus a flow constant — affine, stride 1.
            let base = match sr {
                SpecialReg::Tid => (flow.tid_offset + lo) as Word,
                SpecialReg::Gid => (flow.rank_base + lo) as Word,
                _ => return false,
            };
            out.reg_affine.push((rd, lo, len, base, 1));
            out.units.push(compute_run);
            true
        }
        DecodedInst::Sel { rd, cond, rt, rf } => {
            // Uniform condition over the slice: every lane takes the
            // same branch, so the result is the chosen operand's run.
            if let Some((c, 0)) = affine_reg(cond) {
                let chosen = if c != 0 {
                    affine_reg(rt)
                } else {
                    affine_opnd(rf)
                };
                if let Some((vb, vs)) = chosen {
                    out.reg_affine.push((rd, lo, len, vb, vs));
                    out.units.push(compute_run);
                    return true;
                }
            }
            // Masked path: classify the condition's truthiness into a
            // run-length lane mask and let each run take its branch's
            // pieces. A uniform condition with a piecewise chosen operand
            // lands here too — the mask is then a single run.
            match scratch
                .mask
                .rebuild(flow.regs.value(cond), lo, len, MASK_RUN_BUDGET)
            {
                Ok(()) => {}
                Err(MaskError::Budget) => {
                    out.mask_decay = true;
                    out.mask_miss = true;
                    return false;
                }
                Err(MaskError::Lanes) => {
                    out.mask_miss = true;
                    return false;
                }
            }
            let marks = (
                out.units.len(),
                out.refs.len(),
                out.wbs.len(),
                out.reg_affine.len(),
            );
            let mut emitted = 0usize;
            for run in scratch.mask.runs() {
                scratch.a.clear();
                let ok = if run.set {
                    flow.regs
                        .value(rt)
                        .piece_runs(lo + run.start, run.len, &mut scratch.a)
                } else {
                    match rf {
                        Operand::Reg(r) => {
                            flow.regs
                                .value(r)
                                .piece_runs(lo + run.start, run.len, &mut scratch.a)
                        }
                        Operand::Imm(w) => {
                            scratch.a.push(Seg {
                                len: run.len as u32,
                                base: w,
                                stride: 0,
                            });
                            true
                        }
                    }
                };
                if !ok {
                    unwind(out, marks);
                    out.mask_miss = true;
                    return false;
                }
                emitted += scratch.a.len();
                if emitted > MASK_RUN_BUDGET {
                    unwind(out, marks);
                    out.mask_decay = true;
                    out.mask_miss = true;
                    return false;
                }
                let mut base = lo + run.start;
                for s in &scratch.a {
                    out.reg_affine
                        .push((rd, base, s.len as usize, s.base, s.stride));
                    base += s.len as usize;
                }
            }
            out.mask_hit = true;
            out.units.push(compute_run);
            true
        }
        DecodedInst::Ld {
            rd,
            base,
            off,
            space: MemSpace::Shared,
        } => {
            if let Some((ab, astride)) = affine_reg(base) {
                let Some(a0) = strided_addr(ab, off, astride, len) else {
                    return false;
                };
                push_shared_units(ctx, out, lo, a0, astride, len);
                out.wbs.push((
                    rd,
                    WbTarget::Lanes {
                        base: lo,
                        count: len,
                    },
                    out.refs.len(),
                ));
                out.refs.push(MemRef::new(
                    RefOrigin::new(ctx.group, flow.rank_base + lo),
                    MemOp::StridedRead {
                        base: a0,
                        stride: astride,
                        count: len as u32,
                    },
                ));
                return true;
            }
            // Piecewise base: one strided read per address-progression
            // run, each with its own lane-window writeback — the replies
            // still land closed-form via `BulkView`.
            scratch.a.clear();
            if !flow.regs.value(base).piece_runs(lo, len, &mut scratch.a) {
                out.mask_miss = true;
                return false;
            }
            if scratch.a.len() > MASK_RUN_BUDGET {
                out.mask_decay = true;
                out.mask_miss = true;
                return false;
            }
            let marks = (
                out.units.len(),
                out.refs.len(),
                out.wbs.len(),
                out.reg_affine.len(),
            );
            let mut at = lo;
            for s in &scratch.a {
                let m = s.len as usize;
                let Some(a0) = strided_addr(s.base, off, s.stride, m) else {
                    unwind(out, marks);
                    out.mask_miss = true;
                    return false;
                };
                push_shared_units(ctx, out, at, a0, s.stride, m);
                out.wbs
                    .push((rd, WbTarget::Lanes { base: at, count: m }, out.refs.len()));
                out.refs.push(MemRef::new(
                    RefOrigin::new(ctx.group, flow.rank_base + at),
                    MemOp::StridedRead {
                        base: a0,
                        stride: s.stride,
                        count: m as u32,
                    },
                ));
                at += m;
            }
            out.mask_hit = true;
            true
        }
        DecodedInst::St {
            rs,
            base,
            off,
            space: MemSpace::Shared,
        }
        | DecodedInst::StMasked {
            rs,
            base,
            off,
            space: MemSpace::Shared,
            ..
        } => {
            // Resolve the store mask. `St` and a uniformly-selected
            // `StMasked` store every lane; a divergent `StMasked`
            // condition classifies into truthiness runs so the write
            // splits at run boundaries instead of materializing lanes.
            let mut masked = false;
            if let DecodedInst::StMasked { cond, .. } = ctx.instr {
                match affine_reg(cond) {
                    // Uniformly masked out: every lane still burns its
                    // issue slot as a compute unit.
                    Some((0, 0)) => {
                        out.units.push(compute_run);
                        return true;
                    }
                    Some((_, 0)) => {} // uniformly selected: plain store
                    _ => {
                        match scratch
                            .mask
                            .rebuild(flow.regs.value(cond), lo, len, MASK_RUN_BUDGET)
                        {
                            Ok(()) => masked = true,
                            Err(MaskError::Budget) => {
                                out.mask_decay = true;
                                out.mask_miss = true;
                                return false;
                            }
                            Err(MaskError::Lanes) => {
                                out.mask_miss = true;
                                return false;
                            }
                        }
                    }
                }
            }
            let marks = (
                out.units.len(),
                out.refs.len(),
                out.wbs.len(),
                out.reg_affine.len(),
            );
            if masked {
                // Emitting runs in lane order — set runs become strided
                // writes, clear runs burn their issue slots as compute
                // units — expands to exactly the per-lane sequence.
                let mask = std::mem::take(&mut scratch.mask);
                let mut res = Ok(());
                for run in mask.runs() {
                    if !run.set {
                        out.units.push(UnitSeq::ComputeRun {
                            flow: fid,
                            thread0: lo + run.start,
                            count: run.len,
                        });
                        continue;
                    }
                    res = emit_strided_store(
                        ctx,
                        out,
                        &mut scratch.a,
                        &mut scratch.b,
                        base,
                        off,
                        rs,
                        lo + run.start,
                        run.len,
                    );
                    if res.is_err() {
                        break;
                    }
                    if out.refs.len() - marks.1 > MASK_RUN_BUDGET {
                        res = Err(MaskError::Budget);
                        break;
                    }
                }
                scratch.mask = mask;
                match res {
                    Ok(()) => {
                        out.mask_hit = true;
                        return true;
                    }
                    Err(e) => {
                        unwind(out, marks);
                        if matches!(e, MaskError::Budget) {
                            out.mask_decay = true;
                        }
                        out.mask_miss = true;
                        return false;
                    }
                }
            }
            match emit_strided_store(
                ctx,
                out,
                &mut scratch.a,
                &mut scratch.b,
                base,
                off,
                rs,
                lo,
                len,
            ) {
                Ok(()) => {
                    // A single strided ref is the pre-mask fast path; more
                    // than one means a piecewise operand stayed closed-form.
                    if out.refs.len() - marks.1 > 1 {
                        out.mask_hit = true;
                    }
                    true
                }
                Err(e) => {
                    unwind(out, marks);
                    if matches!(e, MaskError::Budget) {
                        out.mask_decay = true;
                        out.mask_miss = true;
                    }
                    false
                }
            }
        }
        DecodedInst::MultiOp {
            kind,
            base,
            off,
            rs,
        }
        | DecodedInst::MultiPrefix {
            kind,
            base,
            off,
            rs,
            ..
        } => {
            use tcf_isa::word::to_addr;
            let rd = match ctx.instr {
                DecodedInst::MultiPrefix { rd, .. } => Some(rd),
                _ => None,
            };
            // Gather both operands as run lists; the single-progression
            // case is just a one-piece walk.
            scratch.a.clear();
            scratch.b.clear();
            if !flow.regs.value(base).piece_runs(lo, len, &mut scratch.a)
                || !flow.regs.value(rs).piece_runs(lo, len, &mut scratch.b)
            {
                out.mask_miss = true;
                return false;
            }
            if scratch.a.len().max(scratch.b.len()) > MASK_RUN_BUDGET {
                out.mask_decay = true;
                out.mask_miss = true;
                return false;
            }
            let piecewise = scratch.a.len() > 1 || scratch.b.len() > 1;
            let marks = (
                out.units.len(),
                out.refs.len(),
                out.wbs.len(),
                out.reg_affine.len(),
            );
            let ok = each_piece_pair(
                &scratch.a,
                &scratch.b,
                |start, m, (ab, astride), (vb, vstride)| {
                    let a0 = if astride == 0 {
                        // Uniform base: every lane targets one word, and the
                        // per-lane wrap/clamp applies identically to each lane —
                        // no exactness guard needed.
                        to_addr(ab.wrapping_add(off))
                    } else {
                        match strided_addr(ab, off, astride, m) {
                            Some(a0) => a0,
                            None => return false,
                        }
                    };
                    push_shared_units(ctx, out, lo + start, a0, astride, m);
                    if let Some(rd) = rd {
                        out.wbs.push((
                            rd,
                            WbTarget::Lanes {
                                base: lo + start,
                                count: m,
                            },
                            out.refs.len(),
                        ));
                    }
                    out.refs.push(MemRef::new(
                        RefOrigin::new(ctx.group, flow.rank_base + lo + start),
                        MemOp::BulkMulti {
                            kind,
                            prefix: rd.is_some(),
                            base: a0,
                            astride,
                            count: m as u32,
                            vbase: vb,
                            vstride,
                        },
                    ));
                    true
                },
            );
            if !ok {
                unwind(out, marks);
                if piecewise {
                    out.mask_miss = true;
                }
                return false;
            }
            if piecewise {
                out.mask_hit = true;
            }
            true
        }
        _ => false,
    }
}

/// Executes `out.range`'s lanes of `ctx.instr` against a read-only
/// register view, logging register writes and applying local-memory
/// traffic to `local` (with an undo log). Stops at the first fault.
///
/// Both engines run thick lanes through here; the lane semantics live in
/// exactly one place. Stride-compressed operands short-circuit into
/// [`exec_thick_compressed`] — and because a slice's bounds derive only
/// from the fragments and the variant bound, both engines make the same
/// compressed-or-per-lane decision for every slice.
pub(crate) fn exec_thick_lanes(ctx: &ThickCtx<'_>, local: &mut LocalMemory, out: &mut FragOut) {
    use tcf_isa::instr::{MemSpace, Operand};
    use tcf_isa::word::to_addr;
    use tcf_mem::{MemOp, RefOrigin};

    use crate::error::TcfFault;
    use crate::machine::special_value;

    // The scratch is swapped out of `out` so the executors can borrow the
    // fragment output mutably while reusing the pooled mask/run buffers.
    let mut scratch = std::mem::take(&mut out.scratch);
    let compressed = exec_thick_compressed(ctx, out, &mut scratch);
    if compressed {
        out.scratch = scratch;
        out.compressed = true;
        return;
    }
    let vector = exec_thick_vector(ctx, out, &mut scratch);
    out.scratch = scratch;
    if vector {
        return;
    }

    let flow = ctx.flow;
    let group = ctx.group;
    let fid = flow.id;
    let fault = |out: &mut FragOut, f: TcfFault| {
        out.fault = Some(TcfError {
            fault: f,
            step: ctx.step,
            flow: Some(fid),
        });
    };

    for e in out.range.clone() {
        let origin = RefOrigin::new(group, flow.rank_base + e);
        match ctx.instr {
            DecodedInst::Alu { op, rd, ra, rb } => {
                let a = flow.regs.read(ra, e);
                let b = match rb {
                    Operand::Reg(r) => flow.regs.read(r, e),
                    Operand::Imm(w) => w,
                };
                out.log_reg(rd, e, op.eval(a, b));
                out.units.push(IssueUnit::compute(fid, e).into());
            }
            DecodedInst::Mfs { rd, sr } => {
                let v = special_value(flow, e, sr, ctx.config);
                out.log_reg(rd, e, v);
                out.units.push(IssueUnit::compute(fid, e).into());
            }
            DecodedInst::Sel { rd, cond, rt, rf } => {
                let v = if flow.regs.read(cond, e) != 0 {
                    flow.regs.read(rt, e)
                } else {
                    match rf {
                        Operand::Reg(r) => flow.regs.read(r, e),
                        Operand::Imm(w) => w,
                    }
                };
                out.log_reg(rd, e, v);
                out.units.push(IssueUnit::compute(fid, e).into());
            }
            DecodedInst::Ld {
                rd,
                base,
                off,
                space,
            } => {
                let addr = to_addr(flow.regs.read(base, e).wrapping_add(off));
                match space {
                    MemSpace::Shared => {
                        out.units
                            .push(IssueUnit::shared_mem(fid, e, ctx.shared.module_of(addr)).into());
                        out.wbs.push((rd, WbTarget::Lane(e), out.refs.len()));
                        out.refs.push(MemRef::new(origin, MemOp::Read(addr)));
                    }
                    MemSpace::Local => {
                        out.units.push(IssueUnit::local_mem(fid, e).into());
                        match local.read(addr) {
                            Ok(v) => out.log_reg(rd, e, v),
                            Err(err) => return fault(out, err.into()),
                        }
                    }
                }
            }
            DecodedInst::St {
                rs,
                base,
                off,
                space,
            } => {
                let addr = to_addr(flow.regs.read(base, e).wrapping_add(off));
                let v = flow.regs.read(rs, e);
                match space {
                    MemSpace::Shared => {
                        out.units
                            .push(IssueUnit::shared_mem(fid, e, ctx.shared.module_of(addr)).into());
                        out.refs.push(MemRef::new(origin, MemOp::Write(addr, v)));
                    }
                    MemSpace::Local => {
                        out.units.push(IssueUnit::local_mem(fid, e).into());
                        if let Ok(old) = local.read(addr) {
                            out.local_undo.push((addr, old));
                        }
                        if let Err(err) = local.write(addr, v) {
                            return fault(out, err.into());
                        }
                    }
                }
            }
            DecodedInst::StMasked {
                cond,
                rs,
                base,
                off,
                space,
            } => {
                let selected = flow.regs.read(cond, e) != 0;
                let addr = to_addr(flow.regs.read(base, e).wrapping_add(off));
                let v = flow.regs.read(rs, e);
                if selected {
                    match space {
                        MemSpace::Shared => {
                            out.units.push(
                                IssueUnit::shared_mem(fid, e, ctx.shared.module_of(addr)).into(),
                            );
                            out.refs.push(MemRef::new(origin, MemOp::Write(addr, v)));
                        }
                        MemSpace::Local => {
                            out.units.push(IssueUnit::local_mem(fid, e).into());
                            if let Ok(old) = local.read(addr) {
                                out.local_undo.push((addr, old));
                            }
                            if let Err(err) = local.write(addr, v) {
                                return fault(out, err.into());
                            }
                        }
                    }
                } else {
                    // The lane still occupies its slot (vector-style
                    // masked execution).
                    out.units.push(IssueUnit::compute(fid, e).into());
                }
            }
            DecodedInst::MultiOp {
                kind,
                base,
                off,
                rs,
            } => {
                let addr = to_addr(flow.regs.read(base, e).wrapping_add(off));
                let v = flow.regs.read(rs, e);
                out.units
                    .push(IssueUnit::shared_mem(fid, e, ctx.shared.module_of(addr)).into());
                out.refs
                    .push(MemRef::new(origin, MemOp::Multi(kind, addr, v)));
            }
            DecodedInst::MultiPrefix {
                kind,
                rd,
                base,
                off,
                rs,
            } => {
                let addr = to_addr(flow.regs.read(base, e).wrapping_add(off));
                let v = flow.regs.read(rs, e);
                out.units
                    .push(IssueUnit::shared_mem(fid, e, ctx.shared.module_of(addr)).into());
                out.wbs.push((rd, WbTarget::Lane(e), out.refs.len()));
                out.refs
                    .push(MemRef::new(origin, MemOp::Prefix(kind, addr, v)));
            }
            other => {
                return fault(
                    out,
                    TcfFault::Internal {
                        what: format!("`{}` classified as thick", other.name()),
                    },
                )
            }
        }
    }
}

/// Vectorized per-lane fallback for the pure compute instructions (`Alu`,
/// `Sel`) once the compressed path has declined — the structure-of-arrays
/// kernels of [`crate::lanes`]. Operands are gathered into the slice's
/// pooled [`LanePlanes`] via [`ThickValue::fill_lanes`] (bit-identical to
/// per-lane `regs.read`), evaluated by one chunked kernel directly into
/// `reg_values`, and logged as a single register run plus one
/// [`UnitSeq::ComputeRun`]. Both encodings are exactly what the scalar
/// loop's ascending per-lane `log_reg`/`IssueUnit::compute` pushes replay
/// to: `write_lanes` sees the same `(rd, base, values)` run, and
/// `ComputeRun` expands to the same per-lane units for timing, stats and
/// traces (the PR 4 run-length contract). Memory instructions keep the
/// scalar loop — their per-lane addresses, undo logs and first-fault stop
/// are inherently lane-serial.
///
/// [`ThickValue::fill_lanes`]: crate::thick::ThickValue::fill_lanes
fn exec_thick_vector(ctx: &ThickCtx<'_>, out: &mut FragOut, scratch: &mut MaskScratch) -> bool {
    use tcf_isa::instr::Operand;

    let flow = ctx.flow;
    let lo = out.range.start;
    let len = out.range.len();
    if len == 0 {
        return false;
    }
    let rd = match ctx.instr {
        DecodedInst::Alu { op, rd, ra, rb } => {
            let a = lanes::prep(&mut out.planes.a, len);
            flow.regs.value(ra).fill_lanes(lo, a);
            let b = lanes::prep(&mut out.planes.b, len);
            match rb {
                Operand::Reg(r) => flow.regs.value(r).fill_lanes(lo, b),
                Operand::Imm(w) => b.fill(w),
            }
            out.reg_values.resize(len, 0);
            lanes::alu_lanes(op, a, b, &mut out.reg_values);
            rd
        }
        DecodedInst::Sel { rd, cond, rt, rf } => {
            let t = lanes::prep(&mut out.planes.b, len);
            flow.regs.value(rt).fill_lanes(lo, t);
            let f = lanes::prep(&mut out.planes.c, len);
            match rf {
                Operand::Reg(r) => flow.regs.value(r).fill_lanes(lo, f),
                Operand::Imm(w) => f.fill(w),
            }
            out.reg_values.resize(len, 0);
            // A condition with run structure blends run-wise through the
            // masked kernel (no per-lane condition plane); explicit lanes
            // fall back to the branchless per-lane blend.
            let cv = flow.regs.value(cond);
            if scratch.mask.rebuild(cv, lo, len, usize::MAX).is_ok() {
                lanes::select_lanes_mask(scratch.mask.runs(), t, f, &mut out.reg_values);
            } else {
                let c = lanes::prep(&mut out.planes.a, len);
                cv.fill_lanes(lo, c);
                lanes::select_lanes(c, t, f, &mut out.reg_values);
            }
            rd
        }
        _ => return false,
    };
    out.reg_runs.push((rd, lo, 0..len));
    out.units.push(UnitSeq::ComputeRun {
        flow: flow.id,
        thread0: lo,
        count: len,
    });
    true
}

/// Tries to merge a fragment's sole `BulkMulti` reference into the run at
/// the tail of `refs`. A thick multioperation compresses per slice, so
/// with `g` fragment groups it arrives as `g` rank-adjacent `BulkMulti`
/// references to the same word (or one affine target progression) — the
/// slice boundary is an engine artifact, not a semantic split, and left
/// unmerged the same-address spans trip the bulk overlap check and expand
/// to per-lane resolution. Merging requires exact continuation in rank,
/// address, contribution value and (for prefixes) the destination lane
/// window of the same flow's writeback; the merged run expands to
/// precisely the union of the two runs' lanes in the same rank order, so
/// semantics are untouched. Returns `false` (the caller appends normally)
/// whenever anything does not line up.
fn coalesce_bulk_multi(
    refs: &mut [MemRef],
    wbs: &mut [Writeback],
    out: &FragOut,
    flow: u32,
) -> bool {
    use tcf_mem::MemOp;

    if out.refs.len() != 1 {
        return false;
    }
    let new = out.refs[0];
    let MemOp::BulkMulti {
        kind,
        prefix,
        base,
        astride,
        count,
        vbase,
        vstride,
    } = new.op
    else {
        return false;
    };
    let Some(last) = refs.last() else {
        return false;
    };
    let MemOp::BulkMulti {
        kind: lkind,
        prefix: lprefix,
        base: lbase,
        astride: lastride,
        count: lcount,
        vbase: lvbase,
        vstride: lvstride,
    } = last.op
    else {
        return false;
    };
    if kind != lkind
        || prefix != lprefix
        || astride != lastride
        || vstride != lvstride
        || new.origin.rank != last.origin.rank + lcount as usize
        || base as i128 != lbase as i128 + lcount as i128 * astride as i128
        || vbase != lvbase.wrapping_add((lcount as Word).wrapping_mul(vstride))
    {
        return false;
    }
    let merged_wb = if prefix {
        // The continuation must extend the previous slice's reply window
        // (same flow, same destination, adjacent lanes).
        if out.wbs.len() != 1 {
            return false;
        }
        let (rd, target, ri) = out.wbs[0];
        let WbTarget::Lanes {
            base: nwb,
            count: nwc,
        } = target
        else {
            return false;
        };
        let Some(wlast) = wbs.last() else {
            return false;
        };
        let WbTarget::Lanes {
            base: owb,
            count: owc,
        } = wlast.target
        else {
            return false;
        };
        if ri != 0
            || wlast.flow != flow
            || wlast.rd != rd
            || wlast.ref_idx != refs.len() - 1
            || owb + owc != nwb
            || nwc != count as usize
        {
            return false;
        }
        Some(WbTarget::Lanes {
            base: owb,
            count: owc + nwc,
        })
    } else {
        if !out.wbs.is_empty() {
            return false;
        }
        None
    };
    if let Some(target) = merged_wb {
        wbs.last_mut().expect("checked above").target = target;
    }
    refs.last_mut().expect("checked above").op = MemOp::BulkMulti {
        kind,
        prefix,
        base: lbase,
        astride,
        count: lcount + count,
        vbase: lvbase,
        vstride,
    };
    true
}

// ---------------------------------------------------------------------------
// Coordinator-side orchestration
// ---------------------------------------------------------------------------

impl TcfMachine {
    /// Executes the rank-contiguous `slices` of one thick instruction —
    /// inline for the sequential engine, fanned out over the worker pool
    /// for the parallel engine — and returns the fragment outputs in
    /// fragment order. Workers see a read-only flow and shared memory plus
    /// exclusive access to their fragment group's local memory.
    pub(crate) fn exec_slices(
        &mut self,
        flow: &Flow,
        instr: DecodedInst,
        slices: &[(Fragment, Range<usize>)],
        outs: &mut Vec<FragOut>,
    ) {
        let obs_on = self.obs.is_enabled();
        let step = self.steps;
        let pool = match (&self.engine, &self.pool) {
            (Engine::Parallel { .. }, Some(pool)) if slices.len() > 1 => Some(Arc::clone(pool)),
            _ => None,
        };
        while outs.len() < slices.len() {
            outs.push(FragOut::empty());
        }
        let outs = &mut outs[..slices.len()];
        for (out, &(frag, ref range)) in outs.iter_mut().zip(slices.iter()) {
            out.reset(frag, range.clone(), obs_on);
        }
        let shared = &self.shared;
        let config = &self.config;
        let locals = &mut self.locals;
        match pool {
            None => {
                for out in outs.iter_mut() {
                    let ctx = ThickCtx {
                        flow,
                        instr,
                        group: out.frag.group,
                        shared,
                        config,
                        step,
                    };
                    exec_thick_lanes(&ctx, &mut locals[out.frag.group], out);
                }
            }
            Some(pool) => {
                // Fragments of one flow occupy distinct groups (the
                // scheduler guarantees it), so handing each slice its
                // group's local memory takes each `&mut` exactly once.
                let mut lm: Vec<Option<&mut LocalMemory>> = locals.iter_mut().map(Some).collect();
                let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> =
                    Vec::with_capacity(slices.len());
                for out in outs.iter_mut() {
                    let local = lm[out.frag.group]
                        .take()
                        .expect("fragments of one flow have distinct groups");
                    tasks.push(Box::new(move || {
                        let ctx = ThickCtx {
                            flow,
                            instr,
                            group: out.frag.group,
                            shared,
                            config,
                            step,
                        };
                        exec_thick_lanes(&ctx, local, out);
                    }));
                }
                pool.run(tasks);
            }
        }
        // Engine counters, at slice granularity. The worker assignment is
        // *virtual* (slice `i` → worker `i mod workers`), matching how the
        // pool hands out tasks, so the lane distribution is a property of
        // the slicing, not of runtime scheduling — deterministic across
        // runs and engines of the same worker count.
        let workers = match self.engine {
            Engine::Parallel { workers } => workers.max(1),
            Engine::Sequential => 1,
        };
        self.engine_counters.thick_instrs += 1;
        self.engine_counters.slices += outs.len() as u64;
        self.engine_counters.ensure_workers(workers);
        for (i, out) in outs.iter().enumerate() {
            if out.compressed {
                self.engine_counters.compressed_slices += 1;
            } else {
                self.engine_counters.per_lane_slices += 1;
            }
            if out.mask_hit {
                self.engine_counters.mask_hits += 1;
            }
            if out.mask_miss {
                self.engine_counters.mask_misses += 1;
            }
            if out.mask_decay {
                self.thick_decay.mask_runs += 1;
            }
            let w = i % workers;
            self.engine_counters.worker_lanes[w] += out.range.len() as u64;
            self.engine_counters.worker_slices[w] += 1;
        }
    }

    /// Merges fragment outputs in fragment order: register-write replay,
    /// unit/reference accumulation (with write-back index fixup), worker
    /// sink absorption and the §3.3 spill check — the exact interleaving
    /// the sequential engine performs. On a fault, later fragments' local
    /// writes are rolled back (the sequential engine never executed them)
    /// and the first fault in fragment order is returned.
    pub(crate) fn merge_frag_outs(
        &mut self,
        flow: &mut Flow,
        outs: &mut [FragOut],
        units: &mut [Vec<UnitSeq>],
        refs: &mut Vec<MemRef>,
        wbs: &mut Vec<Writeback>,
    ) -> Result<(), TcfError> {
        let t = flow.thickness;
        let cap = self.config.reg_cache_words;
        // A merge covering fewer lanes than the thickness is a *partial*
        // instruction — a Balanced bound-split slice resumed via
        // `next_op`. Its lane writes splice a window into the register,
        // so a decay here is the price of resuming, not of the values:
        // attribute it to the `balanced_resume` taxonomy reason.
        let partial = outs.iter().map(|o| o.range.len()).sum::<usize>() < t;
        let mut fault: Option<TcfError> = None;
        for out in outs.iter_mut() {
            if fault.is_some() {
                for &(addr, old) in out.local_undo.iter().rev() {
                    self.locals[out.frag.group]
                        .write(addr, old)
                        .expect("undo targets a previously written address");
                }
                continue;
            }
            // A slice logs register writes either per-lane (`reg_runs`)
            // or compressed (`reg_affine`), never both, so replay order
            // between the two logs is immaterial.
            for (rd, base, range) in &out.reg_runs {
                if flow
                    .regs
                    .write_lanes(*rd, *base, &out.reg_values[range.clone()], t)
                {
                    // A faulting fragment's replay writes only the
                    // executed prefix — the fault frontier — so its decay
                    // belongs to the `fault` reason (highest priority),
                    // then `balanced_resume`, then the generic lane write.
                    if out.fault.is_some() {
                        self.thick_decay.fault += 1;
                    } else if partial {
                        self.thick_decay.balanced_resume += 1;
                    } else {
                        self.thick_decay.lane_write += 1;
                    }
                }
            }
            for &(rd, base, count, vbase, vstride) in &out.reg_affine {
                flow.regs.write_affine(rd, base, count, vbase, vstride, t);
            }
            self.engine_counters.absorbed_events += out.obs.len() as u64;
            self.obs.absorb(&out.obs);
            if out.fault.is_some() {
                fault = out.fault.take();
                continue;
            }
            let base = refs.len();
            units[out.frag.group].extend_from_slice(&out.units);
            // Coalescing is only ever attempted for the compressed path's
            // single-BulkMulti shape; count its hit/miss rate there.
            let coalescable =
                out.refs.len() == 1 && matches!(out.refs[0].op, tcf_mem::MemOp::BulkMulti { .. });
            if coalesce_bulk_multi(refs, wbs, out, flow.id) {
                self.engine_counters.coalesce_hits += 1;
            } else {
                if coalescable {
                    self.engine_counters.coalesce_misses += 1;
                }
                refs.extend_from_slice(&out.refs);
                for &(rd, target, ri) in &out.wbs {
                    wbs.push(Writeback {
                        flow: flow.id,
                        rd,
                        target,
                        ref_idx: base + ri,
                    });
                }
            }
            // §3.3 operand storage: if this fragment's per-thread register
            // footprint exceeds the cached register file, the operands
            // live in the local memory — every thick operation pays one
            // extra local access (spill traffic).
            if cap > 0 && flow.regs.per_thread_count() * out.frag.len > cap {
                units[out.frag.group].push(UnitSeq::LocalRun {
                    flow: flow.id,
                    thread0: out.range.start,
                    count: out.range.len(),
                });
                // One run-compressed spill event covers the fragment's
                // lanes: a T-thick spilling step emits O(fragments)
                // events and timing spans, never O(T) of either.
                self.stats.spill_refs += out.range.len() as u64;
                self.obs.emit(
                    self.steps,
                    self.clock,
                    FlowEvent::Spill {
                        flow: flow.id,
                        group: out.frag.group,
                        lanes: out.range.len(),
                    },
                );
            }
        }
        match fault {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Phase 2: one PRAM memory step for all collected references,
    /// resolved on the coordinator under both engines. Per-module
    /// resolution is a few word operations per reference, which a worker
    /// fan-out cannot amortize: sharding it by module lost to this
    /// sequential step on every measured workload.
    pub(crate) fn memory_step(&mut self, refs: &[MemRef]) -> Result<StepStats, TcfError> {
        let mut bulk = std::mem::take(&mut self.mem_bulk);
        let r = self
            .shared
            .step_bulk_into(
                refs,
                &mut self.mem_scratch,
                &mut self.mem_replies,
                &mut bulk,
            )
            .map_err(|e| self.host_err(e.into()));
        self.mem_bulk = bulk;
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn coalesce_bulk_multi_merges_exact_continuations() {
        use crate::exec_sync::{WbTarget, Writeback};
        use tcf_isa::instr::MultiKind;
        use tcf_isa::reg::r;
        use tcf_mem::{MemOp, MemRef, RefOrigin};

        fn bm(rank: usize, count: u32, vbase: Word, prefix: bool) -> MemRef {
            MemRef::new(
                RefOrigin::new(0, rank),
                MemOp::BulkMulti {
                    kind: MultiKind::Add,
                    prefix,
                    base: 64,
                    astride: 0,
                    count,
                    vbase,
                    vstride: 1,
                },
            )
        }
        fn cont(out: &mut FragOut, r: MemRef) {
            out.refs.clear();
            out.wbs.clear();
            out.refs.push(r);
        }

        let mut out = FragOut::empty();
        let mut no_wbs: Vec<Writeback> = Vec::new();

        // A rank- and value-exact continuation merges into one run.
        let mut refs = vec![bm(0, 256, 0, false)];
        cont(&mut out, bm(256, 256, 256, false));
        assert!(coalesce_bulk_multi(&mut refs, &mut no_wbs, &out, 7));
        assert_eq!(refs.len(), 1);
        let MemOp::BulkMulti { count, vbase, .. } = refs[0].op else {
            panic!("not a bulk multi");
        };
        assert_eq!((count, vbase), (512, 0));

        // A rank gap (not the next slice) refuses.
        let mut refs = vec![bm(0, 256, 0, false)];
        cont(&mut out, bm(300, 256, 256, false));
        assert!(!coalesce_bulk_multi(&mut refs, &mut no_wbs, &out, 7));

        // A broken value progression refuses.
        let mut refs = vec![bm(0, 256, 0, false)];
        cont(&mut out, bm(256, 256, 999, false));
        assert!(!coalesce_bulk_multi(&mut refs, &mut no_wbs, &out, 7));

        // Prefix runs merge their reply windows too.
        let mut refs = vec![bm(0, 256, 0, true)];
        let mut wbs = vec![Writeback {
            flow: 7,
            rd: r(2),
            target: WbTarget::Lanes {
                base: 0,
                count: 256,
            },
            ref_idx: 0,
        }];
        cont(&mut out, bm(256, 256, 256, true));
        out.wbs.push((
            r(2),
            WbTarget::Lanes {
                base: 256,
                count: 256,
            },
            0,
        ));
        assert!(coalesce_bulk_multi(&mut refs, &mut wbs, &out, 7));
        let MemOp::BulkMulti { count, .. } = refs[0].op else {
            panic!("not a bulk multi");
        };
        assert_eq!(count, 512);
        assert_eq!(wbs.len(), 1);
        let WbTarget::Lanes { base, count } = wbs[0].target else {
            panic!("not a lane window");
        };
        assert_eq!((base, count), (0, 512));

        // A prefix continuation from another flow's writeback refuses.
        let mut refs = vec![bm(0, 256, 0, true)];
        let mut wbs = vec![Writeback {
            flow: 8,
            rd: r(2),
            target: WbTarget::Lanes {
                base: 0,
                count: 256,
            },
            ref_idx: 0,
        }];
        cont(&mut out, bm(256, 256, 256, true));
        out.wbs.push((
            r(2),
            WbTarget::Lanes {
                base: 256,
                count: 256,
            },
            0,
        ));
        assert!(!coalesce_bulk_multi(&mut refs, &mut wbs, &out, 7));
    }

    #[test]
    fn engine_spec_parsing() {
        assert_eq!(Engine::from_spec("seq"), Some(Engine::Sequential));
        assert_eq!(Engine::from_spec("Sequential"), Some(Engine::Sequential));
        assert_eq!(
            Engine::from_spec("par:4"),
            Some(Engine::Parallel { workers: 4 })
        );
        assert_eq!(
            Engine::from_spec(" par:1 "),
            Some(Engine::Parallel { workers: 1 })
        );
        // 0 workers clamps to 1 rather than deadlocking.
        assert_eq!(
            Engine::from_spec("par:0"),
            Some(Engine::Parallel { workers: 1 })
        );
        assert_eq!(Engine::from_spec("par"), None);
        assert_eq!(Engine::from_spec("par:x"), None);
        assert_eq!(Engine::from_spec(""), None);
    }

    #[test]
    fn pool_runs_all_tasks_with_borrows() {
        let pool = global_pool(4);
        let mut results = vec![0usize; 64];
        {
            let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
            for (i, slot) in results.iter_mut().enumerate() {
                tasks.push(Box::new(move || *slot = i * i));
            }
            pool.run(tasks);
        }
        for (i, &r) in results.iter().enumerate() {
            assert_eq!(r, i * i);
        }
    }

    #[test]
    fn single_worker_pool_drains_on_coordinator() {
        let pool = global_pool(1);
        let counter = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..16)
            .map(|_| {
                let c = &counter;
                Box::new(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run(tasks);
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn pool_propagates_worker_panics() {
        let pool = global_pool(2);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
                Box::new(|| {}),
                Box::new(|| panic!("worker exploded")),
                Box::new(|| {}),
            ];
            pool.run(tasks);
        }));
        assert!(caught.is_err());
        // The pool survives a panicking batch.
        let ok = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = vec![Box::new(|| {
            ok.fetch_add(1, Ordering::SeqCst);
        })];
        pool.run(tasks);
        assert_eq!(ok.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn global_pool_is_shared_per_worker_count() {
        let a = global_pool(3);
        let b = global_pool(3);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.workers(), 3);
    }
}
