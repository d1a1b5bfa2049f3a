//! The synchronous step engine: Single instruction, Balanced,
//! Single-operation, Configurable single operation and Fixed thickness.
//!
//! All five lockstep variants share this engine; they differ only in the
//! per-step operation bound (`Balanced`), in their capability checks
//! (which instructions fault), and in how their initial flows were created
//! (see [`crate::machine`]). Instructions are classified *flow-wise* —
//! control flow, thickness control, and any data instruction whose
//! operands are uniform across the flow (executed once on common
//! operands) — or *thick* — one operation per implicit thread, executed
//! over the flow's fragments and bounded per step under Balanced.

use tcf_isa::instr::{MemSpace, Operand};
use tcf_isa::reg::{Reg, SpecialReg};
use tcf_isa::word::{to_addr, Word};
use tcf_machine::{IssueUnit, UnitSeq};
use tcf_mem::{BulkView, MemOp, MemRef, RefOrigin};
use tcf_obs::{FlowEvent, Mode};

use crate::decoded::{DecodedInst, DecodedProgram};
use crate::error::{TcfError, TcfFault};
use crate::flow::{ExecMode, Flow, FlowStatus, Fragment};
use crate::machine::{TcfMachine, MAX_THICKNESS};
use crate::variant::Variant;

/// Destination lanes of a pending register write-back.
#[derive(Debug, Clone, Copy)]
pub(crate) enum WbTarget {
    /// Flow-wise load: the value becomes uniform.
    Uniform,
    /// One implicit thread's lane.
    Lane(usize),
    /// `count` consecutive lanes starting at `base`, served by a single
    /// strided bulk reference; replies arrive via
    /// [`tcf_mem::BulkReplies`] rather than the scalar reply vector.
    Lanes { base: usize, count: usize },
}

/// Pending register write-back from the shared-memory step.
pub(crate) struct Writeback {
    pub flow: u32,
    pub rd: Reg,
    pub target: WbTarget,
    pub ref_idx: usize,
}

/// Reusable buffers of the synchronous step — one bundle per machine, so
/// the steady-state loop performs no per-step allocation once every
/// buffer has grown to the workload's high-water mark. Taken out of the
/// machine (`std::mem::take`) for the duration of a step to keep the
/// borrow checker out of the phase structure, then put back.
#[derive(Default)]
pub(crate) struct StepBufs {
    pram_units: Vec<Vec<UnitSeq>>,
    numa_units: Vec<Vec<UnitSeq>>,
    refs: Vec<MemRef>,
    wbs: Vec<Writeback>,
    numa_flows: Vec<u32>,
    slots_used: Vec<usize>,
    /// Flow ids snapshotted at step start (status changes mid-step).
    ids: Vec<u32>,
}

impl TcfMachine {
    /// One synchronous step (phases 1–5 of the machine docs). The step
    /// buffers are taken out of the machine for the duration of the step
    /// (and put back even on a faulting step) so the phase structure can
    /// borrow them independently of `self`.
    pub(crate) fn step_sync(&mut self) -> Result<(), TcfError> {
        let mut bufs = std::mem::take(&mut self.step_bufs);
        let r = self.step_sync_inner(&mut bufs);
        self.step_bufs = bufs;
        r
    }

    fn step_sync_inner(&mut self, bufs: &mut StepBufs) -> Result<(), TcfError> {
        let ngroups = self.config.groups;
        bufs.pram_units.resize_with(ngroups, Vec::new);
        bufs.numa_units.resize_with(ngroups, Vec::new);
        for u in &mut bufs.pram_units {
            u.clear();
        }
        for u in &mut bufs.numa_units {
            u.clear();
        }
        bufs.refs.clear();
        bufs.wbs.clear();
        bufs.numa_flows.clear();
        let StepBufs {
            pram_units,
            numa_units,
            refs,
            wbs,
            numa_flows,
            slots_used,
            ids,
        } = bufs;

        // Fixed thread-slot accounting of the thread-based variants: an
        // interleaved ESM processor always rotates through its T_p slots,
        // so dead or absorbed slots burn issue cycles (the low-TLP
        // utilization problem of §1/§2.1). The TCF variants schedule
        // flows, not slots, and are exempt.
        let fixed_rotation = matches!(
            self.variant,
            Variant::SingleOperation | Variant::ConfigurableSingleOperation
        );
        slots_used.clear();
        slots_used.resize(ngroups, 0);

        ids.clear();
        ids.extend(self.flows.keys());
        for &id in ids.iter() {
            // Status can change mid-step (bunch absorption), so re-check.
            if !self.flows[&id].is_running() {
                continue;
            }
            match self.flows[&id].mode {
                ExecMode::Numa { slots } => {
                    if slots > 0 {
                        self.activate_in_buffers(id, numa_units);
                        slots_used[self.flows[&id].home_group()] += slots;
                        numa_flows.push(id);
                    }
                }
                ExecMode::Pram => {
                    if self.flows[&id].thickness == 0 {
                        continue; // dormant flow: executes nothing (§3.1)
                    }
                    self.activate_in_buffers(id, pram_units);
                    slots_used[self.flows[&id].home_group()] += 1;
                    self.exec_pram_instruction(id, pram_units, refs, wbs)?;
                }
            }
        }

        if fixed_rotation {
            let tp = self.config.threads_per_group;
            for g in 0..ngroups {
                for _ in slots_used[g]..tp {
                    pram_units[g].push(IssueUnit::idle().into());
                }
            }
        }

        // Phase 2: one PRAM memory step for all flows' references,
        // resolved on the coordinator under both engines. Replies land in
        // the machine-owned `mem_replies` buffer.
        let mstats = self.memory_step(refs)?;
        self.mem_stats.absorb(&mstats);

        // Phase 3: write-backs. Bulk (strided-read) replies are taken
        // out of the machine for the loop so a borrowed reply view can
        // coexist with the `&mut` flow borrow.
        let bulk = std::mem::take(&mut self.mem_bulk);
        for wb in wbs.iter() {
            match wb.target {
                WbTarget::Uniform => {
                    if let Some(v) = self.mem_replies[wb.ref_idx] {
                        let flow = self.flows.get_mut(&wb.flow).expect("flow exists");
                        flow.regs.write_uniform(wb.rd, v);
                    }
                }
                WbTarget::Lane(e) => {
                    if let Some(v) = self.mem_replies[wb.ref_idx] {
                        let flow = self.flows.get_mut(&wb.flow).expect("flow exists");
                        let t = flow.thickness;
                        flow.regs.write(wb.rd, e, v, t);
                    }
                }
                WbTarget::Lanes { base, count } => {
                    if let Some(view) = bulk.get(wb.ref_idx) {
                        let flow = self.flows.get_mut(&wb.flow).expect("flow exists");
                        let t = flow.thickness;
                        match view {
                            BulkView::Affine {
                                base: vbase,
                                stride: vstride,
                            } => flow
                                .regs
                                .write_affine(wb.rd, base, count, vbase, vstride, t),
                            BulkView::Values(vals) => {
                                if flow.regs.write_lanes(wb.rd, base, vals, t) {
                                    self.thick_decay.mem_reply += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        self.mem_bulk = bulk;

        // Phase 4: NUMA slices.
        for &id in numa_flows.iter() {
            if self.flows[&id].is_running() {
                self.run_numa_slice(id, numa_units)?;
            }
        }

        // Phase 5: timing.
        self.apply_timing(pram_units, numa_units);
        Ok(())
    }

    fn operand_uniform(&self, flow: &Flow, o: Operand) -> bool {
        match o {
            Operand::Imm(_) => true,
            Operand::Reg(r) => flow.regs.value(r).is_uniform(),
        }
    }

    /// Whether `instr` needs one operation per implicit thread.
    fn is_thick(&self, flow: &Flow, instr: DecodedInst) -> bool {
        if flow.thickness <= 1 {
            // One implicit thread: flow-wise and thick coincide; treat as
            // flow-wise so unit flows cost one operation.
            return matches!(
                instr,
                DecodedInst::MultiOp { .. } | DecodedInst::MultiPrefix { .. }
            );
        }
        let u = |r: Reg| flow.regs.value(r).is_uniform();
        match instr {
            DecodedInst::Alu { ra, rb, .. } => !u(ra) || !self.operand_uniform(flow, rb),
            DecodedInst::Ldi { .. } => false,
            DecodedInst::Mfs { sr, .. } => matches!(sr, SpecialReg::Tid | SpecialReg::Gid),
            DecodedInst::Sel { cond, rt, rf, .. } => {
                !u(cond) || !u(rt) || !self.operand_uniform(flow, rf)
            }
            DecodedInst::Ld { base, .. } => !u(base),
            DecodedInst::St { rs, base, .. } => !u(rs) || !u(base),
            DecodedInst::StMasked { cond, rs, base, .. } => !u(cond) || !u(rs) || !u(base),
            // Every implicit thread contributes, whatever the operands.
            DecodedInst::MultiOp { .. } | DecodedInst::MultiPrefix { .. } => true,
            _ => false,
        }
    }

    fn uniform_value(&self, flow: &Flow, o: Operand, what: &'static str) -> Result<Word, TcfError> {
        match o {
            Operand::Imm(w) => Ok(w),
            Operand::Reg(r) => flow
                .regs
                .value(r)
                .uniform_over(flow.thickness.max(1))
                .ok_or_else(|| self.flow_err(flow.id, TcfFault::NonUniformOperand { what })),
        }
    }

    /// Executes (a slice of) one PRAM-mode instruction of flow `id`.
    fn exec_pram_instruction(
        &mut self,
        id: u32,
        units: &mut [Vec<UnitSeq>],
        refs: &mut Vec<MemRef>,
        wbs: &mut Vec<Writeback>,
    ) -> Result<(), TcfError> {
        let mut flow = self.flows.remove(&id).expect("flow exists");
        let result = self.exec_pram_inner(&mut flow, units, refs, wbs);
        self.flows.insert(id, flow);
        result
    }

    fn exec_pram_inner(
        &mut self,
        flow: &mut Flow,
        units: &mut [Vec<UnitSeq>],
        refs: &mut Vec<MemRef>,
        wbs: &mut Vec<Writeback>,
    ) -> Result<(), TcfError> {
        let pc = flow.pc;
        // The pre-decoded instruction is `Copy`: fetching it takes no
        // allocation and leaves the machine unborrowed.
        let instr = match self.decoded.fetch(pc) {
            Some(i) => i,
            None => return Err(self.flow_err(flow.id, TcfFault::PcOutOfRange { pc })),
        };
        self.stats.fetches += 1;
        self.obs
            .emit(self.steps, self.clock, FlowEvent::Fetch { flow: flow.id });

        if self.is_thick(flow, instr) {
            // Rank-contiguous slicing: the flow has ONE next-operation
            // pointer (§3.3's TCF-buffer resume pointer). Each fragment's
            // group contributes up to `bound` (Balanced) or its share
            // (Single instruction) of operations per step, taken in rank
            // order, which preserves multiprefix rank ordering across
            // sliced instructions.
            let bound = self.variant.bound().unwrap_or(usize::MAX);
            let mut cursor = flow.next_op;
            let mut slices = std::mem::take(&mut self.slice_buf);
            slices.clear();
            for fi in 0..flow.fragments.len() {
                if cursor >= flow.thickness {
                    break;
                }
                let frag = flow.fragments[fi];
                let n = bound.min(frag.len).min(flow.thickness - cursor);
                if n == 0 {
                    continue;
                }
                slices.push((frag, cursor..cursor + n));
                cursor += n;
            }
            // Lanes execute per slice (inline, or on the worker pool under
            // the parallel engine — the fragments' groups are distinct, so
            // the slices are independent) and merge in fragment order.
            let mut outs = std::mem::take(&mut self.frag_pool);
            self.exec_slices(flow, instr, &slices, &mut outs);
            let n = slices.len();
            let merged = self.merge_frag_outs(flow, &mut outs[..n], units, refs, wbs);
            self.slice_buf = slices;
            self.frag_pool = outs;
            merged?;
            flow.next_op = cursor;
            if flow.instruction_complete() {
                flow.pc = pc + 1;
                flow.reset_progress();
            }
            Ok(())
        } else {
            self.exec_flowwise(flow, instr, units, refs, wbs)
        }
    }

    /// Executes a flow-wise instruction: one operation on the home group's
    /// common operands.
    fn exec_flowwise(
        &mut self,
        flow: &mut Flow,
        instr: DecodedInst,
        units: &mut [Vec<UnitSeq>],
        refs: &mut Vec<MemRef>,
        wbs: &mut Vec<Writeback>,
    ) -> Result<(), TcfError> {
        let home = flow.home_group();
        let pc = flow.pc;
        let mut next_pc = pc + 1;
        let mut unit = IssueUnit::compute(flow.id, 0);
        // Flow-wise origin: rank of implicit thread 0.
        let origin = RefOrigin::new(home, flow.rank_base);

        let fid = flow.id;
        // Cold fault path: render the *source* instruction at `pc` (the
        // decoded form has no display).
        let unsupported = move |m: &TcfMachine| {
            m.flow_err(
                fid,
                TcfFault::UnsupportedByVariant {
                    instr: m
                        .program
                        .fetch(pc)
                        .map(|i| i.to_string())
                        .unwrap_or_default(),
                    variant: m.variant.name(),
                },
            )
        };

        match instr {
            DecodedInst::Alu { op, rd, ra, rb } => {
                let a = flow.regs.read(ra, 0);
                let b = match rb {
                    Operand::Reg(r) => flow.regs.read(r, 0),
                    Operand::Imm(w) => w,
                };
                flow.regs.write_uniform(rd, op.eval(a, b));
            }
            DecodedInst::Ldi { rd, imm } => flow.regs.write_uniform(rd, imm),
            DecodedInst::Mfs { rd, sr } => {
                let v = self.special(flow, 0, sr);
                flow.regs.write_uniform(rd, v);
            }
            DecodedInst::Sel { rd, cond, rt, rf } => {
                let v = if flow.regs.read(cond, 0) != 0 {
                    flow.regs.read(rt, 0)
                } else {
                    match rf {
                        Operand::Reg(r) => flow.regs.read(r, 0),
                        Operand::Imm(w) => w,
                    }
                };
                flow.regs.write_uniform(rd, v);
            }
            DecodedInst::Ld {
                rd,
                base,
                off,
                space,
            } => {
                let addr = to_addr(flow.regs.read(base, 0).wrapping_add(off));
                match space {
                    MemSpace::Shared => {
                        unit = IssueUnit::shared_mem(flow.id, 0, self.shared.module_of(addr));
                        wbs.push(Writeback {
                            flow: flow.id,
                            rd,
                            target: WbTarget::Uniform,
                            ref_idx: refs.len(),
                        });
                        refs.push(MemRef::new(origin, MemOp::Read(addr)));
                    }
                    MemSpace::Local => {
                        unit = IssueUnit::local_mem(flow.id, 0);
                        let v = self.locals[home]
                            .read(addr)
                            .map_err(|e| self.flow_err(flow.id, e.into()))?;
                        flow.regs.write_uniform(rd, v);
                    }
                }
            }
            DecodedInst::St {
                rs,
                base,
                off,
                space,
            }
            | DecodedInst::StMasked {
                rs,
                base,
                off,
                space,
                ..
            } => {
                let masked_out = matches!(instr, DecodedInst::StMasked { cond, .. }
                    if flow.regs.read(cond, 0) == 0);
                let addr = to_addr(flow.regs.read(base, 0).wrapping_add(off));
                let v = flow.regs.read(rs, 0);
                if !masked_out {
                    match space {
                        MemSpace::Shared => {
                            unit = IssueUnit::shared_mem(flow.id, 0, self.shared.module_of(addr));
                            refs.push(MemRef::new(origin, MemOp::Write(addr, v)));
                        }
                        MemSpace::Local => {
                            unit = IssueUnit::local_mem(flow.id, 0);
                            self.locals[home]
                                .write(addr, v)
                                .map_err(|e| self.flow_err(flow.id, e.into()))?;
                        }
                    }
                }
            }
            DecodedInst::MultiOp {
                kind,
                base,
                off,
                rs,
            } => {
                // Thickness 1 (classification guarantees it): one
                // contribution.
                let addr = to_addr(flow.regs.read(base, 0).wrapping_add(off));
                let v = flow.regs.read(rs, 0);
                unit = IssueUnit::shared_mem(flow.id, 0, self.shared.module_of(addr));
                refs.push(MemRef::new(origin, MemOp::Multi(kind, addr, v)));
            }
            DecodedInst::MultiPrefix {
                kind,
                rd,
                base,
                off,
                rs,
            } => {
                let addr = to_addr(flow.regs.read(base, 0).wrapping_add(off));
                let v = flow.regs.read(rs, 0);
                unit = IssueUnit::shared_mem(flow.id, 0, self.shared.module_of(addr));
                wbs.push(Writeback {
                    flow: flow.id,
                    rd,
                    target: WbTarget::Uniform,
                    ref_idx: refs.len(),
                });
                refs.push(MemRef::new(origin, MemOp::Prefix(kind, addr, v)));
            }
            DecodedInst::Jmp { target } => next_pc = self.abs(flow.id, target)?,
            DecodedInst::Br { cond, rs, target } => {
                // Borrow-based operand select: test uniformity in place —
                // no clone of the per-thread vector, no representation
                // write-back (the old clone never wrote back either).
                let v = match flow.regs.value(rs).uniform_over(flow.thickness.max(1)) {
                    Some(v) => v,
                    None => return Err(self.flow_err(flow.id, TcfFault::DivergentBranch { pc })),
                };
                if cond.holds(v) {
                    next_pc = self.abs(flow.id, target)?;
                }
            }
            DecodedInst::Call { target } => {
                let dst = self.abs(flow.id, target)?;
                flow.call_stack.push(pc + 1);
                next_pc = dst;
            }
            DecodedInst::Ret => match flow.call_stack.pop() {
                Some(ra) => next_pc = ra,
                None => return Err(self.flow_err(flow.id, TcfFault::EmptyCallStack)),
            },
            DecodedInst::SetThick { src } => {
                if !self.variant.supports_setthick() {
                    return Err(unsupported(self));
                }
                let v = self.uniform_value(flow, src, "setthick")?;
                if v < 0 || v as usize > MAX_THICKNESS {
                    return Err(self.flow_err(flow.id, TcfFault::BadThickness { requested: v }));
                }
                self.obs.emit(
                    self.steps,
                    self.clock,
                    FlowEvent::ThicknessChange {
                        flow: flow.id,
                        from: flow.thickness,
                        to: v as usize,
                    },
                );
                // Compressed (affine/segment) registers describe an
                // unbounded progression; pin their observable lanes at
                // the OLD thickness before it changes, so lanes exposed
                // by a later grow read 0 exactly as per-thread storage
                // would.
                self.thick_decay.setthick += flow.regs.decay_compressed(flow.thickness);
                flow.thickness = v as usize;
                flow.fragments =
                    self.allocation
                        .fragments(flow.id, flow.thickness, self.config.groups);
                flow.reset_progress();
                unit = IssueUnit::overhead(flow.id);
            }
            DecodedInst::Numa { slots } => {
                if !self.variant.supports_numa() {
                    return Err(unsupported(self));
                }
                let v = self.uniform_value(flow, slots, "numa bunch length")?;
                if v < 1 || v as usize > MAX_THICKNESS {
                    return Err(self.flow_err(flow.id, TcfFault::BadThickness { requested: v }));
                }
                let slots = v as usize;
                if matches!(self.variant, Variant::ConfigurableSingleOperation) {
                    self.absorb_bunch(flow, slots, pc)?;
                }
                flow.mode = ExecMode::Numa { slots };
                flow.regs.collapse_to_flowwise();
                flow.fragments = vec![Fragment::new(home, 0, 1)];
                unit = IssueUnit::overhead(flow.id);
                self.obs.emit(
                    self.steps,
                    self.clock,
                    FlowEvent::ModeSwitch {
                        flow: flow.id,
                        mode: Mode::Numa,
                    },
                );
            }
            DecodedInst::EndNuma => return Err(self.flow_err(flow.id, TcfFault::NotInNuma)),
            DecodedInst::Split { arms } => {
                if !self.variant.supports_split() {
                    return Err(unsupported(self));
                }
                let mut pending = 0;
                for ai in arms.indices() {
                    // Arms are `Copy` entries of the decoded side table;
                    // fetching one by index keeps `self` unborrowed.
                    let arm = self.decoded.arm(ai);
                    let t = self.uniform_value(flow, arm.thickness, "split arm thickness")?;
                    if t < 1 || t as usize > MAX_THICKNESS {
                        return Err(self.flow_err(flow.id, TcfFault::BadThickness { requested: t }));
                    }
                    let target = self.abs(flow.id, arm.target)?;
                    let child_id = self.alloc_id();
                    let mut child = Flow::new(child_id, t as usize, target, flow.regs.len());
                    child.regs = flow.regs.clone();
                    child.regs.collapse_to_flowwise();
                    child.parent = Some(flow.id);
                    child.fragments =
                        self.allocation
                            .fragments(child_id, t as usize, self.config.groups);
                    self.flows.insert(child_id, child);
                    self.obs.emit(
                        self.steps,
                        self.clock,
                        FlowEvent::FlowSpawned {
                            flow: child_id,
                            parent: Some(flow.id),
                            thickness: t as usize,
                        },
                    );
                    pending += 1;
                    // Flow creation copies the R common registers: the
                    // O(R) flow-branch cost of Table 1.
                    for _ in 0..self.config.regs_per_thread {
                        units[home].push(IssueUnit::overhead(flow.id).into());
                    }
                }
                if pending > 0 {
                    flow.status = FlowStatus::WaitingJoin { pending };
                    self.obs.emit(
                        self.steps,
                        self.clock,
                        FlowEvent::Split {
                            flow: flow.id,
                            arms: pending,
                        },
                    );
                    self.obs.emit(
                        self.steps,
                        self.clock,
                        FlowEvent::WaitBegin {
                            flow: flow.id,
                            pending,
                        },
                    );
                }
            }
            DecodedInst::Join => {
                let parent = flow
                    .parent
                    .ok_or_else(|| self.flow_err(flow.id, TcfFault::StrayJoin))?;
                flow.status = FlowStatus::Halted;
                self.obs.emit(
                    self.steps,
                    self.clock,
                    FlowEvent::Join {
                        flow: flow.id,
                        parent: Some(parent),
                    },
                );
                self.obs.emit(
                    self.steps,
                    self.clock,
                    FlowEvent::FlowHalted { flow: flow.id },
                );
                self.notify_join(parent)?;
            }
            DecodedInst::Spawn { .. } | DecodedInst::SJoin => return Err(unsupported(self)),
            DecodedInst::Sync | DecodedInst::Nop => {}
            DecodedInst::Halt => {
                flow.status = FlowStatus::Halted;
                self.obs.emit(
                    self.steps,
                    self.clock,
                    FlowEvent::FlowHalted { flow: flow.id },
                );
            }
        }

        flow.pc = next_pc;
        units[home].push(unit.into());
        Ok(())
    }

    /// Checks a decoded control-transfer target for the unresolved-label
    /// sentinel (see [`DecodedProgram::UNRESOLVED`]).
    pub(crate) fn abs(&self, flow: u32, t: usize) -> Result<usize, TcfError> {
        if t == DecodedProgram::UNRESOLVED {
            Err(self.flow_err(
                flow,
                TcfFault::Internal {
                    what: "unresolved target".into(),
                },
            ))
        } else {
            Ok(t)
        }
    }

    /// Decrements a parent's pending-join count, waking it at zero.
    pub(crate) fn notify_join(&mut self, parent: u32) -> Result<(), TcfError> {
        self.notify_join_many(parent, 1)
    }

    /// Decrements a parent's pending-join count by `count` arrivals at
    /// once — how an async spawn *block* of `count` threads reports its
    /// collective `sjoin` in O(1) — waking the parent at zero.
    pub(crate) fn notify_join_many(&mut self, parent: u32, count: usize) -> Result<(), TcfError> {
        let step = self.steps;
        let missing = move |what: String| TcfError {
            fault: TcfFault::Internal { what },
            step,
            flow: None,
        };
        let p = self
            .flows
            .get_mut(&parent)
            .ok_or_else(|| missing(format!("join to missing parent {parent}")))?;
        let mut woke = false;
        match p.status {
            FlowStatus::WaitingJoin { pending } if pending > count => {
                p.status = FlowStatus::WaitingJoin {
                    pending: pending - count,
                };
            }
            FlowStatus::WaitingJoin { .. } => {
                p.status = FlowStatus::Running;
                woke = true;
            }
            FlowStatus::WaitingSpawn { pending } if pending > count => {
                p.status = FlowStatus::WaitingSpawn {
                    pending: pending - count,
                };
            }
            FlowStatus::WaitingSpawn { .. } => {
                p.status = FlowStatus::Running;
                woke = true;
            }
            _ => {
                return Err(self.host_err(TcfFault::Internal {
                    what: format!("join to non-waiting parent {parent}"),
                }))
            }
        }
        if woke {
            self.obs
                .emit(self.steps, self.clock, FlowEvent::WaitEnd { flow: parent });
        }
        Ok(())
    }

    /// Configurable single operation: `numa T` executed by a unit flow
    /// absorbs its `T - 1` same-group sibling flows (which must be at the
    /// same `numa` instruction) into a bunch.
    fn absorb_bunch(&mut self, leader: &mut Flow, slots: usize, pc: usize) -> Result<(), TcfError> {
        let group = leader.home_group();
        let leader_id = leader.id;
        let step = self.steps;
        let fail = move |why: &str| TcfError {
            fault: TcfFault::BunchFormation {
                why: why.to_string(),
            },
            step,
            flow: Some(leader_id),
        };
        for k in 1..slots as u32 {
            let sid = leader_id + k;
            let sibling = self
                .flows
                .get_mut(&sid)
                .ok_or_else(|| fail("sibling flow missing"))?;
            if sibling.home_group() != group {
                return Err(fail("sibling in another group"));
            }
            if !sibling.is_running() {
                return Err(fail("sibling not running"));
            }
            if sibling.pc != pc {
                return Err(fail("siblings not at a common pc"));
            }
            sibling.status = FlowStatus::Absorbed { leader: leader_id };
        }
        Ok(())
    }
}
