//! The traced run: spans around every call into a simulator crate plus
//! counter deltas read through the crates' public getters, kept in memory
//! and written out when the run ends.
//!
//! Spans come only from the benchmark's own files. A span's layer is the
//! part of its name before the first dot: `lang`, `isa`, `core`, `pram`,
//! `obs` or `bench`. `mem`, `net` and `machine` run inside `core.step`, so
//! their share is measured by the isolated probes in [`crate::probes`].

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use tcf_core::{Engine, TcfError, TcfFault, TcfMachine};
use tcf_obs::LatencyHistogram;
use tcf_pram::RunSummary;

use crate::ops::{self, Op, Source};

/// No parent: a root span.
const ROOT: u32 = u32::MAX;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of the enclosing span, or `u32::MAX` for an op's root span.
    pub parent: u32,
    /// Id shared by every span of one op run.
    pub op: u32,
    /// Call name, `layer.call[.detail]`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// One traced op run.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// Op name.
    pub name: String,
    /// `seq` or `par2`.
    pub engine: &'static str,
    /// Shared-memory placement of the op's machine.
    pub placement: &'static str,
}

/// Counters of one placement, for the table that splits hashed from
/// interleaved ops.
#[derive(Debug, Clone, Default)]
pub struct PlacementRow {
    /// Machine steps.
    pub steps: u64,
    /// Fragment slices executed.
    pub slices: u64,
    /// Slices that fell back to per-lane execution.
    pub slices_per_lane: u64,
    /// Bulk references resolved in closed form.
    pub bulk_fast: u64,
    /// Bulk references expanded to lanes.
    pub bulk_expanded: u64,
    /// Shared-memory references.
    pub mem_refs: u64,
    /// Network messages.
    pub messages: u64,
}

/// Counter totals over the traced passes. Counts come from the `seq` leg
/// only: `par:2` repeats them exactly (the digests check that).
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub lang_programs: u64,
    pub lang_instrs: u64,
    pub core_steps: u64,
    pub core_units: u64,
    pub slices: u64,
    pub slices_compressed: u64,
    pub slices_per_lane: u64,
    pub mask_hits: u64,
    pub mask_misses: u64,
    pub coalesce_hits: u64,
    pub coalesce_misses: u64,
    pub decay: [u64; 7],
    pub live_flows_max: u64,
    /// Lanes per engine worker, summed over the `par:2` legs.
    pub worker_lanes: Vec<u64>,
    pub mem_refs: u64,
    pub mem_combined: u64,
    pub mem_hot_addrs: u64,
    pub bulk_fast: u64,
    pub bulk_expanded: u64,
    pub bulk_expanded_lanes: u64,
    pub module_load: Vec<u64>,
    pub net_messages: u64,
    pub net_route_sends: u64,
    pub net_hops: u64,
    pub net_queue_cycles: u64,
    pub net_queue: LatencyHistogram,
    pub cycles: u64,
    pub fetches: u64,
    pub bubbles: u64,
    pub overhead_cycles: u64,
    pub issue_slots: u64,
    pub roundtrip: LatencyHistogram,
    pub pram_steps: u64,
    /// Per-placement counters.
    pub placement: BTreeMap<&'static str, PlacementRow>,
}

/// The names of the decay reasons, in [`Counts::decay`] order.
pub const DECAY_REASONS: [&str; 7] = [
    "setthick",
    "lane_write",
    "mem_reply",
    "mask_runs",
    "fault",
    "balanced_resume",
    "async_slice",
];

/// Records spans and counters of traced op runs.
pub struct Tracer {
    origin: Instant,
    /// Every span recorded, in opening order.
    pub spans: Vec<Span>,
    /// Every traced op run, indexed by [`Span::op`].
    pub ops: Vec<OpRecord>,
    /// Counter totals.
    pub counts: Counts,
    open: Vec<u32>,
    counting: bool,
    source: Source,
    placement: &'static str,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer; span times count from now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            ops: Vec::new(),
            counts: Counts::default(),
            open: Vec::new(),
            counting: false,
            source: Source::Isa,
            placement: "hashed",
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` inside the innermost open span.
    pub fn open(&mut self, name: &'static str) {
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let op = self.ops.len().saturating_sub(1) as u32;
        let start_ns = self.now_ns();
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            parent,
            op,
            name,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        let end = self.now_ns();
        let idx = self.open.pop().expect("close without open span");
        self.spans[idx as usize].end_ns = end;
    }

    /// Starts an op run: its root span and its metadata.
    pub fn begin_op(&mut self, op: &Op, engine: Engine) {
        self.counting = !engine.is_parallel();
        self.source = op.source;
        self.placement = ops::placement(&op.config);
        self.ops.push(OpRecord {
            name: op.name.clone(),
            engine: engine_name(engine),
            placement: self.placement,
        });
        self.open("bench.op");
    }

    /// Starts a probe run of `op` outside the op list: a root span under
    /// its own op id, closed by the caller.
    pub fn begin_probe(&mut self, name: &str, op: &Op) {
        self.counting = false;
        self.ops.push(OpRecord {
            name: name.to_string(),
            engine: "seq",
            placement: ops::placement(&op.config),
        });
        self.open("bench.op");
    }

    /// Ends the op run begun last.
    pub fn end_op(&mut self, instrs: usize) {
        self.close();
        if self.counting && self.source == Source::Tce {
            self.counts.lang_programs += 1;
            self.counts.lang_instrs += instrs as u64;
        }
    }

    /// Steps `m` to halt or to `cap` steps, exactly as
    /// [`TcfMachine::run`] does, with one span per `step()` call named by
    /// the kind of work the step's counter deltas show: per-lane slices,
    /// otherwise compressed slices, otherwise flow-wise work only.
    pub fn run_steps(&mut self, m: &mut TcfMachine, cap: u64) -> Result<(), TcfError> {
        let mut prev = (
            m.engine_counters().per_lane_slices,
            m.engine_counters().compressed_slices,
        );
        loop {
            if m.steps_executed() >= cap {
                return Err(TcfError {
                    fault: TcfFault::StepBudgetExhausted { budget: cap },
                    step: m.steps_executed(),
                    flow: None,
                });
            }
            self.open("core.step");
            let more = m.step();
            self.close();
            let e = m.engine_counters();
            let now = (e.per_lane_slices, e.compressed_slices);
            let last = self.spans.len() - 1;
            self.spans[last].name = if now.0 > prev.0 {
                "core.step.per_lane"
            } else if now.1 > prev.1 {
                "core.step.compressed"
            } else {
                "core.step.flowwise"
            };
            prev = now;
            if self.counting {
                let live = m.live_flows() as u64;
                self.counts.live_flows_max = self.counts.live_flows_max.max(live);
            }
            if !more? {
                return Ok(());
            }
        }
    }

    /// Adds the counters of a finished extended-model run.
    pub fn absorb_machine(&mut self, m: &TcfMachine) {
        let e = m.engine_counters();
        if !self.counting {
            let w = &mut self.counts.worker_lanes;
            if w.len() < e.worker_lanes.len() {
                w.resize(e.worker_lanes.len(), 0);
            }
            for (a, b) in w.iter_mut().zip(&e.worker_lanes) {
                *a += b;
            }
            return;
        }
        let c = &mut self.counts;
        let s = m.stats();
        c.core_steps += m.steps_executed();
        c.core_units += s.issued();
        c.slices += e.slices;
        c.slices_compressed += e.compressed_slices;
        c.slices_per_lane += e.per_lane_slices;
        c.mask_hits += e.mask_hits;
        c.mask_misses += e.mask_misses;
        c.coalesce_hits += e.coalesce_hits;
        c.coalesce_misses += e.coalesce_misses;
        let d = m.thick_decay();
        let reasons = [
            d.setthick,
            d.lane_write,
            d.mem_reply,
            d.mask_runs,
            d.fault,
            d.balanced_resume,
            d.async_slice,
        ];
        for (a, b) in c.decay.iter_mut().zip(reasons) {
            *a += b;
        }
        let mem = m.mem_stats();
        let bulk = m.bulk_stats();
        c.mem_refs += mem.refs as u64;
        c.mem_combined += mem.combined as u64;
        c.mem_hot_addrs += mem.hot_addrs as u64;
        c.bulk_fast += bulk.fast;
        c.bulk_expanded += bulk.expanded;
        c.bulk_expanded_lanes += bulk.expanded_lanes;
        if c.module_load.len() < mem.per_module.len() {
            c.module_load.resize(mem.per_module.len(), 0);
        }
        for (a, &b) in c.module_load.iter_mut().zip(&mem.per_module) {
            *a += b as u64;
        }
        let net = m.net_stats();
        c.net_messages += net.messages as u64;
        c.net_route_sends += net.route_sends as u64;
        c.net_hops += net.hops as u64;
        c.net_queue_cycles += net.queue_cycles;
        c.net_queue.merge(&net.queue);
        c.cycles += s.cycles;
        c.fetches += s.fetches;
        c.bubbles += s.bubbles;
        c.overhead_cycles += s.overhead_cycles;
        c.issue_slots += s.issued() + s.bubbles + s.overhead_cycles;
        c.roundtrip.merge(&s.mem_roundtrip);
        let row = c.placement.entry(self.placement).or_default();
        row.steps += m.steps_executed();
        row.slices += e.slices;
        row.slices_per_lane += e.per_lane_slices;
        row.bulk_fast += bulk.fast;
        row.bulk_expanded += bulk.expanded;
        row.mem_refs += mem.refs as u64;
        row.messages += net.messages as u64;
    }

    /// Adds the counters of a finished baseline run.
    pub fn absorb_pram(&mut self, s: &RunSummary) {
        if self.counting {
            self.counts.pram_steps += s.steps;
        }
    }

    /// The spans of op ids below `ops`.
    fn spans_of(&self, ops: usize) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| (s.op as usize) < ops)
    }

    /// Summed duration and summed self time (duration minus the time its
    /// child spans cover) of the spans of op ids below `ops`, keyed by
    /// span name.
    pub fn time_by_name(&self, ops: usize) -> BTreeMap<&'static str, (f64, f64)> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
        for (s, c) in self
            .spans
            .iter()
            .zip(child)
            .filter(|(s, _)| (s.op as usize) < ops)
        {
            let e = out.entry(s.name).or_default();
            e.0 += s.secs();
            e.1 += (s.end_ns - s.start_ns - c) as f64 * 1e-9;
        }
        out
    }

    /// Summed step time per `(placement, engine)` of op ids below `ops`.
    pub fn step_time_by_placement(
        &self,
        ops: usize,
    ) -> BTreeMap<(&'static str, &'static str), f64> {
        let mut out = BTreeMap::new();
        for s in self
            .spans_of(ops)
            .filter(|s| s.name.starts_with("core.step"))
        {
            let op = &self.ops[s.op as usize];
            *out.entry((op.placement, op.engine)).or_default() += s.secs();
        }
        out
    }

    /// Durations of every `step()` call of op ids below `ops`, in
    /// microseconds, sorted.
    pub fn step_us_sorted(&self, ops: usize) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .spans_of(ops)
            .filter(|s| s.name.starts_with("core.step"))
            .map(|s| s.secs() * 1e6)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The spans and op records as one JSON document: `ops` lists
    /// `[name, engine, placement]` per op id and `spans` lists
    /// `[op, parent, name, start_ns, end_ns]` per span, where `parent` is
    /// the index of the enclosing span in that list (`-1` for an op's root
    /// span), followed by the per-layer metrics and the placement table.
    pub fn to_json(&self, metrics: &[crate::report::Metric], table: &str) -> String {
        let mut out = String::from("{\"schema\":\"tcf-perfbench-trace/v1\",\"ops\":[");
        for (i, o) in self.ops.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(
                out,
                "{sep}[\"{}\",\"{}\",\"{}\"]",
                o.name, o.engine, o.placement
            );
        }
        out.push_str("],\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i > 0 { ",\n" } else { "\n" };
            let parent = if s.parent == ROOT {
                -1
            } else {
                s.parent as i64
            };
            let _ = write!(
                out,
                "{sep}[{},{parent},\"{}\",{},{}]",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("],\n\"metrics\":{");
        for (i, (name, v, unit)) in metrics.iter().enumerate() {
            let sep = if i > 0 { ",\n" } else { "\n" };
            let v = crate::report::json_number(*v);
            let _ = write!(out, "{sep}\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}");
        }
        let _ = write!(out, "}},\n\"placement_table\":{:?}}}\n", table);
        out
    }
}

/// The engine label used in names and tables.
pub fn engine_name(e: Engine) -> &'static str {
    if e.is_parallel() {
        "par2"
    } else {
        "seq"
    }
}
