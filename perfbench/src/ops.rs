//! One benchmark operation: a program built or compiled, loaded into a
//! machine with generated inputs, run to halt or to its step cap, and
//! checked against a host-side reference.

use std::fmt;
use std::time::Instant;

use tcf_core::{Allocation, Engine, TcfError, TcfFault, TcfMachine, Variant};
use tcf_isa::program::Program;
use tcf_isa::word::Word;
use tcf_machine::MachineConfig;
use tcf_mem::ModuleMap;
use tcf_pram::PramMachine;

use crate::trace::Tracer;

/// Step budget of ops that are meant to halt.
pub const HALT_BUDGET: u64 = 5_000_000;

/// The machine an op runs on.
#[derive(Debug, Clone, Copy)]
pub enum Target {
    /// The extended model under one variant (`None` keeps the variant's
    /// default fragment allocation).
    Tcf {
        /// Execution variant.
        variant: Variant,
        /// Explicit fragment allocation, if any.
        allocation: Option<Allocation>,
    },
    /// The thread-based `tcf-pram` baseline (engine-independent).
    Pram,
}

/// How a correct run ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum End {
    /// Every flow halts within [`HALT_BUDGET`] steps.
    Halt,
    /// The run is cut at exactly this many steps (a steady-state leg
    /// whose full run is unaffordable).
    Cap(u64),
}

/// Where a program comes from; decides which layer its build time is
/// charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// tce source compiled by `tcf_lang` (layer `lang`).
    Tce,
    /// `ProgramBuilder` or assembler text (layer `isa`).
    Isa,
}

/// Address placement of shared memory, as the per-layer table splits it.
pub fn placement(config: &MachineConfig) -> &'static str {
    match config.module_map {
        ModuleMap::Interleaved => "interleaved",
        ModuleMap::LinearHash { .. } => "hashed",
    }
}

/// One benchmark operation with its generated inputs and expected
/// outputs.
pub struct Op {
    /// Stable name, unique within a workload.
    pub name: String,
    /// Where the program comes from.
    pub source: Source,
    /// Builds (or compiles) the program; called on every run of the op.
    pub build: Box<dyn Fn() -> Program>,
    /// Machine to run on.
    pub target: Target,
    /// Machine configuration.
    pub config: MachineConfig,
    /// `(base, words)` written into shared memory before the run.
    pub pokes: Vec<(usize, Vec<Word>)>,
    /// Thicknesses of root tasks spawned at the program's `task` label.
    pub tasks: Vec<usize>,
    /// How a correct run ends.
    pub end: End,
    /// `(base, words)` the run must leave in shared memory.
    pub expect: Vec<(usize, Vec<Word>)>,
    /// Whether the same program and inputs also run on the `tcf-pram`
    /// baseline, which must produce `expect` too.
    pub oracle: bool,
    /// Whether the simulated statistics depend on the seeded input values
    /// (data-dependent addresses or spawn mixes). Ops where they do not
    /// are checked against a pinned digest.
    pub seeded_stats: bool,
}

/// The simulated statistics a run is fingerprinted by. A change that
/// only speeds the simulator up must leave every digest unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Digest {
    /// Machine steps.
    pub steps: u64,
    /// Machine cycles.
    pub cycles: u64,
    /// Issued units (compute, memory, fetch).
    pub issued: u64,
    /// Shared-memory references.
    pub refs: u64,
    /// Network messages.
    pub messages: u64,
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {} {}",
            self.steps, self.cycles, self.issued, self.refs, self.messages
        )
    }
}

impl Digest {
    /// Parses the [`Display`](fmt::Display) form.
    pub fn parse(s: &str) -> Option<Digest> {
        let v: Vec<u64> = s
            .split_whitespace()
            .map(|x| x.parse().ok())
            .collect::<Option<_>>()?;
        match v[..] {
            [steps, cycles, issued, refs, messages] => Some(Digest {
                steps,
                cycles,
                issued,
                refs,
                messages,
            }),
            _ => None,
        }
    }

    fn of_tcf(m: &TcfMachine) -> Digest {
        Digest {
            steps: m.steps_executed(),
            cycles: m.cycles(),
            issued: m.stats().issued(),
            refs: m.mem_stats().refs as u64,
            messages: m.net_stats().messages as u64,
        }
    }

    fn of_summary(s: &tcf_pram::RunSummary) -> Digest {
        Digest {
            steps: s.steps,
            cycles: s.cycles,
            issued: s.machine.issued(),
            refs: s.memory.refs as u64,
            messages: s.network.messages as u64,
        }
    }
}

/// What one run of an op measured and found.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Host seconds spent building the program, constructing the machine
    /// and loading the inputs.
    pub setup_s: f64,
    /// Host seconds spent running the machine.
    pub run_s: f64,
    /// Simulated statistics of the run (absent when it faulted before
    /// producing any).
    pub digest: Option<Digest>,
    /// Why the op failed, if it did.
    pub error: Option<String>,
}

impl Outcome {
    /// Per-operation host latency: set-up plus run.
    pub fn latency_s(&self) -> f64 {
        self.setup_s + self.run_s
    }
}

/// Runs `op` once on `engine`, recording spans and counters into `tr`
/// when given. Checking (the host reference and the baseline oracle) is
/// outside the timed set-up and run.
pub fn run(op: &Op, engine: Engine, mut tr: Option<&mut Tracer>) -> Outcome {
    if let Some(t) = tr.as_deref_mut() {
        t.begin_op(op, engine);
    }
    let t0 = Instant::now();
    let build_span = match op.source {
        Source::Tce => "lang.compile",
        Source::Isa => "isa.build",
    };
    let program = span(&mut tr, build_span, || (op.build)());
    let instrs = program.len();
    // The baseline is engine-independent: checking it on the `seq` leg
    // covers both.
    let oracle_program = (op.oracle && !engine.is_parallel()).then(|| program.clone());
    let mut out = match op.target {
        Target::Tcf {
            variant,
            allocation,
        } => run_tcf(op, engine, variant, allocation, program, t0, &mut tr),
        Target::Pram => run_pram(op, program, t0, &mut tr),
    };
    if let (None, Some(p)) = (&out.error, oracle_program) {
        if let Some(t) = tr.as_deref_mut() {
            t.open("bench.check");
        }
        out.error = check_pram_oracle(op, p, &mut tr);
        if let Some(t) = tr.as_deref_mut() {
            t.close();
        }
    }
    if let Some(t) = tr {
        t.end_op(instrs);
    }
    out
}

fn span<T>(tr: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tr {
        Some(t) => {
            t.open(name);
            let v = f();
            t.close();
            v
        }
        None => f(),
    }
}

fn run_tcf(
    op: &Op,
    engine: Engine,
    variant: Variant,
    allocation: Option<Allocation>,
    program: Program,
    t0: Instant,
    tr: &mut Option<&mut Tracer>,
) -> Outcome {
    let mut m = span(tr, "core.new", || {
        new_tcf(op, engine, variant, allocation, program)
    });
    let loaded = span(tr, "core.poke", || poke_tcf(op, &mut m));
    let setup_s = t0.elapsed().as_secs_f64();
    if let Err(e) = loaded {
        return failed(setup_s, 0.0, format!("loading inputs: {e:?}"));
    }
    let cap = match op.end {
        End::Halt => HALT_BUDGET,
        End::Cap(c) => c,
    };
    let t1 = Instant::now();
    let result = match tr {
        Some(t) => t.run_steps(&mut m, cap),
        None => m.run(cap).map(|_| ()),
    };
    let run_s = t1.elapsed().as_secs_f64();
    let digest = Digest::of_tcf(&m);
    if let Some(t) = tr.as_deref_mut() {
        t.absorb_machine(&m);
    }
    let error = match (op.end, result) {
        (End::Halt, Ok(())) => None,
        (End::Cap(_), Err(e)) if matches!(e.fault, TcfFault::StepBudgetExhausted { .. }) => None,
        (End::Cap(c), Ok(())) => Some(format!(
            "halted after {} steps before its cap {c}",
            m.steps_executed()
        )),
        (_, Err(e)) => Some(format!("fault: {e:?}")),
    };
    let error = error.or_else(|| span(tr, "bench.check", || check_expect(op, |a| m.peek(a).ok())));
    Outcome {
        setup_s,
        run_s,
        digest: Some(digest),
        error,
    }
}

fn new_tcf(
    op: &Op,
    engine: Engine,
    variant: Variant,
    allocation: Option<Allocation>,
    program: Program,
) -> TcfMachine {
    let mut m = match allocation {
        Some(a) => TcfMachine::with_allocation(op.config.clone(), variant, program, a),
        None => TcfMachine::new(op.config.clone(), variant, program),
    };
    m.set_engine(engine);
    m
}

fn poke_tcf(op: &Op, m: &mut TcfMachine) -> Result<(), TcfError> {
    for (base, words) in &op.pokes {
        for (i, &w) in words.iter().enumerate() {
            m.poke(base + i, w)?;
        }
    }
    if !op.tasks.is_empty() {
        let entry = m
            .program()
            .label("task")
            .expect("an op with tasks has a `task` label");
        for &t in &op.tasks {
            m.spawn_task(entry, t)?;
        }
    }
    Ok(())
}

/// Builds the program of an extended-model op and loads it with its
/// inputs on `engine`, without timing or spans (the observability probe
/// re-runs ops this way).
pub fn load_tcf(op: &Op, engine: Engine) -> Result<TcfMachine, String> {
    let Target::Tcf {
        variant,
        allocation,
    } = op.target
    else {
        return Err(format!("{} does not run on the extended model", op.name));
    };
    let mut m = new_tcf(op, engine, variant, allocation, (op.build)());
    poke_tcf(op, &mut m).map_err(|e| format!("loading inputs: {e:?}"))?;
    Ok(m)
}

/// Host seconds to set `op` up on `engine` — build or compile the
/// program, construct the machine, load the inputs — as a run does, but
/// without running it. The machine is freed outside the timing.
pub fn set_up(op: &Op, engine: Engine) -> Result<f64, String> {
    let t0 = Instant::now();
    // `_m` holds the machine until the clock has been read.
    match op.target {
        Target::Tcf { .. } => load_tcf(op, engine).map(|_m| t0.elapsed().as_secs_f64()),
        Target::Pram => load_pram(op, (op.build)()).map(|_m| t0.elapsed().as_secs_f64()),
    }
}

fn load_pram(op: &Op, program: Program) -> Result<PramMachine, String> {
    let mut m = PramMachine::new(op.config.clone(), program);
    for (base, words) in &op.pokes {
        for (i, &w) in words.iter().enumerate() {
            m.poke(base + i, w)
                .map_err(|e| format!("loading inputs: {e:?}"))?;
        }
    }
    Ok(m)
}

fn run_pram(op: &Op, program: Program, t0: Instant, tr: &mut Option<&mut Tracer>) -> Outcome {
    let loaded = span(tr, "pram.new", || load_pram(op, program));
    let setup_s = t0.elapsed().as_secs_f64();
    let mut m = match loaded {
        Ok(m) => m,
        Err(e) => return failed(setup_s, 0.0, e),
    };
    let t1 = Instant::now();
    let result = span(tr, "pram.run", || m.run(HALT_BUDGET));
    let run_s = t1.elapsed().as_secs_f64();
    match result {
        Ok(s) => {
            if let Some(t) = tr.as_deref_mut() {
                t.absorb_pram(&s);
            }
            let error = span(tr, "bench.check", || check_expect(op, |a| m.peek(a).ok()));
            Outcome {
                setup_s,
                run_s,
                digest: Some(Digest::of_summary(&s)),
                error,
            }
        }
        Err(e) => failed(setup_s, run_s, format!("fault: {e:?}")),
    }
}

/// Runs the thread-model form on the baseline machine as an independent
/// oracle: it must halt and leave the same expected outputs.
fn check_pram_oracle(op: &Op, program: Program, tr: &mut Option<&mut Tracer>) -> Option<String> {
    let mut m = match load_pram(op, program) {
        Ok(m) => m,
        Err(e) => return Some(format!("oracle: {e}")),
    };
    match span(tr, "pram.run", || m.run(HALT_BUDGET)) {
        Ok(s) => {
            if let Some(t) = tr.as_deref_mut() {
                t.absorb_pram(&s);
            }
        }
        Err(e) => return Some(format!("oracle fault: {e:?}")),
    }
    check_expect(op, |a| m.peek(a).ok()).map(|e| format!("oracle: {e}"))
}

fn check_expect(op: &Op, peek: impl Fn(usize) -> Option<Word>) -> Option<String> {
    for (base, words) in &op.expect {
        for (i, &want) in words.iter().enumerate() {
            let got = peek(base + i);
            if got != Some(want) {
                return Some(format!(
                    "word {} = {got:?}, host reference {want}",
                    base + i
                ));
            }
        }
    }
    None
}

fn failed(setup_s: f64, run_s: f64, error: String) -> Outcome {
    Outcome {
        setup_s,
        run_s,
        digest: None,
        error: Some(error),
    }
}
