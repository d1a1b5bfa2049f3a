//! End-to-end and per-layer benchmark of the TCF PRAM-NUMA simulator.
//!
//! The benchmark drives the simulator crates from outside, through their
//! public APIs, on the paper-scale machine (`P = 16`, `T_p = 64`, mesh,
//! hashed placement). A workload is a list of ops; a pass runs every op
//! once on `seq` and once on `par:2` (the engine-independent baseline
//! ops once), one at a time (a closed loop with one client), and a run
//! makes passes until its time is up. See
//! `README.md` for the metrics and why each workload was chosen.

pub mod ops;
pub mod probes;
pub mod report;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::collections::HashMap;
use std::time::Instant;

use tcf_core::Engine;

use crate::ops::{Digest, Op, Target};
use crate::trace::{engine_name, Tracer};

/// The two engines every op runs on: sequential, and the parallel engine
/// with two workers (the coordinating thread is one of them).
pub const ENGINES: [Engine; 2] = [Engine::Sequential, Engine::Parallel { workers: 2 }];

/// Samples each engine must reach so that the 90th percentile has at
/// least ten samples beyond it.
pub const MIN_SAMPLES: usize = 100;

/// The engines `op` runs on, by index into [`ENGINES`]: both for the
/// extended model, `seq` alone for the engine-independent baseline (so
/// the `par:2` figures cover only `par:2` runs).
pub fn engines(op: &Op) -> std::ops::Range<usize> {
    match op.target {
        Target::Tcf { .. } => 0..ENGINES.len(),
        Target::Pram => 0..1,
    }
}

/// Rounds of dedicated set-ups an untraced run makes for `setup_s`.
pub const SETUP_ROUNDS: usize = 20;

/// Passes that give every engine at least [`MIN_SAMPLES`] op samples.
pub fn min_passes(ops: &[Op]) -> usize {
    let par_ops = ops.iter().filter(|op| engines(op).len() > 1).count();
    MIN_SAMPLES.div_ceil(par_ops.max(1))
}

/// The samples of one op, per engine, over the passes of a run.
#[derive(Debug, Clone, Default)]
pub struct OpSamples {
    /// Issued units of one run (the same on every run: the digest checks
    /// it).
    pub units: u64,
    /// Machine steps of one run.
    pub steps: u64,
    /// Host seconds running the machine, per engine.
    pub run_s: [Vec<f64>; 2],
    /// Host seconds of each dedicated set-up ([`Collector::set_up`]),
    /// per engine.
    pub setup_s: [Vec<f64>; 2],
}

/// Everything a run collects.
pub struct Collector<'a> {
    /// Pinned digests by op name (`None` skips the pinned check, for op
    /// lists at other than the benchmark's sizes).
    pub pinned: Option<&'a HashMap<String, Digest>>,
    /// Digest first seen per op, which later runs of the op must repeat.
    pub seen: HashMap<String, Digest>,
    /// Samples per op, in op-list order.
    pub samples: Vec<OpSamples>,
    /// Wall seconds of each pass, checks included.
    pub passes: Vec<f64>,
    /// Op latencies in milliseconds, per engine.
    pub op_ms: [Vec<f64>; 2],
    /// Op runs attempted.
    pub attempted: u64,
    /// Op runs that failed.
    pub failed: u64,
    /// The first few failure reports.
    pub failures: Vec<String>,
}

impl<'a> Collector<'a> {
    /// An empty collector checking against `pinned`.
    pub fn new(pinned: Option<&'a HashMap<String, Digest>>) -> Collector<'a> {
        Collector {
            pinned,
            seen: HashMap::new(),
            samples: Vec::new(),
            passes: Vec::new(),
            op_ms: [Vec::new(), Vec::new()],
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Runs one pass: every op on each of its [`engines`] in turn,
    /// checking outputs and digests. Returns the pass's wall seconds.
    pub fn pass(&mut self, ops: &[Op], mut tr: Option<&mut Tracer>) -> f64 {
        let start = Instant::now();
        self.samples.resize_with(ops.len(), OpSamples::default);
        for (op, samples) in ops.iter().zip(&mut self.samples) {
            for e in engines(op) {
                let engine = ENGINES[e];
                let out = ops::run(op, engine, tr.as_deref_mut());
                samples.run_s[e].push(out.run_s);
                if let Some(d) = out.digest {
                    samples.units = d.issued;
                    samples.steps = d.steps;
                }
                self.op_ms[e].push(out.latency_s() * 1e3);
                self.attempted += 1;
                if let Some(err) = out
                    .error
                    .or_else(|| digest_error(&mut self.seen, self.pinned, op, out.digest))
                {
                    self.failed += 1;
                    if self.failures.len() < 10 {
                        self.failures.push(format!(
                            "{} on {}: {err}",
                            op.name,
                            engine_name(engine)
                        ));
                    }
                }
            }
        }
        let wall = start.elapsed().as_secs_f64();
        self.passes.push(wall);
        wall
    }

    /// Sets every op up `rounds` times on each of its [`engines`], back
    /// to back and without running it, recording the set-up times. Set-up
    /// inside a pass follows the previous op's run and the freeing of its
    /// machine, which varies with the workload; here it does not. A
    /// set-up that fails is not recorded: the op fails in its passes.
    pub fn set_up(&mut self, ops: &[Op], rounds: usize) {
        self.samples.resize_with(ops.len(), OpSamples::default);
        for _ in 0..rounds {
            for (op, samples) in ops.iter().zip(&mut self.samples) {
                for e in engines(op) {
                    if let Ok(s) = ops::set_up(op, ENGINES[e]) {
                        samples.setup_s[e].push(s);
                    }
                }
            }
        }
    }
}

/// A digest must repeat across engines and passes, and match the pinned
/// value where the op's statistics do not depend on the seed.
fn digest_error(
    seen: &mut HashMap<String, Digest>,
    pinned: Option<&HashMap<String, Digest>>,
    op: &Op,
    digest: Option<Digest>,
) -> Option<String> {
    let d = digest?;
    if let Some(&first) = seen.get(&op.name) {
        if first != d {
            return Some(format!(
                "simulated statistics {d} differ from {first} of the first run"
            ));
        }
        return None;
    }
    seen.insert(op.name.clone(), d);
    let pinned = pinned.filter(|_| !op.seeded_stats)?;
    match pinned.get(&op.name) {
        Some(&p) if p == d => None,
        Some(&p) => Some(format!(
            "simulated statistics {d} differ from the pinned {p}"
        )),
        None => Some("no pinned digest".into()),
    }
}
/// Parses a pinned-digest file: `name: steps cycles issued refs messages`
/// per line; `#` starts a comment.
pub fn parse_pinned(text: &str) -> HashMap<String, Digest> {
    text.lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .filter_map(|l| {
            let (name, d) = l.split_once(':')?;
            Some((name.trim().to_string(), Digest::parse(d)?))
        })
        .collect()
}

/// The pinned digests of `workload` at full scale.
pub fn pinned(workload: &str) -> HashMap<String, Digest> {
    parse_pinned(match workload {
        "paper_programs" => include_str!("../pinned/paper_programs.txt"),
        "thick_compressed" => include_str!("../pinned/thick_compressed.txt"),
        "irregular_lanes" => include_str!("../pinned/irregular_lanes.txt"),
        _ => "",
    })
}

/// Peak resident memory of this process in MB (`VmHWM`), or 0 where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
