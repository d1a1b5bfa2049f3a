//! Isolated layer probes of the traced run, the observability probe and
//! the host calibration kernel.
//!
//! The layer probes drive `tcf-mem`, `tcf-net` and `tcf-machine` through
//! their public step functions with seeded traffic shaped like the
//! workloads, so host time inside `core.step` can be attributed to one
//! layer without spans inside the simulator: scattered per-lane references
//! with hot spots (irregular_lanes) against strided bulk runs under
//! interleaved and hashed placement (thick_compressed).

use std::hint::black_box;
use std::time::Instant;

use tcf_core::Engine;
use tcf_machine::{GroupPipeline, IssueUnit, MachineStats, Trace, UnitSeq};
use tcf_mem::{
    BulkReplies, CrcwPolicy, MemOp, MemRef, ModuleMap, RefOrigin, SharedMemory, StepScratch,
};
use tcf_net::{Network, Topology};
use tcf_obs::chrome::chrome_trace_with_workers;
use tcf_obs::json::metrics_json;
use tcf_obs::stream::{drain_ndjson, header_line, DRAIN_INTERVAL_STEPS};
use tcf_obs::StreamCursor;

use crate::ops::{self, Op};
use crate::rng::Rng;
use crate::stats::median;
use crate::trace::Tracer;

/// Repetitions per probe; each probe reports the median.
const REPS: usize = 5;

/// Memory modules, network nodes and the hashed placement of the paper
/// machine.
fn paper_modules() -> (usize, ModuleMap, Topology) {
    let c = tcf_bench::paper_config();
    (c.groups, c.module_map, c.topology)
}

/// Median nanoseconds per unit of `REPS` runs of `f`, which does `units`
/// units of work per call.
fn ns_per_unit(units: usize, mut f: impl FnMut()) -> f64 {
    f();
    let v: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / units as f64
        })
        .collect();
    median(&v)
}

/// `mem.ns_per_ref.scattered`: per-lane reads and writes at random
/// addresses of a 2^16-word array, one in ten on eight hot words, through
/// `SharedMemory::step_into` under hashed placement.
pub fn mem_scattered(seed: u64) -> f64 {
    const STEPS: usize = 32;
    const LANES: usize = 4096;
    let (modules, map, _) = paper_modules();
    let mut rng = Rng::new(seed, 0x3e30);
    let steps: Vec<Vec<MemRef>> = (0..STEPS)
        .map(|_| {
            (0..LANES)
                .map(|k| {
                    let origin = RefOrigin::new(k * modules / LANES, k);
                    let addr = (1 << 16) + rng.below(1 << 16);
                    let op = match rng.below(10) {
                        0 => MemOp::Read(64 + rng.below(8)),
                        1..=3 => MemOp::Write(addr, k as i64),
                        _ => MemOp::Read(addr),
                    };
                    MemRef::new(origin, op)
                })
                .collect()
        })
        .collect();
    let mut mem = SharedMemory::new(1 << 20, modules, map, CrcwPolicy::Arbitrary);
    let mut scratch = StepScratch::default();
    let mut replies = Vec::new();
    ns_per_unit(STEPS * LANES, || {
        for refs in &steps {
            mem.step_into(refs, &mut scratch, &mut replies)
                .expect("probe references are in bounds");
            black_box(&replies);
        }
    })
}

/// `mem.ns_per_ref.bulk.<placement>`: a unit-stride bulk read and a
/// stride-2 bulk write of 2^14 lanes each per step, through
/// `SharedMemory::step_bulk_into`, per lane reference.
pub fn mem_bulk(seed: u64, map: ModuleMap) -> f64 {
    const STEPS: usize = 32;
    const LANES: u32 = 1 << 14;
    let (modules, _, _) = paper_modules();
    let mut rng = Rng::new(seed, 0xb01c);
    let steps: Vec<[MemRef; 2]> = (0..STEPS)
        .map(|_| {
            let off = rng.below(1 << 12);
            [
                MemRef::new(
                    RefOrigin::new(0, 0),
                    MemOp::StridedRead {
                        base: (1 << 16) + off,
                        stride: 1,
                        count: LANES,
                    },
                ),
                MemRef::new(
                    RefOrigin::new(0, LANES as usize),
                    MemOp::StridedWrite {
                        base: (1 << 18) + off,
                        stride: 2,
                        count: LANES,
                        vbase: rng.below(1000) as i64,
                        vstride: 3,
                    },
                ),
            ]
        })
        .collect();
    let mut mem = SharedMemory::new(1 << 20, modules, map, CrcwPolicy::Arbitrary);
    let mut scratch = StepScratch::default();
    let mut replies = Vec::new();
    let mut bulk = BulkReplies::default();
    ns_per_unit(STEPS * 2 * LANES as usize, || {
        for refs in &steps {
            mem.step_bulk_into(refs, &mut scratch, &mut replies, &mut bulk)
                .expect("probe references are in bounds");
            black_box(&bulk);
        }
    })
}

fn seeded_pairs(seed: u64, stream: u64, n: usize, nodes: usize) -> Vec<(usize, usize)> {
    let mut rng = Rng::new(seed, stream);
    (0..n)
        .map(|_| (rng.below(nodes), rng.below(nodes)))
        .collect()
}

/// `net.ns_per_send`: `Network::send_batch` of seeded random
/// source/destination pairs on the paper machine's mesh.
pub fn net_send(seed: u64) -> f64 {
    const BATCHES: usize = 64;
    const MSGS: usize = 1024;
    let (nodes, _, topo) = paper_modules();
    let pairs = seeded_pairs(seed, 0x5e4d, MSGS, nodes);
    let mut net = Network::new(topo, 1);
    let mut now = 0;
    ns_per_unit(BATCHES * MSGS, || {
        for _ in 0..BATCHES {
            let (_, done) = net.send_batch(&pairs, now);
            now = done;
        }
    })
}

/// `net.ns_per_route_send`: one `Network::route_to` per lane run of 32
/// messages to one module, each sent with `Network::send_on`.
pub fn net_route_send(seed: u64) -> f64 {
    const RUNS: usize = 2048;
    const RUN_LEN: usize = 32;
    let (nodes, _, topo) = paper_modules();
    let pairs = seeded_pairs(seed, 0x7047, RUNS, nodes);
    let mut net = Network::new(topo, 1);
    let mut now = 0;
    ns_per_unit(RUNS * RUN_LEN, || {
        for &(s, d) in &pairs {
            let route = net.route_to(s, d).expect("mesh routes fit the handle");
            for _ in 0..RUN_LEN {
                now = now.max(net.send_on(&route, now));
            }
        }
    })
}

/// The unit runs of one probe step: a compute run, a shared-memory run
/// rotating over the modules (a strided access), one aimed at a single
/// module (a multioperation on one word) and a local-memory run.
fn probe_seqs(seed: u64, nodes: usize) -> Vec<UnitSeq> {
    let mut rng = Rng::new(seed, 0x919e);
    let shared = |thread0, node_step, rng: &mut Rng| UnitSeq::SharedRun {
        flow: 0,
        thread0,
        count: 4096,
        node0: rng.below(nodes),
        node_step,
        nodes,
    };
    vec![
        UnitSeq::ComputeRun {
            flow: 0,
            thread0: 0,
            count: 4096,
        },
        shared(4096, 1, &mut rng),
        shared(8192, 0, &mut rng),
        UnitSeq::LocalRun {
            flow: 0,
            thread0: 12288,
            count: 1024,
        },
    ]
}

/// `machine.ns_per_unit.<form>`: `GroupPipeline` timing of the same step,
/// given run-length compressed (`run_step_seq`) or as one `IssueUnit` per
/// unit (`run_step`), per issued unit.
pub fn machine_pipeline(seed: u64, compressed: bool) -> f64 {
    const STEPS: usize = 16;
    let c = tcf_bench::paper_config();
    let seqs = probe_seqs(seed, c.groups);
    let units: Vec<IssueUnit> = seqs
        .iter()
        .flat_map(|s| (0..s.len()).map(move |k| s.unit_at(k)))
        .collect();
    let pipe = GroupPipeline::with_ilp(0, c.module_latency, c.local_latency, c.ilp_width);
    let mut net = Network::new(c.topology, c.hop_latency);
    let mut trace = Trace::disabled();
    let mut stats = MachineStats::default();
    let mut clock = 0;
    ns_per_unit(STEPS * units.len(), || {
        for _ in 0..STEPS {
            let out = if compressed {
                pipe.run_step_seq(clock, &seqs, false, &mut net, &mut trace, &mut stats)
            } else {
                pipe.run_step(clock, &units, false, &mut net, &mut trace, &mut stats)
            };
            clock = out.end_cycle;
        }
    })
}

/// `host.calib_s`: a fixed pure-Rust kernel (an integer hash chain and a
/// dependent gather over a 1 MiB table), median seconds of five runs.
/// Reported beside the metrics so a comparison can tell a slower host
/// from a slower commit; no metric is rescaled by it.
pub fn calibrate() -> f64 {
    let table: Vec<u32> = {
        let mut r = Rng::new(0xca11b, 0);
        (0..1 << 18).map(|_| r.next_u64() as u32).collect()
    };
    let v: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            let mut idx = 0usize;
            for i in 0..4_000_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                idx = (table[idx] as usize ^ x as usize ^ i as usize) & ((1 << 18) - 1);
            }
            black_box((x, idx));
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&v)
}

/// Results of the observability probe.
#[derive(Debug, Clone, Copy)]
pub struct ObsProbe {
    /// Seconds to export a recorded run (Chrome trace plus metrics JSON).
    pub export_s: f64,
    /// Seconds spent in stream drains over one streamed run.
    pub stream_drain_s: f64,
    /// Recorded run time over plain run time.
    pub record_overhead: f64,
    /// Streamed run time (drains included) over plain run time.
    pub stream_overhead: f64,
}

/// Runs `op` with observability off, recording then exporting, and
/// streaming, `REPS` times each on `seq`, with spans around the
/// exporters and drains.
pub fn obs_probe(op: &Op, tr: &mut Tracer) -> ObsProbe {
    let mut off = Vec::new();
    let mut rec = Vec::new();
    let mut stream = Vec::new();
    let mut export = Vec::new();
    let mut drain = Vec::new();
    let load = || {
        let mut m = ops::load_tcf(op, Engine::Sequential).expect("the obs probe op loads");
        m.set_tracing(true);
        m.set_observing(true);
        m
    };
    for _ in 0..REPS {
        let mut m = ops::load_tcf(op, Engine::Sequential).expect("the obs probe op loads");
        let t = Instant::now();
        m.run(ops::HALT_BUDGET).expect("the obs probe op halts");
        off.push(t.elapsed().as_secs_f64());

        let mut m = load();
        let t = Instant::now();
        m.run(ops::HALT_BUDGET).expect("the obs probe op halts");
        rec.push(t.elapsed().as_secs_f64());
        tr.begin_probe(&format!("{}.obs", op.name), op);
        tr.open("obs.export");
        let t = Instant::now();
        let doc = chrome_trace_with_workers(
            &m.trace().events(),
            &m.obs().events(),
            m.trace().dropped(),
            m.obs().dropped(),
            &m.engine_counters().worker_lanes,
        );
        let json = metrics_json(&m.metrics());
        export.push(t.elapsed().as_secs_f64());
        tr.close();
        black_box((doc.len(), json.len()));

        let mut m = load();
        let mut cursor = StreamCursor::default();
        let mut out = header_line();
        let mut drain_s = 0.0;
        let t = Instant::now();
        loop {
            let more = m.step().expect("the obs probe op halts");
            if !more || m.steps_executed().is_multiple_of(DRAIN_INTERVAL_STEPS) {
                tr.open("obs.stream_drain");
                let d = Instant::now();
                drain_ndjson(m.trace(), m.obs(), &mut cursor, &mut out);
                drain_s += d.elapsed().as_secs_f64();
                tr.close();
            }
            if !more {
                break;
            }
        }
        stream.push(t.elapsed().as_secs_f64());
        drain.push(drain_s);
        tr.close();
        black_box(out.len());
    }
    let base = median(&off);
    ObsProbe {
        export_s: median(&export),
        stream_drain_s: median(&drain),
        record_overhead: median(&rec) / base,
        stream_overhead: median(&stream) / base,
    }
}
