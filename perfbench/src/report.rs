//! Metric definitions and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::probes::ObsProbe;
use crate::stats::{fastest, median, percentile};
use crate::trace::{Tracer, DECAY_REASONS};
use crate::Collector;

/// A metric value: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// The end-to-end metrics every untraced run prints, with units, in
/// report order.
pub const END_TO_END: [(&str, &str); 10] = [
    ("units_per_s.seq", "1/s"),
    ("units_per_s.par2", "1/s"),
    ("steps_per_s.seq", "1/s"),
    ("op_ms.p50.seq", "ms"),
    ("op_ms.p90.seq", "ms"),
    ("op_ms.p50.par2", "ms"),
    ("op_ms.p90.par2", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("failed_frac", "ratio"),
];

/// The end-to-end metrics listed in `BENCHMARK.json` and carried by the
/// result line, each with a regression bound. The latency percentiles are
/// printed but not bounded: a percentile is one op run's time, taken in
/// whatever state the shared host was in, and on a 2-core host their
/// spread between runs reached 0.17 of the median, too close to the
/// widest bound a gate can take (0.25). `failed_frac` is 0 on a correct
/// run; the result line carries it as `failed` / `attempted`.
pub const GATED: [&str; 5] = [
    "units_per_s.seq",
    "units_per_s.par2",
    "steps_per_s.seq",
    "setup_s",
    "peak_rss_mb",
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The end-to-end metrics of an untraced run, in [`END_TO_END`] order.
///
/// Rates count each op once, at its fastest run over the run's passes on
/// that engine: the op list's work over the sum of those times. Every
/// pass repeats the same work, and the shared host's speed swings by up
/// to half again over seconds to minutes; other load only ever slows a
/// run, so the fastest of many passes is the least disturbed (a total
/// or a median follows the swings). Set-up time takes each op's fastest
/// dedicated set-up per engine for the same reason: set-up is mostly
/// fresh machine memory being allocated and zeroed.
pub fn end_to_end(col: &Collector, peak_rss_mb: f64) -> Vec<Metric> {
    let total = |f: &dyn Fn(&crate::OpSamples) -> f64| -> f64 { col.samples.iter().map(f).sum() };
    let rate = |count: &dyn Fn(&crate::OpSamples) -> u64, e: usize| {
        let (work, secs) = col
            .samples
            .iter()
            .filter(|s| !s.run_s[e].is_empty())
            .fold((0.0, 0.0), |(w, t), s| {
                (w + count(s) as f64, t + fastest(&s.run_s[e]))
            });
        ratio(work, secs)
    };
    let mut sorted = col.op_ms.clone();
    for v in &mut sorted {
        v.sort_by(f64::total_cmp);
    }
    let values = [
        rate(&|s| s.units, 0),
        rate(&|s| s.units, 1),
        rate(&|s| s.steps, 0),
        percentile(&sorted[0], 0.5),
        percentile(&sorted[0], 0.9),
        percentile(&sorted[1], 0.5),
        percentile(&sorted[1], 0.9),
        total(&|s| fastest(&s.setup_s[0]) + fastest(&s.setup_s[1])),
        peak_rss_mb,
        ratio(col.failed as f64, col.attempted as f64),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n.to_string(), v, u))
        .collect()
}

/// Results of the isolated layer probes.
#[derive(Debug, Clone, Copy)]
pub struct LayerProbes {
    /// `mem.ns_per_ref.scattered`.
    pub mem_scattered: f64,
    /// `mem.ns_per_ref.bulk.interleaved`.
    pub mem_bulk_interleaved: f64,
    /// `mem.ns_per_ref.bulk.hashed`.
    pub mem_bulk_hashed: f64,
    /// `net.ns_per_send`.
    pub net_send: f64,
    /// `net.ns_per_route_send`.
    pub net_route_send: f64,
    /// `machine.ns_per_unit.run`.
    pub pipe_run: f64,
    /// `machine.ns_per_unit.units`.
    pub pipe_units: f64,
}

/// Inputs of the per-layer metrics beside the tracer.
pub struct TracedRun<'a> {
    /// The tracer; spans of op ids `< pass_ops` belong to traced passes.
    pub tracer: &'a Tracer,
    /// Op runs recorded by the traced passes (probe runs follow them).
    pub pass_ops: usize,
    /// Wall seconds of each traced pass.
    pub traced_wall: &'a [f64],
    /// Wall seconds of each untraced pass.
    pub plain_wall: &'a [f64],
    /// Observability probe.
    pub obs: ObsProbe,
    /// Layer probes.
    pub probes: LayerProbes,
    /// `host.calib_s`.
    pub calib_s: f64,
}

/// The per-layer metrics of a traced run, per pass of the op list. Times
/// cover both engines; counts are those of one engine (`par:2` repeats
/// them exactly).
pub fn per_layer(run: &TracedRun) -> Vec<Metric> {
    let tr = run.tracer;
    let k = run.traced_wall.len().max(1) as f64;
    let c = &tr.counts;
    let spans = tr.time_by_name(run.pass_ops);
    let t = |name: &str| spans.get(name).map_or(0.0, |v| v.0) / k;
    let step = |class: &str| t(&format!("core.step.{class}"));
    let mut self_s: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, (_, s)) in &spans {
        *self_s
            .entry(name.split('.').next().unwrap_or(name))
            .or_default() += s / k;
    }
    let layer_self = |l: &str| self_s.get(l).copied().unwrap_or(0.0);
    let step_us = tr.step_us_sorted(run.pass_ops);
    let by_place = tr.step_time_by_placement(run.pass_ops);
    let place_step = |p: &str| {
        by_place
            .iter()
            .filter(|((pl, _), _)| *pl == p)
            .map(|(_, s)| s)
            .sum::<f64>()
            / k
    };
    let row = |p: &str| c.placement.get(p).cloned().unwrap_or_default();
    let n = |v: u64| v as f64 / k;
    let module_total: u64 = c.module_load.iter().sum();
    let module_max = c.module_load.iter().copied().max().unwrap_or(0);
    let workers: u64 = c.worker_lanes.iter().sum();
    let worker_max = c.worker_lanes.iter().copied().max().unwrap_or(0);
    let mut m: Vec<Metric> = vec![
        ("lang.compile_s".into(), t("lang.compile"), "s"),
        ("lang.programs".into(), n(c.lang_programs), "count"),
        ("lang.instrs_emitted".into(), n(c.lang_instrs), "count"),
        ("isa.build_s".into(), t("isa.build"), "s"),
        ("core.new_s".into(), t("core.new"), "s"),
        ("core.poke_s".into(), t("core.poke"), "s"),
        (
            "core.step_s".into(),
            step("compressed") + step("per_lane") + step("flowwise"),
            "s",
        ),
        ("core.step_s.compressed".into(), step("compressed"), "s"),
        ("core.step_s.per_lane".into(), step("per_lane"), "s"),
        ("core.step_s.flowwise".into(), step("flowwise"), "s"),
        ("core.step_us.p50".into(), percentile(&step_us, 0.5), "us"),
        ("core.step_us.p99".into(), percentile(&step_us, 0.99), "us"),
        ("core.steps".into(), n(c.core_steps), "count"),
        ("core.units".into(), n(c.core_units), "count"),
        ("core.slices".into(), n(c.slices), "count"),
        (
            "core.slices_compressed".into(),
            n(c.slices_compressed),
            "count",
        ),
        ("core.slices_per_lane".into(), n(c.slices_per_lane), "count"),
        (
            "core.compressed_ratio".into(),
            ratio(c.slices_compressed as f64, c.slices as f64),
            "ratio",
        ),
        ("core.mask_hits".into(), n(c.mask_hits), "count"),
        ("core.mask_misses".into(), n(c.mask_misses), "count"),
        ("core.coalesce_hits".into(), n(c.coalesce_hits), "count"),
        ("core.coalesce_misses".into(), n(c.coalesce_misses), "count"),
        ("core.decay_total".into(), n(c.decay.iter().sum()), "count"),
    ];
    for (reason, &v) in DECAY_REASONS.iter().zip(&c.decay) {
        m.push((format!("core.decay.{reason}"), n(v), "count"));
    }
    let fast_ratio = |f: u64, e: u64| ratio(f as f64, (f + e) as f64);
    m.extend([
        (
            "core.live_flows.max".into(),
            c.live_flows_max as f64,
            "count",
        ),
        (
            "core.worker_share.max".into(),
            ratio(worker_max as f64, workers as f64),
            "ratio",
        ),
        ("core.step_s.hashed".into(), place_step("hashed"), "s"),
        (
            "core.step_s.interleaved".into(),
            place_step("interleaved"),
            "s",
        ),
        (
            "core.slices_per_lane.hashed".into(),
            n(row("hashed").slices_per_lane),
            "count",
        ),
        (
            "core.slices_per_lane.interleaved".into(),
            n(row("interleaved").slices_per_lane),
            "count",
        ),
        ("mem.refs".into(), n(c.mem_refs), "count"),
        ("mem.combined".into(), n(c.mem_combined), "count"),
        ("mem.hot_addrs".into(), n(c.mem_hot_addrs), "count"),
        ("mem.bulk_fast".into(), n(c.bulk_fast), "count"),
        ("mem.bulk_expanded".into(), n(c.bulk_expanded), "count"),
        (
            "mem.bulk_expanded_lanes".into(),
            n(c.bulk_expanded_lanes),
            "count",
        ),
        (
            "mem.bulk_fast_ratio".into(),
            fast_ratio(c.bulk_fast, c.bulk_expanded),
            "ratio",
        ),
        (
            "mem.bulk_fast_ratio.hashed".into(),
            fast_ratio(row("hashed").bulk_fast, row("hashed").bulk_expanded),
            "ratio",
        ),
        (
            "mem.bulk_fast_ratio.interleaved".into(),
            fast_ratio(
                row("interleaved").bulk_fast,
                row("interleaved").bulk_expanded,
            ),
            "ratio",
        ),
        (
            "mem.module_load.max_over_mean".into(),
            ratio(
                module_max as f64 * c.module_load.len() as f64,
                module_total as f64,
            ),
            "ratio",
        ),
        (
            "mem.ns_per_ref.scattered".into(),
            run.probes.mem_scattered,
            "ns",
        ),
        (
            "mem.ns_per_ref.bulk.interleaved".into(),
            run.probes.mem_bulk_interleaved,
            "ns",
        ),
        (
            "mem.ns_per_ref.bulk.hashed".into(),
            run.probes.mem_bulk_hashed,
            "ns",
        ),
        ("net.messages".into(), n(c.net_messages), "count"),
        ("net.route_sends".into(), n(c.net_route_sends), "count"),
        ("net.hops".into(), n(c.net_hops), "count"),
        ("net.queue_cycles".into(), n(c.net_queue_cycles), "cycles"),
        (
            "net.queue_p95_cycles".into(),
            c.net_queue.p95() as f64,
            "cycles",
        ),
        ("net.ns_per_send".into(), run.probes.net_send, "ns"),
        (
            "net.ns_per_route_send".into(),
            run.probes.net_route_send,
            "ns",
        ),
        ("machine.cycles".into(), n(c.cycles), "cycles"),
        (
            "machine.utilization".into(),
            ratio(c.core_units as f64, c.issue_slots as f64),
            "ratio",
        ),
        ("machine.fetches".into(), n(c.fetches), "count"),
        ("machine.bubbles".into(), n(c.bubbles), "count"),
        (
            "machine.overhead_cycles".into(),
            n(c.overhead_cycles),
            "cycles",
        ),
        (
            "machine.roundtrip_p95_cycles".into(),
            c.roundtrip.p95() as f64,
            "cycles",
        ),
        ("machine.ns_per_unit.run".into(), run.probes.pipe_run, "ns"),
        (
            "machine.ns_per_unit.units".into(),
            run.probes.pipe_units,
            "ns",
        ),
        ("pram.run_s".into(), t("pram.run"), "s"),
        ("pram.steps".into(), n(c.pram_steps), "count"),
        ("obs.export_s".into(), run.obs.export_s, "s"),
        ("obs.stream_drain_s".into(), run.obs.stream_drain_s, "s"),
        (
            "obs.record_overhead".into(),
            run.obs.record_overhead,
            "ratio",
        ),
        (
            "obs.stream_overhead".into(),
            run.obs.stream_overhead,
            "ratio",
        ),
        (
            "bench.trace_overhead".into(),
            ratio(median(run.traced_wall), median(run.plain_wall)),
            "ratio",
        ),
        ("host.calib_s".into(), run.calib_s, "s"),
    ]);
    for layer in ["bench", "lang", "isa", "core", "pram"] {
        m.push((format!("{layer}.self_s"), layer_self(layer), "s"));
    }
    m
}

/// The traced run's table of step self time and compression counters per
/// placement and engine, per pass.
pub fn placement_table(run: &TracedRun) -> String {
    let tr = run.tracer;
    let k = run.traced_wall.len().max(1) as f64;
    let mut out = format!(
        "{:<12} {:<5} {:>10} {:>9} {:>9} {:>15} {:>15} {:>11} {:>11}\n",
        "placement",
        "eng",
        "step_s",
        "steps",
        "slices",
        "slices_per_lane",
        "bulk_fast_ratio",
        "mem_refs",
        "net_msgs"
    );
    for ((place, engine), secs) in tr.step_time_by_placement(run.pass_ops) {
        let r = tr.counts.placement.get(place).cloned().unwrap_or_default();
        let _ = writeln!(
            out,
            "{:<12} {:<5} {:>10.4} {:>9.0} {:>9.0} {:>15.0} {:>15.3} {:>11.0} {:>11.0}",
            place,
            engine,
            secs / k,
            r.steps as f64 / k,
            r.slices as f64 / k,
            r.slices_per_lane as f64 / k,
            ratio(r.bulk_fast as f64, (r.bulk_fast + r.bulk_expanded) as f64),
            r.mem_refs as f64 / k,
            r.messages as f64 / k,
        );
    }
    out
}

/// `v` as a JSON number: non-finite values become 0 and `-0` becomes 0.
pub fn json_number(v: f64) -> f64 {
    if v.is_finite() {
        v + 0.0
    } else {
        0.0
    }
}

/// The last line of a run: `correct`, `attempted`, `failed` and the
/// metrics, as one JSON object.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let v = json_number(*v);
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}
