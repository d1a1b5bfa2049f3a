//! The benchmark's own self-tests: metric names and units follow the
//! grammar and match `BENCHMARK.json`, and every op of every workload
//! checks out at a small size on both engines, traced and untraced.

use std::collections::BTreeSet;

use tcf_core::Engine;
use tcf_perfbench::ops;
use tcf_perfbench::probes::ObsProbe;
use tcf_perfbench::report::{self, LayerProbes, TracedRun, END_TO_END, GATED};
use tcf_perfbench::trace::Tracer;
use tcf_perfbench::workloads::{self, Scale, WORKLOADS};
use tcf_perfbench::{engines, pinned, Collector};

/// Whether `name` is a valid metric name: a letter or digit, then at most
/// 63 letters, digits, `_`, `.` and `-`.
fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// `(name, unit)` of every metric listed under `key` in `BENCHMARK.json`.
fn listed(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let start = text.find(&format!("\"{key}\"")).expect("key present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list closes")];
    let field = |obj: &str, f: &str| -> String {
        let at = obj.find(&format!("\"{f}\"")).expect("field present") + f.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("string closes");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn assert_grammar(metrics: &[(String, String)]) {
    let mut seen = BTreeSet::new();
    for (name, unit) in metrics {
        assert!(valid_name(name), "bad metric name {name:?}");
        assert!(valid_unit(unit), "bad unit {unit:?} of {name}");
        assert!(seen.insert(name.clone()), "duplicate metric {name}");
    }
}

#[test]
fn metric_names_follow_the_grammar_and_match_the_benchmark_file() {
    assert!(valid_name("op_ms.p90.seq"));
    assert!(!valid_name(".leading_dot"));
    assert!(!valid_name("has space"));
    assert!(!valid_name(&"x".repeat(65)));
    assert!(valid_unit("1/s"));
    assert!(!valid_unit(""));

    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_grammar(&e2e);
    let gated: Vec<(String, String)> = e2e
        .into_iter()
        .filter(|(n, _)| GATED.contains(&n.as_str()))
        .collect();
    assert_eq!(gated.len(), GATED.len());
    assert_eq!(gated, listed("end_to_end"));

    let tracer = Tracer::new();
    let run = TracedRun {
        tracer: &tracer,
        pass_ops: 0,
        traced_wall: &[1.0],
        plain_wall: &[1.0],
        obs: ObsProbe {
            export_s: 0.0,
            stream_drain_s: 0.0,
            record_overhead: 1.0,
            stream_overhead: 1.0,
        },
        probes: LayerProbes {
            mem_scattered: 0.0,
            mem_bulk_interleaved: 0.0,
            mem_bulk_hashed: 0.0,
            net_send: 0.0,
            net_route_send: 0.0,
            pipe_run: 0.0,
            pipe_units: 0.0,
        },
        calib_s: 0.0,
    };
    let per_layer: Vec<(String, String)> = report::per_layer(&run)
        .into_iter()
        .map(|(n, _, u)| (n, u.to_string()))
        .collect();
    assert_grammar(&per_layer);
    assert_eq!(per_layer, listed("per_layer"));
}

#[test]
fn every_op_checks_out_at_a_small_size_on_both_engines() {
    for w in WORKLOADS {
        let op_list = workloads::ops(w, 5, Scale::Small).expect("known workload");
        let mut col = Collector::new(None);
        let mut tr = Tracer::new();
        col.pass(&op_list, None);
        col.pass(&op_list, Some(&mut tr));
        assert_eq!(col.failed, 0, "{w}: {:#?}", col.failures);
        let runs: usize = op_list.iter().map(|op| engines(op).len()).sum();
        assert_eq!(col.attempted, 2 * runs as u64);
        let par_runs = op_list.iter().filter(|op| engines(op).len() > 1).count();
        assert_eq!(col.op_ms[1].len(), 2 * par_runs, "{w}: par:2 samples");
        assert!(tr.spans.iter().any(|s| s.name.starts_with("core.step")));
        col.set_up(&op_list, 1);
        for (op, s) in op_list.iter().zip(&col.samples) {
            for e in engines(op) {
                assert_eq!(s.setup_s[e].len(), 1, "{w}: {} sets up", op.name);
            }
        }
        let obs = workloads::obs_op(w, 5).expect("obs op");
        assert!(
            ops::load_tcf(&obs, Engine::Sequential).is_ok(),
            "{w} obs op loads"
        );
    }
}

#[test]
fn pinned_digests_cover_the_seed_independent_ops_and_do_not_depend_on_the_seed() {
    for w in WORKLOADS {
        let pins = pinned(w);
        for op in workloads::ops(w, 1, Scale::Full).expect("known workload") {
            assert_eq!(
                pins.contains_key(&op.name),
                !op.seeded_stats,
                "{w}: pinned entry of {}",
                op.name
            );
        }
        let a = workloads::ops(w, 1, Scale::Small).expect("known workload");
        let b = workloads::ops(w, 2, Scale::Small).expect("known workload");
        for (x, y) in a.iter().zip(&b).filter(|(x, _)| !x.seeded_stats) {
            let dx = ops::run(x, Engine::Sequential, None).digest;
            let dy = ops::run(y, Engine::Sequential, None).digest;
            assert_eq!(dx, dy, "{w}: {} depends on the seed", x.name);
        }
    }
}
