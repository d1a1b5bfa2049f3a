//! `tcf-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for about `--seconds` seconds (at least enough passes
//! for 100 op samples per engine) and prints every metric by name and
//! unit; the last line of standard output is the JSON result. With
//! `--trace 0` the metrics are the end-to-end ones, measured untraced.
//! With `--trace 1` untraced and traced passes alternate, the layer and
//! observability probes run, the per-layer metrics are printed and the
//! spans are written to `.perfbench_out/trace-<workload>.json`.
//!
//! `--workload all` runs the three workloads one after another, each in a
//! child process of its own (so each reports its own peak memory).
//!
//! `--pin` instead prints the digest of every op whose simulated
//! statistics do not depend on the seed, in the format of
//! `pinned/<workload>.txt`.

use std::process::ExitCode;
use std::time::Instant;

use tcf_core::Engine;
use tcf_mem::ModuleMap;
use tcf_perfbench::ops::{self, Outcome};
use tcf_perfbench::report::{self, LayerProbes, TracedRun};
use tcf_perfbench::trace::Tracer;
use tcf_perfbench::workloads::{self, Scale};
use tcf_perfbench::{min_passes, peak_rss_mb, pinned, probes, Collector, SETUP_ROUNDS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    pin: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut pin) =
        (None, None, None, false, false);
    while let Some(a) = args.next() {
        let mut value = || args.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--pin" => pin = true,
            _ => return Err(format!("unknown argument {a}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace,
        pin,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tcf-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(op_list) = workloads::ops(&args.workload, args.seed, Scale::Full) else {
        eprintln!(
            "tcf-perfbench: unknown workload {} (one of {}, or all)",
            args.workload,
            workloads::WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    if args.pin {
        for op in op_list.iter().filter(|op| !op.seeded_stats) {
            match ops::run(op, Engine::Sequential, None) {
                Outcome {
                    digest: Some(d),
                    error: None,
                    ..
                } => println!("{}: {d}", op.name),
                out => {
                    eprintln!("tcf-perfbench: {} failed: {:?}", op.name, out.error);
                    return ExitCode::FAILURE;
                }
            }
        }
        return ExitCode::SUCCESS;
    }
    match run(&args, &op_list) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tcf-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload in turn as a child process with the same options,
/// waiting for each.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("tcf-perfbench: locating this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in workloads::WORKLOADS {
        let (seed, seconds) = (args.seed.to_string(), args.seconds.to_string());
        let trace = if args.trace { "1" } else { "0" };
        let mut cmd = std::process::Command::new(&exe);
        cmd.args([
            "--workload",
            w,
            "--seed",
            &seed,
            "--seconds",
            &seconds,
            "--trace",
            trace,
        ]);
        if args.pin {
            cmd.arg("--pin");
        }
        match cmd.status() {
            Ok(status) => ok &= status.success(),
            Err(e) => {
                eprintln!("tcf-perfbench: running {w}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run(args: &Args, op_list: &[ops::Op]) -> Result<(), String> {
    let pinned = pinned(&args.workload);
    let calib_s = probes::calibrate();
    let mut col = Collector::new(Some(&pinned));
    let min_passes = min_passes(op_list);
    let start = Instant::now();
    // Another round (one pass, or an untraced and a traced pass) runs
    // while the run lacks its minimum samples, or while it is expected to
    // end, on the mean round time so far, before the time is up.
    let more = |col: &Collector, passes_per_round: usize| {
        let done = col.passes.len() / passes_per_round;
        if done == 0 || (!args.trace && done < min_passes) {
            return true;
        }
        let elapsed = start.elapsed().as_secs_f64();
        elapsed + elapsed / done as f64 / 2.0 < args.seconds
    };
    let metrics = if !args.trace {
        col.set_up(op_list, SETUP_ROUNDS);
        while more(&col, 1) {
            col.pass(op_list, None);
        }
        let metrics = report::end_to_end(&col, peak_rss_mb());
        print_metrics(&metrics);
        metrics
            .into_iter()
            .filter(|(name, _, _)| report::GATED.contains(&name.as_str()))
            .collect()
    } else {
        let mut tr = Tracer::new();
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        while more(&col, 2) {
            plain.push(col.pass(op_list, None));
            traced.push(col.pass(op_list, Some(&mut tr)));
        }
        let pass_ops = tr.ops.len();
        let obs_op =
            workloads::obs_op(&args.workload, args.seed).expect("every workload has an obs op");
        let obs = probes::obs_probe(&obs_op, &mut tr);
        let paper_map = tcf_bench::paper_config().module_map;
        let layer_probes = LayerProbes {
            mem_scattered: probes::mem_scattered(args.seed),
            mem_bulk_interleaved: probes::mem_bulk(args.seed, ModuleMap::Interleaved),
            mem_bulk_hashed: probes::mem_bulk(args.seed, paper_map),
            net_send: probes::net_send(args.seed),
            net_route_send: probes::net_route_send(args.seed),
            pipe_run: probes::machine_pipeline(args.seed, true),
            pipe_units: probes::machine_pipeline(args.seed, false),
        };
        let traced_run = TracedRun {
            tracer: &tr,
            pass_ops,
            traced_wall: &traced,
            plain_wall: &plain,
            obs,
            probes: layer_probes,
            calib_s,
        };
        let metrics = report::per_layer(&traced_run);
        let table = report::placement_table(&traced_run);
        print_metrics(&metrics);
        print!("{table}");
        let dir = std::path::Path::new(".perfbench_out");
        let path = dir.join(format!("trace-{}.json", args.workload));
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, tr.to_json(&metrics, &table)))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spans: {} written to {}", tr.spans.len(), path.display());
        metrics
    };
    println!(
        "workload={} seed={} passes={} ops={} engines=seq,par2 host.calib_s={calib_s} wall_s={:.3}",
        args.workload,
        args.seed,
        col.passes.len(),
        op_list.len(),
        start.elapsed().as_secs_f64()
    );
    for f in &col.failures {
        eprintln!("FAILED {f}");
    }
    println!(
        "{}",
        report::result_line(col.failed == 0, col.attempted, col.failed, &metrics)
    );
    Ok(())
}

fn print_metrics(metrics: &[report::Metric]) {
    for (name, v, unit) in metrics {
        println!("{name:<34} {v:>16.6} {unit}");
    }
}
