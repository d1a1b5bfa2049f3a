//! Host-side scaling of the deterministic parallel engine: the same
//! paper-scale thick workload simulated sequentially and under
//! `par:{2,4,8}` workers. The engine is bit-deterministic at every worker
//! count, so this bench measures pure wall-clock scaling.
//!
//! The speedup is host-dependent: on a multi-core host the fragment
//! shards run concurrently (the workload below fans a ~4096-thick flow
//! over 16 groups); on a single-hardware-thread host the
//! pool degenerates to the coordinator draining its own queue and the
//! numbers show engine overhead instead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use tcf_bench::{paper_config, workloads};
use tcf_core::{Engine, Variant};

fn run_once(engine: Engine, size: usize) -> u64 {
    let config = paper_config();
    let mut m = workloads::tcf_machine(
        &config,
        Variant::SingleInstruction,
        workloads::tcf_vector_add(size),
    );
    m.set_engine(engine);
    workloads::init_arrays_tcf(&mut m, size);
    let s = m.run(10_000_000).unwrap();
    workloads::check_vector_add(|a| m.peek(a).unwrap(), size);
    s.cycles
}

fn bench_engines(c: &mut Criterion) {
    let size = 4096;
    let seq_cycles = run_once(Engine::Sequential, size);
    println!("== Parallel engine scaling (thick vector add, size {size}) ==");
    println!(
        "  host parallelism: {}",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    for engine in [
        Engine::Sequential,
        Engine::Parallel { workers: 2 },
        Engine::Parallel { workers: 4 },
        Engine::Parallel { workers: 8 },
    ] {
        // Determinism spot-check alongside the timing: identical
        // simulated cycles at every worker count.
        assert_eq!(run_once(engine, size), seq_cycles);
    }
    println!("  simulated cycles identical across engines: {seq_cycles}");

    let mut g = c.benchmark_group("par_engine");
    g.sample_size(10);
    for (name, engine) in [
        ("seq", Engine::Sequential),
        ("par2", Engine::Parallel { workers: 2 }),
        ("par4", Engine::Parallel { workers: 4 }),
        ("par8", Engine::Parallel { workers: 8 }),
    ] {
        g.bench_with_input(
            BenchmarkId::new("vector_add_4096", name),
            &engine,
            |b, &e| b.iter(|| black_box(run_once(e, size))),
        );
    }
    g.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
