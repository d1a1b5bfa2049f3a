//! The three workloads: op lists with seeded inputs and host references.
//!
//! * `paper_programs` — the §4 pairs P1–P8 and the Table 1 fetch,
//!   task-switch and flow-branch programs, compiled from tce on every op:
//!   the runs users do (`repro progs`, `repro table1`). SPMD unit flows,
//!   NUMA bunches, async spawn, task switching, fetch/classify and
//!   per-message timing do the work; compression does little.
//! * `thick_compressed` — the divergent moving-cut recurrence in each
//!   variant's idiom plus affine thick loops, at 10^5–10^7 lanes, every
//!   op under both hashed and interleaved placement. Under interleaving
//!   the compressed layer does almost everything; under hashing the same
//!   programs fall back to per-message work.
//! * `irregular_lanes` — Wyllie list ranking over seeded random lists and
//!   a branchy parity recurrence: data-dependent gathers and decayed
//!   lanes, so the per-lane kernels and per-lane shared-memory resolution
//!   do the work.

use tcf_bench::hotpath;
use tcf_bench::workloads::{self as src, A_BASE, B_BASE, C_BASE};
use tcf_core::{Allocation, Variant};
use tcf_isa::asm::assemble;
use tcf_isa::program::Program;
use tcf_isa::word::Word;
use tcf_machine::MachineConfig;
use tcf_mem::ModuleMap;

use crate::ops::{End, Op, Source, Target};
use crate::rng::Rng;

/// Every workload name, in report order.
pub const WORKLOADS: [&str; 3] = ["paper_programs", "thick_compressed", "irregular_lanes"];

/// Problem sizes: `Full` for the benchmark, `Small` for the self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes.
    Full,
    /// Reduced sizes that check every op quickly.
    Small,
}

/// The op list of `workload` with inputs drawn from `seed`, or `None` for
/// an unknown workload.
pub fn ops(workload: &str, seed: u64, scale: Scale) -> Option<Vec<Op>> {
    let mut b = Builder {
        seed,
        ops: Vec::new(),
    };
    match workload {
        "paper_programs" => paper_programs(&mut b, scale),
        "thick_compressed" => thick_compressed(&mut b, scale),
        "irregular_lanes" => irregular_lanes(&mut b, scale),
        _ => return None,
    }
    Some(b.ops)
}

/// A small op of `workload` run by the observability probe (recording
/// expands every issue unit, so the probe stays small).
pub fn obs_op(workload: &str, seed: u64) -> Option<Op> {
    let mut b = Builder {
        seed,
        ops: Vec::new(),
    };
    match workload {
        "paper_programs" => vector_add(&mut b, "obs.p1.tcf", 1024, si(), paper(), false),
        "thick_compressed" => divergent(
            &mut b,
            "obs.divergent.si",
            4096,
            si(),
            interleaved(),
            Scale::Full,
        ),
        "irregular_lanes" => list_rank(&mut b, 1 << 10, 0),
        _ => return None,
    }
    b.ops.pop()
}

struct Builder {
    seed: u64,
    ops: Vec<Op>,
}

impl Builder {
    /// The input generator of the next op: one stream per op, so an op's
    /// inputs do not depend on the ops listed before it.
    fn rng(&self) -> Rng {
        Rng::new(self.seed, self.ops.len() as u64)
    }
}

fn paper() -> MachineConfig {
    tcf_bench::paper_config()
}

fn interleaved() -> MachineConfig {
    MachineConfig {
        module_map: ModuleMap::Interleaved,
        ..paper()
    }
}

fn tcf(variant: Variant) -> Target {
    Target::Tcf {
        variant,
        allocation: None,
    }
}

fn si() -> Target {
    tcf(Variant::SingleInstruction)
}

fn so() -> Target {
    tcf(Variant::SingleOperation)
}

/// An op with no inputs or expectations that runs to halt.
fn op(
    name: String,
    source: Source,
    build: impl Fn() -> Program + 'static,
    target: Target,
    config: MachineConfig,
) -> Op {
    Op {
        name,
        source,
        build: Box::new(build),
        target,
        config,
        pokes: Vec::new(),
        tasks: Vec::new(),
        end: End::Halt,
        expect: Vec::new(),
        oracle: false,
        seeded_stats: false,
    }
}

fn add(a: &[Word], b: &[Word]) -> Vec<Word> {
    a.iter().zip(b).map(|(x, y)| x.wrapping_add(*y)).collect()
}

/// Vector add `c = a + b` over `n` seeded elements, compiled from the
/// tce form that suits `target` (the TCF form on the thick variants, the
/// §4 loop or guard on the thread variants). `oracle` re-runs the thread
/// form on the `tcf-pram` baseline.
fn vector_add(
    b: &mut Builder,
    name: &str,
    n: usize,
    target: Target,
    config: MachineConfig,
    oracle: bool,
) {
    let threads = config.total_threads();
    let build: Box<dyn Fn() -> Program> = match target {
        Target::Tcf {
            variant: Variant::SingleOperation | Variant::ConfigurableSingleOperation,
            ..
        }
        | Target::Pram => {
            if n < threads {
                Box::new(move || src::guard_vector_add(n))
            } else {
                Box::new(move || src::loop_vector_add(n))
            }
        }
        Target::Tcf {
            variant: Variant::MultiInstruction,
            ..
        } => Box::new(move || fork_vector_add(n)),
        Target::Tcf {
            variant: Variant::FixedThickness { width },
            ..
        } => Box::new(move || chunked_vector_add(n, width)),
        Target::Tcf { .. } => Box::new(move || src::tcf_vector_add(n)),
    };
    let mut rng = b.rng();
    let (xa, xb) = (rng.words(n, 1000), rng.words(n, 1000));
    let c = add(&xa, &xb);
    b.ops.push(Op {
        pokes: vec![(A_BASE, xa), (B_BASE, xb)],
        expect: vec![(C_BASE, c)],
        oracle,
        ..op(format!("{name}.{n}"), Source::Tce, build, target, config)
    });
}

/// Table 1's Multi-instruction vector add: one forked thread per element.
fn fork_vector_add(n: usize) -> Program {
    tcf_lang::compile(&format!(
        "shared int a[{n}] @ {A_BASE};
         shared int b[{n}] @ {B_BASE};
         shared int c[{n}] @ {C_BASE};
         void main() {{
             fork (i = 0; i < {n}) {{
                 c[i] = a[i] + b[i];
             }}
         }}"
    ))
    .expect("fork vector add compiles")
}

/// Table 1's Fixed-thickness vector add: the width-`w` vector flow loops
/// over `n / w` chunks.
fn chunked_vector_add(n: usize, w: usize) -> Program {
    tcf_lang::compile(&format!(
        "shared int a[{n}] @ {A_BASE};
         shared int b[{n}] @ {B_BASE};
         shared int c[{n}] @ {C_BASE};
         void main() {{
             int chunk = 0;
             while (chunk < {n}) {{
                 c[. + chunk] = a[. + chunk] + b[. + chunk];
                 chunk = chunk + {w};
             }}
         }}"
    ))
    .expect("chunked vector add compiles")
}

fn paper_programs(b: &mut Builder, scale: Scale) {
    let cfg = paper();
    let pt = cfg.total_threads();
    let tp = cfg.threads_per_group;
    let mults: &[usize] = match scale {
        Scale::Full => &[1, 2, 4],
        Scale::Small => &[1],
    };
    // P1: more elements than threads, the §4 loop against `#size`.
    for &k in mults {
        vector_add(b, "p1.loop", k * pt, so(), cfg.clone(), true);
        vector_add(b, "p1.tcf", k * pt, si(), cfg.clone(), false);
    }
    // P2: fewer elements than threads, the guard against `#size`.
    for n in [16, pt / 2] {
        vector_add(b, "p2.guard", n, so(), cfg.clone(), true);
        vector_add(b, "p2.tcf", n, si(), cfg.clone(), false);
    }
    // P3: a sequential section on one thread against NUMA bunches.
    let iters = 300;
    let acc = vec![(70, vec![iters as Word])];
    b.ops.push(Op {
        expect: acc.clone(),
        oracle: true,
        ..op(
            "p3.plain".into(),
            Source::Tce,
            move || src::plain_seq(iters),
            so(),
            cfg.clone(),
        )
    });
    for bunch in [4, 16, tp] {
        b.ops.push(Op {
            expect: acc.clone(),
            ..op(
                format!("p3.numa.{bunch}"),
                Source::Tce,
                move || src::tcf_numa_seq(iters, bunch),
                si(),
                cfg.clone(),
            )
        });
    }
    // The paired forms below: (name, target, program source, whether the
    // baseline oracle re-runs it).
    type Form = (&'static str, Target, fn(usize) -> Program, bool);
    // P4: the one-way conditional over arrays of P·T_p elements; the
    // upper half of `c` stays zero.
    let p4: [Form; 2] = [
        ("p4.guard", so(), src::guard_vector_add, true),
        ("p4.tcf", si(), src::tcf_vector_add, false),
    ];
    for (name, target, build, oracle) in p4 {
        let half = pt / 2;
        let mut rng = b.rng();
        let (xa, xb) = (rng.words(pt, 1000), rng.words(pt, 1000));
        let mut c = add(&xa[..half], &xb[..half]);
        c.resize(pt, 0);
        b.ops.push(Op {
            pokes: vec![(A_BASE, xa), (B_BASE, xb)],
            expect: vec![(C_BASE, c)],
            oracle,
            ..op(
                name.into(),
                Source::Tce,
                move || build(half),
                target,
                cfg.clone(),
            )
        });
    }
    // P5: the two-way conditional, `parallel {}` against masked SIMD
    // passes at the machine's vector width.
    let p5: [Form; 2] = [
        (
            "p5.masked",
            tcf(Variant::FixedThickness { width: tp }),
            src::masked_two_way,
            false,
        ),
        ("p5.parallel", si(), src::tcf_two_way, false),
    ];
    for (name, target, build, oracle) in p5 {
        let mut rng = b.rng();
        let (xa, xb) = (rng.words(tp, 1000), rng.words(tp, 1000));
        let mut c = add(&xa[..tp / 2], &xb[..tp / 2]);
        c.resize(tp, 0);
        b.ops.push(Op {
            pokes: vec![(A_BASE, xa), (B_BASE, xb)],
            expect: vec![(C_BASE, c)],
            oracle,
            ..op(
                name.into(),
                Source::Tce,
                move || build(tp),
                target,
                cfg.clone(),
            )
        });
    }
    // P6: multiprefix, the §4 loop against thick `prefix()`, seeded with
    // a random initial sum.
    let sizes: &[usize] = match scale {
        Scale::Full => &[pt, 8 * pt],
        Scale::Small => &[pt],
    };
    let p6: [Form; 2] = [
        ("p6.loop", so(), src::loop_prefix, true),
        ("p6.tcf", si(), src::tcf_prefix, false),
    ];
    for &n in sizes {
        for (name, target, build, oracle) in p6 {
            let init = b.rng().words(1, 1 << 20)[0];
            let out: Vec<Word> = (0..n as Word).map(|i| init + i * (i + 1) / 2).collect();
            let total = init + (n * (n + 1) / 2) as Word;
            b.ops.push(Op {
                pokes: vec![(64, vec![init])],
                expect: vec![(64, vec![total]), (C_BASE, out)],
                oracle,
                ..op(
                    format!("{name}.{n}"),
                    Source::Tce,
                    move || build(n),
                    target,
                    cfg.clone(),
                )
            });
        }
    }
    // P7: the dependent loop (Hillis–Steele scan) as a masked thread loop,
    // per-level forks and the thickness form.
    let p7: [Form; 3] = [
        ("p7.loop", so(), src::loop_scan, true),
        (
            "p7.fork",
            tcf(Variant::MultiInstruction),
            src::fork_scan,
            false,
        ),
        ("p7.tcf", si(), src::tcf_scan, false),
    ];
    for (name, target, build, oracle) in p7 {
        let xs = b.rng().words(pt, 1000);
        let scan: Vec<Word> = xs
            .iter()
            .scan(0 as Word, |s, &x| {
                *s = s.wrapping_add(x);
                Some(*s)
            })
            .collect();
        b.ops.push(Op {
            pokes: vec![(A_BASE, xs)],
            expect: vec![(A_BASE, scan)],
            oracle,
            ..op(
                name.into(),
                Source::Tce,
                move || build(pt),
                target,
                cfg.clone(),
            )
        });
    }
    // P8: tasks as TCFs with a seeded thickness mix, the ESM software
    // context switch, and horizontal against vertical allocation.
    let mut rng = b.rng();
    let tasks: Vec<usize> = (0..8).map(|_| [1, 2, 4, 8, 16][rng.below(5)]).collect();
    b.ops.push(Op {
        tasks,
        seeded_stats: true,
        ..op(
            "p8.tasks".into(),
            Source::Isa,
            || src::task_program(100),
            si(),
            cfg.clone(),
        )
    });
    let (regs, save) = (cfg.regs_per_thread, cfg.shared_size / 2);
    b.ops.push(op(
        "p8.context_switch".into(),
        Source::Isa,
        move || src::context_switch_program(regs, save),
        Target::Pram,
        cfg.clone(),
    ));
    for (name, alloc) in [
        ("p8.horizontal", Allocation::Horizontal),
        ("p8.vertical", Allocation::Vertical),
    ] {
        let target = Target::Tcf {
            variant: Variant::SingleInstruction,
            allocation: Some(alloc),
        };
        vector_add(b, name, 4 * pt, target, cfg.clone(), false);
    }
    // Table 1, fetches per element: the vector add on the remaining
    // variants in each one's idiom.
    let n = 4 * pt;
    vector_add(
        b,
        "t1.fetch.balanced",
        n,
        tcf(Variant::Balanced { bound: 8 }),
        cfg.clone(),
        false,
    );
    vector_add(
        b,
        "t1.fetch.multi",
        n,
        tcf(Variant::MultiInstruction),
        cfg.clone(),
        false,
    );
    vector_add(
        b,
        "t1.fetch.config",
        n,
        tcf(Variant::ConfigurableSingleOperation),
        cfg.clone(),
        true,
    );
    vector_add(
        b,
        "t1.fetch.fixed",
        n,
        tcf(Variant::FixedThickness { width: tp }),
        cfg.clone(),
        false,
    );
    // Table 1, task switch: resident tasks against a thrashing 2-slot
    // TCF buffer.
    let resident = (cfg.tcf_buffer_slots / 2).max(2);
    let thrash = MachineConfig {
        tcf_buffer_slots: 2,
        ..cfg.clone()
    };
    for (name, ntasks, c) in [
        ("t1.switch.resident", resident, cfg.clone()),
        ("t1.switch.thrash", 8, thrash),
    ] {
        b.ops.push(Op {
            tasks: vec![1; ntasks],
            ..op(name.into(), Source::Isa, || src::task_program(50), si(), c)
        });
    }
    // Table 1, flow branch: `split` to one child and join, against a
    // conditional branch on the thread machine.
    b.ops.push(op(
        "t1.branch.split".into(),
        Source::Isa,
        || {
            assemble("main:\n split (1 -> child)\n halt\nchild:\n join\n")
                .expect("split program assembles")
        },
        si(),
        cfg.clone(),
    ));
    b.ops.push(op(
        "t1.branch.esm".into(),
        Source::Isa,
        || {
            assemble("main:\n mfs r1, gid\n bnez r1, skip\nskip:\n halt\n")
                .expect("branch program assembles")
        },
        Target::Pram,
        cfg,
    ));
}

/// Host reference of `hotpath::divergent_program(n)`'s shared sum, in
/// closed form. Lane `id` joins at the first iteration `j` whose cut
/// exceeds it (cuts only grow); before that its accumulator doubles from
/// zero and stays zero, after it gains `id` per iteration. So after
/// iteration `i` lane `id` holds `(i - j + 1)·id`, and the sum adds every
/// lane's accumulator once per iteration.
pub fn divergent_sum(n: usize) -> Word {
    const ITERS: usize = 16;
    let (step, base) = ((n / 24 + 7) as i128, (n / 3 + 11) as i128);
    let n = n as i128;
    let ids = |lo: i128, hi: i128| (lo + hi - 1) * (hi - lo) / 2;
    let mut joined = [0i128; ITERS];
    let mut lo = 0;
    for (j, s) in joined.iter_mut().enumerate() {
        let hi = (j as i128 * step + base).min(n);
        if hi > lo {
            *s = ids(lo, hi);
            lo = hi;
        }
    }
    let mut total = 0i128;
    for i in 0..ITERS {
        for (j, s) in joined.iter().enumerate().take(i + 1) {
            total += (i - j + 1) as i128 * s;
        }
    }
    total as Word
}

/// The divergent recurrence on `target`, with a seeded initial value of
/// the shared sum it folds into.
fn divergent(
    b: &mut Builder,
    name: &str,
    n: usize,
    target: Target,
    config: MachineConfig,
    scale: Scale,
) {
    let build: Box<dyn Fn() -> Program> = match target {
        Target::Tcf {
            variant: Variant::MultiInstruction,
            ..
        } => Box::new(move || hotpath::divergent_async_program(n)),
        Target::Tcf {
            variant: Variant::FixedThickness { .. } | Variant::SingleOperation,
            ..
        } => Box::new(move || hotpath::divergent_program_preset(n)),
        _ => Box::new(move || hotpath::divergent_program(n)),
    };
    // The Balanced and async legs keep the hotpath step caps: a full run
    // retires only `bound` (or `T_p`) lanes per group per step. At the
    // self-tests' sizes they run to halt, so their sums are checked too.
    let end = match target {
        _ if scale == Scale::Small => End::Halt,
        Target::Tcf {
            variant: Variant::Balanced { .. },
            ..
        } => End::Cap(4_000),
        Target::Tcf {
            variant: Variant::MultiInstruction,
            ..
        } => End::Cap(2_000),
        _ => End::Halt,
    };
    let init = b.rng().words(1, 1 << 30)[0];
    let expect = match end {
        End::Halt => vec![(64, vec![init.wrapping_add(divergent_sum(n))])],
        End::Cap(_) => Vec::new(),
    };
    let placement = crate::ops::placement(&config);
    b.ops.push(Op {
        pokes: vec![(64, vec![init])],
        expect,
        end,
        ..op(
            format!("{name}.{n}.{placement}"),
            Source::Isa,
            build,
            target,
            config,
        )
    });
}

/// A seeded affine array `base + j·stride` (kept affine so compressed
/// bulk reads stay compressed).
fn affine(rng: &mut Rng, n: usize) -> (Vec<Word>, Word, Word) {
    let base = rng.words(1, 1000)[0];
    let stride = 1 + rng.below(7) as Word;
    (
        (0..n as Word).map(|j| base + j * stride).collect(),
        base,
        stride,
    )
}

/// The affine thick loops of `hotpath` at thickness `n`: `a[.] += .`
/// (thick_pram), a broadcast into a stride-2 sweep, and a lane-id
/// multiprefix.
fn affine_loops(b: &mut Builder, n: usize, config: MachineConfig) {
    let placement = crate::ops::placement(&config);
    let (a, bb, c) = (1 << 17, 1 << 19, 3 << 18);
    let (xs, _, _) = affine(&mut b.rng(), n);
    let want: Vec<Word> = xs
        .iter()
        .enumerate()
        .map(|(j, x)| x + 24 * j as Word)
        .collect();
    b.ops.push(Op {
        pokes: vec![(a, xs)],
        expect: vec![(a, want)],
        ..op(
            format!("thick_pram.{n}.{placement}"),
            Source::Tce,
            move || {
                tcf_lang::compile(&format!(
                    "shared int a[{n}] @ {a};
                     void main() {{
                         #{n};
                         int i = 0;
                         while (i < 24) {{
                             a[.] = a[.] + .;
                             i = i + 1;
                         }}
                     }}"
                ))
                .expect("thick_pram compiles")
            },
            si(),
            config.clone(),
        )
    });
    let (xs, _, _) = affine(&mut b.rng(), 2 * n);
    let swept: Vec<Word> = (0..2 * n)
        .map(|j| if j % 2 == 0 { xs[j] + 120 } else { xs[j] })
        .collect();
    let copied: Vec<Word> = (0..n).map(|j| xs[2 * j] + 120).collect();
    b.ops.push(Op {
        pokes: vec![(a, xs)],
        expect: vec![(a, swept), (bb, copied)],
        ..op(
            format!("broadcast_stride.{n}.{placement}"),
            Source::Tce,
            move || {
                tcf_lang::compile(&format!(
                    "shared int a[{}] @ {a};
                     shared int b[{n}] @ {bb};
                     void main() {{
                         #{n};
                         int i = 0;
                         while (i < 16) {{
                             a[2 * .] = a[2 * .] + i;
                             b[.] = a[2 * .];
                             i = i + 1;
                         }}
                     }}",
                    2 * n
                ))
                .expect("broadcast_stride compiles")
            },
            si(),
            config.clone(),
        )
    });
    let init = b.rng().words(1, 1 << 20)[0];
    let tri = |k: usize| (k * k.saturating_sub(1) / 2) as Word;
    let out: Vec<Word> = (0..n).map(|j| init + 7 * tri(n) + tri(j)).collect();
    b.ops.push(Op {
        pokes: vec![(64, vec![init])],
        expect: vec![(64, vec![init + 8 * tri(n)]), (c, out)],
        ..op(
            format!("lane_id_prefix.{n}.{placement}"),
            Source::Tce,
            move || {
                tcf_lang::compile(&format!(
                    "shared int sum @ 64;
                     shared int out[{n}] @ {c};
                     void main() {{
                         #{n};
                         int i = 0;
                         while (i < 8) {{
                             out[.] = prefix(sum, MPADD, .);
                             i = i + 1;
                         }}
                     }}"
                ))
                .expect("lane_id_prefix compiles")
            },
            si(),
            config,
        )
    });
}

fn thick_compressed(b: &mut Builder, scale: Scale) {
    // Sizes keep every op short (at most ~0.15 s on hashed placement) so
    // that a run makes ~20 passes and each op's fastest run is steady:
    // the 10^7-lane legs are the capped ones, and the uncapped recurrence
    // shows the hashed-placement cliff at 10^6 already.
    let (big, mid, small, affine_n) = match scale {
        Scale::Full => (10_000_000, 1_000_000, 100_000, 1 << 13),
        Scale::Small => (20_000, 5_000, 1_000, 1 << 10),
    };
    for config in [paper(), interleaved()] {
        for n in [small, mid] {
            divergent(b, "divergent.si", n, si(), config.clone(), scale);
        }
        divergent(
            b,
            "divergent.fixed",
            small,
            tcf(Variant::FixedThickness { width: small }),
            config.clone(),
            scale,
        );
        for n in [small, big] {
            divergent(
                b,
                "divergent.balanced",
                n,
                tcf(Variant::Balanced { bound: 64 }),
                config.clone(),
                scale,
            );
            divergent(
                b,
                "divergent.async",
                n,
                tcf(Variant::MultiInstruction),
                config.clone(),
                scale,
            );
        }
        // One bunch stream per group, bunch length T_p, ~`small` sequential
        // instructions in total.
        let (tp, groups) = (config.threads_per_group, config.groups);
        let iters = small / (3 * groups);
        let placement = crate::ops::placement(&config);
        b.ops.push(op(
            format!("divergent.numa.{small}.{placement}"),
            Source::Isa,
            move || hotpath::divergent_numa_program(tp, iters),
            tcf(Variant::ConfigurableSingleOperation),
            config.clone(),
        ));
        // The sixth variant: the recurrence as SPMD unit flows, one per
        // hardware thread of the paper machine (`tid` is the rank), so its
        // thickness is the machine size.
        let n = config.total_threads();
        divergent(b, "divergent.spmd", n, so(), config.clone(), scale);
        affine_loops(b, affine_n, config);
    }
}

/// Host ranks of a list: `succ[i]` is the next node, the tail points to
/// itself, and a node's rank is its distance to the tail.
fn list(rng: &mut Rng, n: usize) -> (Vec<Word>, Vec<Word>, Vec<Word>) {
    let order = rng.permutation(n);
    let mut succ = vec![0; n];
    let mut rank = vec![0; n];
    let mut init = vec![0; n];
    for (pos, &node) in order.iter().enumerate() {
        let next = order.get(pos + 1).copied().unwrap_or(node);
        succ[node] = next as Word;
        rank[node] = (n - 1 - pos) as Word;
        init[node] = Word::from(next != node);
    }
    (succ, init, rank)
}

/// Wyllie's pointer-jumping list ranking in tce over a seeded random
/// list of `n` nodes (a power of two): `log2 n` rounds of
/// `rnk[.] += rnk[nxt[.]]; nxt[.] = nxt[nxt[.]]`. `copy` tells apart the
/// lists of one size.
fn list_rank(b: &mut Builder, n: usize, copy: usize) {
    let (nxt, rnk) = (1 << 17, 1 << 18);
    let rounds = n.trailing_zeros();
    let (succ, init, rank) = list(&mut b.rng(), n);
    b.ops.push(Op {
        pokes: vec![(nxt, succ), (rnk, init)],
        expect: vec![(rnk, rank)],
        seeded_stats: true,
        ..op(
            format!("list_rank.{n}.{copy}"),
            Source::Tce,
            move || {
                tcf_lang::compile(&format!(
                    "shared int nxt[{n}] @ {nxt};
                     shared int rnk[{n}] @ {rnk};
                     void main() {{
                         int r = 0;
                         #{n};
                         while (r < {rounds}) {{
                             rnk[.] = rnk[.] + rnk[nxt[.]];
                             nxt[.] = nxt[nxt[.]];
                             r = r + 1;
                         }}
                     }}"
                ))
                .expect("list ranking compiles")
            },
            si(),
            paper(),
        )
    });
}

/// Where the parity recurrence reads its seeded initial accumulator.
const BRANCHY_SEED_ADDR: usize = 72;

/// The branchy parity recurrence of `hotpath` at thickness `n`, starting
/// from a seeded accumulator: the opening `and` on the lane ids leaves
/// the affine algebra, so every derived register runs on the per-lane
/// kernels.
fn branchy_program(n: usize) -> Program {
    use tcf_isa::reg::{r, Reg, SpecialReg};
    use tcf_isa::{AluOp, ProgramBuilder};
    let mut b = ProgramBuilder::new();
    b.setthick(n as Word);
    b.mfs(r(1), SpecialReg::Tid);
    b.alu(AluOp::And, r(2), r(1), 1);
    b.ld(r(3), Reg::ZERO, BRANCHY_SEED_ADDR as Word);
    b.ldi(r(4), 0);
    b.label("loop");
    b.sel(r(6), r(2), r(1), r(3));
    b.alu(AluOp::Add, r(3), r(3), r(6));
    b.alu(AluOp::Xor, r(2), r(2), 1);
    b.alu(AluOp::Sub, r(5), r(3), r(1));
    b.sel(r(3), r(2), r(5), r(3));
    b.alu(AluOp::Add, r(4), r(4), 1);
    b.alu(AluOp::Slt, r(7), r(4), 16);
    b.bnez(r(7), "loop");
    b.st(r(3), r(1), C_BASE as Word);
    b.halt();
    b.build().expect("branchy recurrence assembles")
}

/// Host reference of [`branchy_program`] for lane `id`.
fn branchy_lane(id: Word, init: Word) -> Word {
    let (mut parity, mut acc) = (id & 1, init);
    for _ in 0..16 {
        acc = acc.wrapping_add(if parity != 0 { id } else { acc });
        parity ^= 1;
        if parity != 0 {
            acc = acc.wrapping_sub(id);
        }
    }
    acc
}

fn irregular_lanes(b: &mut Builder, scale: Scale) {
    // Many small lists and a few larger ones, up to 2^13 nodes so that a
    // pass stays near a second and a run makes ~20 of them: the rates
    // take each op's fastest run, which needs many samples to be steady.
    let lists: &[(usize, usize)] = match scale {
        Scale::Full => &[(13, 1), (12, 2), (11, 4), (10, 8)],
        Scale::Small => &[(10, 1), (8, 2)],
    };
    for &(log, copies) in lists {
        for copy in 0..copies {
            list_rank(b, 1 << log, copy);
        }
    }
    let branchy: &[usize] = match scale {
        Scale::Full => &[1 << 15, 1 << 16],
        Scale::Small => &[1 << 10],
    };
    for &n in branchy {
        let init = b.rng().words(1, 1 << 20)[0];
        let out: Vec<Word> = (0..n as Word).map(|id| branchy_lane(id, init)).collect();
        b.ops.push(Op {
            pokes: vec![(BRANCHY_SEED_ADDR, vec![init])],
            expect: vec![(C_BASE, out)],
            ..op(
                format!("branchy.{n}"),
                Source::Isa,
                move || branchy_program(n),
                si(),
                paper(),
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The closed form against a lane-by-lane replay of the recurrence.
    #[test]
    fn divergent_sum_matches_lane_replay() {
        for n in [1usize, 7, 100, 1000, 4099] {
            let (step, base) = ((n / 24 + 7) as Word, (n / 3 + 11) as Word);
            let mut acc = vec![0 as Word; n];
            let mut sum: Word = 0;
            for i in 0..16 {
                let cut = i * step + base;
                for (id, a) in acc.iter_mut().enumerate() {
                    let id = id as Word;
                    *a += if id < cut { id } else { *a };
                    sum += *a;
                }
            }
            assert_eq!(divergent_sum(n), sum, "n = {n}");
        }
    }

    #[test]
    fn lists_rank_to_the_tail() {
        let (succ, init, rank) = list(&mut Rng::new(3, 0), 64);
        let tail = (0..64).find(|&i| succ[i] == i as Word).unwrap();
        assert_eq!(rank[tail], 0);
        assert_eq!(init[tail], 0);
        for i in 0..64 {
            if i != tail {
                assert_eq!(rank[i], rank[succ[i] as usize] + 1);
            }
        }
    }
}
