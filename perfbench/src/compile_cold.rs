//! `compile_cold`: compile only. For every full-scale program, build a
//! fresh front end per `FrontEnd::key` (serial@1 and the unrolled
//! multi-core one), then `compile_prepared` serial@1 plus {ilp, ftlp,
//! llp, hybrid} × {2, 4, 8, 16}: 425 compiles per pass. The seed permutes
//! program order; one client thread per host core takes the next
//! program.
//!
//! After each pass every image is checked (`check` and the static
//! validator) and fingerprinted; an image that differs from an
//! earlier compile of the same configuration in this run counts in
//! `compiler.unstable_images` (the unroll pass renames registers in hash
//! order, so some images differ run to run while their cycles do not).
//! Every serial@1 and hybrid@4 image whose fingerprint is new in the run
//! (all of them after the first pass, then only new variants) is
//! simulated against the golden model; that check is the source of this
//! workload's `sim_mcycles_per_s` and `hybrid4_speedup_mean`.

use std::collections::HashMap;
use std::time::Instant;

use voltron_compiler::{compile_prepared, CompileOptions, Compiled, FrontEnd};
use voltron_core::report::Json;
use voltron_core::{machine_config, run_reference, Strategy};
use voltron_sim::{CoherenceBackend, MachineProgram};
use voltron_workloads::Workload;

use crate::layers::{config_key, fill_spans, median_metrics, sorted_mean, Metrics};
use crate::paper_sweep::{build_programs, permutation, simulate};
use crate::trace::{layer_totals, Span, Tracer};
use crate::util::{median, peak_rss_mb, quantile, Fnv};
use crate::{fan_out, Ctx, Outcome};

const STRATEGIES: [Strategy; 4] = [
    Strategy::Ilp,
    Strategy::FineGrainTlp,
    Strategy::Llp,
    Strategy::Hybrid,
];
const CORES: [usize; 4] = [2, 4, 8, 16];
const SNOOP: CoherenceBackend = CoherenceBackend::Snooping;

/// One compiled configuration, kept for the checks after the pass.
struct Image {
    program: usize,
    strategy: Strategy,
    cores: usize,
    machine: MachineProgram,
}

#[derive(Default)]
struct Pass {
    attempted: u64,
    failed: u64,
    latencies_ms: Vec<f64>,
    images: Vec<Image>,
    spans: Vec<Span>,
}

impl Pass {
    fn fail(&mut self, name: &str, what: &str, err: impl std::fmt::Display) {
        eprintln!("[perfbench] compile_cold {name} {what}: {err}");
        self.failed += 1;
    }
}

/// Front ends then plan+emit for one program, each call one operation.
fn compile_program(tr: &mut Tracer, idx: usize, w: &Workload, p: &mut Pass) {
    let req = idx as u64;
    let opts = CompileOptions::default();
    let mut configs = vec![(Strategy::Serial, 1)];
    configs.extend(STRATEGIES.iter().flat_map(|&s| CORES.map(|c| (s, c))));
    // One front end per key: serial@1 (no unroll), then the multi-core one.
    let mut front_ends: [Option<FrontEnd>; 2] = [None, None];
    for &(s, c) in &configs[..2] {
        let mcfg = machine_config(c, SNOOP);
        p.attempted += 1;
        let t = Instant::now();
        match tr.span("compiler.front_end", req, |_| {
            FrontEnd::new(&w.program, s, &mcfg, &opts)
        }) {
            Ok(fe) => {
                p.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
                front_ends[usize::from(FrontEnd::key(s, &mcfg, &opts))] = Some(fe);
            }
            Err(e) => p.fail(w.name, "front end", e),
        }
    }
    for (s, c) in configs {
        let mcfg = machine_config(c, SNOOP);
        p.attempted += 1;
        let Some(fe) = &front_ends[usize::from(FrontEnd::key(s, &mcfg, &opts))] else {
            p.fail(w.name, &format!("{s}/{c}"), "no front end");
            continue;
        };
        let t = Instant::now();
        match tr.span("compiler.plan_emit", req, |_| {
            compile_prepared(fe, s, &mcfg, &opts)
        }) {
            Ok(Compiled { machine, .. }) => {
                p.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
                p.images.push(Image {
                    program: idx,
                    strategy: s,
                    cores: c,
                    machine,
                });
            }
            Err(e) => p.fail(w.name, &format!("{s}/{c}"), e),
        }
    }
}

/// One timed pass over every program in `order`.
fn pass(ctx: &Ctx, programs: &[Workload], order: &[usize], traced: bool) -> (f64, Pass) {
    let (wall, parts, spans) = fan_out(ctx, order, traced, |tr, &idx, p: &mut Pass| {
        compile_program(tr, idx, &programs[idx], p);
    });
    let mut total = Pass {
        spans,
        ..Pass::default()
    };
    for p in parts {
        total.attempted += p.attempted;
        total.failed += p.failed;
        total.latencies_ms.extend(p.latencies_ms);
        total.images.extend(p.images);
    }
    (wall, total)
}

/// Every fingerprint seen per (program, strategy, cores), first one first.
type Seen = HashMap<(usize, Strategy, usize), Vec<u64>>;

/// Validate every image of a pass and fingerprint it against `seen`;
/// returns (failures, unstable images, the serial@1 and hybrid@4 images
/// whose fingerprint is new, for the simulation check).
fn check_images(programs: &[Workload], p: &mut Pass, seen: &mut Seen) -> (u64, u64, Vec<Image>) {
    let (mut failed, mut unstable, mut fresh) = (0, 0, Vec::new());
    for img in p.images.drain(..) {
        let name = programs[img.program].name;
        let mcfg = machine_config(img.cores, SNOOP);
        let valid = img
            .machine
            .check()
            .and_then(|()| img.machine.validate(&mcfg).map_err(|e| e.to_string()));
        if let Err(e) = valid {
            eprintln!(
                "[perfbench] compile_cold {name} {}/{}: {e}",
                img.strategy, img.cores
            );
            failed += 1;
        }
        let print = Fnv::of_debug(&img.machine);
        let prints = seen
            .entry((img.program, img.strategy, img.cores))
            .or_default();
        if prints.first().is_some_and(|&first| first != print) {
            unstable += 1;
        }
        if !prints.contains(&print) {
            prints.push(print);
            if matches!(
                (img.strategy, img.cores),
                (Strategy::Serial, 1) | (Strategy::Hybrid, 4)
            ) {
                fresh.push(img);
            }
        }
    }
    (failed, unstable, fresh)
}

/// Simulate one program's new images against the golden model; returns
/// each one's cycles (serial@1 first) and the seconds spent simulating.
fn check_program(
    ctx: &Ctx,
    tr: &mut Tracer,
    w: &Workload,
    images: &[Image],
) -> Result<(Vec<u64>, f64), String> {
    let golden = run_reference(&w.program).map_err(|e| e.to_string())?.memory;
    let mut cycles = Vec::new();
    let t = Instant::now();
    for img in images {
        let mcfg = machine_config(img.cores, SNOOP);
        let out = simulate(tr, 0, img.machine.clone(), &mcfg, &golden)?;
        ctx.ledger.check(
            &config_key("full", w.name, img.strategy, img.cores, SNOOP),
            out.stats.cycles,
        );
        cycles.push(out.stats.cycles);
    }
    Ok((cycles, t.elapsed().as_secs_f64()))
}

/// The simulation check over every program.
#[derive(Default)]
struct Check {
    attempted: u64,
    failed: u64,
    cycles: u64,
    /// Seconds spent simulating (the golden runs excluded).
    sim_s: f64,
    wall_s: f64,
    speedups: Vec<f64>,
}

/// Simulate `images` (serial@1 before hybrid@4 within a program); a
/// program's speedup counts when both its images are among them.
fn simulate_check(ctx: &Ctx, programs: &[Workload], images: Vec<Image>) -> Check {
    let mut work: Vec<Vec<Image>> = (0..programs.len()).map(|_| Vec::new()).collect();
    for img in images {
        work[img.program].push(img);
    }
    work.retain(|imgs| !imgs.is_empty());
    for imgs in &mut work {
        imgs.sort_by_key(|img| img.cores);
    }
    let (wall_s, parts, _) = fan_out(ctx, &work, false, |tr, imgs, c: &mut Check| {
        let w = &programs[imgs[0].program];
        c.attempted += imgs.len() as u64;
        match check_program(ctx, tr, w, imgs) {
            Ok((cycles, secs)) => {
                c.cycles += cycles.iter().sum::<u64>();
                c.sim_s += secs;
                if let [base, h4] = cycles[..] {
                    c.speedups.push(base as f64 / h4.max(1) as f64);
                }
            }
            Err(e) => {
                eprintln!("[perfbench] compile_cold check {}: {e}", w.name);
                c.failed += 1;
            }
        }
    });
    let mut check = Check {
        wall_s,
        ..Check::default()
    };
    for c in parts {
        check.attempted += c.attempted;
        check.failed += c.failed;
        check.cycles += c.cycles;
        check.sim_s += c.sim_s;
        check.speedups.extend(c.speedups);
    }
    check
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut setup_tr = Tracer::new(ctx.trace, ctx.epoch);
    let mut setup = Vec::new();
    let mut out = Outcome::default();
    let (mut walls, mut rps, mut latencies) = (vec![], vec![], vec![]);
    // Simulated cycles and seconds of every check in the run.
    let (mut sim_cycles, mut sim_s) = (0, 0.0);
    let mut h4 = None;
    let mut seen = HashMap::new();
    let mut traced_metrics: Vec<Metrics> = Vec::new();
    let start = Instant::now();
    let mut n = 0;
    while n == 0 || start.elapsed() < ctx.seconds {
        let programs = build_programs(&mut setup_tr, &mut setup);
        let order = permutation(ctx.seed, n, programs.len());
        let (wall, mut p) = pass(ctx, &programs, &order, false);
        let ops = p.latencies_ms.len();
        let (failed, unstable, fresh) = check_images(&programs, &mut p, &mut seen);
        let check = simulate_check(ctx, &programs, fresh);
        p.attempted += check.attempted;
        p.failed += failed + check.failed;
        ctx.row(
            n,
            false,
            vec![
                ("wall_s", Json::Num(wall)),
                ("ops", Json::UInt(ops as u64)),
                ("unstable_images", Json::UInt(unstable)),
                ("check_wall_s", Json::Num(check.wall_s)),
                ("sim_cycles", Json::UInt(check.cycles)),
                ("failed", Json::UInt(p.failed)),
            ],
        );
        walls.push(wall);
        rps.push(ops as f64 / wall);
        sim_cycles += check.cycles;
        sim_s += check.sim_s;
        h4.get_or_insert(sorted_mean(&check.speedups));
        latencies.extend_from_slice(&p.latencies_ms);
        out.attempted += p.attempted;
        out.failed += p.failed;
        if ctx.trace {
            let (twall, mut tp) = pass(ctx, &programs, &order, true);
            let (failed, unstable, fresh) = check_images(&programs, &mut tp, &mut seen);
            let check = simulate_check(ctx, &programs, fresh);
            tp.attempted += check.attempted;
            tp.failed += failed + check.failed;
            ctx.row(
                n,
                true,
                vec![
                    ("wall_s", Json::Num(twall)),
                    ("failed", Json::UInt(tp.failed)),
                ],
            );
            let mut m = Metrics::new();
            fill_spans(&mut m, &layer_totals(&tp.spans));
            m.insert("workloads.build_s", median(&setup));
            m.insert("compiler.unstable_images", unstable as f64);
            m.insert("bench.trace_overhead_frac", twall / wall);
            traced_metrics.push(m);
            out.attempted += tp.attempted;
            out.failed += tp.failed;
            out.spans.extend(tp.spans);
        }
        n += 1;
    }
    out.spans.extend(setup_tr.into_spans());
    out.metrics = if ctx.trace {
        median_metrics(&traced_metrics)
    } else {
        let p50 = quantile(&latencies, 0.5);
        Metrics::from([
            ("setup_s", median(&setup)),
            ("wall_s", median(&walls)),
            ("sim_mcycles_per_s", sim_cycles as f64 / sim_s / 1e6),
            ("req_per_s", median(&rps)),
            ("p50_ms", p50),
            ("p99_ms", quantile(&latencies, 0.99)),
            // Every compile is cold; none is a hit.
            ("miss_p50_ms", p50),
            // Every pass repeats the same work, so the peak over the
            // run settles on the worst pairing of concurrent programs.
            ("peak_rss_mb", peak_rss_mb()),
            ("hybrid4_speedup_mean", h4.unwrap_or(0.0)),
        ])
    };
    out
}
