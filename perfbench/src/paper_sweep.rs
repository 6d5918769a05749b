//! `paper_sweep`: the direct `Experiment` path over all 25 programs at
//! full scale — golden run, serial baseline, then {ilp, ftlp, llp,
//! hybrid} × {2, 4} cores on snooping (figall's configuration set), one
//! cold `Experiment` per program, driven by sequential `run_on` calls.
//! The seed permutes program order; one client thread per host core
//! takes the next program.
//!
//! The traced pass calls the layer functions directly, in the order
//! `Experiment` composes them, with a span around each call; the ledger
//! holds its per-config cycles equal to the untraced pass's.

use std::collections::HashMap;
use std::time::Instant;

use rand::Rng as _;
use voltron_compiler::{compile_prepared, CompileOptions, Compiled, FrontEnd};
use voltron_core::report::Json;
use voltron_core::{
    machine_config, outputs_equivalent, run_reference, Experiment, RunResult, Strategy,
};
use voltron_ir::{Memory, Program};
use voltron_sim::{CoherenceBackend, Machine, MachineConfig, MachineProgram, RunOutcome};
use voltron_workloads::{Scale, Workload};

use crate::layers::{config_key, fill_spans, fill_tick_cost, median_metrics, Metrics, SimAgg};
use crate::trace::{layer_totals, Span, Tracer};
use crate::util::{median, peak_rss_mb, quantile, rng};
use crate::{fan_out, Ctx, Outcome};

/// figall's configurations, after the golden run and serial baseline.
pub const CONFIGS: [(Strategy, usize); 8] = [
    (Strategy::Ilp, 2),
    (Strategy::Ilp, 4),
    (Strategy::FineGrainTlp, 2),
    (Strategy::FineGrainTlp, 4),
    (Strategy::Llp, 2),
    (Strategy::Llp, 4),
    (Strategy::Hybrid, 2),
    (Strategy::Hybrid, 4),
];

const SNOOP: CoherenceBackend = CoherenceBackend::Snooping;

/// Build the 25 full-scale programs, the set-up both full-scale
/// workloads pay, recording its seconds in `times`. Every pass builds
/// afresh, so `setup_s` is a median over samples spread across the run.
pub fn build_programs(tr: &mut Tracer, times: &mut Vec<f64>) -> Vec<Workload> {
    let t = Instant::now();
    let programs = tr.span("workloads.build", 0, |_| {
        voltron_workloads::all(Scale::Full)
    });
    times.push(t.elapsed().as_secs_f64());
    programs
}

/// The seeded program order of one pass.
pub fn permutation(seed: u64, pass: usize, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = rng(seed, pass as u64);
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

/// Build, run and check one compiled image — `Experiment`'s simulate step
/// (`Machine::new`, `run`, `outputs_equivalent`) with a span per call.
pub fn simulate(
    tr: &mut Tracer,
    req: u64,
    image: MachineProgram,
    mcfg: &MachineConfig,
    golden: &Memory,
) -> Result<RunOutcome, String> {
    let machine = tr
        .span("sim.build", req, |_| Machine::new(image, mcfg))
        .map_err(|e| e.to_string())?;
    let out = tr
        .span("sim.run", req, |_| machine.run())
        .map_err(|e| e.to_string())?;
    tr.span("core.compare", req, |_| {
        outputs_equivalent(golden, &out.memory)
    })
    .map_err(|addr| format!("output mismatch at {addr:#x}"))?;
    Ok(out)
}

/// A `RunResult` exactly as `Experiment` assembles it.
pub fn run_result(
    strategy: Strategy,
    cores: usize,
    baseline_cycles: u64,
    out: RunOutcome,
    region_kinds: HashMap<u32, &'static str>,
    region_weights: HashMap<u32, u64>,
) -> RunResult {
    RunResult {
        strategy,
        cores,
        backend: SNOOP,
        cycles: out.stats.cycles,
        ticked_cycles: out.ticked_cycles,
        speedup: baseline_cycles as f64 / out.stats.cycles.max(1) as f64,
        stats: out.stats,
        region_kinds,
        region_weights,
    }
}

/// One pass's results.
#[derive(Default)]
struct Pass {
    attempted: u64,
    failed: u64,
    sim_cycles: u64,
    latencies_ms: Vec<f64>,
    agg: SimAgg,
    spans: Vec<Span>,
}

impl Pass {
    fn merge(&mut self, o: Pass) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.sim_cycles += o.sim_cycles;
        self.latencies_ms.extend(o.latencies_ms);
        self.agg.merge(o.agg);
        self.spans.extend(o.spans);
    }

    fn fail(&mut self, name: &str, what: &str, err: impl std::fmt::Display) {
        eprintln!("[perfbench] paper_sweep {name} {what}: {err}");
        self.failed += 1;
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The untraced program: a cold `Experiment`, then `run_on` per config.
fn direct_program(ctx: &Ctx, w: &Workload, p: &mut Pass) {
    p.attempted += 1 + CONFIGS.len() as u64;
    let t = Instant::now();
    let mut exp = match Experiment::new(&w.program) {
        Ok(e) => e,
        Err(e) => {
            p.failed += CONFIGS.len() as u64;
            return p.fail(w.name, "baseline", e);
        }
    };
    p.latencies_ms.push(ms_since(t));
    let base = exp.baseline_cycles();
    ctx.ledger.check(
        &config_key("full", w.name, Strategy::Serial, 1, SNOOP),
        base,
    );
    for (s, c) in CONFIGS {
        let t = Instant::now();
        match exp.run_on(s, c, SNOOP) {
            Ok(r) => {
                p.latencies_ms.push(ms_since(t));
                ctx.ledger
                    .check(&config_key("full", w.name, s, c, SNOOP), r.cycles);
                p.agg.add(r, base);
            }
            Err(e) => p.fail(w.name, &format!("{s}/{c}"), e),
        }
    }
    p.sim_cycles += exp.simulated_cycles();
}

/// One configuration through the layer functions, reusing `front_ends`
/// by `FrontEnd::key` exactly like `Experiment::ensure_front_end`.
fn traced_config(
    tr: &mut Tracer,
    req: u64,
    program: &Program,
    front_ends: &mut [Option<FrontEnd>; 2],
    golden: &Memory,
    (strategy, cores): (Strategy, usize),
    baseline_cycles: u64,
) -> Result<RunResult, String> {
    let mcfg = machine_config(cores, SNOOP);
    let opts = CompileOptions::default();
    let slot = &mut front_ends[usize::from(FrontEnd::key(strategy, &mcfg, &opts))];
    if slot.is_none() {
        let fe = tr.span("compiler.front_end", req, |_| {
            FrontEnd::new(program, strategy, &mcfg, &opts)
        });
        *slot = Some(fe.map_err(|e| e.to_string())?);
    }
    let fe = slot.as_ref().expect("built above");
    let Compiled {
        machine,
        region_kinds,
        region_weights,
    } = tr
        .span("compiler.plan_emit", req, |_| {
            compile_prepared(fe, strategy, &mcfg, &opts)
        })
        .map_err(|e| e.to_string())?;
    let out = simulate(tr, req, machine, &mcfg, golden)?;
    Ok(run_result(
        strategy,
        cores,
        baseline_cycles,
        out,
        region_kinds,
        region_weights,
    ))
}

/// The traced program: `Experiment::new` then each `run_on`, composed
/// from the layer calls.
fn traced_program(ctx: &Ctx, tr: &mut Tracer, req: u64, w: &Workload, p: &mut Pass) {
    p.attempted += 1 + CONFIGS.len() as u64;
    tr.span("bench.program", req, |tr| {
        let t = Instant::now();
        let golden = match tr.span("ir.golden", req, |_| run_reference(&w.program)) {
            Ok(o) => o.memory,
            Err(e) => {
                p.failed += CONFIGS.len() as u64;
                return p.fail(w.name, "golden", e);
            }
        };
        let mut fes = [None, None];
        let base = match traced_config(
            tr,
            req,
            &w.program,
            &mut fes,
            &golden,
            (Strategy::Serial, 1),
            1,
        ) {
            Ok(r) => r,
            Err(e) => {
                p.failed += CONFIGS.len() as u64;
                return p.fail(w.name, "baseline", e);
            }
        };
        p.latencies_ms.push(ms_since(t));
        let base_cycles = base.cycles;
        ctx.ledger.check(
            &config_key("full", w.name, Strategy::Serial, 1, SNOOP),
            base_cycles,
        );
        p.sim_cycles += base_cycles;
        p.agg.add(&base, base_cycles);
        for cfg in CONFIGS {
            let t = Instant::now();
            match traced_config(tr, req, &w.program, &mut fes, &golden, cfg, base_cycles) {
                Ok(r) => {
                    p.latencies_ms.push(ms_since(t));
                    ctx.ledger
                        .check(&config_key("full", w.name, cfg.0, cfg.1, SNOOP), r.cycles);
                    p.sim_cycles += r.cycles;
                    p.agg.add(&r, base_cycles);
                }
                Err(e) => p.fail(w.name, &format!("{}/{}", cfg.0, cfg.1), e),
            }
        }
    });
}

/// One pass over every program in `order`.
fn sweep(ctx: &Ctx, programs: &[Workload], order: &[usize], traced: bool) -> (f64, Pass) {
    let (wall, parts, spans) = fan_out(ctx, order, traced, |tr, &idx, p: &mut Pass| {
        let w = &programs[idx];
        if traced {
            traced_program(ctx, tr, idx as u64, w, p);
        } else {
            direct_program(ctx, w, p);
        }
    });
    let mut total = Pass {
        spans,
        ..Pass::default()
    };
    for p in parts {
        total.merge(p);
    }
    (wall, total)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut setup_tr = Tracer::new(ctx.trace, ctx.epoch);
    let mut setup = Vec::new();
    let mut out = Outcome::default();
    let (mut walls, mut mcps, mut rps, mut latencies) = (vec![], vec![], vec![], vec![]);
    let mut h4 = None;
    let mut traced_metrics: Vec<Metrics> = Vec::new();
    let start = Instant::now();
    let mut pass = 0;
    while pass == 0 || start.elapsed() < ctx.seconds {
        let programs = build_programs(&mut setup_tr, &mut setup);
        let order = permutation(ctx.seed, pass, programs.len());
        let (wall, p) = sweep(ctx, &programs, &order, false);
        ctx.row(
            pass,
            false,
            vec![
                ("wall_s", Json::Num(wall)),
                ("sim_cycles", Json::UInt(p.sim_cycles)),
                ("ops", Json::UInt(p.latencies_ms.len() as u64)),
                ("failed", Json::UInt(p.failed)),
            ],
        );
        walls.push(wall);
        mcps.push(p.sim_cycles as f64 / wall / 1e6);
        rps.push(p.latencies_ms.len() as f64 / wall);
        h4.get_or_insert(p.agg.hybrid4_speedup_mean());
        latencies.extend_from_slice(&p.latencies_ms);
        out.attempted += p.attempted;
        out.failed += p.failed;
        if ctx.trace {
            let (twall, tp) = sweep(ctx, &programs, &order, true);
            ctx.row(
                pass,
                true,
                vec![
                    ("wall_s", Json::Num(twall)),
                    ("failed", Json::UInt(tp.failed)),
                ],
            );
            let mut m = Metrics::new();
            fill_spans(&mut m, &layer_totals(&tp.spans));
            tp.agg.fill(&mut m);
            fill_tick_cost(&mut m);
            m.insert("workloads.build_s", median(&setup));
            m.insert("bench.trace_overhead_frac", twall / wall);
            traced_metrics.push(m);
            out.attempted += tp.attempted;
            out.failed += tp.failed;
            out.spans.extend(tp.spans);
        }
        pass += 1;
    }
    out.spans.extend(setup_tr.into_spans());
    out.metrics = if ctx.trace {
        median_metrics(&traced_metrics)
    } else {
        let p50 = quantile(&latencies, 0.5);
        Metrics::from([
            ("setup_s", median(&setup)),
            ("wall_s", median(&walls)),
            ("sim_mcycles_per_s", median(&mcps)),
            ("req_per_s", median(&rps)),
            ("p50_ms", p50),
            ("p99_ms", quantile(&latencies, 0.99)),
            // Every operation of a cold sweep computes; none is a hit.
            ("miss_p50_ms", p50),
            // Every pass repeats the same work, so the peak over the
            // run settles on the worst pairing of concurrent programs.
            ("peak_rss_mb", peak_rss_mb()),
            ("hybrid4_speedup_mean", h4.unwrap_or(0.0)),
        ])
    };
    out
}
