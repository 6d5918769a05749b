//! `serve_mix`: an in-process `Server` (`ServerConfig::default()`, one
//! worker per host core) driven by one closed-loop client per host core
//! calling `Server::call`.
//!
//! Set-up starts the server and touches every program once with a
//! hybrid@4 request (the golden run, baseline and both front ends are
//! lazy set-up the daemon pays once). The timed part is a seeded stream
//! of [`REQUESTS`] test-scale requests: uniform program, strategy, cores
//! ∈ {2, 4, 8, 16} and backend, and every 4th request `fresh`.
//! Each pass uses a new server and a new stream.
//!
//! Every response is checked (the engine validates each simulation with
//! `outputs_equivalent`), every row's cycles go through the ledger, and
//! a seeded sample of rows is compared field for field against a direct
//! `Experiment` run.

use std::sync::Arc;
use std::time::Instant;

use rand::Rng as _;
use voltron_bench::serve::{Request, Response, Server, ServerConfig};
use voltron_core::report::Json;
use voltron_core::{Experiment, RunResult, Strategy};
use voltron_sim::CoherenceBackend;
use voltron_workloads::{Scale, Workload};

use crate::layers::{config_key, median_metrics, sorted_mean, Metrics, SimAgg};
use crate::trace::{Span, Tracer};
use crate::util::{median, peak_rss_mb, quantile, rng};
use crate::{fan_out, Ctx, Outcome};

/// Requests in one pass's timed stream.
pub const REQUESTS: usize = 2000;
/// One request in `FRESH_EVERY` bypasses the result cache: `serve_bench`'s
/// saturation mix (DESIGN.md §12.5).
const FRESH_EVERY: usize = 4;
/// Rows per pass compared against a direct `Experiment` run.
const SAMPLE: usize = 4;

const STRATEGIES: [Strategy; 4] = [
    Strategy::Ilp,
    Strategy::FineGrainTlp,
    Strategy::Llp,
    Strategy::Hybrid,
];
const CORES: [usize; 4] = [2, 4, 8, 16];

/// The seeded request stream of one pass. No measured request traffic
/// exists to copy, so the mix is an assumption that favours nothing:
/// program, strategy, cores and backend are each uniform (every program
/// weighs the same, as in the paper's suite averages), and the fresh
/// share is `serve_bench`'s.
fn stream(seed: u64, pass: usize, names: &[&'static str]) -> Vec<Request> {
    let mut rng = rng(seed, 0x5e7e_0000 + pass as u64);
    (0..REQUESTS)
        .map(|i| {
            let name = names[rng.gen_range(0..names.len())];
            let strategy = STRATEGIES[rng.gen_range(0..STRATEGIES.len())];
            let cores = CORES[rng.gen_range(0..CORES.len())];
            let mut req = Request::new(name, strategy, cores);
            req.id = i as u64;
            if rng.gen::<bool>() {
                req.backend = CoherenceBackend::directory_for(cores);
            }
            req.fresh = i.is_multiple_of(FRESH_EVERY);
            req
        })
        .collect()
}

/// One answered request, as the client saw it.
struct Row {
    id: u64,
    latency_ms: f64,
    served: Result<Served, String>,
}

/// The parts of a successful response the checks and metrics read. The
/// full `RunResult` is kept only for rows in the direct-path sample, so
/// the benchmark's own memory stays out of `peak_rss_mb`.
struct Served {
    config: (Strategy, usize, CoherenceBackend),
    cycles: u64,
    speedup: f64,
    baseline_cycles: u64,
    result_hit: bool,
    image_hit: bool,
    machine_pooled: bool,
    exec_ms: f64,
    queue_ms: f64,
    kept: Option<Arc<RunResult>>,
}

/// What one client collects: its rows, and the simulated rows' stats.
#[derive(Default)]
struct Client {
    rows: Vec<Row>,
    agg: SimAgg,
}

fn row(req: &Request, latency_ms: f64, resp: Response, keep: bool, agg: &mut SimAgg) -> Row {
    let served = match resp {
        Response::Run {
            result: Ok(s),
            latency_micros,
            ..
        } => {
            if !s.cache.result_hit {
                agg.add(&s.run, s.baseline_cycles);
            }
            Ok(Served {
                config: (s.run.strategy, s.run.cores, s.run.backend),
                cycles: s.run.cycles,
                speedup: s.run.speedup,
                baseline_cycles: s.baseline_cycles,
                result_hit: s.cache.result_hit,
                image_hit: s.cache.image_hit,
                machine_pooled: s.cache.machine_pooled,
                exec_ms: s.host_micros as f64 / 1e3,
                queue_ms: latency_micros.saturating_sub(s.host_micros) as f64 / 1e3,
                kept: keep.then_some(s.run),
            })
        }
        Response::Run { result: Err(e), .. } => Err(format!("{}: {}", e.kind(), e.message())),
        Response::Stats { .. } => Err("stats row for a run request".into()),
    };
    Row {
        id: req.id,
        latency_ms,
        served,
    }
}

/// Send `reqs` through `server` from closed-loop clients, each rendering
/// the response row as the wire would. Rows whose id is in `keep` hold on
/// to their full result. Returns the wall seconds, the rows in id order,
/// the simulated rows' stats, and the spans.
fn drive(
    ctx: &Ctx,
    server: &Server,
    reqs: &[Request],
    keep: &[u64],
    traced: bool,
) -> (f64, Vec<Row>, SimAgg, Vec<Span>) {
    let (wall, clients, spans) = fan_out(ctx, reqs, traced, |tr, req, c: &mut Client| {
        let t = Instant::now();
        let resp = tr.span("serve.call", req.id, |_| server.call(req.clone()));
        let latency_ms = t.elapsed().as_secs_f64() * 1e3;
        let wire = tr.span("serve.serialize", req.id, |_| resp.to_json().render());
        std::hint::black_box(wire);
        c.rows.push(row(
            req,
            latency_ms,
            resp,
            keep.contains(&req.id),
            &mut c.agg,
        ));
    });
    let (mut rows, mut agg) = (Vec::with_capacity(reqs.len()), SimAgg::default());
    for c in clients {
        rows.extend(c.rows);
        agg.merge(c.agg);
    }
    rows.sort_by_key(|r| r.id);
    (wall, rows, agg, spans)
}

/// The set-up touches: one hybrid@4 request per program.
fn touch_reqs(names: &[&'static str]) -> Vec<Request> {
    names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let mut r = Request::new(name, Strategy::Hybrid, 4);
            r.id = i as u64;
            r
        })
        .collect()
}

/// One pass: set-up, then the timed stream.
struct Pass {
    setup_s: f64,
    wall_s: f64,
    rows: Vec<Row>,
    touch: Vec<Row>,
    /// Stats of the timed stream's simulated (not result-hit) rows.
    agg: SimAgg,
    retired: u64,
    spans: Vec<Span>,
}

fn run_pass(ctx: &Ctx, touches: &[Request], reqs: &[Request], keep: &[u64], traced: bool) -> Pass {
    let mut tr = Tracer::new(traced, ctx.epoch);
    let t = Instant::now();
    let server = tr.span("serve.start", 0, |_| Server::start(ServerConfig::default()));
    let (_, touch, _, mut spans) = drive(ctx, &server, touches, &[], traced);
    let setup_s = t.elapsed().as_secs_f64();
    let (wall_s, rows, agg, stream_spans) = drive(ctx, &server, reqs, keep, traced);
    let retired = match server.engine().stats_json() {
        Json::Obj(fields) => fields.iter().find_map(|(k, v)| match (k.as_str(), v) {
            ("machines_retired", Json::UInt(n)) => Some(*n),
            _ => None,
        }),
        _ => None,
    }
    .unwrap_or(0);
    tr.span("serve.shutdown", 0, |_| server.shutdown());
    spans.extend(stream_spans);
    spans.extend(tr.into_spans());
    Pass {
        setup_s,
        wall_s,
        rows,
        touch,
        agg,
        retired,
        spans,
    }
}

/// Field-for-field equality of a served result and a direct one.
fn same_result(a: &RunResult, b: &RunResult) -> bool {
    a.strategy == b.strategy
        && a.cores == b.cores
        && a.backend == b.backend
        && a.cycles == b.cycles
        && a.ticked_cycles == b.ticked_cycles
        && a.speedup.to_bits() == b.speedup.to_bits()
        && a.stats == b.stats
        && a.region_kinds == b.region_kinds
        && a.region_weights == b.region_weights
}

/// Check every row against its request and the ledger; returns failures
/// (ledger violations are counted by the ledger). Ledger keys carry the
/// backend's bank count, so directory rows of different sizes never
/// collide.
fn check_rows(ctx: &Ctx, rows: &[Row], reqs: &[Request]) -> u64 {
    let mut failed = 0;
    for r in rows {
        let q = &reqs[r.id as usize];
        match &r.served {
            Ok(s) if s.config == (q.strategy, q.cores, q.backend) => {
                let (strategy, cores, backend) = s.config;
                ctx.ledger.check(
                    &config_key("test", &q.workload, strategy, cores, backend),
                    s.cycles,
                );
            }
            Ok(_) => {
                eprintln!(
                    "[perfbench] serve_mix row {}: answered a different config",
                    r.id
                );
                failed += 1;
            }
            Err(e) => {
                eprintln!("[perfbench] serve_mix row {} ({}): {e}", r.id, q.workload);
                failed += 1;
            }
        }
    }
    failed
}

/// Compare the kept rows field for field against a direct `Experiment`;
/// returns (compared, failures).
fn check_sample(rows: &[Row], reqs: &[Request], programs: &[Workload]) -> (u64, u64) {
    let (mut compared, mut failed) = (0, 0);
    for r in rows {
        let Ok(Served {
            kept: Some(run),
            baseline_cycles,
            ..
        }) = &r.served
        else {
            continue;
        };
        let name = &reqs[r.id as usize].workload;
        let w = programs
            .iter()
            .find(|w| w.name == name)
            .expect("streams name registry programs");
        let direct = Experiment::new(&w.program).and_then(|mut exp| {
            let base = exp.baseline_cycles();
            exp.run_on(run.strategy, run.cores, run.backend)
                .map(|d| base == *baseline_cycles && same_result(run, d))
        });
        compared += 1;
        if !matches!(direct, Ok(true)) {
            eprintln!(
                "[perfbench] serve_mix row {} differs from the direct path",
                r.id
            );
            failed += 1;
        }
    }
    (compared, failed)
}

/// Per-layer metrics of a traced pass. The engine calls the inner layers
/// itself and a benchmark-side span sees only `Server::call`, so their
/// times stay 0 here; their simulated counts come from the rows.
fn layer_metrics(p: &Pass, untraced_wall: f64) -> Metrics {
    let served: Vec<&Served> = p
        .rows
        .iter()
        .filter_map(|r| r.served.as_ref().ok())
        .collect();
    let sims: Vec<&&Served> = served.iter().filter(|s| !s.result_hit).collect();
    let frac = |n: usize, d: usize| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    let serialize_us: Vec<f64> = p
        .spans
        .iter()
        .filter(|s| s.name == "serve.serialize")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    let exec: Vec<f64> = served.iter().map(|s| s.exec_ms).collect();
    let queue: Vec<f64> = served.iter().map(|s| s.queue_ms).collect();
    let image_builds = sims.iter().filter(|s| !s.image_hit).count();
    let pooled = sims.iter().filter(|s| s.machine_pooled).count();
    let mut m = Metrics::new();
    p.agg.fill(&mut m);
    m.insert("serve.exec_p50_ms", quantile(&exec, 0.5));
    m.insert("serve.queue_wait_p99_ms", quantile(&queue, 0.99));
    m.insert(
        "serve.result_hit_rate",
        frac(served.len() - sims.len(), served.len()),
    );
    m.insert(
        "serve.image_hit_rate",
        frac(sims.len() - image_builds, sims.len()),
    );
    m.insert("serve.pool_hit_rate", frac(pooled, sims.len()));
    m.insert("serve.simulations", sims.len() as f64);
    m.insert("serve.image_builds", image_builds as f64);
    m.insert("serve.machines_retired", p.retired as f64);
    m.insert("serve.serialize_us", quantile(&serialize_us, 0.5));
    m.insert("bench.trace_overhead_frac", p.wall_s / untraced_wall);
    m
}

pub fn run(ctx: &Ctx) -> Outcome {
    let programs = voltron_workloads::all(Scale::Test);
    let names: Vec<&'static str> = programs.iter().map(|w| w.name).collect();
    let touches = touch_reqs(&names);
    let mut out = Outcome::default();
    let (mut setups, mut walls, mut rps, mut mcps) = (vec![], vec![], vec![], vec![]);
    let (mut latencies, mut miss_latencies) = (vec![], vec![]);
    let mut h4 = None;
    let mut traced_metrics = Vec::new();
    let mut first_pass_rss = None;
    let start = Instant::now();
    let mut n = 0;
    while n == 0 || start.elapsed() < ctx.seconds {
        let reqs = stream(ctx.seed, n, &names);
        let mut rng = rng(ctx.seed, 0xc4ec_0000 + n as u64);
        let keep: Vec<u64> = (0..SAMPLE)
            .map(|_| rng.gen_range(0..REQUESTS as u64))
            .collect();
        let p = run_pass(ctx, &touches, &reqs, &keep, false);
        let (compared, sample_failed) = check_sample(&p.rows, &reqs, &programs);
        let failed =
            check_rows(ctx, &p.rows, &reqs) + check_rows(ctx, &p.touch, &touches) + sample_failed;
        ctx.row(
            n,
            false,
            vec![
                ("setup_s", Json::Num(p.setup_s)),
                ("wall_s", Json::Num(p.wall_s)),
                ("requests", Json::UInt(p.rows.len() as u64)),
                ("sim_cycles", Json::UInt(p.agg.cycles)),
                ("failed", Json::UInt(failed)),
            ],
        );
        setups.push(p.setup_s);
        walls.push(p.wall_s);
        rps.push(p.rows.len() as f64 / p.wall_s);
        mcps.push(p.agg.cycles as f64 / p.wall_s / 1e6);
        for r in &p.rows {
            latencies.push(r.latency_ms);
            if matches!(&r.served, Ok(s) if !s.result_hit) {
                miss_latencies.push(r.latency_ms);
            }
        }
        h4.get_or_insert_with(|| {
            let speedups: Vec<f64> = p
                .touch
                .iter()
                .filter_map(|r| r.served.as_ref().ok())
                .map(|s| s.speedup)
                .collect();
            sorted_mean(&speedups)
        });
        out.attempted += (p.rows.len() + p.touch.len()) as u64 + compared;
        out.failed += failed;
        // Each pass starts a new server; later passes only add what the
        // allocator retained from the earlier servers.
        first_pass_rss.get_or_insert_with(peak_rss_mb);
        if ctx.trace {
            let tp = run_pass(ctx, &touches, &reqs, &[], true);
            let tfailed = check_rows(ctx, &tp.rows, &reqs) + check_rows(ctx, &tp.touch, &touches);
            ctx.row(
                n,
                true,
                vec![
                    ("wall_s", Json::Num(tp.wall_s)),
                    ("failed", Json::UInt(tfailed)),
                ],
            );
            traced_metrics.push(layer_metrics(&tp, p.wall_s));
            out.attempted += (tp.rows.len() + tp.touch.len()) as u64;
            out.failed += tfailed;
            out.spans.extend(tp.spans);
        }
        n += 1;
    }
    out.metrics = if ctx.trace {
        median_metrics(&traced_metrics)
    } else {
        Metrics::from([
            ("setup_s", median(&setups)),
            ("wall_s", median(&walls)),
            ("sim_mcycles_per_s", median(&mcps)),
            ("req_per_s", median(&rps)),
            ("p50_ms", quantile(&latencies, 0.5)),
            ("p99_ms", quantile(&latencies, 0.99)),
            ("miss_p50_ms", quantile(&miss_latencies, 0.5)),
            ("peak_rss_mb", first_pass_rss.unwrap_or(0.0)),
            ("hybrid4_speedup_mean", h4.unwrap_or(0.0)),
        ])
    };
    out
}
