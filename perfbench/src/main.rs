//! `voltron-perfbench`: the repository's end-to-end and per-layer
//! benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_sweep|serve_mix|compile_cold --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload repeats seeded passes (set-up, timed part, checks) until
//! `--seconds` have elapsed and prints one result row per pass (stamped
//! with host cores, git rev and seed), followed by a final JSON line: `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones, measured with tracing off; with
//! `--trace 1` each pass runs untraced and then traced, and the metrics
//! are the per-layer ones from spans around each layer's public calls.
//! The exit code is 0 only when every check passed. See README.md.

mod compile_cold;
mod layers;
mod paper_sweep;
mod serve_mix;
mod trace;
mod util;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use voltron_core::report::Json;

use layers::{Metrics, END_TO_END, PER_LAYER};
use trace::{Span, Tracer};
use util::Ledger;

/// Everything a workload run needs from the command line and the host.
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Host cores: every workload runs one client thread per core.
    pub host_cores: usize,
    pub rev: String,
    pub ledger: Ledger,
    /// Time origin of every span.
    pub epoch: Instant,
}

impl Ctx {
    /// Print one result row, stamped with the host core count, git rev,
    /// seed and the process's peak memory so far.
    pub fn row(&self, pass: usize, traced: bool, fields: Vec<(&str, Json)>) {
        let mut obj = vec![
            ("row".to_string(), Json::Str(self.workload.into())),
            ("pass".to_string(), Json::UInt(pass as u64)),
            ("traced".to_string(), Json::UInt(u64::from(traced))),
            ("seed".to_string(), Json::UInt(self.seed)),
            ("host_cores".to_string(), Json::UInt(self.host_cores as u64)),
            ("rev".to_string(), Json::Str(self.rev.clone())),
            ("peak_rss_mb".to_string(), Json::Num(util::peak_rss_mb())),
        ];
        obj.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
        println!("{}", Json::Obj(obj).render());
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced
    /// run), without `ok_frac`, which `main` adds.
    pub metrics: Metrics,
    /// Every span recorded, written out when the run ends.
    pub spans: Vec<Span>,
}

/// Run `work` for every item on one client thread per host core; each
/// client takes the next item and keeps its own tracer and accumulator.
/// Returns the wall seconds, every client's accumulator, and all spans.
pub fn fan_out<T: Sync, A: Default + Send>(
    ctx: &Ctx,
    items: &[T],
    traced: bool,
    work: impl Fn(&mut Tracer, &T, &mut A) + Sync,
) -> (f64, Vec<A>, Vec<Span>) {
    let next = AtomicUsize::new(0);
    let t = Instant::now();
    let clients: Vec<(A, Vec<Span>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..ctx.host_cores)
            .map(|_| {
                s.spawn(|| {
                    let mut tr = Tracer::new(traced, ctx.epoch);
                    let mut acc = A::default();
                    while let Some(item) = items.get(next.fetch_add(1, Ordering::Relaxed)) {
                        work(&mut tr, item, &mut acc);
                    }
                    (acc, tr.into_spans())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let wall = t.elapsed().as_secs_f64();
    let mut spans = Vec::new();
    let accs = clients
        .into_iter()
        .map(|(acc, s)| {
            spans.extend(s);
            acc
        })
        .collect();
    (wall, accs, spans)
}

const WORKLOADS: [&str; 3] = ["paper_sweep", "serve_mix", "compile_cold"];

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload {} --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> (&'static str, u64, u64, bool) {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            usage(&format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| *w == value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value:?}"))),
                );
            }
            "--seed" => {
                seed = value
                    .parse()
                    .ok()
                    .or_else(|| usage("--seed needs an integer"))
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|&s: &u64| s > 0)
                    .or_else(|| usage("--seconds needs a positive integer"));
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage("--trace takes 0 or 1"),
                };
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(w), Some(s), Some(secs), Some(t)) => (w, s, secs, t),
        _ => usage("--workload, --seed, --seconds and --trace are all required"),
    }
}

fn main() {
    let (workload, seed, seconds, trace) = parse_args();
    let ctx = Ctx {
        workload,
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
        host_cores: util::host_cores(),
        rev: voltron_bench::harness::git_rev(),
        ledger: Ledger::open(),
        epoch: Instant::now(),
    };
    let mut out = match workload {
        "paper_sweep" => paper_sweep::run(&ctx),
        "serve_mix" => serve_mix::run(&ctx),
        _ => compile_cold::run(&ctx),
    };
    out.failed += ctx.ledger.violations();
    ctx.ledger.save();
    if trace {
        trace::write_spans(&format!("{workload}-{seed}"), &out.spans);
    }

    let (names, mut metrics) = if trace {
        let mut m: Metrics = PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect();
        m.extend(out.metrics);
        (PER_LAYER, m)
    } else {
        let mut m = out.metrics;
        let attempted = out.attempted.max(1) as f64;
        m.insert("ok_frac", 1.0 - out.failed as f64 / attempted);
        (END_TO_END, m)
    };
    let mut fields = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        let value = metrics
            .remove(name)
            .unwrap_or_else(|| panic!("{workload} did not report {name}"));
        assert!(
            value.is_finite(),
            "{workload}: {name} is not finite ({value})"
        );
        fields.push((
            name.to_string(),
            Json::Obj(vec![
                ("value".into(), Json::Num(value)),
                ("unit".into(), Json::Str(unit.into())),
            ]),
        ));
    }
    assert!(metrics.is_empty(), "unlisted metrics: {:?}", metrics.keys());
    let correct = out.failed == 0 && out.attempted > 0;
    // `Json` has no boolean, so the envelope is written by hand.
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        out.attempted.max(1),
        out.failed,
        Json::Obj(fields).render()
    );
    if !correct {
        eprintln!(
            "[perfbench] {workload}: {} of {} operations failed",
            out.failed, out.attempted
        );
        std::process::exit(1);
    }
}
