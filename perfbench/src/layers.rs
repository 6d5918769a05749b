//! Metric names and units, and the simulated (exact) per-layer metrics
//! aggregated from `RunResult` / `MachineStats`.

use std::collections::BTreeMap;

use voltron_core::{RunResult, StallCategory, Strategy};
use voltron_sim::CoherenceBackend;

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// End-to-end metrics (the timed run), with units. Every workload reports
/// every one; see the README for how each reads on each workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("req_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("miss_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
    ("hybrid4_speedup_mean", "x"),
];

/// Per-layer metrics (the traced run), with units. A layer that does no
/// work on a workload, or that runs inside the serve engine where no
/// benchmark-side span can see it, reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.build_s", "s"),
    ("ir.golden_s", "s"),
    ("compiler.front_end_s", "s"),
    ("compiler.front_end_calls", "count"),
    ("compiler.plan_emit_s", "s"),
    ("compiler.plan_emit_calls", "count"),
    ("compiler.unstable_images", "count"),
    ("sim.build_s", "s"),
    ("sim.run_s", "s"),
    ("sim.runs", "count"),
    ("sim.ticked_cycles", "cycles"),
    ("sim.skip_efficiency", "ratio"),
    ("sim.ns_per_ticked_cycle", "ns"),
    ("core.compare_s", "s"),
    ("sim.cycles", "cycles"),
    ("sim.dynamic_insts", "count"),
    ("sim.l1d_miss_rate", "frac"),
    ("sim.bus_util", "frac"),
    ("sim.net_avg_latency", "cycles"),
    ("sim.tm_commit_ratio", "frac"),
    ("sim.stall.dstall", "frac"),
    ("sim.stall.recv_data", "frac"),
    ("sim.stall.sync", "frac"),
    ("sim.coupled_frac", "frac"),
    ("serve.exec_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.result_hit_rate", "frac"),
    ("serve.image_hit_rate", "frac"),
    ("serve.pool_hit_rate", "frac"),
    ("serve.simulations", "count"),
    ("serve.image_builds", "count"),
    ("serve.machines_retired", "count"),
    ("serve.serialize_us", "us"),
    ("bench.trace_overhead_frac", "ratio"),
];

/// The ledger key of one simulated configuration.
pub fn config_key(
    scale: &str,
    program: &str,
    strategy: Strategy,
    cores: usize,
    backend: CoherenceBackend,
) -> String {
    format!(
        "cycles/{scale}/{program}/{strategy}/{cores}/{}{}",
        backend.label(),
        backend.bank_count()
    )
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The mean of `xs` summed in sorted order, so it does not depend on
/// the order client threads finished in.
pub fn sorted_mean(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    voltron_core::report::mean(&v)
}

/// Sums over simulated runs, plus the 4-core hybrid rows that explain
/// `hybrid4_speedup_mean` (stall shares and coupled residency).
#[derive(Debug, Default, Clone)]
pub struct SimAgg {
    pub runs: u64,
    pub cycles: u64,
    pub ticked: u64,
    insts: u64,
    l1d_access: u64,
    l1d_miss: u64,
    bus_busy: u64,
    bus_capacity: u64,
    net_msgs: u64,
    net_latency: u64,
    tm_commits: u64,
    tm_attempts: u64,
    h4_speedup: Vec<f64>,
    h4_dstall: Vec<f64>,
    h4_recv: Vec<f64>,
    h4_sync: Vec<f64>,
    h4_coupled: Vec<f64>,
}

impl SimAgg {
    pub fn add(&mut self, r: &RunResult, baseline_cycles: u64) {
        let s = &r.stats;
        self.runs += 1;
        self.cycles += r.cycles;
        self.ticked += r.ticked_cycles;
        self.insts += s.dynamic_insts;
        for &(hits, misses) in &s.mem.l1d {
            self.l1d_access += hits + misses;
            self.l1d_miss += misses;
        }
        self.bus_busy += s.mem.bus_busy_cycles;
        self.bus_capacity += s.cycles * s.mem.bank_busy_cycles.len().max(1) as u64;
        self.net_msgs += s.net.messages;
        self.net_latency += s.net.total_latency;
        self.tm_commits += s.tm.commits;
        self.tm_attempts += s.tm.commits + s.tm.aborts;
        if r.strategy == Strategy::Hybrid && r.cores == 4 {
            self.h4_speedup.push(r.speedup);
            self.h4_dstall
                .push(r.normalized_stall(StallCategory::DStall, baseline_cycles));
            self.h4_recv
                .push(r.normalized_stall(StallCategory::RecvData, baseline_cycles));
            self.h4_sync
                .push(r.normalized_stall(StallCategory::Sync, baseline_cycles));
            self.h4_coupled.push(r.coupled_fraction());
        }
    }

    pub fn merge(&mut self, o: SimAgg) {
        self.runs += o.runs;
        self.cycles += o.cycles;
        self.ticked += o.ticked;
        self.insts += o.insts;
        self.l1d_access += o.l1d_access;
        self.l1d_miss += o.l1d_miss;
        self.bus_busy += o.bus_busy;
        self.bus_capacity += o.bus_capacity;
        self.net_msgs += o.net_msgs;
        self.net_latency += o.net_latency;
        self.tm_commits += o.tm_commits;
        self.tm_attempts += o.tm_attempts;
        self.h4_speedup.extend(o.h4_speedup);
        self.h4_dstall.extend(o.h4_dstall);
        self.h4_recv.extend(o.h4_recv);
        self.h4_sync.extend(o.h4_sync);
        self.h4_coupled.extend(o.h4_coupled);
    }

    /// Mean 4-core hybrid speedup over the runs seen (Fig. 13's average).
    pub fn hybrid4_speedup_mean(&self) -> f64 {
        sorted_mean(&self.h4_speedup)
    }

    /// The simulated per-layer metrics.
    pub fn fill(&self, m: &mut Metrics) {
        m.insert("sim.runs", self.runs as f64);
        m.insert("sim.cycles", self.cycles as f64);
        m.insert("sim.ticked_cycles", self.ticked as f64);
        m.insert(
            "sim.skip_efficiency",
            ratio(self.cycles as f64, self.ticked as f64),
        );
        m.insert("sim.dynamic_insts", self.insts as f64);
        m.insert(
            "sim.l1d_miss_rate",
            ratio(self.l1d_miss as f64, self.l1d_access as f64),
        );
        m.insert(
            "sim.bus_util",
            ratio(self.bus_busy as f64, self.bus_capacity as f64),
        );
        m.insert(
            "sim.net_avg_latency",
            ratio(self.net_latency as f64, self.net_msgs as f64),
        );
        m.insert(
            "sim.tm_commit_ratio",
            ratio(self.tm_commits as f64, self.tm_attempts as f64),
        );
        m.insert("sim.stall.dstall", sorted_mean(&self.h4_dstall));
        m.insert("sim.stall.recv_data", sorted_mean(&self.h4_recv));
        m.insert("sim.stall.sync", sorted_mean(&self.h4_sync));
        m.insert("sim.coupled_frac", sorted_mean(&self.h4_coupled));
    }
}

/// Fill the timed per-layer metrics from span totals.
pub fn fill_spans(m: &mut Metrics, totals: &BTreeMap<&'static str, (u64, f64)>) {
    let secs = |name: &str| totals.get(name).map_or(0.0, |t| t.1);
    let calls = |name: &str| totals.get(name).map_or(0, |t| t.0) as f64;
    m.insert("workloads.build_s", secs("workloads.build"));
    m.insert("ir.golden_s", secs("ir.golden"));
    m.insert("compiler.front_end_s", secs("compiler.front_end"));
    m.insert("compiler.front_end_calls", calls("compiler.front_end"));
    m.insert("compiler.plan_emit_s", secs("compiler.plan_emit"));
    m.insert("compiler.plan_emit_calls", calls("compiler.plan_emit"));
    m.insert("sim.build_s", secs("sim.build"));
    m.insert("sim.run_s", secs("sim.run"));
    m.insert("core.compare_s", secs("core.compare"));
}

/// `sim.ns_per_ticked_cycle` from the span time and the ticked count
/// (call after [`fill_spans`] and [`SimAgg::fill`]).
pub fn fill_tick_cost(m: &mut Metrics) {
    let run_s = m.get("sim.run_s").copied().unwrap_or(0.0);
    let ticked = m.get("sim.ticked_cycles").copied().unwrap_or(0.0);
    m.insert("sim.ns_per_ticked_cycle", ratio(run_s * 1e9, ticked));
}

/// Per-name median over the traced passes.
pub fn median_metrics(passes: &[Metrics]) -> Metrics {
    let mut out = Metrics::new();
    if let Some(first) = passes.first() {
        for &name in first.keys() {
            let vals: Vec<f64> = passes.iter().filter_map(|m| m.get(name).copied()).collect();
            out.insert(name, crate::util::median(&vals));
        }
    }
    out
}
