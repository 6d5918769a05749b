//! Small shared helpers: the seeded generator, order statistics, the
//! process's peak memory, and the ledger that holds simulated cycles to
//! exact repetition.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The seeded generator of stream `stream` (the in-tree `rand` stand-in,
/// fully specified, so a seed means the same inputs everywhere).
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// The `q`-quantile (nearest rank) of `xs`; 0 for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median, averaging the middle pair of an even-sized sample.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The host's core count (`available_parallelism`).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// FNV-1a, usable as a `fmt::Write` sink so a `Debug` rendering can be
/// fingerprinted without materializing it.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Fingerprint of a value's `Debug` rendering.
    pub fn of_debug(v: &impl std::fmt::Debug) -> u64 {
        let mut h = Fnv::default();
        write!(h, "{v:?}").expect("hashing never fails");
        h.0
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// Simulated cycles keyed by configuration. Every value must repeat exactly — across passes,
/// between the traced and untraced paths, across workloads sharing a
/// configuration, and across runs of one build (the ledger persists next
/// to the executable, keyed by a hash of it). A disagreement is a
/// correctness failure.
pub struct Ledger {
    seen: Mutex<BTreeMap<String, u64>>,
    violations: AtomicU64,
    path: Option<PathBuf>,
}

impl Ledger {
    /// Load the ledger of this executable, if earlier runs left one.
    pub fn open() -> Ledger {
        let path = std::env::current_exe().ok().and_then(|exe| {
            let bytes = std::fs::read(&exe).ok()?;
            let mut h = Fnv::default();
            h.bytes(&bytes);
            Some(
                exe.parent()?
                    .join(format!("perfbench-ledger-{:016x}.tsv", h.0)),
            )
        });
        let mut seen = BTreeMap::new();
        if let Some(text) = path.as_ref().and_then(|p| std::fs::read_to_string(p).ok()) {
            for line in text.lines() {
                if let Some((k, v)) = line.split_once('\t') {
                    if let Ok(v) = v.parse() {
                        seen.insert(k.to_string(), v);
                    }
                }
            }
        }
        Ledger {
            seen: Mutex::new(seen),
            violations: AtomicU64::new(0),
            path,
        }
    }

    /// Record `value` under `key`, counting a violation if the key
    /// already holds a different value.
    pub fn check(&self, key: &str, value: u64) {
        let mut seen = self.seen.lock().expect("ledger lock poisoned");
        let old = *seen.entry(key.to_string()).or_insert(value);
        if old != value {
            eprintln!("[perfbench] not repeatable: {key} was {old}, now {value}");
            self.violations.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn violations(&self) -> u64 {
        self.violations.load(Ordering::Relaxed)
    }

    /// Write the ledger back for the next run of this executable.
    pub fn save(&self) {
        let Some(path) = &self.path else { return };
        let mut text = String::new();
        for (k, v) in self.seen.lock().expect("ledger lock poisoned").iter() {
            let _ = writeln!(text, "{k}\t{v}");
        }
        let tmp = path.with_extension("tmp");
        if std::fs::write(&tmp, text).is_ok() {
            let _ = std::fs::rename(&tmp, path);
        }
    }
}
