//! Profiling interpreter.
//!
//! The Voltron compiler is profile-driven in three places (paper §4):
//!
//! 1. **Statistical DOALL detection** needs, per loop, whether any
//!    cross-iteration memory dependence was *observed* during profiling.
//! 2. **eBUG** needs per-load cache-miss likelihood to weight
//!    load→consumer edges.
//! 3. **Parallelism selection** needs block execution counts and loop trip
//!    counts to focus on hot regions and skip short loops.
//!
//! This module runs the reference interpreter with an observer that
//! collects all three.

use crate::cfg::{Cfg, Dominators};
use crate::inst::InstRef;
use crate::interp::{self, InterpError, Observer};
use crate::loops::{LoopForest, LoopId};
use crate::program::{BlockId, FuncId, Function, Program};
use std::collections::HashMap;

/// Per-loop profile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoopProfile {
    /// How many times the loop was entered.
    pub invocations: u64,
    /// Total iterations across all invocations.
    pub total_iters: u64,
    /// True if any cross-iteration memory dependence (RAW/WAR/WAW at byte
    /// granularity) was observed in any invocation.
    pub cross_iter_dep: bool,
}

impl LoopProfile {
    /// Average trip count (0 if never invoked).
    pub fn avg_trip(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            self.total_iters as f64 / self.invocations as f64
        }
    }
}

/// Per-static-load profile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadProfile {
    /// Dynamic executions of this load.
    pub accesses: u64,
    /// How many missed in the profiling L1D model.
    pub misses: u64,
}

impl LoadProfile {
    /// Miss ratio in `[0, 1]` (0 if never executed).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// The collected profile of one program run.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Dynamic entries per block.
    pub block_counts: HashMap<(FuncId, BlockId), u64>,
    /// Per-loop statistics.
    pub loops: HashMap<(FuncId, LoopId), LoopProfile>,
    /// Per-load cache behavior.
    pub loads: HashMap<InstRef, LoadProfile>,
    /// Total interpreted instructions.
    pub steps: u64,
}

impl Profile {
    /// Block count lookup (0 when never executed).
    pub fn block_count(&self, f: FuncId, b: BlockId) -> u64 {
        self.block_counts.get(&(f, b)).copied().unwrap_or(0)
    }

    /// Loop profile lookup.
    pub fn loop_profile(&self, f: FuncId, l: LoopId) -> LoopProfile {
        self.loops.get(&(f, l)).copied().unwrap_or_default()
    }

    /// Load profile lookup.
    pub fn load_profile(&self, at: InstRef) -> LoadProfile {
        self.loads.get(&at).copied().unwrap_or_default()
    }
}

/// A small functional set-associative LRU cache used only for miss-rate
/// profiling (matching the paper's 4 KB, 2-way, 32 B-line L1D).
#[derive(Debug, Clone)]
pub struct FunctionalCache {
    sets: Vec<Vec<u64>>, // per-set tag list in LRU order (front = MRU)
    assoc: usize,
    line_shift: u32,
    set_mask: u64,
}

impl FunctionalCache {
    /// Create a cache of `size` bytes, `assoc` ways, `line` bytes per line.
    ///
    /// # Panics
    /// Panics unless size/assoc/line are powers of two that divide evenly.
    pub fn new(size: u64, assoc: usize, line: u64) -> FunctionalCache {
        assert!(line.is_power_of_two() && size.is_power_of_two());
        let nsets = size / line / assoc as u64;
        assert!(nsets.is_power_of_two() && nsets > 0);
        FunctionalCache {
            sets: vec![Vec::new(); nsets as usize],
            assoc,
            line_shift: line.trailing_zeros(),
            set_mask: nsets - 1,
        }
    }

    /// The paper's L1D configuration.
    pub fn paper_l1d() -> FunctionalCache {
        FunctionalCache::new(4096, 2, 32)
    }

    /// Touch an address; returns true on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let ways = &mut self.sets[set];
        if let Some(pos) = ways.iter().position(|t| *t == line) {
            let t = ways.remove(pos);
            ways.insert(0, t);
            true
        } else {
            ways.insert(0, line);
            ways.truncate(self.assoc);
            false
        }
    }
}

/// One 8-byte-aligned granule of a loop invocation's dependence shadow.
///
/// The byte-granularity rule only asks whether a byte was last written
/// (read) in an iteration *before* the current one, and a loop's
/// iteration number only grows, so a granule keeps, per byte, whether it
/// was touched in the granule's latest iteration (`stamp`) or earlier —
/// the per-byte last-writer and last-reader iterations reduced to what the
/// rule compares. Each mask has one bit per byte of the granule.
#[derive(Debug, Clone, Copy, Default)]
struct Granule {
    /// The latest iteration that touched this granule.
    stamp: u64,
    /// Bytes written in iteration `stamp`.
    wrote_now: u8,
    /// Bytes read in iteration `stamp`.
    read_now: u8,
    /// Bytes last written before iteration `stamp`.
    wrote_before: u8,
    /// Bytes last read before iteration `stamp`.
    read_before: u8,
}

/// Hasher for granule numbers. They come from the profiled program's own
/// addresses, never from outside input, so one multiply spreads them
/// well enough (sequential granules land in distinct buckets).
#[derive(Default)]
struct GranuleHasher(u64);

impl std::hash::Hasher for GranuleHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("granules hash through write_u64");
    }

    fn write_u64(&mut self, granule: u64) {
        self.0 = granule.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type Shadow = HashMap<u64, Granule, std::hash::BuildHasherDefault<GranuleHasher>>;

/// One invocation of a loop in flight.
#[derive(Debug)]
struct ActiveLoop {
    id: LoopId,
    iter: u64,
    /// Dependence shadow of this invocation, keyed by `addr >> 3`.
    mem: Shadow,
    dep_found: bool,
}

impl ActiveLoop {
    fn new(id: LoopId) -> ActiveLoop {
        ActiveLoop {
            id,
            iter: 0,
            mem: Shadow::default(),
            dep_found: false,
        }
    }

    /// Record an access to the bytes of `mask` in `granule`; true when it
    /// completes a cross-iteration RAW, WAR or WAW dependence.
    fn touch(&mut self, granule: u64, mask: u8, is_store: bool) -> bool {
        let k = self.iter;
        let g = self.mem.entry(granule).or_default();
        if g.stamp < k {
            g.wrote_before |= g.wrote_now;
            g.read_before |= g.read_now;
            g.wrote_now = 0;
            g.read_now = 0;
            g.stamp = k;
        }
        if is_store {
            if (g.wrote_before | g.read_before) & mask != 0 {
                return true;
            }
            g.wrote_now |= mask;
        } else {
            if g.wrote_before & mask != 0 {
                return true;
            }
            g.read_now |= mask;
            g.read_before &= !mask;
        }
        false
    }
}

#[derive(Debug)]
struct FrameCtx {
    func: FuncId,
    stack: Vec<ActiveLoop>,
}

/// One function's loop tables and dense counters.
struct FuncState {
    /// `opens[b]`: the loop that block `b` heads, if `b` is the header of
    /// its innermost loop.
    opens: Vec<Option<LoopId>>,
    /// Block-membership bitmap of each loop, `words` words per loop.
    members: Vec<u64>,
    words: usize,
    block_counts: Vec<u64>,
    loops: Vec<LoopProfile>,
    /// `loads[load_base[b] + i]` profiles instruction `i` of block `b`
    /// (`load_base` has one extra entry, the total).
    load_base: Vec<usize>,
    loads: Vec<LoadProfile>,
}

impl FuncState {
    fn new(func: &Function, forest: &LoopForest) -> FuncState {
        let nblocks = func.blocks.len();
        let words = nblocks.div_ceil(64);
        let mut members = vec![0u64; words * forest.loops.len()];
        for (l, lp) in forest.loops.iter().enumerate() {
            for b in &lp.blocks {
                members[l * words + b.idx() / 64] |= 1 << (b.idx() % 64);
            }
        }
        let opens = (0..nblocks)
            .map(|b| {
                let block = BlockId(b as u32);
                forest
                    .innermost_of(block)
                    .filter(|&l| forest.get(l).header == block)
            })
            .collect();
        let mut load_base = Vec::with_capacity(nblocks + 1);
        let mut total = 0;
        for blk in &func.blocks {
            load_base.push(total);
            total += blk.insts.len();
        }
        load_base.push(total);
        FuncState {
            opens,
            members,
            words,
            block_counts: vec![0; nblocks],
            loops: vec![LoopProfile::default(); forest.loops.len()],
            load_base,
            loads: vec![LoadProfile::default(); total],
        }
    }

    fn contains(&self, l: LoopId, b: BlockId) -> bool {
        self.members[l.idx() * self.words + b.idx() / 64] >> (b.idx() % 64) & 1 != 0
    }

    /// Fold a finished invocation into its loop's profile.
    fn close(&mut self, al: ActiveLoop) {
        let entry = &mut self.loops[al.id.idx()];
        entry.invocations += 1;
        entry.total_iters += al.iter + 1;
        entry.cross_iter_dep |= al.dep_found;
    }
}

struct Profiler {
    funcs: Vec<FuncState>,
    frames: Vec<FrameCtx>,
    cache: FunctionalCache,
}

impl Profiler {
    fn record_access(&mut self, addr: u64, bytes: u64, is_store: bool) {
        let frame = match self.frames.last_mut() {
            Some(f) => f,
            None => return,
        };
        debug_assert!((1..=8).contains(&bytes), "accesses are 1-8 bytes");
        // The accessed bytes as a mask over two consecutive granules.
        let span = ((1u16 << bytes) - 1) << (addr & 7);
        let granule = addr >> 3;
        let (lo, hi) = (span as u8, (span >> 8) as u8);
        for al in &mut frame.stack {
            if al.dep_found {
                continue;
            }
            if al.touch(granule, lo, is_store)
                || (hi != 0 && al.touch(granule.wrapping_add(1), hi, is_store))
            {
                al.dep_found = true;
                al.mem = Shadow::default(); // free memory; flag already latched
            }
        }
    }

    /// Close every open invocation and convert the dense counters to a
    /// [`Profile`], with an entry for each block, loop and load that ran.
    fn finish(mut self, steps: u64) -> Profile {
        // Drain remaining frames (main halts without returning).
        while let Some(frame) = self.frames.pop() {
            let fs = &mut self.funcs[frame.func.idx()];
            for al in frame.stack.into_iter().rev() {
                fs.close(al);
            }
        }
        let mut profile = Profile {
            steps,
            ..Profile::default()
        };
        for (fi, fs) in self.funcs.iter().enumerate() {
            let func = FuncId(fi as u32);
            for (b, &n) in fs.block_counts.iter().enumerate() {
                if n > 0 {
                    profile.block_counts.insert((func, BlockId(b as u32)), n);
                }
            }
            for (l, lp) in fs.loops.iter().enumerate() {
                if lp.invocations > 0 {
                    profile.loops.insert((func, LoopId(l as u32)), *lp);
                }
            }
            for (b, span) in fs.load_base.windows(2).enumerate() {
                for (index, lp) in fs.loads[span[0]..span[1]].iter().enumerate() {
                    if lp.accesses > 0 {
                        let at = InstRef {
                            func,
                            block: BlockId(b as u32),
                            index,
                        };
                        profile.loads.insert(at, *lp);
                    }
                }
            }
        }
        profile
    }
}

impl Observer for Profiler {
    fn on_block(&mut self, func: FuncId, block: BlockId) {
        let fs = &mut self.funcs[func.idx()];
        fs.block_counts[block.idx()] += 1;
        let frame = self.frames.last_mut().expect("frame exists");
        debug_assert_eq!(frame.func, func);
        // Close loops that no longer contain this block.
        while let Some(top) = frame.stack.last() {
            if fs.contains(top.id, block) {
                break;
            }
            let al = frame.stack.pop().expect("non-empty");
            fs.close(al);
        }
        // Entering a header either advances or opens an invocation.
        if let Some(lid) = fs.opens[block.idx()] {
            match frame.stack.last_mut() {
                Some(top) if top.id == lid => top.iter += 1,
                _ => frame.stack.push(ActiveLoop::new(lid)),
            }
        }
    }

    fn on_load(&mut self, at: InstRef, addr: u64, bytes: u64) {
        let hit = self.cache.access(addr);
        let fs = &mut self.funcs[at.func.idx()];
        let lp = &mut fs.loads[fs.load_base[at.block.idx()] + at.index];
        lp.accesses += 1;
        if !hit {
            lp.misses += 1;
        }
        self.record_access(addr, bytes, false);
    }

    fn on_store(&mut self, _at: InstRef, addr: u64, bytes: u64) {
        self.cache.access(addr);
        self.record_access(addr, bytes, true);
    }

    fn on_call(&mut self, func: FuncId) {
        self.frames.push(FrameCtx {
            func,
            stack: Vec::new(),
        });
    }

    fn on_ret(&mut self, _func: FuncId) {
        let frame = self.frames.pop().expect("frame exists");
        let fs = &mut self.funcs[frame.func.idx()];
        for al in frame.stack.into_iter().rev() {
            fs.close(al);
        }
    }
}

/// Loop forests for every function of a program (computed once, shared by
/// the profiler and the compiler).
pub fn loop_forests(program: &Program) -> Vec<LoopForest> {
    program
        .funcs
        .iter()
        .map(|f| {
            let cfg = Cfg::build(f);
            let dom = Dominators::compute(&cfg);
            LoopForest::build(&cfg, &dom)
        })
        .collect()
}

/// Profile a program by interpreting it.
///
/// # Errors
/// Propagates interpreter failures.
pub fn profile(program: &Program, fuel: u64) -> Result<Profile, InterpError> {
    let forests = loop_forests(program);
    let mut p = Profiler {
        funcs: program
            .funcs
            .iter()
            .zip(&forests)
            .map(|(f, forest)| FuncState::new(f, forest))
            .collect(),
        frames: Vec::new(),
        cache: FunctionalCache::paper_l1d(),
    };
    let outcome = interp::run_observed(program, fuel, &mut p)?;
    Ok(p.finish(outcome.steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::loops::LoopId;

    /// A DOALL-style loop: a[i] = i (independent iterations).
    fn doall_program() -> (Program, u64) {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.data_mut().zeroed("a", 8 * 64);
        let mut f = pb.function("main");
        let base = f.ldi(a as i64);
        f.counted_loop(0i64, 64i64, 1, |f, iv| {
            let off = f.shl(iv, 3i64);
            let addr = f.add(base, off);
            f.store8(addr, 0, iv);
        });
        f.halt();
        pb.finish_function(f);
        (pb.finish(), a)
    }

    /// A recurrence: a[i] = a[i-1] + 1 (cross-iteration RAW).
    fn recurrence_program() -> Program {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.data_mut().zeroed("a", 8 * 64);
        let mut f = pb.function("main");
        let base = f.ldi(a as i64);
        f.counted_loop(1i64, 64i64, 1, |f, iv| {
            let off = f.shl(iv, 3i64);
            let addr = f.add(base, off);
            let prev = f.load8(addr, -8);
            let v = f.add(prev, 1i64);
            f.store8(addr, 0, v);
        });
        f.halt();
        pb.finish_function(f);
        pb.finish()
    }

    #[test]
    fn doall_loop_has_no_cross_dep() {
        let (p, _) = doall_program();
        let prof = profile(&p, 1_000_000).unwrap();
        let lp = prof.loop_profile(p.main, LoopId(0));
        assert_eq!(lp.invocations, 1);
        assert_eq!(lp.total_iters, 65); // 64 body iterations + exit test
        assert!(!lp.cross_iter_dep);
    }

    #[test]
    fn recurrence_has_cross_dep() {
        let p = recurrence_program();
        let prof = profile(&p, 1_000_000).unwrap();
        let lp = prof.loop_profile(p.main, LoopId(0));
        assert!(lp.cross_iter_dep);
    }

    #[test]
    fn load_misses_are_counted() {
        // Stream through 32 KB so the 4 KB cache must miss repeatedly.
        let mut pb = ProgramBuilder::new("t");
        let a = pb.data_mut().zeroed("a", 32 * 1024);
        let mut f = pb.function("main");
        let base = f.ldi(a as i64);
        let acc = f.ldi(0);
        f.counted_loop(0i64, 4096i64, 1, |f, iv| {
            let off = f.shl(iv, 3i64);
            let addr = f.add(base, off);
            let v = f.load8(addr, 0);
            let s = f.add(acc, v);
            f.mov_to(acc, s);
        });
        f.halt();
        pb.finish_function(f);
        let p = pb.finish();
        let prof = profile(&p, 10_000_000).unwrap();
        let total_misses: u64 = prof.loads.values().map(|l| l.misses).sum();
        // 4096 loads * 8B = 32 KB streamed with 32B lines: 1024 misses.
        assert!(total_misses >= 1000, "got {total_misses}");
    }

    #[test]
    fn functional_cache_lru() {
        let mut c = FunctionalCache::new(64, 2, 16); // 2 sets, 2 ways
        assert!(!c.access(0)); // set 0
        assert!(!c.access(32)); // set 0
        assert!(c.access(0)); // hit, now MRU
        assert!(!c.access(64)); // set 0 -> evicts 32
        assert!(c.access(0));
        assert!(!c.access(32));
    }

    /// Profile `main = nest(base)` over a zeroed 1 KB array whose 8-aligned
    /// base sits 64 bytes in (so small negative offsets stay in bounds),
    /// and return whether each loop (in `LoopId` order) saw a
    /// cross-iteration dependence.
    fn deps_of(nest: impl FnOnce(&mut crate::builder::FunctionBuilder, crate::Reg)) -> Vec<bool> {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.data_mut().zeroed("a", 1024);
        assert_eq!(a % 8, 0, "the shadow tests rely on an aligned base");
        let mut f = pb.function("main");
        let base = f.ldi(a as i64 + 64);
        nest(&mut f, base);
        f.halt();
        pb.finish_function(f);
        let p = pb.finish();
        let prof = profile(&p, 1_000_000).unwrap();
        let n = loop_forests(&p)[p.main.idx()].loops.len();
        (0..n)
            .map(|l| {
                let lp = prof.loop_profile(p.main, LoopId(l as u32));
                assert!(lp.invocations > 0, "loop {l} never ran");
                lp.cross_iter_dep
            })
            .collect()
    }

    /// `base + 8 * iv`.
    fn slot(
        f: &mut crate::builder::FunctionBuilder,
        base: crate::Reg,
        iv: crate::Reg,
    ) -> crate::Reg {
        let off = f.shl(iv, 3i64);
        f.add(base, off)
    }

    #[test]
    fn straddling_access_covers_both_words() {
        // Iteration i stores 8 bytes at 8i+4, half in each aligned word;
        // iteration i+1 then loads the upper half (RAW through the second
        // word only).
        let deps = deps_of(|f, base| {
            f.counted_loop(0i64, 8i64, 1, |f, iv| {
                let addr = slot(f, base, iv);
                f.load4(addr, 0);
                f.store8(addr, 4, iv);
            });
        });
        assert_eq!(deps, [true]);
        // The same straddling word loaded and stored in one iteration only.
        let deps = deps_of(|f, base| {
            f.counted_loop(0i64, 8i64, 1, |f, iv| {
                let addr = slot(f, base, iv);
                let v = f.load8(addr, 4);
                f.store8(addr, 4, v);
            });
        });
        assert_eq!(deps, [false]);
    }

    #[test]
    fn narrow_store_then_wider_load_is_raw() {
        // A 1-byte store into the next iteration's word, which that
        // iteration reads with a 4-byte load.
        let deps = deps_of(|f, base| {
            f.counted_loop(0i64, 8i64, 1, |f, iv| {
                let addr = slot(f, base, iv);
                f.load4(addr, 0);
                f.store1(addr, 10, iv);
            });
        });
        assert_eq!(deps, [true]);
        // A byte just past the next load's 4 bytes is no dependence.
        let deps = deps_of(|f, base| {
            f.counted_loop(0i64, 8i64, 1, |f, iv| {
                let addr = slot(f, base, iv);
                f.load4(addr, 0);
                f.store1(addr, 12, iv);
            });
        });
        assert_eq!(deps, [false]);
    }

    #[test]
    fn load_then_later_store_is_war() {
        // Iteration i reads word i+1, which iteration i+1 overwrites.
        let deps = deps_of(|f, base| {
            f.counted_loop(0i64, 8i64, 1, |f, iv| {
                let addr = slot(f, base, iv);
                let v = f.load8(addr, 8);
                f.store8(addr, 0, v);
            });
        });
        assert_eq!(deps, [true]);
    }

    #[test]
    fn reuse_within_one_iteration_is_no_dependence() {
        let deps = deps_of(|f, base| {
            f.counted_loop(0i64, 8i64, 1, |f, iv| {
                let addr = slot(f, base, iv);
                f.store8(addr, 0, iv);
                let v = f.load8(addr, 0);
                f.store4(addr, 2, v);
                let w = f.load1(addr, 5);
                f.store1(addr, 7, w);
            });
        });
        assert_eq!(deps, [false]);
    }

    #[test]
    fn only_the_latest_reader_counts() {
        // Every iteration reads the same word; the last one also writes
        // it. The rule keeps each byte's latest reader only, and that is
        // the writing iteration itself, so no WAR is recorded.
        let deps = deps_of(|f, base| {
            f.counted_loop(0i64, 8i64, 1, |f, iv| {
                let v = f.load8(base, 0);
                let last = f.cmp(crate::CmpCc::Eq, iv, 7i64);
                f.if_then(last, |f| f.store8(base, 0, v));
            });
        });
        assert_eq!(deps, [false]);
    }

    #[test]
    fn reinvoked_loop_starts_with_a_clean_shadow() {
        // Inner iteration i of outer iteration j writes word i - j, so the
        // second invocation rewrites in iteration 1 what the first wrote
        // in iteration 0. Only a stale shadow would call that a
        // dependence of the inner loop; the outer loop does carry it.
        let deps = deps_of(|f, base| {
            f.counted_loop(0i64, 2i64, 1, |f, j| {
                f.counted_loop(0i64, 4i64, 1, |f, i| {
                    let k = f.sub(i, j);
                    let addr = slot(f, base, k);
                    f.store8(addr, 0, i);
                });
            });
        });
        assert_eq!(deps, [true, false]);
    }

    #[test]
    fn inner_dependence_is_not_an_outer_one() {
        // Inner RAW chain within each outer iteration's own 64-byte row.
        let deps = deps_of(|f, base| {
            f.counted_loop(0i64, 4i64, 1, |f, j| {
                let row = f.shl(j, 6i64);
                let rbase = f.add(base, row);
                f.counted_loop(0i64, 4i64, 1, |f, i| {
                    let addr = slot(f, rbase, i);
                    let v = f.load8(addr, 0);
                    f.store8(addr, 8, v);
                });
            });
        });
        assert_eq!(deps, [false, true]);
    }

    #[test]
    fn block_counts_accumulate() {
        let (p, _) = doall_program();
        let prof = profile(&p, 1_000_000).unwrap();
        // Header executes 65 times (64 iterations + final test).
        let max = prof.block_counts.values().max().copied().unwrap_or(0);
        assert!(max >= 64);
    }
}
