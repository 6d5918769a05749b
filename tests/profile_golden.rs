//! Pins the profiler's output on every program at both scales.
//!
//! The compiler's decisions (statistical DOALL, eBUG weights, region
//! selection) are all functions of `profile::profile` on the inlined
//! program, so any change to the profiler must leave its `Profile`
//! bit-identical. Each pin is a digest of the profile's maps in sorted
//! order, so `HashMap` iteration order does not enter it.

use voltron_compiler::inline::inline_all;
use voltron_compiler::CompileOptions;
use voltron_ir::profile::{self, Profile};
use voltron_ir::{FuncId, Program};
use voltron_workloads::{all, Scale};

/// FNV-1a over a stream of `u64` words.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest(p: &Profile) -> u64 {
    let mut d = Digest::new();
    let mut blocks: Vec<_> = p.block_counts.iter().collect();
    blocks.sort();
    d.word(blocks.len() as u64);
    for ((f, b), n) in blocks {
        d.word(u64::from(f.0));
        d.word(u64::from(b.0));
        d.word(*n);
    }
    let mut loops: Vec<_> = p.loops.iter().collect();
    loops.sort_by_key(|(k, _)| **k);
    d.word(loops.len() as u64);
    for ((f, l), lp) in loops {
        d.word(u64::from(f.0));
        d.word(u64::from(l.0));
        d.word(lp.invocations);
        d.word(lp.total_iters);
        d.word(u64::from(lp.cross_iter_dep));
    }
    let mut loads: Vec<_> = p.loads.iter().collect();
    loads.sort_by_key(|(k, _)| **k);
    d.word(loads.len() as u64);
    for (at, lp) in loads {
        d.word(u64::from(at.func.0));
        d.word(u64::from(at.block.0));
        d.word(at.index as u64);
        d.word(lp.accesses);
        d.word(lp.misses);
    }
    d.word(p.steps);
    d.0
}

fn profile_digests(scale: Scale) -> Vec<(&'static str, u64)> {
    let fuel = CompileOptions::default().profile_fuel;
    all(scale)
        .into_iter()
        .map(|w| {
            let flat = Program {
                name: w.program.name.clone(),
                funcs: vec![inline_all(&w.program).expect("inlines")],
                main: FuncId(0),
                data: w.program.data.clone(),
            };
            let prof = profile::profile(&flat, fuel)
                .unwrap_or_else(|e| panic!("{}: profile: {e}", w.name));
            (w.name, digest(&prof))
        })
        .collect()
}

fn check(scale: Scale, pinned: &[(&str, u64)]) {
    let got = profile_digests(scale);
    let table: String = got
        .iter()
        .map(|(n, d)| format!("    (\"{n}\", {d:#018x}),\n"))
        .collect();
    assert_eq!(
        got.len(),
        pinned.len(),
        "{scale:?}: program count changed; current digests:\n{table}"
    );
    for ((name, d), (pname, pd)) in got.iter().zip(pinned) {
        assert_eq!(name, pname, "{scale:?}: program order changed");
        assert_eq!(
            d, pd,
            "{scale:?} {name}: profile digest changed; current digests:\n{table}"
        );
    }
}

const TEST_PINS: &[(&str, u64)] = &[
    ("052.alvinn", 0xd7a3aa31405545b8),
    ("056.ear", 0x2320d1f628c5b0c4),
    ("132.ijpeg", 0x077796928ccedebe),
    ("164.gzip", 0xc6e0f04c7ae88872),
    ("171.swim", 0xeda28403425da86b),
    ("172.mgrid", 0x145abc58606a7fe2),
    ("175.vpr", 0x8ee0363a03b09bfd),
    ("177.mesa", 0xfdb11817232a363d),
    ("179.art", 0x2085910e1f494a48),
    ("183.equake", 0x9516b13e02363fa4),
    ("197.parser", 0x18d5a626c1c90d11),
    ("255.vortex", 0x2dd63b33f2d2e717),
    ("256.bzip2", 0x7b98c1f5fb6b1031),
    ("cjpeg", 0xd08eb786a889c38e),
    ("djpeg", 0x06973b4986103465),
    ("epic", 0x87d6224cf76cda18),
    ("g721decode", 0xba128da1512b8d84),
    ("g721encode", 0xa0d2791d7dd44209),
    ("gsmdecode", 0xebf633c16757098e),
    ("gsmencode", 0x918f45dcd0e0366d),
    ("mpeg2dec", 0x0209f7cd4fc612bc),
    ("mpeg2enc", 0xd6d61bdaf6f5a436),
    ("rawcaudio", 0x3d26591e0846d73e),
    ("rawdaudio", 0x1798b3e116d02631),
    ("unepic", 0x9519751748cc7526),
];

const FULL_PINS: &[(&str, u64)] = &[
    ("052.alvinn", 0x5c58fd5e2878db46),
    ("056.ear", 0x7e3b5c4363e4f7d2),
    ("132.ijpeg", 0x52164e101a4a28ad),
    ("164.gzip", 0xd5c3110500970e12),
    ("171.swim", 0x842b237bef603cc0),
    ("172.mgrid", 0x4551bb886a58cda2),
    ("175.vpr", 0xd685eb4c0cc1c1d8),
    ("177.mesa", 0xb85577ba8df390ed),
    ("179.art", 0x4ed985e840ccb29c),
    ("183.equake", 0x5eff6c55d2148a03),
    ("197.parser", 0x36d4fa2c79403362),
    ("255.vortex", 0x31bcd87d813ef396),
    ("256.bzip2", 0x706410d6e314fb0e),
    ("cjpeg", 0x7234e33705b02273),
    ("djpeg", 0x313c2a12ed13d5b1),
    ("epic", 0x75af57235664e931),
    ("g721decode", 0x5e1419682e922871),
    ("g721encode", 0x008c457596496b5d),
    ("gsmdecode", 0x74e8261be589b2ff),
    ("gsmencode", 0xc3e420d993837ab1),
    ("mpeg2dec", 0xe53b9cb633b19974),
    ("mpeg2enc", 0x0d4c1242e35e9c53),
    ("rawcaudio", 0x646d30556eaf7490),
    ("rawdaudio", 0x70ce2d2092aab9a8),
    ("unepic", 0x8e127e995a5c7319),
];

#[test]
fn test_scale_profiles_are_pinned() {
    check(Scale::Test, TEST_PINS);
}

#[test]
fn full_scale_profiles_are_pinned() {
    check(Scale::Full, FULL_PINS);
}
