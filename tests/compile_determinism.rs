//! The compiler is a pure function of its input: compiling the same
//! program twice in one process yields the same machine image, register
//! numbers included. Full-scale 256.bzip2 at hybrid@4 unrolls loops whose
//! bodies define many renamed registers, so an order-dependent renaming
//! shows up there.

use voltron_compiler::{compile, CompileOptions, Strategy};
use voltron_sim::MachineConfig;
use voltron_workloads::{by_name, Scale};

#[test]
fn repeated_compiles_emit_identical_images() {
    let w = by_name("256.bzip2", Scale::Full).expect("benchmark registered");
    let mcfg = MachineConfig::paper(4);
    let image = || {
        let c = compile(
            &w.program,
            Strategy::Hybrid,
            &mcfg,
            &CompileOptions::default(),
        )
        .expect("compiles");
        format!("{:?}", c.machine)
    };
    let first = image();
    assert!(first == image(), "two compiles of 256.bzip2 differ");
}
