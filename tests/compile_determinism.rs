//! Compile determinism: the pass-manager pipeline must be a pure function
//! of (netlist, options) — byte-identical binaries and identical
//! deterministic report metadata across repeated runs. The compiler's own
//! oracle tests (`crates/compiler/src/reference.rs`) hold each pass's
//! production algorithm equal to its straightforward formulation.

use manticore::compiler::{compile, CompileOptions, PartitionStrategy};
use manticore::isa::MachineConfig;
use manticore::workloads;

fn options(grid: usize, strategy: PartitionStrategy) -> CompileOptions {
    CompileOptions {
        config: MachineConfig::with_grid(grid, grid),
        partition: strategy,
        ..Default::default()
    }
}

/// All workloads this suite sweeps: the nine evaluation benchmarks plus a
/// small instance of the `soc` compile-stress torus.
fn suite() -> Vec<(String, manticore::netlist::Netlist)> {
    let mut v: Vec<(String, manticore::netlist::Netlist)> = workloads::all()
        .into_iter()
        .map(|w| (w.name.to_string(), w.netlist))
        .collect();
    v.push(("soc-4x3".into(), workloads::soc_sized(4, 3, 2000)));
    v
}

#[test]
fn same_netlist_twice_is_byte_identical() {
    // Two compiles with identical options must produce identical bytes and
    // identical deterministic metadata — catches hidden iteration-order
    // nondeterminism (e.g. hash-map ordering leaking into emission).
    for (name, netlist) in suite() {
        let opts = options(6, PartitionStrategy::Balanced);
        let a = compile(&netlist, &opts).unwrap_or_else(|e| panic!("{name}: {e}"));
        let b = compile(&netlist, &opts).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            a.binary.to_bytes(),
            b.binary.to_bytes(),
            "{name}: binary differs between two identical compiles"
        );
        assert_eq!(
            a.report.deterministic_fingerprint(),
            b.report.deterministic_fingerprint(),
            "{name}: report metadata differs between two identical compiles"
        );
    }
}

#[test]
fn lpt_strategy_is_deterministic() {
    let netlist = workloads::by_name("blur").unwrap().netlist;
    let a = compile(&netlist, &options(6, PartitionStrategy::Lpt)).unwrap();
    let b = compile(&netlist, &options(6, PartitionStrategy::Lpt)).unwrap();
    assert_eq!(a.binary.to_bytes(), b.binary.to_bytes());
    assert_eq!(
        a.report.deterministic_fingerprint(),
        b.report.deterministic_fingerprint()
    );
}

#[test]
fn pass_reports_are_complete() {
    // The report must carry all seven passes in pipeline order with
    // non-zero IR sizes — the bench gate keys on these.
    let netlist = workloads::by_name("jpeg").unwrap().netlist;
    let out = compile(&netlist, &options(6, PartitionStrategy::Balanced)).unwrap();
    let names: Vec<&str> = out.report.passes.iter().map(|p| p.name).collect();
    assert_eq!(
        names,
        vec![
            "netlist-opt",
            "lower",
            "lir-opt",
            "partition",
            "custom-functions",
            "schedule",
            "regalloc-emit"
        ]
    );
    assert!(out.report.passes.iter().all(|p| p.ir_size > 0));
}
