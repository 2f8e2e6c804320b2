//! The central integration test: every one of the paper's nine workloads
//! compiles for a Manticore grid and the machine model reproduces the
//! reference evaluator's architectural state cycle for cycle — displays,
//! finishes, and every register.

use manticore::bits::Bits;
use manticore::compiler::{compile, CompileOptions, PartitionStrategy};
use manticore::isa::MachineConfig;
use manticore::machine::Machine;
use manticore::netlist::eval::Evaluator;
use manticore::workloads;

fn grid_config(g: usize) -> MachineConfig {
    MachineConfig::with_grid(g, g)
}

/// Compiles `netlist` for `config` and checks machine-vs-evaluator
/// equivalence for `cycles` RTL cycles.
fn check_equivalence(
    name: &str,
    netlist: &manticore::netlist::Netlist,
    config: MachineConfig,
    cycles: u64,
    strategy: PartitionStrategy,
) {
    let options = CompileOptions {
        config: config.clone(),
        partition: strategy,
        ..Default::default()
    };
    let out = compile(netlist, &options).unwrap_or_else(|e| panic!("{name}: compile failed: {e}"));
    let mut eval = Evaluator::new(&out.optimized);
    let mut machine =
        Machine::load(config, &out.binary).unwrap_or_else(|e| panic!("{name}: load failed: {e}"));

    for cycle in 0..cycles {
        let ev = eval.step();
        let mv = machine
            .run_vcycles(1)
            .unwrap_or_else(|e| panic!("{name}: machine failed at cycle {cycle}: {e}"));
        assert_eq!(
            ev.displays, mv.displays,
            "{name}: displays at cycle {cycle}"
        );
        assert_eq!(ev.finished, mv.finished, "{name}: finish at cycle {cycle}");
        assert!(
            ev.failed_expects.is_empty(),
            "{name}: assertion failed in reference at {cycle}"
        );
        for (ri, reg) in out.optimized.registers().iter().enumerate() {
            let expect = eval.reg_value(ri);
            let loc = &out.metadata.reg_locations[ri];
            let words: Vec<u16> = loc
                .words
                .iter()
                .map(|&(core, mreg)| machine.read_reg(core, mreg))
                .collect();
            let got = Bits::from_words16(&words, reg.width);
            assert_eq!(
                &got, expect,
                "{name}: register `{}` diverged at cycle {cycle}",
                reg.name
            );
        }
        if ev.finished {
            break;
        }
    }
}

macro_rules! equivalence_test {
    ($test:ident, $workload:literal, $grid:expr, $cycles:expr) => {
        #[test]
        fn $test() {
            let w = workloads::by_name($workload).unwrap();
            check_equivalence(
                $workload,
                &w.netlist,
                grid_config($grid),
                $cycles,
                PartitionStrategy::Balanced,
            );
        }
    };
}

equivalence_test!(vta_matches, "vta", 6, 8);
equivalence_test!(mc_matches, "mc", 6, 8);
equivalence_test!(noc_matches, "noc", 6, 8);
equivalence_test!(mm_matches, "mm", 6, 8);
equivalence_test!(rv32r_matches, "rv32r", 6, 8);
equivalence_test!(cgra_matches, "cgra", 6, 8);
equivalence_test!(bc_matches, "bc", 6, 8);
equivalence_test!(blur_matches, "blur", 6, 8);
equivalence_test!(jpeg_matches, "jpeg", 6, 8);

#[test]
fn soc_matches_with_serial_compile() {
    // The SoC torus (CPU tiles + scratchpad tiles) — small enough here for
    // lockstep comparison, full-size in the compile benchmarks.
    let netlist = workloads::soc_sized(4, 4, 2000);
    check_equivalence(
        "soc",
        &netlist,
        grid_config(6),
        8,
        PartitionStrategy::Balanced,
    );
}

#[test]
fn lpt_strategy_matches_on_a_workload() {
    let w = workloads::by_name("blur").unwrap();
    check_equivalence(
        "blur-lpt",
        &w.netlist,
        grid_config(6),
        6,
        PartitionStrategy::Lpt,
    );
}

#[test]
fn workloads_run_longer_on_machine_only() {
    // Beyond lockstep comparison: the machine alone must sustain longer
    // runs with assertions green (jpeg exercises the serial chain).
    let w = workloads::by_name("jpeg").unwrap();
    let config = grid_config(4);
    let options = CompileOptions {
        config: config.clone(),
        ..Default::default()
    };
    let out = compile(&w.netlist, &options).unwrap();
    let mut machine = Machine::load(config, &out.binary).unwrap();
    let outcome = machine.run_vcycles(300).unwrap();
    assert_eq!(outcome.vcycles_run, 300);
    assert!(machine.counters().instructions > 0);
}

#[test]
fn full_grid_compile_reports_sane_vcpl() {
    // Compile everything at the paper's 15×15 and sanity-check the
    // simulation rates land in a plausible band (tens of kHz to tens of
    // MHz at 475 MHz — the machine is small compared to the paper's).
    for w in workloads::all() {
        let config = MachineConfig::default();
        let options = CompileOptions {
            config: config.clone(),
            ..Default::default()
        };
        let out = compile(&w.netlist, &options)
            .unwrap_or_else(|e| panic!("{}: compile failed: {e}", w.name));
        let khz = config.simulation_rate_khz(out.report.vcpl);
        assert!(
            khz > 10.0 && khz < 500_000.0,
            "{}: implausible rate {khz} kHz (VCPL {})",
            w.name,
            out.report.vcpl
        );
    }
}
