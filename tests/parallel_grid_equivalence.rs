//! The machine's one fast kernel — the fused micro-op stream the
//! validate-once / replay-many split runs after the validation Vcycle —
//! must be bit-identical to the position-by-position reference
//! interpreter on every real workload: same final register state, same
//! displays, same `PerfCounters`, same cache statistics, under strict and
//! permissive hazard checking.
//!
//! This is the machine-side analog of `backend_agreement.rs` (which covers
//! the Verilator-analog tape executors): together they pin down that every
//! fast execution path in the repository is an exact, not approximate,
//! speedup.

use manticore::bits::Bits;
use manticore::compiler::{compile, CompileOptions};
use manticore::isa::MachineConfig;
use manticore::machine::Machine;
use manticore::workloads;

const GRID: usize = 6;
const VCYCLES: u64 = 40;

/// Reads every RTL register back out of the machine's register files using
/// the compiler's placement metadata.
fn rtl_regs(machine: &Machine, out: &manticore::compiler::CompileOutput) -> Vec<Bits> {
    out.optimized
        .registers()
        .iter()
        .enumerate()
        .map(|(ri, reg)| {
            let loc = &out.metadata.reg_locations[ri];
            let words: Vec<u16> = loc
                .words
                .iter()
                .map(|&(core, mreg)| machine.read_reg(core, mreg))
                .collect();
            Bits::from_words16(&words, reg.width)
        })
        .collect()
}

/// Runs the micro-op kernel against the interpreter on every workload,
/// under the given hazard mode.
fn sweep_all_workloads(strict: bool) {
    let mode = if strict { "strict" } else { "permissive" };
    for w in workloads::all() {
        let what = format!("{} ({mode})", w.name);
        let config = MachineConfig::with_grid(GRID, GRID);
        let options = CompileOptions {
            config: config.clone(),
            ..Default::default()
        };
        let out =
            compile(&w.netlist, &options).unwrap_or_else(|e| panic!("{what}: compile failed: {e}"));
        let run = |replay: bool| {
            let mut m = Machine::load(config.clone(), &out.binary)
                .unwrap_or_else(|e| panic!("{what}: load failed: {e}"));
            m.set_strict_hazards(strict);
            m.set_replay(replay);
            let outcome = m
                .run_vcycles(VCYCLES)
                .unwrap_or_else(|e| panic!("{what}: run (replay {replay}) failed: {e}"));
            (m, outcome)
        };
        let (interp, i_run) = run(false);
        let (uops, u_run) = run(true);

        assert_eq!(i_run.displays, u_run.displays, "{what}: displays");
        assert_eq!(i_run.finished, u_run.finished, "{what}: finish flag");
        assert_eq!(i_run.vcycles_run, u_run.vcycles_run, "{what}: vcycles");
        assert_eq!(interp.counters(), uops.counters(), "{what}: PerfCounters");
        assert_eq!(
            interp.cache_stats(),
            uops.cache_stats(),
            "{what}: cache stats"
        );
        let i_regs = rtl_regs(&interp, &out);
        let u_regs = rtl_regs(&uops, &out);
        for (ri, reg) in out.optimized.registers().iter().enumerate() {
            assert_eq!(i_regs[ri], u_regs[ri], "{what}: register `{}`", reg.name);
        }
    }
}

#[test]
fn parallel_grid_is_bit_identical_on_all_workloads() {
    sweep_all_workloads(true);
}

#[test]
fn parallel_grid_is_bit_identical_on_all_workloads_permissive() {
    // Permissive mode keeps the micro-op engine on the pipeline-ring
    // executor (stale-read timing is observable), so this sweep pins the
    // ringed lowering too.
    sweep_all_workloads(false);
}

#[test]
fn replay_mode_switches_are_seamless() {
    // Replay can be toggled between `run_vcycles` calls without
    // perturbing a single architectural bit: the machine state at every
    // Vcycle boundary is engine-independent.
    let w = workloads::by_name("mm").unwrap();
    let config = MachineConfig::with_grid(GRID, GRID);
    let options = CompileOptions {
        config: config.clone(),
        ..Default::default()
    };
    let out = compile(&w.netlist, &options).unwrap();

    let mut reference = Machine::load(config.clone(), &out.binary).unwrap();
    reference.set_replay(false);
    reference.run_vcycles(36).unwrap();

    let mut mixed = Machine::load(config.clone(), &out.binary).unwrap();
    mixed.run_vcycles(6).unwrap(); // validation + micro-ops (default)
    mixed.set_replay(false);
    mixed.run_vcycles(6).unwrap(); // interpreter
    mixed.set_replay(true);
    mixed.run_vcycles(12).unwrap(); // micro-ops again
    mixed.set_replay(false);
    mixed.run_vcycles(6).unwrap(); // interpreter
    mixed.set_replay(true);
    mixed.run_vcycles(6).unwrap(); // micro-ops
    assert_eq!(reference.counters(), mixed.counters());
    let a = rtl_regs(&reference, &out);
    let b = rtl_regs(&mixed, &out);
    for (ri, reg) in out.optimized.registers().iter().enumerate() {
        assert_eq!(a[ri], b[ri], "register `{}` diverged", reg.name);
    }
}
