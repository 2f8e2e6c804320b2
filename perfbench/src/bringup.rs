//! One design from netlist to the end of its first Vcycle — the cold
//! path every workload pays for each design it uses — and the metrics
//! derived from it.

use std::sync::Arc;
use std::time::Instant;

use manticore::compiler::{compile, CompileOptions, CompileOutput};
use manticore::isa::MachineConfig;
use manticore::machine::{CompiledProgram, Machine, RunOutcome};
use manticore::netlist::Netlist;

use crate::report::{geomean, median, ms, Report};
use crate::trace::{SpanId, Tracer};

/// The compiler passes, in pipeline order, as `CompileReport::passes`
/// names them.
pub const PASSES: [&str; 7] = [
    "netlist-opt",
    "lower",
    "lir-opt",
    "partition",
    "custom-functions",
    "schedule",
    "regalloc-emit",
];

/// The six designs whose compile metrics have names of their own.
pub const NAMED_DESIGNS: [&str; 6] = ["soc", "mm", "mc", "noc", "bc", "vta"];

/// Timings and deterministic outputs of one bring-up.
#[derive(Debug, Clone)]
pub struct Record {
    /// `compile` → `compile_shared` → `from_program` → first Vcycle.
    pub total_ms: f64,
    pub compile_ms: f64,
    /// Inside `CompiledProgram::compile_shared`.
    pub load_ms: f64,
    /// `Machine::from_program` plus the interpreted validation Vcycle.
    pub first_vcycle_ms: f64,
    /// The validation Vcycle alone.
    pub vcycle_ms: f64,
    /// `CompileReport::passes`, in [`PASSES`] order.
    pub pass_ms: Vec<f64>,
    pub vcpl: u64,
    pub instructions: u64,
    pub model_khz: f64,
}

/// A booted design, one Vcycle in.
pub struct Booted {
    pub output: Arc<CompileOutput>,
    pub program: Arc<CompiledProgram>,
    pub machine: Machine,
    pub first: Result<RunOutcome, manticore::machine::MachineError>,
    pub record: Record,
}

/// Compiles `netlist` with the default options (one compile thread) for
/// `config`, loads it and runs its first Vcycle, with a span around each
/// layer call.
pub fn bring_up(
    netlist: &Netlist,
    config: &MachineConfig,
    tracer: &Tracer,
    parent: Option<SpanId>,
    request: u64,
) -> Booted {
    let options = CompileOptions {
        config: config.clone(),
        ..Default::default()
    };
    let t0 = Instant::now();
    let output = tracer.span("compiler.compile", parent, request, |_| {
        compile(netlist, &options).expect("benchmark designs compile")
    });
    let t1 = Instant::now();
    let program = tracer.span("machine.load", parent, request, |_| {
        CompiledProgram::compile_shared(config.clone(), &output.binary)
            .expect("compiled binaries load")
    });
    let t2 = Instant::now();
    let mut vcycle_ms = 0.0;
    let (machine, first) = tracer.span("machine.first_vcycle", parent, request, |_| {
        let mut machine = Machine::from_program(Arc::clone(&program));
        let tv = Instant::now();
        let first = machine.run_vcycles(1);
        vcycle_ms = ms(tv.elapsed());
        (machine, first)
    });
    let t3 = Instant::now();
    let pass_ms = PASSES
        .iter()
        .map(|name| {
            output
                .report
                .passes
                .iter()
                .filter(|p| p.name == *name)
                .map(|p| ms(p.duration))
                .sum()
        })
        .collect();
    let record = Record {
        total_ms: ms(t3 - t0),
        compile_ms: ms(t1 - t0),
        load_ms: ms(t2 - t1),
        first_vcycle_ms: ms(t3 - t2),
        vcycle_ms,
        pass_ms,
        vcpl: output.report.vcpl,
        instructions: output.report.total_instructions,
        model_khz: output.simulation_rate_khz(config),
    };
    Booted {
        output: Arc::new(output),
        program,
        machine,
        first,
        record,
    }
}

/// Fills the compile-side metrics from every bring-up of each design:
/// `cold_start_ms` and `model_khz` (geomeans over the designs), the
/// per-pass and per-design compiler times (medians, summed over the
/// designs), VCPLs and instruction counts (exact), and the machine's
/// load and first-Vcycle times.
pub fn fill(report: &mut Report, designs: &[(&str, Vec<Record>)]) {
    let med = |records: &[Record], f: &dyn Fn(&Record) -> f64| {
        median(&records.iter().map(f).collect::<Vec<_>>())
    };
    let mut cold = Vec::new();
    let mut model = Vec::new();
    let mut passes = [0.0; PASSES.len()];
    let (mut load, mut first, mut instructions) = (0.0, 0.0, 0);
    for (name, records) in designs {
        let r0 = &records[0];
        for r in records {
            if (r.vcpl, r.instructions) != (r0.vcpl, r0.instructions) {
                report.fail(format!(
                    "{name}: VCPL/instruction count changed between compiles \
                     ({}/{} then {}/{})",
                    r0.vcpl, r0.instructions, r.vcpl, r.instructions
                ));
            }
        }
        cold.push(med(records, &|r| r.total_ms));
        model.push(r0.model_khz);
        for (i, p) in passes.iter_mut().enumerate() {
            *p += med(records, &|r| r.pass_ms[i]);
        }
        load += med(records, &|r| r.load_ms);
        first += med(records, &|r| r.first_vcycle_ms);
        instructions += r0.instructions;
        if NAMED_DESIGNS.contains(name) {
            report.layer(
                format!("compiler.{name}.ms"),
                med(records, &|r| r.compile_ms),
            );
            report.layer(format!("compiler.{name}.vcpl"), r0.vcpl as f64);
        }
        report.exact(format!("compiler.{name}.vcpl"), r0.vcpl, false);
        report.exact(
            format!("compiler.{name}.instructions"),
            r0.instructions,
            false,
        );
    }
    for (name, ms) in PASSES.iter().zip(passes) {
        report.layer(format!("compiler.{name}.ms"), ms);
    }
    report.layer("compiler.instructions", instructions as f64);
    report.layer("machine.load.ms", load);
    report.layer("machine.first_vcycle.ms", first);
    report.set("cold_start_ms", geomean(&cold));
    report.set("model_khz", geomean(&model));
}
