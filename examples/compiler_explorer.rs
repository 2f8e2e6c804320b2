//! Compiler explorer: inspect what the static-BSP compiler actually emits —
//! the per-core assembly (the paper's Listing-3 view), the pass timings,
//! the partition/schedule statistics — and dump a VCD waveform of the
//! design for a waveform viewer.
//!
//! Run with: `cargo run --example compiler_explorer [workload]`

use manticore::compiler::{compile, CompileOptions};
use manticore::isa::{disassemble, MachineConfig};
use manticore::netlist::{eval::Evaluator, vcd::VcdTracer};
use manticore::workloads;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "jpeg".into());
    let w = workloads::by_name(&name).unwrap_or_else(|| panic!("unknown workload `{name}`"));

    // Compile for a small grid so the listing stays readable.
    let options = CompileOptions {
        config: MachineConfig::with_grid(3, 3),
        ..Default::default()
    };
    let out = compile(&w.netlist, &options)?;

    println!("== compilation report for `{name}` ==");
    println!("  {:<18} {:>8}  {:>10}", "pass", "ms", "ir size");
    for p in &out.report.passes {
        println!(
            "  {:<18} {:>8.2}  {:>10}",
            p.name,
            p.duration.as_secs_f64() * 1e3,
            p.ir_size
        );
    }
    if let Some(dom) = out.report.dominant_pass() {
        println!(
            "  dominant: {} ({:.2} ms of {:.2} ms total)",
            dom.name,
            dom.duration.as_secs_f64() * 1e3,
            out.report.total_time().as_secs_f64() * 1e3
        );
    }
    println!(
        "  VCPL {} | processes {} | cores {} | sends {} | custom {}",
        out.report.vcpl,
        out.report.processes,
        out.report.cores_used,
        out.report.total_sends,
        out.report.total_custom
    );

    println!("\n== disassembly (first 60 lines) ==");
    for line in disassemble(&out.binary).lines().take(60) {
        println!("{line}");
    }

    // Waveform dump of the first 64 cycles on the reference evaluator.
    let mut sim = Evaluator::new(&out.optimized);
    let path = format!("{name}.vcd");
    let file = std::fs::File::create(&path)?;
    let mut tracer = VcdTracer::new(&out.optimized, std::io::BufWriter::new(file))?;
    for _ in 0..64 {
        sim.step();
        tracer.sample(&sim)?;
    }
    tracer.finish()?;
    println!("\nwrote 64-cycle waveform to {path} (open with GTKWave/Surfer)");
    Ok(())
}
