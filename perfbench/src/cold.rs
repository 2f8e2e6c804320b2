//! `cold-compile`: six designs, each from a built netlist to the end of
//! its first Vcycle, round after round.
//!
//! Almost all the work is in the compiler (partition dominates soc, mm
//! and mc; custom-functions noc and bc; netlist-opt vta); the machine
//! only loads the binary and runs one interpreted Vcycle. The seed
//! shuffles the design order of every round.

use std::collections::HashMap;
use std::hash::Hasher;
use std::time::Instant;

use manticore::bits::Bits;
use manticore::isa::MachineConfig;
use manticore::netlist::Netlist;
use manticore::sim::{Simulator, TapeSim};
use manticore::util::{FnvHasher, SmallRng};
use manticore::workloads;

use crate::bringup::{self, Booted, Record};
use crate::report::{self, percentile, Report};
use crate::trace::Tracer;
use crate::Ctx;

/// The designs and the grid each compiles for: soc at the 16×16 grid of
/// its compile-stress configuration, the rest at the paper's 15×15.
pub const DESIGNS: [(&str, usize); 6] = [
    ("soc", 16),
    ("mm", 15),
    ("mc", 15),
    ("noc", 15),
    ("bc", 15),
    ("vta", 15),
];

struct Design {
    name: &'static str,
    netlist: Netlist,
    config: MachineConfig,
}

/// What the first bring-up of a design produced; every later one must
/// reproduce it exactly.
struct Reference {
    binary: Vec<u8>,
    fingerprint: u64,
    booted: Booted,
}

#[derive(Default)]
struct Window {
    secs: f64,
    /// Per design (in [`DESIGNS`] order): every bring-up's record.
    records: Vec<Vec<Record>>,
    /// Every bring-up's total time, in run order.
    latencies: Vec<f64>,
    lo_ns: u64,
    hi_ns: u64,
}

fn setup() -> Vec<Design> {
    DESIGNS
        .iter()
        .map(|&(name, grid)| Design {
            name,
            netlist: workloads::by_name(name)
                .expect("benchmark design exists")
                .netlist,
            config: MachineConfig::with_grid(grid, grid),
        })
        .collect()
}

fn window(
    designs: &[Design],
    refs: &mut HashMap<&'static str, Reference>,
    rng: &mut SmallRng,
    secs: f64,
    tracer: &Tracer,
    report: &mut Report,
) -> Window {
    let mut w = Window {
        records: vec![Vec::new(); designs.len()],
        lo_ns: tracer.now_ns(),
        ..Window::default()
    };
    let start = Instant::now();
    let mut op = 0u64;
    while op == 0 || start.elapsed().as_secs_f64() < secs {
        let mut order: Vec<usize> = (0..designs.len()).collect();
        report::shuffle(&mut order, rng);
        for i in order {
            let d = &designs[i];
            let (booted, binary, fingerprint) = tracer.span("bench.bring_up", None, op, |id| {
                let booted = bringup::bring_up(&d.netlist, &d.config, tracer, id, op);
                // What the checks compare: the binary's bytes and the
                // state after the first Vcycle.
                let binary = tracer.span("compiler.binary_bytes", id, op, |_| {
                    booted.output.binary.to_bytes()
                });
                let fingerprint = tracer.span("machine.state_fingerprint", id, op, |_| {
                    booted.machine.state_fingerprint()
                });
                (booted, binary, fingerprint)
            });
            op += 1;
            w.latencies.push(booted.record.total_ms);
            w.records[i].push(booted.record.clone());
            // One Vcycle ran, and the binary and post-Vcycle state match
            // the first bring-up's.
            let ran = matches!(&booted.first, Ok(o) if o.vcycles_run == 1);
            let r = refs.entry(d.name).or_insert_with(|| Reference {
                binary: binary.clone(),
                fingerprint,
                booted,
            });
            let same = r.binary == binary && r.fingerprint == fingerprint;
            report.op(ran && same, || {
                format!(
                    "{}: first Vcycle ran={ran}, binary and state identical to the \
                     first bring-up={same}",
                    d.name
                )
            });
        }
    }
    w.secs = start.elapsed().as_secs_f64();
    w.hi_ns = tracer.now_ns();
    w
}

/// The state after the first Vcycle must match the reference simulator
/// (`refsim`'s tape, on the same optimized netlist) register for
/// register, display for display.
fn check_against_refsim(name: &str, r: &Reference, report: &mut Report) {
    let netlist = &r.booted.output.optimized;
    let mut tape = match TapeSim::serial(netlist) {
        Ok(tape) => tape,
        Err(e) => return report.fail(format!("{name}: refsim cannot build its tape: {e}")),
    };
    if let Err(e) = tape.run_cycles(1) {
        return report.fail(format!("{name}: refsim failed its first cycle: {e}"));
    }
    let machine = &r.booted.machine;
    let mut mismatched = Vec::new();
    for reg in netlist.registers() {
        let got: Option<Bits> =
            manticore::rtl_reg_read(&r.booted.output, &reg.name, |c, m| machine.read_reg(c, m));
        if got != tape.rtl_reg(&reg.name) {
            mismatched.push(reg.name.clone());
        }
    }
    let displays = r
        .booted
        .first
        .as_ref()
        .map(|o| o.displays.clone())
        .unwrap_or_default();
    if !mismatched.is_empty() || displays != tape.displays() {
        report.fail(format!(
            "{name}: state after the first Vcycle differs from refsim \
             ({} registers, e.g. {:?}; displays equal: {})",
            mismatched.len(),
            mismatched.first(),
            displays == tape.displays()
        ));
    }
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    let (designs, _, setup_s) = report::repeated_setup(|| (setup(), ()));
    report.set("setup_s", setup_s);

    let mut rng = SmallRng::seed_from_u64(ctx.seed);
    let mut refs = HashMap::new();
    let w = if ctx.trace {
        let plain = window(
            &designs,
            &mut refs,
            &mut rng,
            ctx.seconds / 2.0,
            &Tracer::off(),
            report,
        );
        let tracer = Tracer::on();
        let traced = window(
            &designs,
            &mut refs,
            &mut rng,
            ctx.seconds / 2.0,
            &tracer,
            report,
        );
        let cold = |w: &Window| {
            report::geomean(
                &w.records
                    .iter()
                    .map(|r| report::median(&r.iter().map(|r| r.total_ms).collect::<Vec<_>>()))
                    .collect::<Vec<_>>(),
            )
        };
        report.layer("trace.overhead_ratio", cold(&traced) / cold(&plain) - 1.0);
        report.trace_summary(tracer.spans(), traced.lo_ns, traced.hi_ns);
        traced
    } else {
        window(
            &designs,
            &mut refs,
            &mut rng,
            ctx.seconds,
            &Tracer::off(),
            report,
        )
    };

    for d in &designs {
        check_against_refsim(d.name, &refs[d.name], report);
        let mut fnv = FnvHasher::default();
        fnv.write(&refs[d.name].binary);
        report.exact(format!("binary.{}.fnv", d.name), fnv.finish(), false);
        report.exact(
            format!("first_vcycle.{}.fingerprint", d.name),
            refs[d.name].fingerprint,
            false,
        );
    }

    let per_design: Vec<(&str, Vec<Record>)> = designs
        .iter()
        .zip(&w.records)
        .map(|(d, r)| (d.name, r.clone()))
        .collect();
    bringup::fill(report, &per_design);
    // Host rate of the one (interpreted) Vcycle each bring-up runs.
    let vcycle_khz: Vec<f64> = w
        .records
        .iter()
        .map(|r| 1.0 / report::median(&r.iter().map(|r| r.vcycle_ms).collect::<Vec<_>>()))
        .collect();
    report.set("sim_khz", report::geomean(&vcycle_khz));
    // A round of the median bring-up of every design: built from
    // medians, the rate keeps a burst of host speed shorter than half the
    // window out.
    let round_s: f64 = w
        .records
        .iter()
        .map(|r| report::median(&r.iter().map(|r| r.total_ms).collect::<Vec<_>>()) / 1e3)
        .sum();
    report.set("sweep_scenarios_per_s", designs.len() as f64 / round_s);
    report.set("serve_jobs_per_s", designs.len() as f64 / round_s);
    let ops = w.latencies.len() as f64;
    report.set("serve_latency_ms_p50", percentile(&w.latencies, 50.0));
    report.set("serve_latency_ms_p99", percentile(&w.latencies, 99.0));
    report.layer("serve.latency_samples", ops);
    report.note(format!(
        "cold-compile: {} bring-ups in {:.2} s ({} rounds of {} designs)",
        w.latencies.len(),
        w.secs,
        w.latencies.len() / designs.len(),
        designs.len()
    ));
}
