//! `steady-sim`: the paper's Table 3 configuration (mm, noc, bc and vta
//! on a 15×15 grid) simulated on the default engine through
//! `ManticoreSim`, with compilation in set-up.
//!
//! Each design runs to its `$finish` (its benchmark length) from a
//! checkpoint taken after the validation Vcycle, over and over: every
//! repetition is one long solo run on the steady-state kernel, and its
//! performance counters repeat exactly. The seed shuffles the design
//! order of every round.

use std::time::Instant;

use manticore::isa::MachineConfig;
use manticore::machine::{Checkpoint, PerfCounters};
use manticore::sim::{Simulator, TapeSim};
use manticore::util::SmallRng;
use manticore::workloads;
use manticore::ManticoreSim;

use crate::bringup::{self, Record};
use crate::report::{self, geomean, median, percentile, Report};
use crate::trace::Tracer;
use crate::Ctx;

pub const DESIGNS: [&str; 4] = ["mm", "noc", "bc", "vta"];
const GRID: usize = 15;
/// More Vcycles than any design runs before its `$finish`.
const BUDGET: u64 = 1_000_000;

struct Design {
    name: &'static str,
    sim: ManticoreSim,
    /// State after the validation Vcycle, where every repetition starts.
    start: Checkpoint,
    start_counters: PerfCounters,
}

/// What every repetition must reproduce: a run from the checkpoint
/// that the reference simulator agreed with register for register.
struct Expected {
    vcycles: u64,
    displays: Vec<String>,
    fingerprint: u64,
    counters: PerfCounters,
}

#[derive(Default)]
struct PerDesign {
    vcycles: u64,
    run_secs: f64,
    /// Host kHz of each repetition.
    rates: Vec<f64>,
    /// Wall time of each repetition, ms.
    latencies: Vec<f64>,
}

struct Window {
    secs: f64,
    per: Vec<PerDesign>,
    latencies: Vec<f64>,
    lo_ns: u64,
    hi_ns: u64,
}

fn setup() -> (Vec<Design>, Vec<Record>) {
    let config = MachineConfig::with_grid(GRID, GRID);
    DESIGNS
        .iter()
        .map(|&name| {
            let netlist = workloads::by_name(name)
                .expect("benchmark design exists")
                .netlist;
            let booted = bringup::bring_up(&netlist, &config, &Tracer::off(), None, 0);
            assert!(booted.first.is_ok(), "{name}: validation Vcycle failed");
            let start = booted.machine.checkpoint();
            let start_counters = booted.machine.counters();
            let mut sim = ManticoreSim::from_program(booted.program, booted.output);
            sim.restore(&start).expect("checkpoint of this program");
            let design = Design {
                name,
                sim,
                start,
                start_counters,
            };
            (design, booted.record)
        })
        .unzip()
}

/// Runs the reference simulator (`TapeSim::serial`, on the same
/// optimized netlist) and one repetition side by side, and compares
/// every register and display.
fn expected(d: &mut Design) -> Result<Expected, String> {
    let netlist = d.sim.netlist().clone();
    let mut tape = TapeSim::serial(&netlist).map_err(|e| e.to_string())?;
    tape.run_cycles(1).map_err(|e| e.to_string())?;
    let before = tape.displays().len();
    let want = tape.run_cycles(BUDGET).map_err(|e| e.to_string())?;
    if !want.finished {
        return Err("reference never reached $finish".into());
    }
    d.sim.restore(&d.start).map_err(|e| e.to_string())?;
    let got = d.sim.run(BUDGET).map_err(|e| e.to_string())?;
    let displays = tape.displays()[before..].to_vec();
    if got.vcycles_run != want.cycles_run || got.displays != displays {
        return Err(format!(
            "ran {} Vcycles with {} displays, reference {} with {}",
            got.vcycles_run,
            got.displays.len(),
            want.cycles_run,
            displays.len()
        ));
    }
    let diverged: Vec<&str> = netlist
        .registers()
        .iter()
        .filter(|r| d.sim.read_rtl_reg_by_name(&r.name) != tape.rtl_reg(&r.name))
        .map(|r| r.name.as_str())
        .collect();
    if !diverged.is_empty() {
        return Err(format!(
            "{} registers differ from the reference, e.g. `{}`",
            diverged.len(),
            diverged[0]
        ));
    }
    Ok(Expected {
        vcycles: got.vcycles_run,
        displays,
        fingerprint: d.sim.machine().state_fingerprint(),
        counters: delta(d.sim.machine().counters(), d.start_counters),
    })
}

fn delta(after: PerfCounters, before: PerfCounters) -> PerfCounters {
    PerfCounters {
        compute_cycles: after.compute_cycles - before.compute_cycles,
        stall_cycles: after.stall_cycles - before.stall_cycles,
        vcycles: after.vcycles - before.vcycles,
        instructions: after.instructions - before.instructions,
        sends: after.sends - before.sends,
        messages_delivered: after.messages_delivered - before.messages_delivered,
        exceptions: after.exceptions - before.exceptions,
    }
}

fn window(
    designs: &mut [Design],
    expected: &[Expected],
    rng: &mut SmallRng,
    secs: f64,
    tracer: &Tracer,
    report: &mut Report,
) -> Window {
    let mut w = Window {
        secs: 0.0,
        per: designs.iter().map(|_| PerDesign::default()).collect(),
        latencies: Vec::new(),
        lo_ns: tracer.now_ns(),
        hi_ns: 0,
    };
    let start = Instant::now();
    let mut op = 0u64;
    while op == 0 || start.elapsed().as_secs_f64() < secs {
        let mut order: Vec<usize> = (0..designs.len()).collect();
        report::shuffle(&mut order, rng);
        for i in order {
            let d = &mut designs[i];
            let t0 = Instant::now();
            let (outcome, run_secs, latency, fingerprint) =
                tracer.span("bench.rep", None, op, |id| {
                    tracer.span("machine.restore", id, op, |_| {
                        d.sim.restore(&d.start).expect("checkpoint of this program")
                    });
                    let (outcome, run_secs) = tracer.span("machine.run", id, op, |_| {
                        let t = Instant::now();
                        let outcome = d.sim.run(BUDGET);
                        (outcome, t.elapsed().as_secs_f64())
                    });
                    let latency = report::ms(t0.elapsed());
                    let fingerprint = tracer.span("machine.state_fingerprint", id, op, |_| {
                        d.sim.machine().state_fingerprint()
                    });
                    (outcome, run_secs, latency, fingerprint)
                });
            w.latencies.push(latency);
            let e = &expected[i];
            let p = &mut w.per[i];
            let counters = delta(d.sim.machine().counters(), d.start_counters);
            let ok = outcome.as_ref().is_ok_and(|o| {
                o.finished && o.vcycles_run == e.vcycles && o.displays == e.displays
            }) && fingerprint == e.fingerprint
                && counters == e.counters;
            report.op(ok, || {
                format!(
                    "{}: run from the post-validation checkpoint does not match the \
                     reference simulator ({:?})",
                    d.name,
                    outcome.as_ref().map(|o| o.vcycles_run)
                )
            });
            let vcycles = outcome.as_ref().map_or(0, |o| o.vcycles_run);
            p.vcycles += vcycles;
            p.run_secs += run_secs;
            p.rates.push(vcycles as f64 / run_secs / 1e3);
            p.latencies.push(latency);
            op += 1;
        }
    }
    w.secs = start.elapsed().as_secs_f64();
    w.hi_ns = tracer.now_ns();
    w
}

/// Per design, the median repetition's host kHz: a median keeps a burst
/// of host speed shorter than half the window out of the rate.
fn khz(w: &Window) -> Vec<f64> {
    w.per.iter().map(|p| median(&p.rates)).collect()
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    let (mut designs, records, setup_s) = report::repeated_setup(setup);
    report.set("setup_s", setup_s);
    let per_design: Vec<(&str, Vec<Record>)> = DESIGNS
        .iter()
        .enumerate()
        .map(|(i, &name)| (name, records.iter().map(|r| r[i].clone()).collect()))
        .collect();
    bringup::fill(report, &per_design);

    let mut expect = Vec::new();
    for d in &mut designs {
        match expected(d) {
            Ok(e) => expect.push(e),
            Err(e) => {
                report.fail(format!("{}: reference run failed: {e}", d.name));
                return;
            }
        }
    }

    let mut rng = SmallRng::seed_from_u64(ctx.seed);
    let w = if ctx.trace {
        let plain = window(
            &mut designs,
            &expect,
            &mut rng,
            ctx.seconds / 2.0,
            &Tracer::off(),
            report,
        );
        let tracer = Tracer::on();
        let traced = window(
            &mut designs,
            &expect,
            &mut rng,
            ctx.seconds / 2.0,
            &tracer,
            report,
        );
        report.layer(
            "trace.overhead_ratio",
            geomean(&khz(&plain)) / geomean(&khz(&traced)) - 1.0,
        );
        report.trace_summary(tracer.spans(), traced.lo_ns, traced.hi_ns);
        traced
    } else {
        window(
            &mut designs,
            &expect,
            &mut rng,
            ctx.seconds,
            &Tracer::off(),
            report,
        )
    };

    let rates = khz(&w);
    report.set("sim_khz", geomean(&rates));
    let (mut instructions, mut sends, mut stalls) = (0, 0, 0);
    let (mut run_ns, mut run_instr) = (0.0, 0.0);
    for (((name, p), rate), e) in DESIGNS.iter().zip(&w.per).zip(&rates).zip(&expect) {
        report.layer(format!("machine.{name}.khz"), *rate);
        let c = e.counters;
        instructions += c.instructions;
        sends += c.sends;
        stalls += c.stall_cycles;
        run_ns += p.run_secs * 1e9;
        run_instr += c.instructions as f64 * p.vcycles as f64 / c.vcycles.max(1) as f64;
        report.exact(
            format!("machine.{name}.instructions"),
            c.instructions,
            false,
        );
        report.exact(format!("machine.{name}.sends"), c.sends, false);
        report.exact(
            format!("machine.{name}.stall_cycles"),
            c.stall_cycles,
            false,
        );
        report.exact(format!("machine.{name}.vcycles"), c.vcycles, false);
    }
    report.layer("machine.instructions", instructions as f64);
    report.layer("machine.sends", sends as f64);
    report.layer("machine.stall_cycles", stalls as f64);
    report.layer("machine.ns_per_instr", run_ns / run_instr);
    // A round of the median repetition of every design.
    let round_s: f64 = w.per.iter().map(|p| median(&p.latencies) / 1e3).sum();
    report.set("sweep_scenarios_per_s", DESIGNS.len() as f64 / round_s);
    report.set("serve_jobs_per_s", DESIGNS.len() as f64 / round_s);
    let reps = w.latencies.len() as f64;
    report.set("serve_latency_ms_p50", percentile(&w.latencies, 50.0));
    report.set("serve_latency_ms_p99", percentile(&w.latencies, 99.0));
    report.layer("serve.latency_samples", reps);
    report.note(format!(
        "steady-sim: {} runs to $finish in {:.2} s; kHz {}",
        w.latencies.len(),
        w.secs,
        DESIGNS
            .iter()
            .zip(&rates)
            .map(|(n, r)| format!("{n}={r:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
}
