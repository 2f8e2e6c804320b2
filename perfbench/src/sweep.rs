//! `scenario-sweep`: a fixed batch of bc and mm scenarios on an 8×8 grid,
//! run on `FleetSim` with two workers and ganging on, batch after batch.
//!
//! The batch has three classes per design: short jobs, long jobs, and a
//! fixed-round coverage exploration (checkpoint → fork → gang). The seed
//! draws the jobs' input vectors and the exploration's stimulus.

use std::time::Instant;

use manticore::fleet::{ExploreConfig, ExploreReport, FleetSim};
use manticore::isa::MachineConfig;
use manticore::machine::Machine;
use manticore::netlist::Netlist;
use manticore::util::SmallRng;
use manticore::workloads;
use manticore::ManticoreSim;

use crate::bringup::{self, Record};
use crate::report::{self, median, percentile, Report};
use crate::trace::Tracer;
use crate::Ctx;

const GRID: usize = 8;
const WORKERS: usize = 2;
/// Gang width for the job classes (the daemon's default).
const LANES: usize = 4;
/// Every scenario stops on its budget long before the designs' `$finish`.
const HORIZON: u64 = 1 << 20;
const SHORT: (usize, u64) = (16, 200);
const LONG: (usize, u64) = (4, 5_000);
/// The forked class: 1 + (rounds - 1) × frontier gangs of `lanes`.
const EXPLORE: ExploreConfig = ExploreConfig {
    lanes: 8,
    rounds: 4,
    vcycles_per_round: 25,
    warmup_vcycles: 2,
    frontier_cap: 4,
    seed: 0,
    stimulus: Vec::new(),
};
/// Samples per probe of the machine's boot and fork calls (traced run).
const PROBES: usize = 16;

const CLASSES: [&str; 3] = ["short", "long", "fork"];

/// The designs, with the data registers their scenarios poke: pure data
/// inputs no self-check depends on.
fn designs() -> Vec<(&'static str, Netlist, Vec<String>)> {
    vec![
        (
            "bc",
            workloads::bc_sized(6, 2, HORIZON),
            (0..6).map(|p| format!("nonce{p}")).collect(),
        ),
        (
            "mm",
            workloads::mm_sized(16, HORIZON),
            (0..8)
                .flat_map(|c| [format!("ad_0_{c}"), format!("ps_0_{c}")])
                .collect(),
        ),
    ]
}

struct Design {
    name: &'static str,
    fleet: FleetSim,
    stimulus: Vec<String>,
    /// Input vectors of the short and long jobs.
    jobs: [Vec<Vec<(String, u64)>>; 2],
    explore: ExploreConfig,
}

/// What every batch must reproduce.
struct Expected {
    /// Per class (short, long), per job: the state fingerprint a solo
    /// `ManticoreSim` run with the same pokes ends in.
    fingerprints: [Vec<u64>; 2],
    explore: ExploreReport,
}

fn setup(seed: u64) -> (Vec<Design>, Vec<Record>) {
    let config = MachineConfig::with_grid(GRID, GRID);
    let mut rng = SmallRng::seed_from_u64(seed);
    designs()
        .into_iter()
        .map(|(name, netlist, stimulus)| {
            let booted = bringup::bring_up(&netlist, &config, &Tracer::off(), None, 0);
            assert!(booted.first.is_ok(), "{name}: validation Vcycle failed");
            let fleet = FleetSim::from_output(booted.output, config.clone(), WORKERS)
                .expect("compiled binaries load");
            let mut draw = |n: usize| -> Vec<Vec<(String, u64)>> {
                (0..n)
                    .map(|_| {
                        stimulus
                            .iter()
                            .map(|r| (r.clone(), rng.next_u64() & 0xffff))
                            .collect()
                    })
                    .collect()
            };
            let jobs = [draw(SHORT.0), draw(LONG.0)];
            let explore = ExploreConfig {
                seed: seed ^ rng.next_u64(),
                ..EXPLORE
            };
            let design = Design {
                name,
                fleet,
                stimulus,
                jobs,
                explore,
            };
            (design, booted.record)
        })
        .unzip()
}

fn budget(class: usize) -> u64 {
    [SHORT.1, LONG.1][class]
}

fn expected(d: &Design) -> Result<Expected, String> {
    let solo = |pokes: &Vec<(String, u64)>, vcycles: u64| -> Result<u64, String> {
        let mut sim =
            ManticoreSim::from_program(d.fleet.program().clone(), d.fleet.output().clone());
        for (name, value) in pokes {
            if !sim.write_rtl_reg_by_name(name, *value) {
                return Err(format!("no register `{name}`"));
            }
        }
        sim.run(vcycles).map_err(|e| e.to_string())?;
        Ok(sim.machine().state_fingerprint())
    };
    let mut fingerprints = [Vec::new(), Vec::new()];
    for (class, fps) in fingerprints.iter_mut().enumerate() {
        for pokes in &d.jobs[class] {
            fps.push(solo(pokes, budget(class))?);
        }
    }
    let stimulus: Vec<&str> = d.stimulus.iter().map(String::as_str).collect();
    let explore = d
        .fleet
        .explore(&stimulus, &d.explore)
        .map_err(|e| e.to_string())?;
    Ok(Expected {
        fingerprints,
        explore,
    })
}

#[derive(Default)]
struct Window {
    /// Per batch: scenarios and lane-Vcycles completed, and the seconds
    /// its fleet calls took.
    batches: Vec<(u64, u64, f64)>,
    /// Per class: scenarios completed and seconds spent in its calls.
    class: [(u64, f64); 3],
    /// Per scenario, the wall time of the call that ran it, ms.
    latencies: Vec<f64>,
    calls: u64,
    lo_ns: u64,
    hi_ns: u64,
}

/// Runs one class of one design; returns the scenarios and lane-Vcycles
/// it completed correctly, and the seconds its fleet call took.
fn run_class(
    d: &Design,
    class: usize,
    expect: &Expected,
    tracer: &Tracer,
    op: u64,
    report: &mut Report,
) -> (u64, u64, f64) {
    if class == 2 {
        let stimulus: Vec<&str> = d.stimulus.iter().map(String::as_str).collect();
        let t = Instant::now();
        let got = tracer.span("fleet.explore", None, op, |_| {
            d.fleet.explore(&stimulus, &d.explore)
        });
        let secs = t.elapsed().as_secs_f64();
        let ok = matches!(&got, Ok(r) if *r == expect.explore
            && r.asserts == 0 && r.faults == 0 && r.killed == 0);
        report.op(ok, || {
            format!(
                "{}: exploration differs from its first run: {got:?}",
                d.name
            )
        });
        let scenarios = if ok { expect.explore.scenarios } else { 0 };
        return (scenarios, scenarios * d.explore.vcycles_per_round, secs);
    }
    let vcycles = budget(class);
    let jobs = tracer.span("fleet.job", None, op, |_| {
        d.jobs[class]
            .iter()
            .map(|pokes| {
                pokes
                    .iter()
                    .fold(d.fleet.job(vcycles), |job, (name, value)| {
                        job.with_reg(name, *value)
                            .expect("scenario registers exist")
                    })
            })
            .collect()
    });
    let name = ["fleet.run_ganged.short", "fleet.run_ganged.long"][class];
    let t = Instant::now();
    let runs = tracer.span(name, None, op, |_| d.fleet.run_ganged(jobs, LANES));
    let secs = t.elapsed().as_secs_f64();
    let fingerprints: Vec<Option<u64>> = tracer.span("machine.state_fingerprint", None, op, |_| {
        runs.iter()
            .map(|run| run.sim.as_ref().map(|s| s.machine().state_fingerprint()))
            .collect()
    });
    let mut done = 0;
    for ((run, got), want) in runs
        .iter()
        .zip(fingerprints)
        .zip(&expect.fingerprints[class])
    {
        let ok = matches!(&run.result, Ok(o) if o.vcycles_run == vcycles) && got == Some(*want);
        report.op(ok, || {
            format!(
                "{}: {} job {} differs from its solo run ({:?})",
                d.name, CLASSES[class], run.index, run.outcome
            )
        });
        done += u64::from(ok);
    }
    (done, done * vcycles, secs)
}

fn window(
    designs: &[Design],
    expect: &[Expected],
    secs: f64,
    tracer: &Tracer,
    report: &mut Report,
) -> Window {
    let mut w = Window {
        lo_ns: tracer.now_ns(),
        ..Window::default()
    };
    let start = Instant::now();
    while w.batches.is_empty() || start.elapsed().as_secs_f64() < secs {
        let mut batch = (0, 0, 0.0);
        for class in 0..CLASSES.len() {
            for (d, e) in designs.iter().zip(expect) {
                let (n, v, dt) = run_class(d, class, e, tracer, w.calls, report);
                w.calls += 1;
                // Every scenario of the call waits for the whole call.
                w.latencies
                    .extend(std::iter::repeat_n(dt * 1e3, n as usize));
                w.class[class].0 += n;
                w.class[class].1 += dt;
                batch = (batch.0 + n, batch.1 + v, batch.2 + dt);
            }
        }
        w.batches.push(batch);
    }
    w.hi_ns = tracer.now_ns();
    w
}

/// The median batch's scenarios per second: a median keeps a burst of
/// host speed shorter than half the window out of the rate.
fn rate(w: &Window) -> f64 {
    median(
        &w.batches
            .iter()
            .map(|b| b.0 as f64 / b.2)
            .collect::<Vec<_>>(),
    )
}

/// The machine calls the fleet makes per scenario, timed directly: boot
/// (`from_program` plus the validation Vcycle) and `Checkpoint::fork`.
fn probes(designs: &[Design], tracer: &Tracer, report: &mut Report) {
    let (mut boot, mut fork) = (Vec::new(), Vec::new());
    for (i, d) in designs.iter().enumerate() {
        for _ in 0..PROBES {
            let t = Instant::now();
            let machine = tracer.span("machine.boot", None, i as u64, |_| {
                let mut m = Machine::from_program(d.fleet.program().clone());
                m.run_vcycles(1).map(|_| m)
            });
            boot.push(report::ms(t.elapsed()));
            let Ok(machine) = machine else {
                return report.fail(format!("{}: boot probe failed", d.name));
            };
            let checkpoint = machine.checkpoint();
            let t = Instant::now();
            let gang = tracer.span("machine.fork", None, i as u64, |_| {
                checkpoint.fork(d.explore.lanes)
            });
            fork.push(report::ms(t.elapsed()));
            if gang.is_err() {
                return report.fail(format!("{}: fork probe failed", d.name));
            }
        }
    }
    report.layer("machine.boot_ms", median(&boot));
    report.layer("machine.fork.ms", median(&fork));
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    let (designs, records, setup_s) = report::repeated_setup(|| setup(ctx.seed));
    report.set("setup_s", setup_s);
    let per_design: Vec<(&str, Vec<Record>)> = designs
        .iter()
        .enumerate()
        .map(|(i, d)| (d.name, records.iter().map(|r| r[i].clone()).collect()))
        .collect();
    bringup::fill(report, &per_design);

    let mut expect = Vec::new();
    for d in &designs {
        match expected(d) {
            Ok(e) => expect.push(e),
            Err(e) => return report.fail(format!("{}: reference run failed: {e}", d.name)),
        }
    }

    let w = if ctx.trace {
        let plain = window(&designs, &expect, ctx.seconds / 2.0, &Tracer::off(), report);
        let tracer = Tracer::on();
        let traced = window(&designs, &expect, ctx.seconds / 2.0, &tracer, report);
        report.layer("trace.overhead_ratio", rate(&plain) / rate(&traced) - 1.0);
        probes(&designs, &tracer, report);
        report.trace_summary(tracer.spans(), traced.lo_ns, traced.hi_ns);
        traced
    } else {
        window(&designs, &expect, ctx.seconds, &Tracer::off(), report)
    };

    report.set("sweep_scenarios_per_s", rate(&w));
    report.set(
        "sim_khz",
        median(
            &w.batches
                .iter()
                .map(|b| b.1 as f64 / b.2 / 1e3)
                .collect::<Vec<_>>(),
        ),
    );
    let secs: f64 = w.batches.iter().map(|b| b.2).sum();
    for (class, (n, secs)) in CLASSES.iter().zip(w.class) {
        report.layer(format!("fleet.{class}.scen_per_s"), n as f64 / secs);
    }
    let covered: u64 = expect.iter().map(|e| e.explore.covered_bits).sum();
    report.layer("fleet.explore.covered_bits", covered as f64);
    for (d, e) in designs.iter().zip(&expect) {
        report.exact(
            format!("explore.{}.covered_bits", d.name),
            e.explore.covered_bits,
            true,
        );
        report.exact(
            format!("explore.{}.scenarios", d.name),
            e.explore.scenarios,
            true,
        );
    }
    // A batch is six class calls.
    report.set(
        "serve_jobs_per_s",
        median(&w.batches.iter().map(|b| 6.0 / b.2).collect::<Vec<_>>()),
    );
    report.set("serve_latency_ms_p50", percentile(&w.latencies, 50.0));
    report.set("serve_latency_ms_p99", percentile(&w.latencies, 99.0));
    report.layer("serve.latency_samples", w.latencies.len() as f64);
    report.note(format!(
        "scenario-sweep: {} batches of {} scenarios in {secs:.2} s; scenarios/s per class: {}",
        w.batches.len(),
        w.batches.first().map_or(0, |b| b.0),
        CLASSES
            .iter()
            .zip(w.class)
            .map(|(c, (n, s))| format!("{c}={:.0}", n as f64 / s))
            .collect::<Vec<_>>()
            .join(" ")
    ));
}
