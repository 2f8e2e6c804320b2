//! The whole-stack benchmark: one command per workload, end to end and
//! layer by layer. `BENCHMARK.json` at the repository root names the
//! workloads and metrics; `perfbench/RATIONALE.md` says why each was
//! chosen and which layer metric should move which end-to-end metric.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is
//! the result: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`
//! with every end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`). The full result, with the host it ran on, is also
//! written to `perfbench/out/`, next to the traced run's spans. The exit
//! code is non-zero when any output mismatched its reference.

mod bringup;
mod cold;
mod report;
mod serve_mix;
mod steady;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use manticore_serve::json::Value;

use report::Report;

/// The workloads, by their permanent names.
const WORKLOADS: [&str; 4] = ["cold-compile", "steady-sim", "scenario-sweep", "serve-mix"];

/// Where results, spans and determinism records go, relative to the
/// repository root.
const OUT_DIR: &str = "perfbench/out";

/// What one invocation was asked to do.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "perfbench: {problem}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> Result<Ctx, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                flags.insert(flag, value);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let get = |k: &str| flags.get(k).copied().ok_or(format!("missing {k}"));
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed takes a non-negative integer".to_string())?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    Ok(Ctx {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A metric BENCHMARK.json declares: its name and unit.
struct Declared {
    name: String,
    unit: String,
}

/// Reads the end-to-end and per-layer metric lists from BENCHMARK.json,
/// the one place they are defined.
fn declared_metrics() -> Result<(Vec<Declared>, Vec<Declared>), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = Value::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| -> Result<Vec<Declared>, String> {
        doc.get(key)
            .and_then(Value::as_arr)
            .ok_or(format!("BENCHMARK.json has no `{key}` list"))?
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Value::as_str)
                        .map(str::to_string)
                        .ok_or(format!("a `{key}` entry lacks `{f}`"))
                };
                Ok(Declared {
                    name: field("name")?,
                    unit: field("unit")?,
                })
            })
            .collect()
    };
    Ok((list("end_to_end")?, list("per_layer")?))
}

/// nproc, CPU model, toolchain and source revision.
fn host_block() -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get()) as u64;
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    // Only a git checkout has a commit; a plain source tree reads
    // `unknown` (git is not asked, so it cannot find an enclosing
    // repository instead).
    let commit = Path::new(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "HEAD"])
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    Value::obj(vec![
        ("nproc", Value::Int(nproc)),
        ("cpu", Value::Str(cpu)),
        ("rustc", Value::Str(env!("PERFBENCH_RUSTC").into())),
        ("commit", Value::Str(commit)),
    ])
}

/// Identifies this build of the benchmark: exact counts are only
/// compared between runs of the same executable.
fn build_id() -> String {
    let meta = std::env::current_exe().and_then(std::fs::metadata);
    let (len, mtime) = meta.map_or((0, 0), |m| {
        let mtime = m
            .modified()
            .ok()
            .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
            .map_or(0, |d| d.as_nanos());
        (m.len(), mtime)
    });
    format!("{len:x}-{mtime:x}")
}

/// The determinism guard: every exact count must equal what earlier runs
/// of this build recorded — across seeds for counts that do not depend
/// on the seed, across runs with the same seed for those that do. The
/// first run of a build records them.
fn guard_exact(ctx: &Ctx, report: &mut Report) {
    let build = build_id();
    for seeded in [false, true] {
        let scope = if seeded {
            format!("seed{}", ctx.seed)
        } else {
            "any-seed".into()
        };
        let path = Path::new(OUT_DIR).join(format!("exact-{}-{scope}-{build}.json", ctx.workload));
        let mine: Vec<(String, Value)> = report
            .exact
            .iter()
            .filter(|(_, (_, s))| *s == seeded)
            .map(|(k, (v, _))| (k.clone(), Value::Int(*v)))
            .collect();
        let previous = std::fs::read_to_string(&path)
            .ok()
            .and_then(|t| Value::parse(&t).ok());
        let mut merged = mine.clone();
        if let Some(Value::Obj(prev)) = previous {
            for (k, v) in &prev {
                match mine.iter().find(|(mk, _)| mk == k) {
                    Some((_, mv)) if mv != v => report.fail(format!(
                        "determinism: `{k}` was {} in an earlier run ({scope}), now {}",
                        v.render(),
                        mv.render()
                    )),
                    Some(_) => {}
                    None => merged.push((k.clone(), v.clone())),
                }
            }
        }
        if merged.is_empty() {
            continue;
        }
        let tmp = path.with_extension("tmp");
        let written = std::fs::write(&tmp, Value::Obj(merged).render())
            .and_then(|()| std::fs::rename(&tmp, &path));
        if let Err(e) = written {
            eprintln!(
                "perfbench: cannot record exact counts in {}: {e}",
                path.display()
            );
        }
    }
}

fn metric_value(value: f64, unit: &str) -> Value {
    Value::obj(vec![
        ("value", Value::Num(value)),
        ("unit", Value::Str(unit.into())),
    ])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--daemon") {
        serve_mix::daemon_main();
    }
    let ctx = match parse_args(&args) {
        Ok(ctx) => ctx,
        Err(problem) => return usage(&problem),
    };
    let (end_to_end, per_layer) = match declared_metrics() {
        Ok(lists) => lists,
        Err(problem) => return usage(&problem),
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        return usage(&format!("cannot create {OUT_DIR}: {e}"));
    }

    let mut report = Report::default();
    match ctx.workload.as_str() {
        "cold-compile" => cold::run(&ctx, &mut report),
        "steady-sim" => steady::run(&ctx, &mut report),
        "scenario-sweep" => sweep::run(&ctx, &mut report),
        "serve-mix" => serve_mix::run(&ctx, &mut report),
        _ => unreachable!("workload names are validated"),
    }
    // The daemon's peak for serve-mix; this process's for the rest.
    let own_rss = report::peak_rss_mb("self");
    report.e2e.entry("peak_rss_mb").or_insert(own_rss);
    report.layer(
        "failed_ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    guard_exact(&ctx, &mut report);

    // Every declared metric is printed; a per-layer metric of a layer
    // this workload does not exercise reads 0.
    let mut printed = Vec::new();
    let mut all = Vec::new();
    for (d, e2e) in end_to_end
        .iter()
        .map(|d| (d, true))
        .chain(per_layer.iter().map(|d| (d, false)))
    {
        let value = if e2e {
            report.e2e.get(d.name.as_str()).copied()
        } else {
            Some(report.layer.get(&d.name).copied().unwrap_or(0.0))
        };
        let value = match value {
            Some(v) if v.is_finite() => v,
            _ => {
                report.fail(format!("metric `{}` was not measured", d.name));
                0.0
            }
        };
        if e2e != ctx.trace {
            printed.push((d.name.clone(), metric_value(value, &d.unit)));
        }
        all.push((d.name.clone(), metric_value(value, &d.unit)));
    }
    let undeclared: Vec<String> = report
        .layer
        .keys()
        .filter(|name| !per_layer.iter().any(|d| &d.name == *name))
        .cloned()
        .collect();
    for name in undeclared {
        report.fail(format!(
            "per-layer metric `{name}` is not declared in BENCHMARK.json"
        ));
    }

    let correct = report.failed == 0 && report.failures.is_empty();
    let host = host_block();
    let tag = format!(
        "{}-seed{}-trace{}",
        ctx.workload,
        ctx.seed,
        u8::from(ctx.trace)
    );
    let out = |name: String| -> PathBuf { Path::new(OUT_DIR).join(name) };
    if ctx.trace {
        if let Err(e) = trace::write_spans(&out(format!("spans-{tag}.json")), &report.spans) {
            eprintln!("perfbench: cannot write spans: {e}");
        }
    }
    let full = Value::obj(vec![
        ("workload", Value::Str(ctx.workload.clone())),
        ("seed", Value::Int(ctx.seed)),
        ("seconds", Value::Num(ctx.seconds)),
        ("trace", Value::Bool(ctx.trace)),
        ("host", host.clone()),
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Int(report.attempted)),
        ("failed", Value::Int(report.failed)),
        (
            "failures",
            Value::Arr(
                report
                    .failures
                    .iter()
                    .map(|f| Value::Str(f.clone()))
                    .collect(),
            ),
        ),
        ("metrics", Value::Obj(all)),
        (
            "exact",
            Value::Obj(
                report
                    .exact
                    .iter()
                    .map(|(k, (v, _))| (k.clone(), Value::Int(*v)))
                    .collect(),
            ),
        ),
    ]);
    if let Err(e) = std::fs::write(out(format!("result-{tag}.json")), full.render()) {
        eprintln!("perfbench: cannot write the result file: {e}");
    }

    println!("# host {}", host.render());
    for line in &report.notes {
        println!("# {line}");
    }
    for f in &report.failures {
        println!("# FAILED: {f}");
    }
    let result = Value::obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Int(report.attempted)),
        ("failed", Value::Int(report.failed)),
        ("metrics", Value::Obj(printed)),
    ]);
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
