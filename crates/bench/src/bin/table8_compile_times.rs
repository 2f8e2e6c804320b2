//! Table 8 + Fig. 13: compile times with the split-graph sizes (|V|, |E|)
//! and the per-pass breakdown (the paper's yss/prs/opt/prl/cf/sch bars —
//! here netlist-opt/lower/lir-opt/partition/custom-functions/schedule/
//! regalloc-emit).
//!
//! The nine evaluation workloads compile for the paper's 15×15 grid; the
//! `soc` compile-stress torus compiles for a 16×16 grid. Per-pass IR sizes
//! are deterministic compiler outputs and are emitted per row for the
//! bench gate's exact comparison (`scripts/bench_gate.py
//! --compile-fresh/--compile-baseline`); wall times are the best of
//! `--repeat` runs per pass, and only each row's `total_ms` is gated, as a
//! one-sided ceiling, so the gate never fails a run for being too fast.
//! The JSON carries a `host` block because those ceilings are absolute
//! times.
//!
//! Run: `cargo run --release -p manticore-bench --bin table8_compile_times
//!       [-- --json BENCH_compile.json] [--repeat N]`

use manticore::compiler::PartitionStrategy;
use manticore::netlist::Netlist;
use manticore::workloads;
use manticore_bench::{
    compile_for_grid, fmt, host_block,
    json::{self, Val},
    reject_unknown_args, row, take_flag,
};

struct Row {
    name: String,
    grid: usize,
    nets: usize,
    split_v: usize,
    split_e: usize,
    /// Pass name → deterministic IR size (asserted identical across the
    /// repeats, compared exactly by the gate).
    pass_sizes: Vec<(String, usize)>,
    /// Per-pass best-of-`repeat` milliseconds, pipeline order.
    pass_ms: Vec<f64>,
}

impl Row {
    fn total_ms(&self) -> f64 {
        self.pass_ms.iter().sum()
    }
}

/// One compile of `netlist`, folded into `row`: per-pass times keep their
/// minimum, IR sizes must repeat exactly.
fn measure_once(row: &mut Row, netlist: &Netlist) {
    let out = compile_for_grid(netlist, row.grid, PartitionStrategy::Balanced);
    let ms = out
        .report
        .passes
        .iter()
        .map(|p| p.duration.as_secs_f64() * 1e3);
    if row.pass_ms.is_empty() {
        row.pass_ms = ms.collect();
    } else {
        for (b, m) in row.pass_ms.iter_mut().zip(ms) {
            *b = b.min(m);
        }
    }
    let sizes: Vec<(String, usize)> = out
        .report
        .passes
        .iter()
        .map(|p| (p.name.to_string(), p.ir_size))
        .collect();
    if row.pass_sizes.is_empty() {
        row.pass_sizes = sizes;
        row.split_v = out.report.split.vertices;
        row.split_e = out.report.split.edges;
    } else {
        assert_eq!(
            row.pass_sizes, sizes,
            "{}: per-pass IR sizes must not vary",
            row.name
        );
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = take_flag(&mut args, "--json");
    let repeat: usize = take_flag(&mut args, "--repeat")
        .map(|v| v.parse().expect("--repeat takes an integer"))
        .unwrap_or(2)
        .max(1);
    reject_unknown_args(&args);

    // The nine workloads at 15×15, then the compile-stress SoC at 16×16.
    let mut designs: Vec<(&str, Netlist, usize)> = workloads::all()
        .into_iter()
        .map(|w| (w.name, w.netlist, 15))
        .collect();
    let soc = workloads::by_name("soc").expect("soc workload");
    designs.push(("soc", soc.netlist, 16));
    let mut rows: Vec<Row> = designs
        .iter()
        .map(|(name, netlist, grid)| Row {
            name: name.to_string(),
            grid: *grid,
            nets: netlist.nets().len(),
            split_v: 0,
            split_e: 0,
            pass_sizes: Vec::new(),
            pass_ms: Vec::new(),
        })
        .collect();
    // Round-robin over the designs, so a burst of host noise lands on one
    // repeat of many rows rather than on every repeat of one row.
    for _ in 0..repeat {
        for (row, (_, netlist, _)) in rows.iter_mut().zip(&designs) {
            measure_once(row, netlist);
        }
    }

    println!("# Table 8 / Fig. 13: compilation statistics (9 workloads @15x15, soc @16x16)\n");
    row(&[
        "bench".into(),
        "|V| split".into(),
        "|E| merged".into(),
        "nets".into(),
        "total (ms)".into(),
        "dominant pass".into(),
    ]);
    println!("|---|---|---|---|---|---|");
    for r in &rows {
        let (dom_i, dom_ms) = r
            .pass_ms
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, ms)| (i, *ms))
            .unwrap();
        row(&[
            r.name.clone(),
            r.split_v.to_string(),
            r.split_e.to_string(),
            r.nets.to_string(),
            fmt(r.total_ms()),
            format!("{} ({:.0}ms)", r.pass_sizes[dom_i].0, dom_ms),
        ]);
    }

    println!("\n## Fig. 13: per-pass compile time, ms (share of total)\n");
    print!("{:>8}", "bench");
    for (name, _) in &rows[0].pass_sizes {
        print!(" {name:>22}");
    }
    println!();
    for r in &rows {
        let total = r.total_ms();
        print!("{:>8}", r.name);
        for ms in &r.pass_ms {
            print!(" {:>13.2} ({:>5.1}%)", ms, 100.0 * ms / total);
        }
        println!();
    }
    println!("\nexpected shape (paper Fig. 13): partitioning dominates compile time.");

    if let Some(path) = json_path {
        let row_vals: Vec<Val> = rows
            .iter()
            .map(|r| {
                let passes: Vec<Val> = r
                    .pass_sizes
                    .iter()
                    .zip(&r.pass_ms)
                    .map(|((name, size), ms)| {
                        Val::obj(vec![
                            ("name", Val::Str(name.clone())),
                            ("ir_size", Val::Int(*size as u64)),
                            ("ms", Val::Num(*ms)),
                        ])
                    })
                    .collect();
                Val::obj(vec![
                    ("name", Val::Str(r.name.clone())),
                    ("grid", Val::Int(r.grid as u64)),
                    ("nets", Val::Int(r.nets as u64)),
                    ("split_v", Val::Int(r.split_v as u64)),
                    ("split_e", Val::Int(r.split_e as u64)),
                    ("passes", Val::Arr(passes)),
                    ("total_ms", Val::Num(r.total_ms())),
                ])
            })
            .collect();
        let v = Val::obj(vec![
            ("host", host_block()),
            ("repeat", Val::Int(repeat as u64)),
            ("rows", Val::Arr(row_vals)),
        ]);
        json::write(&path, &v);
        println!("\nwrote {path}");
    }
}
