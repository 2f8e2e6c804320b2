//! Test oracles: the straightforward formulations of the three passes
//! whose production algorithms are incremental or vector-indexed, and the
//! tests that hold each production algorithm decision-for-decision equal
//! to its oracle on the same input.
//!
//! - [`merge_balanced`] recomputes every cost each iteration; production
//!   runs `partition::balanced_merge`. Compared: the merged sets.
//! - [`build_graph_ref`] builds dependency graphs over hash maps;
//!   production runs `schedule::build_graph`. Compared: the edge
//!   multisets, in-degrees, priorities, activity and hoisted constants.
//! - [`alloc_process_ref`] allocates registers over hash maps;
//!   production runs `regalloc::alloc_process`. Compared: every vreg's
//!   register, and the core images emitted from the oracle's views.
//!
//! Inputs are the nine workloads, a small `soc`, and seeded random
//! netlists; each pass gets the input the production pipeline feeds it.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use manticore_isa::{MachineConfig, Reg};
use manticore_netlist::Netlist;

use crate::bitset::BitSet;
use crate::error::CompileError;
use crate::lir::{LirOp, Process, StateId, VReg};
use crate::partition::{balanced_merge, partition_with, send_count, Unit};
use crate::regalloc::{alloc_process, emit_with, RegView};
use crate::schedule::{build_graph, finish_graph, ProcGraph};
use crate::{CompileControl, CompileCtx, CompileOptions, PassManager};

/// The balanced merge as the paper states it: recomputes unit costs and
/// merged costs from first principles every iteration.
fn merge_balanced(mut units: Vec<Unit>, num_cores: usize, instr_cost: &[usize]) -> Vec<BitSet> {
    let mut alive = vec![true; units.len()];
    loop {
        let live: Vec<usize> = (0..units.len()).filter(|&i| alive[i]).collect();
        if live.len() <= 1 {
            break;
        }
        let must_merge = live.len() > num_cores;
        let cost = |i: usize, units: &[Unit], alive: &[bool]| {
            units[i].base_cost + send_count(i, units, alive)
        };
        // Cheapest live unit.
        let &u = live
            .iter()
            .min_by_key(|&&i| cost(i, &units, &alive))
            .unwrap();
        // Communicating partners.
        let partners: Vec<usize> = live
            .iter()
            .copied()
            .filter(|&v| {
                v != u
                    && (units[u].commits.iter().any(|s| units[v].reads.contains(s))
                        || units[v].commits.iter().any(|s| units[u].reads.contains(s)))
            })
            .collect();
        let candidates = if partners.is_empty() {
            live.iter().copied().filter(|&v| v != u).collect::<Vec<_>>()
        } else {
            partners
        };
        // Merged cost of u+v: deduped instructions + sends of the union.
        let merged_cost = |v: usize, units: &[Unit], alive: &[bool]| -> usize {
            let mut base = 0usize;
            // weighted union popcount
            let set = &units[u].instrs;
            let other = &units[v].instrs;
            for i in set.iter() {
                base += instr_cost[i];
            }
            for i in other.iter() {
                if !set.contains(i) {
                    base += instr_cost[i];
                }
            }
            let mut sends = 0;
            for s in units[u].commits.iter().chain(units[v].commits.iter()) {
                for (w, ww) in units.iter().enumerate() {
                    if w != u && w != v && alive[w] && ww.reads.contains(s) {
                        sends += 1;
                    }
                }
            }
            base + sends
        };
        let best = candidates
            .iter()
            .map(|&v| (merged_cost(v, &units, &alive), v))
            .min();
        let Some((best_cost, v)) = best else { break };
        if !must_merge {
            let straggler = live.iter().map(|&i| cost(i, &units, &alive)).max().unwrap();
            if best_cost > straggler {
                break;
            }
        }
        // Merge v into u.
        let vv = units[v].clone();
        units[u].instrs.union_with(&vv.instrs);
        units[u].base_cost = units[u].instrs.iter().map(|i| instr_cost[i]).sum();
        units[u].commits.extend(vv.commits.iter().copied());
        units[u].reads.extend(vv.reads.iter().copied());
        alive[v] = false;
    }
    units
        .into_iter()
        .zip(alive)
        .filter_map(|(un, a)| a.then_some(un.instrs))
        .collect()
}

/// Dependency-graph construction over hash maps, with a full scan of the
/// process per commit for its anti-edges.
fn build_graph_ref(p: &Process, lat: u64) -> ProcGraph {
    let n = p.instrs.len();
    let mut def_of: HashMap<VReg, usize> = HashMap::new();
    let mut consts: HashMap<VReg, u16> = HashMap::new();
    let mut active = vec![true; n];
    for (i, instr) in p.instrs.iter().enumerate() {
        if let LirOp::Const(v) = instr.op {
            consts.insert(instr.dest.unwrap(), v);
            active[i] = false;
            continue;
        }
        if let Some(d) = instr.dest {
            def_of.insert(d, i);
        }
    }
    let mut succs: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
    let mut indeg = vec![0u32; n];
    let add_edge = |succs: &mut Vec<Vec<(usize, u64)>>,
                    indeg: &mut Vec<u32>,
                    from: usize,
                    to: usize,
                    l: u64| {
        if from != to {
            succs[from].push((to, l));
            indeg[to] += 1;
        }
    };
    // Data edges.
    for (i, instr) in p.instrs.iter().enumerate() {
        if !active[i] {
            continue;
        }
        for a in &instr.args {
            if let Some(&d) = def_of.get(a) {
                add_edge(&mut succs, &mut indeg, d, i, lat);
            }
        }
    }
    // Anti edges.
    let livein_of: HashMap<StateId, VReg> = p.state_reads.iter().map(|(&s, &v)| (s, v)).collect();
    let mut mem_loads: HashMap<u32, Vec<usize>> = HashMap::new();
    let mut mem_stores: HashMap<u32, Vec<usize>> = HashMap::new();
    let mut expects: Vec<usize> = Vec::new();
    for (i, instr) in p.instrs.iter().enumerate() {
        if !active[i] {
            continue;
        }
        match &instr.op {
            LirOp::LocalLoad { mem, .. } | LirOp::GlobalLoad { mem } => {
                mem_loads.entry(mem.0).or_default().push(i)
            }
            LirOp::LocalStore { mem, .. } | LirOp::GlobalStore { mem } => {
                mem_stores.entry(mem.0).or_default().push(i)
            }
            LirOp::Expect { .. } => expects.push(i),
            LirOp::CommitLocal { state } => {
                // The commit overwrites the state's home register: it
                // must issue after every reader of the current value.
                if let Some(lv) = livein_of.get(state) {
                    for (j, other) in p.instrs.iter().enumerate() {
                        if j != i && active[j] && other.args.contains(lv) {
                            add_edge(&mut succs, &mut indeg, j, i, 1);
                        }
                    }
                }
            }
            _ => {}
        }
    }
    // All loads of a memory before all its stores (reads see pre-cycle
    // contents); stores keep program order.
    for (m, stores) in &mem_stores {
        if let Some(loads) = mem_loads.get(m) {
            for &l in loads {
                for &s in stores {
                    add_edge(&mut succs, &mut indeg, l, s, 1);
                }
            }
        }
        for w in stores.windows(2) {
            add_edge(&mut succs, &mut indeg, w[0], w[1], 2);
        }
    }
    // Exceptions fire in program order (deterministic $display order).
    for w in expects.windows(2) {
        add_edge(&mut succs, &mut indeg, w[0], w[1], 1);
    }

    finish_graph(p, succs, indeg, active, consts)
}

/// Per-process allocation — liveness, commit coalescing, linear scan —
/// over hash-map lookup structures.
fn alloc_process_ref(
    p: &Process,
    slots: &[Option<usize>],
    pinned: &HashMap<VReg, Reg>,
    state_reg: &BTreeMap<StateId, Reg>,
    temp_base: u16,
    config: &MachineConfig,
) -> Result<HashMap<VReg, Reg>, CompileError> {
    // Liveness over scheduled positions.
    let mut def_slot: HashMap<VReg, usize> = HashMap::new();
    let mut last_use: HashMap<VReg, usize> = HashMap::new();
    for (t, slot) in slots.iter().enumerate() {
        let Some(i) = *slot else { continue };
        let instr = &p.instrs[i];
        let read_at = t + instr.op.issue_slots() - 1;
        for &a in &instr.args {
            let e = last_use.entry(a).or_insert(read_at);
            *e = (*e).max(read_at);
        }
        if let Some(d) = instr.dest {
            def_slot.insert(d, t);
        }
    }

    // Commit coalescing.
    let mut elided_commits: BTreeSet<usize> = BTreeSet::new();
    let mut coalesced: HashMap<VReg, Reg> = HashMap::new();
    for (t, slot) in slots.iter().enumerate() {
        let Some(i) = *slot else { continue };
        let LirOp::CommitLocal { state } = p.instrs[i].op else {
            continue;
        };
        let src = p.instrs[i].args[0];
        let home = state_reg[&state];
        // Identity commit: the next value IS the current value.
        if p.state_reads.get(&state) == Some(&src) {
            elided_commits.insert(i);
            continue;
        }
        // Coalesce: src is an unpinned temp whose definition runs after
        // every read of the current value.
        let is_temp = !pinned.contains_key(&src) && !coalesced.contains_key(&src);
        if is_temp {
            let src_def = def_slot.get(&src).copied().unwrap_or(0);
            let ok = match p.state_reads.get(&state) {
                None => true,
                Some(lv) => last_use.get(lv).is_none_or(|&lu| lu < src_def),
            };
            if ok {
                coalesced.insert(src, home);
                elided_commits.insert(i);
            }
        }
        let _ = t;
    }

    // Linear scan for the remaining temporaries.
    let mut alloc: HashMap<VReg, Reg> = HashMap::new();
    let mut free: Vec<u16> = Vec::new();
    let mut next_fresh = temp_base;
    let mut active: Vec<(usize, VReg, Reg)> = Vec::new(); // (last_use, vreg, reg)
    let mut max_reg_used = temp_base.saturating_sub(1) as usize;
    for (t, slot) in slots.iter().enumerate() {
        let Some(i) = *slot else { continue };
        let Some(d) = p.instrs[i].dest else { continue };
        if pinned.contains_key(&d) || coalesced.contains_key(&d) {
            continue;
        }
        // Expire.
        active.retain(|&(lu, _, r)| {
            if lu <= t {
                free.push(r.0);
                false
            } else {
                true
            }
        });
        let lu = last_use.get(&d).copied().unwrap_or(t);
        let r = match free.pop() {
            Some(r) => Reg(r),
            None => {
                let r = next_fresh;
                next_fresh += 1;
                Reg(r)
            }
        };
        max_reg_used = max_reg_used.max(r.index());
        alloc.insert(d, r);
        if lu > t {
            active.push((lu, d, r));
        } else {
            free.push(r.0);
        }
    }
    if max_reg_used >= config.regfile_size {
        return Err(CompileError::RegfileOverflow {
            needed: max_reg_used + 1,
            capacity: config.regfile_size,
        });
    }

    // Final vreg -> machine reg view.
    let mut reg_of: HashMap<VReg, Reg> = HashMap::new();
    reg_of.extend(pinned.iter().map(|(&v, &r)| (v, r)));
    reg_of.extend(coalesced.iter().map(|(&v, &r)| (v, r)));
    reg_of.extend(alloc.iter().map(|(&v, &r)| (v, r)));
    Ok(reg_of)
}

// ----------------------------------------------------------------------
// Oracle tests
// ----------------------------------------------------------------------

/// The production balanced merge, checked against [`merge_balanced`] on
/// the same units.
fn checked_merge(
    units: Vec<Unit>,
    num_cores: usize,
    instr_cost: &[usize],
    num_states: usize,
    control: &CompileControl,
) -> Result<Vec<BitSet>, CompileError> {
    let expected = merge_balanced(units.clone(), num_cores, instr_cost);
    let got = balanced_merge(units, num_cores, instr_cost, num_states, control)?;
    assert_eq!(got, expected, "balanced merge diverged from the oracle");
    Ok(got)
}

/// The production allocator, checked against [`alloc_process_ref`];
/// returns the oracle's view so emission runs on it.
fn checked_alloc(
    p: &Process,
    slots: &[Option<usize>],
    pinned: &HashMap<VReg, Reg>,
    state_reg: &BTreeMap<StateId, Reg>,
    temp_base: u16,
    config: &MachineConfig,
) -> Result<RegView, CompileError> {
    let got = alloc_process(p, slots, pinned, state_reg, temp_base, config);
    let expected = alloc_process_ref(p, slots, pinned, state_reg, temp_base, config).map(|m| {
        let mut view = vec![None; p.num_vregs as usize];
        for (v, r) in m {
            view[v.index()] = Some(r);
        }
        view
    });
    assert_eq!(
        got, expected,
        "register allocation diverged from the oracle"
    );
    expected
}

/// Successor lists with each list sorted: the edge multiset per node.
fn edge_multiset(g: &ProcGraph) -> Vec<Vec<(usize, u64)>> {
    g.succs
        .iter()
        .map(|s| {
            let mut s = s.clone();
            s.sort_unstable();
            s
        })
        .collect()
}

/// Runs the production pipeline on `netlist`, then feeds each oracle'd
/// pass the input the pipeline fed it and asserts production == oracle.
fn assert_passes_match_oracles(name: &str, netlist: &Netlist, options: &CompileOptions) {
    let mut ctx = CompileCtx::new(netlist, options);
    PassManager::standard()
        .run(&mut ctx)
        .unwrap_or_else(|e| panic!("{name}: compile failed: {e}"));
    let config = &options.config;

    // Partition: the lir-opt output, through both merges.
    partition_with(
        ctx.mono.as_ref().unwrap(),
        config.num_cores(),
        options.partition,
        &CompileControl::default(),
        checked_merge,
    )
    .unwrap();

    // Schedule: the custom-functions output, one graph per process.
    let parted = ctx.parted.as_ref().unwrap();
    let lat = config.hazard_latency as u64;
    for (pi, p) in parted.processes.iter().enumerate() {
        let (got, expected) = (build_graph(p, lat), build_graph_ref(p, lat));
        assert_eq!(
            edge_multiset(&got),
            edge_multiset(&expected),
            "{name}: process {pi} edges"
        );
        assert_eq!(got.indeg, expected.indeg, "{name}: process {pi} in-degrees");
        assert_eq!(
            got.priority, expected.priority,
            "{name}: process {pi} priorities"
        );
        assert_eq!(got.active, expected.active, "{name}: process {pi} activity");
        assert_eq!(
            got.consts, expected.consts,
            "{name}: process {pi} constants"
        );
    }

    // Regalloc-emit: the schedule, with the oracle's views emitted.
    let schedule = ctx.schedule.as_ref().unwrap();
    let oracle = emit_with(parted, schedule, config, checked_alloc).unwrap();
    let emitted = ctx.emitted.as_ref().unwrap();
    assert_eq!(
        oracle.binary.cores, emitted.binary.cores,
        "{name}: core images emitted from the oracle's views differ"
    );
    assert_eq!(
        oracle.binary.to_bytes(),
        emitted.binary.to_bytes(),
        "{name}: binary"
    );
}

fn options(grid: usize) -> CompileOptions {
    CompileOptions {
        config: MachineConfig::with_grid(grid, grid),
        ..Default::default()
    }
}

#[test]
fn passes_match_oracles_on_every_workload() {
    for w in manticore_workloads::all() {
        assert_passes_match_oracles(w.name, &w.netlist, &options(6));
    }
}

#[test]
fn passes_match_oracles_on_soc() {
    let netlist = manticore_workloads::soc_sized(4, 3, 2000);
    assert_passes_match_oracles("soc-4x3", &netlist, &options(6));
}

#[test]
fn passes_match_oracles_on_random_netlists() {
    for seed in [7u64, 21, 42] {
        let netlist = crate::tests::random_netlist(seed, 60);
        assert_passes_match_oracles(&format!("random-{seed}"), &netlist, &options(4));
    }
}
