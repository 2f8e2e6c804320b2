//! Lower-assembly optimizations: per-process CSE and DCE (§6 runs a second
//! "optimize" step after lowering and again after custom-function fusion).

use std::collections::HashMap;

use crate::lir::{LirInstr, LirOp, Process, VReg};

/// Common-subexpression elimination over pure ops. Rewrites uses in place;
/// the redundant definitions become dead and fall to [`dce`]. Returns the
/// applied substitution so external references (the exception table's
/// display-argument vregs) can be remapped.
pub fn cse(proc: &mut Process) -> HashMap<VReg, VReg> {
    // (op fingerprint, args) -> canonical dest
    let mut seen: HashMap<(String, Vec<VReg>), VReg> = HashMap::new();
    let mut subst: HashMap<VReg, VReg> = HashMap::new();
    for instr in &mut proc.instrs {
        for a in &mut instr.args {
            if let Some(&r) = subst.get(a) {
                *a = r;
            }
        }
        let pure = matches!(
            instr.op,
            LirOp::Const(_)
                | LirOp::Alu(_)
                | LirOp::AddCarry
                | LirOp::SubBorrow
                | LirOp::Mux
                | LirOp::Slice { .. }
                | LirOp::Custom { .. }
        );
        if !pure {
            continue;
        }
        let Some(dest) = instr.dest else { continue };
        let key = (format!("{:?}", instr.op), instr.args.clone());
        match seen.get(&key) {
            Some(&canon) => {
                subst.insert(dest, canon);
            }
            None => {
                seen.insert(key, dest);
            }
        }
    }
    subst
}

/// Dead-code elimination: keeps instructions transitively needed by the
/// side-effecting roots (stores, commits, sends, expects).
pub fn dce(proc: &mut Process) {
    let n = proc.instrs.len();
    let mut def_of: HashMap<VReg, usize> = HashMap::new();
    for (i, instr) in proc.instrs.iter().enumerate() {
        if let Some(d) = instr.dest {
            def_of.insert(d, i);
        }
    }
    let mut live = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    for (i, instr) in proc.instrs.iter().enumerate() {
        let root = matches!(
            instr.op,
            LirOp::LocalStore { .. }
                | LirOp::GlobalStore { .. }
                | LirOp::Expect { .. }
                | LirOp::CommitLocal { .. }
                | LirOp::Send { .. }
        );
        if root {
            live[i] = true;
            stack.push(i);
        }
    }
    while let Some(i) = stack.pop() {
        for a in &proc.instrs[i].args {
            if let Some(&d) = def_of.get(a) {
                if !live[d] {
                    live[d] = true;
                    stack.push(d);
                }
            }
        }
    }
    let old: Vec<LirInstr> = std::mem::take(&mut proc.instrs);
    proc.instrs = old
        .into_iter()
        .zip(live)
        .filter_map(|(i, l)| l.then_some(i))
        .collect();
    // Live-ins that are no longer referenced can be dropped too: they would
    // otherwise force pointless Sends from their owners.
    let used: std::collections::HashSet<VReg> = proc
        .instrs
        .iter()
        .flat_map(|i| i.args.iter().copied())
        .collect();
    proc.state_reads.retain(|_, v| used.contains(v));
}

/// Runs CSE then DCE on every process, keeping the exception table's
/// display-argument vregs consistent with the privileged process's
/// substitution.
pub fn optimize(prog: &mut crate::lir::LirProgram) {
    let priv_idx = prog.processes.iter().position(|p| p.is_privileged);
    let mut priv_subst = HashMap::new();
    for (pi, p) in prog.processes.iter_mut().enumerate() {
        let subst = cse(p);
        dce(p);
        if Some(pi) == priv_idx {
            priv_subst = subst;
        }
    }
    for e in &mut prog.exceptions {
        if let crate::lir::LirExceptionKind::Display { args, .. } = e {
            for (regs, _) in args {
                for r in regs {
                    if let Some(&s) = priv_subst.get(r) {
                        *r = s;
                    }
                }
            }
        }
    }
}
