//! The ECO patch: rewire operations, cloned logic, and Table-2 accounting.

use std::collections::{HashMap, HashSet};

use eco_netlist::{topo, Circuit, GateKind, NetId, NetlistError, Pin};
use eco_sat::{tseitin, SolveResult, Solver};
use eco_timing::{DelayModel, TimingReport};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::validate::{apply_rewires, CandidateRewire};

/// One rewire `p/s` of paper §3.3: pin `pin` was disconnected from
/// `old_net` and connected to `new_net`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RewireOp {
    /// The rectified pin.
    pub pin: Pin,
    /// The pin's previous driver.
    pub old_net: NetId,
    /// The pin's new driver (in the patched implementation).
    pub new_net: NetId,
    /// Whether `new_net` is logic cloned from the specification (`C'`)
    /// rather than a pre-existing net of the implementation.
    pub from_spec: bool,
}

/// A complete patch applied to an implementation.
///
/// Tracks the rewire operations and the set of nodes cloned from the
/// specification, and computes the patch attributes reported in the paper's
/// Table 2 via [`Patch::stats`].
#[derive(Debug, Clone, Default)]
pub struct Patch {
    rewires: Vec<RewireOp>,
    cloned: HashSet<NetId>,
    /// Node count of the implementation before any patching; nodes at or
    /// beyond this index were added by the patch.
    baseline_nodes: usize,
}

/// Size attributes of a patch, in the units of the paper's Table 2.
///
/// ```
/// # let stats = syseco::PatchStats::default();
/// println!("{stats}"); // "inputs=0 outputs=0 gates=0 nets=0"
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PatchStats {
    /// Distinct existing-implementation nets consumed by the patch.
    pub inputs: usize,
    /// Distinct nets the patch drives (rewired pins, merged per net).
    pub outputs: usize,
    /// Cloned gates surviving in the patched implementation.
    pub gates: usize,
    /// Nets of the patch: its gates plus its boundary nets.
    pub nets: usize,
}

impl std::fmt::Display for PatchStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "inputs={} outputs={} gates={} nets={}",
            self.inputs, self.outputs, self.gates, self.nets
        )
    }
}

impl Patch {
    /// Starts an empty patch against an implementation that currently has
    /// `baseline_nodes` nodes.
    pub fn new(baseline_nodes: usize) -> Self {
        Patch {
            rewires: Vec::new(),
            cloned: HashSet::new(),
            baseline_nodes,
        }
    }

    /// The recorded rewire operations.
    pub fn rewires(&self) -> &[RewireOp] {
        &self.rewires
    }

    /// Records a rewire operation.
    pub fn record_rewire(&mut self, op: RewireOp) {
        self.rewires.push(op);
    }

    /// Records nets cloned from the specification.
    pub fn record_cloned(&mut self, nets: impl IntoIterator<Item = NetId>) {
        self.cloned.extend(nets);
    }

    /// Applies one rewire group with [`apply_rewires`] and records what it
    /// executed — the one circuit mutation of the merge phase and of a
    /// cache replay. On error `implementation` may be partially rewired.
    pub(crate) fn apply(
        &mut self,
        implementation: &mut Circuit,
        spec: &Circuit,
        group: &[CandidateRewire],
        shared_clones: &mut HashMap<NetId, NetId>,
    ) -> Result<(), NetlistError> {
        let (ops, cloned) = apply_rewires(implementation, spec, group, shared_clones)?;
        self.record_cloned(cloned);
        for op in ops {
            self.record_rewire(op);
        }
        Ok(())
    }

    /// Whether `net` was added by this patch (cloned or, by index, created
    /// after patching began).
    pub fn is_patch_net(&self, net: NetId) -> bool {
        self.cloned.contains(&net) || net.index() >= self.baseline_nodes
    }

    /// Number of nodes the implementation had before patching.
    pub fn baseline_nodes(&self) -> usize {
        self.baseline_nodes
    }

    /// Computes Table-2 attributes against the patched circuit.
    ///
    /// Only live patch logic counts: cloned nodes swept away (e.g. after the
    /// input-refinement pass) do not inflate the numbers.
    pub fn stats(&self, patched: &Circuit) -> PatchStats {
        let mut patch_gates: HashSet<NetId> = HashSet::new();
        for id in patched.iter_live() {
            let net: NetId = id.into();
            if !self.is_patch_net(net) {
                continue;
            }
            let kind = patched.node(id).kind();
            if kind != GateKind::Input && !kind.is_const() {
                patch_gates.insert(net);
            }
        }
        // Patch inputs: existing nets feeding patch gates, plus existing
        // nets used directly as rewiring targets when they are not
        // themselves part of the original driver cone (a pure reconnection
        // consumes that net as a patch input).
        let mut inputs: HashSet<NetId> = HashSet::new();
        for &g in &patch_gates {
            for &f in patched.node(g.source()).fanins() {
                if !self.is_patch_net(f) {
                    inputs.insert(f);
                }
            }
        }
        let mut outputs: HashSet<NetId> = HashSet::new();
        for op in &self.rewires {
            outputs.insert(op.new_net);
            if !self.is_patch_net(op.new_net) {
                inputs.insert(op.new_net);
            }
        }
        let gates = patch_gates.len();
        let nets = gates + inputs.len();
        PatchStats {
            inputs: inputs.len(),
            outputs: outputs.len(),
            gates,
            nets,
        }
    }
}

/// Renders a human-readable patch report: the rewire operations, the
/// surviving cloned gates, and the Table-2 attribute summary.
///
/// ```
/// # use syseco::{Patch, patch::render_report};
/// # let c = eco_netlist::Circuit::new("d");
/// # let patch = Patch::new(0);
/// let report = render_report(&patch, &c);
/// assert!(report.contains("patch summary"));
/// ```
pub fn render_report(patch: &Patch, patched: &Circuit) -> String {
    use std::fmt::Write;
    let stats = patch.stats(patched);
    let mut out = format!(
        "patch summary: {stats}
"
    );
    if patch.rewires().is_empty() {
        out.push_str(
            "  (no rewires — design was already equivalent)
",
        );
        return out;
    }
    out.push_str(
        "rewire operations (p/s of paper §3.3):
",
    );
    for op in patch.rewires() {
        let _ = writeln!(
            out,
            "  {} : {} -> {}{}",
            op.pin,
            op.old_net,
            op.new_net,
            if op.from_spec {
                "  [cloned from C']"
            } else {
                "  [existing net]"
            }
        );
    }
    let mut clones: Vec<NetId> = patched
        .iter_live()
        .map(NetId::from)
        .filter(|&w| {
            patch.is_patch_net(w) && {
                let k = patched.node(w.source()).kind();
                k != GateKind::Input && !k.is_const()
            }
        })
        .collect();
    clones.sort();
    if clones.is_empty() {
        out.push_str(
            "cloned logic: none (pure rewiring)
",
        );
    } else {
        let _ = writeln!(out, "cloned logic ({} gates):", clones.len());
        for w in clones {
            let node = patched.node(w.source());
            let fanins: Vec<String> = node.fanins().iter().map(|f| f.to_string()).collect();
            let _ = writeln!(out, "  {} = {}({})", w, node.kind(), fanins.join(", "));
        }
    }
    out
}

/// Post-processing sweep of paper §5.2: re-expresses cloned patch logic in
/// terms of functionally equivalent nets that already exist in the
/// implementation, then removes the dead clones.
///
/// Candidate matches come from three 64-pattern simulation signatures and
/// are confirmed by two budgeted SAT queries. Returns the number of cloned
/// nodes eliminated.
///
/// # Errors
///
/// Propagates [`NetlistError`] from analysis passes.
pub fn refine_patch_inputs(
    circuit: &mut Circuit,
    patch: &Patch,
    budget: u64,
    seed: u64,
) -> Result<usize, NetlistError> {
    refine_patch_inputs_timed(circuit, patch, budget, seed, None)
}

/// [`refine_patch_inputs`] with optional timing awareness: when a delay
/// model is given, a merge is skipped if the replacement net arrives later
/// than the cloned logic it replaces — the level-driven mode of §6 extends
/// into post-processing so size refinement never degrades the critical
/// path.
///
/// # Errors
///
/// Propagates [`NetlistError`] from analysis passes.
pub fn refine_patch_inputs_timed(
    circuit: &mut Circuit,
    patch: &Patch,
    budget: u64,
    seed: u64,
    timing: Option<&DelayModel>,
) -> Result<usize, NetlistError> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let order = topo::topo_order(circuit)?;
    let arrivals = match timing {
        Some(model) => {
            // Clock the analysis at the current critical delay: merges may
            // then proceed wherever positive slack absorbs the detour.
            let period = TimingReport::analyze(circuit, model, 0.0)?.critical_delay();
            Some(TimingReport::analyze(circuit, model, period)?)
        }
        None => None,
    };

    let mut signatures: HashMap<NetId, [u64; 3]> = HashMap::new();
    for block in 0..3usize {
        let patterns: Vec<u64> = (0..circuit.num_inputs()).map(|_| rng.gen()).collect();
        let words = eco_netlist::sim::simulate64(circuit, &patterns)?;
        for &id in &order {
            let net: NetId = id.into();
            signatures.entry(net).or_insert([0; 3])[block] = words[net.index()];
        }
    }
    // Index candidate representatives by signature, in topological order:
    // any net may serve, so duplicated clones also merge with each other
    // (the earliest copy becomes the representative).
    let mut existing: HashMap<[u64; 3], Vec<NetId>> = HashMap::new();
    for &id in &order {
        let net: NetId = id.into();
        existing.entry(signatures[&net]).or_default().push(net);
    }

    let mut solver = Solver::new();
    let map = tseitin::encode_circuit(&mut solver, circuit, None)?;
    solver.set_conflict_budget(Some(budget));

    let mut removed = 0;
    for &id in &order {
        let net: NetId = id.into();
        if !patch.is_patch_net(net) {
            continue;
        }
        let kind = circuit.node(id).kind();
        if kind == GateKind::Input || kind.is_const() {
            continue;
        }
        let Some(candidates) = existing.get(&signatures[&net]) else {
            continue;
        };
        // Nets swept between encoding and refinement have no literal; they
        // cannot be merged, only skipped.
        let Some(lit) = map.lit(net) else {
            continue;
        };
        for &cand in candidates {
            if cand == net {
                break; // only earlier-in-topo representatives qualify
            }
            if let Some(report) = &arrivals {
                // Level-driven refinement: a merge is timing-safe when the
                // replacement still meets the net's required time.
                if report.arrival(cand) > report.required(net) {
                    continue;
                }
            }
            let Some(cl) = map.lit(cand) else {
                continue;
            };
            if solver.solve(&[lit, !cl]) != SolveResult::Unsat {
                continue;
            }
            if solver.solve(&[!lit, cl]) != SolveResult::Unsat {
                continue;
            }
            // Equivalent existing net found: take over all sinks.
            let fanouts = circuit.fanouts();
            let mut ok = true;
            for pin in &fanouts[net.index()] {
                if circuit.rewire(*pin, cand).is_err() {
                    ok = false;
                }
            }
            if ok {
                removed += 1;
            }
            break;
        }
    }
    circuit.sweep();
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_netlist::{Circuit, GateKind};

    fn base() -> (Circuit, NetId, NetId, NetId) {
        let mut c = Circuit::new("b");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate(GateKind::And, &[a, b]).unwrap();
        c.add_output("y", g);
        (c, a, b, g)
    }

    #[test]
    fn pure_rewire_patch_counts_no_gates() {
        let (mut c, a, _b, g) = base();
        let baseline = c.num_nodes();
        let mut patch = Patch::new(baseline);
        // Rewire the AND's first pin to input a's complement? use existing b.
        let pin = Pin::gate(g.source(), 0);
        let old = c.pin_net(pin).unwrap();
        c.rewire(pin, a).unwrap();
        patch.record_rewire(RewireOp {
            pin,
            old_net: old,
            new_net: a,
            from_spec: false,
        });
        let stats = patch.stats(&c);
        assert_eq!(stats.gates, 0);
        assert_eq!(stats.outputs, 1);
        assert_eq!(stats.inputs, 1); // existing net `a` consumed by the patch
    }

    #[test]
    fn cloned_logic_counts_gates_and_inputs() {
        let (mut c, a, b, g) = base();
        let baseline = c.num_nodes();
        let mut patch = Patch::new(baseline);
        // "Clone" a new gate (simulating spec logic) and rewire the output.
        let nb = c.add_gate(GateKind::Not, &[b]).unwrap();
        let ng = c.add_gate(GateKind::And, &[a, nb]).unwrap();
        patch.record_cloned([nb, ng]);
        let pin = Pin::output(0);
        c.rewire(pin, ng).unwrap();
        patch.record_rewire(RewireOp {
            pin,
            old_net: g,
            new_net: ng,
            from_spec: true,
        });
        c.sweep();
        let stats = patch.stats(&c);
        assert_eq!(stats.gates, 2);
        assert_eq!(stats.outputs, 1);
        assert_eq!(stats.inputs, 2); // a and b feed the patch
        assert_eq!(stats.nets, 4);
    }

    #[test]
    fn swept_clones_do_not_count() {
        let (mut c, a, b, _g) = base();
        let baseline = c.num_nodes();
        let mut patch = Patch::new(baseline);
        let dead = c.add_gate(GateKind::Or, &[a, b]).unwrap();
        patch.record_cloned([dead]);
        c.sweep(); // dead clone removed
        let stats = patch.stats(&c);
        assert_eq!(stats.gates, 0);
    }

    #[test]
    fn refine_replaces_redundant_clone() {
        // The patch clones logic identical to an existing net; refinement
        // should reuse the existing net and drop the clone.
        let (mut c, a, b, g) = base();
        let baseline = c.num_nodes();
        let mut patch = Patch::new(baseline);
        // Clone: another AND(a, b) — functionally identical to g.
        let clone = c.add_gate(GateKind::And, &[a, b]).unwrap();
        // Wire an extra output through patch logic: y2 = NOT(clone).
        let inv = c.add_gate(GateKind::Not, &[clone]).unwrap();
        patch.record_cloned([clone, inv]);
        let idx = c.add_output("y2", inv);
        patch.record_rewire(RewireOp {
            pin: Pin::output(idx),
            old_net: g,
            new_net: inv,
            from_spec: true,
        });
        let before = patch.stats(&c);
        assert_eq!(before.gates, 2);
        let removed = refine_patch_inputs(&mut c, &patch, 10_000, 1).unwrap();
        assert!(removed >= 1, "the duplicate AND should be eliminated");
        let after = patch.stats(&c);
        assert!(after.gates < before.gates);
        // Function preserved.
        for j in 0..4u8 {
            let assign = [(j & 1) == 1, (j & 2) == 2];
            let out = c.eval(&assign).unwrap();
            assert_eq!(out[1], !(assign[0] && assign[1]));
        }
    }

    #[test]
    fn report_lists_rewires_and_clones() {
        let (mut c, a, b, g) = base();
        let baseline = c.num_nodes();
        let mut patch = Patch::new(baseline);
        let nb = c.add_gate(GateKind::Not, &[b]).unwrap();
        let ng = c.add_gate(GateKind::And, &[a, nb]).unwrap();
        patch.record_cloned([nb, ng]);
        c.rewire(Pin::output(0), ng).unwrap();
        patch.record_rewire(RewireOp {
            pin: Pin::output(0),
            old_net: g,
            new_net: ng,
            from_spec: true,
        });
        c.sweep();
        let report = render_report(&patch, &c);
        assert!(report.contains("patch summary"));
        assert!(report.contains("[cloned from C']"));
        assert!(report.contains("cloned logic (2 gates)"));
        assert!(report.contains("not("));
    }

    #[test]
    fn report_handles_empty_patch() {
        let (c, _, _, _) = base();
        let report = render_report(&Patch::new(c.num_nodes()), &c);
        assert!(report.contains("no rewires"));
    }

    #[test]
    fn is_patch_net_tracks_baseline_index() {
        let (mut c, a, b, _g) = base();
        let patch = Patch::new(c.num_nodes());
        let newer = c.add_gate(GateKind::Or, &[a, b]).unwrap();
        assert!(patch.is_patch_net(newer));
        assert!(!patch.is_patch_net(a));
    }
}
