//! A DeltaSyn-style structural-difference baseline.
//!
//! Following the approach of \[8\] (Krishnaswamy et al., *DeltaSyn: an
//! efficient logic difference optimizer for ECO synthesis*, ICCAD 2009),
//! signals of the implementation and the revised specification are matched
//! **structurally**, forward from the primary inputs: a specification gate
//! corresponds to an implementation gate when their kinds agree and all
//! their fanins are already matched. Each failing output is then patched
//! with the *unmatched region* of its specification cone, stitched at the
//! matched boundary signals.
//!
//! This inherits DeltaSyn's documented weakness (paper §2): when the
//! implementation has been restructured by optimization, little matches
//! beyond the inputs and the patch degenerates toward a full cone copy —
//! exactly the regime where syseco's functional search wins.

use std::collections::HashMap;
use std::time::Instant;

use eco_netlist::{topo, Circuit, GateKind, NetId, Pin};
use eco_telemetry::Counter;

use crate::correspond::Correspondence;
use crate::engine::{name_spec_inputs, normalize_ports, EcoResult};
use crate::error_domain::{classify_outputs, Equivalence};
use crate::patch::{Patch, RewireOp};
use crate::rectify::RectifyStats;
use crate::EcoError;

/// Computes the forward structural matching from specification nets to
/// implementation nets.
///
/// Inputs match by label, constants by value, and gates by
/// `(kind, matched fanins)` with commutative fanin lists sorted. Returns a
/// map from spec nets to impl nets.
pub fn structural_match(implementation: &Circuit, spec: &Circuit) -> HashMap<NetId, NetId> {
    // Index implementation gates by structural key.
    let mut index: HashMap<(GateKind, Vec<NetId>), NetId> = HashMap::new();
    for id in implementation.iter_live() {
        let node = implementation.node(id);
        let kind = node.kind();
        if kind == GateKind::Input || kind.is_const() {
            continue;
        }
        let mut fanins = node.fanins().to_vec();
        if kind.is_commutative() {
            fanins.sort();
        }
        index.entry((kind, fanins)).or_insert_with(|| id.into());
    }

    let mut matched: HashMap<NetId, NetId> = HashMap::new();
    let order = topo::topo_order(spec).expect("well-formed spec");
    for id in order {
        let node = spec.node(id);
        let snet: NetId = id.into();
        match node.kind() {
            GateKind::Input => {
                let label = node.name().unwrap_or("");
                if let Some(inet) = implementation.input_by_name(label) {
                    matched.insert(snet, inet);
                }
            }
            GateKind::Const0 | GateKind::Const1 => {
                // Constants match a like-valued constant if one exists.
                for iid in implementation.iter_live() {
                    if implementation.node(iid).kind() == node.kind() {
                        matched.insert(snet, iid.into());
                        break;
                    }
                }
            }
            kind => {
                let mapped: Option<Vec<NetId>> = node
                    .fanins()
                    .iter()
                    .map(|f| matched.get(f).copied())
                    .collect();
                if let Some(mut fanins) = mapped {
                    if kind.is_commutative() {
                        fanins.sort();
                    }
                    if let Some(&inet) = index.get(&(kind, fanins)) {
                        matched.insert(snet, inet);
                    }
                }
            }
        }
    }
    matched
}

/// Rectifies `implementation` against `spec` with the DeltaSyn-style flow.
///
/// # Errors
///
/// Same conditions as [`Session::run`](crate::Session::run).
pub fn rectify(implementation: &Circuit, spec: &Circuit) -> Result<EcoResult, EcoError> {
    let start = Instant::now();
    implementation.check_well_formed()?;
    spec.check_well_formed()?;
    let named = name_spec_inputs(spec)?;
    let spec = named.as_ref().unwrap_or(spec);
    let mut patched = implementation.clone();
    normalize_ports(&mut patched, spec)?;
    let corr = Correspondence::build(&patched, spec)?;
    let mut patch = Patch::new(patched.num_nodes());
    let mut stats = RectifyStats {
        outputs_total: corr.outputs.len(),
        ..Default::default()
    };

    let mut matched = structural_match(&patched, spec);

    let verdicts = classify_outputs(&patched, spec, &corr, None, None)?;
    for (pair, verdict) in corr.outputs.clone().iter().zip(verdicts) {
        match verdict {
            Equivalence::Equivalent => continue,
            _ => stats.outputs_failing += 1,
        }
        let spec_root = spec.outputs()[pair.spec_index as usize].net();
        // Patch = unmatched region of the spec cone, stitched at matched
        // boundary signals. Cloned regions join the correspondence so
        // overlapping cones of later outputs reuse them.
        let before = patched.num_nodes();
        let map = patched
            .clone_cone(spec, &[spec_root], &matched)
            .map_err(EcoError::from)?;
        matched = map.clone();
        patch.record_cloned((before..patched.num_nodes()).map(NetId::from_index));
        let pin = Pin::output(pair.impl_index);
        let old_net = patched.pin_net(pin).map_err(EcoError::from)?;
        let new_net = matched[&spec_root];
        patched.rewire(pin, new_net).map_err(EcoError::from)?;
        patch.record_rewire(RewireOp {
            pin,
            old_net,
            new_net,
            from_spec: true,
        });
        stats.counters.add(Counter::RectifyFallbacks, 1);
    }
    patched.sweep();
    let pstats = patch.stats(&patched);
    Ok(EcoResult {
        stats: pstats,
        rectify: stats,
        runtime: start.elapsed(),
        patched,
        patch,
        trace: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify_rectification;
    use eco_netlist::GateKind;

    fn revision_case() -> (Circuit, Circuit) {
        // impl: y = (a & b) ^ d, z = a & b
        let mut c = Circuit::new("impl");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let d = c.add_input("d");
        let g1 = c.add_gate(GateKind::And, &[a, b]).unwrap();
        let g2 = c.add_gate(GateKind::Xor, &[g1, d]).unwrap();
        c.add_output("y", g2);
        c.add_output("z", g1);
        // spec: y = (a & b) ^ NOT d (revision), z unchanged.
        let mut s = Circuit::new("spec");
        let sa = s.add_input("a");
        let sb = s.add_input("b");
        let sd = s.add_input("d");
        let h1 = s.add_gate(GateKind::And, &[sa, sb]).unwrap();
        let nd = s.add_gate(GateKind::Not, &[sd]).unwrap();
        let h2 = s.add_gate(GateKind::Xor, &[h1, nd]).unwrap();
        s.add_output("y", h2);
        s.add_output("z", h1);
        (c, s)
    }

    #[test]
    fn structural_match_finds_identical_gates() {
        let (c, s) = revision_case();
        let matched = structural_match(&c, &s);
        // The AND gate is structurally identical in both.
        let spec_and = s.outputs()[1].net();
        let impl_and = c.outputs()[1].net();
        assert_eq!(matched.get(&spec_and), Some(&impl_and));
        // The revised XOR is not matched (its fanin NOT d has no impl twin).
        let spec_xor = s.outputs()[0].net();
        assert_eq!(matched.get(&spec_xor), None);
    }

    #[test]
    fn rectification_is_correct() {
        let (c, s) = revision_case();
        let result = rectify(&c, &s).unwrap();
        assert!(verify_rectification(&result.patched, &s).unwrap());
        // Only the unmatched region is cloned: NOT + XOR = 2 gates.
        assert_eq!(result.stats.gates, 2);
        assert_eq!(result.rectify.outputs_failing, 1);
    }

    #[test]
    fn structural_dissimilarity_inflates_patch() {
        // Restructure the implementation (De Morgan on the AND): matching
        // degrades and the cloned region grows relative to the similar case.
        let (c, s) = revision_case();
        let small = rectify(&c, &s).unwrap().stats;

        let mut rough = Circuit::new("impl");
        let a = rough.add_input("a");
        let b = rough.add_input("b");
        let d = rough.add_input("d");
        let na = rough.add_gate(GateKind::Not, &[a]).unwrap();
        let nb = rough.add_gate(GateKind::Not, &[b]).unwrap();
        let or = rough.add_gate(GateKind::Or, &[na, nb]).unwrap();
        let and = rough.add_gate(GateKind::Not, &[or]).unwrap(); // = a & b
        let x = rough.add_gate(GateKind::Xor, &[and, d]).unwrap();
        rough.add_output("y", x);
        rough.add_output("z", and);
        let big = rectify(&rough, &s).unwrap();
        assert!(verify_rectification(&big.patched, &s).unwrap());
        assert!(
            big.stats.gates > small.gates,
            "dissimilarity should inflate the DeltaSyn patch: {} vs {}",
            big.stats.gates,
            small.gates
        );
    }

    #[test]
    fn equivalent_designs_yield_empty_patch() {
        let (c, _) = revision_case();
        let result = rectify(&c, &c.clone()).unwrap();
        assert_eq!(result.stats, crate::PatchStats::default());
    }
}
