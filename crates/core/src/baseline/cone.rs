//! The "commercial tool" proxy: whole-cone re-synthesis.
//!
//! For every failing output, the entire fanin cone of the revised
//! specification output is cloned into the implementation, stitched only at
//! the primary inputs, and the output pin is rewired to the clone. This is
//! deliberately structure-oblivious: always correct, fast, and patch-heavy —
//! the qualitative role of the commercial tool's default setting in the
//! paper's Table 2 (columns 3–6).

use std::collections::HashMap;
use std::time::Instant;

use eco_netlist::{NetId, Pin};
use eco_telemetry::Counter;

use crate::correspond::Correspondence;
use crate::engine::{name_spec_inputs, normalize_ports, EcoResult};
use crate::error_domain::{classify_outputs, Equivalence};
use crate::patch::{Patch, RewireOp};
use crate::rectify::RectifyStats;
use crate::EcoError;
use eco_netlist::Circuit;

/// Rectifies `implementation` against `spec` by full cone replacement.
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

    // Clones are shared across outputs: one boundary map for the whole run.
    let mut boundary: HashMap<NetId, NetId> = HashMap::new();
    let verdicts = classify_outputs(&patched, spec, &corr, None, None)?;
    for (pair, verdict) in corr.outputs.clone().iter().zip(verdicts) {
        match verdict {
            Equivalence::Equivalent => continue,
            _ => stats.outputs_failing += 1,
        }
        let spec_root = spec.outputs()[pair.spec_index as usize].net();
        let before = patched.num_nodes();
        let map = patched
            .clone_cone(spec, &[spec_root], &boundary)
            .map_err(EcoError::from)?;
        patch.record_cloned((before..patched.num_nodes()).map(NetId::from_index));
        boundary = map;
        let pin = Pin::output(pair.impl_index);
        let old_net = patched.pin_net(pin).map_err(EcoError::from)?;
        let new_net = boundary[&spec_root];
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
    use crate::baseline::deltasyn;
    use crate::verify_rectification;
    use eco_netlist::GateKind;

    fn case() -> (Circuit, Circuit) {
        let mut c = Circuit::new("impl");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let d = c.add_input("d");
        let g1 = c.add_gate(GateKind::And, &[a, b]).unwrap();
        let g2 = c.add_gate(GateKind::Xor, &[g1, d]).unwrap();
        c.add_output("y", g2);
        c.add_output("z", g1);
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
    fn cone_rewrite_is_correct() {
        let (c, s) = case();
        let result = rectify(&c, &s).unwrap();
        assert!(verify_rectification(&result.patched, &s).unwrap());
        // Whole revised cone cloned: AND + NOT + XOR = 3 gates.
        assert_eq!(result.stats.gates, 3);
    }

    #[test]
    fn cone_patch_not_smaller_than_deltasyn() {
        let (c, s) = case();
        let cone = rectify(&c, &s).unwrap().stats;
        let ds = deltasyn::rectify(&c, &s).unwrap().stats;
        assert!(cone.gates >= ds.gates);
    }

    #[test]
    fn equivalent_designs_yield_empty_patch() {
        let (c, _) = case();
        let result = rectify(&c, &c.clone()).unwrap();
        assert_eq!(result.stats, crate::PatchStats::default());
        assert_eq!(result.rectify.outputs_failing, 0);
    }
}
