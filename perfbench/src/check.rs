//! Independent patch checks.
//!
//! A patch counts as correct only if the engine's own SAT check
//! ([`verify_rectification`]) and a random-pattern simulation through
//! [`eco_netlist::sim`] both agree that it matches the specification. The
//! simulation shares no code with the SAT or BDD paths, so a bug there
//! cannot vouch for itself.

use std::collections::HashMap;

use eco_netlist::{sim, Circuit};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use syseco::verify_rectification;

/// 64-pattern simulation blocks per check.
const SIM_BLOCKS: usize = 16;

/// Runs the SAT check, then the simulation check, on a patched design.
pub fn check_patch(patched: &Circuit, spec: &Circuit, seed: u64) -> Result<(), String> {
    match verify_rectification(patched, spec) {
        Ok(true) => simulation_agrees(patched, spec, seed),
        Ok(false) => Err("verify_rectification: patched design differs from the spec".into()),
        Err(e) => Err(format!("verify_rectification: {e}")),
    }
}

/// Simulates both circuits on the same random patterns, inputs matched by
/// name, and compares every specification output with the patched output
/// of the same name.
fn simulation_agrees(patched: &Circuit, spec: &Circuit, seed: u64) -> Result<(), String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let name_of = |c: &Circuit, id| c.node(id).name().unwrap_or("").to_string();
    for _ in 0..SIM_BLOCKS {
        let mut by_name: HashMap<String, u64> = HashMap::new();
        let mut patterns = |c: &Circuit| -> Vec<u64> {
            c.inputs()
                .iter()
                .map(|&id| *by_name.entry(name_of(c, id)).or_insert_with(|| rng.gen()))
                .collect()
        };
        let spec_patterns = patterns(spec);
        let patched_patterns = patterns(patched);
        let spec_words = sim::simulate64(spec, &spec_patterns).map_err(|e| e.to_string())?;
        let patched_words =
            sim::simulate64(patched, &patched_patterns).map_err(|e| e.to_string())?;
        for port in spec.outputs() {
            let other = patched
                .output_by_name(port.name())
                .ok_or_else(|| format!("patched design lacks output {}", port.name()))?;
            let want = spec_words[port.net().index()];
            let got = patched_words[patched.outputs()[other as usize].net().index()];
            if want != got {
                return Err(format!("simulation differs on output {}", port.name()));
            }
        }
    }
    Ok(())
}
