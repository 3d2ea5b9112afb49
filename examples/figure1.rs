//! The paper's Figure 1 / Examples 1–2 scenario.
//!
//! The implementation computes word outputs
//! `w_out = GATE(w_in1, v0) ∨ GATE(w_in2, v1)` where `v0` and `v1` are
//! multi-sink single-bit nets. The revision introduces a new signal
//! `c = a ∧ b` and redefines the gating to `c` and `¬c` — while another
//! signal `d` that also depends on `b` must be preserved. The economical
//! rectification rewires the gating sinks of `v0`/`v1` (all but the sinks
//! that must survive) instead of re-synthesizing the word logic.
//!
//! ```text
//! cargo run --release -p syseco --example figure1
//! ```

use eco_synth::lower::synthesize;
use eco_synth::rtl::{RtlModule, WordExpr as E};
use syseco::{verify_rectification, Counter, EcoOptions, Session};

const WIDTH: u32 = 4;

/// Builds the Figure-1 design; `revised` selects the new specification.
fn module(revised: bool) -> RtlModule {
    let mut m = RtlModule::new(if revised { "fig1_spec" } else { "fig1_impl" });
    m.add_input("w_in1", WIDTH);
    m.add_input("w_in2", WIDTH);
    m.add_input("a", 1);
    m.add_input("b", 1);

    // Original gating signals v(0) = a, v(1) = b (multi-sink).
    m.add_signal("v0", E::input("a"));
    m.add_signal("v1", E::input("b"));
    // A signal d depending on b that the revision must NOT affect.
    m.add_signal("d", E::gate(E::input("w_in1"), E::input("b")));

    if revised {
        // The revision: c = a AND b gates word 1; ¬c gates word 2.
        m.add_signal("c", E::and(E::input("a"), E::input("b")));
        m.add_signal(
            "vout",
            E::or(
                E::gate(E::input("w_in1"), E::signal("c")),
                E::gate(E::input("w_in2"), E::not(E::signal("c"))),
            ),
        );
    } else {
        m.add_signal(
            "vout",
            E::or(
                E::gate(E::input("w_in1"), E::signal("v0")),
                E::gate(E::input("w_in2"), E::signal("v1")),
            ),
        );
    }
    m.add_output("vout", E::signal("vout"));
    m.add_output("d", E::signal("d"));
    m
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let implementation = synthesize(&module(false))?;
    let spec = synthesize(&module(true))?;

    println!("Figure 1 scenario: re-gating multi-sink words with c and ¬c");
    println!(
        "implementation: {}",
        eco_netlist::CircuitStats::of(&implementation)
    );

    let engine = Session::new(EcoOptions::default());
    let result = engine.run(&implementation, &spec)?;

    println!("\npatch: {:?} in {:?}", result.stats, result.runtime);
    println!(
        "rewired pins: {} (fallbacks: {}, refinements: {})",
        result.patch.rewires().len(),
        result.rectify.counters[Counter::RectifyFallbacks],
        result.rectify.counters[Counter::RectifyRefinements]
    );
    for op in result.patch.rewires() {
        println!(
            "  {} : {} -> {}{}",
            op.pin,
            op.old_net,
            op.new_net,
            if op.from_spec {
                "  [cloned c-logic]"
            } else {
                ""
            }
        );
    }

    assert!(verify_rectification(&result.patched, &spec)?);
    println!("\nverification ✓ — `d` was preserved, `vout` was re-gated");
    Ok(())
}
