//! Behavioural correspondence between an implementation and a revised
//! specification.
//!
//! Circuits correspond through their port labels (paper §3.1): inputs and
//! outputs with equal labels denote the same design signal. The engine
//! normalizes the implementation first (adding inputs that only the revised
//! specification reads), so the correspondence here can be total.

use std::collections::HashMap;

use eco_netlist::Circuit;

use crate::EcoError;

/// A matched output pair `(p_o, p'_o)` of §5.2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputPair {
    /// Port index in the implementation.
    pub impl_index: u32,
    /// Port index in the specification.
    pub spec_index: u32,
    /// The shared label.
    pub name: String,
}

/// Port correspondence between an implementation and a specification.
#[derive(Debug, Clone)]
pub struct Correspondence {
    /// Matched output pairs, in implementation port order.
    pub outputs: Vec<OutputPair>,
    /// For each implementation input position, the specification input
    /// position carrying the same label (`None` when the spec ignores it).
    pub spec_input_pos: Vec<Option<usize>>,
    spec_num_inputs: usize,
}

impl Correspondence {
    /// Builds the correspondence, requiring every implementation output and
    /// every specification input to be matched, and at least one output
    /// pair to exist.
    ///
    /// # Errors
    ///
    /// [`EcoError::PortMismatch`] when an implementation output has no
    /// specification counterpart (its intended function would be unknown) or
    /// a specification input is absent from the implementation (the engine
    /// must add it before building the correspondence), and
    /// [`EcoError::NoOutputPairs`] when there is nothing to compare — an
    /// empty comparison would otherwise pass vacuously.
    pub fn build(implementation: &Circuit, spec: &Circuit) -> Result<Self, EcoError> {
        let spec_out_index: HashMap<&str, u32> = spec
            .outputs()
            .iter()
            .enumerate()
            .map(|(i, p)| (p.name(), i as u32))
            .collect();
        let mut outputs = Vec::with_capacity(implementation.num_outputs());
        for (i, port) in implementation.outputs().iter().enumerate() {
            match spec_out_index.get(port.name()) {
                Some(&si) => outputs.push(OutputPair {
                    impl_index: i as u32,
                    spec_index: si,
                    name: port.name().to_string(),
                }),
                None => {
                    return Err(EcoError::PortMismatch(format!(
                        "implementation output {:?} has no specification counterpart",
                        port.name()
                    )))
                }
            }
        }
        let spec_in_index: HashMap<&str, usize> = spec
            .inputs()
            .iter()
            .enumerate()
            .map(|(i, &id)| (spec.node(id).name().unwrap_or(""), i))
            .collect();
        let mut seen_spec_inputs = 0usize;
        let mut spec_input_pos = Vec::with_capacity(implementation.num_inputs());
        for &id in implementation.inputs() {
            let label = implementation.node(id).name().unwrap_or("");
            let pos = spec_in_index.get(label).copied();
            if pos.is_some() {
                seen_spec_inputs += 1;
            }
            spec_input_pos.push(pos);
        }
        if seen_spec_inputs != spec.num_inputs() {
            return Err(EcoError::PortMismatch(
                "specification reads inputs absent from the implementation".into(),
            ));
        }
        if outputs.is_empty() {
            return Err(EcoError::NoOutputPairs);
        }
        Ok(Correspondence {
            outputs,
            spec_input_pos,
            spec_num_inputs: spec.num_inputs(),
        })
    }

    /// Translates an implementation-ordered input assignment into the
    /// specification's input order.
    pub fn spec_assignment(&self, impl_assign: &[bool]) -> Vec<bool> {
        let mut out = vec![false; self.spec_num_inputs];
        for (pos, &v) in impl_assign.iter().enumerate() {
            if let Some(sp) = self.spec_input_pos[pos] {
                out[sp] = v;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_netlist::GateKind;

    fn pair() -> (Circuit, Circuit) {
        let mut c = Circuit::new("impl");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let extra = c.add_input("legacy");
        let g = c.add_gate(GateKind::And, &[a, b]).unwrap();
        let h = c.add_gate(GateKind::Or, &[g, extra]).unwrap();
        c.add_output("y", h);

        let mut s = Circuit::new("spec");
        // Note: different declaration order.
        let sb = s.add_input("b");
        let sa = s.add_input("a");
        let sl = s.add_input("legacy");
        let g = s.add_gate(GateKind::And, &[sa, sb]).unwrap();
        let h = s.add_gate(GateKind::Or, &[g, sl]).unwrap();
        s.add_output("y", h);
        (c, s)
    }

    #[test]
    fn outputs_matched_by_name() {
        let (c, s) = pair();
        let corr = Correspondence::build(&c, &s).unwrap();
        assert_eq!(corr.outputs.len(), 1);
        assert_eq!(corr.outputs[0].name, "y");
    }

    #[test]
    fn input_translation_respects_names() {
        let (c, s) = pair();
        let corr = Correspondence::build(&c, &s).unwrap();
        // impl order: a, b, legacy; spec order: b, a, legacy.
        let translated = corr.spec_assignment(&[true, false, true]);
        assert_eq!(translated, vec![false, true, true]);
        // Behaviour must agree through the translation.
        let assign = [true, true, false];
        assert_eq!(
            c.eval(&assign).unwrap(),
            s.eval(&corr.spec_assignment(&assign)).unwrap()
        );
    }

    #[test]
    fn missing_spec_output_rejected() {
        let (mut c, s) = pair();
        let w = c.input_by_name("a").unwrap();
        c.add_output("impl_only", w);
        assert!(matches!(
            Correspondence::build(&c, &s),
            Err(EcoError::PortMismatch(_))
        ));
    }

    #[test]
    fn missing_impl_input_rejected() {
        let (c, mut s) = pair();
        let extra = s.add_input("brand_new");
        let old = s.outputs()[0].net();
        let g = s.add_gate(GateKind::And, &[old, extra]).unwrap();
        s.set_output_net(0, g).unwrap();
        assert!(matches!(
            Correspondence::build(&c, &s),
            Err(EcoError::PortMismatch(_))
        ));
    }

    #[test]
    fn zero_output_pairs_rejected() {
        let mut c = Circuit::new("impl");
        c.add_input("a");
        let mut s = Circuit::new("spec");
        let sa = s.add_input("a");
        s.add_output("y", sa);
        assert!(matches!(
            Correspondence::build(&c, &s),
            Err(EcoError::NoOutputPairs)
        ));
    }

    #[test]
    fn spec_may_ignore_impl_inputs() {
        let mut c = Circuit::new("impl");
        let a = c.add_input("a");
        let _unused = c.add_input("unused_by_spec");
        c.add_output("y", a);
        let mut s = Circuit::new("spec");
        let sa = s.add_input("a");
        s.add_output("y", sa);
        let corr = Correspondence::build(&c, &s).unwrap();
        assert_eq!(corr.spec_input_pos, vec![Some(0), None]);
    }
}
