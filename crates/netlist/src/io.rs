//! BLIF-style text serialization of circuits.
//!
//! The dialect is the structural subset of Berkeley BLIF extended with a
//! `.gate`-like single-line form for the typed gates of [`GateKind`]:
//!
//! ```text
//! .model half_adder
//! .inputs a b
//! .outputs sum carry
//! .gate xor w2 a b
//! .gate and w3 a b
//! .assign sum w2
//! .assign carry w3
//! .end
//! ```
//!
//! Net names are explicit; `.gate KIND OUT IN...` defines a gate driving
//! `OUT`, `.assign PORT NET` binds an output port, and `.const0`/`.const1`
//! name the constants. Every port declared in `.outputs` must be driven,
//! either by its `.assign` or by a net of the same name; ports follow the
//! `.outputs` order, then any `.assign`-only ports in `.assign` order.
//! Round-tripping preserves structure exactly (modulo dead nodes, which
//! are not emitted).

use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::str::FromStr;

use crate::{Circuit, GateKind, NetId, NetlistError};

/// Errors produced when parsing the BLIF-style format.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseBlifError {
    /// A line did not match any known directive.
    UnknownDirective {
        /// 1-based line number.
        line: usize,
        /// The offending directive token.
        directive: String,
    },
    /// A directive had too few tokens.
    MissingTokens {
        /// 1-based line number.
        line: usize,
    },
    /// An unknown gate kind name.
    UnknownGateKind {
        /// 1-based line number.
        line: usize,
        /// The offending kind token.
        kind: String,
    },
    /// A net name was used before being defined.
    UndefinedNet {
        /// 1-based line number.
        line: usize,
        /// The undefined name.
        name: String,
    },
    /// A net or output port name was defined twice.
    Redefined {
        /// 1-based line number.
        line: usize,
        /// The redefined name.
        name: String,
    },
    /// A port declared in `.outputs` has neither an `.assign` nor a net of
    /// the same name to drive it.
    UndrivenOutput {
        /// 1-based line number of the declaring `.outputs` line.
        line: usize,
        /// The undriven port name.
        name: String,
    },
    /// A `.model` line after the first directive (a second model, or a
    /// model header after the body started).
    UnexpectedModel {
        /// 1-based line number.
        line: usize,
    },
    /// The resulting structure violated a netlist invariant.
    Netlist(NetlistError),
}

impl fmt::Display for ParseBlifError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseBlifError::UnknownDirective { line, directive } => {
                write!(f, "line {line}: unknown directive {directive:?}")
            }
            ParseBlifError::MissingTokens { line } => {
                write!(f, "line {line}: missing tokens")
            }
            ParseBlifError::UnknownGateKind { line, kind } => {
                write!(f, "line {line}: unknown gate kind {kind:?}")
            }
            ParseBlifError::UndefinedNet { line, name } => {
                write!(f, "line {line}: undefined net {name:?}")
            }
            ParseBlifError::Redefined { line, name } => {
                write!(f, "line {line}: net {name:?} redefined")
            }
            ParseBlifError::UndrivenOutput { line, name } => {
                write!(f, "line {line}: output {name:?} has no driver")
            }
            ParseBlifError::UnexpectedModel { line } => {
                write!(f, "line {line}: .model must be the first directive")
            }
            ParseBlifError::Netlist(e) => write!(f, "netlist error: {e}"),
        }
    }
}

impl Error for ParseBlifError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseBlifError::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<NetlistError> for ParseBlifError {
    fn from(e: NetlistError) -> Self {
        ParseBlifError::Netlist(e)
    }
}

fn kind_name(kind: GateKind) -> &'static str {
    match kind {
        GateKind::Input => "input",
        GateKind::Const0 => "const0",
        GateKind::Const1 => "const1",
        GateKind::Buf => "buf",
        GateKind::Not => "not",
        GateKind::And => "and",
        GateKind::Or => "or",
        GateKind::Nand => "nand",
        GateKind::Nor => "nor",
        GateKind::Xor => "xor",
        GateKind::Xnor => "xnor",
        GateKind::Mux => "mux",
    }
}

fn kind_from_name(name: &str) -> Option<GateKind> {
    Some(match name {
        "buf" => GateKind::Buf,
        "not" => GateKind::Not,
        "and" => GateKind::And,
        "or" => GateKind::Or,
        "nand" => GateKind::Nand,
        "nor" => GateKind::Nor,
        "xor" => GateKind::Xor,
        "xnor" => GateKind::Xnor,
        "mux" => GateKind::Mux,
        _ => return None,
    })
}

/// Serializes `circuit` to the BLIF-style text format.
///
/// Dead nodes are skipped; internal nets get synthetic `w<INDEX>` names,
/// suffixed with `_` when an input already carries that name.
pub fn write_blif(circuit: &Circuit) -> String {
    let mut out = String::new();
    out.push_str(&format!(".model {}\n", circuit.name()));
    let input_names: HashSet<&str> = circuit
        .inputs()
        .iter()
        .filter_map(|&id| circuit.node(id).name())
        .collect();
    let internal_name = |net: NetId| {
        let mut name = format!("w{}", net.index());
        while input_names.contains(name.as_str()) {
            name.push('_');
        }
        name
    };
    let mut names: HashMap<NetId, String> = HashMap::new();
    let mut inputs_line = String::from(".inputs");
    for &id in circuit.inputs() {
        let name = circuit
            .node(id)
            .name()
            .map(str::to_string)
            .unwrap_or_else(|| internal_name(id.into()));
        inputs_line.push(' ');
        inputs_line.push_str(&name);
        names.insert(id.into(), name);
    }
    out.push_str(&inputs_line);
    out.push('\n');
    let mut outputs_line = String::from(".outputs");
    for port in circuit.outputs() {
        outputs_line.push(' ');
        outputs_line.push_str(port.name());
    }
    out.push_str(&outputs_line);
    out.push('\n');

    let order = crate::topo::topo_order(circuit).expect("well-formed circuit");
    for id in order {
        let node = circuit.node(id);
        let net: NetId = id.into();
        match node.kind() {
            GateKind::Input => {}
            GateKind::Const0 => {
                let name = internal_name(net);
                out.push_str(&format!(".const0 {name}\n"));
                names.insert(net, name);
            }
            GateKind::Const1 => {
                let name = internal_name(net);
                out.push_str(&format!(".const1 {name}\n"));
                names.insert(net, name);
            }
            kind => {
                let name = internal_name(net);
                let mut line = format!(".gate {} {name}", kind_name(kind));
                for f in node.fanins() {
                    line.push(' ');
                    line.push_str(&names[f]);
                }
                out.push_str(&line);
                out.push('\n');
                names.insert(net, name);
            }
        }
    }
    for port in circuit.outputs() {
        out.push_str(&format!(".assign {} {}\n", port.name(), names[&port.net()]));
    }
    out.push_str(".end\n");
    out
}

/// Renders `circuit` as a Graphviz dot graph (inputs as boxes, gates as
/// ellipses labelled with their kind, outputs as double circles).
pub fn write_dot(circuit: &Circuit) -> String {
    use std::fmt::Write;
    let mut out = format!("digraph \"{}\" {{\n  rankdir=LR;\n", circuit.name());
    for id in circuit.iter_live() {
        let node = circuit.node(id);
        match node.kind() {
            GateKind::Input => {
                let _ = writeln!(
                    out,
                    "  n{} [shape=box,label=\"{}\"];",
                    id.index(),
                    node.name().unwrap_or("?")
                );
            }
            kind => {
                let _ = writeln!(out, "  n{} [label=\"{}\"];", id.index(), kind);
            }
        }
        for f in node.fanins() {
            let _ = writeln!(out, "  n{} -> n{};", f.index(), id.index());
        }
    }
    for (i, port) in circuit.outputs().iter().enumerate() {
        let _ = writeln!(
            out,
            "  o{i} [shape=doublecircle,label=\"{}\"];\n  n{} -> o{i};",
            port.name(),
            port.net().index()
        );
    }
    out.push_str("}\n");
    out
}

/// Parses the BLIF-style text format produced by [`write_blif`].
///
/// # Errors
///
/// See [`ParseBlifError`]; the parser is strict (unknown directives,
/// undefined nets, undriven or doubly bound outputs, and a second `.model`
/// are rejected).
pub fn read_blif(text: &str) -> Result<Circuit, ParseBlifError> {
    let mut circuit = Circuit::new("unnamed");
    let mut nets: HashMap<String, NetId> = HashMap::new();
    let mut declared: Vec<(usize, String)> = Vec::new();
    let mut assigns: Vec<(usize, String, String)> = Vec::new();
    let mut in_body = false;

    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let tokens: Vec<&str> = trimmed.split_whitespace().collect();
        if tokens[0] == ".model" && in_body {
            return Err(ParseBlifError::UnexpectedModel { line });
        }
        in_body = true;
        match tokens[0] {
            ".model" => {
                if tokens.len() < 2 {
                    return Err(ParseBlifError::MissingTokens { line });
                }
                circuit = Circuit::new(tokens[1]);
            }
            ".inputs" => {
                for &name in &tokens[1..] {
                    if nets.contains_key(name) {
                        return Err(ParseBlifError::Redefined {
                            line,
                            name: name.to_string(),
                        });
                    }
                    let w = circuit.add_input(name);
                    nets.insert(name.to_string(), w);
                }
            }
            ".outputs" => {
                declared.extend(tokens[1..].iter().map(|s| (line, s.to_string())));
            }
            ".const0" | ".const1" => {
                if tokens.len() < 2 {
                    return Err(ParseBlifError::MissingTokens { line });
                }
                let w = circuit.constant(tokens[0] == ".const1");
                if nets.insert(tokens[1].to_string(), w).is_some() {
                    return Err(ParseBlifError::Redefined {
                        line,
                        name: tokens[1].to_string(),
                    });
                }
            }
            ".gate" => {
                if tokens.len() < 4 {
                    return Err(ParseBlifError::MissingTokens { line });
                }
                let kind =
                    kind_from_name(tokens[1]).ok_or_else(|| ParseBlifError::UnknownGateKind {
                        line,
                        kind: tokens[1].to_string(),
                    })?;
                let out_name = tokens[2];
                let mut fanins = Vec::with_capacity(tokens.len() - 3);
                for &t in &tokens[3..] {
                    let w = nets
                        .get(t)
                        .copied()
                        .ok_or_else(|| ParseBlifError::UndefinedNet {
                            line,
                            name: t.to_string(),
                        })?;
                    fanins.push(w);
                }
                let w = circuit.add_gate(kind, &fanins)?;
                if nets.insert(out_name.to_string(), w).is_some() {
                    return Err(ParseBlifError::Redefined {
                        line,
                        name: out_name.to_string(),
                    });
                }
            }
            ".assign" => {
                if tokens.len() < 3 {
                    return Err(ParseBlifError::MissingTokens { line });
                }
                assigns.push((line, tokens[1].to_string(), tokens[2].to_string()));
            }
            ".end" => break,
            other => {
                return Err(ParseBlifError::UnknownDirective {
                    line,
                    directive: other.to_string(),
                })
            }
        }
    }
    let mut bound: HashMap<&str, (usize, &str)> = HashMap::new();
    for (line, port, net) in &assigns {
        if bound.insert(port, (*line, net)).is_some() {
            return Err(ParseBlifError::Redefined {
                line: *line,
                name: port.clone(),
            });
        }
    }
    let driver = |line: usize, net: &str| {
        nets.get(net)
            .copied()
            .ok_or_else(|| ParseBlifError::UndefinedNet {
                line,
                name: net.to_string(),
            })
    };
    let mut ports: HashSet<&str> = HashSet::new();
    for (line, name) in &declared {
        if !ports.insert(name) {
            return Err(ParseBlifError::Redefined {
                line: *line,
                name: name.clone(),
            });
        }
        let net = match bound.get(name.as_str()) {
            Some(&(assign_line, net)) => driver(assign_line, net)?,
            None => nets
                .get(name)
                .copied()
                .ok_or_else(|| ParseBlifError::UndrivenOutput {
                    line: *line,
                    name: name.clone(),
                })?,
        };
        circuit.add_output(name.as_str(), net);
    }
    for (line, port, net) in &assigns {
        if !ports.contains(port.as_str()) {
            circuit.add_output(port.as_str(), driver(*line, net)?);
        }
    }
    circuit.check_well_formed()?;
    Ok(circuit)
}

impl FromStr for Circuit {
    type Err = ParseBlifError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        read_blif(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Circuit {
        let mut c = Circuit::new("sample");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let s = c.add_input("s");
        let k = c.constant(true);
        let g1 = c.add_gate(GateKind::Xor, &[a, b]).unwrap();
        let g2 = c.add_gate(GateKind::Mux, &[s, g1, k]).unwrap();
        let g3 = c.add_gate(GateKind::Nand, &[g2, a, b]).unwrap();
        c.add_output("y", g3);
        c.add_output("t", g1);
        c
    }

    #[test]
    fn roundtrip_preserves_function() {
        let original = sample();
        let text = write_blif(&original);
        let parsed: Circuit = text.parse().unwrap();
        assert_eq!(parsed.name(), "sample");
        assert_eq!(parsed.num_inputs(), original.num_inputs());
        assert_eq!(parsed.num_outputs(), original.num_outputs());
        for j in 0..8u8 {
            let assign = [(j & 1) == 1, (j & 2) == 2, (j & 4) == 4];
            assert_eq!(
                parsed.eval(&assign).unwrap(),
                original.eval(&assign).unwrap(),
                "pattern {j}"
            );
        }
    }

    #[test]
    fn synthetic_net_names_avoid_input_names() {
        let text = ".model x\n.inputs a b w3\n.outputs o\n.gate and g a w3\n.gate or o g b\n.end\n";
        let c = read_blif(text).unwrap();
        let again = read_blif(&write_blif(&c)).unwrap();
        assert_eq!(write_blif(&again), write_blif(&c));
        for j in 0..8u8 {
            let assign = [(j & 1) == 1, (j & 2) == 2, (j & 4) == 4];
            assert_eq!(again.eval(&assign).unwrap(), c.eval(&assign).unwrap());
        }
    }

    #[test]
    fn dead_nodes_not_emitted() {
        let mut c = sample();
        let a = c.input_by_name("a").unwrap();
        let b = c.input_by_name("b").unwrap();
        let _dead = c.add_gate(GateKind::Or, &[a, b]).unwrap();
        c.sweep();
        let text = write_blif(&c);
        // Gate count in text matches live gates.
        let gate_lines = text.lines().filter(|l| l.starts_with(".gate")).count();
        assert_eq!(gate_lines, 3);
    }

    #[test]
    fn parse_rejects_unknown_directive() {
        let err = read_blif(".model x\n.bogus a\n.end\n").unwrap_err();
        assert!(matches!(
            err,
            ParseBlifError::UnknownDirective { line: 2, .. }
        ));
    }

    #[test]
    fn parse_rejects_undefined_net() {
        let err = read_blif(".model x\n.inputs a\n.gate and y a ghost\n.end\n").unwrap_err();
        assert!(matches!(err, ParseBlifError::UndefinedNet { .. }));
    }

    #[test]
    fn parse_rejects_redefinition() {
        let err = read_blif(".model x\n.inputs a b\n.gate and a a b\n.end\n").unwrap_err();
        assert!(matches!(err, ParseBlifError::Redefined { .. }));
    }

    #[test]
    fn parse_rejects_bad_kind() {
        let err = read_blif(".model x\n.inputs a b\n.gate frob y a b\n.end\n").unwrap_err();
        assert!(matches!(err, ParseBlifError::UnknownGateKind { .. }));
    }

    #[test]
    fn parse_rejects_bad_arity_via_netlist() {
        let err = read_blif(".model x\n.inputs a\n.gate mux y a a\n.end\n").unwrap_err();
        assert!(matches!(err, ParseBlifError::Netlist(_)));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# header\n.model x\n\n.inputs a\n# mid\n.gate not y a\n.assign o y\n.end\n";
        let c = read_blif(text).unwrap();
        assert_eq!(c.num_outputs(), 1);
        assert_eq!(c.eval(&[false]).unwrap(), vec![true]);
    }

    #[test]
    fn declared_outputs_resolve_through_same_named_nets() {
        let c = read_blif(".model x\n.inputs a b\n.outputs o\n.gate and o a b\n.end\n").unwrap();
        assert_eq!(c.num_outputs(), 1);
        assert_eq!(c.outputs()[0].name(), "o");
        assert_eq!(c.eval(&[true, true]).unwrap(), vec![true]);
        assert_eq!(c.eval(&[true, false]).unwrap(), vec![false]);
    }

    #[test]
    fn ports_follow_outputs_order_then_assign_only_ports() {
        let text = ".model x\n.inputs a b\n.outputs q p\n.gate and w a b\n\
                    .assign r a\n.assign p w\n.gate or q a b\n.end\n";
        let c = read_blif(text).unwrap();
        let names: Vec<&str> = c.outputs().iter().map(|p| p.name()).collect();
        assert_eq!(names, ["q", "p", "r"]);
    }

    #[test]
    fn undriven_declared_output_is_a_typed_error() {
        let err = read_blif(".model x\n.inputs a\n.outputs o\n.end\n").unwrap_err();
        assert_eq!(
            err,
            ParseBlifError::UndrivenOutput {
                line: 3,
                name: "o".into()
            }
        );
    }

    #[test]
    fn doubly_bound_outputs_are_rejected() {
        let err = read_blif(".model x\n.inputs a\n.assign o a\n.assign o a\n.end\n").unwrap_err();
        assert!(matches!(err, ParseBlifError::Redefined { line: 4, .. }));
        let err = read_blif(".model x\n.inputs a\n.outputs a a\n.end\n").unwrap_err();
        assert!(matches!(err, ParseBlifError::Redefined { line: 3, .. }));
    }

    #[test]
    fn second_model_is_rejected() {
        let err = read_blif(".model x\n.inputs a\n.model y\n.end\n").unwrap_err();
        assert_eq!(err, ParseBlifError::UnexpectedModel { line: 3 });
    }

    #[test]
    fn dot_output_mentions_ports_and_gates() {
        let c = sample();
        let dot = write_dot(&c);
        assert!(dot.contains("digraph"));
        assert!(dot.contains("doublecircle"));
        assert!(dot.contains("xor"));
        assert!(dot.contains("shape=box"));
        // One edge per sink pin.
        let edges = dot.matches(" -> ").count();
        let stats = crate::CircuitStats::of(&c);
        assert_eq!(edges, stats.sinks);
    }

    #[test]
    fn error_display_nonempty() {
        let cases = [
            ParseBlifError::UnknownDirective {
                line: 1,
                directive: ".x".into(),
            },
            ParseBlifError::MissingTokens { line: 2 },
            ParseBlifError::UnknownGateKind {
                line: 3,
                kind: "q".into(),
            },
            ParseBlifError::UndefinedNet {
                line: 4,
                name: "n".into(),
            },
            ParseBlifError::Redefined {
                line: 5,
                name: "m".into(),
            },
            ParseBlifError::UndrivenOutput {
                line: 6,
                name: "o".into(),
            },
            ParseBlifError::UnexpectedModel { line: 7 },
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
        }
    }
}
