//! Seeded re-presentation of a BLIF netlist: the same circuit, line for
//! line, with its internal nets renamed.
//!
//! Primary inputs and outputs keep their names, and every line keeps its
//! place, so an implementation and its specification still match port for
//! port and the engine meets the nets in the same order. A fresh seed
//! gives fresh input text while the work stays the paper's case.

use std::collections::HashMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Returns `text` with the net defined by every `.gate`/`.const*` line
/// renamed `n<k>`, for a random permutation `k` drawn from `seed`.
pub fn rename_nets(text: &str, seed: u64) -> String {
    let mut rng = SmallRng::seed_from_u64(seed);
    let lines: Vec<Vec<&str>> = text
        .lines()
        .map(|l| l.split_whitespace().collect())
        .collect();
    // The token index of the net a line defines, if it defines one.
    let defined = |tokens: &[&str]| match tokens.first().copied() {
        Some(".gate") => Some(2),
        Some(".const0") | Some(".const1") => Some(1),
        _ => None,
    };
    let nets: Vec<&str> = lines
        .iter()
        .filter_map(|t| defined(t).map(|k| t[k]))
        .collect();
    let mut labels: Vec<usize> = (0..nets.len()).collect();
    for i in (1..labels.len()).rev() {
        labels.swap(i, rng.gen_range(0..=i));
    }
    let rename: HashMap<&str, String> = nets
        .iter()
        .zip(labels)
        .map(|(&net, k)| (net, format!("n{k}")))
        .collect();
    let mut out = String::with_capacity(text.len());
    for (line, tokens) in text.lines().zip(&lines) {
        // Net references: everything after the gate kind on a `.gate` or
        // `.const*` line, and the net (not the port) of an `.assign`.
        let first_net = match tokens.first().copied() {
            Some(".gate") | Some(".assign") => 2,
            Some(".const0") | Some(".const1") => 1,
            _ => {
                out.push_str(line);
                out.push('\n');
                continue;
            }
        };
        for (k, t) in tokens.iter().enumerate() {
            if k > 0 {
                out.push(' ');
            }
            match rename.get(t) {
                Some(new) if k >= first_net => out.push_str(new),
                _ => out.push_str(t),
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_netlist::read_blif;

    const ADDER: &str = "\
.model add
.inputs a b c
.outputs s co
.gate xor w3 a b
.gate xor w4 w3 c
.gate and w5 a b
.gate and w6 w3 c
.gate or w7 w5 w6
.const1 w8
.gate and w9 w7 w8
.assign s w4
.assign co w9
.end
";

    #[test]
    fn renamed_netlist_keeps_ports_lines_and_function() {
        let original = read_blif(ADDER).unwrap();
        let mut texts = std::collections::HashSet::new();
        for seed in 1..20 {
            let text = rename_nets(ADDER, seed);
            let renamed = read_blif(&text).unwrap();
            assert!(text.lines().nth(1) == Some(".inputs a b c"));
            assert!(!text.contains(" w"), "internal nets are renamed");
            let kinds = |t: &str| -> Vec<String> {
                t.lines()
                    .map(|l| l.split(' ').next().unwrap().into())
                    .collect()
            };
            assert_eq!(kinds(&text), kinds(ADDER), "every line keeps its place");
            crate::check::check_patch(&renamed, &original, seed).unwrap();
            crate::check::check_patch(&original, &renamed, seed).unwrap();
            assert_eq!(rename_nets(ADDER, seed), text, "deterministic in the seed");
            texts.insert(text);
        }
        assert!(texts.len() > 1, "seeds give different text");
    }
}
