//! Adversarial fuzzing of the BLIF reader.
//!
//! Both the CLI and the daemon parse untrusted netlist text, so the reader
//! must never turn damaged input into a silently wrong circuit. This
//! module takes well-formed [`write_blif`] output of a generated scenario,
//! damages it the way hand-edited or half-written files get damaged —
//! dropped, duplicated, reordered or truncated lines, unknown tokens, a
//! second `.model` — and holds [`read_blif`] to one invariant: the text is
//! either rejected with a typed [`ParseBlifError`], or it parses to a
//! circuit whose `write_blif` → `read_blif` round trip keeps the input and
//! output port lists and the function of every output.

use std::panic::{catch_unwind, AssertUnwindSafe};

use eco_netlist::{read_blif, write_blif, Circuit, ParseBlifError};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::oracle::{port_map, Oracle, SatOracle, Verdict};
use crate::scenario::{generate, ScenarioConfig};
use crate::FuzzError;

/// One line-level damage applied to BLIF text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TextMutation {
    /// Remove one line.
    DropLine,
    /// Copy one line to a random position.
    DuplicateLine,
    /// Swap two lines.
    SwapLines,
    /// Cut the text at a random byte offset.
    Truncate,
    /// Insert a junk or borrowed token into one line.
    InjectToken,
    /// Insert a `.model` line, or append a second copy of the whole model.
    SecondModel,
}

impl TextMutation {
    /// Every mutation, in the order the fuzzer draws from.
    pub const ALL: [TextMutation; 6] = [
        TextMutation::DropLine,
        TextMutation::DuplicateLine,
        TextMutation::SwapLines,
        TextMutation::Truncate,
        TextMutation::InjectToken,
        TextMutation::SecondModel,
    ];

    /// Short stable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            TextMutation::DropLine => "drop-line",
            TextMutation::DuplicateLine => "duplicate-line",
            TextMutation::SwapLines => "swap-lines",
            TextMutation::Truncate => "truncate",
            TextMutation::InjectToken => "inject-token",
            TextMutation::SecondModel => "second-model",
        }
    }
}

/// Tokens that are never valid where they get injected, or valid only by
/// accident (a directive in operand position, a gate kind as a net name).
const JUNK_TOKENS: [&str; 8] = [
    ".bogus", ".latch", ".end", ".names", "and", "mux", "ghost", "#",
];

/// Applies `mutation` to `text`.
fn mutate_text(text: &str, mutation: TextMutation, rng: &mut SmallRng) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    if lines.is_empty() {
        return String::new();
    }
    match mutation {
        TextMutation::DropLine => {
            lines.remove(rng.gen_range(0..lines.len()));
        }
        TextMutation::DuplicateLine => {
            let line = lines[rng.gen_range(0..lines.len())].clone();
            lines.insert(rng.gen_range(0..=lines.len()), line);
        }
        TextMutation::SwapLines => {
            let (i, j) = (rng.gen_range(0..lines.len()), rng.gen_range(0..lines.len()));
            lines.swap(i, j);
        }
        TextMutation::Truncate => {
            // The text is ASCII, so every byte offset is a char boundary.
            let mut cut = text.to_string();
            cut.truncate(rng.gen_range(0..text.len()));
            return cut;
        }
        TextMutation::InjectToken => {
            // A third of the time a name that exists elsewhere in the file,
            // a third a name shaped like the writer's synthetic `w<index>`
            // nets: the damage most likely to parse into something
            // plausible.
            let donor: Vec<&str> = lines[rng.gen_range(0..lines.len())]
                .split_whitespace()
                .collect();
            let token = match rng.gen_range(0..3) {
                0 if !donor.is_empty() => donor[rng.gen_range(0..donor.len())].to_string(),
                1 => format!("w{}", rng.gen_range(0..64)),
                _ => JUNK_TOKENS[rng.gen_range(0..JUNK_TOKENS.len())].to_string(),
            };
            // Half the injections hit the `.model`/`.inputs`/`.outputs`
            // header, where one extra name changes the port lists.
            let at = if rng.gen_bool(0.5) {
                rng.gen_range(0..lines.len().min(3))
            } else {
                rng.gen_range(0..lines.len())
            };
            let mut tokens: Vec<&str> = lines[at].split_whitespace().collect();
            tokens.insert(rng.gen_range(0..=tokens.len()), &token);
            lines[at] = tokens.join(" ");
        }
        TextMutation::SecondModel => {
            if rng.gen_bool(0.5) {
                let at = rng.gen_range(1..=lines.len());
                lines.insert(at, ".model second".to_string());
            } else {
                let copy = lines.clone();
                lines.extend(copy);
            }
        }
    }
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

/// Checks the reader's invariant on `text`.
///
/// Returns `Ok(Some(error))` when the text is rejected with a typed error,
/// `Ok(None)` when it parses and the parsed circuit survives a
/// `write_blif` → `read_blif` round trip with the same port lists and the
/// same function.
///
/// # Errors
///
/// A description of the violation: a panic in the reader or writer, a
/// round trip that fails to parse, or one that changes ports or function.
fn check_round_trip(text: &str) -> Result<Option<ParseBlifError>, String> {
    let parsed = catch_unwind(|| read_blif(text)).map_err(|_| "read_blif panicked".to_string())?;
    let first = match parsed {
        Ok(circuit) => circuit,
        Err(e) => return Ok(Some(e)),
    };
    let rewritten = catch_unwind(AssertUnwindSafe(|| write_blif(&first)))
        .map_err(|_| "write_blif panicked on a parsed circuit".to_string())?;
    let second = read_blif(&rewritten)
        .map_err(|e| format!("round trip failed to parse: {e}\n{rewritten}"))?;
    if input_names(&first) != input_names(&second) {
        return Err("round trip changed the input list".into());
    }
    if output_names(&first) != output_names(&second) {
        return Err("round trip changed the output list".into());
    }
    if first.num_outputs() > 0 {
        let map = port_map(&first, &second).map_err(|e| e.to_string())?;
        let verdicts = SatOracle::default()
            .check_all(&first, &second, &map)
            .map_err(|e| e.to_string())?;
        if let Some((k, verdict)) = verdicts
            .iter()
            .enumerate()
            .find(|(_, v)| !matches!(v, Verdict::Equivalent))
        {
            return Err(format!(
                "round trip changed output {:?}: {}",
                first.outputs()[k].name(),
                verdict.label()
            ));
        }
    }
    Ok(None)
}

fn input_names(c: &Circuit) -> Vec<&str> {
    c.inputs()
        .iter()
        .map(|&id| c.node(id).name().unwrap_or(""))
        .collect()
}

fn output_names(c: &Circuit) -> Vec<&str> {
    c.outputs().iter().map(|p| p.name()).collect()
}

/// One damaged netlist and the reader's verdict on it.
#[derive(Debug)]
pub struct BlifCase {
    /// The damaged text fed to the reader.
    pub text: String,
    /// The damage applied, in order.
    pub mutations: Vec<TextMutation>,
    /// `Ok(Some(error))` when the reader rejected [`text`](BlifCase::text)
    /// with a typed error, `Ok(None)` when it parsed and the round trip
    /// kept ports and function, `Err` describing the violation otherwise.
    pub outcome: Result<Option<ParseBlifError>, String>,
}

/// Generates the scenario for `seed`, serializes its implementation or
/// spec, applies one to three random [`TextMutation`]s, and checks the
/// result. Deterministic for a given `seed` and `config`.
///
/// # Errors
///
/// [`FuzzError`] when scenario generation fails.
pub fn fuzz_blif_case(seed: u64, config: &ScenarioConfig) -> Result<BlifCase, FuzzError> {
    let scenario = generate(seed, config)?;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xB11F);
    let source = if rng.gen_bool(0.5) {
        &scenario.implementation
    } else {
        &scenario.spec
    };
    let mut text = write_blif(source);
    let mut mutations = Vec::new();
    for _ in 0..rng.gen_range(1..=3) {
        let mutation = TextMutation::ALL[rng.gen_range(0..TextMutation::ALL.len())];
        text = mutate_text(&text, mutation, &mut rng);
        mutations.push(mutation);
    }
    let outcome = check_round_trip(&text);
    Ok(BlifCase {
        text,
        mutations,
        outcome,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undamaged_text_round_trips() {
        let scenario = generate(7, &ScenarioConfig::default()).unwrap();
        let text = write_blif(&scenario.implementation);
        assert!(matches!(check_round_trip(&text), Ok(None)));
    }

    #[test]
    fn mutations_are_deterministic() {
        let scenario = generate(11, &ScenarioConfig::default()).unwrap();
        let text = write_blif(&scenario.spec);
        for mutation in TextMutation::ALL {
            let once = mutate_text(&text, mutation, &mut SmallRng::seed_from_u64(3));
            let again = mutate_text(&text, mutation, &mut SmallRng::seed_from_u64(3));
            assert_eq!(once, again, "{}", mutation.name());
        }
    }

    #[test]
    fn seeded_cases_hold_the_invariant() {
        let config = ScenarioConfig::default();
        let mut rejected = 0;
        for seed in 0..60 {
            let case = fuzz_blif_case(seed, &config).unwrap();
            match case.outcome {
                Ok(Some(_)) => rejected += 1,
                Ok(None) => {}
                Err(reason) => panic!("seed {seed}: {reason}\n{}", case.text),
            }
        }
        assert!(rejected > 0, "the damage must hit the reader's error paths");
    }
}
