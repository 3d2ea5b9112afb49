//! Differential fuzzing front end for the syseco engine.
//!
//! ```text
//! syseco-fuzz run --seed N --iters N [--out-dir DIR] [--cache-every N]
//!                 [--heavy] [--mutations N]
//! syseco-fuzz chaos --seed N --scenarios N [--out-dir DIR] [--heavy]
//!                   [--mutations N]
//! syseco-fuzz parse --seed N --iters N [--out-dir DIR]
//! syseco-fuzz replay <file.eco-repro>
//! ```
//!
//! `run` generates mutation-based ECO scenarios (implementation plus a
//! semantics-changed spec with a known delta) and pushes each through the
//! full cross-oracle conformance matrix: bit-parallel simulation, SAT CEC,
//! BDD equivalence, `Session` rectification at one and four workers
//! (byte-identical patched netlists, patch verified against the spec),
//! and — every `--cache-every`-th iteration — cold/warm replay through a
//! scratch persistent cache. Any disagreement is shrunk and written to
//! `DIR/repro-<seed>.eco-repro` (default `fuzz-repros/`). Standard output
//! is byte-stable for a fixed `--seed`/`--iters`; progress goes to stderr.
//!
//! `chaos` (builds with `--features fault-injection` only) sweeps every
//! registered fault point of the engine's `FaultPlan` over each generated
//! scenario: checkpointed rectification with the fault armed, asserting
//! that every run ends in a verified patch or a clean degradation — and
//! that a simulated crash resumes from its checkpoint directory to a
//! byte-identical patch. Violations are written as `.eco-repro` files with
//! the triggering fault plan embedded. See DESIGN.md §13.
//!
//! `parse` fuzzes the BLIF reader the CLI and the daemon share: each
//! iteration serializes a generated scenario, damages the text (dropped,
//! duplicated, reordered or truncated lines, unknown tokens, a second
//! `.model`), and requires a typed parse error or a circuit whose
//! `write_blif` → `read_blif` round trip keeps its ports and function.
//! Violating texts are written to `DIR/parse-<seed>.blif`.
//!
//! `replay` re-runs the whole matrix on a saved `.eco-repro` file and
//! prints each disagreement. A repro carrying a `fault` line re-arms the
//! same fault plan (requires `--features fault-injection`).
//!
//! Exit codes: 0 no disagreements, 1 disagreements found, 2 usage error.

use std::process::ExitCode;

use syseco::fuzz::{iteration_seed, parse_repro, write_repro, FuzzConfig, FuzzRunner, Repro};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  syseco-fuzz run --seed N --iters N [--out-dir DIR] [--cache-every N]\n                  \
         [--heavy] [--mutations N]\n  syseco-fuzz chaos --seed N --scenarios N [--out-dir DIR] [--heavy]\n                    \
         [--mutations N]\n  syseco-fuzz parse --seed N --iters N [--out-dir DIR]\n  \
         syseco-fuzz replay <file.eco-repro>"
    );
    ExitCode::from(2)
}

fn parse_u64(flag: &str, value: Option<&String>) -> Result<u64, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("{flag}: not a number: {value}"))
}

fn cmd_run(args: &[String]) -> ExitCode {
    let mut seed = None;
    let mut iters = None;
    let mut out_dir = String::from("fuzz-repros");
    let mut config = FuzzConfig::default();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        let value = args.get(i + 1);
        let step = match arg {
            "--seed" => match parse_u64(arg, value) {
                Ok(v) => {
                    seed = Some(v);
                    2
                }
                Err(e) => return fail_usage(&e),
            },
            "--iters" => match parse_u64(arg, value) {
                Ok(v) => {
                    iters = Some(v);
                    2
                }
                Err(e) => return fail_usage(&e),
            },
            "--cache-every" => match parse_u64(arg, value) {
                Ok(v) => {
                    config.cache_every = v;
                    2
                }
                Err(e) => return fail_usage(&e),
            },
            "--mutations" => match parse_u64(arg, value) {
                Ok(v) if v >= 1 => {
                    config.scenario.mutations = (v as usize, v as usize);
                    2
                }
                _ => return fail_usage("--mutations needs a number >= 1"),
            },
            "--out-dir" => match value {
                Some(v) => {
                    out_dir = v.clone();
                    2
                }
                None => return fail_usage("--out-dir needs a value"),
            },
            "--heavy" => {
                config.scenario.heavy_optimization = true;
                1
            }
            other => return fail_usage(&format!("unknown flag: {other}")),
        };
        i += step;
    }
    let (Some(seed), Some(iters)) = (seed, iters) else {
        return fail_usage("run needs both --seed and --iters");
    };

    let runner = FuzzRunner::new(config);
    let report = match runner.run(seed, iters, |done, failures| {
        if done % 50 == 0 || done == iters {
            eprintln!("[syseco-fuzz] {done}/{iters} iterations, {failures} failure(s)");
        }
    }) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("syseco-fuzz: infrastructure error: {e}");
            return ExitCode::from(2);
        }
    };

    for failure in &report.failures {
        println!(
            "FAIL iteration {} seed {:#018x}: {}",
            failure.iteration, failure.seed, failure.repro.check
        );
        for d in &failure.disagreements {
            println!("  {d}");
        }
        let path = format!("{out_dir}/repro-{:016x}.eco-repro", failure.seed);
        if let Err(e) = save_repro(&path, &failure.repro) {
            eprintln!("syseco-fuzz: cannot write {path}: {e}");
        } else {
            println!("  repro written to {path}");
        }
    }
    println!(
        "ran {} iteration(s) ({} with cache replay): {} failure(s)",
        report.iterations,
        report.cache_checked,
        report.failures.len()
    );
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The chaos fault sweep. Compiled only with `fault-injection`; the
/// stub below keeps the verb discoverable in default builds.
#[cfg(feature = "fault-injection")]
fn cmd_chaos(args: &[String]) -> ExitCode {
    use syseco::fuzz::chaos::{ChaosConfig, ChaosRunner};

    let mut seed = None;
    let mut scenarios = None;
    let mut out_dir = String::from("fuzz-repros");
    let mut config = ChaosConfig::default();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        let value = args.get(i + 1);
        let step = match arg {
            "--seed" => match parse_u64(arg, value) {
                Ok(v) => {
                    seed = Some(v);
                    2
                }
                Err(e) => return fail_usage(&e),
            },
            "--scenarios" => match parse_u64(arg, value) {
                Ok(v) => {
                    scenarios = Some(v);
                    2
                }
                Err(e) => return fail_usage(&e),
            },
            "--mutations" => match parse_u64(arg, value) {
                Ok(v) if v >= 1 => {
                    config.scenario.mutations = (v as usize, v as usize);
                    2
                }
                _ => return fail_usage("--mutations needs a number >= 1"),
            },
            "--out-dir" => match value {
                Some(v) => {
                    out_dir = v.clone();
                    2
                }
                None => return fail_usage("--out-dir needs a value"),
            },
            "--heavy" => {
                config.scenario.heavy_optimization = true;
                1
            }
            other => return fail_usage(&format!("unknown flag: {other}")),
        };
        i += step;
    }
    let (Some(seed), Some(scenarios)) = (seed, scenarios) else {
        return fail_usage("chaos needs both --seed and --scenarios");
    };

    let runner = ChaosRunner::new(config);
    let report = match runner.run(seed, scenarios, |done, violations| {
        if done % 10 == 0 || done == scenarios {
            eprintln!(
                "[syseco-fuzz] {done}/{scenarios} scenario(s) swept, {violations} violation(s)"
            );
        }
    }) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("syseco-fuzz: infrastructure error: {e}");
            return ExitCode::from(2);
        }
    };

    for violation in &report.violations {
        println!(
            "VIOLATION scenario {} seed {:#018x} fault {}: {}",
            violation.iteration, violation.seed, violation.fault, violation.repro.check
        );
        for d in &violation.disagreements {
            println!("  {d}");
        }
        let path = format!(
            "{out_dir}/chaos-{:016x}-{}.eco-repro",
            violation.seed,
            violation.fault.replace([':', '@', ','], "_")
        );
        if let Err(e) = save_repro(&path, &violation.repro) {
            eprintln!("syseco-fuzz: cannot write {path}: {e}");
        } else {
            println!("  repro written to {path}");
        }
    }
    let covered = report.coverage.values().filter(|&&n| n > 0).count();
    println!(
        "swept {} scenario(s) x {} fault point(s): {} run(s), {} crash-resume(s), \
         {} degraded, {} point(s) fired, {} violation(s)",
        report.scenarios,
        report.coverage.len(),
        report.runs,
        report.aborted,
        report.degraded,
        covered,
        report.violations.len()
    );
    if report.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(not(feature = "fault-injection"))]
fn cmd_chaos(_args: &[String]) -> ExitCode {
    eprintln!(
        "syseco-fuzz: the chaos verb needs fault injection compiled in; \
         rebuild with --features fault-injection"
    );
    ExitCode::from(2)
}

/// The adversarial BLIF-reader sweep.
fn cmd_parse(args: &[String]) -> ExitCode {
    use eco_fuzz::{fuzz_blif_case, FuzzError, ScenarioConfig};

    let mut seed = None;
    let mut iters = None;
    let mut out_dir = String::from("fuzz-repros");
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        let value = args.get(i + 1);
        match arg {
            "--seed" => match parse_u64(arg, value) {
                Ok(v) => seed = Some(v),
                Err(e) => return fail_usage(&e),
            },
            "--iters" => match parse_u64(arg, value) {
                Ok(v) => iters = Some(v),
                Err(e) => return fail_usage(&e),
            },
            "--out-dir" => match value {
                Some(v) => out_dir = v.clone(),
                None => return fail_usage("--out-dir needs a value"),
            },
            other => return fail_usage(&format!("unknown flag: {other}")),
        }
        i += 2;
    }
    let (Some(seed), Some(iters)) = (seed, iters) else {
        return fail_usage("parse needs both --seed and --iters");
    };

    let config = ScenarioConfig::default();
    let (mut accepted, mut rejected, mut skipped, mut violations) = (0u64, 0u64, 0u64, 0u64);
    for iteration in 0..iters {
        let case_seed = iteration_seed(seed, iteration);
        let case = match fuzz_blif_case(case_seed, &config) {
            Ok(case) => case,
            // A seed the workload generator cannot satisfy says nothing
            // about the reader.
            Err(FuzzError::Generator(_)) => {
                skipped += 1;
                continue;
            }
            Err(e) => {
                eprintln!("syseco-fuzz: infrastructure error: {e}");
                return ExitCode::from(2);
            }
        };
        match case.outcome {
            Ok(None) => accepted += 1,
            Ok(Some(_)) => rejected += 1,
            Err(reason) => {
                violations += 1;
                let damage: Vec<&str> = case.mutations.iter().map(|m| m.name()).collect();
                println!(
                    "VIOLATION iteration {iteration} seed {case_seed:#018x} ({}): {reason}",
                    damage.join(", ")
                );
                let path = format!("{out_dir}/parse-{case_seed:016x}.blif");
                let saved = std::fs::create_dir_all(&out_dir)
                    .and_then(|()| std::fs::write(&path, &case.text));
                match saved {
                    Ok(()) => println!("  text written to {path}"),
                    Err(e) => eprintln!("syseco-fuzz: cannot write {path}: {e}"),
                }
            }
        }
        let done = iteration + 1;
        if done % 1000 == 0 || done == iters {
            eprintln!("[syseco-fuzz] {done}/{iters} damaged netlist(s), {violations} violation(s)");
        }
    }
    println!(
        "parsed {} damaged netlist(s): {accepted} accepted and round-tripped, \
         {rejected} rejected with a typed error, {violations} violation(s); \
         {skipped} seed(s) skipped by the generator",
        iters - skipped
    );
    if violations == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn save_repro(path: &str, repro: &Repro) -> std::io::Result<()> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, write_repro(repro))
}

fn cmd_replay(args: &[String]) -> ExitCode {
    let [path] = args else {
        return usage();
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("syseco-fuzz: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let repro = match parse_repro(&text) {
        Ok(repro) => repro,
        Err(e) => {
            eprintln!("syseco-fuzz: cannot parse {path}: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "replaying seed {:#018x} iteration {} ({})",
        repro.seed, repro.iteration, repro.check
    );
    let runner = FuzzRunner::new(FuzzConfig::default());
    match runner.replay(&repro) {
        Ok(disagreements) if disagreements.is_empty() => {
            println!("no disagreements: the repro no longer fails");
            ExitCode::SUCCESS
        }
        Ok(disagreements) => {
            for d in &disagreements {
                println!("  {d}");
            }
            println!("{} disagreement(s)", disagreements.len());
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("syseco-fuzz: infrastructure error: {e}");
            ExitCode::from(2)
        }
    }
}

fn fail_usage(message: &str) -> ExitCode {
    eprintln!("syseco-fuzz: {message}");
    usage()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        Some("parse") => cmd_parse(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        _ => usage(),
    }
}
