//! `perfbench`: the syseco benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload suite|serve-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with telemetry off;
//! `--trace 1` makes a traced run and reports the per-layer metrics. Every
//! metric is printed by name with its unit, and the last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! The exit code is 1 when any output check failed and 2 on a usage error.
//! `perfbench/README.md` describes the workloads and metrics.

mod check;
mod engine;
mod rename;
mod report;
mod serve_mix;
mod stats;
mod suite;
mod trace;

use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload suite|serve-mix --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot parse {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// glibc's `mallopt` parameter that caps the number of malloc arenas.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
const M_ARENA_MAX: std::os::raw::c_int = -8;

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn mallopt(param: std::os::raw::c_int, value: std::os::raw::c_int) -> std::os::raw::c_int;
}

/// Makes every thread allocate from one malloc arena. With glibc's default
/// per-thread arenas, the daemon's peak resident set swung by a third
/// between runs of the same jobs, with where the allocator placed memory
/// rather than how much the program needed; `peak_rss_mb` is meant to
/// show the latter.
fn single_malloc_arena() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `mallopt` takes two plain integers and changes only the
    // allocator's tuning. It runs first in `main`, before this program
    // starts any thread, as glibc asks of arena settings.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

fn main() -> ExitCode {
    single_malloc_arena();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "suite" => suite::run(args.seed, args.seconds, args.trace),
        "serve-mix" => serve_mix::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
