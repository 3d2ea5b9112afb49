//! The documented exit-code contract of every shipped binary (README
//! "Exit codes"): scripts and CI pipelines branch on these, so each code
//! is pinned by an integration test.
//!
//! * `syseco`: 0 success, 1 verification failure, 2 usage, 3 degraded
//!   but honest.
//! * `syseco-serve`: 0 clean drain, (1 fatal,) 2 usage.
//! * `syseco-load`: 0 all jobs accounted, (1 violation,) 2 usage.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};

const IMPL: &str = ".model impl\n.inputs a b\n.outputs y\n.gate and w a b\n.assign y w\n.end\n";
const SPEC: &str = ".model spec\n.inputs a b\n.outputs y\n.gate or w a b\n.assign y w\n.end\n";

/// Writes the tiny AND/OR pair into a fresh temp dir.
fn netlist_pair(tag: &str) -> (PathBuf, PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("syseco-exit-codes-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let impl_path = dir.join("impl.blif");
    let spec_path = dir.join("spec.blif");
    std::fs::write(&impl_path, IMPL).unwrap();
    std::fs::write(&spec_path, SPEC).unwrap();
    (dir, impl_path, spec_path)
}

fn code(cmd: &mut Command) -> i32 {
    cmd.stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn binary")
        .code()
        .expect("terminated by signal")
}

#[test]
fn syseco_exit_code_contract() {
    let syseco = env!("CARGO_BIN_EXE_syseco");
    let (dir, impl_path, spec_path) = netlist_pair("cli");

    // 0: successful, fully verified rectification.
    assert_eq!(
        code(
            Command::new(syseco)
                .args(["rectify"])
                .arg(&impl_path)
                .arg(&spec_path)
                .args(["--seed", "3"])
        ),
        0
    );
    // 0: check over an equivalent pair.
    assert_eq!(
        code(
            Command::new(syseco)
                .arg("check")
                .arg(&impl_path)
                .arg(&impl_path)
        ),
        0
    );
    // 1: check reports differing outputs.
    assert_eq!(
        code(
            Command::new(syseco)
                .arg("check")
                .arg(&impl_path)
                .arg(&spec_path)
        ),
        1
    );
    // 2: usage errors — no arguments, and an unknown subcommand.
    assert_eq!(code(&mut Command::new(syseco)), 2);
    assert_eq!(code(Command::new(syseco).arg("bogus")), 2);
    // 3: the run finishes degraded-but-honest under an expired budget.
    assert_eq!(
        code(
            Command::new(syseco)
                .arg("rectify")
                .arg(&impl_path)
                .arg(&spec_path)
                .args(["--seed", "3", "--timeout", "0.0001"])
        ),
        3
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `cmd` and returns its exit code with captured stdout and stderr.
fn run(cmd: &mut Command) -> (i32, String, String) {
    let out = cmd.output().expect("spawn binary");
    (
        out.status.code().expect("terminated by signal"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Outputs declared only through `.outputs` and driven by a same-named
/// net (no `.assign`) are real ports: `check` sees the difference and
/// `rectify` patches it, instead of comparing zero outputs and passing.
#[test]
fn outputs_without_assign_are_compared_not_vacuous() {
    let syseco = env!("CARGO_BIN_EXE_syseco");
    let dir = std::env::temp_dir().join(format!("syseco-exit-codes-outs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let write = |name: &str, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path
    };
    let impl_path = write(
        "impl.blif",
        ".model impl\n.inputs a b\n.outputs o\n.gate and o a b\n.end\n",
    );
    let spec_path = write(
        "spec.blif",
        ".model spec\n.inputs a b\n.outputs o\n.gate or o a b\n.end\n",
    );

    let (rc, stdout, _) = run(Command::new(syseco)
        .arg("check")
        .arg(&impl_path)
        .arg(&spec_path));
    assert_eq!(rc, 1, "{stdout}");
    assert!(stdout.contains("1 of 1 outputs differ"), "{stdout}");

    let patched = dir.join("patched.blif");
    let (rc, stdout, _) = run(Command::new(syseco)
        .arg("rectify")
        .arg(&impl_path)
        .arg(&spec_path)
        .args(["--seed", "3", "--out"])
        .arg(&patched));
    assert_eq!(rc, 0, "{stdout}");
    assert!(stdout.contains("verification: PASS"), "{stdout}");
    assert!(
        stdout.contains("rewire operations"),
        "patch must be non-empty: {stdout}"
    );
    let (rc, stdout, _) = run(Command::new(syseco)
        .arg("check")
        .arg(&patched)
        .arg(&spec_path));
    assert_eq!(rc, 0, "{stdout}");
    assert!(stdout.contains("0 of 1 outputs differ"), "{stdout}");

    // A declared output nothing drives is a parse error, not a port.
    let undriven = write("undriven.blif", ".model u\n.inputs a b\n.outputs o\n.end\n");
    let (rc, _, stderr) = run(Command::new(syseco)
        .arg("check")
        .arg(&undriven)
        .arg(&spec_path));
    assert_eq!(rc, 1);
    assert!(stderr.contains("output \"o\" has no driver"), "{stderr}");
    let (rc, _, stderr) = run(Command::new(syseco)
        .arg("rectify")
        .arg(&undriven)
        .arg(&spec_path));
    assert_eq!(rc, 1);
    assert!(stderr.contains("output \"o\" has no driver"), "{stderr}");

    // Differing port lists fail the check instead of comparing nothing.
    let portless = write(
        "portless.blif",
        ".model p\n.inputs a b\n.gate and w a b\n.end\n",
    );
    let (rc, _, stderr) = run(Command::new(syseco)
        .arg("check")
        .arg(&portless)
        .arg(&spec_path));
    assert_eq!(rc, 1);
    assert!(stderr.contains("output ports differ"), "{stderr}");
    // Two portless designs share no output pair: an error, not a PASS.
    let (rc, stdout, stderr) = run(Command::new(syseco)
        .arg("check")
        .arg(&portless)
        .arg(&portless));
    assert_eq!(rc, 1, "{stdout}");
    assert!(stderr.contains("no output pairs"), "{stderr}");
    let (rc, stdout, stderr) = run(Command::new(syseco)
        .arg("rectify")
        .arg(&portless)
        .arg(&portless));
    assert_eq!(rc, 1, "{stdout}");
    assert!(!stdout.contains("verification: PASS"), "{stdout}");
    assert!(stderr.contains("no output pairs"), "{stderr}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_and_load_usage_errors_are_code_2() {
    let serve = env!("CARGO_BIN_EXE_syseco-serve");
    let load = env!("CARGO_BIN_EXE_syseco-load");

    assert_eq!(code(Command::new(serve).arg("--bogus")), 2);
    assert_eq!(code(Command::new(serve).args(["--workers"])), 2);
    assert_eq!(code(&mut Command::new(load)), 2, "a mode flag is required");
    assert_eq!(
        code(Command::new(load).args(["--addr", "127.0.0.1:1", "--bench"])),
        2,
        "--addr and --bench are mutually exclusive"
    );
    // --help is not an error.
    assert_eq!(code(Command::new(serve).arg("--help")), 0);
    assert_eq!(code(Command::new(load).arg("--help")), 0);
}

#[test]
fn serve_drains_to_code_0_and_load_accounts_to_code_0() {
    let serve = env!("CARGO_BIN_EXE_syseco-serve");
    let load = env!("CARGO_BIN_EXE_syseco-load");
    let dir = std::env::temp_dir().join(format!("syseco-exit-codes-daemon-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let mut daemon = Command::new(serve)
        .args(["--addr", "127.0.0.1:0", "--workers", "1"])
        .arg("--cache-dir")
        .arg(dir.join("cache"))
        .arg("--checkpoint-dir")
        .arg(dir.join("ckpt"))
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn syseco-serve");

    // The daemon prints `listening <addr>` once bound.
    let stdout = daemon.stdout.take().unwrap();
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("listening ")
        .unwrap_or_else(|| panic!("unexpected startup line {line:?}"))
        .to_string();

    // 0 from syseco-load: every submitted job resolves and is accounted.
    assert_eq!(
        code(Command::new(load).args(["--addr", &addr, "--jobs", "3", "--concurrency", "2"])),
        0
    );

    // 0 from syseco-serve: graceful drain via the frame-level shutdown.
    let mut controller = syseco::serve::Client::connect(&addr).expect("connect controller");
    controller.shutdown_daemon().expect("send shutdown frame");
    let status = daemon.wait().expect("daemon exit status");
    assert_eq!(status.code(), Some(0), "clean drain must exit 0");

    let _ = std::fs::remove_dir_all(&dir);
}
