//! End-to-end tests of the `mpc-clustering` CLI binary: generate a
//! dataset, run each subcommand, and check outputs and exit codes.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mpc-clustering"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("mpc-clustering-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn gen_then_kcenter_round_trip() {
    let pts = tmp("kc-points.csv");
    let out = bin()
        .args([
            "gen",
            "--n",
            "120",
            "--clusters",
            "4",
            "--seed",
            "3",
            "--out",
        ])
        .arg(&pts)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&pts).unwrap();
    assert_eq!(text.lines().count(), 120);

    let out = bin()
        .args(["kcenter", "--k", "4", "--m", "4", "--input"])
        .arg(&pts)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("k-center radius"),
        "missing summary: {stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 5, "header + 4 centers: {stdout}");
    assert!(stdout.starts_with("id,x0,x1"));
}

#[test]
fn diversity_and_ksupplier_run() {
    let pts = tmp("div-points.csv");
    bin()
        .args(["gen", "--n", "80", "--seed", "5", "--out"])
        .arg(&pts)
        .status()
        .unwrap();

    let out = bin()
        .args(["diversity", "--k", "5", "--m", "2", "--input"])
        .arg(&pts)
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("k-diversity"));

    let out = bin()
        .args([
            "ksupplier",
            "--k",
            "3",
            "--m",
            "2",
            "--suppliers-from",
            "60",
            "--input",
        ])
        .arg(&pts)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Every returned supplier id must come from the supplier range.
    for line in stdout.lines().skip(1) {
        let id: u32 = line.split(',').next().unwrap().parse().unwrap();
        assert!((60..80).contains(&id), "id {id} is not a supplier");
    }
}

#[test]
fn bad_invocations_fail_cleanly() {
    let out = bin().args(["kcenter", "--k", "4"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--input"));

    let out = bin().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = bin()
        .args(["kcenter", "--input", "/nonexistent.csv", "--k", "2"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

/// Runs the binary and asserts a clean CLI failure: non-zero exit, an
/// `error:` line mentioning `needle`, and no panic.
fn assert_cli_error(args: &[&str], input: &std::path::Path, needle: &str) {
    let out = bin().args(args).arg("--input").arg(input).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.starts_with("error:"), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn non_finite_csv_rows_are_rejected() {
    let pts = tmp("nan-points.csv");
    std::fs::write(&pts, "0.0,0.1,0.2\nNaN,0.1,0.2\n1.0,1.1,1.2\n").unwrap();
    assert_cli_error(&["kcenter", "--k", "2"], &pts, "CSV line 2");
    std::fs::write(&pts, "0.0,0.1\n1.0,inf\n").unwrap();
    assert_cli_error(&["diversity", "--k", "2"], &pts, "non-finite");
}

#[test]
fn bad_parameters_are_cli_errors() {
    let pts = tmp("param-points.csv");
    bin()
        .args(["gen", "--n", "40", "--seed", "2", "--out"])
        .arg(&pts)
        .status()
        .unwrap();
    assert_cli_error(&["kcenter", "--k", "3", "--m", "0"], &pts, "--m");
    assert_cli_error(&["kcenter", "--k", "0"], &pts, "--k");
    assert_cli_error(
        &["kcenter", "--k", "3", "--epsilon", "0"],
        &pts,
        "--epsilon",
    );
    assert_cli_error(
        &["kcenter", "--k", "3", "--epsilon", "NaN"],
        &pts,
        "--epsilon",
    );
    assert_cli_error(&["diversity", "--k", "1"], &pts, "--k");
    assert_cli_error(
        &["ksupplier", "--k", "0", "--suppliers-from", "20"],
        &pts,
        "--k",
    );
}

/// Removed and misspelled `KCENTER_*` values (set on the child process
/// only) are rejected at startup with an `error:` line naming the variable
/// and its allowed values — never a panic, never a silent default.
#[test]
fn removed_and_unknown_env_values_are_cli_errors() {
    let pts = tmp("env-points.csv");
    bin()
        .args(["gen", "--n", "40", "--seed", "4", "--out"])
        .arg(&pts)
        .status()
        .unwrap();
    for (var, value, allowed) in [
        ("KCENTER_SPEED", "soa+sketch", "exact, soa"),
        ("KCENTER_TRANSPORT", "process", "sim, loopback"),
        ("KCENTER_THREADS", "zero", "integer >= 1"),
        ("KCENTER_ENGINE", "gird", "allpairs, all-pairs, grid, auto"),
    ] {
        let out = bin()
            .args(["kcenter", "--k", "3", "--input"])
            .arg(&pts)
            .env(var, value)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{var}={value}: {stderr}");
        assert!(stderr.starts_with("error:"), "{var}={value}: {stderr}");
        assert!(stderr.contains(var), "{var}={value}: {stderr}");
        assert!(stderr.contains(allowed), "{var}={value}: {stderr}");
        assert!(!stderr.contains("panicked"), "{var}={value}: {stderr}");
        assert!(out.stdout.is_empty(), "{var}={value}: no output expected");
    }
}

#[test]
fn help_prints_usage() {
    let out = bin().arg("--help").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("kcenter"));
    assert!(stdout.contains("ksupplier"));
}

#[test]
fn deterministic_across_invocations() {
    let pts = tmp("det-points.csv");
    bin()
        .args(["gen", "--n", "100", "--clusters", "3", "--out"])
        .arg(&pts)
        .status()
        .unwrap();
    let run = || {
        bin()
            .args(["kcenter", "--k", "3", "--seed", "9", "--input"])
            .arg(&pts)
            .output()
            .unwrap()
            .stdout
    };
    assert_eq!(run(), run());
}
