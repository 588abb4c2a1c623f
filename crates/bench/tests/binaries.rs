//! Black-box tests of the experiment binaries' operational contracts:
//! invalid `PP_*` environment overrides fail fast with a structured error
//! naming the variable, and `checkpointed_run`'s kill → resume cycle
//! reproduces the uninterrupted run byte-for-byte.

use std::path::PathBuf;
use std::process::Command;

fn unique_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pp-bench-it-{tag}-{}", std::process::id()))
}

/// Spawn `bin` with one `PP_*` override set and assert the structured
/// usage-error contract: exit code 2 and a one-line `error:` diagnostic
/// naming the variable and the rejected value.
fn assert_env_rejected(bin: &str, name: &str, value: &str) {
    let out = Command::new(bin)
        .env_remove("PP_TABLE_CACHE")
        .env(name, value)
        .output()
        .expect("binary spawns");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{name}={value} must exit 2, got {:?} (stderr: {stderr})",
        out.status
    );
    assert!(
        stderr.contains("error: invalid environment override") && stderr.contains(name),
        "diagnostic must name {name}, got: {stderr}"
    );
    assert!(
        stderr.contains(value),
        "diagnostic must echo the rejected value {value:?}, got: {stderr}"
    );
}

#[test]
fn invalid_env_overrides_exit_nonzero_with_the_variable_named() {
    let e11 = env!("CARGO_BIN_EXE_exp_e11_faults");
    assert_env_rejected(e11, "PP_E11_HAZARD_N", "a-billion");
    assert_env_rejected(e11, "PP_E11_HAZARD_N", "0");
    assert_env_rejected(e11, "PP_E11_HAZARD_K", "1");
    assert_env_rejected(e11, "PP_E11_HAZARD_SEEDS", "-3");
    let e03 = env!("CARGO_BIN_EXE_exp_e03_convergence_k");
    assert_env_rejected(e03, "PP_E03_N", "0");
    assert_env_rejected(e03, "PP_E03_SEEDS", "lots");
    assert_env_rejected(e03, "PP_E03_KS", "8,1,30");
    assert_env_rejected(e03, "PP_E03_KS", "8,,30");
    assert_env_rejected(e03, "PP_E03_THREADS", "0");
}

#[test]
fn checkpointed_run_killed_mid_run_resumes_to_the_reference_report() {
    let bin = env!("CARGO_BIN_EXE_checkpointed_run");
    let dir = unique_dir("killresume");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let reference = dir.join("reference.txt");
    let resumed = dir.join("resumed.txt");
    let checkpoint = dir.join("run.pprc");
    // Small-population variant of the CI gate: same driver, same hazard
    // schedule shape, minutes become milliseconds. `--every 1` offers a
    // checkpoint at every state change so `--kill-after 5` dies mid-run.
    let common = ["--n", "100000", "--k", "4", "--seed", "1", "--every", "1"];

    let status = Command::new(bin)
        .env_remove("PP_TABLE_CACHE")
        .arg("reference")
        .args(common)
        .args(["--report", reference.to_str().unwrap()])
        .status()
        .expect("reference run spawns");
    assert!(status.success(), "reference run must succeed: {status:?}");

    let killed = Command::new(bin)
        .env_remove("PP_TABLE_CACHE")
        .arg("run")
        .args(common)
        .args(["--checkpoint", checkpoint.to_str().unwrap()])
        .args(["--report", dir.join("unused.txt").to_str().unwrap()])
        .args(["--kill-after", "5"])
        .output()
        .expect("killed run spawns");
    assert!(
        !killed.status.success(),
        "--kill-after must crash the run, got {:?}",
        killed.status
    );
    assert!(
        checkpoint.exists(),
        "the crash must leave a checkpoint behind"
    );

    let status = Command::new(bin)
        .env_remove("PP_TABLE_CACHE")
        .arg("resume")
        .args(common)
        .args(["--checkpoint", checkpoint.to_str().unwrap()])
        .args(["--report", resumed.to_str().unwrap()])
        .status()
        .expect("resume run spawns");
    assert!(status.success(), "resume must succeed: {status:?}");

    let want = std::fs::read(&reference).unwrap();
    let got = std::fs::read(&resumed).unwrap();
    assert_eq!(
        want, got,
        "the resumed report must be byte-identical to the uninterrupted reference"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
