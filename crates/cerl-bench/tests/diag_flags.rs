//! `diag` refuses flags it does not know instead of silently running the
//! calibration with them ignored.

use std::process::Command;

#[test]
fn unknown_flags_exit_2_naming_the_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_diag"))
        .args([
            "--quick",
            "--units",
            "100",
            "--trajectory",
            "/nonexistent/x",
        ])
        .output()
        .expect("diag runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown flag --trajectory"),
        "stderr: {stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing ran before the flag check");
}
