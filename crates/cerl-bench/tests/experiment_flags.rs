//! Every experiment binary refuses a flag it does not declare before it
//! runs anything: `table1 --help` used to run a full Table I.

use std::process::Command;

#[test]
fn unknown_flags_exit_2_before_any_experiment_runs() {
    for (bin, exe) in [
        ("table1", env!("CARGO_BIN_EXE_table1")),
        ("table2", env!("CARGO_BIN_EXE_table2")),
        ("fig3ab", env!("CARGO_BIN_EXE_fig3ab")),
        ("fig3cd", env!("CARGO_BIN_EXE_fig3cd")),
    ] {
        let out = Command::new(exe)
            .args(["--quick", "--help"])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{bin}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown flag --help"), "{bin}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin}: nothing ran before the check");
    }
}

#[test]
fn a_value_flag_without_its_value_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_table1"))
        .args(["--quick", "--reps"])
        .output()
        .expect("table1 runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
