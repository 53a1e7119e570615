//! `tmlint` command-line contract: the kernel-mode geometry follows the
//! thread count, both modes report the same pruning table for a spec,
//! and oversized programs are rejected with exit 2 instead of a panic.

use std::process::{Command, Output};

fn tmlint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tmlint"))
        .args(args)
        .output()
        .expect("tmlint runs")
}

/// The `pruning table` line `tmlint --table` prints on stderr.
fn table_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr)
        .lines()
        .find(|l| l.starts_with("tmlint: pruning table"))
        .unwrap_or_else(|| {
            panic!(
                "no table line in {:?}",
                String::from_utf8_lossy(&out.stderr)
            )
        })
        .to_string()
}

#[test]
fn kernel_mode_geometry_has_one_core_per_thread() {
    let out = tmlint(&[
        "kernel",
        "--stamp",
        "kmeans",
        "--threads",
        "4",
        "--system",
        "LockillerTM",
        "--table",
    ]);
    let line = table_line(&out);
    let foot = line.split("bank_foot=[").nth(1).expect("bank_foot list");
    assert_eq!(foot.matches("0b").count(), 4, "{line}");
}

#[test]
fn spec_and_kernel_mode_report_the_same_table() {
    for (system, prog) in [
        ("LockillerTM-RWI", "3/c:L0,S1/c:L1,S2/c:L2,S0"),
        ("LockillerTM", "3/c:L0,S0/c:L1,S1/c:L2,S2"),
    ] {
        let spec = tmlint(&["--prog", prog, "--system", system, "--table"]);
        let kernel = tmlint(&["kernel", "--prog", prog, "--system", system, "--table"]);
        assert_eq!(table_line(&spec), table_line(&kernel), "{prog} on {system}");
        assert_eq!(table_line(&spec).matches("0b").count(), 4, "pure + 3 banks");
    }
}

#[test]
fn oversized_programs_exit_2_with_a_message() {
    let prog = format!("1{}", "/c:L0".repeat(33));
    for args in [
        vec!["--prog", prog.as_str()],
        vec!["kernel", "--prog", prog.as_str()],
        vec!["kernel", "--stamp", "kmeans", "--threads", "40"],
    ] {
        let out = tmlint(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("supports 1 to 32"), "{args:?}: {err}");
    }
}
