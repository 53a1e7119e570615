//! `tmverify` command-line contract: programs beyond the exploration
//! geometry are rejected with exit 2 and a message instead of a panic.

use std::process::Command;

#[test]
fn oversized_programs_exit_2_with_a_message() {
    let prog = format!("1{}", "/c:L0".repeat(33));
    for args in [
        vec!["--prog", prog.as_str()],
        vec!["--cores", "33"],
        vec!["--cores", "0"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_tmverify"))
            .args(&args)
            .output()
            .expect("tmverify runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_tmverify"))
        .args(["--cores", "33"])
        .output()
        .expect("tmverify runs");
    assert!(String::from_utf8_lossy(&out.stderr).contains("supports 1 to 32"));
}
