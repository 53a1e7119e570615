//! `tmtrace` command-line contract: an output directory that cannot be
//! created is reported with its path and exit status 2, not a panic.

use std::process::Command;

#[test]
fn unwritable_out_exits_2_with_the_path() {
    // A directory cannot be created below a regular file, whoever runs
    // the test.
    let file = std::env::temp_dir().join(format!("tmtrace-cli-{}", std::process::id()));
    std::fs::write(&file, "not a directory").expect("create the blocking file");
    let out_dir = file.join("out");
    let out = Command::new(env!("CARGO_BIN_EXE_tmtrace"))
        .args(["--workload", "kmeans", "--threads", "2", "--out"])
        .arg(&out_dir)
        .output()
        .expect("tmtrace runs");
    std::fs::remove_file(&file).expect("remove the blocking file");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    assert!(
        err.contains(&format!("cannot create directory {}", out_dir.display())),
        "{err}"
    );
}
