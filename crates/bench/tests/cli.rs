//! The check bins that render a committed document refuse a mistyped
//! flag: they exit 2 with a usage line and write nothing, instead of
//! taking the flag as the output path.

use std::path::PathBuf;
use std::process::Command;

/// A fresh, empty directory for one bin's run.
fn empty_dir(bin: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pbl_bench_cli_{bin}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn assert_rejected(bin: &str, exe: &str, args: &[&str]) {
    let dir = empty_dir(bin);
    let out = Command::new(exe)
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("run bin");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{bin} {args:?}: {stderr}");
    let left: Vec<_> = std::fs::read_dir(&dir)
        .expect("read temp dir")
        .map(|e| e.expect("entry").file_name())
        .collect();
    assert!(left.is_empty(), "{bin} {args:?} wrote {left:?}");
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}

#[test]
fn os_rejects_a_mistyped_flag() {
    assert_rejected("os", env!("CARGO_BIN_EXE_os"), &["--chek"]);
}

#[test]
fn racecheck_rejects_a_mistyped_flag() {
    assert_rejected("racecheck", env!("CARGO_BIN_EXE_racecheck"), &["--chekc"]);
    assert_rejected(
        "racecheck",
        env!("CARGO_BIN_EXE_racecheck"),
        &["--check", "--shrnk"],
    );
}
