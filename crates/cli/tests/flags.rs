//! The binary rejects flags a command does not declare with the usage
//! text and exit status 2, before running anything.

use std::process::Command;

fn exit_code(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_upmem-nw"))
        .args(args)
        .output()
        .expect("spawn upmem-nw");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn removed_interp_mode_flag_exits_with_usage() {
    let (code, stderr) = exit_code(&[
        "align",
        "--a",
        "x.fa",
        "--b",
        "y.fa",
        "--interp-mode",
        "jit",
    ]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag --interp-mode"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn misspelled_flag_exits_with_usage() {
    let (code, stderr) = exit_code(&["serve", "--interp-mod", "jit"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag --interp-mod"), "{stderr}");
}

#[test]
fn declared_flags_still_run() {
    let (code, stderr) = exit_code(&["info", "--ranks", "2"]);
    assert_eq!(code, Some(0), "{stderr}");
}
