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

#[test]
fn removed_sync_dispatch_flag_exits_with_usage() {
    let align = [
        "align",
        "--a",
        "x.fa",
        "--b",
        "y.fa",
        "--sync-dispatch",
        "true",
    ];
    for args in [&align[..], &["chaos", "--sync-dispatch", "true"]] {
        let (code, stderr) = exit_code(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("unknown flag --sync-dispatch"),
            "{args:?}: {stderr}"
        );
    }
}

/// The removed backends, and the removed `bench --serve` load benchmark.
#[test]
fn removed_split_backend_exits_with_usage() {
    for args in [
        &["align", "--a", "x.fa", "--b", "y.fa", "--backend", "split"][..],
        &["align", "--a", "x.fa", "--b", "y.fa", "--backend", "pim"],
        &["align", "--a", "x.fa", "--b", "y.fa", "--backend", "router"],
        &["bench", "--backend", "true"],
        &["bench", "--serve", "true"],
    ] {
        let (code, stderr) = exit_code(args);
        let flag = args[args.len() - 2];
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag {flag}")),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
}
