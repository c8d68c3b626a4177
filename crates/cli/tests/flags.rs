//! The binary rejects flags a command does not declare, repeated flags and
//! malformed values with the usage text and exit status 2, before running
//! anything.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Run the binary and return its exit code (`None` when it had to be
/// killed: a command that should have been refused ran instead) and its
/// stderr.
fn exit_code(args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_upmem-nw"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn upmem-nw");
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll upmem-nw") {
            break Some(status);
        }
        if Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    if let Some(mut err) = child.stderr.take() {
        err.read_to_string(&mut stderr).ok();
    }
    (status.and_then(|s| s.code()), stderr)
}

/// Assert `args` is refused with the usage and exit status 2; its stderr.
fn assert_usage_error(args: &[&str]) -> String {
    let (code, stderr) = exit_code(args);
    assert_eq!(code, Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    stderr
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

/// The removed backends, and the removed `bench --serve` load benchmark
/// and `bench --sim` simulator benchmark.
#[test]
fn removed_split_backend_exits_with_usage() {
    for args in [
        &["align", "--a", "x.fa", "--b", "y.fa", "--backend", "split"][..],
        &["align", "--a", "x.fa", "--b", "y.fa", "--backend", "pim"],
        &["align", "--a", "x.fa", "--b", "y.fa", "--backend", "router"],
        &["bench", "--backend", "true"],
        &["bench", "--serve", "true"],
        &["bench", "--sim", "true"],
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

/// A boolean flag takes exactly `true` or `false`; anything else used to
/// read as `false` and silently turn the audit or the crash harness off.
#[test]
fn malformed_boolean_values_exit_with_usage() {
    let socket = std::env::temp_dir().join(format!("upmem-nw-flags-{}.sock", std::process::id()));
    let socket = socket.to_string_lossy().into_owned();
    for args in [
        &["serve", "--socket", &socket, "--audit", "yes"][..],
        &["chaos", "--audit", "TRUE"],
        &["chaos", "--crash", "yes"],
        &["align", "--a", "x.fa", "--b", "y.fa", "--audit", "1"],
        &["lint", "--json", "True"],
    ] {
        let stderr = assert_usage_error(args);
        assert!(stderr.contains("bad value"), "{args:?}: {stderr}");
    }
}

/// A repeated flag used to keep its last value silently.
#[test]
fn repeated_flags_exit_with_usage() {
    for args in [
        &["info", "--ranks", "2", "--ranks", "3"][..],
        &["lint", "--json", "false", "--json", "true"],
        &["align", "--a", "x.fa", "--b", "y.fa", "--a", "z.fa"],
    ] {
        let stderr = assert_usage_error(args);
        assert!(stderr.contains("given twice"), "{args:?}: {stderr}");
    }
}
