//! `align` on the PiM lane after a host interrupt: the cancelled pairs
//! fail the command instead of printing as made-up alignments, with or
//! without the result cache in front.
//!
//! The interrupt flag is process-global, so this file is its own test
//! binary and checks the contract in one test.

use pim_host::interrupt;
use upmem_nw_cli::{cmd_align, Algo, CliError};

fn write_temp(name: &str, content: &str) -> String {
    let path = std::env::temp_dir().join(format!(
        "upmem-nw-cli-interrupt-{}-{name}",
        std::process::id()
    ));
    std::fs::write(&path, content).unwrap();
    path.to_string_lossy().into_owned()
}

#[test]
fn interrupted_pim_align_fails_instead_of_printing_cancelled_pairs() {
    let a = write_temp("a.fa", ">r0\nACGTACGTACGTACGT\n>r1\nGATTACAGATTACA\n");
    let b = write_temp("b.fa", ">s0\nACGTACGGACGTACGT\n>s1\nGATTACAGATTACA\n");
    interrupt::trip();
    for cache in [0, 64] {
        let got = cmd_align(&a, &b, Algo::Pim, 16, 1, 2, 0, false, cache);
        assert!(
            matches!(got, Err(CliError::Align(_))),
            "cache {cache}: an interrupted run must fail: {got:?}"
        );
    }
    interrupt::reset();
    for cache in [0, 64] {
        let tsv = cmd_align(&a, &b, Algo::Pim, 16, 1, 2, 0, false, cache).unwrap();
        assert_eq!(tsv.lines().filter(|l| !l.starts_with('#')).count(), 2);
    }
    std::fs::remove_file(a).ok();
    std::fs::remove_file(b).ok();
}
