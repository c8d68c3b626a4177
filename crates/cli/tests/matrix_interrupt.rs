//! `matrix` after a host interrupt: the cancelled pairs fail the command
//! instead of printing as made-up scores of 0.
//!
//! The interrupt flag is process-global, so this file is its own test
//! binary and checks the contract in one test.

use pim_host::interrupt;
use upmem_nw_cli::{cmd_matrix, CliError};

#[test]
fn interrupted_matrix_fails_naming_the_first_unscored_pair() {
    let path = std::env::temp_dir().join(format!(
        "upmem-nw-cli-matrix-interrupt-{}.fa",
        std::process::id()
    ));
    std::fs::write(
        &path,
        ">r0\nACGTACGTACGTACGT\n>r1\nACGTACGGACGTACGT\n>r2\nGATTACAGATTACAGA\n",
    )
    .unwrap();
    let fasta = path.to_string_lossy().into_owned();
    interrupt::trip();
    let got = cmd_matrix(&fasta, 16, 2);
    match &got {
        Err(CliError::Align(msg)) => {
            assert!(msg.starts_with("3 of 3 pairs not scored"), "{msg}");
            assert!(msg.contains("r0 r1") && msg.contains("Cancelled"), "{msg}");
        }
        _ => panic!("an interrupted matrix must fail: {got:?}"),
    }
    interrupt::reset();
    let tsv = cmd_matrix(&fasta, 16, 2).unwrap();
    assert_eq!(tsv.lines().filter(|l| !l.starts_with('#')).count(), 3);
    std::fs::remove_file(path).ok();
}
