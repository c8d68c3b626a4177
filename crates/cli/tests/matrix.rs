//! `upmem-nw matrix` end to end: the binary generates a small 16S FASTA,
//! scores every pair on the simulated PiM server, and prints one TSV row
//! per pair with the score the host's adaptive aligner computes.

use nw_core::adaptive::AdaptiveAligner;
use nw_core::ScoringScheme;
use std::collections::HashMap;
use std::process::Command;
use upmem_nw_cli::read_fasta;

/// Run the binary to success and return its stdout.
fn run(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_upmem-nw"))
        .args(args)
        .output()
        .expect("spawn upmem-nw");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{args:?}: {stderr}");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn matrix_scores_every_pair_like_the_adaptive_aligner() {
    let path = std::env::temp_dir().join(format!("upmem-nw-matrix-{}.fa", std::process::id()));
    let fasta = path.to_string_lossy().into_owned();
    run(&[
        "generate", "--kind", "16s", "--count", "6", "--seed", "5", "--out", &fasta,
    ]);
    let tsv = run(&["matrix", "--in", &fasta, "--band", "128", "--ranks", "2"]);
    let recs = read_fasta(&fasta).unwrap();
    std::fs::remove_file(&path).ok();

    let n = recs.len();
    assert_eq!(n, 6);
    let seqs: HashMap<&str, _> = recs.iter().map(|r| (r.name.as_str(), &r.seq)).collect();
    let aligner = AdaptiveAligner::new(ScoringScheme::default(), 128);
    let rows: Vec<&str> = tsv.lines().filter(|l| !l.starts_with('#')).collect();
    assert_eq!(rows.len(), n * (n - 1) / 2, "{tsv}");
    for row in rows {
        let cols: Vec<&str> = row.split('\t').collect();
        assert_eq!(cols.len(), 3, "{row}");
        let want = aligner.score(seqs[cols[0]], seqs[cols[1]]).unwrap();
        assert_eq!(cols[2].parse::<i32>().unwrap(), want, "{row}");
    }
}
