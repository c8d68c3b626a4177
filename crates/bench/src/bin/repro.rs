//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [--scale N] [--seed S] [--quick] <command>
//!
//! commands:
//!   table1 .. table8    one table
//!   fig1 fig2 fig3      one figure
//!   ablation-pt         P x T tasklet sweep
//!   ablation-balance    LPT vs round-robin
//!   ablation-encode     2-bit vs ASCII transfers
//!   all                 everything, in paper order
//! ```

use bench::experiments::{ablations, figs, runtime, table1, table5, table6, table7, table8};
use bench::ReproConfig;
use datasets::synthetic::SyntheticPreset;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: repro [--scale N] [--seed S] [--quick] \
         <table1..table8|fig1|fig2|fig3|ablation-pt|ablation-balance|ablation-encode|all>"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut cfg = ReproConfig::default();
    let mut command: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                cfg.scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                if cfg.scale == 0 {
                    eprintln!("--scale must be >= 1");
                    return ExitCode::from(2);
                }
            }
            "--seed" => {
                cfg.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--quick" => cfg.quick = true,
            "--help" | "-h" => usage(),
            cmd if command.is_none() && !cmd.starts_with('-') => command = Some(cmd.to_string()),
            _ => usage(),
        }
    }
    let command = command.unwrap_or_else(|| usage());

    eprintln!(
        "# repro {command} (scale 1/{}, seed {:#x}{})",
        cfg.scale,
        cfg.seed,
        if cfg.quick { ", quick" } else { "" }
    );
    let cal = bench::calibration();
    eprintln!(
        "# Xeon projection rates: {:.0}M cells/s/core (traceback), {:.0}M (score-only){}",
        cal.cells_per_second_bt / 1e6,
        cal.cells_per_second_score / 1e6,
        if std::env::var_os("REPRO_LOCAL_CALIBRATION").is_some() {
            " [locally measured]"
        } else {
            " [paper-anchored reference; REPRO_LOCAL_CALIBRATION=1 to measure]"
        }
    );
    let start = std::time::Instant::now();
    match command.as_str() {
        "table1" => run_table1(&cfg),
        "table2" => run_runtime(&cfg, SyntheticPreset::S1000),
        "table3" => run_runtime(&cfg, SyntheticPreset::S10000),
        "table4" => run_runtime(&cfg, SyntheticPreset::S30000),
        "table5" => run_table5(&cfg),
        "table6" => run_table6(&cfg),
        "table7" => run_table7(&cfg),
        "table8" => run_table8(&cfg),
        "fig1" => println!("{}", figs::figure1()),
        "fig2" => println!("{}", figs::figure2()),
        "fig3" => run_fig3(&cfg),
        "ablation-pt" => println!("{}", ablations::pt_markdown(&ablations::pt_sweep(&cfg))),
        "ablation-balance" => {
            println!("{}", ablations::balance_markdown(&ablations::balance(&cfg)))
        }
        "ablation-encode" => println!("{}", ablations::encode_markdown(&ablations::encode(&cfg))),
        "all" => {
            println!("{}", figs::figure1());
            println!("{}", figs::figure2());
            run_fig3(&cfg);
            run_table1(&cfg);
            run_runtime(&cfg, SyntheticPreset::S1000);
            run_runtime(&cfg, SyntheticPreset::S10000);
            run_runtime(&cfg, SyntheticPreset::S30000);
            run_table8(&cfg); // runs tables 5 and 6 internally, prints all three
            run_table7(&cfg);
            println!("{}", ablations::pt_markdown(&ablations::pt_sweep(&cfg)));
            println!("{}", ablations::balance_markdown(&ablations::balance(&cfg)));
            println!("{}", ablations::encode_markdown(&ablations::encode(&cfg)));
        }
        _ => usage(),
    }
    eprintln!("# done in {:.1}s", start.elapsed().as_secs_f64());
    ExitCode::SUCCESS
}

fn run_table1(cfg: &ReproConfig) {
    let t = table1::run(cfg);
    println!("{}", t.to_markdown());
    if let Err(e) = t.shape_holds() {
        eprintln!("!! Table 1 shape check failed: {e}");
    }
}

fn run_runtime(cfg: &ReproConfig, preset: SyntheticPreset) {
    let t = runtime::run(cfg, preset);
    println!("{}", t.to_markdown());
    if let Err(e) = t.shape_holds() {
        eprintln!("!! Table {} shape check failed: {e}", t.table_no());
    }
}

fn run_table5(cfg: &ReproConfig) {
    let t = table5::run(cfg);
    println!("{}", t.to_markdown());
    if let Err(e) = t.shape_holds() {
        eprintln!("!! Table 5 shape check failed: {e}");
    }
}

fn run_table6(cfg: &ReproConfig) {
    let t = table6::run(cfg);
    println!("{}", t.to_markdown());
    if let Err(e) = t.shape_holds() {
        eprintln!("!! Table 6 shape check failed: {e}");
    }
}

fn run_table7(cfg: &ReproConfig) {
    let t = table7::run(cfg);
    println!("{}", t.to_markdown());
    if let Err(e) = t.shape_holds() {
        eprintln!("!! Table 7 shape check failed: {e}");
    }
}

fn run_table8(cfg: &ReproConfig) {
    let (t8, t5, t6) = table8::run(cfg);
    println!("{}", t5.to_markdown());
    if let Err(e) = t5.shape_holds() {
        eprintln!("!! Table 5 shape check failed: {e}");
    }
    println!("{}", t6.to_markdown());
    if let Err(e) = t6.shape_holds() {
        eprintln!("!! Table 6 shape check failed: {e}");
    }
    println!("{}", t8.to_markdown());
    if let Err(e) = t8.shape_holds() {
        eprintln!("!! Table 8 shape check failed: {e}");
    }
}

fn run_fig3(cfg: &ReproConfig) {
    let band = if cfg.quick { 16 } else { 64 };
    let d = figs::figure3(band);
    println!("{}", d.ascii_art(72));
    println!(
        "adaptive origins (every 32nd anti-diagonal): {:?}",
        d.adaptive_origins.iter().step_by(32).collect::<Vec<_>>()
    );
}
