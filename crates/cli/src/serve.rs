//! The `serve` subcommand: `cmd_serve` runs the persistent daemon
//! ([`upmem_nw_service::run_serve`]) until it drains, prints the one-line
//! summary and optionally writes the full
//! [`ServiceReport`](upmem_nw_service::ServiceReport) JSON.

use crate::CliError;
use std::fmt::Write as _;
use upmem_nw_service::{run_serve, ServeOptions};

/// Run the daemon until it drains (SIGTERM/SIGINT or a client `drain`
/// request); print the summary, and write the full report JSON to
/// `json_path` when given.
pub fn cmd_serve(opts: &ServeOptions, json_path: Option<&str>) -> Result<String, CliError> {
    eprintln!(
        "serving on {} ({} ranks x {} DPUs, band {}, queue {} requests / {} pairs, \
         {} open tickets); drain with SIGTERM or {{\"op\":\"drain\"}}",
        opts.socket.display(),
        opts.ranks.max(1),
        opts.dpus.max(1),
        opts.band,
        opts.queue_requests,
        opts.queue_pairs,
        opts.max_open_tickets,
    );
    let rep = run_serve(opts).map_err(|e| CliError::Align(e.to_string()))?;
    let mut out = rep.summary();
    out.push('\n');
    if let Some(path) = json_path {
        std::fs::write(path, rep.to_json())?;
        let _ = writeln!(out, "wrote {path}");
    }
    if !rep.consistent() {
        return Err(CliError::Align(format!(
            "service accounting violated its conservation law\n{out}"
        )));
    }
    Ok(out)
}
