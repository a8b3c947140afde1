//! `brics` — estimate farness/closeness centrality from the command line.
//!
//! ```text
//! brics stats <graph>                         structural statistics
//! brics prepare <graph> <artifact> [options]  persist the prepare stage
//! brics farness <graph> [options]             estimate (or compute) farness
//! brics compare <graph> [options]             methods x rates on one artifact
//! brics topk <graph> <k> [options]            exact top-k closeness ranking
//! brics betweenness <graph> [options]         betweenness centrality
//! brics generate <class> <nodes> [options]    write a synthetic graph
//! brics report check|diff <report.json> ...   validate or compare run reports
//! brics help
//! ```
//!
//! Graph files are SNAP-style edge lists (`*.txt`, `*.el`), MatrixMarket
//! (`*.mtx`) or METIS (`*.graph`, `*.metis`), auto-detected by extension.
//! Disconnected inputs are made connected the way the paper's
//! preprocessing does (§IV-B). `farness`, `compare` and `topk` also start
//! from a prepared artifact (`--artifact FILE`). Every command but `help`
//! and `report` writes its `--metrics` run report on every exit.

mod args;
mod commands;
mod error;
mod report;

use std::process::ExitCode;

/// Every `brics` invocation runs under the thread-sharded tracking
/// allocator, so run reports carry real live/peak byte figures and
/// `--max-mem-mb` can police *live* growth, not just the up-front plan.
/// The tracker is a pair of relaxed atomic adjustments around the system
/// allocator — the telemetry-invariance suite pins that results are
/// bit-identical with and without it installed.
#[global_allocator]
static ALLOC: brics_graph::telemetry::TrackingAllocator =
    brics_graph::telemetry::TrackingAllocator;

fn main() -> ExitCode {
    // Piping into `head`/`less` closes stdout early; Rust's print macros
    // then panic with a backtrace. Treat a broken pipe as the normal
    // end-of-consumer signal (grep/cat semantics) and exit quietly.
    std::panic::set_hook(Box::new(|info| {
        let msg = info.payload().downcast_ref::<String>().map(String::as_str).or_else(|| {
            info.payload().downcast_ref::<&str>().copied()
        });
        if msg.is_some_and(|m| m.contains("Broken pipe")) {
            std::process::exit(0);
        }
        eprintln!("{info}");
    }));
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            // Stable per-kind exit codes (see `brics help`): usage 2,
            // input/data 3, timeout-partial 4, internal 5.
            ExitCode::from(e.exit_code())
        }
    }
}
