//! Subcommand implementations.

use crate::args::{parse, Parsed};
use crate::error::CliError;
use brics::{
    run_degraded, ArtifactInfo, CentralityError, DegradationPolicy, DegradedRequest,
    ExecutionContext, Kernel, KernelConfig, MemoryPlan, Method, PrepareConfig,
    PreparedGraph, ProgressConfig, ProgressMeter, RunControl, RunOutcome, RunRecorder,
    SampleSize,
};
use brics_bicc::biconnected_components;
use brics_graph::telemetry::{timed, ArtifactProvenance, Counter, FaultSiteRecord, Recorder};
use brics_graph::{FaultKind, FaultPlan, FaultSite};
use brics_graph::connectivity::{is_connected, make_connected};
use brics_graph::degree::degree_stats;
use brics_graph::generators::{ClassParams, GraphClass};
use brics_graph::io::{read_edge_list, read_metis, read_mtx, write_edge_list, write_metis, write_mtx};
use brics_graph::CsrGraph;
use brics_reduce::{reduce_ctl_rec, ReductionConfig};
use std::path::Path;

const HELP: &str = "\
brics — farness/closeness centrality estimation (BRICS reproduction)

USAGE:
  brics stats <graph>
      Structural statistics: degrees, reductions, biconnected components.

  brics prepare <graph> <artifact> [--method random|cr|icr|cumulative|exact]
                                   [--reorder] [--giant]
      Run the prepare stage once (reductions + Block-Cut Tree per
      --method; default `cumulative` = the full pipeline) and persist it
      as a checksummed binary artifact (`brics.artifact/v1`). Later runs
      pass --artifact FILE to farness/compare/topk and start from the
      file — no re-read, no re-reduction, bit-identical answers.

  brics farness <graph> [--method random|cr|icr|cumulative|exact]
                        [--rate 0.2] [--seed 0] [--top K] [--json]
                        [--kernel auto|topdown|hybrid|msbfs] [--reorder]
                        [--artifact FILE]
      Estimate (default: cumulative @ 20%) or compute exact farness.
      Prints `vertex farness closeness` per line, or the --top K most
      central vertices; --json emits a machine-readable document.

  brics compare <graph> [--methods random,reduced,cumulative]
                        [--rates 0.1,0.2,0.3] [--seed 0] [--exact] [--json]
                        [--kernel auto|topdown|hybrid|msbfs] [--reorder]
                        [--artifact FILE]
      Method × rate comparison against ONE prepared artifact: the
      reduction pipeline and Block-Cut Tree are built once, and every
      method at every sampling rate queries the same structure — no
      re-reduction, no re-decomposition. --exact additionally computes
      the exact farness and reports each estimate's quality
      (symmetric accuracy in [0, 1]; 1.0 = perfect).

  brics topk <graph> <k> [--rate 0.3] [--seed 0] [--json]
                         [--kernel auto|topdown|hybrid|msbfs] [--reorder]
                         [--topk-prune on|off] [--artifact FILE]
      EXACT top-k closeness ranking, pruned by BRICS lower bounds —
      far cheaper than computing all-pairs farness. Verification BFS
      are cut against the running k-th best (--topk-prune on, the
      default); `off` runs every sweep to completion — same ranking,
      more edge scans.

  brics betweenness <graph> [--rate 0.3] [--seed 0] [--top K] [--exact]
      Betweenness centrality via Brandes pivots (--exact for all sources).

  brics generate <web|social|community|road|rmat> <nodes> [--seed 0]
                 [--out FILE]
      Write a synthetic class graph (.el edge list, .mtx MatrixMarket or
      .graph/.metis METIS, by extension; stdout edge list when --out is
      omitted). `rmat` is a Graph500-parameter stress generator.

  brics report check <report.json> [--schema v3] [--assert SPEC[,SPEC...]]
      Validate a --metrics run report: schema name, counter/phase/memory
      block shape, histogram quantile ordering. Each SPEC is a dotted-path
      comparison against a numeric or string leaf, e.g.
      `counters.bfs_sources>=1` or `memory.plan_accuracy<=1.0`
      (operators <=, >=, ==, !=, <, >). A failed assertion exits 3.
      `--schema v2` accepts pre-memory reports; `--schema none` skips
      structural validation so assertions can gate any JSON document
      (bench output, trace-event arrays); `--absent PATH[,PATH...]`
      requires the listed paths to NOT resolve. Dotted paths address
      array elements by index, by `length`/`last`, or by name-like field
      value (`phases.estimate.count`, `faults_injected.bfs.source.fired`).

  brics report diff <old.json> <new.json> [--fail-on SPEC[,SPEC...]]
      Compare two run reports (or any JSON documents). Each SPEC is
      `PATH:PCT`: fail (exit 3) when the numeric leaf at dotted PATH
      drifts more than PCT percent between old and new (PCT 0 = must be
      bit-equal; strings always compare exactly). The regression gate CI
      runs instead of ad-hoc jq assertions.

ARTIFACTS (prepare → farness, compare, topk):
  --artifact FILE    Start from a prepared-graph artifact written by
                     `brics prepare` instead of a graph file. FILE
                     replaces the <graph> argument (`brics farness
                     --artifact g.brics`, `brics topk --artifact
                     g.brics 10`); answers are bit-identical to a fresh
                     prepare of the recorded source. CSR sections are
                     memory-mapped and served in place (no
                     deserialization); header, section table and
                     per-section checksums are verified up front, so a
                     corrupt or truncated file is an input error
                     (exit 3). The run report names the loaded file's
                     version/checksum/source under `artifact`.

PERFORMANCE (farness, compare, topk):
  --kernel K         BFS kernel: `auto` (default; direction-optimizing
                     with stock heuristics, batching 64+ sources through
                     the bit-parallel engine), `hybrid` (direction-
                     optimizing, never batched), `topdown` (classic
                     frontier expansion) or `msbfs` (force bit-parallel
                     multi-source batches). Distances — and hence every
                     estimate — are identical across kernels; only wall
                     time differs.
  --reorder          Relabel vertices by descending degree before the
                     run (farness, compare and topk). Improves locality
                     on scale-free graphs; output is translated back to
                     original ids.
  --topk-prune MODE  `on` (default) cuts each topk verification BFS as
                     soon as a per-level lower bound on its farness
                     exceeds the current k-th best; `off` is the full-
                     sweep fallback. The ranking is identical either
                     way (cut sweeps land in `topk_pruned_bfs` /
                     `topk_cut_levels` and the `cut_depth` histogram).

EXECUTION LIMITS (farness, compare, topk, betweenness):
  --timeout SECS     Wall-clock budget. When it expires mid-run, already
                     completed BFS sources are kept: `farness` and
                     `betweenness` print the sound partial estimate and
                     exit 4; `topk` and `--method exact` refuse (they
                     promise exact answers) and exit 4 with no output.
  --max-mem-mb N     Refuse up-front (exit 3) if the run's dominant
                     allocations would exceed N MiB. Once a run is
                     admitted, the tracking allocator keeps policing it:
                     live heap growing more than N MiB past the admission
                     baseline stops the run cooperatively at the next
                     per-level/per-batch checkpoint — partial results are
                     kept and the run exits 4 (`memory-limit`), with a
                     `memory_limit` event in the report.

ROBUSTNESS (farness, compare):
  --degrade [RATE]   Arm the graceful-degradation ladder. When the run
                     trips mid-query (worker panic, memory denial,
                     deadline on an all-or-nothing computation) the
                     command answers anyway, walking: the requested
                     estimate (with panicked BFS sources quarantined and
                     retried) → sampling at RATE (default 0.1) on the
                     same prepared artifact → the already-accumulated
                     partial lower bounds. A degraded answer exits 6 and
                     the run report names the answering rung; a fully
                     recovered run is bit-identical to a fault-free one
                     and exits 0.
  --fault SPECS      Deterministic fault injection for testing:
                     comma-separated `site=kind[@trigger]` arms. Sites:
                     reduce.rule, bct.build, bfs.source, bfs.level,
                     estimate.phase_b, io.read, io.artifact,
                     alloc.admit. Kinds:
                     panic, slow, deadline-expire, mem-deny, io-error.
                     Triggers: nth:N (default nth:1), every:K,
                     prob:PERMILLE[:SEED], on:ARG. Hit/fired counts per
                     site land in the run report's `faults_injected`.

TELEMETRY (every command):
  --metrics PATH     Write a machine-readable run report — JSON with the
                     stable schema `brics.run_report/v3`: per-phase
                     wall-time spans with per-span heap footprints,
                     kernel/reduction counters (BFS sources, edges
                     scanned/MTEPS, per-rule removals, BCT shape),
                     p50/p90/p99/max latency histograms (per-source BFS
                     time, frontier sizes, per-level and per-query time),
                     a `memory` block (live/peak bytes from the tracking
                     allocator, planned vs observed-peak plan accuracy)
                     and execution events (deadline hits, cancellations,
                     memory overruns, isolated panics). PATH `-` prints
                     the report to stdout. Interrupted runs still report.
                     (v2 reports had no `memory` block or per-span heap
                     fields; v1 additionally lacked `histograms` and
                     rated `mteps` against whole-run time — now reported
                     as `whole_run_mteps`. v3 readers accept both.)
  --metrics-summary  Print a human-readable phase/counter table to stderr.
  --trace PATH       Write a Chrome trace-event JSON timeline — open it in
                     Perfetto (ui.perfetto.dev) or chrome://tracing. Spans
                     nest prepare → reduce and estimate → per-batch →
                     per-source → per-level, with thread ids.
  --progress [SECS]  Live heartbeat to stderr every SECS (default 1):
                     sources done/planned, current MTEPS, ETA, reduction
                     rounds. If no counter advances for --stall-after
                     SECS (default 10) a stall warning reports whether
                     execution limits already tripped.

EXIT CODES:
  0  success
  2  usage error (unknown command/flag value, missing argument)
  3  input/data error (unreadable file, parse failure, memory budget)
  4  interrupted by --timeout or cancellation (partial result printed
     where the method supports it)
  5  internal error (worker panic)
  6  degraded (--degrade): a fault tripped the run and a lower ladder
     rung answered; the printed estimate is a sound lower bound

Graph files: SNAP edge lists (default), MatrixMarket (.mtx), or METIS
(.graph/.metis). Disconnected inputs are connected by linking components
(paper §IV-B); pass --giant to keep only the largest component instead.
";

/// Entry point used by `main` (and by the CLI's integration tests).
pub fn dispatch(argv: &[String]) -> Result<(), CliError> {
    let parsed = parse(argv).map_err(CliError::Usage)?;
    match parsed.positional.first().map(String::as_str) {
        Some("stats") => stats(&parsed),
        Some("prepare") => prepare(&parsed),
        Some("farness") => farness(&parsed),
        Some("compare") => compare(&parsed),
        Some("topk") => topk(&parsed),
        Some("betweenness") => betweenness(&parsed),
        Some("generate") => generate(&parsed),
        Some("report") => crate::report::report(&parsed),
        Some("help") | None => {
            print!("{HELP}");
            Ok(())
        }
        Some(other) => Err(CliError::Usage(format!("unknown command '{other}' (try `brics help`)"))),
    }
}

fn usage(msg: &str) -> CliError {
    CliError::Usage(msg.to_string())
}

/// Builds the [`RunControl`] from `--timeout` / `--max-mem-mb`.
fn control_from(p: &Parsed) -> Result<RunControl, CliError> {
    let mut ctl = RunControl::new();
    if p.has("timeout") {
        let secs: f64 = p.get_parse("timeout", 0.0).map_err(CliError::Usage)?;
        if !secs.is_finite() || secs < 0.0 {
            return Err(CliError::Usage(format!("--timeout {secs}: must be a finite non-negative number of seconds")));
        }
        ctl = ctl.with_timeout(std::time::Duration::from_secs_f64(secs));
    }
    if p.has("max-mem-mb") {
        let mb: u64 = p.get_parse("max-mem-mb", 0).map_err(CliError::Usage)?;
        ctl = ctl.with_memory_budget_mb(mb);
    }
    if let Some(specs) = p.get("fault") {
        let plan = FaultPlan::parse(specs)
            .map_err(|e| CliError::Usage(format!("--fault {specs}: {e}")))?;
        ctl = ctl.with_fault_plan(plan);
    }
    Ok(ctl)
}

/// Builds the [`DegradationPolicy`] from `--degrade [RATE]`, or `None`
/// when the flag is absent.
fn degradation_from(p: &Parsed) -> Result<Option<DegradationPolicy>, CliError> {
    if !p.has("degrade") {
        return Ok(None);
    }
    let mut policy = DegradationPolicy::default();
    if let Some(v) = p.get("degrade").filter(|v| !v.is_empty()) {
        policy = policy.with_fallback_rate(parse_rate("degrade", v)?);
    }
    Ok(Some(policy))
}

/// Parses a sampling rate, which must lie in `(0, 1]`; `flag` names the
/// option in the usage error.
fn parse_rate(flag: &str, v: &str) -> Result<f64, CliError> {
    let rate: f64 =
        v.trim().parse().map_err(|e| CliError::Usage(format!("--{flag} '{v}': {e}")))?;
    if rate.is_finite() && rate > 0.0 && rate <= 1.0 {
        Ok(rate)
    } else {
        Err(CliError::Usage(format!("--{flag} {rate}: must be in (0, 1]")))
    }
}

/// The `--rate` option, or `default` when absent.
fn rate_from(p: &Parsed, default: f64) -> Result<f64, CliError> {
    p.get("rate").map_or(Ok(default), |v| parse_rate("rate", v))
}

/// The `io.read` failpoint: checked once per graph load, before the file
/// is touched. `io-error` and `panic` arms surface as an input error; a
/// `slow` arm just stalls inside [`RunControl::fault_apply`].
fn check_io_fault(ctl: &RunControl, path: &str) -> Result<(), CliError> {
    match ctl.fault_apply(FaultSite::IoRead, 0) {
        Some(FaultKind::IoError) | Some(FaultKind::Panic) => {
            Err(CliError::Input(format!("{path}: injected i/o error (io.read)")))
        }
        _ => Ok(()),
    }
}

/// Builds the [`KernelConfig`] from `--kernel`.
fn kernel_from(p: &Parsed) -> Result<KernelConfig, CliError> {
    match p.get("kernel") {
        None => Ok(KernelConfig::default()),
        Some(name) => {
            let kernel: Kernel = name.parse().map_err(CliError::Usage)?;
            Ok(KernelConfig::new(kernel))
        }
    }
}

/// Telemetry wiring from `--metrics <path|->`, `--metrics-summary`,
/// `--trace <path>` and `--progress [secs]`. The recorder is only built
/// when one of the flags is present, so unrecorded runs keep the library's
/// zero-overhead `NullRecorder` path (via the `Option<&RunRecorder>`
/// recorder impl) — and the trace buffer is only allocated under `--trace`
/// (`RunRecorder::with_trace`).
struct Metrics {
    rec: std::sync::Arc<RunRecorder>,
    out: Option<String>,
    summary: bool,
    trace: Option<String>,
    progress: Option<ProgressMeter>,
    /// The armed fault plan, if any — its per-site hit/fired counters are
    /// stamped into the report at emit time (the plan is shared with the
    /// control's copy, so the counts reflect the whole run).
    faults: Option<FaultPlan>,
    /// Degradation-ladder rungs walked by the command, stamped into the
    /// report's `degradation_path`. Interior-mutable because the commands
    /// hold the `Metrics` immutably next to the recorder `Arc`.
    degradation_path: std::cell::RefCell<Vec<String>>,
    /// Identity of the prepared-graph artifact the command wrote
    /// (`prepare`) or loaded (`--artifact`), stamped into the report's
    /// `artifact` block at emit time.
    artifact: std::cell::RefCell<Option<ArtifactProvenance>>,
    /// The run's planned query-scratch bytes (the admission figure from
    /// the [`brics::MemoryPlan`]), stamped into the report's `memory`
    /// block at emit time for the plan-vs-actual accuracy ratio. Zero
    /// when the command never planned (help, generate, report).
    planned_bytes: std::cell::Cell<u64>,
}

fn metrics_from(p: &Parsed, ctl: &RunControl) -> Result<Option<Metrics>, CliError> {
    let out = p
        .get("metrics")
        .map(|v| if v.is_empty() { "-".to_string() } else { v.to_string() });
    let summary = p.has("metrics-summary");
    let trace = match p.get("trace") {
        Some("") => return Err(usage("--trace needs a file path")),
        Some(path) => Some(path.to_string()),
        None => None,
    };
    let progress = p.has("progress");
    if out.is_none() && !summary && trace.is_none() && !progress {
        return Ok(None);
    }
    let rec = std::sync::Arc::new(if trace.is_some() {
        RunRecorder::with_trace()
    } else {
        RunRecorder::new()
    });
    let progress = progress
        .then(|| -> Result<ProgressMeter, CliError> {
            let mut cfg = ProgressConfig::default();
            if let Some(v) = p.get("progress").filter(|v| !v.is_empty()) {
                let secs: f64 = v
                    .parse()
                    .map_err(|e| CliError::Usage(format!("--progress {v}: {e}")))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(CliError::Usage(format!(
                        "--progress {secs}: must be a positive number of seconds"
                    )));
                }
                cfg.interval = std::time::Duration::from_secs_f64(secs);
            }
            if let Some(v) = p.get("stall-after").filter(|v| !v.is_empty()) {
                let secs: f64 = v
                    .parse()
                    .map_err(|e| CliError::Usage(format!("--stall-after {v}: {e}")))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(CliError::Usage(format!(
                        "--stall-after {secs}: must be a positive number of seconds"
                    )));
                }
                cfg.stall_after = std::time::Duration::from_secs_f64(secs);
            }
            Ok(ProgressMeter::start(rec.clone(), ctl.clone(), cfg))
        })
        .transpose()?;
    Ok(Some(Metrics {
        rec,
        out,
        summary,
        trace,
        progress,
        faults: ctl.fault_plan().cloned(),
        degradation_path: std::cell::RefCell::new(Vec::new()),
        artifact: std::cell::RefCell::new(None),
        planned_bytes: std::cell::Cell::new(0),
    }))
}

/// Stamps the run's planned query-scratch bytes for the report's
/// plan-vs-actual block (no-op without telemetry). Commands that run
/// several estimates (`compare`) keep the largest figure — the plan is a
/// per-query envelope, not a sum.
fn note_planned_bytes(m: &Option<Metrics>, bytes: u64) {
    if let Some(m) = m {
        m.planned_bytes.set(m.planned_bytes.get().max(bytes));
    }
}

/// Records the ladder walk for the run report (no-op without telemetry).
fn note_degradation_path(m: &Option<Metrics>, path: &[String]) {
    if let Some(m) = m {
        m.degradation_path.borrow_mut().extend_from_slice(path);
    }
}

/// The `--artifact FILE` flag shared by `farness`/`compare`/`topk`:
/// queries start from a prepared-graph artifact written by `brics
/// prepare` instead of reading and re-preparing a graph file, and FILE
/// takes the place of the `<graph>` argument.
fn artifact_from(p: &Parsed) -> Result<Option<String>, CliError> {
    match p.get("artifact") {
        Some("") => Err(usage("--artifact needs a file path")),
        Some(f) => Ok(Some(f.to_string())),
        None => Ok(None),
    }
}

/// Stamps the artifact's identity into the run report (no-op without
/// telemetry).
fn note_artifact(m: &Option<Metrics>, info: &ArtifactInfo) {
    if let Some(m) = m {
        *m.artifact.borrow_mut() = Some(ArtifactProvenance {
            version: info.version,
            checksum: format!("{:016x}", info.checksum),
            source: info.source.clone(),
        });
    }
}

/// Loads a prepared-graph artifact for a query command: integrity is
/// verified up front (a corrupt or truncated file surfaces as
/// [`CentralityError::Artifact`] → exit 3), provenance is stamped into
/// the run report, and a note says where the prepared state came from.
fn load_artifact<R: Recorder>(
    file: &str,
    m: &Option<Metrics>,
    ctx: &ExecutionContext<'_, R>,
) -> Result<PreparedGraph<'static>, CentralityError> {
    let (prepared, info) = PreparedGraph::load(Path::new(file), ctx)?;
    note_artifact(m, &info);
    eprintln!(
        "note: loaded prepared artifact {file} ({} bytes, checksum {:016x}, prepared from {})",
        info.bytes, info.checksum, info.source
    );
    Ok(prepared)
}

/// Emits the collected telemetry: stops the progress heartbeat (printing
/// its final line), writes the JSON run report to the `--metrics` target
/// and the Chrome trace to the `--trace` target, and/or prints the summary
/// table to stderr. Call *before* converting a partial outcome into a
/// non-zero exit so interrupted runs still report their telemetry.
fn emit_metrics(m: &Option<Metrics>) -> Result<(), CliError> {
    let Some(m) = m else { return Ok(()) };
    if let Some(meter) = &m.progress {
        meter.stop();
    }
    if let Some(plan) = &m.faults {
        m.rec.add(Counter::FaultsInjected, plan.total_fired());
    }
    let mut report = m.rec.report();
    if let Some(plan) = &m.faults {
        report.faults_injected = plan
            .site_records()
            .iter()
            .map(|s| FaultSiteRecord { site: s.site.to_string(), hits: s.hits, fired: s.fired })
            .collect();
    }
    report.degradation_path = m.degradation_path.borrow().clone();
    report.artifact = m.artifact.borrow().clone();
    report.stamp_planned_bytes(m.planned_bytes.get());
    if let Some(target) = &m.out {
        let json = serde_json::to_string_pretty(&report)
            .map_err(|e| CliError::Internal(format!("serializing run report: {e}")))?;
        if target == "-" {
            println!("{json}");
        } else {
            std::fs::write(target, json + "
")
                .map_err(|e| CliError::Input(format!("{target}: {e}")))?;
        }
    }
    if let Some(target) = &m.trace {
        let dropped = m.rec.trace_dropped();
        if dropped > 0 {
            eprintln!("note: trace buffer filled — {dropped} spans were dropped");
        }
        std::fs::write(target, m.rec.chrome_trace_json() + "\n")
            .map_err(|e| CliError::Input(format!("{target}: {e}")))?;
    }
    if m.summary {
        eprint!("{}", report.summary_table());
    }
    Ok(())
}

fn outcome_name(o: RunOutcome) -> &'static str {
    match o {
        RunOutcome::Complete => "complete",
        RunOutcome::Deadline => "deadline",
        RunOutcome::Cancelled => "cancelled",
        RunOutcome::MemoryLimit => "memory-limit",
        RunOutcome::Degraded => "degraded",
    }
}

fn load_graph_with(path: &str, giant: bool) -> Result<CsrGraph, CliError> {
    let g = if path.ends_with(".mtx") {
        read_mtx(path).map_err(|e| CliError::Input(format!("{path}: {e}")))?
    } else if path.ends_with(".graph") || path.ends_with(".metis") {
        read_metis(path).map_err(|e| CliError::Input(format!("{path}: {e}")))?
    } else {
        read_edge_list(path).map_err(|e| CliError::Input(format!("{path}: {e}")))?
    };
    if g.num_nodes() == 0 {
        return Err(CliError::Input(format!("{path}: empty graph")));
    }
    if is_connected(&g) {
        Ok(g)
    } else if giant {
        let sub = brics_graph::connectivity::largest_component(&g);
        eprintln!(
            "note: input was disconnected; kept the largest component ({} of {} \
             vertices; ids remapped)",
            sub.len(),
            g.num_nodes()
        );
        Ok(sub.graph)
    } else {
        let (g2, added) = make_connected(&g);
        eprintln!(
            "note: input was disconnected; added {added} linking edges (paper §IV-B); \
             pass --giant to keep only the largest component instead"
        );
        Ok(g2)
    }
}

fn stats(p: &Parsed) -> Result<(), CliError> {
    let path = p.positional.get(1).ok_or_else(|| usage("usage: brics stats <graph>"))?;
    let m = metrics_from(p, &RunControl::new())?;
    let rec = m.as_ref().map(|mm| mm.rec.as_ref());
    let g = load_graph_with(path, p.has("giant"))?;
    let d = degree_stats(&g);
    let red = reduce_ctl_rec(&g, &ReductionConfig::all(), &RunControl::new(), &rec)
        .expect("unbounded control cannot be interrupted");
    let bi = timed(&rec, "bct.build", || biconnected_components(&g));
    if rec.enabled() {
        rec.add(Counter::BctBlocks, bi.blocks.len() as u64);
        rec.add(Counter::BctCutVertices, bi.is_cut.iter().filter(|&&c| c).count() as u64);
    }
    println!("graph            {path}");
    println!("vertices         {}", d.num_nodes);
    println!("edges            {}", d.num_edges);
    println!("degree           min {} max {} mean {:.2}", d.min, d.max, d.mean);
    println!(
        "deg<=2 fraction  {:.1}% (deg1 {}, deg2 {})",
        100.0 * d.low_degree_fraction(),
        d.deg1,
        d.deg2
    );
    println!("identical nodes  {}", red.stats.identical_nodes);
    println!("identical chains {}", red.stats.identical_chain_nodes);
    println!("chain nodes      {}", red.stats.chain_nodes);
    println!("redundant nodes  {}", red.stats.redundant_nodes);
    println!("contracted nodes {}", red.stats.contracted_chain_nodes);
    println!(
        "reduced graph    {} vertices, {} edges ({:.1}% of original vertices)",
        red.stats.surviving_nodes,
        red.stats.surviving_edges,
        100.0 * red.stats.surviving_nodes as f64 / d.num_nodes as f64
    );
    println!(
        "biconnected      {} blocks, largest {}, avg {:.1}",
        bi.blocks.len(),
        bi.max_block_len(),
        bi.avg_block_len()
    );
    let db = brics_graph::eccentricity::diameter_bounds(&g, 0, 16);
    if db.lower == db.upper {
        println!("diameter         {} ({} BFS runs)", db.lower, db.bfs_runs);
    } else {
        println!(
            "diameter         in [{}, {}] ({} BFS runs)",
            db.lower, db.upper, db.bfs_runs
        );
    }
    emit_metrics(&m)?;
    Ok(())
}

/// `brics prepare` — run the prepare stage once and persist it as a
/// binary artifact. Queries replay through `--artifact` with
/// bit-identical answers and no `reduce` span in their run reports.
fn prepare(p: &Parsed) -> Result<(), CliError> {
    let path =
        p.positional.get(1).ok_or_else(|| usage("usage: brics prepare <graph> <artifact>"))?;
    let out =
        p.positional.get(2).ok_or_else(|| usage("usage: brics prepare <graph> <artifact>"))?;
    let ctl = control_from(p)?; // before load: --timeout bounds the command
    let kcfg = kernel_from(p)?;
    let method_name = p.get("method").unwrap_or("cumulative");
    let pcfg = prepare_config_of(method_name, p.has("reorder"))?;
    let m = metrics_from(p, &ctl)?;
    let rec = m.as_ref().map(|mm| mm.rec.as_ref());
    if let Err(e) = check_io_fault(&ctl, path) {
        let _ = emit_metrics(&m);
        return Err(e);
    }
    let g = load_graph_with(path, p.has("giant"))?;
    let ctx =
        ExecutionContext::new().with_control(ctl).with_kernel(kcfg).with_recorder(&rec);
    let prepared = match PreparedGraph::build_with(&g, pcfg, &ctx) {
        Ok(prepared) => prepared,
        Err(e) => {
            let _ = emit_metrics(&m);
            return Err(e.into());
        }
    };
    eprintln!(
        "note: prepared '{method_name}' in {:.3}s — {} of {} vertices survive the reduction",
        prepared.prepare_elapsed().as_secs_f64(),
        prepared.num_surviving(),
        g.num_nodes(),
    );
    let info = match prepared.save(Path::new(out), path, &ctx) {
        Ok(info) => info,
        Err(e) => {
            let _ = emit_metrics(&m);
            return Err(e.into());
        }
    };
    note_artifact(&m, &info);
    eprintln!(
        "note: wrote {out} ({} bytes, container v{}, checksum {:016x})",
        info.bytes, info.version, info.checksum
    );
    emit_metrics(&m)?;
    Ok(())
}

/// Maps a `farness --method` name onto the prepare stage it needs: no
/// reduction for the baselines, the paper's ablation configs for C+R and
/// I+C+R, and the full reduction + Block-Cut Tree for Cumulative.
fn prepare_config_of(name: &str, reorder: bool) -> Result<PrepareConfig, CliError> {
    let (reductions, use_bcc) = match name {
        "exact" | "random" => (brics::ReductionConfig::none(), false),
        "cr" => (brics::ReductionConfig::cr(), false),
        "icr" => (brics::ReductionConfig::icr(), false),
        "cumulative" => (brics::ReductionConfig::all(), true),
        other => return Err(CliError::Usage(format!("unknown method '{other}'"))),
    };
    Ok(PrepareConfig { reductions, use_bcc, reorder })
}

/// One farness result set, ready for printing: per-vertex values plus the
/// run bookkeeping the output and the exit code are derived from.
struct Rows {
    values: Vec<u64>,
    sampled: Vec<bool>,
    coverage: Vec<u32>,
    label: String,
    num_sources: usize,
    outcome: RunOutcome,
    degraded: bool,
}

/// Streams the farness table (or JSON document) to stdout. Streamed +
/// buffered: the document can cover half a million vertices, and on a
/// timed-out run the printing happens *after* the deadline — building one
/// giant `Value` tree (or a syscall per line) would add seconds past the
/// budget for no benefit.
fn print_farness_rows(p: &Parsed, path: &str, rows: &Rows, top: usize) {
    let order: Vec<u32> = {
        let mut idx: Vec<u32> = (0..rows.values.len() as u32).collect();
        if top > 0 {
            idx.sort_by_key(|&v| (rows.values[v as usize], v));
            idx.truncate(top);
        }
        idx
    };
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::io::stdout().lock());
    if p.has("json") {
        writeln!(w, "{{").unwrap();
        writeln!(w, "  \"graph\": {},", serde_json::to_string(&path).unwrap()).unwrap();
        writeln!(w, "  \"method\": {},", serde_json::to_string(&rows.label).unwrap()).unwrap();
        writeln!(w, "  \"outcome\": \"{}\",", outcome_name(rows.outcome)).unwrap();
        writeln!(w, "  \"num_sources\": {},", rows.num_sources).unwrap();
        writeln!(w, "  \"vertices\": [").unwrap();
        for (i, &v) in order.iter().enumerate() {
            let f = rows.values[v as usize];
            let c = if f == 0 { 0.0 } else { 1.0 / f as f64 };
            writeln!(
                w,
                "    {{\"id\": {v}, \"farness\": {f}, \"closeness\": {}, \
                 \"coverage\": {}, \"exact\": {}}}{}",
                serde_json::to_string(&c).unwrap(),
                rows.coverage[v as usize],
                rows.sampled[v as usize],
                if i + 1 == order.len() { "" } else { "," },
            )
            .unwrap();
        }
        writeln!(w, "  ]").unwrap();
        writeln!(w, "}}").unwrap();
    } else {
        writeln!(w, "# vertex  farness  closeness  exact").unwrap();
        for &v in &order {
            let f = rows.values[v as usize];
            let c = if f == 0 { 0.0 } else { 1.0 / f as f64 };
            writeln!(w, "{v} {f} {c:.3e} {}", rows.sampled[v as usize]).unwrap();
        }
    }
    w.flush().unwrap();
}

/// The `--degrade` artifact-plus-ladder flow: build the configured
/// artifact (its prepare stage is already panic-isolated under an armed
/// policy), and if even that fails softly, fall back to a minimal build —
/// no reductions, no BCT, hence no memory admission — so the ladder still
/// has something to run against. Hard data errors propagate.
fn degraded_query<R: Recorder>(
    g: &CsrGraph,
    pcfg: PrepareConfig,
    request: &DegradedRequest,
    sample: SampleSize,
    seed: u64,
    ctx: &ExecutionContext<'_, R>,
) -> Result<brics::DegradedEstimate, CentralityError> {
    let (prepared, minimal_fallback) = degraded_prepare(g, pcfg, ctx)?;
    let mut d = run_degraded(&prepared, request, sample, seed, ctx)?;
    if minimal_fallback {
        d.path.insert(0, "prepare:minimal".to_string());
        d.degraded = true;
    }
    Ok(d)
}

/// The build half of [`degraded_query`], reusable when many queries share
/// one artifact (`compare`). Returns the artifact plus whether the
/// configured build failed softly and the minimal build stood in.
fn degraded_prepare<'g, R: Recorder>(
    g: &'g CsrGraph,
    pcfg: PrepareConfig,
    ctx: &ExecutionContext<'_, R>,
) -> Result<(PreparedGraph<'g>, bool), CentralityError> {
    match PreparedGraph::build_with(g, pcfg, ctx) {
        Ok(prepared) => Ok((prepared, false)),
        Err(
            e @ (CentralityError::EmptyGraph
            | CentralityError::Disconnected { .. }
            | CentralityError::NoSamples),
        ) => Err(e),
        Err(first) => {
            let minimal = PrepareConfig {
                reductions: brics::ReductionConfig::none(),
                use_bcc: false,
                reorder: false,
            };
            match PreparedGraph::build_with(g, minimal, ctx) {
                Ok(prepared) => Ok((prepared, true)),
                Err(CentralityError::Interrupted { outcome }) => {
                    Err(CentralityError::Interrupted { outcome })
                }
                Err(_) => Err(first),
            }
        }
    }
}

fn farness(p: &Parsed) -> Result<(), CliError> {
    let artifact = artifact_from(p)?;
    if artifact.is_some() && p.positional.get(1).is_some() {
        return Err(usage("farness takes either <graph> or --artifact, not both"));
    }
    let path = match &artifact {
        Some(a) => a.as_str(),
        None => p
            .positional
            .get(1)
            .map(String::as_str)
            .ok_or_else(|| usage("usage: brics farness <graph> [options]"))?,
    };
    // The control is built *before* loading so `--timeout` bounds the whole
    // command: a slow parse eats into the budget and the (uninterruptible)
    // load is followed by an immediate deadline check inside the engine.
    let ctl = control_from(p)?;
    let kcfg = kernel_from(p)?;
    let policy = degradation_from(p)?;
    let m = metrics_from(p, &ctl)?;
    let rec = m.as_ref().map(|mm| mm.rec.as_ref());
    if artifact.is_none() {
        if let Err(e) = check_io_fault(&ctl, path) {
            let _ = emit_metrics(&m);
            return Err(e);
        }
    }
    let loaded = match &artifact {
        Some(_) => None, // the prepared state comes from the artifact file
        None => Some(load_graph_with(path, p.has("giant"))?),
    };
    let rate = rate_from(p, 0.2)?;
    let seed: u64 = p.get_parse("seed", 0).map_err(CliError::Usage)?;
    let top: usize = p.get_parse("top", 0).map_err(CliError::Usage)?;
    let method_name = p.get("method").unwrap_or("cumulative");
    // --reorder becomes part of the prepare stage: queries traverse the
    // degree-sorted relabelling and the artifact translates every result
    // back, so ids in the output are always the input's ids.
    let pcfg = prepare_config_of(method_name, p.has("reorder"))?;
    if pcfg.reorder && artifact.is_none() {
        eprintln!("note: --reorder relabelled vertices by descending degree");
    }
    let mut ctx = ExecutionContext::new().with_control(ctl).with_kernel(kcfg);
    if let Some(policy) = policy {
        ctx = ctx.with_degradation(policy);
    }
    let ctx = ctx.with_recorder(&rec);
    // Artifact mode: ONE load (integrity-checked, mmap-backed) serves both
    // the degrade ladder and the plain query paths below.
    let from_artifact: Option<PreparedGraph<'static>> = match &artifact {
        Some(file) => match load_artifact(file, &m, &ctx) {
            Ok(prepared) => Some(prepared),
            Err(e) => {
                let _ = emit_metrics(&m);
                return Err(e.into());
            }
        },
        None => None,
    };
    let n = from_artifact.as_ref().map_or_else(
        || loaded.as_ref().expect("graph or artifact").num_nodes(),
        |prepared| prepared.original().num_nodes(),
    );
    // Plan-vs-actual: stamp the admission figure this query runs under, so
    // the report's memory block can rate observed peak against it.
    let plan = MemoryPlan::compute(n, ctx.thread_count());
    note_planned_bytes(
        &m,
        match method_name {
            "exact" => plan.exact_bytes,
            "random" | "cr" | "icr" => plan.accumulate_bytes,
            _ => plan.cumulative_bytes,
        },
    );

    if policy.is_some() {
        // --degrade: route through the quality ladder instead of the plain
        // query path. The ladder owns retries/fallbacks; the command's job
        // is artifact construction, output and the exit code.
        let request = match method_name {
            "exact" => DegradedRequest::Exact,
            "random" => DegradedRequest::Estimate(Method::RandomSampling),
            "cr" => DegradedRequest::Estimate(Method::CR),
            "icr" => DegradedRequest::Estimate(Method::ICR),
            _ => DegradedRequest::Estimate(Method::Cumulative),
        };
        let queried = match &from_artifact {
            Some(prepared) => {
                run_degraded(prepared, &request, SampleSize::Fraction(rate), seed, &ctx)
            }
            None => degraded_query(
                loaded.as_ref().expect("graph loaded"),
                pcfg,
                &request,
                SampleSize::Fraction(rate),
                seed,
                &ctx,
            ),
        };
        let (rows, answered_by) =
            match queried {
                Ok(d) => {
                    note_degradation_path(&m, &d.path);
                    eprintln!(
                        "note: {} sources, {:.3}s — answered by {} (path: {}; \
                         {} retries, {} quarantined)",
                        d.estimate.num_sources(),
                        d.estimate.elapsed().as_secs_f64(),
                        d.answered_by,
                        d.path.join(" -> "),
                        d.retries,
                        d.quarantined,
                    );
                    let rows = Rows {
                        values: d.estimate.raw().to_vec(),
                        sampled: d.estimate.sampled_mask().to_vec(),
                        coverage: d.estimate.coverage().to_vec(),
                        label: method_name.into(),
                        num_sources: d.estimate.num_sources(),
                        outcome: d.estimate.outcome(),
                        degraded: d.degraded,
                    };
                    (rows, d.answered_by)
                }
                // Not even the minimal prepare could start (expired
                // deadline): the trivial zero-coverage partial is still a
                // sound answer — print it, exactly like the plain path.
                Err(CentralityError::Interrupted { outcome }) => {
                    let answered = "partial-lower-bounds".to_string();
                    note_degradation_path(&m, std::slice::from_ref(&answered));
                    let rows = Rows {
                        values: vec![0; n],
                        sampled: vec![false; n],
                        coverage: vec![0; n],
                        label: method_name.into(),
                        num_sources: 0,
                        outcome,
                        degraded: true,
                    };
                    (rows, answered)
                }
                Err(e) => {
                    let _ = emit_metrics(&m);
                    return Err(e.into());
                }
            };
        print_farness_rows(p, path, &rows, top);
        emit_metrics(&m)?;
        if rows.outcome.is_interrupted() {
            return Err(CliError::TimeoutPartial(format!(
                "{} interrupted the run after {} completed sources; the printed \
                 estimate is a sound partial lower bound",
                outcome_name(rows.outcome),
                rows.num_sources
            )));
        }
        if rows.degraded {
            return Err(CliError::Degraded(format!(
                "answered by the '{answered_by}' rung instead of the requested \
                 '{method_name}' estimate; the printed values are sound lower bounds"
            )));
        }
        return Ok(());
    }

    let built = match from_artifact {
        Some(prepared) => Ok(prepared),
        None => PreparedGraph::build_with(loaded.as_ref().expect("graph loaded"), pcfg, &ctx),
    };
    let rows = match built {
        // The prepare stage itself was cut short before any source could
        // run: report the trivial (but sound) zero-coverage partial, exactly
        // as an interrupted estimation does. Exact refuses below instead.
        Err(CentralityError::Interrupted { outcome }) if method_name != "exact" => Rows {
            values: vec![0; n],
            sampled: vec![false; n],
            coverage: vec![0; n],
            label: method_name.into(),
            num_sources: 0,
            outcome,
            degraded: false,
        },
        Err(e) => {
            let _ = emit_metrics(&m);
            return Err(e.into());
        }
        Ok(prepared) if method_name == "exact" => {
            // Exact computation is all-or-nothing: an expired --timeout
            // comes back as `CentralityError::Interrupted` (exit 4, no
            // output — but the collected telemetry still reports).
            match prepared.exact(&ctx) {
                Ok(f) => Rows {
                    values: f,
                    sampled: vec![true; n],
                    coverage: vec![(n as u32).saturating_sub(1); n],
                    label: "exact".into(),
                    num_sources: n,
                    outcome: RunOutcome::Complete,
                    degraded: false,
                },
                Err(e) => {
                    let _ = emit_metrics(&m);
                    return Err(e.into());
                }
            }
        }
        Ok(prepared) => {
            let sample = SampleSize::Fraction(rate);
            let est = match method_name {
                "random" => prepared.sample(sample, seed, &ctx),
                "cumulative" => prepared.cumulative(sample, seed, &ctx),
                _ => prepared.reduced(sample, seed, &ctx),
            };
            let est = match est {
                Ok(est) => est,
                Err(e) => {
                    let _ = emit_metrics(&m);
                    return Err(e.into());
                }
            };
            let partial_note = if est.is_partial() {
                format!(" — PARTIAL ({})", outcome_name(est.outcome()))
            } else {
                String::new()
            };
            eprintln!(
                "note: {} sources, {:.3}s{partial_note}",
                est.num_sources(),
                est.elapsed().as_secs_f64()
            );
            Rows {
                values: est.raw().to_vec(),
                sampled: est.sampled_mask().to_vec(),
                coverage: est.coverage().to_vec(),
                label: method_name.into(),
                num_sources: est.num_sources(),
                outcome: est.outcome(),
                degraded: false,
            }
        }
    };

    print_farness_rows(p, path, &rows, top);
    emit_metrics(&m)?;
    if !rows.outcome.is_complete() {
        // The partial (but sound) estimate went to stdout above; the exit
        // code still has to tell scripts the run was cut short.
        return Err(CliError::TimeoutPartial(format!(
            "{} interrupted the run after {} completed sources; the printed \
             estimate is a sound partial lower bound",
            outcome_name(rows.outcome),
            rows.num_sources
        )));
    }
    Ok(())
}

/// `brics compare` — the amortization flow the two-stage engine exists
/// for: ONE `PreparedGraph` (full reductions + Block-Cut Tree) serves
/// every requested method at every sampling rate. With `--metrics` the
/// report shows a single `reduce` span with `count == 1` no matter how
/// many estimates ran.
fn compare(p: &Parsed) -> Result<(), CliError> {
    let artifact = artifact_from(p)?;
    if artifact.is_some() && p.positional.get(1).is_some() {
        return Err(usage("compare takes either <graph> or --artifact, not both"));
    }
    let path = match &artifact {
        Some(a) => a.as_str(),
        None => p
            .positional
            .get(1)
            .map(String::as_str)
            .ok_or_else(|| usage("usage: brics compare <graph> [options]"))?,
    };
    let ctl = control_from(p)?; // before load: --timeout bounds the command
    let kcfg = kernel_from(p)?;
    let policy = degradation_from(p)?;
    let m = metrics_from(p, &ctl)?;
    let rec = m.as_ref().map(|mm| mm.rec.as_ref());
    if artifact.is_none() {
        if let Err(e) = check_io_fault(&ctl, path) {
            let _ = emit_metrics(&m);
            return Err(e);
        }
    }
    let g = match &artifact {
        Some(_) => None, // the prepared state comes from the artifact file
        None => Some(load_graph_with(path, p.has("giant"))?),
    };
    let seed: u64 = p.get_parse("seed", 0).map_err(CliError::Usage)?;

    let rates: Vec<f64> = p
        .get("rates")
        .unwrap_or("0.1,0.2,0.3")
        .split(',')
        .map(|v| parse_rate("rates", v))
        .collect::<Result<_, _>>()?;
    let methods: Vec<String> = p
        .get("methods")
        .unwrap_or("random,reduced,cumulative")
        .split(',')
        .map(|s| {
            let name = s.trim();
            match name {
                "random" | "reduced" | "cumulative" => Ok(name.to_string()),
                other => Err(CliError::Usage(format!(
                    "unknown compare method '{other}' (expected random, reduced or cumulative)"
                ))),
            }
        })
        .collect::<Result<_, _>>()?;
    if rates.is_empty() || methods.is_empty() {
        return Err(usage("compare needs at least one method and one rate"));
    }

    let mut ctx = ExecutionContext::new().with_control(ctl).with_kernel(kcfg);
    if let Some(policy) = policy {
        ctx = ctx.with_degradation(policy);
    }
    let ctx = ctx.with_recorder(&rec);
    let pcfg = PrepareConfig {
        reductions: brics::ReductionConfig::all(),
        use_bcc: true,
        reorder: p.has("reorder"),
    };
    let build = match &artifact {
        Some(file) => load_artifact(file, &m, &ctx).map(|prepared| (prepared, false)),
        None if policy.is_some() => degraded_prepare(g.as_ref().expect("graph loaded"), pcfg, &ctx),
        None => PreparedGraph::build_with(g.as_ref().expect("graph loaded"), pcfg, &ctx)
            .map(|prepared| (prepared, false)),
    };
    let (prepared, minimal_fallback) = match build {
        Ok(t) => t,
        Err(e) => {
            let _ = emit_metrics(&m);
            return Err(e.into());
        }
    };
    let n = g.as_ref().map_or_else(|| prepared.original().num_nodes(), CsrGraph::num_nodes);
    // The comparison's planned figure is the widest single query: the plan
    // is a per-query envelope (queries run one after another), not a sum.
    let plan = MemoryPlan::compute(n, ctx.thread_count());
    for method in &methods {
        note_planned_bytes(
            &m,
            match method.as_str() {
                "random" | "reduced" => plan.accumulate_bytes,
                _ => plan.cumulative_bytes,
            },
        );
    }
    if p.has("exact") {
        note_planned_bytes(&m, plan.exact_bytes);
    }
    let mut any_degraded = minimal_fallback || !prepared.prepare_degradation().is_empty();
    if minimal_fallback {
        note_degradation_path(&m, &["prepare:minimal".to_string()]);
        eprintln!("note: configured prepare failed; queries run on a minimal artifact");
    }
    note_degradation_path(&m, prepared.prepare_degradation());
    eprintln!(
        "note: prepared once in {:.3}s — {} of {} vertices survive the reduction; \
         {} estimates share the artifact",
        prepared.prepare_elapsed().as_secs_f64(),
        prepared.num_surviving(),
        n,
        methods.len() * rates.len(),
    );
    let exact = if p.has("exact") {
        match prepared.exact(&ctx) {
            Ok(x) => Some(x),
            Err(e) => {
                let _ = emit_metrics(&m);
                return Err(e.into());
            }
        }
    } else {
        None
    };

    struct Row {
        method: String,
        rate: f64,
        sources: usize,
        seconds: f64,
        quality: Option<f64>,
        outcome: RunOutcome,
    }
    let mut rows: Vec<Row> = Vec::with_capacity(methods.len() * rates.len());
    let mut worst = RunOutcome::Complete;
    for method in &methods {
        for &rate in &rates {
            let sample = SampleSize::Fraction(rate);
            let est = if policy.is_some() {
                // --degrade: every cell answers through the ladder against
                // the shared artifact; a faulted cell degrades alone
                // instead of failing the whole comparison.
                let request = match method.as_str() {
                    "random" => DegradedRequest::Estimate(Method::RandomSampling),
                    "reduced" => DegradedRequest::Estimate(Method::ICR),
                    _ => DegradedRequest::Estimate(Method::Cumulative),
                };
                run_degraded(&prepared, &request, sample, seed, &ctx).map(|d| {
                    if d.degraded {
                        any_degraded = true;
                        note_degradation_path(&m, &d.path);
                    }
                    d.estimate
                })
            } else {
                match method.as_str() {
                    "random" => prepared.sample(sample, seed, &ctx),
                    "reduced" => prepared.reduced(sample, seed, &ctx),
                    _ => prepared.cumulative(sample, seed, &ctx),
                }
            };
            let est = match est {
                Ok(est) => est,
                Err(e) => {
                    let _ = emit_metrics(&m);
                    return Err(e.into());
                }
            };
            worst = worst.merge(est.outcome());
            rows.push(Row {
                method: method.clone(),
                rate,
                sources: est.num_sources(),
                seconds: est.elapsed().as_secs_f64(),
                quality: exact
                    .as_ref()
                    .map(|x| brics::quality::symmetric_quality(est.scaled(), x)),
                outcome: est.outcome(),
            });
        }
    }

    if p.has("json") {
        let doc = serde_json::json!({
            "graph": path,
            "seed": seed,
            "prepare_seconds": prepared.prepare_elapsed().as_secs_f64(),
            "surviving_vertices": prepared.num_surviving(),
            "runs": rows.iter().map(|r| serde_json::json!({
                "method": r.method.clone(),
                "rate": r.rate,
                "sources": r.sources,
                "seconds": r.seconds,
                "quality": r.quality,
                "outcome": outcome_name(r.outcome),
            })).collect::<Vec<_>>(),
        });
        println!("{}", serde_json::to_string_pretty(&doc).unwrap());
    } else {
        println!("# method rate sources seconds quality outcome");
        for r in &rows {
            let q = r.quality.map_or("-".to_string(), |q| format!("{q:.4}"));
            println!(
                "{} {:.2} {} {:.4} {} {}",
                r.method,
                r.rate,
                r.sources,
                r.seconds,
                q,
                outcome_name(r.outcome)
            );
        }
    }
    emit_metrics(&m)?;
    if worst.is_interrupted() {
        return Err(CliError::TimeoutPartial(format!(
            "{} interrupted at least one estimate; the printed rows are sound partials",
            outcome_name(worst)
        )));
    }
    if any_degraded || worst == RunOutcome::Degraded {
        return Err(CliError::Degraded(
            "at least one estimate answered through a lower ladder rung; the printed \
             rows are sound lower bounds"
                .to_string(),
        ));
    }
    Ok(())
}

fn topk(p: &Parsed) -> Result<(), CliError> {
    let artifact = artifact_from(p)?;
    // --artifact replaces <graph>, so <k> shifts to the first positional.
    let (path, k_arg) = match &artifact {
        Some(a) => {
            if p.positional.get(2).is_some() {
                return Err(usage("topk takes either <graph> or --artifact, not both"));
            }
            let k = p
                .positional
                .get(1)
                .map(String::as_str)
                .ok_or_else(|| usage("usage: brics topk --artifact <file> <k>"))?;
            (a.as_str(), k)
        }
        None => (
            p.positional
                .get(1)
                .map(String::as_str)
                .ok_or_else(|| usage("usage: brics topk <graph> <k>"))?,
            p.positional
                .get(2)
                .map(String::as_str)
                .ok_or_else(|| usage("usage: brics topk <graph> <k>"))?,
        ),
    };
    let k: usize = k_arg.parse().map_err(|e| CliError::Usage(format!("bad k: {e}")))?;
    let ctl = control_from(p)?; // before load: --timeout bounds the command
    let kcfg = kernel_from(p)?;
    let prune = match p.get("topk-prune").unwrap_or("on") {
        "on" | "" => true,
        "off" => false,
        other => {
            return Err(CliError::Usage(format!("--topk-prune {other}: expected on|off")))
        }
    };
    let m = metrics_from(p, &ctl)?;
    let rec = m.as_ref().map(|mm| mm.rec.as_ref());
    if artifact.is_none() {
        if let Err(e) = check_io_fault(&ctl, path) {
            let _ = emit_metrics(&m);
            return Err(e);
        }
    }
    let g = match &artifact {
        Some(_) => None, // the prepared state comes from the artifact file
        None => Some(load_graph_with(path, p.has("giant"))?),
    };
    let rate = rate_from(p, 0.3)?;
    let seed: u64 = p.get_parse("seed", 0).map_err(CliError::Usage)?;
    // One prepared artifact (reduction + Block-Cut Tree built once, a
    // single `reduce` span) serves the estimate and the verification scan,
    // exactly like `farness`/`compare`; --reorder relabels inside it and
    // the ranking is translated back to input ids.
    let pcfg = prepare_config_of("cumulative", p.has("reorder"))?;
    if pcfg.reorder && artifact.is_none() {
        eprintln!("note: --reorder relabelled vertices by descending degree");
    }
    let ctx =
        ExecutionContext::new().with_control(ctl).with_kernel(kcfg).with_recorder(&rec);
    // Top-k promises exact answers, so interruption is an error (exit 4),
    // never a shorter/looser ranking. Emit whatever telemetry the run
    // collected before surfacing the error.
    let built = match &artifact {
        Some(file) => load_artifact(file, &m, &ctx),
        None => PreparedGraph::build_with(g.as_ref().expect("graph loaded"), pcfg, &ctx),
    };
    let (n, t) = match built.and_then(|prepared| {
        let n = prepared.original().num_nodes();
        prepared.topk_with(k, SampleSize::Fraction(rate), seed, prune, &ctx).map(|t| (n, t))
    }) {
        Ok(t) => t,
        Err(e) => {
            let _ = emit_metrics(&m);
            return Err(e.into());
        }
    };
    // Top-k runs the cumulative estimate plus verification sweeps, both
    // covered by the cumulative admission envelope.
    note_planned_bytes(&m, MemoryPlan::compute(n, ctx.thread_count()).cumulative_bytes);
    eprintln!(
        "note: {} pruned, {} cut mid-sweep, {} verified by BFS, {} for free (of {})",
        t.pruned,
        t.pruned_bfs,
        t.verified_with_bfs,
        t.verified_for_free,
        n
    );
    if p.has("json") {
        let doc = serde_json::json!({
            "graph": path,
            "k": k,
            "pruned": t.pruned,
            "pruned_bfs": t.pruned_bfs,
            "ranked": t.ranked.iter().map(|&(v, f)| serde_json::json!({
                "id": v, "farness": f,
                "closeness": if f == 0 { 0.0 } else { 1.0 / f as f64 },
            })).collect::<Vec<_>>(),
        });
        println!("{}", serde_json::to_string_pretty(&doc).unwrap());
    } else {
        println!("# rank vertex farness closeness (exact)");
        for (i, &(v, f)) in t.ranked.iter().enumerate() {
            let c = if f == 0 { 0.0 } else { 1.0 / f as f64 };
            println!("{} {v} {f} {c:.3e}", i + 1);
        }
    }
    emit_metrics(&m)?;
    Ok(())
}

fn betweenness(p: &Parsed) -> Result<(), CliError> {
    let path =
        p.positional.get(1).ok_or_else(|| usage("usage: brics betweenness <graph> [options]"))?;
    let ctl = control_from(p)?; // before load: --timeout bounds the command
    let m = metrics_from(p, &ctl)?;
    let rec = m.as_ref().map(|mm| mm.rec.as_ref());
    let g = load_graph_with(path, p.has("giant"))?;
    let top: usize = p.get_parse("top", 10).map_err(CliError::Usage)?;
    let (values, outcome) = if p.has("exact") {
        (
            timed(&rec, "estimate", || brics::betweenness::exact_betweenness(&g)),
            RunOutcome::Complete,
        )
    } else {
        let rate = rate_from(p, 0.3)?;
        let seed: u64 = p.get_parse("seed", 0).map_err(CliError::Usage)?;
        let ctx = ExecutionContext::new().with_control(ctl).with_recorder(&rec);
        match brics::betweenness::sampled_betweenness_in(&g, SampleSize::Fraction(rate), seed, &ctx)
        {
            Ok(r) => r,
            Err(e) => {
                let _ = emit_metrics(&m);
                return Err(e.into());
            }
        }
    };
    let mut idx: Vec<u32> = (0..values.len() as u32).collect();
    idx.sort_by(|&a, &b| {
        values[b as usize]
            .partial_cmp(&values[a as usize])
            .unwrap()
            .then(a.cmp(&b))
    });
    idx.truncate(top.max(1));
    println!("# rank vertex betweenness");
    for (i, &v) in idx.iter().enumerate() {
        println!("{} {v} {:.3}", i + 1, values[v as usize]);
    }
    emit_metrics(&m)?;
    if !outcome.is_complete() {
        return Err(CliError::TimeoutPartial(format!(
            "{} interrupted the run; the printed betweenness is the unbiased \
             estimate over the completed pivots",
            outcome_name(outcome)
        )));
    }
    Ok(())
}

fn generate(p: &Parsed) -> Result<(), CliError> {
    let class: GraphClass = p
        .positional
        .get(1)
        .ok_or_else(|| usage("usage: brics generate <class> <nodes>"))?
        .parse()
        .map_err(CliError::Usage)?;
    let nodes: usize = p
        .positional
        .get(2)
        .ok_or_else(|| usage("usage: brics generate <class> <nodes>"))?
        .parse()
        .map_err(|e| CliError::Usage(format!("bad node count: {e}")))?;
    let seed: u64 = p.get_parse("seed", 0).map_err(CliError::Usage)?;
    let m = metrics_from(p, &RunControl::new())?;
    let rec = m.as_ref().map(|mm| mm.rec.as_ref());
    let g = timed(&rec, "generate.build", || class.generate(ClassParams::new(nodes, seed)));
    eprintln!(
        "generated {} graph: {} vertices, {} edges (seed {seed})",
        class.name(),
        g.num_nodes(),
        g.num_edges()
    );
    match p.get("out") {
        Some(path) if path.ends_with(".mtx") => {
            write_mtx(&g, path).map_err(|e| CliError::Input(e.to_string()))?;
        }
        Some(path) if path.ends_with(".graph") || path.ends_with(".metis") => {
            write_metis(&g, path).map_err(|e| CliError::Input(e.to_string()))?;
        }
        Some(path) => {
            write_edge_list(&g, path).map_err(|e| CliError::Input(e.to_string()))?;
        }
        None => {
            brics_graph::io::write_edge_list_to(&g, std::io::stdout().lock())
                .map_err(|e| CliError::Input(e.to_string()))?;
        }
    }
    emit_metrics(&m)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<(), CliError> {
        dispatch(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("brics-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn help_and_unknown() {
        assert!(run(&["help"]).is_ok());
        assert!(run(&[]).is_ok());
        assert_eq!(run(&["frobnicate"]).unwrap_err().exit_code(), 2);
    }

    #[test]
    fn generate_stats_farness_roundtrip() {
        let path = tmp("road.el");
        run(&["generate", "road", "500", "--seed", "3", "--out", path.to_str().unwrap()])
            .unwrap();
        run(&["stats", path.to_str().unwrap()]).unwrap();
        run(&["farness", path.to_str().unwrap(), "--method", "cumulative", "--rate", "0.5",
              "--top", "5"])
            .unwrap();
        run(&["farness", path.to_str().unwrap(), "--method", "exact", "--top", "3", "--json"])
            .unwrap();
    }

    #[test]
    fn betweenness_subcommand() {
        let path = tmp("betw.el");
        run(&["generate", "social", "300", "--seed", "4", "--out", path.to_str().unwrap()])
            .unwrap();
        run(&["betweenness", path.to_str().unwrap(), "--top", "5"]).unwrap();
        run(&["betweenness", path.to_str().unwrap(), "--exact", "--top", "3"]).unwrap();
        assert!(run(&["betweenness"]).is_err());
    }

    #[test]
    fn topk_subcommand() {
        let path = tmp("comm.el");
        run(&["generate", "community", "400", "--seed", "2", "--out", path.to_str().unwrap()])
            .unwrap();
        run(&["topk", path.to_str().unwrap(), "5"]).unwrap();
        run(&["topk", path.to_str().unwrap(), "3", "--rate", "0.5", "--json"]).unwrap();
        assert!(run(&["topk", path.to_str().unwrap()]).is_err()); // missing k
        assert!(run(&["topk", path.to_str().unwrap(), "x"]).is_err());

        // A wheel on 7 vertices plus a separate triangle: linked into one
        // 10-vertex graph by default, cut down to the wheel by --giant —
        // which `topk` and `stats` must honour like `farness` does.
        let disc = tmp("disc.el");
        let wheel_and_triangle = "0 1\n0 2\n0 3\n0 4\n0 5\n0 6\n1 2\n2 3\n3 4\n4 5\n5 6\n6 1\n\
                                  7 8\n8 9\n9 7\n";
        std::fs::write(&disc, wheel_and_triangle).unwrap();
        let out = tmp("disc.json");
        let vertices = |args: &[&str]| {
            let mut args = args.to_vec();
            args.extend(["--metrics", out.to_str().unwrap()]);
            run(&args).unwrap();
            let report: brics::RunReport =
                serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
            // Every vertex the reduction saw either survived or was removed.
            report
                .counters
                .iter()
                .filter(|(name, _)| name.ends_with("_removed") || *name == "reduce_surviving_nodes")
                .map(|(_, &count)| count)
                .sum::<u64>()
        };
        let d = disc.to_str().unwrap();
        assert_eq!(vertices(&["topk", d, "2"]), 10);
        assert_eq!(vertices(&["topk", d, "2", "--giant"]), 7);
        assert_eq!(vertices(&["stats", d]), 10);
        assert_eq!(vertices(&["stats", d, "--giant"]), 7);
    }

    #[test]
    fn topk_prune_flag_validates_and_both_modes_run() {
        let path = tmp("topkprune.el");
        run(&["generate", "community", "400", "--seed", "2", "--out", path.to_str().unwrap()])
            .unwrap();
        run(&["topk", path.to_str().unwrap(), "4", "--topk-prune", "on"]).unwrap();
        run(&["topk", path.to_str().unwrap(), "4", "--topk-prune", "off", "--reorder"])
            .unwrap();
        assert_eq!(
            run(&["topk", path.to_str().unwrap(), "4", "--topk-prune", "maybe"])
                .unwrap_err()
                .exit_code(),
            2
        );
    }

    #[test]
    fn topk_goes_through_one_prepared_artifact() {
        // Regression for the amortization bypass: `topk` used to call
        // `top_k_closeness_in` directly, rebuilding the reduction and BCT
        // outside the engine's prepare span. Routed through
        // `PreparedGraph`, one invocation shows exactly one reduce and one
        // prepare phase, a separate estimate span, and the verify scan's
        // own span with its planned-sources figure.
        let path = tmp("topkamort.el");
        run(&["generate", "social", "400", "--seed", "6", "--out", path.to_str().unwrap()])
            .unwrap();
        let out = tmp("topkamort.json");
        run(&["topk", path.to_str().unwrap(), "5", "--metrics", out.to_str().unwrap()])
            .unwrap();
        let report: brics::RunReport =
            serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
        let reduce: Vec<_> = report.phases.iter().filter(|p| p.name == "reduce").collect();
        assert_eq!(reduce.len(), 1, "one aggregated reduce phase");
        assert_eq!(reduce[0].count, 1, "the reduction ran exactly once");
        let prepare = report.phases.iter().find(|p| p.name == "prepare").unwrap();
        assert_eq!(prepare.count, 1, "one prepare stage");
        let estimate = report.phases.iter().find(|p| p.name == "estimate").unwrap();
        assert_eq!(estimate.count, 1, "one estimate span, separate from prepare");
        assert!(report.phases.iter().any(|p| p.name == "topk.verify"), "verify span");
        assert!(report.counters["bfs_sources_planned"] > 0, "planned figure published");
    }

    #[test]
    fn prepare_then_artifact_queries_roundtrip() {
        let path = tmp("prep.el");
        run(&["generate", "social", "300", "--seed", "11", "--out", path.to_str().unwrap()])
            .unwrap();
        let art = tmp("prep.brics");
        run(&["prepare", path.to_str().unwrap(), art.to_str().unwrap(), "--reorder"]).unwrap();
        let out = tmp("prepload.json");
        run(&["farness", "--artifact", art.to_str().unwrap(), "--rate", "0.4", "--seed", "3",
              "--metrics", out.to_str().unwrap()])
            .unwrap();
        let report: brics::RunReport =
            serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
        // The warm path loads instead of re-preparing: an `artifact.load`
        // span, no `prepare` and no `reduce`, and the provenance block
        // names the graph the artifact was prepared from.
        assert!(report.phases.iter().any(|p| p.name == "artifact.load"));
        assert!(
            !report.phases.iter().any(|p| p.name == "reduce" || p.name == "prepare"),
            "the artifact path must not re-run the prepare stage"
        );
        let prov = report.artifact.as_ref().expect("provenance stamped");
        assert_eq!(prov.version, 1);
        assert_eq!(prov.source, path.to_str().unwrap());
        assert_eq!(prov.checksum.len(), 16, "{}", prov.checksum);
        assert!(
            report.counters["artifact_bytes_mapped"] + report.counters["artifact_bytes_copied"]
                > 0,
            "CSR sections served from the artifact"
        );
        // The same artifact serves compare and topk (k shifts left).
        run(&["compare", "--artifact", art.to_str().unwrap(), "--rates", "0.3",
              "--methods", "random,cumulative"])
            .unwrap();
        run(&["topk", "--artifact", art.to_str().unwrap(), "5"]).unwrap();
        // And the degrade ladder runs against the loaded artifact too.
        run(&["farness", "--artifact", art.to_str().unwrap(), "--rate", "0.3", "--degrade"])
            .unwrap();
    }

    #[test]
    fn prepare_stamps_written_artifact_into_the_report() {
        let path = tmp("prepmet.el");
        run(&["generate", "road", "200", "--seed", "2", "--out", path.to_str().unwrap()])
            .unwrap();
        let art = tmp("prepmet.brics");
        let out = tmp("prepmet.json");
        run(&["prepare", path.to_str().unwrap(), art.to_str().unwrap(),
              "--metrics", out.to_str().unwrap()])
            .unwrap();
        let report: brics::RunReport =
            serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert!(report.phases.iter().any(|p| p.name == "prepare"));
        assert!(report.phases.iter().any(|p| p.name == "prepare.save"));
        assert!(report.counters["artifact_bytes_written"] > 0);
        assert_eq!(report.artifact.as_ref().unwrap().source, path.to_str().unwrap());
    }

    #[test]
    fn artifact_flag_validation_and_typed_errors() {
        let path = tmp("artval.el");
        run(&["generate", "road", "200", "--seed", "2", "--out", path.to_str().unwrap()])
            .unwrap();
        let art = tmp("artval.brics");
        run(&["prepare", path.to_str().unwrap(), art.to_str().unwrap()]).unwrap();
        // Naming both a graph and an artifact is ambiguous — usage error.
        assert_eq!(
            run(&["farness", path.to_str().unwrap(), "--artifact", art.to_str().unwrap()])
                .unwrap_err()
                .exit_code(),
            2
        );
        assert_eq!(
            run(&["topk", path.to_str().unwrap(), "3", "--artifact", art.to_str().unwrap()])
                .unwrap_err()
                .exit_code(),
            2
        );
        // A bare --artifact has no path.
        assert_eq!(run(&["farness", "--artifact"]).unwrap_err().exit_code(), 2);
        // A missing file is an input error, not a panic.
        assert_eq!(
            run(&["farness", "--artifact", tmp("absent.brics").to_str().unwrap()])
                .unwrap_err()
                .exit_code(),
            3
        );
        // A flipped payload byte fails the checksum verification: exit 3.
        let mut bytes = std::fs::read(&art).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        let bad = tmp("artval-corrupt.brics");
        std::fs::write(&bad, &bytes).unwrap();
        assert_eq!(
            run(&["farness", "--artifact", bad.to_str().unwrap()]).unwrap_err().exit_code(),
            3
        );
        // A truncated container is typed the same way, from any command.
        let trunc = tmp("artval-trunc.brics");
        std::fs::write(&trunc, &bytes[..bytes.len() / 3]).unwrap();
        assert_eq!(
            run(&["topk", "--artifact", trunc.to_str().unwrap(), "3"])
                .unwrap_err()
                .exit_code(),
            3
        );
        assert_eq!(
            run(&["compare", "--artifact", trunc.to_str().unwrap(), "--rates", "0.3"])
                .unwrap_err()
                .exit_code(),
            3
        );
        // Prepare's own usage errors.
        assert_eq!(run(&["prepare", path.to_str().unwrap()]).unwrap_err().exit_code(), 2);
        assert_eq!(
            run(&["prepare", path.to_str().unwrap(), art.to_str().unwrap(),
                  "--method", "magic"])
                .unwrap_err()
                .exit_code(),
            2
        );
    }

    #[test]
    fn mtx_output_supported() {
        let path = tmp("web.mtx");
        run(&["generate", "web", "300", "--out", path.to_str().unwrap()]).unwrap();
        run(&["stats", path.to_str().unwrap()]).unwrap();
    }

    #[test]
    fn rejects_bad_method_and_class() {
        let path = tmp("sock.el");
        run(&["generate", "social", "200", "--out", path.to_str().unwrap()]).unwrap();
        assert_eq!(
            run(&["farness", path.to_str().unwrap(), "--method", "magic"])
                .unwrap_err()
                .exit_code(),
            2
        );
        // Every command that samples takes a rate in (0, 1] and nothing
        // else, like `compare --rates`.
        for rate in ["2", "-1", "nan", "inf", "0"] {
            for cmd in [
                vec!["farness", path.to_str().unwrap(), "--rate", rate],
                vec!["topk", path.to_str().unwrap(), "3", "--rate", rate],
                vec!["betweenness", path.to_str().unwrap(), "--rate", rate],
            ] {
                assert_eq!(run(&cmd).unwrap_err().exit_code(), 2, "{cmd:?}");
            }
        }
        assert_eq!(run(&["generate", "metro", "100"]).unwrap_err().exit_code(), 2);
        assert_eq!(run(&["stats"]).unwrap_err().exit_code(), 2);
        assert_eq!(run(&["stats", "/nonexistent/file"]).unwrap_err().exit_code(), 3);
    }

    #[test]
    fn timeout_yields_exit_4_after_printing_partial() {
        let path = tmp("tmo.el");
        run(&["generate", "web", "400", "--seed", "1", "--out", path.to_str().unwrap()]).unwrap();
        // An already-expired deadline: every source is skipped, the printed
        // estimate is the trivial (but sound) zero-coverage partial.
        let err = run(&["farness", path.to_str().unwrap(), "--timeout", "0"]).unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");
        // Exact computation refuses under an expired deadline.
        let err = run(&["farness", path.to_str().unwrap(), "--method", "exact", "--timeout", "0"])
            .unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");
        // Top-k refuses too — it cannot certify an exact ranking.
        let err = run(&["topk", path.to_str().unwrap(), "3", "--timeout", "0"]).unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");
        // Betweenness prints the partial pivot estimate and exits 4.
        let err =
            run(&["betweenness", path.to_str().unwrap(), "--timeout", "0"]).unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");
        // A generous budget completes normally.
        run(&["farness", path.to_str().unwrap(), "--timeout", "600"]).unwrap();
    }

    #[test]
    fn kernel_and_reorder_flags() {
        let path = tmp("kern.el");
        run(&["generate", "social", "300", "--seed", "5", "--out", path.to_str().unwrap()])
            .unwrap();
        for kernel in ["auto", "topdown", "hybrid", "msbfs"] {
            run(&["farness", path.to_str().unwrap(), "--method", "random", "--rate", "0.3",
                  "--kernel", kernel, "--top", "5"])
                .unwrap();
        }
        run(&["farness", path.to_str().unwrap(), "--method", "exact", "--kernel", "hybrid",
              "--reorder", "--top", "3", "--json"])
            .unwrap();
        run(&["farness", path.to_str().unwrap(), "--reorder", "--rate", "0.4"]).unwrap();
        run(&["topk", path.to_str().unwrap(), "4", "--kernel", "hybrid"]).unwrap();
        assert_eq!(
            run(&["farness", path.to_str().unwrap(), "--kernel", "quantum"])
                .unwrap_err()
                .exit_code(),
            2
        );
    }

    #[test]
    fn metrics_report_written_with_stable_schema() {
        let path = tmp("met.el");
        run(&["generate", "web", "400", "--seed", "1", "--out", path.to_str().unwrap()]).unwrap();
        let out = tmp("met.json");
        run(&["farness", path.to_str().unwrap(), "--method", "cumulative", "--rate", "0.4",
              "--metrics", out.to_str().unwrap(), "--metrics-summary"])
            .unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        let report: brics::RunReport = serde_json::from_str(&text).unwrap();
        assert_eq!(report.schema, brics::RunReport::SCHEMA);
        // All counter keys are always present; the run recorded real work.
        assert!(report.counters["bfs_sources"] > 0);
        assert!(report.counters["bct_blocks"] > 0);
        assert!(report.phases.iter().any(|p| p.name == "cumulative.phase_b"));
        assert!(report.derived.elapsed_seconds > 0.0);
        // v2: latency histograms ride along — one per-source BFS
        // observation per completed source, one query observation, and
        // quantiles in order.
        let bfs = report.histograms.iter().find(|h| h.metric == "source_bfs_ns").unwrap();
        assert_eq!(bfs.unit, "ns");
        assert!(bfs.count > 0, "no per-source BFS observations");
        assert!(bfs.p50 > 0 && bfs.p50 <= bfs.p90 && bfs.p90 <= bfs.p99 && bfs.p99 <= bfs.max);
        let query = report.histograms.iter().find(|h| h.metric == "query_ns").unwrap();
        assert_eq!(query.count, 1, "one estimate ran");
        // v2: MTEPS is rated against estimate time; the whole-run rate
        // (v1's definition) is reported separately and can only be lower.
        assert!(report.derived.mteps > 0.0);
        assert!(report.derived.whole_run_mteps > 0.0);
        assert!(report.derived.whole_run_mteps <= report.derived.mteps * 1.0001);
    }

    /// Shape of one Chrome trace-event object as written by `--trace`.
    #[derive(serde::Deserialize)]
    struct TraceRow {
        name: String,
        cat: String,
        ph: String,
        pid: u64,
        tid: u64,
        ts: f64,
        dur: f64,
    }

    #[test]
    fn trace_writes_nested_chrome_trace_events() {
        let path = tmp("trace.el");
        run(&["generate", "web", "400", "--seed", "1", "--out", path.to_str().unwrap()]).unwrap();
        let out = tmp("trace.json");
        run(&["farness", path.to_str().unwrap(), "--rate", "0.4",
              "--trace", out.to_str().unwrap()])
            .unwrap();
        let rows: Vec<TraceRow> =
            serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert!(!rows.is_empty(), "trace must contain events");
        for r in &rows {
            assert_eq!(r.ph, "X", "{}: complete events only", r.name);
            assert_eq!(r.cat, "brics");
            assert_eq!(r.pid, 1);
            assert!(r.ts >= 0.0 && r.dur >= 0.0, "{}: ts {} dur {}", r.name, r.ts, r.dur);
            let _ = r.tid;
        }
        let find = |name: &str| {
            rows.iter().find(|r| r.name == name).unwrap_or_else(|| panic!("no '{name}' span"))
        };
        let (prepare, reduce, estimate) = (find("prepare"), find("reduce"), find("estimate"));
        // The hierarchy the viewer renders: reduce inside prepare, the
        // estimate strictly after the prepare stage, and this query's
        // per-source BFS spans inside the estimate.
        assert!(reduce.ts >= prepare.ts, "reduce starts inside prepare");
        assert!(reduce.ts + reduce.dur <= prepare.ts + prepare.dur + 1e-3, "reduce ends inside prepare");
        assert!(estimate.ts + 1e-3 >= prepare.ts + prepare.dur, "estimate follows prepare");
        let inside_estimate = rows
            .iter()
            .filter(|r| r.name == "bfs.source")
            .filter(|r| {
                r.ts + 1e-3 >= estimate.ts && r.ts + r.dur <= estimate.ts + estimate.dur + 1e-3
            })
            .count();
        assert!(inside_estimate > 0, "per-source BFS spans nest inside the estimate");
    }

    #[test]
    fn trace_flag_requires_a_path() {
        let path = tmp("tracebare.el");
        run(&["generate", "road", "100", "--out", path.to_str().unwrap()]).unwrap();
        let err = run(&["farness", path.to_str().unwrap(), "--trace"]).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
    }

    #[test]
    fn progress_heartbeat_smokes_and_validates() {
        let path = tmp("prog.el");
        run(&["generate", "road", "300", "--seed", "2", "--out", path.to_str().unwrap()])
            .unwrap();
        // A fast sampling interval plus a custom stall window exercises the
        // whole meter lifecycle inside a normal run; at least the final
        // heartbeat lands on stderr (asserted textually in CI).
        run(&["farness", path.to_str().unwrap(), "--rate", "0.3",
              "--progress", "0.01", "--stall-after", "30"])
            .unwrap();
        // A timed-out run keeps the heartbeat (exit 4 after the final line).
        let err = run(&["farness", path.to_str().unwrap(), "--timeout", "0", "--progress"])
            .unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");
        // Bad intervals are usage errors.
        for bad in [["--progress", "zero"], ["--progress", "0"], ["--stall-after", "-1"]] {
            let mut args = vec!["farness", path.to_str().unwrap(), "--progress", "0.5"];
            args.extend(bad);
            let err = run(&args).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{bad:?}: {err}");
        }
    }

    #[test]
    fn metrics_cover_every_subcommand() {
        let path = tmp("metall.el");
        let out = tmp("metall.json");
        let o = out.to_str().unwrap();
        run(&["generate", "road", "300", "--seed", "2", "--out", path.to_str().unwrap(),
              "--metrics", o])
            .unwrap();
        let g: &str = path.to_str().unwrap();
        for args in [
            vec!["stats", g, "--metrics", o],
            vec!["farness", g, "--method", "random", "--rate", "0.3", "--metrics", o],
            vec!["farness", g, "--method", "exact", "--top", "3", "--metrics", o],
            vec!["topk", g, "3", "--metrics", o],
            vec!["betweenness", g, "--top", "3", "--metrics", o],
        ] {
            run(&args).unwrap_or_else(|e| panic!("{args:?}: {e}"));
            let report: brics::RunReport =
                serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
            assert_eq!(report.schema, brics::RunReport::SCHEMA, "{args:?}");
        }
    }

    #[test]
    fn metrics_reconcile_with_run_shape() {
        // Honesty checks the acceptance criteria call out: the per-source
        // BFS count matches the estimate's sources, and reduction removal
        // counters partition the removed vertices.
        let path = tmp("methonest.el");
        run(&["generate", "web", "500", "--seed", "3", "--out", path.to_str().unwrap()]).unwrap();
        let out = tmp("methonest.json");
        run(&["farness", path.to_str().unwrap(), "--method", "icr", "--rate", "0.5",
              "--metrics", out.to_str().unwrap()])
            .unwrap();
        let report: brics::RunReport =
            serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
        let c = &report.counters;
        let removed = c["reduce_identical_removed"]
            + c["reduce_identical_chain_removed"]
            + c["reduce_chain_removed"]
            + c["reduce_contracted_removed"]
            + c["reduce_redundant_removed"];
        // The removal counters plus the survivors partition the vertex set.
        let n = brics_graph::io::read_edge_list(path.to_str().unwrap()).unwrap().num_nodes();
        assert_eq!(c["reduce_surviving_nodes"] + removed, n as u64);
        assert!(c["bfs_sources"] > 0);
        assert_eq!(c["bfs_sources_skipped"], 0);
    }

    #[test]
    fn interrupted_run_still_reports_metrics() {
        let path = tmp("mettmo.el");
        run(&["generate", "web", "400", "--seed", "1", "--out", path.to_str().unwrap()]).unwrap();
        let out = tmp("mettmo.json");
        let err = run(&["farness", path.to_str().unwrap(), "--timeout", "0",
                        "--metrics", out.to_str().unwrap()])
            .unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");
        let report: brics::RunReport =
            serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert!(report.counters["deadline_hits"] > 0, "deadline not recorded");
        assert!(report.events.iter().any(|e| e.kind == "deadline"));
    }

    #[test]
    fn metrics_dash_and_bare_flag_print_to_stdout() {
        let path = tmp("metdash.el");
        run(&["generate", "road", "200", "--out", path.to_str().unwrap()]).unwrap();
        // `--metrics -` and a bare `--metrics` (empty value) both mean stdout;
        // here we just check neither errors.
        run(&["stats", path.to_str().unwrap(), "--metrics", "-"]).unwrap();
        run(&["stats", path.to_str().unwrap(), "--metrics"]).unwrap();
    }

    #[test]
    fn compare_amortizes_one_reduction_across_methods_and_rates() {
        let path = tmp("cmp.el");
        run(&["generate", "social", "400", "--seed", "6", "--out", path.to_str().unwrap()])
            .unwrap();
        let out = tmp("cmp.json");
        run(&["compare", path.to_str().unwrap(), "--methods", "random,reduced,cumulative",
              "--rates", "0.2,0.5", "--exact", "--metrics", out.to_str().unwrap()])
            .unwrap();
        let report: brics::RunReport =
            serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
        // The acceptance criterion of the engine split: one prepared
        // artifact serves every method × rate, so the reduction ran once.
        let reduce: Vec<_> = report.phases.iter().filter(|p| p.name == "reduce").collect();
        assert_eq!(reduce.len(), 1, "one aggregated reduce phase");
        assert_eq!(reduce[0].count, 1, "the reduction must run exactly once");
        let prepare = report.phases.iter().find(|p| p.name == "prepare").unwrap();
        assert_eq!(prepare.count, 1, "one prepare stage");
        // 3 methods × 2 rates + the --exact baseline = 7 estimate spans.
        let estimate = report.phases.iter().find(|p| p.name == "estimate").unwrap();
        assert_eq!(estimate.count, 7, "every query is its own estimate span");
    }

    #[test]
    fn compare_json_and_validation() {
        let path = tmp("cmpjson.el");
        run(&["generate", "web", "300", "--seed", "1", "--out", path.to_str().unwrap()]).unwrap();
        run(&["compare", path.to_str().unwrap(), "--rates", "0.3", "--json"]).unwrap();
        run(&["compare", path.to_str().unwrap(), "--reorder", "--rates", "0.4"]).unwrap();
        assert_eq!(
            run(&["compare", path.to_str().unwrap(), "--methods", "magic"])
                .unwrap_err()
                .exit_code(),
            2
        );
        assert_eq!(
            run(&["compare", path.to_str().unwrap(), "--rates", "1.5"])
                .unwrap_err()
                .exit_code(),
            2
        );
        assert_eq!(run(&["compare"]).unwrap_err().exit_code(), 2);
        // An expired deadline interrupts the prepare stage: exit 4.
        assert_eq!(
            run(&["compare", path.to_str().unwrap(), "--timeout", "0"])
                .unwrap_err()
                .exit_code(),
            4
        );
    }

    #[test]
    fn memory_budget_yields_exit_3() {
        let path = tmp("mem.el");
        run(&["generate", "road", "300", "--seed", "2", "--out", path.to_str().unwrap()]).unwrap();
        let err = run(&["farness", path.to_str().unwrap(), "--max-mem-mb", "0"]).unwrap_err();
        assert_eq!(err.exit_code(), 3, "{err}");
        run(&["farness", path.to_str().unwrap(), "--max-mem-mb", "4096"]).unwrap();
    }

    #[test]
    fn bad_timeout_is_usage_error() {
        let path = tmp("badtmo.el");
        run(&["generate", "road", "100", "--out", path.to_str().unwrap()]).unwrap();
        let err = run(&["farness", path.to_str().unwrap(), "--timeout", "-1"]).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        let err = run(&["farness", path.to_str().unwrap(), "--timeout", "zebra"]).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
    }

    #[test]
    fn bad_fault_and_degrade_specs_are_usage_errors() {
        let path = tmp("badfault.el");
        run(&["generate", "road", "100", "--out", path.to_str().unwrap()]).unwrap();
        for spec in ["nowhere=panic", "bfs.source=vanish", "bfs.source=panic@daily", ""] {
            let err = run(&["farness", path.to_str().unwrap(), "--fault", spec]).unwrap_err();
            assert_eq!(err.exit_code(), 2, "--fault {spec:?}: {err}");
        }
        for rate in ["0", "1.5", "-0.1", "zebra"] {
            let err = run(&["farness", path.to_str().unwrap(), "--degrade", rate]).unwrap_err();
            assert_eq!(err.exit_code(), 2, "--degrade {rate:?}: {err}");
        }
    }

    #[test]
    fn injected_io_error_is_an_input_error() {
        let path = tmp("iofault.el");
        run(&["generate", "road", "150", "--out", path.to_str().unwrap()]).unwrap();
        let err = run(&["farness", path.to_str().unwrap(), "--fault", "io.read=io-error"])
            .unwrap_err();
        assert_eq!(err.exit_code(), 3, "{err}");
    }

    #[test]
    fn quarantined_panic_recovers_to_exit_0_under_degrade() {
        // A single injected source panic is retried and fully recovered: the
        // run answers at the requested rung and exits 0.
        let path = tmp("degrec.el");
        run(&["generate", "web", "300", "--seed", "7", "--out", path.to_str().unwrap()]).unwrap();
        run(&["farness", path.to_str().unwrap(), "--method", "random", "--rate", "0.3",
              "--fault", "bfs.source=panic@nth:1", "--degrade"])
            .unwrap();
    }

    #[test]
    fn fault_without_degrade_surfaces_as_internal_error() {
        let path = tmp("nodeg.el");
        run(&["generate", "web", "300", "--seed", "7", "--out", path.to_str().unwrap()]).unwrap();
        let err = run(&["farness", path.to_str().unwrap(), "--method", "random", "--rate", "0.3",
                        "--fault", "bfs.source=panic@every:1"])
            .unwrap_err();
        assert_eq!(err.exit_code(), 5, "{err}");
    }

    #[test]
    fn memory_denial_degrades_to_exit_6_and_reports_the_ladder() {
        // An injected admission denial trips rung 1; the reduced-rate rung
        // answers, the run exits 6, and the report names the whole path.
        let path = tmp("degmem.el");
        run(&["generate", "social", "300", "--seed", "9", "--out", path.to_str().unwrap()])
            .unwrap();
        let out = tmp("degmem.json");
        let err = run(&["farness", path.to_str().unwrap(), "--method", "random", "--rate", "0.5",
                        "--fault", "alloc.admit=mem-deny", "--degrade",
                        "--metrics", out.to_str().unwrap()])
            .unwrap_err();
        assert_eq!(err.exit_code(), 6, "{err}");
        let report: brics::RunReport =
            serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert_eq!(report.schema, brics::RunReport::SCHEMA);
        let site = report.faults_injected.iter().find(|s| s.site == "alloc.admit").unwrap();
        assert!(site.hits >= 1 && site.fired >= 1, "{site:?}");
        assert_eq!(report.degradation_path, vec!["random", "sampling@0.1"]);
    }

    #[test]
    fn expired_deadline_under_degrade_keeps_exit_4() {
        // Interruption outranks degradation: the ladder bottoms out on the
        // accumulated partials but the exit code stays 4 (timeout/partial).
        let path = tmp("degtmo.el");
        run(&["generate", "web", "300", "--seed", "2", "--out", path.to_str().unwrap()]).unwrap();
        let err = run(&["farness", path.to_str().unwrap(), "--method", "exact",
                        "--timeout", "0", "--degrade"])
            .unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");
    }

    #[test]
    fn compare_under_faults_degrades_whole_table_to_exit_6() {
        let path = tmp("degcmp.el");
        run(&["generate", "web", "300", "--seed", "4", "--out", path.to_str().unwrap()]).unwrap();
        let out = tmp("degcmp.json");
        let err = run(&["compare", path.to_str().unwrap(), "--methods", "random,cumulative",
                        "--rates", "0.3", "--fault", "bct.build=panic@every:1", "--degrade",
                        "--metrics", out.to_str().unwrap()])
            .unwrap_err();
        assert_eq!(err.exit_code(), 6, "{err}");
        let report: brics::RunReport =
            serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert!(report.degradation_path.iter().any(|r| r == "bct:skipped"), "{report:?}");
        assert!(report.retries >= 1, "the bct build retried once before skipping");
    }

    #[test]
    fn fault_free_report_keeps_fault_fields_empty() {
        let path = tmp("degclean.el");
        run(&["generate", "road", "200", "--seed", "1", "--out", path.to_str().unwrap()]).unwrap();
        let out = tmp("degclean.json");
        run(&["farness", path.to_str().unwrap(), "--method", "random", "--rate", "0.4",
              "--metrics", out.to_str().unwrap()])
            .unwrap();
        let report: brics::RunReport =
            serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert!(report.faults_injected.is_empty());
        assert_eq!(report.retries, 0);
        assert!(report.degradation_path.is_empty());
    }
}
