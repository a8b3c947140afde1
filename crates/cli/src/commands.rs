//! Subcommand implementations.
//!
//! Every command except `help` and `report` runs inside one [`Scope`]:
//! the flags all commands share are parsed once, the command reads its
//! input and queries through the scope's one [`ExecutionContext`], and
//! the run report is written however the command returns.

use crate::args::{parse, Parsed};
use crate::error::CliError;
use brics::{
    run_degraded, ArtifactInfo, CentralityError, DegradationPolicy, DegradedEstimate,
    DegradedRequest, ExecutionContext, KernelConfig, MemoryPlan, Method, PrepareConfig,
    PreparedGraph, ProgressConfig, ProgressMeter, RunControl, RunOutcome, RunRecorder,
    SampleSize,
};
use brics_bicc::biconnected_components;
use brics_graph::connectivity::{is_connected, make_connected};
use brics_graph::degree::degree_stats;
use brics_graph::generators::{ClassParams, GraphClass};
use brics_graph::io::{read_edge_list, read_metis, read_mtx, write_edge_list, write_metis, write_mtx};
use brics_graph::telemetry::{
    timed, ArtifactProvenance, Counter, FaultSiteRecord, Recorder, ReportEvent,
};
use brics_graph::{CsrGraph, FaultKind, FaultPlan, FaultSite};
use brics_reduce::{reduce_ctl_rec, ReductionConfig};
use std::cell::{Cell, RefCell};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

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
                     the report to stdout. Every exit reports; a non-zero
                     one appends an `exit` event (code and message).
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

/// A subcommand: runs inside the [`Scope`] that [`dispatch`] opened.
type Command = fn(&Scope<'_>) -> Result<(), CliError>;

/// Entry point used by `main` (and by the CLI's integration tests).
pub fn dispatch(argv: &[String]) -> Result<(), CliError> {
    let parsed = parse(argv).map_err(CliError::Usage)?;
    // Every command takes `--timeout`, `--fault` and the telemetry flags.
    // The third column names the other shared flags it takes; a command
    // ignores the ones it does not take.
    const LIMITS: &[&str] = &["max-mem-mb"];
    const KERNEL: &[&str] = &["max-mem-mb", "kernel"];
    const LADDER: &[&str] = &["max-mem-mb", "kernel", "degrade"];
    let (command, synopsis, takes): (Command, &str, &[&str]) =
        match parsed.positional.first().map(String::as_str) {
            Some("stats") => (stats, "stats <graph>", &[]),
            Some("prepare") => (prepare, "prepare <graph> <artifact> [options]", KERNEL),
            Some("farness") => (farness, "farness <graph> [options]", LADDER),
            Some("compare") => (compare, "compare <graph> [options]", LADDER),
            Some("topk") => (topk, "topk <graph> <k> [options]", KERNEL),
            Some("betweenness") => (betweenness, "betweenness <graph> [options]", LIMITS),
            Some("generate") => (generate, "generate <class> <nodes> [options]", &[]),
            Some("report") => return crate::report::report(&parsed),
            Some("help") | None => {
                print!("{HELP}");
                return Ok(());
            }
            Some(other) => {
                return Err(CliError::Usage(format!(
                    "unknown command '{other}' (try `brics help`)"
                )))
            }
        };
    run_scoped(&parsed, synopsis, takes, command)
}

/// Runs `command` inside a [`Scope`] and writes the run report exactly
/// once, whether the command returns `Ok` or `Err`. Only a malformed
/// telemetry flag ends the run without a report: there is nowhere to
/// write one.
fn run_scoped(
    p: &Parsed,
    synopsis: &str,
    takes: &[&str],
    command: Command,
) -> Result<(), CliError> {
    let telemetry = Telemetry::from_flags(p)?;
    let rec = telemetry.as_ref().map(|t| t.rec.as_ref());
    let mut scope = None;
    let result = Scope::open(p, synopsis, takes, &rec, telemetry.as_ref())
        .and_then(|opened| command(scope.insert(opened)));
    match &telemetry {
        // A failed run reports its own error, not a failure to write the report.
        Some(t) => {
            let written = t.write(scope.as_ref(), &result);
            result.and(written)
        }
        None => result,
    }
}

/// One command's run: the flags every command shares, parsed once; the
/// one [`ExecutionContext`] the command runs under; and what the command
/// learns that the run report is stamped with.
struct Scope<'a> {
    p: &'a Parsed,
    /// The command's usage line, for usage errors.
    synopsis: &'a str,
    /// Control (`--timeout`, `--max-mem-mb`, `--fault`), `--kernel`,
    /// `--degrade` (each where the command takes it) and the recorder.
    /// `None` records nothing, which keeps unrecorded runs on the
    /// library's zero-overhead path.
    ctx: ExecutionContext<'a, Option<&'a RunRecorder>>,
    /// The `--progress` heartbeat; stopping it prints its final line.
    progress: Option<ProgressMeter>,
    /// The admission figure of the widest query the command planned.
    planned_bytes: Cell<u64>,
    /// Degradation-ladder rungs walked, in order.
    degradation_path: RefCell<Vec<String>>,
    /// Identity of the prepared-graph artifact the command wrote or loaded.
    artifact: RefCell<Option<ArtifactProvenance>>,
}

impl<'a> Scope<'a> {
    /// Parses the shared flags into the context: `--timeout`, `--fault`,
    /// and those of `--max-mem-mb`, `--kernel` and `--degrade` the command
    /// `takes`. The control exists before any input is read, so `--timeout`
    /// bounds the whole command: a slow parse eats into the budget and the
    /// (uninterruptible) load is followed by an immediate deadline check
    /// inside the engine.
    fn open(
        p: &'a Parsed,
        synopsis: &'a str,
        takes: &[&str],
        rec: &'a Option<&'a RunRecorder>,
        telemetry: Option<&Telemetry>,
    ) -> Result<Self, CliError> {
        let given = |flag: &str| takes.contains(&flag) && p.has(flag);
        let mut ctl = RunControl::new();
        if p.has("timeout") {
            let secs: f64 = p.get_parse("timeout", 0.0).map_err(CliError::Usage)?;
            if !secs.is_finite() || secs < 0.0 {
                return Err(CliError::Usage(format!(
                    "--timeout {secs}: must be a finite non-negative number of seconds"
                )));
            }
            ctl = ctl.with_timeout(Duration::from_secs_f64(secs));
        }
        if given("max-mem-mb") {
            let mb: u64 = p.get_parse("max-mem-mb", 0).map_err(CliError::Usage)?;
            ctl = ctl.with_memory_budget_mb(mb);
        }
        if let Some(specs) = p.get("fault") {
            let plan = FaultPlan::parse(specs)
                .map_err(|e| CliError::Usage(format!("--fault {specs}: {e}")))?;
            ctl = ctl.with_fault_plan(plan);
        }
        let kernel = match p.get("kernel").filter(|_| given("kernel")) {
            None => KernelConfig::default(),
            Some(name) => KernelConfig::new(name.parse().map_err(CliError::Usage)?),
        };
        let mut ctx = ExecutionContext::new().with_control(ctl).with_kernel(kernel);
        if given("degrade") {
            let mut policy = DegradationPolicy::default();
            if let Some(v) = p.get("degrade").filter(|v| !v.is_empty()) {
                policy = policy.with_fallback_rate(parse_rate("degrade", v)?);
            }
            ctx = ctx.with_degradation(policy);
        }
        let progress = telemetry.and_then(|t| {
            t.progress.map(|cfg| ProgressMeter::start(t.rec.clone(), ctx.control().clone(), cfg))
        });
        Ok(Scope {
            p,
            synopsis,
            ctx: ctx.with_recorder(rec),
            progress,
            planned_bytes: Cell::new(0),
            degradation_path: RefCell::new(Vec::new()),
            artifact: RefCell::new(None),
        })
    }

    fn usage(&self) -> CliError {
        CliError::Usage(format!("usage: brics {}", self.synopsis))
    }

    /// The `i`-th positional argument after the command name.
    fn arg(&self, i: usize) -> Result<&'a str, CliError> {
        self.p.positional.get(i + 1).map(String::as_str).ok_or_else(|| self.usage())
    }

    /// The `--rate` option, or `default` when absent.
    fn rate(&self, default: f64) -> Result<f64, CliError> {
        self.p.get("rate").map_or(Ok(default), |v| parse_rate("rate", v))
    }

    /// The `--seed` option (default 0).
    fn seed(&self) -> Result<u64, CliError> {
        self.p.get_parse("seed", 0).map_err(CliError::Usage)
    }

    /// Reads the graph file at `path`. The `io.read` failpoint fires
    /// first: `io-error` and `panic` arms surface as an input error, a
    /// `slow` arm just stalls. A disconnected graph is connected by linking
    /// its components (paper §IV-B), or cut to the largest under `--giant`.
    fn read(&self, path: &str) -> Result<CsrGraph, CliError> {
        if let Some(FaultKind::IoError | FaultKind::Panic) =
            self.ctx.control().fault_apply(FaultSite::IoRead, 0)
        {
            return Err(CliError::Input(format!("{path}: injected i/o error (io.read)")));
        }
        let read = if path.ends_with(".mtx") {
            read_mtx(path)
        } else if path.ends_with(".graph") || path.ends_with(".metis") {
            read_metis(path)
        } else {
            read_edge_list(path)
        };
        let g = read.map_err(|e| CliError::Input(format!("{path}: {e}")))?;
        if g.num_nodes() == 0 {
            return Err(CliError::Input(format!("{path}: empty graph")));
        }
        Ok(if is_connected(&g) {
            g
        } else if self.p.has("giant") {
            let sub = brics_graph::connectivity::largest_component(&g);
            eprintln!(
                "note: input was disconnected; kept the largest component ({} of {} \
                 vertices; ids remapped)",
                sub.len(),
                g.num_nodes()
            );
            sub.graph
        } else {
            let (g2, added) = make_connected(&g);
            eprintln!(
                "note: input was disconnected; added {added} linking edges (paper §IV-B); \
                 pass --giant to keep only the largest component instead"
            );
            g2
        })
    }

    /// Locates the command's input — the `<graph>` argument, or the
    /// prepared artifact `--artifact FILE` names in its place — and the
    /// `extra` positionals after it, which shift left under `--artifact`
    /// (`topk --artifact g.brics 10`). Nothing is read yet.
    fn locate(&self, extra: usize) -> Result<(&'a str, &'a [String]), CliError> {
        let args = &self.p.positional[1..];
        let (file, rest) = match self.p.get("artifact") {
            None => match args.split_first() {
                Some((path, rest)) => (path.as_str(), rest),
                None => return Err(self.usage()),
            },
            Some("") => return Err(CliError::Usage("--artifact needs a file path".into())),
            Some(_) if args.len() > extra => {
                return Err(CliError::Usage(format!(
                    "{} takes either <graph> or --artifact, not both",
                    self.p.positional[0]
                )))
            }
            Some(file) => (file, args),
        };
        if rest.len() < extra {
            return Err(self.usage());
        }
        Ok((file, rest))
    }

    /// Reads the located input `file`: a graph now, an artifact only in
    /// [`Scope::prepare`]. Commands parse their own flags in between, so
    /// a graph that does not read outranks a malformed flag, and a
    /// malformed flag outranks an artifact that does not load.
    fn input(&self, file: &'a str) -> Result<Input<'a>, CliError> {
        if self.p.has("artifact") {
            Ok(Input::Artifact(file))
        } else {
            self.read(file).map(Input::Graph)
        }
    }

    /// The prepare stage the `planned` queries run against: the artifact,
    /// loaded now, or `pcfg` built from the graph. The memory plan is
    /// stamped as soon as `n` is known, before a build, so a build that
    /// fails still reports it. An artifact's integrity is verified up
    /// front (a corrupt or truncated file is an input error) and its
    /// provenance is stamped into the report. Under `--degrade` a build
    /// that fails softly falls back to a minimal one — no reductions, no
    /// BCT, hence no memory admission — so the ladder still has something
    /// to run against; the second value says whether it did. Hard data
    /// errors propagate.
    fn prepare<'i>(
        &self,
        input: &'i Input<'_>,
        pcfg: PrepareConfig,
        planned: &[DegradedRequest],
    ) -> Result<(PreparedGraph<'i>, bool), CentralityError> {
        let g = match input {
            Input::Graph(g) => g,
            Input::Artifact(file) => {
                let (prepared, info) = PreparedGraph::load(Path::new(file), &self.ctx)?;
                self.note_artifact(&info);
                eprintln!(
                    "note: loaded prepared artifact {file} ({} bytes, checksum {:016x}, \
                     prepared from {})",
                    info.bytes, info.checksum, info.source
                );
                self.plan(prepared.original().num_nodes(), planned);
                return Ok((prepared, false));
            }
        };
        self.plan(g.num_nodes(), planned);
        if pcfg.reorder {
            eprintln!("note: --reorder relabelled vertices by descending degree");
        }
        match PreparedGraph::build_with(g, pcfg, &self.ctx) {
            Ok(prepared) => Ok((prepared, false)),
            Err(
                e @ (CentralityError::EmptyGraph
                | CentralityError::Disconnected { .. }
                | CentralityError::NoSamples),
            ) => Err(e),
            Err(first) if self.ctx.degradation().is_some() => {
                let minimal = PrepareConfig {
                    reductions: ReductionConfig::none(),
                    use_bcc: false,
                    reorder: false,
                };
                match PreparedGraph::build_with(g, minimal, &self.ctx) {
                    Ok(prepared) => {
                        self.note_path(&["prepare:minimal".to_string()]);
                        eprintln!(
                            "note: configured prepare failed; queries run on a minimal artifact"
                        );
                        Ok((prepared, true))
                    }
                    Err(e @ CentralityError::Interrupted { .. }) => Err(e),
                    Err(_) => Err(first),
                }
            }
            Err(e) => Err(e),
        }
    }

    /// Stamps the memory plan for `n` vertices, so the report can rate its
    /// observed peak against the admission figure. Queries run one after
    /// another, so the plan is the widest of them, not their sum.
    fn plan(&self, n: usize, requests: &[DegradedRequest]) {
        let plan = MemoryPlan::compute(n, self.ctx.thread_count());
        let widest = requests.iter().map(|request| match request {
            DegradedRequest::Exact => plan.exact_bytes,
            DegradedRequest::Estimate(m) if m.uses_bcc() => plan.cumulative_bytes,
            DegradedRequest::Estimate(_) => plan.accumulate_bytes,
        });
        self.planned_bytes.set(widest.max().unwrap_or(0));
    }

    /// Records degradation-ladder rungs for the report.
    fn note_path(&self, path: &[String]) {
        self.degradation_path.borrow_mut().extend_from_slice(path);
    }

    fn note_artifact(&self, info: &ArtifactInfo) {
        *self.artifact.borrow_mut() = Some(ArtifactProvenance {
            version: info.version,
            checksum: format!("{:016x}", info.checksum),
            source: info.source.clone(),
        });
    }
}

/// Telemetry wiring from `--metrics <path|->`, `--metrics-summary`,
/// `--trace <path>` and `--progress [secs]`. The recorder is only built
/// when one of the flags is present, and the trace buffer only under
/// `--trace` (`RunRecorder::with_trace`).
struct Telemetry {
    rec: Arc<RunRecorder>,
    out: Option<String>,
    summary: bool,
    trace: Option<String>,
    progress: Option<ProgressConfig>,
}

impl Telemetry {
    fn from_flags(p: &Parsed) -> Result<Option<Self>, CliError> {
        let out = p
            .get("metrics")
            .map(|v| if v.is_empty() { "-".to_string() } else { v.to_string() });
        let summary = p.has("metrics-summary");
        let trace = match p.get("trace") {
            Some("") => return Err(CliError::Usage("--trace needs a file path".into())),
            Some(path) => Some(path.to_string()),
            None => None,
        };
        let progress = if p.has("progress") {
            let mut cfg = ProgressConfig::default();
            if let Some(secs) = positive_secs(p, "progress")? {
                cfg.interval = secs;
            }
            if let Some(secs) = positive_secs(p, "stall-after")? {
                cfg.stall_after = secs;
            }
            Some(cfg)
        } else {
            None
        };
        if out.is_none() && !summary && trace.is_none() && progress.is_none() {
            return Ok(None);
        }
        let rec =
            Arc::new(if trace.is_some() { RunRecorder::with_trace() } else { RunRecorder::new() });
        Ok(Some(Telemetry { rec, out, summary, trace, progress }))
    }

    /// Writes the report of a run that ended with `result`: stops the
    /// progress heartbeat (printing its final line), stamps what the scope
    /// collected (`None` when the shared flags did not parse) and, on a
    /// non-zero exit, one `exit` event. Then the JSON report goes to the
    /// `--metrics` target, the Chrome trace to the `--trace` target, and
    /// the summary table to stderr.
    fn write(
        &self,
        scope: Option<&Scope<'_>>,
        result: &Result<(), CliError>,
    ) -> Result<(), CliError> {
        if let Some(meter) = scope.and_then(|s| s.progress.as_ref()) {
            meter.stop();
        }
        // The plan is shared with the control's copy, so its per-site
        // counts cover the whole run.
        let faults = scope.and_then(|s| s.ctx.control().fault_plan());
        if let Some(plan) = faults {
            self.rec.add(Counter::FaultsInjected, plan.total_fired());
        }
        let mut report = self.rec.report();
        if let Some(plan) = faults {
            report.faults_injected = plan
                .site_records()
                .iter()
                .map(|s| FaultSiteRecord { site: s.site.to_string(), hits: s.hits, fired: s.fired })
                .collect();
        }
        if let Some(s) = scope {
            report.degradation_path = s.degradation_path.take();
            report.artifact = s.artifact.take();
            report.stamp_planned_bytes(s.planned_bytes.get());
        }
        if let Err(e) = result {
            report.events.push(ReportEvent {
                kind: "exit".to_string(),
                detail: format!("exit {}: {e}", e.exit_code()),
            });
        }
        if let Some(target) = &self.out {
            let json = serde_json::to_string_pretty(&report)
                .map_err(|e| CliError::Internal(format!("serializing run report: {e}")))?;
            if target == "-" {
                println!("{json}");
            } else {
                std::fs::write(target, json + "\n")
                    .map_err(|e| CliError::Input(format!("{target}: {e}")))?;
            }
        }
        if let Some(target) = &self.trace {
            let dropped = self.rec.trace_dropped();
            if dropped > 0 {
                eprintln!("note: trace buffer filled — {dropped} spans were dropped");
            }
            std::fs::write(target, self.rec.chrome_trace_json() + "\n")
                .map_err(|e| CliError::Input(format!("{target}: {e}")))?;
        }
        if self.summary {
            eprint!("{}", report.summary_table());
        }
        Ok(())
    }
}

/// A `--flag SECS` option that must be a positive number of seconds;
/// `None` when absent or bare.
fn positive_secs(p: &Parsed, flag: &str) -> Result<Option<Duration>, CliError> {
    let Some(v) = p.get(flag).filter(|v| !v.is_empty()) else { return Ok(None) };
    let secs: f64 = v.parse().map_err(|e| CliError::Usage(format!("--{flag} {v}: {e}")))?;
    if !secs.is_finite() || secs <= 0.0 {
        return Err(CliError::Usage(format!(
            "--{flag} {secs}: must be a positive number of seconds"
        )));
    }
    Ok(Some(Duration::from_secs_f64(secs)))
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

/// A command's input (see [`Scope::input`]).
enum Input<'a> {
    /// A graph file, read.
    Graph(CsrGraph),
    /// A prepared-graph artifact, loaded by [`Scope::prepare`].
    Artifact(&'a str),
}

/// The query a `--method` name asks for.
fn request_of(method: &str) -> Result<DegradedRequest, CliError> {
    Ok(match method {
        "exact" => DegradedRequest::Exact,
        "random" => DegradedRequest::Estimate(Method::RandomSampling),
        "cr" => DegradedRequest::Estimate(Method::CR),
        "icr" => DegradedRequest::Estimate(Method::ICR),
        "cumulative" => DegradedRequest::Estimate(Method::Cumulative),
        other => return Err(CliError::Usage(format!("unknown method '{other}'"))),
    })
}

/// The prepare stage a query needs: no reduction for the baselines, the
/// paper's ablation configs for C+R and I+C+R, and the full reduction +
/// Block-Cut Tree for Cumulative. `--reorder` becomes part of it: queries
/// traverse the degree-sorted relabelling and every result is translated
/// back, so ids in the output are always the input's ids.
fn prepare_config(request: &DegradedRequest, reorder: bool) -> PrepareConfig {
    match request {
        DegradedRequest::Exact => {
            PrepareConfig { reductions: ReductionConfig::none(), use_bcc: false, reorder }
        }
        DegradedRequest::Estimate(m) => {
            PrepareConfig { reductions: m.reductions(), use_bcc: m.uses_bcc(), reorder }
        }
    }
}

/// A query's answer: exact farness, or an estimate. A direct estimate is
/// wrapped as a ladder answer with an empty path.
enum Answer {
    Exact(Vec<u64>),
    Estimate(DegradedEstimate),
}

/// Answers one (method, rate) query: through the degradation ladder under
/// `--degrade`, directly against the prepared graph otherwise.
fn query<R: Recorder>(
    prepared: &PreparedGraph<'_>,
    request: &DegradedRequest,
    rate: f64,
    seed: u64,
    ctx: &ExecutionContext<'_, R>,
) -> Result<Answer, CentralityError> {
    let sample = SampleSize::Fraction(rate);
    if ctx.degradation().is_some() {
        return run_degraded(prepared, request, sample, seed, ctx).map(Answer::Estimate);
    }
    let DegradedRequest::Estimate(method) = request else {
        // Exact farness is all-or-nothing: an expired --timeout comes back
        // as `CentralityError::Interrupted` (exit 4, no output).
        return prepared.exact(ctx).map(Answer::Exact);
    };
    let estimate = match method {
        Method::RandomSampling => prepared.sample(sample, seed, ctx)?,
        m if m.uses_bcc() => prepared.cumulative(sample, seed, ctx)?,
        _ => prepared.reduced(sample, seed, ctx)?,
    };
    Ok(Answer::Estimate(DegradedEstimate {
        estimate,
        answered_by: method.name().to_string(),
        path: Vec::new(),
        retries: 0,
        quarantined: 0,
        degraded: false,
    }))
}

/// How a command that printed its answer exits: 4 when the run was
/// interrupted (the answer is a sound partial), 6 when it degraded (a
/// lower ladder rung or a fallen-back prepare stage answered), 0
/// otherwise. Interruption outranks degradation.
fn exit_status(outcome: RunOutcome, degraded: bool) -> Result<(), CliError> {
    if outcome.is_interrupted() {
        Err(CliError::TimeoutPartial(format!(
            "{} interrupted the run; the printed answer covers the completed sources only \
             and is a sound partial result",
            outcome_name(outcome)
        )))
    } else if degraded {
        Err(CliError::Degraded(
            "the run fell back below the requested answer (the run report's \
             degradation_path names each step); printed values are sound lower bounds"
                .to_string(),
        ))
    } else {
        Ok(())
    }
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

fn stats(s: &Scope<'_>) -> Result<(), CliError> {
    let path = s.arg(0)?;
    let g = s.read(path)?;
    let rec = s.ctx.recorder();
    let d = degree_stats(&g);
    // `stats` reports the whole reduction, so it runs unbounded.
    let red = reduce_ctl_rec(&g, &ReductionConfig::all(), &RunControl::new(), rec)
        .expect("unbounded control cannot be interrupted");
    let bi = timed(rec, "bct.build", || biconnected_components(&g));
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
    Ok(())
}

/// `brics prepare` — run the prepare stage once and persist it as a
/// binary artifact. Queries replay through `--artifact` with
/// bit-identical answers and no `reduce` span in their run reports.
fn prepare(s: &Scope<'_>) -> Result<(), CliError> {
    let (path, out) = (s.arg(0)?, s.arg(1)?);
    let method = s.p.get("method").unwrap_or("cumulative");
    let pcfg = prepare_config(&request_of(method)?, s.p.has("reorder"));
    let g = s.read(path)?;
    let prepared = PreparedGraph::build_with(&g, pcfg, &s.ctx)?;
    eprintln!(
        "note: prepared '{method}' in {:.3}s — {} of {} vertices survive the reduction",
        prepared.prepare_elapsed().as_secs_f64(),
        prepared.num_surviving(),
        g.num_nodes(),
    );
    let info = prepared.save(Path::new(out), path, &s.ctx)?;
    s.note_artifact(&info);
    eprintln!(
        "note: wrote {out} ({} bytes, container v{}, checksum {:016x})",
        info.bytes, info.version, info.checksum
    );
    Ok(())
}

/// One farness result set, ready for printing: per-vertex values plus the
/// run bookkeeping the output and the exit code are derived from.
struct Rows {
    values: Vec<u64>,
    sampled: Vec<bool>,
    coverage: Vec<u32>,
    num_sources: usize,
    outcome: RunOutcome,
}

/// Streams the farness table (or JSON document) to stdout. Streamed +
/// buffered: the document can cover half a million vertices, and on a
/// timed-out run the printing happens *after* the deadline — building one
/// giant `Value` tree (or a syscall per line) would add seconds past the
/// budget for no benefit.
fn print_farness_rows(p: &Parsed, path: &str, label: &str, rows: &Rows, top: usize) {
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
        writeln!(w, "  \"method\": {},", serde_json::to_string(&label).unwrap()).unwrap();
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

fn farness(s: &Scope<'_>) -> Result<(), CliError> {
    let (path, _) = s.locate(0)?;
    let input = s.input(path)?;
    let rate = s.rate(0.2)?;
    let seed = s.seed()?;
    let top: usize = s.p.get_parse("top", 0).map_err(CliError::Usage)?;
    let method = s.p.get("method").unwrap_or("cumulative");
    let request = request_of(method)?;
    let pcfg = prepare_config(&request, s.p.has("reorder"));
    let ladder = s.ctx.degradation().is_some();
    let (rows, degraded) = match s.prepare(&input, pcfg, std::slice::from_ref(&request)) {
        Ok((prepared, minimal)) => match query(&prepared, &request, rate, seed, &s.ctx)? {
            Answer::Exact(values) => {
                let n = values.len();
                let rows = Rows {
                    sampled: vec![true; n],
                    coverage: vec![(n as u32).saturating_sub(1); n],
                    values,
                    num_sources: n,
                    outcome: RunOutcome::Complete,
                };
                (rows, false)
            }
            Answer::Estimate(d) => {
                s.note_path(&d.path);
                let est = &d.estimate;
                let how = if ladder {
                    format!(
                        " — answered by {} (path: {}; {} retries, {} quarantined)",
                        d.answered_by,
                        d.path.join(" -> "),
                        d.retries,
                        d.quarantined,
                    )
                } else if est.is_partial() {
                    format!(" — PARTIAL ({})", outcome_name(est.outcome()))
                } else {
                    String::new()
                };
                eprintln!(
                    "note: {} sources, {:.3}s{how}",
                    est.num_sources(),
                    est.elapsed().as_secs_f64()
                );
                let rows = Rows {
                    values: est.raw().to_vec(),
                    sampled: est.sampled_mask().to_vec(),
                    coverage: est.coverage().to_vec(),
                    num_sources: est.num_sources(),
                    outcome: est.outcome(),
                };
                (rows, d.degraded || minimal)
            }
        },
        // The build was cut short before any source could run: the trivial
        // zero-coverage partial is still a sound answer. Exact farness
        // refuses instead, unless the ladder answers for it. (Only a build
        // is interrupted; an artifact load has no deadline check.)
        Err(CentralityError::Interrupted { outcome })
            if ladder || request != DegradedRequest::Exact =>
        {
            let Input::Graph(g) = &input else {
                return Err(CentralityError::Interrupted { outcome }.into());
            };
            let n = g.num_nodes();
            if ladder {
                s.note_path(&["partial-lower-bounds".to_string()]);
            }
            let rows = Rows {
                values: vec![0; n],
                sampled: vec![false; n],
                coverage: vec![0; n],
                num_sources: 0,
                outcome,
            };
            (rows, ladder)
        }
        Err(e) => return Err(e.into()),
    };
    print_farness_rows(s.p, path, method, &rows, top);
    exit_status(rows.outcome, degraded)
}

/// `brics compare` — the amortization flow the two-stage engine exists
/// for: ONE `PreparedGraph` (full reductions + Block-Cut Tree) serves
/// every requested method at every sampling rate. With `--metrics` the
/// report shows a single `reduce` span with `count == 1` no matter how
/// many estimates ran.
fn compare(s: &Scope<'_>) -> Result<(), CliError> {
    let (path, _) = s.locate(0)?;
    let input = s.input(path)?;
    let seed = s.seed()?;
    let rates: Vec<f64> = s
        .p
        .get("rates")
        .unwrap_or("0.1,0.2,0.3")
        .split(',')
        .map(|v| parse_rate("rates", v))
        .collect::<Result<_, _>>()?;
    let methods: Vec<(&'static str, DegradedRequest)> = s
        .p
        .get("methods")
        .unwrap_or("random,reduced,cumulative")
        .split(',')
        .map(|name| match name.trim() {
            "random" => Ok(("random", DegradedRequest::Estimate(Method::RandomSampling))),
            "reduced" => Ok(("reduced", DegradedRequest::Estimate(Method::ICR))),
            "cumulative" => Ok(("cumulative", DegradedRequest::Estimate(Method::Cumulative))),
            other => Err(CliError::Usage(format!(
                "unknown compare method '{other}' (expected random, reduced or cumulative)"
            ))),
        })
        .collect::<Result<_, _>>()?;
    let mut planned: Vec<DegradedRequest> = methods.iter().map(|(_, r)| r.clone()).collect();
    if s.p.has("exact") {
        planned.push(DegradedRequest::Exact);
    }
    let cumulative = DegradedRequest::Estimate(Method::Cumulative);
    let pcfg = prepare_config(&cumulative, s.p.has("reorder"));
    let (prepared, minimal) = s.prepare(&input, pcfg, &planned)?;
    // Stages the build skipped under `--degrade` (a loaded artifact records
    // its own build's) degrade every answer.
    s.note_path(prepared.prepare_degradation());
    let mut degraded = minimal || !prepared.prepare_degradation().is_empty();
    let n = prepared.original().num_nodes();
    eprintln!(
        "note: prepared once in {:.3}s — {} of {} vertices survive the reduction; \
         {} estimates share the artifact",
        prepared.prepare_elapsed().as_secs_f64(),
        prepared.num_surviving(),
        n,
        methods.len() * rates.len(),
    );
    let exact = if s.p.has("exact") { Some(prepared.exact(&s.ctx)?) } else { None };

    struct Row {
        method: &'static str,
        rate: f64,
        sources: usize,
        seconds: f64,
        quality: Option<f64>,
        outcome: RunOutcome,
    }
    let mut rows: Vec<Row> = Vec::with_capacity(methods.len() * rates.len());
    let mut worst = RunOutcome::Complete;
    for &(method, ref request) in &methods {
        for &rate in &rates {
            // Under --degrade a faulted cell degrades alone instead of
            // failing the whole comparison.
            let Answer::Estimate(d) = query(&prepared, request, rate, seed, &s.ctx)? else {
                unreachable!("compare queries estimates only")
            };
            if d.degraded {
                degraded = true;
                s.note_path(&d.path);
            }
            let est = d.estimate;
            worst = worst.merge(est.outcome());
            rows.push(Row {
                method,
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

    if s.p.has("json") {
        let doc = serde_json::json!({
            "graph": path,
            "seed": seed,
            "prepare_seconds": prepared.prepare_elapsed().as_secs_f64(),
            "surviving_vertices": prepared.num_surviving(),
            "runs": rows.iter().map(|r| serde_json::json!({
                "method": r.method,
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
    exit_status(worst, degraded)
}

fn topk(s: &Scope<'_>) -> Result<(), CliError> {
    let (path, rest) = s.locate(1)?;
    let k: usize = rest[0].parse().map_err(|e| CliError::Usage(format!("bad k: {e}")))?;
    let prune = match s.p.get("topk-prune").unwrap_or("on") {
        "on" | "" => true,
        "off" => false,
        other => {
            return Err(CliError::Usage(format!("--topk-prune {other}: expected on|off")))
        }
    };
    let input = s.input(path)?;
    let rate = s.rate(0.3)?;
    let seed = s.seed()?;
    // One prepared artifact (reduction + Block-Cut Tree built once, a
    // single `reduce` span) serves the cumulative estimate and the
    // verification scan, both covered by the cumulative admission envelope.
    let cumulative = DegradedRequest::Estimate(Method::Cumulative);
    let pcfg = prepare_config(&cumulative, s.p.has("reorder"));
    let (prepared, _) = s.prepare(&input, pcfg, std::slice::from_ref(&cumulative))?;
    let n = prepared.original().num_nodes();
    // Top-k promises exact answers, so interruption is an error (exit 4),
    // never a shorter or looser ranking.
    let t = prepared.topk_with(k, SampleSize::Fraction(rate), seed, prune, &s.ctx)?;
    eprintln!(
        "note: {} pruned, {} cut mid-sweep, {} verified by BFS, {} for free (of {})",
        t.pruned,
        t.pruned_bfs,
        t.verified_with_bfs,
        t.verified_for_free,
        n
    );
    if s.p.has("json") {
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
    Ok(())
}

fn betweenness(s: &Scope<'_>) -> Result<(), CliError> {
    let g = s.read(s.arg(0)?)?;
    let top: usize = s.p.get_parse("top", 10).map_err(CliError::Usage)?;
    let sampled = if s.p.has("exact") { None } else { Some((s.rate(0.3)?, s.seed()?)) };
    let (values, outcome) = match sampled {
        None => (
            timed(s.ctx.recorder(), "estimate", || brics::betweenness::exact_betweenness(&g)),
            RunOutcome::Complete,
        ),
        // An interrupted run prints the unbiased estimate over the
        // completed pivots.
        Some((rate, seed)) => brics::betweenness::sampled_betweenness_in(
            &g,
            SampleSize::Fraction(rate),
            seed,
            &s.ctx,
        )?,
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
    exit_status(outcome, false)
}

fn generate(s: &Scope<'_>) -> Result<(), CliError> {
    let class: GraphClass = s.arg(0)?.parse().map_err(CliError::Usage)?;
    let nodes: usize =
        s.arg(1)?.parse().map_err(|e| CliError::Usage(format!("bad node count: {e}")))?;
    let seed = s.seed()?;
    let g = timed(s.ctx.recorder(), "generate.build", || {
        class.generate(ClassParams::new(nodes, seed))
    });
    eprintln!(
        "generated {} graph: {} vertices, {} edges (seed {seed})",
        class.name(),
        g.num_nodes(),
        g.num_edges()
    );
    match s.p.get("out") {
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
        let read_report = |args: &[&str]| -> brics::RunReport {
            let text = std::fs::read_to_string(&out)
                .unwrap_or_else(|e| panic!("{args:?}: no report written: {e}"));
            let report: brics::RunReport = serde_json::from_str(&text)
                .unwrap_or_else(|e| panic!("{args:?}: report does not parse: {e}"));
            assert_eq!(report.schema, brics::RunReport::SCHEMA, "{args:?}");
            report
        };
        run(&["generate", "road", "300", "--seed", "2", "--out", path.to_str().unwrap(),
              "--metrics", o])
            .unwrap();
        let g: &str = path.to_str().unwrap();
        let art = tmp("metall.brics");
        let a = art.to_str().unwrap();
        run(&["prepare", g, a]).unwrap();
        for args in [
            vec!["stats", g, "--metrics", o],
            vec!["farness", g, "--method", "random", "--rate", "0.3", "--metrics", o],
            vec!["farness", g, "--method", "exact", "--top", "3", "--metrics", o],
            vec!["topk", g, "3", "--metrics", o],
            vec!["betweenness", g, "--top", "3", "--metrics", o],
        ] {
            run(&args).unwrap_or_else(|e| panic!("{args:?}: {e}"));
            let report = read_report(&args);
            assert!(!report.events.iter().any(|e| e.kind == "exit"), "{args:?}: exit event");
        }

        // Every early exit a command has writes its report too, with one
        // `exit` event naming the code: a usage error once the telemetry
        // flags parsed, a missing or malformed graph, a missing artifact,
        // an injected `io.read` error, an expired deadline, a worker panic
        // and a degraded answer. Where a malformed flag meets an input that
        // does not read, the code is the one each command has always given:
        // a graph is read before the command's own flags are parsed, an
        // artifact is loaded after them, and `topk` parses <k> first.
        let bad = tmp("metall-bad.el");
        std::fs::write(&bad, "1 2\nfoo bar\n").unwrap();
        let bad = bad.to_str().unwrap();
        let nowhere = tmp("metall-absent.el");
        let nowhere = nowhere.to_str().unwrap();
        let io = "io.read=io-error";
        let panic = "bfs.source=panic@every:1";
        let deny = "alloc.admit=mem-deny";
        let cells: Vec<(Vec<&str>, u8)> = vec![
            (vec!["stats", g, "--timeout", "abc"], 2),
            (vec!["stats", nowhere], 3),
            (vec!["stats", bad], 3),
            (vec!["stats", g, "--fault", io], 3),
            (vec!["prepare", g, "x.brics", "--method", "magic"], 2),
            (vec!["prepare", nowhere, "x.brics"], 3),
            (vec!["prepare", bad, "x.brics"], 3),
            (vec!["prepare", g, "x.brics", "--fault", io], 3),
            (vec!["prepare", g, "x.brics", "--timeout", "0"], 4),
            (vec!["prepare", g, "x.brics", "--fault", panic], 5),
            (vec!["farness", g, "--rate", "2"], 2),
            (vec!["farness", g, "--method", "magic"], 2),
            (vec!["farness", nowhere], 3),
            (vec!["farness", bad], 3),
            (vec!["farness", "--artifact", nowhere], 3),
            (vec!["farness", g, "--fault", io], 3),
            (vec!["farness", g, "--timeout", "0", "--top", "1"], 4),
            (vec!["farness", g, "--method", "random", "--fault", panic], 5),
            (vec!["farness", g, "--fault", deny, "--degrade", "--top", "1"], 6),
            (vec!["farness", nowhere, "--rate", "2"], 3),
            (vec!["farness", "--artifact", nowhere, "--method", "magic"], 2),
            (vec!["compare", g, "--seed", "x"], 2),
            (vec!["compare", nowhere], 3),
            (vec!["compare", bad], 3),
            (vec!["compare", "--artifact", nowhere], 3),
            (vec!["compare", g, "--fault", io], 3),
            (vec!["compare", g, "--timeout", "0"], 4),
            (vec!["compare", "--artifact", a, "--rates", "0.3", "--fault", panic], 5),
            (vec!["compare", g, "--rates", "0.3", "--fault", deny, "--degrade"], 6),
            (vec!["compare", bad, "--seed", "x"], 3),
            (vec!["compare", "--artifact", nowhere, "--rates", "0"], 2),
            (vec!["topk", g, "3", "--rate", "2"], 2),
            (vec!["topk", nowhere, "3"], 3),
            (vec!["topk", bad, "3"], 3),
            (vec!["topk", "--artifact", nowhere, "3"], 3),
            (vec!["topk", g, "3", "--fault", io], 3),
            (vec!["topk", g, "3", "--timeout", "0"], 4),
            (vec!["topk", g, "3", "--fault", panic], 5),
            (vec!["topk", nowhere, "abc"], 2),
            (vec!["topk", "--artifact", nowhere, "abc"], 2),
            (vec!["topk", g, "abc", "--fault", io], 2),
            (vec!["topk", nowhere, "3", "--seed", "x"], 3),
            (vec!["betweenness", g, "--seed", "x"], 2),
            (vec!["betweenness", nowhere], 3),
            (vec!["betweenness", bad], 3),
            (vec!["betweenness", g, "--fault", io], 3),
            (vec!["betweenness", g, "--timeout", "0", "--top", "1"], 4),
            (vec!["betweenness", g, "--fault", panic], 5),
            (vec!["betweenness", nowhere, "--top", "x"], 3),
            (vec!["generate", "road", "10", "--seed", "x"], 2),
        ];
        for (mut args, code) in cells {
            args.extend(["--metrics", o]);
            let _ = std::fs::remove_file(&out);
            let err = run(&args).expect_err("cell must fail");
            assert_eq!(err.exit_code(), code, "{args:?}: {err}");
            let report = read_report(&args);
            let exits: Vec<_> = report.events.iter().filter(|e| e.kind == "exit").collect();
            assert_eq!(exits.len(), 1, "{args:?}: {exits:?}");
            assert!(exits[0].detail.starts_with(&format!("exit {code}: ")), "{args:?}: {exits:?}");
            // Runs that got past their input ran under a stamped memory plan.
            if matches!(args[0], "topk" | "compare") && code >= 4 {
                assert!(report.memory.planned_bytes > 0, "{args:?}: no memory plan");
            }
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
        // Commands that never read the limits still reject malformed ones.
        for args in [
            vec!["stats", path.to_str().unwrap(), "--fault", "bogus.site=panic"],
            vec!["stats", path.to_str().unwrap(), "--timeout", "abc"],
            vec!["generate", "road", "10", "--fault", "bogus.site=panic"],
            vec!["generate", "road", "10", "--timeout", "abc"],
        ] {
            assert_eq!(run(&args).unwrap_err().exit_code(), 2, "{args:?}");
        }
        for rate in ["0", "1.5", "-0.1", "zebra"] {
            let err = run(&["farness", path.to_str().unwrap(), "--degrade", rate]).unwrap_err();
            assert_eq!(err.exit_code(), 2, "--degrade {rate:?}: {err}");
        }
    }

    #[test]
    fn shared_flags_a_command_does_not_take_are_ignored() {
        let path = tmp("untaken.el");
        let g = path.to_str().unwrap();
        run(&["generate", "road", "150", "--out", g, "--kernel", "bogus", "--degrade", "9",
              "--max-mem-mb", "x"])
            .unwrap();
        run(&["stats", g, "--kernel", "bogus", "--degrade", "9", "--max-mem-mb", "x"]).unwrap();
        run(&["betweenness", g, "--kernel", "bogus", "--degrade", "9"]).unwrap();
        // `--degrade` arms no fallback outside farness and compare: a
        // panicking BCT build still fails prepare and topk (exit 5), and
        // prepare writes no artifact.
        let art = tmp("untaken.brics");
        let _ = std::fs::remove_file(&art);
        let fault = "bct.build=panic@every:1";
        for args in [
            vec!["prepare", g, art.to_str().unwrap(), "--degrade", "--fault", fault],
            vec!["topk", g, "3", "--degrade", "--fault", fault],
        ] {
            assert_eq!(run(&args).unwrap_err().exit_code(), 5, "{args:?}");
        }
        assert!(!art.exists(), "prepare saved an artifact after a failed build");
    }

    #[test]
    fn injected_io_error_is_an_input_error() {
        let path = tmp("iofault.el");
        run(&["generate", "road", "150", "--out", path.to_str().unwrap()]).unwrap();
        for cmd in ["farness", "stats", "betweenness"] {
            let err = run(&[cmd, path.to_str().unwrap(), "--fault", "io.read=io-error"])
                .unwrap_err();
            assert_eq!(err.exit_code(), 3, "{cmd}: {err}");
        }
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
