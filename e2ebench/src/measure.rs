//! The measured loop of one workload: one caller, one request at a time.
//!
//! A run works on the workload's graph. It runs every
//! operation a user of the engine performs, in rounds: `PreparedGraph::build`
//! (set-up), cumulative and random-sampling queries, a top-k query, an
//! artifact save followed by a cold start from it, and a spawned `brics
//! farness`. Within a round each operation repeats until it has taken the
//! plan's share of time, and the round keeps the fastest repetition. Round 0
//! is the warm-up: its timings are dropped, because the first pass grows
//! the heap and creates the files the later ones reuse, and it also runs the
//! untimed queries the qualities come from. Rounds repeat while another one
//! fits in the run's time, and never fewer than the plan's minimum.

use crate::checks::{self, CheckSet, Tally};
use crate::workloads::Workload;
use brics::{
    CentralityError, ExecutionContext, FarnessEstimate, PreparedGraph, Recorder, ReductionConfig,
    RunRecorder, SampleSize,
};
use brics_graph::io::{read_edge_list, write_edge_list};
use brics_graph::CsrGraph;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Size of every top-k query.
const TOPK_K: usize = 10;
/// Vertices every answer is checked against.
const CHECK_SET: usize = 128;
/// Sources of the kernel-equality check.
const CHECK_SOURCES: usize = 8;
/// Untimed queries per method that the qualities average over.
const QUALITY_QUERIES: u64 = 8;
/// Most repetitions of one operation in one round.
const MAX_REPS: u64 = 16;

/// How much work one run does.
pub struct Plan {
    /// Rounds, the warm-up included, that run however long they take.
    pub min_rounds: usize,
    /// Further rounds start only while one more still fits in this time.
    pub seconds: Duration,
    /// Within a round, an operation repeats until it has taken this many
    /// seconds in total (at most `MAX_REPS` times, at least once).
    pub op_seconds: f64,
}

/// What one workload run works on.
pub struct Env {
    pub workload: &'static Workload,
    pub seed: u64,
    pub smoke: bool,
    pub threads: usize,
    /// Where the graph is written as an edge list for the CLI.
    pub graph_file: PathBuf,
    pub artifact_file: PathBuf,
    /// The `brics` binary, when one sits next to this executable.
    pub cli: Option<PathBuf>,
    pub plan: Plan,
}

impl Env {
    /// The workload's graph.
    pub fn graph(&self) -> CsrGraph {
        self.workload.generate(self.smoke)
    }

    /// Writes `g` to the edge-list file the CLI and the reader load.
    pub fn write_graph(&self, g: &CsrGraph) -> Result<(), String> {
        write_edge_list(g, &self.graph_file)
            .map_err(|e| format!("cannot write {}: {e}", self.graph_file.display()))
    }

    /// Where a traced run's spawned CLI writes its run report.
    fn cli_report(&self) -> PathBuf {
        self.graph_file.with_extension("report.json")
    }

    fn sample(&self) -> SampleSize {
        SampleSize::Fraction(self.workload.rate)
    }

    /// Runs `op` (which returns the seconds it spent) until the plan's
    /// share of the round is spent; `op` gets the repetition index.
    fn repeat(&self, mut op: impl FnMut(u64) -> f64) {
        let mut spent = 0.0;
        for rep in 0..MAX_REPS {
            spent += op(rep);
            if spent >= self.plan.op_seconds {
                break;
            }
        }
    }
}

/// The fastest successful repetition of an operation within one round.
#[derive(Default)]
struct Fastest(Option<f64>);

impl Fastest {
    fn add(&mut self, secs: f64) {
        self.0 = Some(self.0.map_or(secs, |best| best.min(secs)));
    }

    /// Appends the round's fastest repetition, if any succeeded.
    fn push_to(self, samples: &mut Vec<f64>) {
        samples.extend(self.0);
    }
}

/// The fastest repetition of each operation in one round.
#[derive(Default)]
struct Round {
    setup: Fastest,
    cumulative: Fastest,
    random: Fastest,
    plain_cumulative: Fastest,
    plain_random: Fastest,
    topk: Fastest,
    save: Fastest,
    cold_start: Fastest,
    read: Fastest,
    cli: Fastest,
    /// The CLI's wall time less its own `prepare` and `estimate` spans.
    cli_outside: Fastest,
}

impl Round {
    fn record(self, s: &mut Samples) {
        if let (Some(outside), Some(read)) = (self.cli_outside.0, self.read.0) {
            s.cli_self.push(outside - read);
        }
        self.setup.push_to(&mut s.setup);
        self.cumulative.push_to(&mut s.cumulative);
        self.random.push_to(&mut s.random);
        self.plain_cumulative.push_to(&mut s.plain_cumulative);
        self.plain_random.push_to(&mut s.plain_random);
        self.topk.push_to(&mut s.topk);
        self.save.push_to(&mut s.save);
        self.cold_start.push_to(&mut s.cold_start);
        self.read.push_to(&mut s.read);
        self.cli.push_to(&mut s.cli);
    }
}

/// One value per timed round (the warm-up excluded), in seconds unless
/// named otherwise: the round's fastest repetition of the operation.
#[derive(Default)]
pub struct Samples {
    pub setup: Vec<f64>,
    pub cumulative: Vec<f64>,
    pub random: Vec<f64>,
    pub topk: Vec<f64>,
    pub save: Vec<f64>,
    pub cold_start: Vec<f64>,
    pub cli: Vec<f64>,
    /// One value per untimed warm-up query.
    pub cumulative_quality: Vec<f64>,
    pub random_quality: Vec<f64>,
    /// Trace runs only: untraced twins of the queries, `read_edge_list` on
    /// the edge list, and the CLI's own time: its wall time less its
    /// `prepare` and `estimate` spans and less that read.
    pub plain_cumulative: Vec<f64>,
    pub plain_random: Vec<f64>,
    pub read: Vec<f64>,
    pub cli_self: Vec<f64>,
}

/// Counter and span totals attributed to one kind of operation.
#[derive(Default)]
pub struct Usage {
    pub ops: u64,
    pub counters: BTreeMap<String, u64>,
    pub phases: BTreeMap<String, f64>,
}

impl Usage {
    /// A counter's total.
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// A span's total seconds.
    pub fn phase(&self, name: &str) -> f64 {
        self.phases.get(name).copied().unwrap_or(0.0)
    }

    /// A counter's total per operation.
    pub fn counter_per_op(&self, name: &str) -> f64 {
        self.counter(name) / self.ops.max(1) as f64
    }

    /// A span's total seconds per operation.
    pub fn phase_per_op(&self, name: &str) -> f64 {
        self.phase(name) / self.ops.max(1) as f64
    }
}

type Snapshot = (BTreeMap<String, u64>, BTreeMap<String, f64>);

fn snapshot(rec: &RunRecorder) -> Snapshot {
    let r = rec.report();
    (
        r.counters,
        r.phases
            .into_iter()
            .map(|p| (p.name, p.total_seconds))
            .collect(),
    )
}

/// Attributes a recorder's counter and span growth to the operation that
/// caused it, by snapshotting the recorder around each operation (outside
/// the timed region).
pub struct Ledger<'r> {
    rec: Option<&'r RunRecorder>,
    usage: BTreeMap<&'static str, Usage>,
    empty: Usage,
}

impl<'r> Ledger<'r> {
    fn new(rec: Option<&'r RunRecorder>) -> Self {
        Self {
            rec,
            usage: BTreeMap::new(),
            empty: Usage::default(),
        }
    }

    /// Runs and times `f`, charging the recorder's growth to `op`.
    fn timed<T>(&mut self, op: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let before = self.rec.map(snapshot);
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        if let (Some(rec), Some((c0, p0))) = (self.rec, before) {
            let (c1, p1) = snapshot(rec);
            let u = self.usage.entry(op).or_default();
            u.ops += 1;
            for (k, v) in c1 {
                let grown = v - c0.get(&k).copied().unwrap_or(0);
                *u.counters.entry(k).or_default() += grown;
            }
            for (k, v) in p1 {
                let grown = v - p0.get(&k).copied().unwrap_or(0.0);
                *u.phases.entry(k).or_default() += grown;
            }
        }
        (out, secs)
    }

    /// Usage charged to `op` (empty when nothing was recorded).
    pub fn of(&self, op: &str) -> &Usage {
        self.usage.get(op).unwrap_or(&self.empty)
    }
}

/// Everything one run of the loop produced.
#[derive(Default)]
pub struct Outcome {
    pub samples: Samples,
    /// Rounds run, the warm-up included.
    pub rounds: usize,
    /// The graph: vertices, edges, arcs.
    pub graph: (usize, usize, usize),
    pub graph_checksum: u64,
    /// Surviving vertices after reduction.
    pub survivors: usize,
    /// The first top-k ranking.
    pub topk_checksum: u64,
    /// The artifact size.
    pub artifact_bytes: u64,
    /// (bound-pruned, cut-mid-sweep) candidates of each top-k query, as
    /// fractions of the graph's vertices.
    pub topk_pruned: Vec<(f64, f64)>,
    /// The prepared graph's memory-plan figure.
    pub planned_bytes: u64,
}

fn estimate<R: Recorder>(
    p: &PreparedGraph,
    random: bool,
    sample: SampleSize,
    seed: u64,
    ctx: &ExecutionContext<'_, R>,
) -> Result<FarnessEstimate, CentralityError> {
    if random {
        p.sample(sample, seed, ctx)
    } else {
        p.cumulative(sample, seed, ctx)
    }
}

/// Runs the loop. Every operation goes through `ctx`; when `probe` is the
/// recorder attached to `ctx`, each query also runs untraced (the twin
/// timings give the tracing overhead), the ledger attributes the
/// recorder's growth per operation, and the edge-list read and the CLI's
/// own time are measured.
pub fn run<'r, R: Recorder>(
    env: &Env,
    tally: &mut Tally,
    ctx: &ExecutionContext<'_, R>,
    probe: Option<&'r RunRecorder>,
) -> Result<(Outcome, Ledger<'r>), String> {
    let plain = ExecutionContext::new().with_threads(env.threads);
    let sample = env.sample();
    let mut ledger = Ledger::new(probe);
    let mut out = Outcome::default();

    // The run's input, untimed: the graph, the exact farness of its check
    // set, the kernel-equality check and the edge list the CLI reads.
    let graph = env.graph();
    let n = graph.num_nodes();
    out.graph = (n, graph.num_edges(), graph.num_arcs());
    out.graph_checksum = checks::graph_checksum(&graph);
    let mut set = CheckSet::new(&graph, CHECK_SET, env.seed);
    crate::layers::kernels(&graph, CHECK_SOURCES, tally);
    env.write_graph(&graph)?;

    // The cumulative answer at the run seed, which the artifact and CLI
    // answers must match.
    let mut reference = Vec::new();
    let start = Instant::now();
    let mut last_round = Duration::ZERO;
    while out.rounds < env.plan.min_rounds || start.elapsed() + last_round <= env.plan.seconds {
        let round_start = Instant::now();
        let warm_up = out.rounds == 0;
        let mut round = Round::default();

        let mut prepared = None;
        let mut build_error = None;
        env.repeat(|_| {
            prepared = None;
            let (built, secs) = ledger.timed("build", || {
                PreparedGraph::build(&graph, &ReductionConfig::all(), ctx)
            });
            match built {
                Ok(p) => {
                    tally.op(true);
                    round.setup.add(secs);
                    prepared = Some(p);
                }
                Err(e) => {
                    tally.error("build", &e);
                    build_error = Some(e.to_string());
                }
            }
            secs
        });
        let p = match (prepared, build_error) {
            (Some(p), None) => p,
            (_, e) => return Err(format!("build failed: {}", e.unwrap_or_default())),
        };

        if warm_up {
            out.survivors = p.num_surviving();
            let plan = p.plan();
            out.planned_bytes = plan.cumulative_bytes.max(plan.accumulate_bytes);
            // Untimed queries at seeds seed, seed+1, ...: the qualities and
            // the reference answer.
            for i in 0..QUALITY_QUERIES {
                for random in [false, true] {
                    let op = if random { "random" } else { "cumulative" };
                    let s = env.seed.wrapping_add(i);
                    let (est, _) = ledger.timed("warmup", || estimate(&p, random, sample, s, ctx));
                    let est = est.map_err(|e| {
                        tally.error(op, &e);
                        format!("warm-up {op} query failed: {e}")
                    })?;
                    let ok = checks::estimate(tally, &set, &est, op);
                    tally.op(ok);
                    let q = &mut out.samples;
                    if random {
                        q.random_quality.push(set.quality(&est));
                    } else {
                        q.cumulative_quality.push(set.quality(&est));
                        if i == 0 {
                            reference = est.raw().to_vec();
                        }
                    }
                }
            }
        }

        for random in [false, true] {
            let op = if random { "random" } else { "cumulative" };
            let (mut timed, mut twin) = (Fastest::default(), Fastest::default());
            env.repeat(|rep| {
                let s = env.seed.wrapping_add(rep + 1);
                let (est, secs) = ledger.timed(op, || estimate(&p, random, sample, s, ctx));
                if probe.is_some() {
                    let t = Instant::now();
                    let _ = estimate(&p, random, sample, s, &plain);
                    twin.add(t.elapsed().as_secs_f64());
                }
                match est {
                    Ok(est) => {
                        let ok = checks::estimate(tally, &set, &est, op);
                        tally.op(ok);
                        timed.add(secs);
                    }
                    Err(e) => tally.error(op, e),
                }
                secs
            });
            if random {
                (round.random, round.plain_random) = (timed, twin);
            } else {
                (round.cumulative, round.plain_cumulative) = (timed, twin);
            }
        }

        env.repeat(|rep| {
            let s = env.seed.wrapping_add(rep);
            let (res, secs) = ledger.timed("topk", || p.topk(TOPK_K, sample, s, ctx));
            match res {
                Ok(res) => {
                    let ok = checks::topk(tally, &mut set, &graph, &res, TOPK_K);
                    tally.op(ok);
                    round.topk.add(secs);
                    if warm_up && rep == 0 {
                        out.topk_checksum = checks::ranked_checksum(&res.ranked);
                    }
                    out.topk_pruned.push((
                        res.pruned as f64 / n as f64,
                        res.pruned_bfs as f64 / n as f64,
                    ));
                }
                Err(e) => tally.error("topk", e),
            }
            secs
        });

        env.repeat(|_| {
            let (saved, save_secs) = ledger.timed("save", || {
                p.save(&env.artifact_file, env.workload.name, ctx)
            });
            let info = match saved {
                Ok(info) => info,
                Err(e) => {
                    tally.error("save", e);
                    return save_secs;
                }
            };
            tally.op(true);
            round.save.add(save_secs);
            out.artifact_bytes = info.bytes;
            // Cold start: map the file just written (so it is in the page
            // cache) and answer the reference query from it.
            let (loaded, secs) = ledger.timed("cold_start", || {
                let (loaded, _) = PreparedGraph::load_with(&env.artifact_file, true, ctx)?;
                let est = loaded.cumulative(sample, env.seed, ctx)?;
                Ok::<_, CentralityError>((loaded, est))
            });
            match loaded {
                Ok((loaded, est)) => {
                    drop(loaded);
                    let same = tally.check("artifact_identical", est.raw() == reference, || {
                        "query after load_with(mmap) differs from the in-memory query".into()
                    });
                    tally.op(same);
                    round.cold_start.add(secs);
                }
                Err(e) => tally.error("cold start", e),
            }
            save_secs + secs
        });
        drop(p);

        // The library's read of the file the CLI parses, timed in the same
        // round so the CLI's own time subtracts a read of the same file.
        if probe.is_some() {
            env.repeat(|_| {
                let t = Instant::now();
                let loaded = read_edge_list(&env.graph_file);
                let secs = t.elapsed().as_secs_f64();
                match loaded {
                    Ok(_) => {
                        tally.op(true);
                        round.read.add(secs);
                    }
                    Err(e) => tally.error("read_edge_list", e),
                }
                secs
            });
        }
        if let Some(cli) = &env.cli {
            let want = checks::top_ids(&reference, TOPK_K);
            env.repeat(|_| match run_cli(env, cli, probe.is_some()) {
                Ok(run) => {
                    let same = tally.check("cli_top10", run.ids == want, || {
                        format!("CLI top-{TOPK_K} {:?}, library {want:?}", run.ids)
                    });
                    tally.op(same);
                    round.cli.add(run.secs);
                    if let Some(spans) = run.library_secs {
                        round.cli_outside.add(run.secs - spans);
                    }
                    run.secs
                }
                Err(e) => {
                    tally.error("cli farness", e);
                    0.0
                }
            });
        }
        if !warm_up {
            round.record(&mut out.samples);
        }
        out.rounds += 1;
        last_round = round_start.elapsed();
    }
    std::fs::remove_file(&env.artifact_file).ok();
    std::fs::remove_file(env.cli_report()).ok();
    Ok((out, ledger))
}

/// One spawned `brics farness`.
struct CliRun {
    /// The printed top-k vertex ids.
    ids: Vec<u32>,
    /// Wall time from spawn to exit.
    secs: f64,
    /// The `prepare` plus `estimate` spans of the CLI's own run report,
    /// when it was asked for one.
    library_secs: Option<f64>,
}

/// Spawns `brics farness <graph> --method cumulative --top 10` at the
/// reference seed; with `report`, the CLI also writes its run report.
fn run_cli(env: &Env, cli: &Path, report: bool) -> Result<CliRun, String> {
    let mut cmd = Command::new(cli);
    cmd.arg("farness")
        .arg(&env.graph_file)
        .args([
            "--method",
            "cumulative",
            "--rate",
            &env.workload.rate.to_string(),
        ])
        .args([
            "--seed",
            &env.seed.to_string(),
            "--top",
            &TOPK_K.to_string(),
        ])
        .env("RAYON_NUM_THREADS", env.threads.to_string())
        .stdin(Stdio::null())
        .stderr(Stdio::null());
    if report {
        cmd.arg("--metrics").arg(env.cli_report());
    }
    let t = Instant::now();
    let output = cmd
        .output()
        .map_err(|e| format!("cannot spawn {}: {e}", cli.display()))?;
    let secs = t.elapsed().as_secs_f64();
    if !output.status.success() {
        return Err(format!("exited with {}", output.status));
    }
    let ids = String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            l.split_whitespace()
                .next()
                .and_then(|id| id.parse().ok())
                .ok_or(l.to_string())
        })
        .collect::<Result<Vec<u32>, _>>()
        .map_err(|line| format!("unparsable output line {line:?}"))?;
    let library_secs = if report {
        Some(library_spans(&env.cli_report())?)
    } else {
        None
    };
    Ok(CliRun {
        ids,
        secs,
        library_secs,
    })
}

/// Seconds a CLI run report spent in the library's `prepare` and
/// `estimate` spans.
fn library_spans(path: &Path) -> Result<f64, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("no CLI run report at {}: {e}", path.display()))?;
    let report: Value =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let phases = report
        .get("phases")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{}: no phases", path.display()))?;
    Ok(phases
        .iter()
        .filter(|p| {
            matches!(
                p.get("name").and_then(Value::as_str),
                Some("prepare" | "estimate")
            )
        })
        .filter_map(|p| p.get("total_seconds").and_then(Value::as_f64))
        .sum())
}
