//! `e2e` — the end-to-end and per-layer benchmark of the BRICS farness
//! engine.
//!
//! ```text
//! e2e --seed <u64> [--workload NAME] [--seconds N] [--trace [0|1]] [--smoke] [--out FILE]
//! ```
//!
//! Without `--workload`, every workload runs in a child process of its own,
//! so the process heap peak belongs to one workload. Each metric prints as
//! `workload metric value unit`; the last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. An
//! untraced run reports the end-to-end metrics; `--trace` reports the
//! per-layer metrics and writes a Chrome trace. `--out` writes the full
//! document. Exit status: 0 when every check passed, 1 when one failed, 2
//! on a usage or environment error.

mod checks;
mod layers;
mod measure;
mod metric;
mod workloads;

use brics::{ExecutionContext, RunRecorder};
use brics_graph::telemetry::{chrome_trace_json, memory, TrackingAllocator};
use checks::Tally;
use measure::{Env, Outcome, Plan};
use metric::{fastest_of, mean, mean_of, median_of, metric, Metric, MIB};
use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::process::{exit, Command, Stdio};
use std::time::{Duration, Instant};
use workloads::{default_threads, Workload, WORKLOADS};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

const DEFAULT_SECONDS: u64 = 25;
/// Within a round, each operation repeats until it has taken this long:
/// quick operations then give many samples per round.
const OP_SECONDS: f64 = 0.3;
/// Per-source and per-level spans are left out of the written Chrome
/// trace: there are hundreds of thousands of them, and the phase spans
/// already carry their totals.
const TRACE_SKIP: [&str; 4] = ["bfs.source", "bfs.level", "bfs.sweep", "topk.cutbfs"];

const USAGE: &str = "usage: e2e --seed <u64> [--workload NAME] [--seconds N] [--trace [0|1]] \
                     [--smoke] [--out FILE]";

struct Args {
    seed: u64,
    workload: Option<&'static Workload>,
    seconds: u64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut seed = None;
    let mut args = Args {
        seed: 0,
        workload: None,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("bad --seed: {e}"))?),
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    Workload::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if args.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                args.trace = it
                    .next_if(|v| *v == "0" || *v == "1")
                    .is_none_or(|v| v == "1");
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.seed = seed.ok_or("--seed is required")?;
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("e2e: {e}\n{USAGE}");
        exit(2);
    });
    let result = match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    };
    exit(result.unwrap_or_else(|e| {
        eprintln!("e2e: {e}");
        2
    }));
}

/// Where the edge list, artifact and child documents of a run live: next
/// to this executable, inside the build directory.
fn work_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("executable has no parent directory")?
        .join("e2e-work");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// `x.json` → `x.trace.json`.
fn trace_path(out: &Path) -> PathBuf {
    out.with_extension("trace.json")
}

/// The last line of standard output: the run's verdict and its metrics.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, &Value)>,
) -> String {
    let metrics = Value::Object(
        metrics
            .into_iter()
            .map(|(name, m)| {
                let pick = |k| m.get(k).cloned().unwrap_or(Value::Null);
                (
                    name,
                    Value::Object(vec![
                        ("value".into(), pick("value")),
                        ("unit".into(), pick("unit")),
                    ]),
                )
            })
            .collect(),
    );
    serde_json::to_string(&json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    .expect("metric values are finite")
}

/// Set-up is the median over the timed rounds; every other timing is the
/// fastest timed round.
fn end_to_end(out: &Outcome) -> Vec<Metric> {
    let s = &out.samples;
    let mut m = vec![
        median_of("setup_s", &s.setup, "s"),
        fastest_of("cumulative_query_s", &s.cumulative, "s"),
        fastest_of("random_query_s", &s.random, "s"),
        mean_of("cumulative_quality", &s.cumulative_quality, "ratio"),
        mean_of("random_quality", &s.random_quality, "ratio"),
        fastest_of("topk_s", &s.topk, "s"),
        fastest_of("save_s", &s.save, "s"),
        fastest_of("cold_start_s", &s.cold_start, "s"),
    ];
    if !s.cli.is_empty() {
        m.push(fastest_of("cli_farness_s", &s.cli, "s"));
    }
    m.push(metric(
        "peak_heap_mib",
        memory::peak_bytes() as f64 / MIB,
        "MiB",
        1,
    ));
    m
}

/// Runs one workload in this process and prints its metrics.
fn run_one(w: &'static Workload, args: &Args) -> Result<i32, String> {
    let started = Instant::now();
    let threads = default_threads();
    // Pins the engine's pool (and, through the environment, every spawned
    // CLI) to one worker per core. Set before any thread exists.
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    let work = work_dir()?;
    let tag = format!("{}-{}-{}", w.name, args.seed, std::process::id());
    let cli = work
        .parent()
        .map(|d| d.join("brics"))
        .filter(|p| p.is_file());
    if cli.is_none() {
        if !args.smoke {
            return Err(
                "no `brics` binary next to this executable; build brics-cli into the \
                        same target directory (e2ebench/run.py does)"
                    .into(),
            );
        }
        eprintln!("note: no `brics` binary next to this executable; the CLI metrics are skipped");
    }
    let plan = if args.smoke {
        Plan {
            min_rounds: 2,
            seconds: Duration::ZERO,
            op_seconds: 0.0,
        }
    } else {
        Plan {
            min_rounds: 3,
            seconds: Duration::from_secs(args.seconds),
            op_seconds: OP_SECONDS,
        }
    };
    let env = Env {
        workload: w,
        seed: args.seed,
        smoke: args.smoke,
        threads,
        graph_file: work.join(format!("{tag}.el")),
        artifact_file: work.join(format!("{tag}.brics")),
        cli,
        plan,
    };
    let mut tally = Tally::default();
    let (metrics, out) = if args.trace {
        let reps = if args.smoke { 1 } else { 3 };
        let mut metrics = layers::direct(&env.graph(), reps, &mut tally);
        let rec = RunRecorder::with_trace();
        let ctx = ExecutionContext::new()
            .with_threads(threads)
            .with_recorder(&rec);
        let (out, ledger) = measure::run(&env, &mut tally, &ctx, Some(&rec))?;
        metrics.extend(layers::from_loop(&out, &ledger, &rec));
        let events: Vec<_> = rec
            .trace_events()
            .into_iter()
            .filter(|e| !TRACE_SKIP.contains(&e.name))
            .collect();
        let path = args
            .out
            .as_deref()
            .map_or_else(|| work.join(format!("{tag}.trace.json")), trace_path);
        write_file(&path, &chrome_trace_json(&events))?;
        eprintln!("chrome trace: {}", path.display());
        (metrics, out)
    } else {
        let ctx = ExecutionContext::new().with_threads(threads);
        let (out, _) = measure::run(&env, &mut tally, &ctx, None)?;
        (end_to_end(&out), out)
    };
    std::fs::remove_file(&env.graph_file).ok();

    let correct = tally.failed == 0;
    let metric_docs: Vec<Value> = metrics
        .iter()
        .map(|m| {
            json!({"name": m.name, "value": m.value, "unit": m.unit, "samples": m.samples,
                   "values": m.values.clone()})
        })
        .collect();
    let (nodes, edges, arcs) = out.graph;
    let doc = json!({
        "workload": w.name,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "threads": threads,
        "graph": json!({"class": w.class.name(), "nodes": nodes, "edges": edges, "arcs": arcs}),
        "rate": w.rate,
        "rounds": out.rounds,
        "wall_s": started.elapsed().as_secs_f64(),
        "deterministic": json!({
            "nodes": nodes,
            "edges": edges,
            "graph_checksum": format!("{:016x}", out.graph_checksum),
            "reduce.removed_frac": 1.0 - out.survivors as f64 / nodes as f64,
            "cumulative_quality": mean(&out.samples.cumulative_quality),
            "random_quality": mean(&out.samples.random_quality),
            "topk_ranked_checksum": format!("{:016x}", out.topk_checksum),
            "artifact.bytes": out.artifact_bytes,
        }),
        "metrics": metric_docs.clone(),
        "checks": Value::Object(
            tally
                .checks
                .iter()
                .map(|(k, c)| (k.to_string(), json!({"run": c.run, "failed": c.failed})))
                .collect(),
        ),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "correct": correct,
        "failures": tally.failures.clone(),
    });
    if let Some(path) = &args.out {
        write_file(
            path,
            &(serde_json::to_string_pretty(&doc).expect("finite metrics") + "\n"),
        )?;
    }
    for m in &metrics {
        println!("{} {} {} {}", w.name, m.name, m.value, m.unit);
    }
    let named = metrics
        .iter()
        .zip(&metric_docs)
        .map(|(m, d)| (m.name.to_string(), d))
        .collect();
    println!(
        "{}",
        result_line(correct, tally.attempted, tally.failed, named)
    );
    Ok(if correct { 0 } else { 1 })
}

/// Runs every workload, each in a child process of this executable, and
/// merges their documents (and, with `--trace`, their Chrome traces).
fn run_all(args: &Args) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let work = work_dir()?;
    let mut docs = Vec::new();
    let mut traces = Vec::new();
    let mut code = 0;
    for w in &WORKLOADS {
        let child_out = work.join(format!(
            "{}-{}-{}.json",
            w.name,
            args.seed,
            std::process::id()
        ));
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .arg("--out")
            .arg(&child_out)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        if args.trace {
            cmd.args(["--trace", "1"]);
        }
        if args.smoke {
            cmd.arg("--smoke");
        }
        let output = cmd
            .output()
            .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let lines: Vec<&str> = stdout.lines().collect();
        for line in lines.iter().take(lines.len().saturating_sub(1)) {
            println!("{line}");
        }
        code = code.max(output.status.code().unwrap_or(2));
        let text = std::fs::read_to_string(&child_out)
            .map_err(|e| format!("{} wrote no document ({e}); exit {}", w.name, output.status))?;
        std::fs::remove_file(&child_out).ok();
        docs.push(serde_json::from_str::<Value>(&text).map_err(|e| format!("{}: {e}", w.name))?);
        if args.trace {
            traces.push((w.name, trace_path(&child_out)));
        }
    }

    let doc = json!({
        "bench": "e2e",
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "threads": default_threads(),
        "workloads": docs.clone(),
    });
    if let Some(path) = &args.out {
        write_file(
            path,
            &(serde_json::to_string_pretty(&doc).expect("finite metrics") + "\n"),
        )?;
        if args.trace {
            write_file(&trace_path(path), &merge_traces(&traces)?)?;
            eprintln!("chrome trace: {}", trace_path(path).display());
        }
    }
    for (_, path) in &traces {
        std::fs::remove_file(path).ok();
    }

    let (mut attempted, mut failed) = (0, 0);
    let mut named = Vec::new();
    for d in &docs {
        attempted += d.get("attempted").and_then(Value::as_u64).unwrap_or(0);
        failed += d.get("failed").and_then(Value::as_u64).unwrap_or(0);
        let name = d.get("workload").and_then(Value::as_str).unwrap_or("?");
        for m in d.get("metrics").and_then(Value::as_array).unwrap_or(&[]) {
            let metric = m.get("name").and_then(Value::as_str).unwrap_or("?");
            named.push((format!("{name}.{metric}"), m));
        }
    }
    println!(
        "{}",
        result_line(code == 0 && failed == 0, attempted, failed, named)
    );
    Ok(code)
}

/// Concatenates per-workload Chrome traces, one trace process per
/// workload, labelled with its name.
fn merge_traces(traces: &[(&str, PathBuf)]) -> Result<String, String> {
    let mut all = Vec::new();
    for (pid, (name, path)) in traces.iter().enumerate() {
        let pid = pid as u64 + 1;
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let Value::Array(events) =
            serde_json::from_str::<Value>(&text).map_err(|e| format!("{}: {e}", path.display()))?
        else {
            return Err(format!("{} is not a trace-event array", path.display()));
        };
        all.push(json!({"name": "process_name", "ph": "M", "pid": pid, "args": json!({"name": name.to_string()})}));
        for mut event in events {
            if let Value::Object(fields) = &mut event {
                for (k, v) in fields.iter_mut() {
                    if k == "pid" {
                        *v = Value::UInt(pid);
                    }
                }
            }
            all.push(event);
        }
    }
    Ok(serde_json::to_string(&Value::Array(all)).expect("trace values are finite") + "\n")
}
