//! Smoke runs of every workload at ~2k vertices: every check kind runs and
//! passes, and every metric `BENCHMARK.json` declares is printed with its
//! unit, untraced and traced.

mod common;

use common::{at, e2e, has_cli, workloads, Run};
use serde_json::Value;

/// (name, unit) of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
    doc.get(section)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
        .iter()
        .map(|m| {
            let field = |k| at(m, &[k]).as_str().expect("string field").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn assert_result_line(run: &Run) {
    assert!(run.ok, "e2e exited non-zero");
    let last = run.stdout.lines().last().expect("output");
    let result: Value = serde_json::from_str(last).expect("last line is JSON");
    assert_eq!(at(&result, &["correct"]).as_bool(), Some(true));
    assert_eq!(
        at(&result, &["failed"]).as_u64(),
        Some(0),
        "failed_frac must be 0"
    );
    assert!(at(&result, &["attempted"]).as_u64().unwrap() >= 1);
}

/// Every declared metric appears as `workload metric value unit`.
fn assert_printed(run: &Run, section: &str) {
    let cli = has_cli();
    if !cli {
        eprintln!("note: no `brics` binary next to e2e; the CLI metrics are not checked");
    }
    for w in workloads(&run.doc) {
        let name = at(w, &["workload"]).as_str().unwrap();
        for (metric, unit) in declared(section) {
            if !cli && metric.starts_with("cli") {
                continue;
            }
            let prefix = format!("{name} {metric} ");
            let line = run
                .stdout
                .lines()
                .find(|l| l.starts_with(&prefix))
                .unwrap_or_else(|| panic!("{name}: {metric} not printed"));
            let value = line[prefix.len()..].split(' ').next().unwrap();
            assert!(
                value.parse::<f64>().is_ok(),
                "{line}: value is not a number"
            );
            assert!(
                line.ends_with(&format!(" {unit}")),
                "{line}: unit should be {unit}"
            );
        }
    }
}

#[test]
fn smoke_runs_every_workload_and_check_kind() {
    let run = e2e("smoke", &["--smoke", "--seed", "7"]);
    assert_result_line(&run);
    let mut kinds = vec![
        "complete",
        "lower_bound",
        "topk",
        "artifact_identical",
        "kernels_equal",
    ];
    if has_cli() {
        kinds.push("cli_top10");
    }
    assert_eq!(workloads(&run.doc).len(), 4);
    for w in workloads(&run.doc) {
        let name = at(w, &["workload"]).as_str().unwrap();
        assert_eq!(at(w, &["failed"]).as_u64(), Some(0), "{name}");
        for kind in &kinds {
            let runs = at(w, &["checks", kind, "run"]).as_u64().unwrap();
            assert!(runs >= 1, "{name}: no {kind} check ran");
            assert_eq!(
                at(w, &["checks", kind, "failed"]).as_u64(),
                Some(0),
                "{name}: {kind}"
            );
        }
    }
    assert_printed(&run, "end_to_end");
}

#[test]
fn traced_smoke_prints_every_layer_metric_and_a_chrome_trace() {
    let run = e2e("smoke-trace", &["--smoke", "--trace", "--seed", "7"]);
    assert_result_line(&run);
    assert_printed(&run, "per_layer");
    let trace =
        std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-trace.trace.json");
    let events: Value = serde_json::from_str(&std::fs::read_to_string(trace).expect("trace file"))
        .expect("trace is JSON");
    let events = events.as_array().expect("trace-event array");
    for span in [
        "prepare",
        "reduce",
        "estimate",
        "topk.verify",
        "prepare.save",
        "artifact.load",
    ] {
        assert!(
            events
                .iter()
                .any(|e| e.get("name").and_then(Value::as_str) == Some(span)),
            "no {span} span in the Chrome trace"
        );
    }
}
