//! Runs the `e2e` binary and reads back its `--out` document.

// Each test binary uses its own subset of these helpers.
#![allow(dead_code)]

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

pub struct Run {
    pub ok: bool,
    pub stdout: String,
    pub doc: Value,
}

/// Runs `e2e <args> --out <tmp>/<name>.json`.
pub fn e2e(name: &str, args: &[&str]) -> Run {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.json"));
    let output = Command::new(env!("CARGO_BIN_EXE_e2e"))
        .args(args)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("e2e runs");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    if !output.status.success() {
        eprintln!("{}", String::from_utf8_lossy(&output.stderr));
    }
    let text = std::fs::read_to_string(&out).expect("e2e wrote its document");
    Run {
        ok: output.status.success(),
        stdout,
        doc: serde_json::from_str(&text).expect("valid JSON"),
    }
}

/// The per-workload documents of a full run.
pub fn workloads(doc: &Value) -> &[Value] {
    doc.get("workloads")
        .and_then(Value::as_array)
        .expect("workloads array")
}

/// `doc[a][b]...`
pub fn at<'v>(doc: &'v Value, path: &[&str]) -> &'v Value {
    path.iter().fold(doc, |v, k| {
        v.get(k)
            .unwrap_or_else(|| panic!("missing {k} in {path:?}"))
    })
}

/// Whether a `brics` binary sits next to the bench executable.
pub fn has_cli() -> bool {
    Path::new(env!("CARGO_BIN_EXE_e2e"))
        .with_file_name("brics")
        .is_file()
}
