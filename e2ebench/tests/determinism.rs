//! Same seed, same inputs and answers. Another seed keeps the workload's
//! graph and draws other check vertices and query seeds.

mod common;

use common::{at, e2e, workloads};
use serde_json::Value;

/// The artifact stores the prepare stage's wall time as decimal JSON, so
/// its size can differ by a digit or two between runs of the same input.
const ARTIFACT_DIGITS_SLACK: u64 = 8;

#[test]
fn deterministic_leaves_repeat_per_seed() {
    let a = e2e("det-a", &["--smoke", "--seed", "7"]);
    let b = e2e("det-b", &["--smoke", "--seed", "7"]);
    let c = e2e("det-c", &["--smoke", "--seed", "8"]);
    assert!(a.ok && b.ok && c.ok);
    let (wa, wb, wc) = (workloads(&a.doc), workloads(&b.doc), workloads(&c.doc));
    assert_eq!(wa.len(), 4);
    for ((x, y), z) in wa.iter().zip(wb).zip(wc) {
        let name = at(x, &["workload"]).as_str().unwrap();
        let (lx, ly) = (at(x, &["deterministic"]), at(y, &["deterministic"]));
        let leaf = |d: &Value, key| serde_json::to_string(at(d, &[key])).unwrap();
        for key in [
            "nodes",
            "edges",
            "graph_checksum",
            "reduce.removed_frac",
            "cumulative_quality",
            "random_quality",
            "topk_ranked_checksum",
        ] {
            assert_eq!(
                leaf(lx, key),
                leaf(ly, key),
                "{name}: {key} differs between two --seed 7 runs"
            );
        }
        let bytes = |d: &Value| at(d, &["artifact.bytes"]).as_u64().unwrap();
        assert!(
            bytes(lx).abs_diff(bytes(ly)) <= ARTIFACT_DIGITS_SLACK,
            "{name}: artifact.bytes"
        );
        let lz = at(z, &["deterministic"]);
        assert_eq!(
            leaf(lx, "graph_checksum"),
            leaf(lz, "graph_checksum"),
            "{name}: the graph belongs to the workload, not the seed"
        );
        assert_ne!(
            leaf(lx, "random_quality"),
            leaf(lz, "random_quality"),
            "{name}: --seed 8 should draw other check vertices and sources"
        );
    }
}
