//! The four workloads and the graphs they run on.

use brics_graph::generators::{ClassParams, GraphClass};
use brics_graph::CsrGraph;

/// One benchmark workload: one generated graph, like a dataset, and the
/// sampling rate its queries use.
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Generator class of the input graph.
    pub class: GraphClass,
    /// Target vertex count of a full run.
    pub nodes: usize,
    /// Sampling rate of every query.
    pub rate: f64,
}

/// Target vertex count of every graph under `--smoke`.
const SMOKE_NODES: usize = 2_000;

/// Generator seed of every workload's graph. The graph is part of the
/// workload, not of the run: graphs of one class and size differ in cost by
/// up to a fifth (top-k on web graphs) and in quality by a tenth (sampling
/// on R-MAT graphs), so a per-run graph would bury a regression. The run's
/// `--seed` picks the check set and the query seeds instead.
const GRAPH_SEED: u64 = 1;

/// Why each workload exists is recorded in `BENCHMARK.json` and the README:
/// `web-scan` is the most reducible class (reduce, BiCC and phase B do the
/// work); `road-scan` has a high diameter and one giant block (random
/// sampling and kernel choice dominate); `rmat-cold` has no planted
/// structure and is the largest graph, so setup, the artifact write and
/// read, and the heap peak of the save dominate; `community-topk` is where
/// top-k verification cuts most sweeps early.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "web-scan",
        class: GraphClass::Web,
        nodes: 60_000,
        rate: 0.01,
    },
    Workload {
        name: "road-scan",
        class: GraphClass::Road,
        nodes: 15_000,
        rate: 0.02,
    },
    Workload {
        name: "rmat-cold",
        class: GraphClass::Rmat,
        nodes: 1 << 16,
        rate: 0.001,
    },
    Workload {
        name: "community-topk",
        class: GraphClass::Community,
        nodes: 25_000,
        rate: 0.01,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Generates the workload's graph.
    pub fn generate(&self, smoke: bool) -> CsrGraph {
        let nodes = if smoke { SMOKE_NODES } else { self.nodes };
        self.class.generate(ClassParams::new(nodes, GRAPH_SEED))
    }
}

/// Worker threads for the engine and for every spawned CLI: one per
/// available core, so no run oversubscribes the machine.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
