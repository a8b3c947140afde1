//! Per-layer metrics of a traced run.
//!
//! Two sources feed them: timed direct calls into each layer's public
//! functions (reduction pipeline, biconnected decomposition, the four BFS
//! kernels here; the edge-list reader in the measure loop, next to the CLI
//! it is paired with), and the v3 spans and counters the engine already
//! records, which the measure loop's ledger attributes to the operation
//! that caused them.

use crate::checks::Tally;
use crate::measure::{Ledger, Outcome};
use crate::metric::{mean, median_of, metric, Metric, MIB};
use brics::{ReductionConfig, RunControl, RunRecorder};
use brics_bench::kernels::{
    equivalent, measure_frontier_parallel, measure_hybrid, measure_msbfs, measure_topdown,
    spread_sources, KernelMeasurement,
};
use brics_bicc::biconnected_components;
use brics_graph::telemetry::{timed, Metric as Histogram};
use brics_graph::traversal::HybridParams;
use brics_graph::CsrGraph;
use brics_reduce::reduce_ctl_rec;
use std::time::Instant;

/// Sources of the timed kernel sweeps.
const KERNEL_SOURCES: usize = 64;

/// The reduction rules' spans and the metrics they report as.
const RULES: [(&str, &str); 4] = [
    ("reduce.identical", "reduce.identical_s"),
    ("reduce.chains", "reduce.chains_s"),
    ("reduce.redundant", "reduce.redundant_s"),
    ("reduce.contract", "reduce.contract_s"),
];

/// Runs the four BFS kernels from `sources` spread sources (one sweep
/// each) and checks they agree on every distance sum.
pub fn kernels(g: &CsrGraph, sources: usize, tally: &mut Tally) -> [KernelMeasurement; 4] {
    let src = spread_sources(g.num_nodes(), sources);
    let params = HybridParams::default();
    let ms = [
        measure_topdown(g, &src, 1),
        measure_hybrid(g, &src, 1, params),
        measure_msbfs(g, &src, 1),
        measure_frontier_parallel(g, &src, 1, params),
    ];
    let same = tally.check("kernels_equal", equivalent(&ms), || {
        let sums: Vec<_> = ms.iter().map(|m| (m.kernel, m.checksum)).collect();
        format!("kernel distance checksums differ: {sums:?}")
    });
    tally.op(same);
    ms
}

/// Timed direct calls on `g`, each repeated `reps` times; timings are
/// medians.
pub fn direct(g: &CsrGraph, reps: usize, tally: &mut Tally) -> Vec<Metric> {
    let n = g.num_nodes() as f64;
    let mut out = Vec::new();

    let (mut total, mut own, mut peak) = (Vec::new(), Vec::new(), Vec::new());
    let mut rules = vec![Vec::new(); RULES.len()];
    let mut reduced = None;
    for _ in 0..reps {
        let rec = RunRecorder::new();
        let t = Instant::now();
        let red = timed(&rec, "bench.reduce", || {
            reduce_ctl_rec(g, &ReductionConfig::all(), &RunControl::new(), &rec)
        });
        let secs = t.elapsed().as_secs_f64();
        let report = rec.report();
        let phase = |name: &str| report.phases.iter().find(|p| p.name == name);
        let mut in_rules = 0.0;
        for ((span, _), samples) in RULES.iter().zip(&mut rules) {
            let s = phase(span).map_or(0.0, |p| p.total_seconds);
            in_rules += s;
            samples.push(s);
        }
        total.push(secs);
        own.push(secs - in_rules);
        peak.push(phase("bench.reduce").map_or(0, |p| p.mem_footprint_bytes) as f64 / MIB);
        match red {
            Ok(r) => {
                tally.op(true);
                reduced = Some(r);
            }
            Err(outcome) => tally.error("reduce", format!("{outcome:?}")),
        }
    }
    out.push(median_of("reduce.total_s", &total, "s"));
    for ((_, name), samples) in RULES.iter().zip(&rules) {
        out.push(median_of(name, samples, "s"));
    }
    out.push(median_of("reduce.self_s", &own, "s"));
    out.push(median_of("reduce.peak_mib", &peak, "MiB"));

    // The engine decomposes the reduced graph, dropping the singleton
    // blocks of removed (isolated) vertices; so does this call.
    if let Some(red) = reduced {
        let removed = red.removed.iter().filter(|&&r| r).count();
        out.push(metric(
            "reduce.removed_frac",
            removed as f64 / n,
            "ratio",
            1,
        ));
        let mut secs = Vec::new();
        let mut bi = None;
        for _ in 0..reps {
            let t = Instant::now();
            bi = Some(biconnected_components(&red.graph));
            secs.push(t.elapsed().as_secs_f64());
        }
        let bi = bi.expect("reps >= 1");
        let blocks: Vec<_> = bi
            .blocks
            .iter()
            .filter(|b| !b.edges.is_empty() || !red.removed[b.vertices[0] as usize])
            .collect();
        let largest = blocks.iter().map(|b| b.len()).max().unwrap_or(0);
        out.push(median_of("bicc.decompose_s", &secs, "s"));
        out.push(metric("bicc.blocks", blocks.len() as f64, "count", 1));
        out.push(metric(
            "bicc.largest_block_frac",
            largest as f64 / n,
            "ratio",
            1,
        ));
    }

    let ms = kernels(g, KERNEL_SOURCES, tally);
    for (m, name) in ms.iter().zip([
        "traversal.topdown_mteps",
        "traversal.hybrid_mteps",
        "traversal.msbfs_mteps",
        "traversal.frontier_mteps",
    ]) {
        out.push(metric(name, m.mteps, "MTEPS", KERNEL_SOURCES));
    }
    out.push(metric(
        "traversal.kernels_equal",
        f64::from(u8::from(equivalent(&ms))),
        "bool",
        1,
    ));
    out
}

/// Metrics harvested from the traced loop: the edge-list read and CLI self
/// time, spans and counters per operation, top-k pruning, artifact
/// traffic, plan accuracy and tracing overhead.
pub fn from_loop(out: &Outcome, ledger: &Ledger, rec: &RunRecorder) -> Vec<Metric> {
    let s = &out.samples;
    let mut m = vec![median_of("io.read_s", &s.read, "s")];
    // The CLI's wall time less its own `prepare` and `estimate` spans and
    // less a read of the same file: process start, argument handling, the
    // connectivity check and output.
    if !s.cli_self.is_empty() {
        m.push(median_of("cli.self_s", &s.cli_self, "s"));
    }
    let mteps = |op: &str, span: &str| {
        let u = ledger.of(op);
        let secs = u.phase(span);
        if secs > 0.0 {
            u.counter("edges_scanned") / secs / 1e6
        } else {
            0.0
        }
    };

    let build = ledger.of("build");
    for (span, name) in [
        ("cumulative.homing", "cumulative.homing_s"),
        ("cumulative.phase_a", "cumulative.phase_a_s"),
        ("cumulative.sweep", "cumulative.sweep_s"),
        ("cumulative.cut_mass", "cumulative.cut_mass_s"),
    ] {
        m.push(metric(
            name,
            build.phase_per_op(span),
            "s",
            build.ops as usize,
        ));
    }
    let cumulative = ledger.of("cumulative");
    let ops = cumulative.ops as usize;
    m.push(metric(
        "cumulative.phase_b_s",
        cumulative.phase_per_op("cumulative.phase_b"),
        "s",
        ops,
    ));
    m.push(metric(
        "cumulative.phase_b_mteps",
        mteps("cumulative", "cumulative.phase_b"),
        "MTEPS",
        ops,
    ));
    m.push(metric(
        "cumulative.sources",
        cumulative.counter_per_op("bfs_sources"),
        "count",
        ops,
    ));

    let random = ledger.of("random");
    let ops = random.ops as usize;
    m.push(metric(
        "sampling.bfs_s",
        random.phase_per_op("sampling.bfs"),
        "s",
        ops,
    ));
    m.push(metric(
        "sampling.mteps",
        mteps("random", "sampling.bfs"),
        "MTEPS",
        ops,
    ));
    m.push(metric(
        "sampling.sources",
        random.counter_per_op("bfs_sources"),
        "count",
        ops,
    ));
    m.push(metric(
        "traversal.batches_msbfs",
        random.counter_per_op("batches_msbfs"),
        "count",
        ops,
    ));
    m.push(metric(
        "traversal.bottom_up_levels",
        random.counter_per_op("bottom_up_levels"),
        "count",
        ops,
    ));
    let occupancy = rec.histogram(Histogram::BatchOccupancy).quantile(0.5) as f64;
    m.push(metric(
        "traversal.batch_occupancy_p50",
        occupancy,
        "sources",
        1,
    ));

    let topk = ledger.of("topk");
    let ops = topk.ops as usize;
    let pruned: Vec<f64> = out.topk_pruned.iter().map(|&(bound, _)| bound).collect();
    let cut: Vec<f64> = out.topk_pruned.iter().map(|&(_, cut)| cut).collect();
    m.push(metric(
        "topk.estimate_s",
        topk.phase_per_op("estimate"),
        "s",
        ops,
    ));
    m.push(metric(
        "topk.verify_s",
        topk.phase_per_op("topk.verify"),
        "s",
        ops,
    ));
    m.push(metric(
        "topk.bound_pruned_frac",
        mean(&pruned),
        "ratio",
        pruned.len(),
    ));
    m.push(metric("topk.cut_frac", mean(&cut), "ratio", cut.len()));
    m.push(metric(
        "topk.edges_scanned",
        topk.counter_per_op("edges_scanned"),
        "count",
        ops,
    ));
    m.push(metric(
        "topk.cut_levels",
        topk.counter_per_op("topk_cut_levels"),
        "count",
        ops,
    ));

    let mut report = rec.report();
    let save = ledger.of("save");
    let load = ledger.of("cold_start");
    let save_peak = report
        .phases
        .iter()
        .find(|p| p.name == "prepare.save")
        .map_or(0, |p| p.mem_footprint_bytes);
    let mapped = load.counter("artifact_bytes_mapped");
    let copied = load.counter("artifact_bytes_copied");
    m.push(metric(
        "artifact.save_s",
        save.phase_per_op("prepare.save"),
        "s",
        save.ops as usize,
    ));
    m.push(metric(
        "artifact.save_peak_mib",
        save_peak as f64 / MIB,
        "MiB",
        save.ops as usize,
    ));
    m.push(metric(
        "artifact.load_s",
        load.phase_per_op("artifact.load"),
        "s",
        load.ops as usize,
    ));
    m.push(metric(
        "artifact.bytes",
        out.artifact_bytes as f64,
        "bytes",
        1,
    ));
    let mapped_frac = if mapped + copied > 0.0 {
        mapped / (mapped + copied)
    } else {
        0.0
    };
    m.push(metric(
        "artifact.mapped_frac",
        mapped_frac,
        "ratio",
        load.ops as usize,
    ));

    report.stamp_planned_bytes(out.planned_bytes);
    let accuracy = report.memory.plan_accuracy.unwrap_or(0.0);
    m.push(metric("memory.plan_accuracy", accuracy, "ratio", 1));
    let traced: f64 = s.cumulative.iter().chain(&s.random).sum();
    let plain: f64 = s.plain_cumulative.iter().chain(&s.plain_random).sum();
    let overhead = if plain > 0.0 {
        traced / plain - 1.0
    } else {
        0.0
    };
    m.push(metric(
        "telemetry.overhead_frac",
        overhead,
        "ratio",
        s.cumulative.len() + s.random.len(),
    ));
    m
}
