//! Zero-dependency run telemetry: phase spans, atomic counters, value
//! histograms, timestamped traces and a stable-schema JSON run report.
//!
//! Every layer that makes an invisible runtime decision — the reduction
//! pipeline, the BCT builder, the kernel scheduler, the cumulative engine
//! and the [`RunControl`](crate::control::RunControl) machinery — accepts a
//! `&R: Recorder` and emits counters/spans/observations into it. Two
//! implementations exist:
//!
//! * [`NullRecorder`] — the default. Every method is an empty default
//!   with `enabled() == false`; under static dispatch the calls
//!   monomorphise away, so un-instrumented runs pay nothing: no clock
//!   reads, no histogram or trace allocation.
//! * [`RunRecorder`] — thread-safe collection into atomic counters,
//!   sharded span tables, lock-free log-bucketed [`histogram`]s and an
//!   optional [`trace`] timeline, snapshotted into a [`RunReport`] whose
//!   JSON schema (`brics.run_report/v3`) is stable across releases.
//!
//! When the binary installs the [`memory::TrackingAllocator`], every
//! [`timed`]/[`timed_metric`] span additionally snapshots heap state
//! (bytes live at open, peak within the span — see [`MemSpan`]) and the
//! report's `memory` block carries live/peak bytes plus the plan-vs-actual
//! figures stamped by [`RunReport::stamp_planned_bytes`]. Without the
//! allocator every memory figure is zero and nothing else changes.
//!
//! Distribution metrics ([`Metric`]) complement the monotone [`Counter`]s:
//! a counter tells you *how much* work happened, a histogram tells you how
//! it was *spread* (p50/p90/p99/max per-source BFS time, frontier sizes,
//! per-level wall time, per-query latency). Timestamped traces
//! ([`trace`]) additionally preserve *when* each span ran, exportable as
//! Chrome trace-event JSON for Perfetto. A [`progress::ProgressMeter`]
//! can watch a shared recorder and print live heartbeats.
//!
//! The contract threaded through the estimator stack: attaching a recorder
//! NEVER changes results. Recorders only observe; all instrumented code
//! paths compute bit-identical outputs with either implementation (the
//! `telemetry_invariance` integration test pins this).
//!
//! # Example
//!
//! ```
//! use brics_graph::telemetry::{Counter, Metric, Recorder, RunRecorder};
//! use std::time::Duration;
//!
//! let rec = RunRecorder::new();
//! rec.incr(Counter::BfsSources);
//! rec.add(Counter::EdgesScanned, 1_000);
//! rec.span("bfs", Duration::from_millis(5));
//! rec.observe(Metric::FrontierSize, 17);
//! let report = rec.report();
//! assert_eq!(report.counters["bfs_sources"], 1);
//! assert_eq!(report.schema, "brics.run_report/v3");
//! let frontier = report.histograms.iter().find(|h| h.metric == "frontier_size").unwrap();
//! assert_eq!(frontier.count, 1);
//! assert_eq!(frontier.max, 17);
//! ```

pub mod histogram;
pub mod memory;
pub mod progress;
pub mod trace;

pub use histogram::{Histogram, HistogramSummary, MergedHistogram};
pub use memory::TrackingAllocator;
pub use progress::{ProgressConfig, ProgressMeter};
pub use trace::{chrome_trace_json, TraceEvent};

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Identifier of one monotone counter in a run report.
///
/// The discriminant doubles as the index into [`RunRecorder`]'s atomic
/// array; [`Counter::name`] is the stable snake_case key used in the JSON
/// report. Append new counters at the end — the names, not the positions,
/// are the schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Counter {
    /// BFS runs completed (one per finished source).
    BfsSources,
    /// BFS sources skipped because the run was interrupted first.
    BfsSourcesSkipped,
    /// Vertices reached, summed over all completed BFS runs.
    VerticesVisited,
    /// Arcs scanned, summed over all completed BFS runs. The instrumented
    /// drivers charge `num_arcs()` per completed source — the same
    /// convention the kernels benchmark uses — so `derived.mteps` in the
    /// report is directly comparable with `BENCH_kernels.json`.
    EdgesScanned,
    /// BFS levels expanded, summed over completed sources.
    FrontierLevels,
    /// Levels executed bottom-up by the direction-optimizing kernels.
    BottomUpLevels,
    /// Top-down ↔ bottom-up direction switches across all BFS runs.
    DirectionSwitches,
    /// Largest frontier (vertices) seen by any instrumented BFS level
    /// (max-type: updated with [`Recorder::max`]).
    PeakFrontier,
    /// Source batches dispatched to the serial top-down kernel.
    BatchesTopdown,
    /// Source batches dispatched to the serial direction-optimizing kernel.
    BatchesHybrid,
    /// Vertices removed by the identical-nodes rule (I).
    ReduceIdenticalRemoved,
    /// Chain-shaped vertices removed alongside identical nodes.
    ReduceIdenticalChainRemoved,
    /// Vertices removed by the redundant-chains rule (C).
    ReduceChainRemoved,
    /// Vertices removed by degree-2 chain contraction.
    ReduceContractedRemoved,
    /// Vertices removed by the redundant-nodes rule (R).
    ReduceRedundantRemoved,
    /// Fixpoint rounds the reduction pipeline executed.
    ReduceRounds,
    /// Vertices surviving reduction.
    ReduceSurvivingNodes,
    /// Edges surviving reduction.
    ReduceSurvivingEdges,
    /// Blocks in the block-cut tree.
    BctBlocks,
    /// Cut vertices in the block-cut tree.
    BctCutVertices,
    /// Phase-A tasks (cut-vertex BFS runs) in the cumulative engine.
    CumulativePhaseATasks,
    /// Phase-B tasks ((block, source) BFS runs) in the cumulative engine.
    CumulativePhaseBTasks,
    /// Record-homing restore rounds in the cumulative engine.
    CumulativeHomingRounds,
    /// Runs truncated by a [`RunControl`](crate::control::RunControl)
    /// deadline.
    DeadlineHits,
    /// Runs truncated by cooperative cancellation.
    Cancellations,
    /// Worker panics isolated by the fault-tolerance layer.
    PanicsIsolated,
    /// Memory-budget admissions that succeeded.
    MemoryAdmissions,
    /// Memory-budget admissions that were rejected.
    MemoryRejections,
    /// BFS sources a driver batch set out to run (charged up front, before
    /// any source finishes). `bfs_sources + bfs_sources_skipped` converges
    /// to this; the gap is the work still in flight — what the progress
    /// heartbeat's ETA is computed from.
    BfsSourcesPlanned,
    /// Faults fired by an armed
    /// [`FaultPlan`](crate::control::FaultPlan) across all sites.
    FaultsInjected,
    /// Quarantined sources re-attempted by the degradation ladder.
    FaultRetries,
    /// Sources permanently quarantined after exhausting their retries.
    SourcesQuarantined,
    /// Source batches (≤64 sources each) dispatched to the bit-parallel
    /// multi-source BFS kernel.
    BatchesMsbfs,
    /// BFS levels fully expanded by top-k verification sweeps that ended
    /// in a cut — the total depth the pruned BFS-cut traversals paid.
    TopkCutLevels,
    /// Top-k verification sweeps aborted early by the BFS-cut bound.
    TopkPrunedBfs,
    /// Bytes written to a prepared-graph artifact file by
    /// `PreparedGraph::save` (header, section table and payloads).
    ArtifactBytesWritten,
    /// CSR-section bytes served *in place* from a memory-mapped artifact
    /// (no owned copy was made).
    ArtifactBytesMapped,
    /// CSR-section bytes copied into owned memory while loading an
    /// artifact — the read-into-heap fallback, misaligned sections, or a
    /// foreign element layout. Zero on the pure mmap path.
    ArtifactBytesCopied,
    /// Runs truncated because *live tracked bytes* grew past the
    /// configured memory budget after admission (requires the
    /// [`memory::TrackingAllocator`] to be installed).
    MemoryLimitStops,
}

impl Counter {
    /// Every counter, in report order.
    pub const ALL: [Counter; 39] = [
        Counter::BfsSources,
        Counter::BfsSourcesSkipped,
        Counter::VerticesVisited,
        Counter::EdgesScanned,
        Counter::FrontierLevels,
        Counter::BottomUpLevels,
        Counter::DirectionSwitches,
        Counter::PeakFrontier,
        Counter::BatchesTopdown,
        Counter::BatchesHybrid,
        Counter::ReduceIdenticalRemoved,
        Counter::ReduceIdenticalChainRemoved,
        Counter::ReduceChainRemoved,
        Counter::ReduceContractedRemoved,
        Counter::ReduceRedundantRemoved,
        Counter::ReduceRounds,
        Counter::ReduceSurvivingNodes,
        Counter::ReduceSurvivingEdges,
        Counter::BctBlocks,
        Counter::BctCutVertices,
        Counter::CumulativePhaseATasks,
        Counter::CumulativePhaseBTasks,
        Counter::CumulativeHomingRounds,
        Counter::DeadlineHits,
        Counter::Cancellations,
        Counter::PanicsIsolated,
        Counter::MemoryAdmissions,
        Counter::MemoryRejections,
        Counter::BfsSourcesPlanned,
        Counter::FaultsInjected,
        Counter::FaultRetries,
        Counter::SourcesQuarantined,
        Counter::BatchesMsbfs,
        Counter::TopkCutLevels,
        Counter::TopkPrunedBfs,
        Counter::ArtifactBytesWritten,
        Counter::ArtifactBytesMapped,
        Counter::ArtifactBytesCopied,
        Counter::MemoryLimitStops,
    ];

    /// Stable snake_case key for this counter in the JSON report.
    pub const fn name(self) -> &'static str {
        match self {
            Counter::BfsSources => "bfs_sources",
            Counter::BfsSourcesSkipped => "bfs_sources_skipped",
            Counter::VerticesVisited => "vertices_visited",
            Counter::EdgesScanned => "edges_scanned",
            Counter::FrontierLevels => "frontier_levels",
            Counter::BottomUpLevels => "bottom_up_levels",
            Counter::DirectionSwitches => "direction_switches",
            Counter::PeakFrontier => "peak_frontier",
            Counter::BatchesTopdown => "batches_topdown",
            Counter::BatchesHybrid => "batches_hybrid",
            Counter::ReduceIdenticalRemoved => "reduce_identical_removed",
            Counter::ReduceIdenticalChainRemoved => "reduce_identical_chain_removed",
            Counter::ReduceChainRemoved => "reduce_chain_removed",
            Counter::ReduceContractedRemoved => "reduce_contracted_removed",
            Counter::ReduceRedundantRemoved => "reduce_redundant_removed",
            Counter::ReduceRounds => "reduce_rounds",
            Counter::ReduceSurvivingNodes => "reduce_surviving_nodes",
            Counter::ReduceSurvivingEdges => "reduce_surviving_edges",
            Counter::BctBlocks => "bct_blocks",
            Counter::BctCutVertices => "bct_cut_vertices",
            Counter::CumulativePhaseATasks => "cumulative_phase_a_tasks",
            Counter::CumulativePhaseBTasks => "cumulative_phase_b_tasks",
            Counter::CumulativeHomingRounds => "cumulative_homing_rounds",
            Counter::DeadlineHits => "deadline_hits",
            Counter::Cancellations => "cancellations",
            Counter::PanicsIsolated => "panics_isolated",
            Counter::MemoryAdmissions => "memory_admissions",
            Counter::MemoryRejections => "memory_rejections",
            Counter::BfsSourcesPlanned => "bfs_sources_planned",
            Counter::FaultsInjected => "faults_injected_total",
            Counter::FaultRetries => "fault_retries",
            Counter::SourcesQuarantined => "sources_quarantined",
            Counter::BatchesMsbfs => "batches_msbfs",
            Counter::TopkCutLevels => "topk_cut_levels",
            Counter::TopkPrunedBfs => "topk_pruned_bfs",
            Counter::ArtifactBytesWritten => "artifact_bytes_written",
            Counter::ArtifactBytesMapped => "artifact_bytes_mapped",
            Counter::ArtifactBytesCopied => "artifact_bytes_copied",
            Counter::MemoryLimitStops => "memory_limit_stops",
        }
    }
}

/// Identifier of one distribution metric: a stream of values summarized
/// as a histogram in the run report, where a [`Counter`] would only keep
/// the total. Same schema rule as counters: the [`Metric::name`] strings,
/// not the positions, are stable; append new metrics at the end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Metric {
    /// Wall time of one complete single-source BFS, in nanoseconds.
    SourceBfsNanos,
    /// Vertices in the frontier fed into one BFS level.
    FrontierSize,
    /// Wall time of one frontier-parallel BFS level, in nanoseconds.
    LevelNanos,
    /// Wall time of one estimator query (an `estimate` span), nanoseconds.
    QueryNanos,
    /// Live sources (bits still spreading) fed into one MS-BFS sweep —
    /// the batching-efficiency signal: occupancy near 64 means the word
    /// ops amortize well, a long tail of near-1 sweeps means they do not.
    BatchOccupancy,
    /// Wall time of one MS-BFS level-synchronous sweep, in nanoseconds.
    SweepNanos,
    /// Depth (levels fully expanded) at which a top-k verification sweep
    /// was cut by the BFS-cut bound — shallow cuts mean cheap pruning.
    CutDepth,
}

impl Metric {
    /// Every metric, in report order.
    pub const ALL: [Metric; 7] = [
        Metric::SourceBfsNanos,
        Metric::FrontierSize,
        Metric::LevelNanos,
        Metric::QueryNanos,
        Metric::BatchOccupancy,
        Metric::SweepNanos,
        Metric::CutDepth,
    ];

    /// Stable snake_case key for this metric in the JSON report.
    pub const fn name(self) -> &'static str {
        match self {
            Metric::SourceBfsNanos => "source_bfs_ns",
            Metric::FrontierSize => "frontier_size",
            Metric::LevelNanos => "level_ns",
            Metric::QueryNanos => "query_ns",
            Metric::BatchOccupancy => "batch_occupancy",
            Metric::SweepNanos => "sweep_ns",
            Metric::CutDepth => "cut_depth",
        }
    }

    /// Unit of the observed values, for report consumers.
    pub const fn unit(self) -> &'static str {
        match self {
            Metric::SourceBfsNanos | Metric::LevelNanos | Metric::QueryNanos => "ns",
            Metric::FrontierSize => "vertices",
            Metric::BatchOccupancy => "sources",
            Metric::SweepNanos => "ns",
            Metric::CutDepth => "levels",
        }
    }
}

const NUM_METRICS: usize = Metric::ALL.len();

/// Heap snapshot for one timed span, captured by [`timed`] /
/// [`timed_metric`] from the [`memory`] ledger (all-zero when the
/// tracking allocator is not installed).
///
/// `peak_bytes` is the span's own high-watermark: opening the span lowers
/// the tracked peak to the live bytes, and closing it folds the span's
/// peak back into its parent's. So the figure is exact even when an
/// earlier, heavier phase set the process peak, and a parent's peak covers
/// its children's. The watermark is shared by every thread, so a span's
/// footprint attributes all threads' traffic during its window; per-phase
/// numbers are upper bounds on that phase's own allocations. Spans must
/// nest (each closes before its parent does), as the instrumented code
/// opens them from the calling thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemSpan {
    /// Tracked live bytes when the span opened.
    pub open_bytes: u64,
    /// Peak tracked live bytes within the span.
    pub peak_bytes: u64,
}

impl MemSpan {
    /// Bytes the span grew the heap above its opening level — the figure
    /// compared against the planning estimates.
    pub fn footprint(&self) -> u64 {
        self.peak_bytes.saturating_sub(self.open_bytes)
    }
}

/// Observer for run telemetry. All methods default to no-ops so
/// [`NullRecorder`] costs nothing; implementors override what they store.
///
/// Call sites that would pay to *prepare* data for a recorder (formatting
/// event details, harvesting per-BFS stats, reading the clock around a
/// per-level region) must guard the preparation behind
/// [`Recorder::enabled`] — and timestamp capture for traces behind
/// [`Recorder::trace_enabled`] — so disabled recorders skip it entirely.
pub trait Recorder: Sync {
    /// Whether this recorder stores anything. `false` lets call sites
    /// skip preparing data that would be dropped.
    fn enabled(&self) -> bool {
        false
    }

    /// Add `n` to a monotone counter.
    fn add(&self, counter: Counter, n: u64) {
        let _ = (counter, n);
    }

    /// Increment a monotone counter by one.
    fn incr(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Raise a max-type counter to at least `value`.
    fn max(&self, counter: Counter, value: u64) {
        let _ = (counter, value);
    }

    /// Record one observation of a distribution metric.
    fn observe(&self, metric: Metric, value: u64) {
        let _ = (metric, value);
    }

    /// Record one timed execution of the named phase. Repeated spans for
    /// the same phase accumulate (total time + hit count).
    fn span(&self, phase: &'static str, elapsed: Duration) {
        let _ = (phase, elapsed);
    }

    /// [`Recorder::span`] with a heap snapshot attached. Defaults to
    /// dropping the snapshot and forwarding to `span`, so existing
    /// recorders keep working; [`RunRecorder`] overrides it to fold the
    /// snapshot into the phase table.
    fn span_mem(&self, phase: &'static str, elapsed: Duration, mem: MemSpan) {
        let _ = mem;
        self.span(phase, elapsed);
    }

    /// Whether [`Recorder::trace_span`] stores anything. Lets call sites
    /// skip the extra end-timestamp bookkeeping when only aggregated
    /// spans are collected.
    fn trace_enabled(&self) -> bool {
        false
    }

    /// Record one *timestamped* span for the trace timeline. Unlike
    /// [`Recorder::span`], occurrences are kept individually with their
    /// start time and recording thread.
    fn trace_span(&self, phase: &'static str, start: Instant, end: Instant) {
        let _ = (phase, start, end);
    }

    /// Record a discrete event (deadline hit, isolated panic, …).
    fn event(&self, kind: &'static str, detail: &str) {
        let _ = (kind, detail);
    }
}

/// Runs `f`, recording its wall time as a span named `phase` when the
/// recorder is enabled (and as a timestamped trace event when tracing is
/// on), with a [`MemSpan`] heap snapshot attached when the tracking
/// allocator is installed. With a disabled recorder this is exactly
/// `f()` — not even the clock is read.
pub fn timed<R: Recorder, T>(rec: &R, phase: &'static str, f: impl FnOnce() -> T) -> T {
    timed_span(rec, phase, None, f)
}

/// [`timed`] that additionally feeds the elapsed nanoseconds into a
/// distribution metric — for phases whose *per-occurrence* spread matters
/// (e.g. each `estimate` query contributes one `query_ns` observation).
pub fn timed_metric<R: Recorder, T>(
    rec: &R,
    phase: &'static str,
    metric: Metric,
    f: impl FnOnce() -> T,
) -> T {
    timed_span(rec, phase, Some(metric), f)
}

/// The body [`timed`] and [`timed_metric`] share: `f` runs under its own
/// heap watermark (see [`MemSpan`]).
fn timed_span<R: Recorder, T>(
    rec: &R,
    phase: &'static str,
    metric: Option<Metric>,
    f: impl FnOnce() -> T,
) -> T {
    if !rec.enabled() {
        return f();
    }
    let span = memory::SpanPeak::open();
    let open_bytes = span.open_bytes;
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    let peak_bytes = span.close();
    rec.span_mem(phase, end - start, MemSpan { open_bytes, peak_bytes });
    if let Some(metric) = metric {
        rec.observe(metric, (end - start).as_nanos() as u64);
    }
    if rec.trace_enabled() {
        rec.trace_span(phase, start, end);
    }
    out
}

/// Records how a controlled run ended: a no-op for complete runs, a
/// counter bump plus an event for deadline hits and cancellations.
pub fn record_outcome<R: Recorder>(rec: &R, outcome: crate::control::RunOutcome, what: &str) {
    if !rec.enabled() {
        return;
    }
    match outcome {
        crate::control::RunOutcome::Complete => {}
        crate::control::RunOutcome::Deadline => {
            rec.incr(Counter::DeadlineHits);
            rec.event("deadline", what);
        }
        crate::control::RunOutcome::Cancelled => {
            rec.incr(Counter::Cancellations);
            rec.event("cancelled", what);
        }
        crate::control::RunOutcome::MemoryLimit => {
            rec.incr(Counter::MemoryLimitStops);
            rec.event("memory_limit", what);
        }
        crate::control::RunOutcome::Degraded => {
            rec.event("degraded", what);
        }
    }
}

/// Records one isolated worker panic.
pub fn record_panic<R: Recorder>(rec: &R, detail: &str) {
    if !rec.enabled() {
        return;
    }
    rec.incr(Counter::PanicsIsolated);
    rec.event("panic_isolated", detail);
}

/// [`RunControl::admit_memory`](crate::control::RunControl::admit_memory)
/// with the verdict recorded (admission or rejection).
pub fn admit_memory_rec<R: Recorder>(
    ctl: &crate::control::RunControl,
    required_bytes: u64,
    rec: &R,
) -> Result<(), crate::control::MemoryBudgetExceeded> {
    match ctl.admit_memory(required_bytes) {
        Ok(()) => {
            if rec.enabled() {
                rec.incr(Counter::MemoryAdmissions);
            }
            Ok(())
        }
        Err(e) => {
            if rec.enabled() {
                rec.incr(Counter::MemoryRejections);
                rec.event("memory_rejected", &format!("required {required_bytes} bytes"));
            }
            Err(e)
        }
    }
}

/// The no-overhead default recorder: every method is the no-op default.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {}

/// Blanket impl so `&R` works wherever `R: Recorder` is expected.
impl<R: Recorder + ?Sized> Recorder for &R {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }
    fn add(&self, counter: Counter, n: u64) {
        (**self).add(counter, n);
    }
    fn max(&self, counter: Counter, value: u64) {
        (**self).max(counter, value);
    }
    fn observe(&self, metric: Metric, value: u64) {
        (**self).observe(metric, value);
    }
    fn span(&self, phase: &'static str, elapsed: Duration) {
        (**self).span(phase, elapsed);
    }
    fn span_mem(&self, phase: &'static str, elapsed: Duration, mem: MemSpan) {
        (**self).span_mem(phase, elapsed, mem);
    }
    fn trace_enabled(&self) -> bool {
        (**self).trace_enabled()
    }
    fn trace_span(&self, phase: &'static str, start: Instant, end: Instant) {
        (**self).trace_span(phase, start, end);
    }
    fn event(&self, kind: &'static str, detail: &str) {
        (**self).event(kind, detail);
    }
}

/// An optional recorder: `None` behaves exactly like [`NullRecorder`]
/// (every method a no-op, `enabled()` false), `Some(r)` delegates to `r`.
/// Lets call sites choose at runtime whether to record without giving up
/// static dispatch — e.g. a CLI that only builds a [`RunRecorder`] when
/// `--metrics` was passed.
impl<R: Recorder> Recorder for Option<R> {
    fn enabled(&self) -> bool {
        self.as_ref().is_some_and(Recorder::enabled)
    }
    fn add(&self, counter: Counter, n: u64) {
        if let Some(r) = self {
            r.add(counter, n);
        }
    }
    fn max(&self, counter: Counter, value: u64) {
        if let Some(r) = self {
            r.max(counter, value);
        }
    }
    fn observe(&self, metric: Metric, value: u64) {
        if let Some(r) = self {
            r.observe(metric, value);
        }
    }
    fn span(&self, phase: &'static str, elapsed: Duration) {
        if let Some(r) = self {
            r.span(phase, elapsed);
        }
    }
    fn span_mem(&self, phase: &'static str, elapsed: Duration, mem: MemSpan) {
        if let Some(r) = self {
            r.span_mem(phase, elapsed, mem);
        }
    }
    fn trace_enabled(&self) -> bool {
        self.as_ref().is_some_and(Recorder::trace_enabled)
    }
    fn trace_span(&self, phase: &'static str, start: Instant, end: Instant) {
        if let Some(r) = self {
            r.trace_span(phase, start, end);
        }
    }
    fn event(&self, kind: &'static str, detail: &str) {
        if let Some(r) = self {
            r.event(kind, detail);
        }
    }
}

const NUM_COUNTERS: usize = Counter::ALL.len();

/// Cap on stored events so a pathological run cannot balloon the report.
/// Split into a keep-head half (the run's opening) and a keep-tail ring
/// (its most recent events), so late events — deadline expiry, isolated
/// panics — survive even when millions of events fire in between.
const MAX_EVENTS: usize = 64;
const EVENT_HEAD: usize = MAX_EVENTS / 2;
const EVENT_TAIL: usize = MAX_EVENTS - EVENT_HEAD;

/// Number of independent span tables. Spans are recorded once per *phase
/// execution* (potentially once per BFS level under frontier parallelism),
/// so the table is sharded by thread like the histograms; a recording is
/// a push/scan under an uncontended per-shard mutex.
const SPAN_SHARDS: usize = 8;

/// Accumulated observations of one phase within one shard: elapsed time,
/// occurrence count and — when the tracking allocator is installed — the
/// heap envelope across occurrences. `mem_open` keeps the *minimum*
/// bytes-at-open (`u64::MAX` until a snapshot arrives), `mem_peak` the
/// maximum in-span peak, and `mem_footprint` the maximum *per-occurrence*
/// growth (tracked per occurrence rather than recomputed from the
/// aggregates, which would pair one occurrence's low open with another's
/// high peak and overstate the phase).
#[derive(Clone, Copy)]
struct SpanEntry {
    name: &'static str,
    total: Duration,
    count: u64,
    mem_open: u64,
    mem_peak: u64,
    mem_footprint: u64,
}

impl SpanEntry {
    fn new(name: &'static str) -> Self {
        SpanEntry {
            name,
            total: Duration::ZERO,
            count: 0,
            mem_open: u64::MAX,
            mem_peak: 0,
            mem_footprint: 0,
        }
    }

    fn fold(&mut self, elapsed: Duration, count: u64, mem: Option<MemSpan>) {
        self.total += elapsed;
        self.count += count;
        if let Some(m) = mem {
            self.mem_open = self.mem_open.min(m.open_bytes);
            self.mem_peak = self.mem_peak.max(m.peak_bytes);
            self.mem_footprint = self.mem_footprint.max(m.footprint());
        }
    }

    fn merge(&mut self, other: &SpanEntry) {
        self.total += other.total;
        self.count += other.count;
        self.mem_open = self.mem_open.min(other.mem_open);
        self.mem_peak = self.mem_peak.max(other.mem_peak);
        self.mem_footprint = self.mem_footprint.max(other.mem_footprint);
    }
}

#[derive(Default)]
struct EventLog {
    head: Vec<(String, String)>,
    tail: VecDeque<(String, String)>,
    dropped_total: u64,
    dropped_by_kind: BTreeMap<String, u64>,
}

impl EventLog {
    fn push(&mut self, kind: &'static str, detail: &str) {
        if self.head.len() < EVENT_HEAD {
            self.head.push((kind.to_string(), detail.to_string()));
            return;
        }
        self.tail.push_back((kind.to_string(), detail.to_string()));
        if self.tail.len() > EVENT_TAIL {
            let (evicted_kind, _) = self.tail.pop_front().expect("tail non-empty");
            self.dropped_total += 1;
            *self.dropped_by_kind.entry(evicted_kind).or_insert(0) += 1;
        }
    }
}

/// Thread-safe telemetry collector: atomic counters, sharded accumulated
/// phase spans, per-metric [`Histogram`]s, a head+tail bounded event log
/// and (when created via [`RunRecorder::with_trace`]) a timestamped trace
/// buffer — snapshotted via [`RunRecorder::report`].
pub struct RunRecorder {
    counters: [AtomicU64; NUM_COUNTERS],
    span_shards: Box<[Mutex<Vec<SpanEntry>>]>,
    histograms: Box<[Histogram]>,
    events: Mutex<EventLog>,
    trace: Option<trace::TraceBuffer>,
    started: Instant,
}

impl Default for RunRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for RunRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunRecorder").field("tracing", &self.trace.is_some()).finish_non_exhaustive()
    }
}

impl RunRecorder {
    /// Creates an empty recorder without a trace buffer; the report's
    /// `elapsed_seconds` is measured from this call.
    pub fn new() -> Self {
        Self::build(false)
    }

    /// Creates a recorder that additionally retains individual timestamped
    /// spans for [`RunRecorder::chrome_trace_json`]. Tracing is decided at
    /// construction so untraced recorders allocate no buffers and skip
    /// timestamp capture entirely.
    pub fn with_trace() -> Self {
        Self::build(true)
    }

    fn build(tracing: bool) -> Self {
        let started = Instant::now();
        RunRecorder {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            span_shards: (0..SPAN_SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            histograms: (0..NUM_METRICS).map(|_| Histogram::new()).collect(),
            events: Mutex::new(EventLog::default()),
            trace: tracing.then(|| trace::TraceBuffer::new(started)),
            started,
        }
    }

    /// Current value of one counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// Merged snapshot of one metric's histogram.
    pub fn histogram(&self, metric: Metric) -> MergedHistogram {
        self.histograms[metric as usize].merged()
    }

    /// All timestamped trace events collected so far, sorted by start
    /// time. Empty unless the recorder was built with
    /// [`RunRecorder::with_trace`].
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.trace.as_ref().map(|t| t.events()).unwrap_or_default()
    }

    /// Number of trace events discarded after the internal cap.
    pub fn trace_dropped(&self) -> u64 {
        self.trace.as_ref().map(|t| t.dropped()).unwrap_or(0)
    }

    /// The collected trace as Chrome trace-event JSON (loads in Perfetto /
    /// `chrome://tracing`). An empty array unless built with
    /// [`RunRecorder::with_trace`].
    pub fn chrome_trace_json(&self) -> String {
        chrome_trace_json(&self.trace_events())
    }

    fn record_span(&self, phase: &'static str, elapsed: Duration, mem: Option<MemSpan>) {
        let shard = histogram::thread_index() % SPAN_SHARDS;
        let mut spans = self.span_shards[shard].lock().expect("telemetry span lock");
        match spans.iter_mut().find(|e| e.name == phase) {
            Some(entry) => entry.fold(elapsed, 1, mem),
            None => {
                let mut entry = SpanEntry::new(phase);
                entry.fold(elapsed, 1, mem);
                spans.push(entry);
            }
        }
    }

    fn merged_phases(&self) -> Vec<SpanEntry> {
        let mut merged: Vec<SpanEntry> = Vec::new();
        for shard in self.span_shards.iter() {
            for entry in shard.lock().expect("telemetry span lock").iter() {
                match merged.iter_mut().find(|e| e.name == entry.name) {
                    Some(m) => m.merge(entry),
                    None => merged.push(*entry),
                }
            }
        }
        merged
    }

    /// Snapshot everything recorded so far into a serializable report.
    pub fn report(&self) -> RunReport {
        let counters = Counter::ALL
            .iter()
            .map(|&c| (c.name().to_string(), self.counter(c)))
            .collect();
        let phases: Vec<PhaseSpan> = self
            .merged_phases()
            .into_iter()
            .map(|e| PhaseSpan {
                name: e.name.to_string(),
                total_seconds: e.total.as_secs_f64(),
                count: e.count,
                mem_open_bytes: if e.mem_open == u64::MAX { 0 } else { e.mem_open },
                mem_peak_bytes: e.mem_peak,
                mem_footprint_bytes: e.mem_footprint,
            })
            .collect();
        let histograms = Metric::ALL
            .iter()
            .map(|&m| self.histogram(m).summarize(m.name(), m.unit()))
            .collect();
        let (events, dropped_events, dropped_events_by_kind) = {
            let log = self.events.lock().expect("telemetry event lock");
            let events = log
                .head
                .iter()
                .chain(log.tail.iter())
                .map(|(kind, detail)| ReportEvent { kind: kind.clone(), detail: detail.clone() })
                .collect();
            (events, log.dropped_total, log.dropped_by_kind.clone())
        };
        let elapsed = self.started.elapsed().as_secs_f64();
        let edges = self.counter(Counter::EdgesScanned) as f64;
        let estimate_seconds = phases
            .iter()
            .find(|p| p.name == "estimate")
            .map(|p| p.total_seconds)
            .unwrap_or(0.0);
        // Query throughput should not be diluted by prepare/IO time: rate
        // edge work against the estimate-phase total when one was
        // recorded, against whole-run wall time otherwise (benches time
        // their own phases and record no `estimate` span).
        let mteps_basis = if estimate_seconds > 0.0 { estimate_seconds } else { elapsed };
        let observed_peak_bytes = phases
            .iter()
            .filter(|p| PLANNED_PHASES.contains(&p.name.as_str()))
            .map(|p| p.mem_footprint_bytes)
            .max()
            .unwrap_or(0);
        let mem_stats = memory::stats();
        RunReport {
            schema: RunReport::SCHEMA.to_string(),
            counters,
            phases,
            histograms,
            events,
            dropped_events,
            dropped_events_by_kind,
            faults_injected: Vec::new(),
            retries: self.counter(Counter::FaultRetries),
            degradation_path: Vec::new(),
            artifact: None,
            memory: MemoryBlock {
                tracking: memory::tracking_active(),
                planned_bytes: 0,
                observed_peak_bytes,
                live_bytes: memory::live_bytes(),
                process_peak_bytes: memory::peak_bytes(),
                allocations: mem_stats.allocations,
                plan_accuracy: None,
            },
            derived: DerivedMetrics {
                elapsed_seconds: elapsed,
                estimate_seconds,
                mteps: if mteps_basis > 0.0 { edges / mteps_basis / 1e6 } else { 0.0 },
                whole_run_mteps: if elapsed > 0.0 { edges / elapsed / 1e6 } else { 0.0 },
            },
        }
    }
}

impl Recorder for RunRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    fn max(&self, counter: Counter, value: u64) {
        self.counters[counter as usize].fetch_max(value, Ordering::Relaxed);
    }

    fn observe(&self, metric: Metric, value: u64) {
        self.histograms[metric as usize].observe(value);
    }

    fn span(&self, phase: &'static str, elapsed: Duration) {
        self.record_span(phase, elapsed, None);
    }

    fn span_mem(&self, phase: &'static str, elapsed: Duration, mem: MemSpan) {
        self.record_span(phase, elapsed, Some(mem));
    }

    fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    fn trace_span(&self, phase: &'static str, start: Instant, end: Instant) {
        if let Some(trace) = &self.trace {
            trace.record(phase, start, end);
        }
    }

    fn event(&self, kind: &'static str, detail: &str) {
        self.events.lock().expect("telemetry event lock").push(kind, detail);
    }
}

/// Accumulated time for one named phase.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseSpan {
    /// Phase name. Report order follows first use per recording thread,
    /// merged shard-by-shard at snapshot; look phases up by name.
    pub name: String,
    /// Total wall time across all executions of the phase.
    pub total_seconds: f64,
    /// How many times the phase executed.
    pub count: u64,
    /// Minimum tracked live bytes at span open across executions (0 when
    /// tracking was off — added in v3).
    #[serde(default)]
    pub mem_open_bytes: u64,
    /// Maximum in-span peak of tracked live bytes across executions (0
    /// when tracking was off — added in v3).
    #[serde(default)]
    pub mem_peak_bytes: u64,
    /// Largest single-execution heap growth (`peak − open`, computed per
    /// occurrence) — the phase's footprint, compared against the planning
    /// figures (added in v3).
    #[serde(default)]
    pub mem_footprint_bytes: u64,
}

/// One discrete event captured during the run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReportEvent {
    /// Event kind (`deadline`, `cancelled`, `panic_isolated`, …).
    pub kind: String,
    /// Free-form detail string.
    pub detail: String,
}

/// Per-failpoint audit entry in the run report: how often the site was
/// reached and how often an armed fault fired there. Serialized form of
/// [`FaultSiteStats`](crate::control::FaultSiteStats).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSiteRecord {
    /// The failpoint's stable dotted name (e.g. `bfs.source`).
    pub site: String,
    /// Times the site was evaluated.
    pub hits: u64,
    /// Times an armed fault fired at the site.
    pub fired: u64,
}

/// Provenance of a prepared-graph artifact that served this run — stamped
/// into the report when a query started from `--artifact` instead of a
/// fresh prepare.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArtifactProvenance {
    /// The container format version (`brics.artifact/v1` → 1).
    pub version: u32,
    /// Hex digest of all section checksums, identifying the exact bytes
    /// the run loaded.
    pub checksum: String,
    /// Path of the artifact file.
    pub source: String,
}

/// Phases whose footprint the planning figures in `budget.rs` model:
/// query-time traversal scratch, not the prepare-phase CSR/reduction
/// structures. `observed_peak_bytes` is the max footprint over these.
const PLANNED_PHASES: [&str; 3] = ["estimate", "bfs.batch", "topk.verify"];

/// Memory accounting for one run — the plan-vs-actual block of a v3
/// report. All-zero (with `tracking: false`) when the
/// [`memory::TrackingAllocator`] is not installed in the process.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MemoryBlock {
    /// Whether the tracking allocator was installed (all other fields are
    /// zero/absent when it was not).
    pub tracking: bool,
    /// Bytes the planning model budgeted for query scratch; 0 until
    /// [`RunReport::stamp_planned_bytes`] runs.
    pub planned_bytes: u64,
    /// Largest observed footprint (`peak − open`) of any planned phase —
    /// see [`PhaseSpan::mem_footprint_bytes`].
    pub observed_peak_bytes: u64,
    /// Tracked live bytes at snapshot time.
    pub live_bytes: u64,
    /// Process-lifetime high-watermark of tracked live bytes.
    pub process_peak_bytes: u64,
    /// Successful allocations since process start.
    pub allocations: u64,
    /// `observed_peak_bytes / planned_bytes`; `None` until stamped or when
    /// no plan was made. Values ≤ 1.0 mean the plan was an upper bound, as
    /// intended; > 1.0 fires a `memory.overrun` event.
    pub plan_accuracy: Option<f64>,
}

/// Metrics derived from the raw counters at snapshot time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DerivedMetrics {
    /// Wall time from recorder construction to the snapshot.
    pub elapsed_seconds: f64,
    /// Total time recorded under the `estimate` phase (0 when none ran).
    pub estimate_seconds: f64,
    /// Millions of traversed arcs per second, rated against the
    /// estimate-phase span total when one exists (so prepare/IO time does
    /// not deflate query throughput), against `elapsed_seconds` otherwise.
    /// Comparable with the kernels benchmark because both charge
    /// `num_arcs()` per source.
    pub mteps: f64,
    /// Millions of traversed arcs per second of *whole-run* wall time
    /// (`edges_scanned / elapsed_seconds / 1e6`) — the v1 `mteps`.
    pub whole_run_mteps: f64,
}

/// Snapshot of one run's telemetry, serialized with the stable schema tag
/// `brics.run_report/v3`. All counter keys and all histogram metrics are
/// always present (zeros included) so downstream tooling can rely on the
/// key set.
///
/// v2 → v3 migration: the top-level `memory` block ([`MemoryBlock`]) and
/// the per-phase `mem_open_bytes` / `mem_peak_bytes` /
/// `mem_footprint_bytes` fields are new (all zero when the tracking
/// allocator is not installed), and the counter set gained
/// `memory_limit_stops`. Nothing was removed or renamed, so v2 consumers
/// that look fields up by name keep working; v2 documents deserialize into
/// this struct with the new fields defaulted (`brics report check
/// --schema v2` accepts them explicitly).
///
/// v1 → v2 migration: `histograms`, `dropped_events_by_kind`,
/// `derived.estimate_seconds` and `derived.whole_run_mteps` are new;
/// `derived.mteps` now rates against the estimate phase (v1's
/// whole-run-rated value moved to `derived.whole_run_mteps`); the event
/// log keeps the first and last `MAX_EVENTS`/2 events instead of the
/// first `MAX_EVENTS`.
///
/// The fault-injection fields (`faults_injected`, `retries`,
/// `degradation_path`) were added *within* v2: they are always present,
/// empty/zero on fault-free runs, so existing v2 consumers keep working.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Schema identifier; always [`RunReport::SCHEMA`].
    pub schema: String,
    /// Every counter by stable name (all keys present, zeros included).
    pub counters: std::collections::BTreeMap<String, u64>,
    /// Accumulated phase spans; look up by name (see [`PhaseSpan::name`]).
    pub phases: Vec<PhaseSpan>,
    /// Quantile summaries of every distribution metric, in [`Metric::ALL`]
    /// order (all metrics present, zero-count included).
    pub histograms: Vec<HistogramSummary>,
    /// Discrete events: the run's first events followed by its most recent
    /// ones once the cap is exceeded.
    pub events: Vec<ReportEvent>,
    /// Number of events discarded after the cap was reached.
    pub dropped_events: u64,
    /// Discarded events broken down by event kind.
    pub dropped_events_by_kind: std::collections::BTreeMap<String, u64>,
    /// Per-site fault-injection audit trail (empty on fault-free runs).
    /// Stamped by the CLI from the run's
    /// [`FaultPlan`](crate::control::FaultPlan) — the recorder itself only
    /// sees fire totals through the `faults_injected_total` counter.
    pub faults_injected: Vec<FaultSiteRecord>,
    /// Quarantined-source retry attempts made by the degradation ladder
    /// (mirror of the `fault_retries` counter, hoisted for `jq`).
    pub retries: u64,
    /// Degradation rungs walked while answering, in order (prepare-stage
    /// fallbacks such as `reduce:skipped` first); the last entry is the
    /// rung that produced the result. Empty when the degradation ladder
    /// was not armed.
    pub degradation_path: Vec<String>,
    /// Provenance of the prepared-graph artifact the run loaded — added
    /// within v2 like the fault fields: always present, `null` on runs
    /// that prepared from scratch. Stamped by the CLI.
    pub artifact: Option<ArtifactProvenance>,
    /// Memory accounting (new in v3): tracked live/peak bytes and the
    /// plan-vs-actual figures. Defaults so v2 documents still parse.
    #[serde(default)]
    pub memory: MemoryBlock,
    /// Metrics derived from the counters at snapshot time.
    pub derived: DerivedMetrics,
}

impl RunReport {
    /// The stable schema tag emitted in every report.
    pub const SCHEMA: &'static str = "brics.run_report/v3";

    /// The previous schema tag, still accepted by `brics report check
    /// --schema v2` (v3 is a strict superset).
    pub const SCHEMA_V2: &'static str = "brics.run_report/v2";

    /// Closes the plan-vs-actual loop: records what the planning model
    /// budgeted for query scratch, derives
    /// [`MemoryBlock::plan_accuracy`], and — when tracking is on and the
    /// observed footprint exceeded the plan — appends a `memory.overrun`
    /// event. Call after the report is snapshotted (the CLI does this in
    /// its metrics-emission path so `compare`/`topk` rows get it too).
    pub fn stamp_planned_bytes(&mut self, planned_bytes: u64) {
        self.memory.planned_bytes = planned_bytes;
        let observed = self.memory.observed_peak_bytes;
        self.memory.plan_accuracy =
            (planned_bytes > 0).then(|| observed as f64 / planned_bytes as f64);
        if self.memory.tracking && planned_bytes > 0 && observed > planned_bytes {
            self.events.push(ReportEvent {
                kind: "memory.overrun".to_string(),
                detail: format!(
                    "observed peak {observed} bytes exceeds planned {planned_bytes} bytes"
                ),
            });
        }
    }

    /// Renders a compact human-readable table (for `--metrics-summary`):
    /// phases with times, histogram quantiles, then all non-zero counters,
    /// then events.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        out.push_str("run report\n");
        out.push_str(&format!(
            "  elapsed {:.3}s  mteps {:.2} (whole-run {:.2})\n",
            self.derived.elapsed_seconds, self.derived.mteps, self.derived.whole_run_mteps
        ));
        if !self.phases.is_empty() {
            out.push_str("  phases:\n");
            for p in &self.phases {
                out.push_str(&format!(
                    "    {:<28} {:>10.3} ms  x{}\n",
                    p.name,
                    p.total_seconds * 1e3,
                    p.count
                ));
            }
        }
        let observed: Vec<_> = self.histograms.iter().filter(|h| h.count > 0).collect();
        if !observed.is_empty() {
            out.push_str("  histograms:\n");
            for h in observed {
                out.push_str(&format!(
                    "    {:<28} n={} p50={} p90={} p99={} max={} {}\n",
                    h.metric, h.count, h.p50, h.p90, h.p99, h.max, h.unit
                ));
            }
        }
        let nonzero: Vec<_> = self.counters.iter().filter(|(_, &v)| v != 0).collect();
        if !nonzero.is_empty() {
            out.push_str("  counters:\n");
            for (name, value) in nonzero {
                out.push_str(&format!("    {name:<28} {value:>12}\n"));
            }
        }
        if !self.faults_injected.is_empty() {
            out.push_str("  faults:\n");
            for f in &self.faults_injected {
                out.push_str(&format!(
                    "    {:<28} hits={} fired={}\n",
                    f.site, f.hits, f.fired
                ));
            }
            if self.retries > 0 {
                out.push_str(&format!("    retries {}\n", self.retries));
            }
        }
        if !self.degradation_path.is_empty() {
            out.push_str(&format!("  degradation: {}\n", self.degradation_path.join(" -> ")));
        }
        if let Some(a) = &self.artifact {
            out.push_str(&format!("  artifact: v{} {} ({})\n", a.version, a.checksum, a.source));
        }
        if self.memory.tracking {
            let m = &self.memory;
            out.push_str(&format!(
                "  memory: live {} peak {} observed-span-peak {}",
                m.live_bytes, m.process_peak_bytes, m.observed_peak_bytes
            ));
            if m.planned_bytes > 0 {
                out.push_str(&format!(" planned {}", m.planned_bytes));
                if let Some(acc) = m.plan_accuracy {
                    out.push_str(&format!(" (accuracy {acc:.2})"));
                }
            }
            out.push('\n');
        }
        if !self.events.is_empty() {
            out.push_str("  events:\n");
            for e in &self.events {
                out.push_str(&format!("    {}: {}\n", e.kind, e.detail));
            }
            if self.dropped_events > 0 {
                out.push_str(&format!("    … {} more dropped\n", self.dropped_events));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_names_are_unique_and_match_all() {
        let mut names: Vec<_> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        assert_eq!(before, NUM_COUNTERS);
    }

    #[test]
    fn metric_names_are_unique_and_match_all() {
        let mut names: Vec<_> = Metric::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        assert_eq!(before, NUM_METRICS);
        for m in Metric::ALL {
            assert!(!m.unit().is_empty());
        }
    }

    #[test]
    fn null_recorder_is_disabled() {
        let rec = NullRecorder;
        assert!(!rec.enabled());
        assert!(!rec.trace_enabled());
        rec.incr(Counter::BfsSources);
        rec.observe(Metric::FrontierSize, 3);
        rec.span("x", Duration::from_secs(1));
        rec.event("k", "d");
    }

    #[test]
    fn run_recorder_accumulates() {
        let rec = RunRecorder::new();
        rec.incr(Counter::BfsSources);
        rec.add(Counter::BfsSources, 2);
        rec.add(Counter::EdgesScanned, 100);
        rec.max(Counter::PeakFrontier, 7);
        rec.max(Counter::PeakFrontier, 3);
        rec.span("bfs", Duration::from_millis(2));
        rec.span("bfs", Duration::from_millis(3));
        rec.span("reduce", Duration::from_millis(1));
        rec.event("deadline", "hit after 2 sources");
        let report = rec.report();
        assert_eq!(report.counters["bfs_sources"], 3);
        assert_eq!(report.counters["edges_scanned"], 100);
        assert_eq!(report.counters["peak_frontier"], 7);
        // Untouched counters still present, zero-valued.
        assert_eq!(report.counters["reduce_rounds"], 0);
        assert_eq!(report.counters.len(), NUM_COUNTERS);
        let bfs = report.phases.iter().find(|p| p.name == "bfs").unwrap();
        assert_eq!(bfs.count, 2);
        assert!((bfs.total_seconds - 0.005).abs() < 1e-9);
        assert_eq!(report.events.len(), 1);
        assert_eq!(report.dropped_events, 0);
        assert!(report.derived.elapsed_seconds >= 0.0);
    }

    #[test]
    fn observations_land_in_the_right_histogram() {
        let rec = RunRecorder::new();
        rec.observe(Metric::FrontierSize, 10);
        rec.observe(Metric::FrontierSize, 1000);
        rec.observe(Metric::SourceBfsNanos, 5_000);
        let report = rec.report();
        assert_eq!(report.histograms.len(), NUM_METRICS);
        let frontier = report.histograms.iter().find(|h| h.metric == "frontier_size").unwrap();
        assert_eq!(frontier.count, 2);
        assert_eq!(frontier.max, 1000);
        assert_eq!(frontier.unit, "vertices");
        assert!(frontier.p50 <= frontier.p90 && frontier.p90 <= frontier.p99);
        let source = report.histograms.iter().find(|h| h.metric == "source_bfs_ns").unwrap();
        assert_eq!(source.count, 1);
        assert_eq!(source.sum, 5_000);
        // Unobserved metrics are still present with zero counts.
        let level = report.histograms.iter().find(|h| h.metric == "level_ns").unwrap();
        assert_eq!(level.count, 0);
    }

    #[test]
    fn spans_merge_across_threads() {
        let rec = std::sync::Arc::new(RunRecorder::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let rec = rec.clone();
                std::thread::spawn(move || {
                    for _ in 0..10 {
                        rec.span("worker", Duration::from_millis(1));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        rec.span("main", Duration::from_millis(2));
        let report = rec.report();
        let worker = report.phases.iter().find(|p| p.name == "worker").unwrap();
        assert_eq!(worker.count, 40);
        assert!((worker.total_seconds - 0.040).abs() < 1e-9);
        assert_eq!(report.phases.iter().find(|p| p.name == "main").unwrap().count, 1);
    }

    #[test]
    fn event_cap_keeps_head_and_tail() {
        let rec = RunRecorder::new();
        for i in 0..(MAX_EVENTS + 5) {
            rec.event("e", &i.to_string());
        }
        rec.event("deadline", "late but important");
        let report = rec.report();
        assert_eq!(report.events.len(), MAX_EVENTS);
        assert_eq!(report.dropped_events, 6);
        assert_eq!(report.dropped_events_by_kind["e"], 6);
        // The opening of the run survives…
        assert_eq!(report.events[0].detail, "0");
        assert_eq!(report.events[EVENT_HEAD - 1].detail, (EVENT_HEAD - 1).to_string());
        // …and so does the most recent event, unlike first-N-wins.
        let last = report.events.last().unwrap();
        assert_eq!(last.kind, "deadline");
        assert_eq!(last.detail, "late but important");
    }

    #[test]
    fn timed_records_span_and_trace() {
        let rec = RunRecorder::with_trace();
        assert!(rec.trace_enabled());
        let out = timed(&rec, "prepare", || {
            timed(&rec, "reduce", || 7)
        });
        assert_eq!(out, 7);
        let report = rec.report();
        assert!(report.phases.iter().any(|p| p.name == "prepare"));
        let events = rec.trace_events();
        assert_eq!(events.len(), 2);
        // Inner span closes first but starts later: containment holds.
        let prepare = events.iter().find(|e| e.name == "prepare").unwrap();
        let reduce = events.iter().find(|e| e.name == "reduce").unwrap();
        assert!(reduce.start_ns >= prepare.start_ns);
        assert!(reduce.start_ns + reduce.dur_ns <= prepare.start_ns + prepare.dur_ns);
        let json = rec.chrome_trace_json();
        assert!(json.contains("\"name\":\"reduce\""));
        assert_eq!(rec.trace_dropped(), 0);
    }

    #[test]
    fn untraced_recorder_collects_no_trace() {
        let rec = RunRecorder::new();
        assert!(!rec.trace_enabled());
        timed(&rec, "prepare", || ());
        assert!(rec.trace_events().is_empty());
        assert_eq!(rec.chrome_trace_json().trim(), "[\n]");
    }

    #[test]
    fn timed_metric_feeds_histogram_and_span() {
        let rec = RunRecorder::new();
        let out = timed_metric(&rec, "estimate", Metric::QueryNanos, || 42);
        assert_eq!(out, 42);
        let report = rec.report();
        let span = report.phases.iter().find(|p| p.name == "estimate").unwrap();
        assert_eq!(span.count, 1);
        let hist = report.histograms.iter().find(|h| h.metric == "query_ns").unwrap();
        assert_eq!(hist.count, 1);
    }

    #[test]
    fn mteps_rated_against_estimate_phase_when_present() {
        let rec = RunRecorder::new();
        rec.add(Counter::EdgesScanned, 10_000_000);
        rec.span("prepare", Duration::from_secs(100));
        rec.span("estimate", Duration::from_secs(2));
        let report = rec.report();
        assert!((report.derived.estimate_seconds - 2.0).abs() < 1e-12);
        assert!((report.derived.mteps - 5.0).abs() < 1e-9);
        // Whole-run rate uses actual wall time since new(), which is tiny
        // here — so it vastly exceeds the estimate-phase rate.
        assert!(report.derived.whole_run_mteps > report.derived.mteps);
    }

    #[test]
    fn mteps_falls_back_to_elapsed_without_estimate_span() {
        let rec = RunRecorder::new();
        rec.add(Counter::EdgesScanned, 1_000_000);
        std::thread::sleep(Duration::from_millis(2));
        let report = rec.report();
        assert_eq!(report.derived.estimate_seconds, 0.0);
        assert!(report.derived.mteps > 0.0);
        assert!((report.derived.mteps - report.derived.whole_run_mteps).abs() < 1e-9);
    }

    #[test]
    fn report_round_trips_through_json() {
        let rec = RunRecorder::new();
        rec.add(Counter::EdgesScanned, 42);
        rec.span("assemble", Duration::from_micros(10));
        rec.observe(Metric::QueryNanos, 1234);
        let report = rec.report();
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("brics.run_report/v3"));
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.counters["edges_scanned"], 42);
        assert_eq!(back.schema, RunReport::SCHEMA);
        assert_eq!(back.histograms.len(), NUM_METRICS);
        assert_eq!(
            back.histograms.iter().find(|h| h.metric == "query_ns").unwrap().max,
            1234
        );
        // The v3 memory block round-trips; this binary does not install
        // the tracking allocator, so it reports all-off.
        assert!(!back.memory.tracking);
        assert_eq!(back.memory, report.memory);
    }

    #[test]
    fn v2_document_without_memory_fields_still_parses() {
        // A v3 reader must accept v2 documents: serialize, strip the new
        // fields, deserialize — serde fills the defaults back in.
        let report = RunRecorder::new().report();
        let serde_json::Value::Object(mut pairs) = serde_json::to_value(&report) else {
            panic!("report must serialize to an object");
        };
        pairs.retain(|(k, _)| k != "memory");
        for (k, v) in pairs.iter_mut() {
            if k == "schema" {
                *v = serde_json::Value::Str(RunReport::SCHEMA_V2.to_string());
            }
        }
        let back: RunReport =
            serde_json::from_value(&serde_json::Value::Object(pairs)).unwrap();
        assert_eq!(back.schema, RunReport::SCHEMA_V2);
        assert_eq!(back.memory, MemoryBlock::default());
    }

    #[test]
    fn span_mem_folds_heap_envelope_per_occurrence() {
        let rec = RunRecorder::new();
        rec.span_mem(
            "estimate",
            Duration::from_millis(1),
            MemSpan { open_bytes: 100, peak_bytes: 400 },
        );
        rec.span_mem(
            "estimate",
            Duration::from_millis(1),
            MemSpan { open_bytes: 50, peak_bytes: 300 },
        );
        let report = rec.report();
        let p = report.phases.iter().find(|p| p.name == "estimate").unwrap();
        assert_eq!(p.count, 2);
        assert_eq!(p.mem_open_bytes, 50);
        assert_eq!(p.mem_peak_bytes, 400);
        // Per-occurrence footprints are 300 and 250; pairing min-open with
        // max-peak across occurrences would claim 350. The ledger keeps
        // the honest per-occurrence max.
        assert_eq!(p.mem_footprint_bytes, 300);
        assert_eq!(report.memory.observed_peak_bytes, 300);
    }

    #[test]
    fn observed_peak_only_counts_planned_phases() {
        let rec = RunRecorder::new();
        rec.span_mem(
            "prepare",
            Duration::from_millis(1),
            MemSpan { open_bytes: 0, peak_bytes: 10_000 },
        );
        rec.span_mem(
            "bfs.batch",
            Duration::from_millis(1),
            MemSpan { open_bytes: 100, peak_bytes: 600 },
        );
        let report = rec.report();
        // prepare's CSR build dwarfs query scratch but is not what the
        // plan models; the observed peak tracks the planned phases only.
        assert_eq!(report.memory.observed_peak_bytes, 500);
    }

    #[test]
    fn stamp_planned_bytes_sets_accuracy_and_overrun_event() {
        let rec = RunRecorder::new();
        rec.span_mem(
            "estimate",
            Duration::from_millis(1),
            MemSpan { open_bytes: 0, peak_bytes: 1_500 },
        );
        let mut report = rec.report();
        report.memory.tracking = true; // as if the allocator were installed
        report.stamp_planned_bytes(1_000);
        assert_eq!(report.memory.planned_bytes, 1_000);
        assert!((report.memory.plan_accuracy.unwrap() - 1.5).abs() < 1e-12);
        assert!(report.events.iter().any(|e| e.kind == "memory.overrun"));

        // Within plan: accuracy ≤ 1, no event.
        let mut ok = rec.report();
        ok.memory.tracking = true;
        ok.stamp_planned_bytes(3_000);
        assert!(ok.memory.plan_accuracy.unwrap() <= 1.0);
        assert!(!ok.events.iter().any(|e| e.kind == "memory.overrun"));

        // No plan: accuracy stays None and nothing fires.
        let mut unplanned = rec.report();
        unplanned.stamp_planned_bytes(0);
        assert_eq!(unplanned.memory.plan_accuracy, None);
        assert!(!unplanned.events.iter().any(|e| e.kind == "memory.overrun"));
    }

    #[test]
    fn plain_span_never_invents_memory_figures() {
        let rec = RunRecorder::new();
        rec.span("estimate", Duration::from_millis(1));
        let report = rec.report();
        let p = report.phases.iter().find(|p| p.name == "estimate").unwrap();
        assert_eq!(p.mem_open_bytes, 0);
        assert_eq!(p.mem_peak_bytes, 0);
        assert_eq!(p.mem_footprint_bytes, 0);
    }

    #[test]
    fn summary_table_shows_nonzero_counters_phases_and_histograms() {
        let rec = RunRecorder::new();
        rec.add(Counter::BfsSources, 4);
        rec.span("estimate", Duration::from_millis(1));
        rec.observe(Metric::SourceBfsNanos, 900);
        rec.event("deadline", "expired");
        let table = rec.report().summary_table();
        assert!(table.contains("bfs_sources"));
        assert!(table.contains("estimate"));
        assert!(table.contains("source_bfs_ns"));
        assert!(table.contains("deadline: expired"));
        assert!(!table.contains("reduce_rounds"));
        assert!(!table.contains("level_ns"), "zero-count histograms are omitted from the table");
    }

    #[test]
    fn recorder_by_reference_forwards() {
        fn takes<R: Recorder>(rec: &R) {
            rec.incr(Counter::BfsSources);
            rec.observe(Metric::FrontierSize, 2);
        }
        let rec = RunRecorder::new();
        takes(&&rec);
        assert_eq!(rec.counter(Counter::BfsSources), 1);
        assert_eq!(rec.histogram(Metric::FrontierSize).count, 1);
    }

    #[test]
    fn optional_recorder_forwards_tracing() {
        let rec = Some(RunRecorder::with_trace());
        assert!(rec.trace_enabled());
        timed(&rec, "prepare", || ());
        assert_eq!(rec.as_ref().unwrap().trace_events().len(), 1);
        let none: Option<RunRecorder> = None;
        assert!(!none.trace_enabled());
    }
}
