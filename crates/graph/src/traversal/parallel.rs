//! Rayon-parallel multi-source BFS: the one sweep every whole-graph
//! estimator runs its sources through.
//!
//! [`par_bfs_sweep`] runs one BFS per source and, given an accumulator,
//! adds `Σ_s d(s, v)` into it for every vertex `v`. Parallelism is over
//! *sources*: each worker owns `O(n)` private scratch and publishes into
//! the shared atomic accumulator. This mirrors the paper's OpenMP loop over
//! sampled vertices (Algorithm 1 line 3, Algorithm 5 line 5) and keeps
//! memory at `O(n)` per worker rather than `O(n·k)` — the space
//! optimisation §II-A describes.
//!
//! One rule covers every kernel: a *unit* adds to the accumulator only
//! after it completes. With a serial kernel ([`Bfs`], [`HybridBfs`]) the
//! unit is one source, published from the kernel's own distance array;
//! with the bit-parallel [`MsBfs`] (see [`KernelConfig::msbfs_applies`])
//! it is one batch of up to [`MSBFS_BATCH`] sources, published from a
//! dense `u64` array per worker. An interrupted or panicked unit therefore
//! never reaches the accumulator, and what a worker panic does is one
//! argument of the sweep ([`OnPanic`]).
//!
//! See DESIGN.md §"BFS kernel selection" for the rationale.

use super::bfs::Bfs;
use super::hybrid::{HybridBfs, Kernel, KernelConfig, SerialBfsKernel, MSBFS_BATCH};
use super::msbfs::MsBfs;
use crate::control::{panic_message, FaultKind, FaultSite, RunControl, RunOutcome};
use crate::telemetry::{record_panic, timed, Counter, Metric, Recorder};
use crate::{CsrGraph, NodeId};
use rayon::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Reinterprets an exclusively-held `u64` slice as atomics so rayon workers
/// can publish into it lock-free. Safe: `AtomicU64` is `repr(transparent)`
/// over `u64` and the exclusive borrow guarantees no other access.
pub fn atomic_view(acc: &mut [u64]) -> &[AtomicU64] {
    unsafe { std::slice::from_raw_parts(acc.as_ptr() as *const AtomicU64, acc.len()) }
}

/// `u32` analogue of [`atomic_view`], used by the frontier-parallel kernel
/// to let workers claim vertices in the distance array with
/// `compare_exchange`. Same safety argument: `AtomicU32` is
/// `repr(transparent)` over `u32` and the `&mut` borrow is exclusive.
pub fn atomic_view_u32(dist: &mut [u32]) -> &[AtomicU32] {
    unsafe { std::slice::from_raw_parts(dist.as_ptr() as *const AtomicU32, dist.len()) }
}

/// A worker panicked inside a controlled parallel loop. What the loop had
/// already accumulated is not an answer to the caller's query, so callers
/// discard it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Panic payload rendered as text.
    pub detail: String,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker panicked: {}", self.detail)
    }
}

impl std::error::Error for WorkerPanic {}

/// What a worker panic does to a [`par_bfs_sweep`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OnPanic {
    /// End the sweep with [`WorkerPanic`]; units not yet started are
    /// skipped.
    Fail,
    /// Quarantine the panicked unit's sources ([`Sweep::quarantined`]) and
    /// keep going, so the degradation ladder can retry them.
    Quarantine,
}

/// Result of a [`par_bfs_sweep`].
#[derive(Clone, Debug)]
pub struct Sweep {
    /// Per source, in input order: `Some((reached, Σ d))` if the source's
    /// unit completed, `None` if it was skipped (the run stopped) or
    /// quarantined (a panic). A `None` source added **nothing** to the
    /// accumulator.
    pub per_source: Vec<Option<(usize, u64)>>,
    /// Indices into the input `sources` whose unit panicked under
    /// [`OnPanic::Quarantine`], ascending. A panicked MS-BFS batch
    /// quarantines every source of the batch.
    pub quarantined: Vec<usize>,
    /// Whether the sweep completed or was interrupted (and why).
    /// Quarantined sources do **not** mark it interrupted.
    pub outcome: RunOutcome,
}

/// Tracks the first interruption cause observed by any worker.
struct StopCell(AtomicU8);

impl StopCell {
    const NONE: u8 = 0;

    fn new() -> Self {
        StopCell(AtomicU8::new(Self::NONE))
    }

    fn record(&self, outcome: RunOutcome) {
        let code = match outcome {
            RunOutcome::Complete | RunOutcome::Degraded => return,
            RunOutcome::Deadline => 1,
            RunOutcome::Cancelled => 2,
            RunOutcome::MemoryLimit => 3,
        };
        // First writer wins; later causes are strictly less interesting.
        let _ = self.0.compare_exchange(Self::NONE, code, Ordering::Relaxed, Ordering::Relaxed);
    }

    fn outcome(&self) -> RunOutcome {
        match self.0.load(Ordering::Relaxed) {
            1 => RunOutcome::Deadline,
            2 => RunOutcome::Cancelled,
            3 => RunOutcome::MemoryLimit,
            _ => RunOutcome::Complete,
        }
    }
}

/// Shared panic/stop state for one controlled parallel loop, plus the
/// per-source worker protocol: skip fast once poisoned or stopped, otherwise
/// run the payload under `catch_unwind`.
///
/// Public so estimators with bespoke per-source work (distance
/// reconstruction, block-local pivot BFS) can honour the same contract as
/// [`par_bfs_sweep`]: wrap each source in [`WorkerGuard::run_source`], then
/// call [`WorkerGuard::finish`] once the parallel loop drains.
pub struct WorkerGuard<'c> {
    ctl: &'c RunControl,
    site: FaultSite,
    stop: StopCell,
    poisoned: AtomicBool,
    panic_detail: Mutex<Option<String>>,
}

/// Enacts a fired worker fault: panic-like kinds unwind here (the caller's
/// `catch_unwind` isolates them); slow/sticky kinds were already applied by
/// [`RunControl::fault_apply`] itself.
fn apply_worker_fault(ctl: &RunControl, site: FaultSite, s: NodeId) {
    match ctl.fault_apply(site, u64::from(s)) {
        Some(FaultKind::Panic) => {
            panic!("injected worker panic ({}) on source {s}", site.name())
        }
        Some(FaultKind::IoError) => {
            panic!("injected i/o error ({}) on source {s}", site.name())
        }
        _ => {}
    }
}

impl<'c> WorkerGuard<'c> {
    /// Fresh guard state for one parallel loop over BFS sources; fault
    /// arms at [`FaultSite::BfsSource`] apply to its workers.
    pub fn new(ctl: &'c RunControl) -> Self {
        Self::with_site(ctl, FaultSite::BfsSource)
    }

    /// [`WorkerGuard::new`] with an explicit failpoint, for per-source
    /// loops that are not plain BFS sweeps (e.g. cumulative phase B).
    pub fn with_site(ctl: &'c RunControl, site: FaultSite) -> Self {
        WorkerGuard {
            ctl,
            site,
            stop: StopCell::new(),
            poisoned: AtomicBool::new(false),
            panic_detail: Mutex::new(None),
        }
    }

    /// Runs `work` for source `s` unless the run is stopped or poisoned.
    /// Panics inside `work` are captured and poison the run.
    pub fn run_source<R>(&self, s: NodeId, work: impl FnOnce() -> R) -> Option<R> {
        if self.skip() {
            return None;
        }
        let result = catch_unwind(AssertUnwindSafe(|| {
            apply_worker_fault(self.ctl, self.site, s);
            work()
        }));
        result.map_err(|payload| self.poison(panic_message(payload.as_ref()))).ok()
    }

    /// Whether the next unit of work must be skipped: the run is poisoned,
    /// or the control asks to stop (the cause is recorded).
    fn skip(&self) -> bool {
        if self.poisoned.load(Ordering::Relaxed) {
            return true;
        }
        match self.ctl.should_stop() {
            Some(cause) => {
                self.stop.record(cause);
                true
            }
            None => false,
        }
    }

    /// Marks the run poisoned, keeping the first panic's detail.
    fn poison(&self, detail: String) {
        self.poisoned.store(true, Ordering::Relaxed);
        self.panic_detail.lock().expect("no panic under lock").get_or_insert(detail);
    }

    /// Folds the shared state into a final verdict.
    pub fn finish(self) -> Result<RunOutcome, WorkerPanic> {
        if self.poisoned.load(Ordering::Relaxed) {
            let detail = self
                .panic_detail
                .into_inner()
                .expect("no panic under lock")
                .unwrap_or_else(|| "unknown panic".to_string());
            return Err(WorkerPanic { detail });
        }
        Ok(self.stop.outcome())
    }
}

/// Runs one BFS per source of `sources` in parallel and returns each
/// source's `(reached, Σ d)`: its exact farness when the graph is
/// connected (the reached counts let callers detect otherwise).
///
/// Given `acc` (at least `g.num_nodes()` long), the sweep also adds the
/// partial farness `Σ_s d(s, u)` over the completed sources into `acc[u]`
/// for every vertex `u`; unreachable pairs add nothing. Without `acc` it
/// adds nothing and allocates no accumulator scratch: exact farness needs
/// only the per-source sums.
///
/// The kernel follows `cfg`: batched MS-BFS when
/// [`KernelConfig::msbfs_applies`], otherwise the configured serial kernel
/// per source. The control is consulted before each unit (and by MS-BFS
/// before each level); on interruption `acc` holds the complete
/// contributions of exactly the `Some` sources. `Err` comes only under
/// [`OnPanic::Fail`]. The recorder only observes: kernel choice, scheduling
/// and results are bit-identical with
/// [`NullRecorder`](crate::telemetry::NullRecorder).
pub fn par_bfs_sweep<R: Recorder>(
    g: &CsrGraph,
    sources: &[NodeId],
    acc: Option<&mut [u64]>,
    ctl: &RunControl,
    cfg: &KernelConfig,
    on_panic: OnPanic,
    rec: &R,
) -> Result<Sweep, WorkerPanic> {
    let n = g.num_nodes();
    if let Some(acc) = &acc {
        assert!(acc.len() >= n, "accumulator too small");
    }
    if rec.enabled() {
        rec.add(Counter::BfsSourcesPlanned, sources.len() as u64);
    }
    let args = SweepArgs { g, sources, acc: acc.map(atomic_view), ctl, on_panic, rec };
    let sweep = timed(rec, "bfs.batch", || {
        let threads = rayon::current_num_threads();
        if cfg.msbfs_applies(sources.len(), threads) {
            // Enough batches to occupy the pool: one batch per worker with
            // serial sweeps. Fewer: one batch after another, each sweep
            // spread across the pool. OR and `u64` addition commute, so
            // both placements give bit-identical rows and sums.
            let parallel = threads == 1 || sources.len().div_ceil(MSBFS_BATCH) >= threads;
            let dense = if args.acc.is_some() { n } else { 0 };
            return args.run(MSBFS_BATCH, MSBFS_BATCH, parallel, || BatchWorker {
                ms: MsBfs::new(n),
                dense: vec![0; dense],
                parallel_sweep: !parallel,
            });
        }
        if rec.enabled() {
            rec.incr(match cfg.kernel {
                Kernel::TopDown => Counter::BatchesTopdown,
                Kernel::Auto | Kernel::Hybrid | Kernel::MsBfs => Counter::BatchesHybrid,
            });
        }
        // One source per unit, handed out in runs sized for ~32 queue
        // items per thread.
        let run_len = sources.len().div_ceil(threads * 32).max(1);
        match cfg.kernel {
            Kernel::TopDown => args.run(1, run_len, true, || serial::<Bfs>(n, cfg, rec)),
            // `MsBfs` only lands here with zero sources (the batched engine
            // otherwise always applies); the kernel is moot.
            Kernel::Auto | Kernel::Hybrid | Kernel::MsBfs => {
                args.run(1, run_len, true, || serial::<HybridBfs>(n, cfg, rec))
            }
        }
    })?;
    record_rows(rec, g, &sweep.per_source);
    Ok(sweep)
}

/// What every unit of one [`par_bfs_sweep`] shares.
struct SweepArgs<'a, R> {
    g: &'a CsrGraph,
    sources: &'a [NodeId],
    acc: Option<&'a [AtomicU64]>,
    ctl: &'a RunControl,
    on_panic: OnPanic,
    rec: &'a R,
}

impl<R: Recorder> SweepArgs<'_, R> {
    /// The sweep loop: units of `unit_len` sources, handed to workers in
    /// items of `item_len` sources (in parallel, or one after another on a
    /// single worker). Each unit runs under `catch_unwind` and publishes
    /// into the accumulator only once it completes.
    fn run<W: Worker>(
        &self,
        unit_len: usize,
        item_len: usize,
        parallel: bool,
        new_worker: impl Fn() -> W + Sync + Send,
    ) -> Result<Sweep, WorkerPanic> {
        let mut per_source = vec![None; self.sources.len()];
        let guard = WorkerGuard::new(self.ctl);
        let quarantined = Mutex::new(Vec::new());
        let run_item = |w: &mut W, (first, sources, rows): Item<'_>| {
            let units = sources.chunks(unit_len).zip(rows.chunks_mut(unit_len));
            for (i, (unit, rows)) in units.enumerate() {
                if guard.skip() {
                    continue;
                }
                let first = first + i * unit_len;
                let result = catch_unwind(AssertUnwindSafe(|| {
                    w.run(self.g, unit, first / unit_len, self.ctl, self.rec, rows)
                }));
                match result {
                    Ok(Ok(())) => {
                        if let Some(acc) = self.acc {
                            w.publish(acc);
                        }
                        continue;
                    }
                    Ok(Err(cause)) => guard.stop.record(cause),
                    Err(payload) => {
                        let detail = panic_message(payload.as_ref());
                        match self.on_panic {
                            OnPanic::Fail => guard.poison(detail),
                            OnPanic::Quarantine => {
                                record_panic(self.rec, &detail);
                                let mut list = quarantined.lock().expect("no panic under lock");
                                list.extend(first..first + unit.len());
                            }
                        }
                    }
                }
                rows.fill(None);
                w.discard();
            }
        };
        let items: Vec<Item<'_>> = self
            .sources
            .chunks(item_len)
            .zip(per_source.chunks_mut(item_len))
            .enumerate()
            .map(|(i, (sources, rows))| (i * item_len, sources, rows))
            .collect();
        if parallel {
            items.into_par_iter().for_each_init(&new_worker, run_item);
        } else {
            let mut w = new_worker();
            items.into_iter().for_each(|item| run_item(&mut w, item));
        }
        let outcome = guard.finish()?;
        let mut quarantined = quarantined.into_inner().expect("no panic under lock");
        quarantined.sort_unstable();
        Ok(Sweep { per_source, quarantined, outcome })
    }
}

/// A run of consecutive sources handed to one worker: the index of its
/// first source, the sources and their rows.
type Item<'a> = (usize, &'a [NodeId], &'a mut [Option<(usize, u64)>]);

/// One worker's traversal scratch, as [`par_bfs_sweep`] drives it. A unit
/// (one source for a serial kernel, one batch for MS-BFS) completes or
/// fails as a whole.
trait Worker: Send {
    /// Runs one unit (`ordinal` counts units from the start of the sweep)
    /// after applying its failpoints, writing each source's `(reached,
    /// Σ d)` into `rows`. `Err` is the cause of a unit interrupted
    /// mid-traversal.
    fn run<R: Recorder>(
        &mut self,
        g: &CsrGraph,
        unit: &[NodeId],
        ordinal: usize,
        ctl: &RunControl,
        rec: &R,
        rows: &mut [Option<(usize, u64)>],
    ) -> Result<(), RunOutcome>;

    /// Adds the completed unit's distances into `acc`.
    fn publish(&mut self, acc: &[AtomicU64]);

    /// Drops a failed unit's partial contribution.
    fn discard(&mut self) {}
}

/// Fresh scratch of a serial kernel for one worker.
fn serial<K: SerialBfsKernel>(n: usize, cfg: &KernelConfig, rec: &impl Recorder) -> K {
    let mut bfs = K::for_config(n, cfg);
    // Per-level frontier sizes feed the report's histogram; the log is
    // only kept when someone will read it.
    bfs.set_level_recording(rec.enabled());
    bfs
}

impl<K: SerialBfsKernel> Worker for K {
    fn run<R: Recorder>(
        &mut self,
        g: &CsrGraph,
        unit: &[NodeId],
        _ordinal: usize,
        ctl: &RunControl,
        rec: &R,
        rows: &mut [Option<(usize, u64)>],
    ) -> Result<(), RunOutcome> {
        let s = unit[0];
        apply_worker_fault(ctl, FaultSite::BfsSource, s);
        let start = rec.enabled().then(Instant::now);
        rows[0] = Some(self.traverse(g, s));
        if let Some(start) = start {
            let end = Instant::now();
            rec.observe(Metric::SourceBfsNanos, end.duration_since(start).as_nanos() as u64);
            if rec.trace_enabled() {
                rec.trace_span("bfs.source", start, end);
            }
            record_traversal_stats(rec, self.last_stats());
            for &n_f in self.level_sizes() {
                rec.observe(Metric::FrontierSize, n_f);
            }
        }
        Ok(())
    }

    fn publish(&mut self, acc: &[AtomicU64]) {
        let (visited, dist) = self.visited();
        for &v in visited {
            let d = dist[v as usize];
            if d > 0 {
                acc[v as usize].fetch_add(u64::from(d), Ordering::Relaxed);
            }
        }
    }
}

/// MS-BFS scratch for one worker: a unit is one batch of up to
/// [`MSBFS_BATCH`] sources.
struct BatchWorker {
    ms: MsBfs,
    /// The running batch's `Σ d` per vertex, published when the batch
    /// completes. Empty when the sweep has no accumulator.
    dense: Vec<u64>,
    /// Spread each level's arc sweep across the pool.
    parallel_sweep: bool,
}

impl Worker for BatchWorker {
    /// The batch-granular [`FaultSite::BfsBatch`] arm fires on the batch
    /// ordinal, then the [`FaultSite::BfsSource`] arm for every member, so
    /// plans aimed at single sources keep firing under batching (the blast
    /// radius widens to the batch).
    fn run<R: Recorder>(
        &mut self,
        g: &CsrGraph,
        unit: &[NodeId],
        ordinal: usize,
        ctl: &RunControl,
        rec: &R,
        rows: &mut [Option<(usize, u64)>],
    ) -> Result<(), RunOutcome> {
        if rec.enabled() {
            rec.incr(Counter::BatchesMsbfs);
        }
        apply_worker_fault(ctl, FaultSite::BfsBatch, ordinal as NodeId);
        for &s in unit {
            apply_worker_fault(ctl, FaultSite::BfsSource, s);
        }
        let dense = &mut self.dense;
        let sums = self.ms.run_batch_ctl_rec(g, unit, ctl, self.parallel_sweep, rec, |v, bits, d| {
            // Several sources may reach `v` at the same level; one add
            // covers them all.
            if let Some(sum) = dense.get_mut(v as usize) {
                *sum += u64::from(d) * u64::from(bits.count_ones());
            }
        })?;
        for (row, sum) in rows.iter_mut().zip(sums) {
            *row = Some(sum);
        }
        if rec.enabled() {
            record_traversal_stats(rec, self.ms.last_stats());
        }
        Ok(())
    }

    fn publish(&mut self, acc: &[AtomicU64]) {
        for &v in self.ms.visited() {
            let add = std::mem::take(&mut self.dense[v as usize]);
            if add > 0 {
                acc[v as usize].fetch_add(add, Ordering::Relaxed);
            }
        }
    }

    fn discard(&mut self) {
        self.dense.fill(0);
    }
}

/// Charges the per-source counters for one sweep: completed sources (at
/// the bench's `num_arcs()`-per-source edge convention, keeping the
/// report's MTEPS comparable with `BENCH_kernels.json`) and skipped ones.
fn record_rows<R: Recorder>(rec: &R, g: &CsrGraph, rows: &[Option<(usize, u64)>]) {
    if !rec.enabled() {
        return;
    }
    let done = rows.iter().flatten().count() as u64;
    let visited: u64 = rows.iter().flatten().map(|&(r, _)| r as u64).sum();
    rec.add(Counter::BfsSources, done);
    rec.add(Counter::VerticesVisited, visited);
    rec.add(Counter::EdgesScanned, done * g.num_arcs() as u64);
    rec.add(Counter::BfsSourcesSkipped, rows.len() as u64 - done);
}

/// Publishes one kernel traversal's heuristic stats into the recorder.
fn record_traversal_stats<R: Recorder>(rec: &R, st: super::hybrid::TraversalStats) {
    rec.add(Counter::FrontierLevels, st.levels);
    rec.add(Counter::BottomUpLevels, st.bottom_up_levels);
    rec.add(Counter::DirectionSwitches, st.direction_switches);
    rec.max(Counter::PeakFrontier, st.peak_frontier);
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // parallel arrays indexed by vertex id
mod tests {
    use super::*;
    use crate::telemetry::{NullRecorder, RunRecorder};
    use crate::traversal::bfs_distances;
    use crate::GraphBuilder;

    fn grid3x3() -> CsrGraph {
        // 0 1 2
        // 3 4 5
        // 6 7 8
        let mut b = GraphBuilder::new(9);
        for r in 0..3u32 {
            for c in 0..3u32 {
                let v = r * 3 + c;
                if c < 2 {
                    b.add_edge(v, v + 1);
                }
                if r < 2 {
                    b.add_edge(v, v + 3);
                }
            }
        }
        b.build()
    }

    /// An accumulating sweep that ends on a worker panic.
    fn accumulate(
        g: &CsrGraph,
        sources: &[NodeId],
        acc: &mut [u64],
        ctl: &RunControl,
        cfg: &KernelConfig,
    ) -> Result<Sweep, WorkerPanic> {
        par_bfs_sweep(g, sources, Some(acc), ctl, cfg, OnPanic::Fail, &NullRecorder)
    }

    /// Σ_s d(s, v) for every vertex, from one plain BFS per source.
    fn serial_sums(g: &CsrGraph, sources: &[NodeId]) -> Vec<u64> {
        (0..g.num_nodes())
            .map(|v| sources.iter().map(|&s| u64::from(bfs_distances(g, s)[v])).sum())
            .collect()
    }

    /// Runs `f` inside a pool that reports `threads` workers, so both
    /// MS-BFS placements are reachable on any machine.
    fn in_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(f)
    }

    #[test]
    fn accumulate_matches_serial_sum() {
        let g = grid3x3();
        let sources: Vec<NodeId> = vec![0, 4, 8];
        let mut acc = vec![0u64; 9];
        let run = accumulate(&g, &sources, &mut acc, &RunControl::new(), &KernelConfig::default())
            .unwrap();
        assert_eq!(acc, serial_sums(&g, &sources));
        assert_eq!(run.outcome, RunOutcome::Complete);
        assert!(run.quarantined.is_empty());
        assert!(run.per_source.iter().all(|r| r.is_some_and(|(reached, _)| reached == 9)));
        // Per-source farness of the centre of a 3x3 grid is 1*4 + 2*4 = 12.
        assert_eq!(run.per_source[1], Some((9, 12)));
    }

    #[test]
    fn accumulate_all_sources_gives_exact_farness() {
        let g = grid3x3();
        let sources: Vec<NodeId> = (0..9).collect();
        let mut acc = vec![0u64; 9];
        let run = accumulate(&g, &sources, &mut acc, &RunControl::new(), &KernelConfig::default())
            .unwrap();
        // With every vertex as a source, acc[v] == farness(v) == per-source sum.
        for v in 0..9 {
            assert_eq!(Some(acc[v]), run.per_source[v].map(|(_, sum)| sum));
        }
    }

    #[test]
    fn empty_sources() {
        let g = grid3x3();
        let mut acc = vec![0u64; 9];
        for kernel in [Kernel::Auto, Kernel::MsBfs] {
            let run = accumulate(&g, &[], &mut acc, &RunControl::new(), &KernelConfig::new(kernel))
                .unwrap();
            assert!(run.per_source.is_empty());
            assert!(acc.iter().all(|&x| x == 0));
        }
    }

    #[test]
    fn accumulator_is_additive_across_calls() {
        let g = grid3x3();
        let (ctl, cfg) = (RunControl::new(), KernelConfig::default());
        let mut acc = vec![0u64; 9];
        accumulate(&g, &[0], &mut acc, &ctl, &cfg).unwrap();
        accumulate(&g, &[8], &mut acc, &ctl, &cfg).unwrap();
        let mut expect = vec![0u64; 9];
        accumulate(&g, &[0, 8], &mut expect, &ctl, &cfg).unwrap();
        assert_eq!(acc, expect);
    }

    #[test]
    fn ctl_unbounded_matches_uncontrolled() {
        // An unbounded control completes every source with the rows a
        // plain BFS per source gives.
        let g = grid3x3();
        let sources: Vec<NodeId> = vec![0, 4, 8];
        let mut acc = vec![0u64; 9];
        let run = accumulate(&g, &sources, &mut acc, &RunControl::new(), &KernelConfig::default())
            .unwrap();
        assert_eq!(run.outcome, RunOutcome::Complete);
        let want: Vec<_> =
            sources.iter().map(|&s| Some((9, serial_sums(&g, &[s]).iter().sum()))).collect();
        assert_eq!(run.per_source, want);
    }

    #[test]
    fn ctl_expired_deadline_skips_every_source() {
        let g = grid3x3();
        let sources: Vec<NodeId> = (0..9).collect();
        let mut acc = vec![0u64; 9];
        let ctl = RunControl::new().with_timeout(std::time::Duration::ZERO);
        let run = accumulate(&g, &sources, &mut acc, &ctl, &KernelConfig::default()).unwrap();
        assert_eq!(run.outcome, RunOutcome::Deadline);
        assert!(run.per_source.iter().all(Option::is_none));
        assert!(acc.iter().all(|&x| x == 0), "skipped sources must not touch acc");
    }

    #[test]
    fn ctl_pre_cancelled_skips_every_source() {
        let g = grid3x3();
        let ctl = RunControl::new();
        ctl.cancel_token().cancel();
        let mut acc = vec![0u64; 9];
        let sources: Vec<NodeId> = (0..9).collect();
        let run = accumulate(&g, &sources, &mut acc, &ctl, &KernelConfig::default()).unwrap();
        assert_eq!(run.outcome, RunOutcome::Cancelled);
        assert!(run.per_source.iter().all(Option::is_none));
        assert!(acc.iter().all(|&x| x == 0));
    }

    #[test]
    fn ctl_partial_acc_holds_only_completed_sources() {
        // Completed sweeps stay in acc; a cancelled one adds nothing, so
        // acc equals the serial sum over exactly the completed sources.
        let g = grid3x3();
        let sources: Vec<NodeId> = (0..9).collect();
        let (ctl, cfg) = (RunControl::new(), KernelConfig::default());
        let mut acc = vec![0u64; 9];
        let first = accumulate(&g, &sources[..4], &mut acc, &ctl, &cfg).unwrap();
        assert_eq!(first.outcome, RunOutcome::Complete);
        ctl.cancel_token().cancel();
        let second = accumulate(&g, &sources[4..], &mut acc, &ctl, &cfg).unwrap();
        assert_eq!(second.outcome, RunOutcome::Cancelled);
        assert!(second.per_source.iter().all(Option::is_none));
        assert_eq!(acc, serial_sums(&g, &sources[..4]));
    }

    #[test]
    fn ctl_injected_panic_is_captured_not_propagated() {
        let g = grid3x3();
        let sources: Vec<NodeId> = (0..9).collect();
        let mut acc = vec![0u64; 9];
        let ctl = RunControl::new().with_injected_panic(4);
        let err = accumulate(&g, &sources, &mut acc, &ctl, &KernelConfig::default()).unwrap_err();
        assert!(err.detail.contains("injected worker panic"), "got: {}", err.detail);
        assert!(err.detail.contains("source 4"), "got: {}", err.detail);
    }

    #[test]
    fn serial_quarantine_publishes_nothing_for_the_panicked_source() {
        let g = grid3x3();
        let sources: Vec<NodeId> = vec![0, 4, 8];
        let cfg = KernelConfig::new(Kernel::Hybrid);
        let ctl = RunControl::new().with_injected_panic(4);
        let rec = RunRecorder::new();
        let mut acc = vec![0u64; 9];
        let run = par_bfs_sweep(&g, &sources, Some(&mut acc), &ctl, &cfg, OnPanic::Quarantine, &rec)
            .unwrap();
        assert_eq!(run.quarantined, vec![1]);
        assert_eq!(run.per_source[1], None);
        assert!(run.outcome.is_complete());
        assert_eq!(acc, serial_sums(&g, &[0, 8]), "only completed sources publish");
        assert_eq!(rec.counter(Counter::PanicsIsolated), 1);
        // Retrying the quarantined source lands exactly the full sums.
        accumulate(&g, &[4], &mut acc, &RunControl::new(), &cfg).unwrap();
        assert_eq!(acc, serial_sums(&g, &sources));
    }

    #[test]
    fn atomic_view_u32_claims_vertices() {
        let mut dist = vec![crate::INFINITE_DIST; 8];
        let view = atomic_view_u32(&mut dist);
        assert!(view[3]
            .compare_exchange(crate::INFINITE_DIST, 2, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok());
        assert!(view[3]
            .compare_exchange(crate::INFINITE_DIST, 5, Ordering::Relaxed, Ordering::Relaxed)
            .is_err());
        view[0].store(0, Ordering::Relaxed);
        assert_eq!(dist[0], 0);
        assert_eq!(dist[3], 2);
        assert_eq!(dist[7], crate::INFINITE_DIST);
    }

    #[test]
    fn frontier_parallel_atomic_publication_is_sound() {
        // Exercises the CAS claim (top-down) and bitmap fetch_or (bottom-up)
        // under a real multi-thread pool; named to match CI's Miri filter.
        in_pool(2, || {
            let g = grid3x3();
            let mut engine = crate::traversal::ParFrontierBfs::with_params(
                9,
                crate::traversal::HybridParams::eager_bottom_up(),
            );
            let (reached, sum) = engine.run(&g, 4);
            assert_eq!(reached, 9);
            assert_eq!(sum, 12);
            assert_eq!(&engine.distances()[..9], &bfs_distances(&g, 4)[..]);
        });
    }

    #[test]
    fn frontier_parallel_path_matches_source_parallel() {
        // The bench-only frontier-parallel kernel, driven source by source
        // in a 4-thread pool, agrees with the sweep's rows and sums.
        let g = grid3x3();
        let sources: Vec<NodeId> = vec![4, 7];
        let mut expect = vec![0u64; 9];
        let ctl = RunControl::new();
        let base = accumulate(&g, &sources, &mut expect, &ctl, &KernelConfig::default()).unwrap();
        in_pool(4, || {
            let mut engine = crate::traversal::ParFrontierBfs::new(9);
            let mut acc = vec![0u64; 9];
            for (&s, row) in sources.iter().zip(&base.per_source) {
                assert_eq!(Some(engine.run(&g, s)), *row, "source {s}");
                for (sum, &d) in acc.iter_mut().zip(&engine.distances()[..9]) {
                    *sum += u64::from(d);
                }
            }
            assert_eq!(acc, expect);
        });
    }

    #[test]
    fn msbfs_dense_publish_through_atomic_view_is_sound() {
        // 130 sources → 3 batches ≥ 2 threads, so two workers run batches
        // concurrently, each publishing its dense array into the shared
        // atomic view; named to match CI's Miri filter.
        let g = grid3x3();
        let sources: Vec<NodeId> = (0..130u32).map(|i| i % 9).collect();
        in_pool(2, || {
            let mut acc = vec![0u64; 9];
            let cfg = KernelConfig::new(Kernel::MsBfs);
            let run = accumulate(&g, &sources, &mut acc, &RunControl::new(), &cfg).unwrap();
            assert_eq!(acc, serial_sums(&g, &sources));
            assert!(run.per_source.iter().all(Option::is_some));
        });
    }

    #[test]
    fn kernel_variants_match_topdown_accumulation() {
        let g = grid3x3();
        let sources: Vec<NodeId> = vec![0, 4, 8];
        let ctl = RunControl::new();
        let mut expect = vec![0u64; 9];
        let td = KernelConfig::new(Kernel::TopDown);
        let base = accumulate(&g, &sources, &mut expect, &ctl, &td).unwrap();
        for kernel in [Kernel::Auto, Kernel::Hybrid, Kernel::MsBfs] {
            let mut acc = vec![0u64; 9];
            let run = accumulate(&g, &sources, &mut acc, &ctl, &KernelConfig::new(kernel)).unwrap();
            assert_eq!(acc, expect, "kernel {kernel:?}");
            assert_eq!(run.per_source, base.per_source, "kernel {kernel:?}");
        }
    }

    #[test]
    fn msbfs_kernel_matches_source_parallel_in_both_sweep_modes() {
        let g = grid3x3();
        let sources: Vec<NodeId> = (0..9).collect();
        let mut expect = vec![0u64; 9];
        let ctl = RunControl::new();
        let base = accumulate(&g, &sources, &mut expect, &ctl, &KernelConfig::default()).unwrap();
        let cfg = KernelConfig::new(Kernel::MsBfs);
        // 1 thread → parallel batches (degenerate) with serial sweeps;
        // 4 threads, one batch → sequential batches with parallel sweeps.
        for threads in [1, 4] {
            in_pool(threads, || {
                let mut acc = vec![0u64; 9];
                let run = accumulate(&g, &sources, &mut acc, &RunControl::new(), &cfg).unwrap();
                assert_eq!(acc, expect, "{threads} threads");
                assert_eq!(run.per_source, base.per_source, "{threads} threads");
                assert_eq!(run.outcome, RunOutcome::Complete);
            });
        }
    }

    #[test]
    fn msbfs_expired_deadline_leaves_acc_untouched() {
        let g = grid3x3();
        let sources: Vec<NodeId> = (0..9).collect();
        let mut acc = vec![0u64; 9];
        let ctl = RunControl::new().with_timeout(std::time::Duration::ZERO);
        let cfg = KernelConfig::new(Kernel::MsBfs);
        let run = accumulate(&g, &sources, &mut acc, &ctl, &cfg).unwrap();
        assert_eq!(run.outcome, RunOutcome::Deadline);
        assert!(run.per_source.iter().all(Option::is_none));
        assert!(acc.iter().all(|&x| x == 0), "interrupted batch must not touch acc");
    }

    #[test]
    fn msbfs_injected_panic_poisons_the_run() {
        let g = grid3x3();
        let sources: Vec<NodeId> = (0..9).collect();
        let ctl = RunControl::new().with_injected_panic(4);
        let cfg = KernelConfig::new(Kernel::MsBfs);
        let mut acc = vec![0u64; 9];
        let err = accumulate(&g, &sources, &mut acc, &ctl, &cfg).unwrap_err();
        assert!(err.detail.contains("source 4"), "got: {}", err.detail);
    }

    #[test]
    fn msbfs_auto_selection_batches_many_sources() {
        let g = grid3x3();
        // 130 sources (with repeats) → 3 batches: 64 + 64 + 2 (ragged).
        let sources: Vec<NodeId> = (0..130u32).map(|i| i % 9).collect();
        in_pool(4, || {
            let cfg = KernelConfig::default();
            assert!(cfg.msbfs_applies(sources.len(), rayon::current_num_threads()));
            let rec = RunRecorder::new();
            let mut acc = vec![0u64; 9];
            let run = par_bfs_sweep(
                &g,
                &sources,
                Some(&mut acc),
                &RunControl::new(),
                &cfg,
                OnPanic::Fail,
                &rec,
            )
            .unwrap();
            assert_eq!(acc, serial_sums(&g, &sources));
            let want: Vec<_> =
                sources.iter().map(|&s| Some((9, serial_sums(&g, &[s]).iter().sum()))).collect();
            assert_eq!(run.per_source, want);
            assert_eq!(rec.counter(Counter::BatchesMsbfs), 3);
            assert_eq!(rec.counter(Counter::BfsSources), 130);
            // Batched execution times sweeps, not individual sources.
            assert_eq!(rec.histogram(Metric::SourceBfsNanos).count, 0);
            assert!(rec.histogram(Metric::SweepNanos).count > 0);
            assert!(rec.histogram(Metric::BatchOccupancy).count > 0);
            assert_eq!(rec.histogram(Metric::BatchOccupancy).max, 64);
        });
    }

    #[test]
    fn msbfs_isolated_quarantines_the_whole_batch() {
        let g = grid3x3();
        let sources: Vec<NodeId> = (0..9).collect();
        let ctl = RunControl::new().with_injected_panic(4);
        let cfg = KernelConfig::new(Kernel::MsBfs);
        let rec = RunRecorder::new();
        let mut acc = vec![0u64; 9];
        let run = par_bfs_sweep(&g, &sources, Some(&mut acc), &ctl, &cfg, OnPanic::Quarantine, &rec)
            .unwrap();
        // One batch holds every source, so the panic quarantines all of them
        // and none published into the accumulator.
        assert_eq!(run.quarantined, (0..9).collect::<Vec<_>>());
        assert!(run.per_source.iter().all(Option::is_none));
        assert!(run.outcome.is_complete());
        assert!(acc.iter().all(|&x| x == 0), "quarantined batch must not touch acc");
        assert_eq!(rec.counter(Counter::PanicsIsolated), 1, "one panic per batch");

        // Retrying the quarantined batch without the fault lands exactly
        // the sums a fault-free sweep publishes.
        let retry = par_bfs_sweep(
            &g,
            &sources,
            Some(&mut acc),
            &RunControl::new(),
            &cfg,
            OnPanic::Quarantine,
            &NullRecorder,
        )
        .unwrap();
        assert!(retry.quarantined.is_empty());
        assert_eq!(acc, serial_sums(&g, &sources));
    }

    #[test]
    fn recorded_run_reconciles_counters_and_preserves_results() {
        let g = grid3x3();
        let sources: Vec<NodeId> = vec![0, 4, 8];
        let cfg = KernelConfig::default();

        let mut plain = vec![0u64; 9];
        let base = accumulate(&g, &sources, &mut plain, &RunControl::new(), &cfg).unwrap();

        let rec = RunRecorder::new();
        let mut acc = vec![0u64; 9];
        let ctl = RunControl::new();
        let run = par_bfs_sweep(&g, &sources, Some(&mut acc), &ctl, &cfg, OnPanic::Fail, &rec)
            .unwrap();
        assert_eq!(acc, plain, "recorder must not change the accumulator");
        assert_eq!(run.per_source, base.per_source);

        assert_eq!(rec.counter(Counter::BfsSources), 3);
        assert_eq!(rec.counter(Counter::BfsSourcesSkipped), 0);
        assert_eq!(rec.counter(Counter::BfsSourcesPlanned), 3);
        assert_eq!(rec.counter(Counter::VerticesVisited), 27);
        assert_eq!(rec.counter(Counter::EdgesScanned), 3 * g.num_arcs() as u64);
        assert_eq!(rec.counter(Counter::BatchesHybrid), 1);
        assert!(rec.counter(Counter::FrontierLevels) > 0);
        // One per-source time observation per completed source; frontier
        // sizes cover every expanded level.
        assert_eq!(rec.histogram(Metric::SourceBfsNanos).count, 3);
        assert_eq!(
            rec.histogram(Metric::FrontierSize).count,
            rec.counter(Counter::FrontierLevels)
        );
        assert_eq!(
            rec.histogram(Metric::FrontierSize).max,
            rec.counter(Counter::PeakFrontier)
        );
        let report = rec.report();
        let batch = report.phases.iter().find(|p| p.name == "bfs.batch").unwrap();
        assert_eq!(batch.count, 1);

        // Interrupted run: every source skipped, none completed.
        let rec = RunRecorder::new();
        let ctl = RunControl::new().with_timeout(std::time::Duration::ZERO);
        let mut acc = vec![0u64; 9];
        par_bfs_sweep(&g, &sources, Some(&mut acc), &ctl, &cfg, OnPanic::Fail, &rec).unwrap();
        assert_eq!(rec.counter(Counter::BfsSources), 0);
        assert_eq!(rec.counter(Counter::BfsSourcesSkipped), 3);
        assert_eq!(rec.counter(Counter::BfsSourcesPlanned), 3);
        assert_eq!(rec.counter(Counter::EdgesScanned), 0);
        assert_eq!(rec.histogram(Metric::SourceBfsNanos).count, 0);
    }

    #[test]
    fn traced_batch_nests_sources_within_batch() {
        let g = grid3x3();
        let sources: Vec<NodeId> = vec![0, 4, 8];
        let rec = RunRecorder::with_trace();
        let mut acc = vec![0u64; 9];
        par_bfs_sweep(
            &g,
            &sources,
            Some(&mut acc),
            &RunControl::new(),
            &KernelConfig::default(),
            OnPanic::Fail,
            &rec,
        )
        .unwrap();
        let events = rec.trace_events();
        let batch = *events.iter().find(|e| e.name == "bfs.batch").unwrap();
        let per_source: Vec<_> = events.iter().filter(|e| e.name == "bfs.source").collect();
        assert_eq!(per_source.len(), 3);
        for e in per_source {
            assert!(e.start_ns >= batch.start_ns, "source starts inside the batch");
            assert!(
                e.start_ns + e.dur_ns <= batch.start_ns + batch.dur_ns,
                "source ends inside the batch"
            );
        }
    }

    #[test]
    fn sums_agree_across_kernels() {
        let g = grid3x3();
        let sources: Vec<NodeId> = (0..9).collect();
        let ctl = RunControl::new();
        let sums = |cfg: KernelConfig| {
            par_bfs_sweep(&g, &sources, None, &ctl, &cfg, OnPanic::Fail, &NullRecorder).unwrap()
        };
        let expect = sums(KernelConfig::default());
        assert!(expect.outcome.is_complete());
        for kernel in [Kernel::TopDown, Kernel::Hybrid, Kernel::MsBfs] {
            let run = sums(KernelConfig::new(kernel));
            assert_eq!(run.per_source, expect.per_source, "kernel {kernel:?}");
            assert!(run.outcome.is_complete());
        }
    }
}
