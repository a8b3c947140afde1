//! Direction-optimizing BFS kernels (Beamer's top-down / bottom-up hybrid).
//!
//! A conventional BFS expands the frontier *top-down*: every frontier
//! vertex scans its neighbour list and claims the unvisited ones. On
//! low-diameter graphs there is a level where the frontier covers most of
//! the graph and nearly every scanned arc hits an already-visited vertex —
//! wasted work. The *bottom-up* step inverts the roles for exactly those
//! levels: every still-unvisited vertex scans its own neighbours and stops
//! at the first one found in the current-frontier bitmap, so a vertex with
//! a frontier neighbour costs `O(1)` probes instead of being probed once
//! per frontier neighbour.
//!
//! Switching is governed by the classic two-threshold heuristic: go
//! bottom-up when the frontier's outgoing arcs `m_f` exceed the unexplored
//! arcs `m_u / alpha`, return top-down when the frontier shrinks below
//! `n / beta` vertices. Both tunables live in [`HybridParams`] and are
//! plumbed from `core::config` through [`KernelConfig`].
//!
//! Two engines share the heuristic:
//! * [`HybridBfs`] — serial, drop-in for [`Bfs`] in the parallel sweep
//!   (one scratch per worker);
//! * [`ParFrontierBfs`] — frontier-parallel and level-synchronous: a
//!   *single* traversal spreads each level across the pool, consulting
//!   [`RunControl`] once per level. No estimator selects it — it lost to
//!   the serial hybrid on every benched graph — so only the kernel bench
//!   runs it.

use super::frontier::FrontierBitmap;
use super::parallel::atomic_view_u32;
use crate::control::{FaultKind, FaultSite, RunControl, RunOutcome};
use crate::telemetry::{Metric, NullRecorder, Recorder};
use crate::{CsrGraph, Dist, NodeId, INFINITE_DIST};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Tunables of the direction-switching heuristic.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct HybridParams {
    /// Switch top-down → bottom-up when `m_f > m_u / alpha` (frontier
    /// out-arcs exceed a fraction of the unexplored arcs). `0.0` disables
    /// the bottom-up direction entirely; `f64::INFINITY` takes it as soon
    /// as the frontier is non-empty.
    pub alpha: f64,
    /// Switch bottom-up → top-down when the frontier holds fewer than
    /// `n / beta` vertices. `f64::INFINITY` never switches back.
    pub beta: f64,
}

impl Default for HybridParams {
    /// `alpha = 2, beta = 20`. Beamer's published `alpha = 15` models a
    /// bottom-up step whose per-edge cost is ~15× below top-down's (true
    /// for his bandwidth-bound parallel setting); here the bottom-up win
    /// comes only from the early-exit probe, so switching is worthwhile
    /// only once frontier arcs rival the unexplored arcs. Measured on the
    /// benchmark suite (`brics-bench --bin kernels`): alpha = 2 keeps the
    /// 2×+ wins on low-diameter graphs and is within noise of pure
    /// top-down on the road/community classes, where alpha = 15 cost up
    /// to 2.4×.
    fn default() -> Self {
        Self { alpha: 2.0, beta: 20.0 }
    }
}

impl HybridParams {
    /// Parameters that never leave top-down — for A/B measurement.
    pub fn always_top_down() -> Self {
        Self { alpha: 0.0, beta: 0.0 }
    }

    /// Parameters that switch to bottom-up at the first opportunity and
    /// stay there — exercises the bottom-up step on every level.
    pub fn eager_bottom_up() -> Self {
        Self { alpha: f64::INFINITY, beta: f64::INFINITY }
    }
}

/// Which BFS kernel the parallel sweep should run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Kernel {
    /// Bit-parallel [`Kernel::MsBfs`] batches when a call carries at least
    /// one full batch of sources on more than one thread, otherwise the
    /// direction-optimizing serial kernel per source. The default.
    #[default]
    Auto,
    /// Classic serial top-down BFS per source ([`Bfs`](crate::traversal::Bfs));
    /// parallelism over
    /// sources only. The pre-hybrid behaviour, kept for comparison.
    TopDown,
    /// Direction-optimizing kernel, like [`Kernel::Auto`] (the variants
    /// exist so harnesses can name the choice explicitly).
    Hybrid,
    /// Bit-parallel multi-source BFS (Then et al.): batches of up to 64
    /// sources traverse together, one `u64` frontier/seen word per vertex.
    /// Forces batching regardless of source count; [`Kernel::Auto`] picks
    /// it only on multi-source calls (≥ [`MSBFS_BATCH`] sources).
    MsBfs,
}

impl std::str::FromStr for Kernel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "auto" => Ok(Kernel::Auto),
            "topdown" | "top-down" => Ok(Kernel::TopDown),
            "hybrid" => Ok(Kernel::Hybrid),
            "msbfs" | "ms-bfs" => Ok(Kernel::MsBfs),
            other => {
                Err(format!("unknown kernel '{other}' (expected auto|topdown|hybrid|msbfs)"))
            }
        }
    }
}

impl Kernel {
    /// Name used in harness output.
    pub fn name(&self) -> &'static str {
        match self {
            Kernel::Auto => "auto",
            Kernel::TopDown => "topdown",
            Kernel::Hybrid => "hybrid",
            Kernel::MsBfs => "msbfs",
        }
    }
}

/// Kernel choice plus heuristic tunables, threaded from `core::config`
/// down into the parallel BFS sweep
/// ([`par_bfs_sweep`](crate::traversal::par_bfs_sweep)), whose only
/// scheduling decision is [`KernelConfig::msbfs_applies`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct KernelConfig {
    /// Which kernel backs each traversal.
    pub kernel: Kernel,
    /// Direction-switching tunables (ignored by [`Kernel::TopDown`]).
    pub params: HybridParams,
}

/// Width of one MS-BFS batch: the sources sharing a machine word.
pub const MSBFS_BATCH: usize = 64;

impl KernelConfig {
    /// A config for `kernel` with default switching parameters.
    pub fn new(kernel: Kernel) -> Self {
        Self { kernel, params: HybridParams::default() }
    }

    /// Whether a call with `num_sources` sources should run the
    /// bit-parallel multi-source kernel. [`Kernel::MsBfs`] always batches
    /// (that is the point of naming it); [`Kernel::Auto`] batches only
    /// when the call carries at least one full batch of sources *and* more
    /// than one thread — the regime where amortizing memory traffic across
    /// the batch wins.
    pub fn msbfs_applies(&self, num_sources: usize, threads: usize) -> bool {
        match self.kernel {
            Kernel::MsBfs => num_sources > 0,
            Kernel::Auto => threads > 1 && num_sources >= MSBFS_BATCH,
            Kernel::TopDown | Kernel::Hybrid => false,
        }
    }
}

/// Per-traversal statistics exposed for telemetry: how the
/// direction-switching heuristic behaved on the most recent run.
///
/// Maintaining these is a handful of integer ops per *level* (not per
/// arc), so the kernels update them unconditionally; recorders harvest
/// them only when enabled.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraversalStats {
    /// Levels expanded (the eccentricity of the source when connected).
    pub levels: u64,
    /// Levels executed with the bottom-up step.
    pub bottom_up_levels: u64,
    /// Direction switches (either direction) taken by the heuristic.
    pub direction_switches: u64,
    /// Largest frontier, in vertices, fed to any level expansion.
    pub peak_frontier: u64,
}

impl TraversalStats {
    fn level(&mut self, bottom_up: bool, n_f: usize) {
        self.levels += 1;
        self.bottom_up_levels += u64::from(bottom_up);
        self.peak_frontier = self.peak_frontier.max(n_f as u64);
    }
}

/// Uniform constructor/run interface over the serial BFS kernels so the
/// parallel sweep can be generic over [`Kernel`].
pub trait SerialBfsKernel: Send {
    /// Scratch space for graphs with up to `n` vertices under `cfg`.
    fn for_config(n: usize, cfg: &KernelConfig) -> Self;

    /// Runs BFS from `source`, returning `(reached, Σ d)`.
    fn traverse(&mut self, g: &CsrGraph, source: NodeId) -> (usize, u64);

    /// The vertices the most recent run reached (the source included) and
    /// the distance array they index. The order is kernel-specific; the
    /// set of `(v, d)` pairs is not.
    fn visited(&self) -> (&[NodeId], &[Dist]);

    /// Heuristic statistics from the most recent run. Kernels without a
    /// direction heuristic report the zero default.
    fn last_stats(&self) -> TraversalStats {
        TraversalStats::default()
    }

    /// Asks the kernel to log per-level frontier sizes for harvesting via
    /// [`SerialBfsKernel::level_sizes`]. Off by default; kernels without a
    /// level structure (the queue-based top-down BFS) may ignore it.
    /// Drivers enable this only when a recorder is attached, keeping the
    /// unrecorded path free of the bookkeeping.
    fn set_level_recording(&mut self, on: bool) {
        let _ = on;
    }

    /// Frontier size fed into each level of the most recent run, when
    /// level recording is on. Kernels that do not track levels report an
    /// empty slice.
    fn level_sizes(&self) -> &[u64] {
        &[]
    }
}

impl SerialBfsKernel for HybridBfs {
    fn for_config(n: usize, cfg: &KernelConfig) -> Self {
        Self::with_params(n, cfg.params)
    }

    fn traverse(&mut self, g: &CsrGraph, source: NodeId) -> (usize, u64) {
        self.run_with(g, source, |_, _| {})
    }

    fn visited(&self) -> (&[NodeId], &[Dist]) {
        (&self.touched, &self.dist)
    }

    fn last_stats(&self) -> TraversalStats {
        self.stats
    }

    fn set_level_recording(&mut self, on: bool) {
        self.record_levels = on;
        if !on {
            self.level_log.clear();
        }
    }

    fn level_sizes(&self) -> &[u64] {
        &self.level_log
    }
}

/// Serial direction-optimizing BFS with reusable scratch.
///
/// Produces exactly the same distance array and `(reached, Σ d)` pair as
/// [`Bfs`] — only the visit order within a level differs (bottom-up levels
/// visit in ascending vertex id). Reset between runs is `O(visited)` via
/// the touched list, like [`Bfs`].
///
/// [`Bfs`]: super::bfs::Bfs
#[derive(Clone, Debug)]
pub struct HybridBfs {
    dist: Vec<Dist>,
    touched: Vec<NodeId>,
    frontier: Vec<NodeId>,
    next: Vec<NodeId>,
    bits: FrontierBitmap,
    next_bits: FrontierBitmap,
    params: HybridParams,
    stats: TraversalStats,
    record_levels: bool,
    level_log: Vec<u64>,
}

impl HybridBfs {
    /// Scratch for graphs with up to `n` vertices, default parameters.
    pub fn new(n: usize) -> Self {
        Self::with_params(n, HybridParams::default())
    }

    /// Scratch with explicit switching parameters.
    pub fn with_params(n: usize, params: HybridParams) -> Self {
        Self {
            dist: vec![INFINITE_DIST; n],
            touched: Vec::with_capacity(n),
            frontier: Vec::with_capacity(n),
            next: Vec::with_capacity(n),
            bits: FrontierBitmap::new(n),
            next_bits: FrontierBitmap::new(n),
            params,
            stats: TraversalStats::default(),
            record_levels: false,
            level_log: Vec::new(),
        }
    }

    /// The switching parameters in effect.
    pub fn params(&self) -> HybridParams {
        self.params
    }

    /// Heuristic statistics from the most recent run.
    pub fn last_stats(&self) -> TraversalStats {
        self.stats
    }

    /// Grows the scratch space if the graph is larger than at construction.
    pub fn resize(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, INFINITE_DIST);
        }
        self.bits.resize(n);
        self.next_bits.resize(n);
    }

    /// Runs BFS from `source`, returning the distance array
    /// (`INFINITE_DIST` for unreachable vertices).
    pub fn run(&mut self, g: &CsrGraph, source: NodeId) -> &[Dist] {
        self.run_with(g, source, |_, _| {});
        &self.dist[..g.num_nodes()]
    }

    /// Runs BFS from `source`, invoking `visit(v, d)` for every reached
    /// vertex. Returns `(reached, Σ d)`. See [`Bfs::run_with`] for the
    /// contract; the only difference is visit order within a level.
    ///
    /// [`Bfs::run_with`]: super::bfs::Bfs::run_with
    pub fn run_with<F: FnMut(NodeId, Dist)>(
        &mut self,
        g: &CsrGraph,
        source: NodeId,
        mut visit: F,
    ) -> (usize, u64) {
        let n = g.num_nodes();
        debug_assert!((source as usize) < n);
        self.resize(n);
        for &v in &self.touched {
            self.dist[v as usize] = INFINITE_DIST;
        }
        self.touched.clear();

        self.dist[source as usize] = 0;
        self.touched.push(source);
        visit(source, 0);
        self.frontier.clear();
        self.frontier.push(source);

        let mut reached = 1usize;
        let mut sum = 0u64;
        let mut level: Dist = 0;
        let mut bottom_up = false;
        // Heuristic state: m_f = arcs out of the current frontier,
        // m_u = arcs out of still-unvisited vertices, n_f = frontier size.
        let mut m_f = g.degree(source) as u64;
        let mut m_u = g.num_arcs() as u64 - m_f;
        let mut n_f = 1usize;
        // Beamer's switch conditions are gated on the frontier's trend:
        // only go bottom-up while it grows (the explosive middle levels)
        // and only come back once it shrinks. Without the gate the narrow
        // tail of high-diameter graphs (road class) flips to bottom-up —
        // whose per-level cost is Θ(n) — and BFS degrades to Θ(n·levels).
        let mut growing = true;
        self.stats = TraversalStats::default();
        self.level_log.clear();

        while n_f > 0 {
            level += 1;
            if !bottom_up {
                if growing && m_f as f64 > m_u as f64 / self.params.alpha {
                    self.bits.fill_from(&self.frontier);
                    bottom_up = true;
                    self.stats.direction_switches += 1;
                }
            } else if !growing && (n_f as f64) < n as f64 / self.params.beta {
                self.frontier.clear();
                self.frontier.extend(self.bits.iter_set());
                bottom_up = false;
                self.stats.direction_switches += 1;
            }
            self.stats.level(bottom_up, n_f);
            if self.record_levels {
                self.level_log.push(n_f as u64);
            }

            let mut new_nf = 0usize;
            let mut new_mf = 0u64;
            if bottom_up {
                self.next_bits.clear();
                for u in 0..n as NodeId {
                    if self.dist[u as usize] != INFINITE_DIST {
                        continue;
                    }
                    for &w in g.neighbors(u) {
                        if self.bits.test(w) {
                            self.dist[u as usize] = level;
                            self.touched.push(u);
                            self.next_bits.set(u);
                            visit(u, level);
                            let deg = g.degree(u) as u64;
                            new_mf += deg;
                            m_u -= deg;
                            new_nf += 1;
                            break;
                        }
                    }
                }
                std::mem::swap(&mut self.bits, &mut self.next_bits);
            } else {
                // Move the frontier out so the loop can mutate the other
                // scratch fields; its buffer becomes the next `next`.
                let frontier = std::mem::take(&mut self.frontier);
                self.next.clear();
                for &u in &frontier {
                    for &v in g.neighbors(u) {
                        if self.dist[v as usize] == INFINITE_DIST {
                            self.dist[v as usize] = level;
                            self.touched.push(v);
                            self.next.push(v);
                            visit(v, level);
                            let deg = g.degree(v) as u64;
                            new_mf += deg;
                            m_u -= deg;
                            new_nf += 1;
                        }
                    }
                }
                self.frontier = std::mem::replace(&mut self.next, frontier);
            }

            growing = new_nf >= n_f;
            n_f = new_nf;
            m_f = new_mf;
            reached += new_nf;
            sum += new_nf as u64 * level as u64;
        }
        (reached, sum)
    }

    /// Distance array from the most recent run.
    pub fn distances(&self) -> &[Dist] {
        &self.dist
    }

    /// Mutable distance array — same caveat as [`Bfs::distances_mut`]:
    /// entries outside the visited set must be restored to
    /// `INFINITE_DIST` before the next run.
    ///
    /// [`Bfs::distances_mut`]: super::bfs::Bfs::distances_mut
    pub fn distances_mut(&mut self) -> &mut [Dist] {
        &mut self.dist
    }
}

/// Splits `0..len` into roughly `parts` contiguous ranges of at least
/// `min_chunk` items (the last may be shorter). Shared with the MS-BFS
/// kernel's chunk-parallel sweep.
pub(super) fn chunk_ranges(len: usize, parts: usize, min_chunk: usize) -> Vec<(usize, usize)> {
    if len == 0 {
        return Vec::new();
    }
    let chunk = len.div_ceil(parts.max(1)).max(min_chunk.max(1));
    (0..len.div_ceil(chunk))
        .map(|i| (i * chunk, ((i + 1) * chunk).min(len)))
        .collect()
}

/// Frontier-parallel, level-synchronous direction-optimizing BFS.
///
/// One traversal spreads each level across the rayon pool: top-down levels
/// claim vertices with a `compare_exchange` on an atomic view of the
/// distance array; bottom-up levels partition the vertex range and publish
/// discoveries into the next-frontier bitmap with `fetch_or`. Each level
/// pays a fork-join, and the kernel bench shows it slower than one serial
/// [`HybridBfs`] per source on every benched graph, so the parallel sweep
/// never selects it.
///
/// [`RunControl`] is consulted once per level, so a deadline interrupts a
/// long traversal mid-flight; callers discard the partial distance array
/// to keep published results sound.
pub struct ParFrontierBfs {
    dist: Vec<Dist>,
    frontier: Vec<NodeId>,
    next: Vec<NodeId>,
    bits: FrontierBitmap,
    next_bits: FrontierBitmap,
    params: HybridParams,
    stats: TraversalStats,
}

impl ParFrontierBfs {
    /// Scratch for graphs with up to `n` vertices, default parameters.
    pub fn new(n: usize) -> Self {
        Self::with_params(n, HybridParams::default())
    }

    /// Scratch with explicit switching parameters.
    pub fn with_params(n: usize, params: HybridParams) -> Self {
        Self {
            dist: vec![INFINITE_DIST; n],
            frontier: Vec::with_capacity(n),
            next: Vec::with_capacity(n),
            bits: FrontierBitmap::new(n),
            next_bits: FrontierBitmap::new(n),
            params,
            stats: TraversalStats::default(),
        }
    }

    /// Grows the scratch space if the graph is larger than at construction.
    pub fn resize(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, INFINITE_DIST);
        }
        self.bits.resize(n);
        self.next_bits.resize(n);
    }

    /// Heuristic statistics from the most recent run (partial after an
    /// interrupted run: the completed levels only).
    pub fn last_stats(&self) -> TraversalStats {
        self.stats
    }

    /// Uncontrolled convenience wrapper around [`ParFrontierBfs::run_ctl`].
    pub fn run(&mut self, g: &CsrGraph, source: NodeId) -> (usize, u64) {
        self.run_ctl(g, source, &RunControl::new())
            .expect("unbounded control cannot interrupt")
    }

    /// Runs one frontier-parallel BFS from `source`, checking `ctl` before
    /// every level. Returns `(reached, Σ d)` on completion; on interruption
    /// returns the cause, and the distance array is partial (valid for the
    /// completed levels only) — callers must not publish it.
    pub fn run_ctl(
        &mut self,
        g: &CsrGraph,
        source: NodeId,
        ctl: &RunControl,
    ) -> Result<(usize, u64), RunOutcome> {
        self.run_ctl_rec(g, source, ctl, &NullRecorder)
    }

    /// [`ParFrontierBfs::run_ctl`] with per-level telemetry: each level
    /// contributes a [`Metric::FrontierSize`] and [`Metric::LevelNanos`]
    /// observation (and a `bfs.level` trace span when tracing) to `rec`.
    /// With a disabled recorder the level loop reads no clock — this is
    /// exactly `run_ctl`.
    pub fn run_ctl_rec<R: Recorder>(
        &mut self,
        g: &CsrGraph,
        source: NodeId,
        ctl: &RunControl,
        rec: &R,
    ) -> Result<(usize, u64), RunOutcome> {
        let n = g.num_nodes();
        debug_assert!((source as usize) < n);
        self.resize(n);
        // Whole-array reset: a frontier-parallel traversal is for
        // whole-graph BFS, where O(n) reset is already amortised.
        self.dist[..n].fill(INFINITE_DIST);
        self.dist[source as usize] = 0;
        self.frontier.clear();
        self.frontier.push(source);

        let mut reached = 1usize;
        let mut sum = 0u64;
        let mut level: Dist = 0;
        let mut bottom_up = false;
        let mut m_f = g.degree(source) as u64;
        let mut m_u = g.num_arcs() as u64 - m_f;
        let mut n_f = 1usize;
        // Same trend gate as [`HybridBfs::run_with`]: direction switches
        // only fire while the frontier grows (→ bottom-up) or shrinks
        // (→ back to top-down).
        let mut growing = true;
        let threads = rayon::current_num_threads();
        self.stats = TraversalStats::default();

        while n_f > 0 {
            if let Some(cause) = ctl.should_stop() {
                return Err(cause);
            }
            // `bfs.level` failpoint: panic-like kinds unwind to the caller;
            // deadline-expire surfaces through the `should_stop` above on
            // the next level.
            match ctl.fault_apply(FaultSite::BfsLevel, u64::from(level)) {
                Some(FaultKind::Panic) => {
                    panic!("injected worker panic (bfs.level) at level {level}")
                }
                Some(FaultKind::IoError) => {
                    panic!("injected i/o error (bfs.level) at level {level}")
                }
                _ => {}
            }
            let level_start = if rec.enabled() { Some(Instant::now()) } else { None };
            level += 1;
            if !bottom_up {
                if growing && m_f as f64 > m_u as f64 / self.params.alpha {
                    self.bits.fill_from(&self.frontier);
                    bottom_up = true;
                    self.stats.direction_switches += 1;
                }
            } else if !growing && (n_f as f64) < n as f64 / self.params.beta {
                self.frontier.clear();
                self.frontier.extend(self.bits.iter_set());
                bottom_up = false;
                self.stats.direction_switches += 1;
            }
            self.stats.level(bottom_up, n_f);

            let (new_nf, new_mf) = if bottom_up {
                self.step_bottom_up(g, level, threads)
            } else {
                self.step_top_down(g, level, threads)
            };
            if let Some(start) = level_start {
                let end = Instant::now();
                rec.observe(Metric::FrontierSize, n_f as u64);
                rec.observe(Metric::LevelNanos, end.duration_since(start).as_nanos() as u64);
                if rec.trace_enabled() {
                    rec.trace_span("bfs.level", start, end);
                }
            }
            m_u -= new_mf;
            m_f = new_mf;
            growing = new_nf >= n_f;
            n_f = new_nf;
            reached += new_nf;
            sum += new_nf as u64 * level as u64;
        }
        Ok((reached, sum))
    }

    /// Parallel top-down expansion of one level. Frontier chunks race to
    /// claim unvisited vertices via CAS on the atomic distance view; each
    /// vertex is won by exactly one worker, so per-chunk discovery lists
    /// concatenate into a duplicate-free next frontier.
    fn step_top_down(&mut self, g: &CsrGraph, level: Dist, threads: usize) -> (usize, u64) {
        let n = g.num_nodes();
        let Self { dist, frontier, next, .. } = self;
        let dist_a = atomic_view_u32(&mut dist[..n]);
        let frontier = &*frontier;
        let ranges = chunk_ranges(frontier.len(), threads * 4, 64);
        let parts: Vec<(Vec<NodeId>, u64)> = ranges
            .into_par_iter()
            .map(|(lo, hi)| {
                let mut local: Vec<NodeId> = Vec::new();
                let mut lmf = 0u64;
                for &u in &frontier[lo..hi] {
                    for &v in g.neighbors(u) {
                        let slot = &dist_a[v as usize];
                        if slot.load(Ordering::Relaxed) == INFINITE_DIST
                            && slot
                                .compare_exchange(
                                    INFINITE_DIST,
                                    level,
                                    Ordering::Relaxed,
                                    Ordering::Relaxed,
                                )
                                .is_ok()
                        {
                            local.push(v);
                            lmf += g.degree(v) as u64;
                        }
                    }
                }
                (local, lmf)
            })
            .collect();

        next.clear();
        let mut mf = 0u64;
        for (local, lmf) in parts {
            next.extend_from_slice(&local);
            mf += lmf;
        }
        std::mem::swap(&mut self.frontier, &mut self.next);
        (self.frontier.len(), mf)
    }

    /// Parallel bottom-up expansion of one level. The vertex range is
    /// partitioned into disjoint chunks (each vertex written by exactly one
    /// worker); discoveries go into the next-frontier bitmap via `fetch_or`
    /// since neighbouring chunks may share a 64-bit word.
    fn step_bottom_up(&mut self, g: &CsrGraph, level: Dist, threads: usize) -> (usize, u64) {
        let n = g.num_nodes();
        let Self { dist, bits, next_bits, .. } = self;
        next_bits.clear();
        let dist_a = atomic_view_u32(&mut dist[..n]);
        let next_a = next_bits.atomic_words();
        let front = &*bits;
        let ranges = chunk_ranges(n, threads * 4, 512);
        let parts: Vec<(usize, u64)> = ranges
            .into_par_iter()
            .map(|(lo, hi)| {
                let mut cnt = 0usize;
                let mut lmf = 0u64;
                for u in lo..hi {
                    if dist_a[u].load(Ordering::Relaxed) != INFINITE_DIST {
                        continue;
                    }
                    for &w in g.neighbors(u as NodeId) {
                        if front.test(w) {
                            dist_a[u].store(level, Ordering::Relaxed);
                            next_a[u / 64].fetch_or(1u64 << (u % 64), Ordering::Relaxed);
                            cnt += 1;
                            lmf += g.degree(u as NodeId) as u64;
                            break;
                        }
                    }
                }
                (cnt, lmf)
            })
            .collect();

        std::mem::swap(&mut self.bits, &mut self.next_bits);
        let nf = parts.iter().map(|p| p.0).sum();
        let mf = parts.iter().map(|p| p.1).sum();
        (nf, mf)
    }

    /// Distance array from the most recent run. Only meaningful when the
    /// run returned `Ok` — after an interrupted run it is partial.
    pub fn distances(&self) -> &[Dist] {
        &self.dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{complete_graph, gnm_random_connected, path_graph, star_graph};
    use crate::traversal::bfs_distances;
    use crate::GraphBuilder;

    fn assert_kernels_agree(g: &CsrGraph, source: NodeId, params: HybridParams) {
        let n = g.num_nodes();
        let expect = bfs_distances(g, source);
        let expect_pair = {
            let mut b = super::super::bfs::Bfs::new(n);
            b.run_with(g, source, |_, _| {})
        };

        let mut hy = HybridBfs::with_params(n, params);
        let pair = hy.run_with(g, source, |_, _| {});
        assert_eq!(&hy.distances()[..n], &expect[..], "hybrid distances");
        assert_eq!(pair, expect_pair, "hybrid (reached, sum)");

        let mut pf = ParFrontierBfs::with_params(n, params);
        let ppair = pf.run(g, source);
        assert_eq!(&pf.distances()[..n], &expect[..], "frontier-parallel distances");
        assert_eq!(ppair, expect_pair, "frontier-parallel (reached, sum)");
    }

    #[test]
    fn agrees_on_structured_graphs() {
        for params in [
            HybridParams::default(),
            HybridParams::always_top_down(),
            HybridParams::eager_bottom_up(),
        ] {
            assert_kernels_agree(&path_graph(40), 3, params);
            assert_kernels_agree(&complete_graph(17), 5, params);
            assert_kernels_agree(&star_graph(30), 0, params);
            assert_kernels_agree(&star_graph(30), 7, params);
        }
    }

    #[test]
    fn agrees_on_random_graphs_every_source() {
        let g = gnm_random_connected(60, 150, 42);
        for s in 0..60u32 {
            assert_kernels_agree(&g, s, HybridParams::default());
        }
    }

    #[test]
    fn agrees_on_disconnected_graphs() {
        let g = GraphBuilder::from_edges(7, &[(0, 1), (1, 2), (3, 4), (5, 6)]);
        for params in [HybridParams::default(), HybridParams::eager_bottom_up()] {
            assert_kernels_agree(&g, 0, params);
            assert_kernels_agree(&g, 3, params);
        }
    }

    #[test]
    fn visit_callback_covers_each_vertex_once() {
        let g = complete_graph(12);
        let mut hy = HybridBfs::with_params(12, HybridParams::eager_bottom_up());
        let mut seen = [0u32; 12];
        hy.run_with(&g, 4, |v, d| {
            seen[v as usize] += 1;
            assert_eq!(d, u32::from(v != 4));
        });
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn scratch_reuse_resets_state() {
        let g1 = complete_graph(20);
        let g2 = path_graph(50);
        let mut hy = HybridBfs::new(20);
        hy.run(&g1, 0);
        assert_eq!(hy.run(&g2, 0), &bfs_distances(&g2, 0)[..]);
        assert_eq!(hy.run(&g1, 3), &bfs_distances(&g1, 3)[..]);

        let mut pf = ParFrontierBfs::new(20);
        pf.run(&g1, 0);
        pf.run(&g2, 0);
        assert_eq!(&pf.distances()[..50], &bfs_distances(&g2, 0)[..]);
    }

    #[test]
    fn single_vertex_graph() {
        let g = GraphBuilder::new(1).build();
        let mut hy = HybridBfs::new(1);
        assert_eq!(hy.run_with(&g, 0, |_, _| {}), (1, 0));
        let mut pf = ParFrontierBfs::new(1);
        assert_eq!(pf.run(&g, 0), (1, 0));
    }

    #[test]
    fn frontier_parallel_expired_deadline_interrupts() {
        let g = gnm_random_connected(50, 100, 7);
        let mut pf = ParFrontierBfs::new(50);
        let ctl = RunControl::new().with_timeout(std::time::Duration::ZERO);
        assert_eq!(pf.run_ctl(&g, 0, &ctl), Err(RunOutcome::Deadline));

        let ctl = RunControl::new();
        ctl.cancel_token().cancel();
        assert_eq!(pf.run_ctl(&g, 0, &ctl), Err(RunOutcome::Cancelled));
    }

    #[test]
    fn kernel_parsing_and_names() {
        assert_eq!("auto".parse::<Kernel>().unwrap(), Kernel::Auto);
        assert_eq!("topdown".parse::<Kernel>().unwrap(), Kernel::TopDown);
        assert_eq!("top-down".parse::<Kernel>().unwrap(), Kernel::TopDown);
        assert_eq!("HYBRID".parse::<Kernel>().unwrap(), Kernel::Hybrid);
        assert_eq!("msbfs".parse::<Kernel>().unwrap(), Kernel::MsBfs);
        assert_eq!("ms-bfs".parse::<Kernel>().unwrap(), Kernel::MsBfs);
        assert!("dfs".parse::<Kernel>().is_err());
        assert_eq!(Kernel::default(), Kernel::Auto);
        assert_eq!(Kernel::Hybrid.name(), "hybrid");
        assert_eq!(Kernel::MsBfs.name(), "msbfs");
    }

    #[test]
    fn msbfs_selection_rule() {
        let auto = KernelConfig::default();
        assert!(auto.msbfs_applies(64, 4));
        assert!(auto.msbfs_applies(1000, 2));
        assert!(!auto.msbfs_applies(63, 4), "auto needs a full batch");
        assert!(!auto.msbfs_applies(64, 1), "auto needs threads");
        // Explicit msbfs always batches, even single-source/single-thread.
        let ms = KernelConfig::new(Kernel::MsBfs);
        assert!(ms.msbfs_applies(1, 1));
        assert!(ms.msbfs_applies(65, 8));
        assert!(!ms.msbfs_applies(0, 8));
        for k in [Kernel::TopDown, Kernel::Hybrid] {
            assert!(!KernelConfig::new(k).msbfs_applies(1000, 8), "{k:?}");
        }
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        assert!(chunk_ranges(0, 4, 16).is_empty());
        for (len, parts, min) in [(1, 4, 16), (100, 4, 16), (1000, 3, 1), (65, 64, 1)] {
            let rs = chunk_ranges(len, parts, min);
            assert_eq!(rs[0].0, 0);
            assert_eq!(rs.last().unwrap().1, len);
            for w in rs.windows(2) {
                assert_eq!(w[0].1, w[1].0);
            }
        }
    }

    #[test]
    fn traversal_stats_reflect_heuristic() {
        // Path graph under always-top-down: n-1 levels, never bottom-up,
        // every frontier has exactly one vertex.
        let g = path_graph(40);
        let mut hy = HybridBfs::with_params(40, HybridParams::always_top_down());
        hy.run(&g, 0);
        let s = hy.last_stats();
        assert_eq!(s.levels, 40);
        assert_eq!(s.bottom_up_levels, 0);
        assert_eq!(s.direction_switches, 0);
        assert_eq!(s.peak_frontier, 1);

        // Complete graph under eager bottom-up: switches once, runs the
        // explosive level bottom-up.
        let g = complete_graph(16);
        let mut hy = HybridBfs::with_params(16, HybridParams::eager_bottom_up());
        hy.run(&g, 0);
        let s = hy.last_stats();
        assert!(s.bottom_up_levels >= 1);
        assert_eq!(s.direction_switches, 1);

        // The frontier-parallel engine reports the same shape.
        let mut pf = ParFrontierBfs::with_params(16, HybridParams::eager_bottom_up());
        pf.run(&g, 0);
        assert_eq!(pf.last_stats(), s);

        // Stats reset between runs.
        let g = path_graph(10);
        let mut hy = HybridBfs::with_params(10, HybridParams::always_top_down());
        hy.run(&g, 0);
        hy.run(&g, 9);
        assert_eq!(hy.last_stats().levels, 10);
    }

    #[test]
    fn recorded_run_matches_plain_and_observes_levels() {
        use crate::telemetry::RunRecorder;
        let g = gnm_random_connected(60, 150, 42);
        let mut plain = ParFrontierBfs::new(60);
        let expect = plain.run(&g, 0);

        let rec = RunRecorder::with_trace();
        let mut pf = ParFrontierBfs::new(60);
        let got = pf.run_ctl_rec(&g, 0, &RunControl::new(), &rec).unwrap();
        assert_eq!(got, expect, "recorder must not change results");
        assert_eq!(&pf.distances()[..60], &plain.distances()[..60]);
        let levels = pf.last_stats().levels;
        assert_eq!(rec.histogram(Metric::FrontierSize).count, levels);
        assert_eq!(rec.histogram(Metric::LevelNanos).count, levels);
        assert_eq!(rec.histogram(Metric::FrontierSize).max, pf.last_stats().peak_frontier);
        let traced = rec.trace_events().iter().filter(|e| e.name == "bfs.level").count();
        assert_eq!(traced as u64, levels);
    }

    #[test]
    fn hybrid_level_log_follows_recording_flag() {
        let g = gnm_random_connected(60, 150, 42);
        let mut hy = HybridBfs::new(60);
        hy.run(&g, 0);
        assert!(hy.level_sizes().is_empty(), "logging is off by default");
        hy.set_level_recording(true);
        hy.run(&g, 0);
        let sizes = hy.level_sizes().to_vec();
        assert_eq!(sizes.len() as u64, hy.last_stats().levels);
        assert_eq!(sizes.iter().copied().max().unwrap(), hy.last_stats().peak_frontier);
        hy.set_level_recording(false);
        assert!(hy.level_sizes().is_empty());

        // The queue-based kernel has no level structure and reports none.
        let mut td = super::super::bfs::Bfs::new(60);
        td.set_level_recording(true);
        td.traverse(&g, 0);
        assert!(td.level_sizes().is_empty());
    }

    #[test]
    fn serial_kernels_report_the_visited_set() {
        let g = GraphBuilder::from_edges(7, &[(0, 1), (1, 2), (3, 4), (5, 6)]);
        let mut td = super::super::bfs::Bfs::new(7);
        let mut hy = HybridBfs::with_params(7, HybridParams::eager_bottom_up());
        for s in [0, 3, 1] {
            let expect = bfs_distances(&g, s);
            let pairs = |(vs, dist): (&[NodeId], &[Dist])| {
                let mut p: Vec<_> = vs.iter().map(|&v| (v, dist[v as usize])).collect();
                p.sort_unstable();
                p
            };
            let want: Vec<(NodeId, Dist)> = (0..7)
                .filter(|&v| expect[v as usize] != INFINITE_DIST)
                .map(|v| (v, expect[v as usize]))
                .collect();
            assert_eq!(td.traverse(&g, s).0, want.len());
            assert_eq!(pairs(SerialBfsKernel::visited(&td)), want, "topdown from {s}");
            assert_eq!(hy.traverse(&g, s).0, want.len());
            assert_eq!(pairs(SerialBfsKernel::visited(&hy)), want, "hybrid from {s}");
        }
    }

    #[test]
    fn config_serde_roundtrip() {
        let cfg = KernelConfig { kernel: Kernel::Hybrid, params: HybridParams { alpha: 9.5, beta: 2.0 } };
        let json = serde_json::to_string(&cfg).unwrap();
        let back: KernelConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
    }
}
