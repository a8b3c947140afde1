//! Bit-parallel multi-source BFS (Then et al., "The More the Merrier:
//! Efficient Multi-Source Graph Traversal").
//!
//! A batch of up to 64 sources traverses the graph *together*: every
//! vertex carries one machine word per role — `seen` (sources that have
//! reached it), `frontier` (sources reaching it at the current level) and
//! `next` (sources reaching it at the next level) — and one arc scan
//! advances all sources at once with two bit operations:
//!
//! ```text
//! d        = frontier[u] & !seen[v]   // sources reaching v through u
//! next[v] |= d
//! ```
//!
//! Because OR is idempotent and commutative, the per-source distances are
//! exactly those of 64 independent BFS runs — the batch only amortizes the
//! memory traffic (each arc is scanned once per *batch* per level instead
//! of once per *source*). Farness needs only `(reached, Σ d)` per source,
//! tallied at level-finalize time by iterating the newly-seen bits.
//!
//! Two sweep variants share the level loop:
//! * serial — one thread scans the whole active list; used when batches
//!   themselves run in parallel (many batches, the common estimator case);
//! * chunk-parallel — the active list is split with
//!   [`chunk_ranges`](super::hybrid) and workers publish into an atomic
//!   view of the `next` words with `fetch_or` (the same storage idiom as
//!   [`FrontierBitmap`](super::frontier::FrontierBitmap)); used when a
//!   call has few batches, so within-batch parallelism is the only
//!   parallelism available. Both variants produce bit-identical results:
//!   the OR/ADD operations commute, only discovery *order* differs.
//!
//! [`RunControl`] is consulted once per level: an interrupted batch returns
//! `Err` and the caller publishes nothing for it, preserving the
//! publish-after-complete partial-soundness contract at batch granularity.

use super::hybrid::{chunk_ranges, TraversalStats, MSBFS_BATCH};
use super::parallel::atomic_view;
use crate::control::{FaultKind, FaultSite, RunControl, RunOutcome};
use crate::telemetry::{Metric, NullRecorder, Recorder};
use crate::{CsrGraph, Dist, NodeId, INFINITE_DIST};
use rayon::prelude::*;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Reusable scratch for bit-parallel multi-source BFS batches.
///
/// Reset between runs is `O(touched)`; a panic that unwinds out of a run
/// (injected faults) leaves the scratch dirty, and the next run's reset
/// restores every invariant before touching the new batch.
pub struct MsBfs {
    seen: Vec<u64>,
    frontier: Vec<u64>,
    next: Vec<u64>,
    /// Vertices with a nonzero `frontier` word (the current level).
    active: Vec<NodeId>,
    /// Vertices whose `next` word went zero → nonzero this level.
    candidates: Vec<NodeId>,
    /// Vertices with a nonzero `seen` word — the reset list.
    touched: Vec<NodeId>,
    reached: [usize; MSBFS_BATCH],
    sums: [u64; MSBFS_BATCH],
    record_rows: bool,
    /// Per-source distance rows (`row_stride` entries each), maintained
    /// only under [`MsBfs::set_row_recording`].
    dist: Vec<Dist>,
    row_stride: usize,
    stats: TraversalStats,
}

impl MsBfs {
    /// Scratch for graphs with up to `n` vertices. The reset lists hold at
    /// most `n` distinct vertices each, so they are sized once here and
    /// never grow on such a graph.
    pub fn new(n: usize) -> Self {
        Self {
            seen: vec![0; n],
            frontier: vec![0; n],
            next: vec![0; n],
            active: Vec::with_capacity(n),
            candidates: Vec::with_capacity(n),
            touched: Vec::with_capacity(n),
            reached: [0; MSBFS_BATCH],
            sums: [0; MSBFS_BATCH],
            record_rows: false,
            dist: Vec::new(),
            row_stride: 0,
            stats: TraversalStats::default(),
        }
    }

    /// Grows the scratch space if the graph is larger than at construction.
    pub fn resize(&mut self, n: usize) {
        if self.seen.len() < n {
            self.seen.resize(n, 0);
            self.frontier.resize(n, 0);
            self.next.resize(n, 0);
        }
    }

    /// Enables per-source distance rows ([`MsBfs::dist_row`]), at
    /// `64 × n × 4` bytes of scratch. Off by default — the farness drivers
    /// need only the per-source `(reached, Σ d)` tallies; the cumulative
    /// estimator's block tasks need the full rows for record replay.
    pub fn set_row_recording(&mut self, on: bool) {
        self.record_rows = on;
    }

    /// Distance row of batch slot `i` from the most recent completed run:
    /// `INFINITE_DIST` marks unreached vertices. Meaningless unless row
    /// recording was on.
    pub fn dist_row(&self, i: usize) -> &[Dist] {
        &self.dist[i * self.row_stride..(i + 1) * self.row_stride]
    }

    /// Every vertex some source of the most recent batch reached (the
    /// sources included), each once.
    pub fn visited(&self) -> &[NodeId] {
        &self.touched
    }

    /// Heuristic-shaped statistics of the most recent run: `levels` counts
    /// sweeps, `peak_frontier` the widest active list. MS-BFS has no
    /// direction heuristic, so the bottom-up fields stay zero.
    pub fn last_stats(&self) -> TraversalStats {
        self.stats
    }

    /// Restores every scratch invariant, whatever state the previous run
    /// left behind (completed, interrupted, or unwound by a panic).
    fn reset_scratch(&mut self) {
        for &v in &self.touched {
            let vi = v as usize;
            let mut bits = self.seen[vi];
            self.seen[vi] = 0;
            if self.row_stride != 0 {
                while bits != 0 {
                    let i = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    self.dist[i * self.row_stride + vi] = INFINITE_DIST;
                }
            }
        }
        for &u in &self.active {
            self.frontier[u as usize] = 0;
            self.next[u as usize] = 0;
        }
        for &v in &self.candidates {
            self.frontier[v as usize] = 0;
            self.next[v as usize] = 0;
        }
        self.touched.clear();
        self.active.clear();
        self.candidates.clear();
    }

    /// Uncontrolled, unrecorded batch run — tests and oracles.
    pub fn run_batch(&mut self, g: &CsrGraph, sources: &[NodeId]) -> Vec<(usize, u64)> {
        self.run_batch_ctl_rec(g, sources, &RunControl::new(), false, &NullRecorder, |_, _, _| {})
            .expect("unbounded control cannot interrupt")
    }

    /// Runs one batch of up to [`MSBFS_BATCH`] sources, checking `ctl`
    /// once per level. Returns the per-source `(reached, Σ d)` rows in
    /// input order, or the interruption cause — in which case the caller
    /// must publish nothing for this batch (the tallies are partial).
    ///
    /// `visit(v, bits, d)` fires once per `(vertex, level)` discovery with
    /// the word of batch slots that reached `v` at distance `d` (sources
    /// fire at distance 0). Under `parallel_sweep` the arc scan is
    /// chunk-parallel but `visit` still runs serially at level finalize;
    /// discovery *order* is nondeterministic across chunks, so callers
    /// must only perform commutative accumulation.
    ///
    /// Per sweep, an enabled recorder observes [`Metric::BatchOccupancy`]
    /// (sources with a live frontier), [`Metric::SweepNanos`] and
    /// [`Metric::FrontierSize`], plus a `bfs.sweep` trace span.
    pub fn run_batch_ctl_rec<R: Recorder, F: FnMut(NodeId, u64, Dist)>(
        &mut self,
        g: &CsrGraph,
        sources: &[NodeId],
        ctl: &RunControl,
        parallel_sweep: bool,
        rec: &R,
        mut visit: F,
    ) -> Result<Vec<(usize, u64)>, RunOutcome> {
        assert!(sources.len() <= MSBFS_BATCH, "batch wider than one word");
        let n = g.num_nodes();
        self.resize(n);
        self.reset_scratch();
        if self.record_rows {
            if self.dist.len() < MSBFS_BATCH * n {
                self.dist.resize(MSBFS_BATCH * n, INFINITE_DIST);
            }
            self.row_stride = n;
        } else {
            self.row_stride = 0;
        }
        self.stats = TraversalStats::default();
        if sources.is_empty() {
            return Ok(Vec::new());
        }

        for (i, &s) in sources.iter().enumerate() {
            debug_assert!((s as usize) < n);
            let si = s as usize;
            if self.frontier[si] == 0 {
                self.active.push(s);
            }
            if self.seen[si] == 0 {
                self.touched.push(s);
            }
            let bit = 1u64 << i;
            self.seen[si] |= bit;
            self.frontier[si] |= bit;
            self.reached[i] = 1;
            self.sums[i] = 0;
            if self.record_rows {
                self.dist[i * n + si] = 0;
            }
            visit(s, bit, 0);
        }

        let threads = rayon::current_num_threads();
        let mut level: Dist = 0;
        // Sources live in the *next* sweep: at level 0, every batch slot.
        let mut occupancy = sources.len() as u64;
        while !self.active.is_empty() {
            if let Some(cause) = ctl.should_stop() {
                return Err(cause);
            }
            // `bfs.level` failpoint, per sweep — panic-like kinds unwind to
            // the driver's per-batch `catch_unwind`; deadline-expire
            // surfaces through `should_stop` at the next sweep.
            match ctl.fault_apply(FaultSite::BfsLevel, u64::from(level)) {
                Some(FaultKind::Panic) => {
                    panic!("injected worker panic (bfs.level) at level {level}")
                }
                Some(FaultKind::IoError) => {
                    panic!("injected i/o error (bfs.level) at level {level}")
                }
                _ => {}
            }
            let sweep_start = if rec.enabled() { Some(Instant::now()) } else { None };
            level += 1;
            let n_f = self.active.len() as u64;
            self.stats.levels += 1;
            self.stats.peak_frontier = self.stats.peak_frontier.max(n_f);

            if parallel_sweep && threads > 1 {
                self.sweep_parallel(g, threads);
            } else {
                self.sweep_serial(g);
            }

            // Finalize: fold the next-words into seen, tally per-source
            // farness, hand discoveries to the caller, and promote the
            // candidate list to the next active list.
            let mut live = 0u64;
            for ci in 0..self.candidates.len() {
                let v = self.candidates[ci];
                let vi = v as usize;
                let new = self.next[vi];
                // Contributions were masked with `!seen` and `seen` is
                // frozen during the sweep, so `new` is disjoint from it.
                debug_assert_eq!(new & self.seen[vi], 0);
                if self.seen[vi] == 0 {
                    self.touched.push(v);
                }
                self.seen[vi] |= new;
                live |= new;
                let mut bits = new;
                while bits != 0 {
                    let i = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    self.reached[i] += 1;
                    self.sums[i] += u64::from(level);
                    if self.record_rows {
                        self.dist[i * n + vi] = level;
                    }
                }
                visit(v, new, level);
            }
            for &u in &self.active {
                self.frontier[u as usize] = 0;
            }
            for &v in &self.candidates {
                let vi = v as usize;
                self.frontier[vi] = self.next[vi];
                self.next[vi] = 0;
            }
            std::mem::swap(&mut self.active, &mut self.candidates);
            self.candidates.clear();

            if let Some(start) = sweep_start {
                let end = Instant::now();
                rec.observe(Metric::BatchOccupancy, occupancy);
                rec.observe(Metric::FrontierSize, n_f);
                rec.observe(Metric::SweepNanos, end.duration_since(start).as_nanos() as u64);
                if rec.trace_enabled() {
                    rec.trace_span("bfs.sweep", start, end);
                }
            }
            occupancy = u64::from(live.count_ones());
        }

        Ok((0..sources.len()).map(|i| (self.reached[i], self.sums[i])).collect())
    }

    /// One serial arc sweep over the active list.
    fn sweep_serial(&mut self, g: &CsrGraph) {
        let Self { seen, frontier, next, active, candidates, .. } = self;
        for &u in active.iter() {
            let fu = frontier[u as usize];
            for &v in g.neighbors(u) {
                let vi = v as usize;
                let d = fu & !seen[vi];
                if d != 0 {
                    if next[vi] == 0 {
                        candidates.push(v);
                    }
                    next[vi] |= d;
                }
            }
        }
    }

    /// One chunk-parallel arc sweep: active-list chunks publish into an
    /// atomic view of the `next` words with `fetch_or`; the worker whose
    /// OR takes a word from zero to nonzero records the candidate, so the
    /// candidate list stays duplicate-free without coordination.
    fn sweep_parallel(&mut self, g: &CsrGraph, threads: usize) {
        let Self { seen, frontier, next, active, candidates, .. } = self;
        let next_a = atomic_view(next);
        let seen = &*seen;
        let frontier = &*frontier;
        let active = &*active;
        let ranges = chunk_ranges(active.len(), threads * 4, 64);
        let parts: Vec<Vec<NodeId>> = ranges
            .into_par_iter()
            .map(|(lo, hi)| {
                let mut local: Vec<NodeId> = Vec::new();
                for &u in &active[lo..hi] {
                    let fu = frontier[u as usize];
                    for &v in g.neighbors(u) {
                        let vi = v as usize;
                        let d = fu & !seen[vi];
                        if d != 0 && next_a[vi].fetch_or(d, Ordering::Relaxed) == 0 {
                            local.push(v);
                        }
                    }
                }
                local
            })
            .collect();
        for part in parts {
            candidates.extend_from_slice(&part);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{complete_graph, gnm_random_connected, path_graph, star_graph};
    use crate::telemetry::RunRecorder;
    use crate::traversal::bfs_distances;
    use crate::GraphBuilder;

    fn oracle_rows(g: &CsrGraph, sources: &[NodeId]) -> Vec<(usize, u64)> {
        sources
            .iter()
            .map(|&s| {
                let d = bfs_distances(g, s);
                let reached = d.iter().filter(|&&x| x != INFINITE_DIST).count();
                let sum: u64 =
                    d.iter().filter(|&&x| x != INFINITE_DIST).map(|&x| u64::from(x)).sum();
                (reached, sum)
            })
            .collect()
    }

    fn assert_batch_matches(g: &CsrGraph, sources: &[NodeId], parallel: bool) {
        let mut ms = MsBfs::new(g.num_nodes());
        ms.set_row_recording(true);
        let rows = ms
            .run_batch_ctl_rec(g, sources, &RunControl::new(), parallel, &NullRecorder, |_, _, _| {})
            .unwrap();
        assert_eq!(rows, oracle_rows(g, sources), "(reached, Σd) rows");
        for (i, &s) in sources.iter().enumerate() {
            assert_eq!(
                ms.dist_row(i),
                &bfs_distances(g, s)[..g.num_nodes()],
                "distance row of source {s} (slot {i})"
            );
        }
    }

    #[test]
    fn matches_serial_bfs_on_structured_graphs() {
        for parallel in [false, true] {
            assert_batch_matches(&path_graph(50), &[0, 7, 49], parallel);
            assert_batch_matches(&complete_graph(17), &(0..17).collect::<Vec<_>>(), parallel);
            assert_batch_matches(&star_graph(40), &[0, 1, 39], parallel);
        }
    }

    #[test]
    fn matches_serial_bfs_on_random_graph_full_batch() {
        let g = gnm_random_connected(200, 420, 9);
        let sources: Vec<NodeId> = (0..MSBFS_BATCH as NodeId).map(|i| i * 3).collect();
        assert_batch_matches(&g, &sources, false);
        assert_batch_matches(&g, &sources, true);
    }

    #[test]
    fn ragged_batches_and_duplicates() {
        let g = gnm_random_connected(90, 150, 3);
        // Ragged (not a multiple of the word width) and duplicated sources:
        // each batch slot behaves as an independent BFS.
        let sources: Vec<NodeId> = vec![5, 5, 17, 88, 17, 0, 42];
        assert_batch_matches(&g, &sources, false);
        assert_batch_matches(&g, &sources, true);
        assert_batch_matches(&g, &[33], false);
    }

    #[test]
    fn disconnected_components_stay_unreached() {
        let g = GraphBuilder::from_edges(7, &[(0, 1), (1, 2), (3, 4), (5, 6)]);
        let mut ms = MsBfs::new(7);
        ms.set_row_recording(true);
        let rows = ms
            .run_batch_ctl_rec(&g, &[0, 3, 5], &RunControl::new(), false, &NullRecorder, |_, _, _| {})
            .unwrap();
        assert_eq!(rows, vec![(3, 3), (2, 1), (2, 1)]);
        assert_eq!(ms.dist_row(0)[3], INFINITE_DIST);
        assert_eq!(ms.dist_row(1)[0], INFINITE_DIST);
    }

    #[test]
    fn scratch_reuse_resets_state() {
        let g1 = complete_graph(20);
        let g2 = path_graph(40);
        let mut ms = MsBfs::new(20);
        ms.set_row_recording(true);
        ms.run_batch(&g1, &[0, 5]);
        // Bigger graph, different batch width.
        let rows = ms
            .run_batch_ctl_rec(&g2, &[0, 39, 11], &RunControl::new(), false, &NullRecorder, |_, _, _| {})
            .unwrap();
        assert_eq!(rows, oracle_rows(&g2, &[0, 39, 11]));
        assert_eq!(ms.dist_row(0), &bfs_distances(&g2, 0)[..40]);
        // And back, without row recording.
        ms.set_row_recording(false);
        assert_eq!(ms.run_batch(&g1, &[3]), oracle_rows(&g1, &[3]));
    }

    #[test]
    fn interruption_is_clean_and_scratch_recovers() {
        let g = path_graph(60);
        let mut ms = MsBfs::new(60);
        let ctl = RunControl::new().with_timeout(std::time::Duration::ZERO);
        let err = ms.run_batch_ctl_rec(&g, &[0, 30], &ctl, false, &NullRecorder, |_, _, _| {});
        assert_eq!(err, Err(RunOutcome::Deadline));
        // The same scratch must produce correct results afterwards.
        assert_eq!(ms.run_batch(&g, &[0, 30]), oracle_rows(&g, &[0, 30]));

        let ctl = RunControl::new();
        ctl.cancel_token().cancel();
        let err = ms.run_batch_ctl_rec(&g, &[5], &ctl, false, &NullRecorder, |_, _, _| {});
        assert_eq!(err, Err(RunOutcome::Cancelled));
    }

    #[test]
    fn visit_reports_each_discovery_once_with_level_tallies() {
        let g = gnm_random_connected(70, 120, 11);
        let sources: Vec<NodeId> = vec![0, 13, 37, 69];
        let mut acc = vec![0u64; 70];
        let mut ms = MsBfs::new(70);
        ms.run_batch_ctl_rec(&g, &sources, &RunControl::new(), false, &NullRecorder, |v, bits, d| {
            acc[v as usize] += u64::from(d) * u64::from(bits.count_ones());
        })
        .unwrap();
        for (v, &got) in acc.iter().enumerate() {
            let expect: u64 =
                sources.iter().map(|&s| u64::from(bfs_distances(&g, s)[v])).sum();
            assert_eq!(got, expect, "vertex {v}");
        }
    }

    #[test]
    fn recorded_sweeps_observe_occupancy_and_nanos() {
        let g = path_graph(30);
        let rec = RunRecorder::with_trace();
        let mut ms = MsBfs::new(30);
        let rows = ms
            .run_batch_ctl_rec(&g, &[0, 29], &RunControl::new(), false, &rec, |_, _, _| {})
            .unwrap();
        assert_eq!(rows, oracle_rows(&g, &[0, 29]));
        let sweeps = ms.last_stats().levels;
        assert!(sweeps >= 29, "a 30-path needs ≥29 sweeps, got {sweeps}");
        assert_eq!(rec.histogram(Metric::SweepNanos).count, sweeps);
        assert_eq!(rec.histogram(Metric::BatchOccupancy).count, sweeps);
        // Both sources stay live until the middle, then... at least the
        // first sweep carries the full batch.
        assert_eq!(rec.histogram(Metric::BatchOccupancy).max, 2);
        let spans = rec.trace_events().iter().filter(|e| e.name == "bfs.sweep").count();
        assert_eq!(spans as u64, sweeps);

        // A disabled recorder changes nothing.
        let mut plain = MsBfs::new(30);
        assert_eq!(plain.run_batch(&g, &[0, 29]), rows);
    }

    #[test]
    fn parallel_and_serial_sweeps_are_bit_identical() {
        let g = gnm_random_connected(150, 400, 21);
        let sources: Vec<NodeId> = (0..48).map(|i| (i * 3) % 150).collect();
        let mut a = MsBfs::new(150);
        let mut b = MsBfs::new(150);
        a.set_row_recording(true);
        b.set_row_recording(true);
        let ra = a
            .run_batch_ctl_rec(&g, &sources, &RunControl::new(), false, &NullRecorder, |_, _, _| {})
            .unwrap();
        let rb = b
            .run_batch_ctl_rec(&g, &sources, &RunControl::new(), true, &NullRecorder, |_, _, _| {})
            .unwrap();
        assert_eq!(ra, rb);
        for i in 0..sources.len() {
            assert_eq!(a.dist_row(i), b.dist_row(i), "slot {i}");
        }
    }
}
