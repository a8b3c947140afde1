//! The prepared-graph artifact: the structure stage of the two-stage
//! engine.
//!
//! [`PreparedGraph::build`] pays the query-independent costs once —
//! optional degree reordering, the reduction pipeline, structural offsets,
//! and (for the Cumulative method) the biconnected decomposition with
//! homed records, per-block contexts, Phase A and the BCT sweep. Every
//! query method then runs against the artifact with only `(SampleSize,
//! seed)` varying, so a parameter scan or a method comparison re-reduces
//! nothing: the `reduce` telemetry span fires exactly once per artifact no
//! matter how many queries follow.

use crate::budget::{accumulate_run_bytes, cumulative_run_bytes, exact_run_bytes};
use crate::config::SampleSize;
use crate::cumulative::{cumulative_prepare, cumulative_query, CumulativePrep};
use crate::engine::ExecutionContext;
use crate::exact::exact_query;
use crate::harmonic::{harmonic_query, HarmonicEstimate};
use crate::reduced::reduced_query;
use crate::sampling::sampling_query;
use crate::topk::{top_k_scan, TopK};
use crate::{CentralityError, FarnessEstimate};
use brics_graph::control::panic_message;
use brics_graph::reorder::Relabeling;
use brics_graph::telemetry::{
    record_outcome, record_panic, timed, timed_metric, Counter, Metric, Recorder,
};
use brics_graph::traversal::Bfs;
use brics_graph::{CsrGraph, FaultKind, FaultSite, NodeId, RunOutcome};
use brics_reduce::{reduce_ctl_rec, structural_offsets, ReductionConfig, ReductionResult};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// What the prepare stage should build.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrepareConfig {
    /// Which structural reductions to run (identical / chains / redundant).
    pub reductions: ReductionConfig,
    /// Build the biconnected decomposition (Block-Cut Tree, homing,
    /// Phase A, sweep) so [`PreparedGraph::cumulative`] is available.
    /// Costs the decomposition plus one BFS per cut vertex up front.
    pub use_bcc: bool,
    /// Relabel vertices by descending degree before anything else runs.
    /// Purely a cache-locality optimisation: every query result is
    /// translated back to original vertex ids.
    pub reorder: bool,
}

impl Default for PrepareConfig {
    fn default() -> Self {
        Self { reductions: ReductionConfig::all(), use_bcc: true, reorder: false }
    }
}

/// Precomputed memory-admission figures for one prepared graph, derived
/// from the vertex count and the planned worker-thread count. Queries
/// admit against these instead of recomputing them per call.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryPlan {
    /// Bytes a flat accumulate run (sampling / reduced / harmonic /
    /// betweenness) needs: shared accumulator, per-thread scratch and the
    /// rows of up to `n` sources.
    pub accumulate_bytes: u64,
    /// Bytes an exact all-sources sweep needs (per-thread scratch and one
    /// row per vertex).
    pub exact_bytes: u64,
    /// Bytes the Cumulative pipeline needs (BCT arrays plus per-thread
    /// block-local scratch).
    pub cumulative_bytes: u64,
}

impl MemoryPlan {
    /// Plans for an `n`-vertex graph and `threads` workers (clamped to 1).
    pub fn compute(n: usize, threads: usize) -> Self {
        Self {
            accumulate_bytes: accumulate_run_bytes(n, threads),
            exact_bytes: exact_run_bytes(n, threads),
            cumulative_bytes: cumulative_run_bytes(n, threads),
        }
    }
}

/// The prepare-stage artifact: reduction result, removal records,
/// structural offsets, the optional Block-Cut-Tree state, the optional
/// degree-reorder permutation and a [`MemoryPlan`].
///
/// Build one with [`PreparedGraph::build`] (or [`build_with`] for
/// non-default [`PrepareConfig`]s), then run any number of queries against
/// it. The artifact borrows the original graph; all query results are
/// reported in original vertex ids even when `reorder` is on.
///
/// ```
/// use brics::{ExecutionContext, PreparedGraph, ReductionConfig, SampleSize};
/// use brics_graph::generators::{social_like, ClassParams};
///
/// let g = social_like(ClassParams::new(400, 5));
/// let ctx = ExecutionContext::new();
/// let p = PreparedGraph::build(&g, &ReductionConfig::all(), &ctx).unwrap();
/// // One reduction + decomposition serves every query:
/// let a = p.cumulative(SampleSize::Fraction(0.2), 1, &ctx).unwrap();
/// let b = p.cumulative(SampleSize::Fraction(0.5), 1, &ctx).unwrap();
/// let c = p.reduced(SampleSize::Fraction(0.2), 1, &ctx).unwrap();
/// assert_eq!(a.len(), g.num_nodes());
/// assert_eq!(b.len(), c.len());
/// ```
///
/// [`build_with`]: PreparedGraph::build_with
pub struct PreparedGraph<'g> {
    /// Borrowed on a fresh [`build`](Self::build); owned when the artifact
    /// was deserialized from disk ([`crate::engine::artifact::load`]
    /// returns `PreparedGraph<'static>`).
    pub(crate) original: Cow<'g, CsrGraph>,
    /// Present iff `config.reorder`: queries run on `relabel.graph` and
    /// translate back through the permutation.
    pub(crate) relabel: Option<Relabeling>,
    pub(crate) config: PrepareConfig,
    /// The reduction of the working graph (records *not* homed/restored —
    /// the BCT state keeps its own restored copy).
    pub(crate) red: ReductionResult,
    /// Total structural-offset mass of the removal records — the de-bias
    /// term of the scaled view (DESIGN.md §5).
    pub(crate) offset_total: u64,
    /// Surviving vertices in working-graph ids, ascending.
    pub(crate) survivors: Vec<NodeId>,
    pub(crate) plan: MemoryPlan,
    pub(crate) bcc: Option<CumulativePrep>,
    pub(crate) prepare_elapsed: Duration,
    /// Prepare-stage fallbacks taken under an armed degradation policy:
    /// `"reduce:skipped"` and/or `"bct:skipped"`. Empty on a clean build
    /// (a panicked stage that *recovered on retry* leaves no entry).
    pub(crate) prepare_degradation: Vec<String>,
}

impl std::fmt::Debug for PreparedGraph<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedGraph")
            .field("num_nodes", &self.original.num_nodes())
            .field("num_surviving", &self.survivors.len())
            .field("config", &self.config)
            .field("reordered", &self.relabel.is_some())
            .field("has_bcc", &self.bcc.is_some())
            .field("prepare_elapsed", &self.prepare_elapsed)
            .finish_non_exhaustive()
    }
}

impl<'g> PreparedGraph<'g> {
    /// Builds the default artifact: the given reductions plus the full
    /// biconnected decomposition, no reordering. Equivalent to
    /// [`build_with`](Self::build_with) with those [`PrepareConfig`] fields.
    pub fn build<R: Recorder>(
        g: &'g CsrGraph,
        reductions: &ReductionConfig,
        ctx: &ExecutionContext<'_, R>,
    ) -> Result<Self, CentralityError> {
        Self::build_with(g, PrepareConfig { reductions: *reductions, ..Default::default() }, ctx)
    }

    /// Runs the prepare stage under `cfg`.
    ///
    /// The whole stage runs inside a `prepare` telemetry span (with the
    /// single `reduce` span nested in it). Interruption by the context's
    /// control surfaces as [`CentralityError::Interrupted`]; a BCC build
    /// additionally requires a connected graph, and memory admission uses
    /// the largest figure any enabled stage will need.
    pub fn build_with<R: Recorder>(
        g: &'g CsrGraph,
        cfg: PrepareConfig,
        ctx: &ExecutionContext<'_, R>,
    ) -> Result<Self, CentralityError> {
        let n = g.num_nodes();
        if n == 0 {
            return Err(CentralityError::EmptyGraph);
        }
        let rec = ctx.recorder();
        let ctl = ctx.control();
        let start = Instant::now();
        timed(rec, "prepare", || {
            let relabel = if cfg.reorder { Some(g.reorder_by_degree()) } else { None };
            let working: &CsrGraph = relabel.as_ref().map_or(g, |r| &r.graph);
            let plan = MemoryPlan::compute(n, ctx.thread_count());

            // Admission: charge the largest run the artifact enables, so a
            // budget that cannot afford the queries fails here, up front.
            if cfg.use_bcc {
                brics_graph::telemetry::admit_memory_rec(ctl, plan.cumulative_bytes, rec)?;
            } else if cfg.reductions.any() {
                brics_graph::telemetry::admit_memory_rec(ctl, plan.accumulate_bytes, rec)?;
            }

            // Connectivity gate: the BCT combination assumes one component.
            if cfg.use_bcc {
                let mut bfs = Bfs::new(n);
                let (reached, _) = bfs.run_with(working, 0, |_, _| {});
                if reached != n {
                    let comps =
                        brics_graph::connectivity::connected_components(working).count();
                    return Err(CentralityError::Disconnected { components: comps });
                }
            }

            let degrade = ctx.degradation().is_some();
            let mut prepare_degradation: Vec<String> = Vec::new();

            // The reduction pipeline runs panic-isolated: a panic (e.g. an
            // injected `reduce.rule` fault) is retried once when a
            // degradation policy is armed, then the build falls back to an
            // unreduced artifact rather than failing. Without a policy the
            // panic becomes a plain `Internal` error instead of unwinding
            // through the caller.
            let reduce_attempt = |reductions: &ReductionConfig| {
                catch_unwind(AssertUnwindSafe(|| {
                    timed(rec, "reduce", || reduce_ctl_rec(working, reductions, ctl, rec))
                }))
                .map_err(|p| panic_message(p.as_ref()))
            };
            let reduced = match reduce_attempt(&cfg.reductions) {
                Ok(r) => r,
                Err(detail) => {
                    record_panic(rec, &detail);
                    if !degrade {
                        return Err(CentralityError::Internal { detail });
                    }
                    rec.add(Counter::FaultRetries, 1);
                    match reduce_attempt(&cfg.reductions) {
                        Ok(r) => r,
                        Err(detail2) => {
                            record_panic(rec, &detail2);
                            prepare_degradation.push("reduce:skipped".to_string());
                            reduce_attempt(&ReductionConfig::none()).map_err(|detail3| {
                                record_panic(rec, &detail3);
                                CentralityError::Internal { detail: detail3 }
                            })?
                        }
                    }
                }
            };
            let red = match reduced {
                Ok(r) => r,
                Err(outcome) => {
                    record_outcome(rec, outcome, "reduction pipeline interrupted");
                    return Err(CentralityError::Interrupted { outcome });
                }
            };
            let offset_total: u64 =
                structural_offsets(&red.records, n).iter().map(|&o| o as u64).sum();
            let survivors = red.surviving();

            // The BCT build gets the same isolation, plus its own failpoint
            // (`bct.build`). Under a degradation policy a twice-failed build
            // degrades to an artifact without BCT state — `cumulative`
            // queries then fall through the ladder instead of the whole
            // prepare failing.
            let bct_attempt = || {
                catch_unwind(AssertUnwindSafe(|| {
                    match ctl.fault_apply(FaultSite::BctBuild, 0) {
                        Some(FaultKind::Panic) => {
                            panic!("injected worker panic (bct.build)")
                        }
                        Some(FaultKind::IoError) => {
                            panic!("injected i/o error (bct.build)")
                        }
                        _ => {}
                    }
                    cumulative_prepare(n, red.clone(), ctl, ctx.kernel(), rec)
                }))
                .map_err(|p| panic_message(p.as_ref()))
            };
            let bcc = if cfg.use_bcc {
                match bct_attempt() {
                    Ok(Ok(prep)) => Some(prep),
                    Ok(Err(e)) => {
                        if !degrade {
                            return Err(e);
                        }
                        prepare_degradation.push("bct:skipped".to_string());
                        None
                    }
                    Err(detail) => {
                        record_panic(rec, &detail);
                        if !degrade {
                            return Err(CentralityError::Internal { detail });
                        }
                        rec.add(Counter::FaultRetries, 1);
                        match bct_attempt() {
                            Ok(Ok(prep)) => Some(prep),
                            Ok(Err(_)) => {
                                prepare_degradation.push("bct:skipped".to_string());
                                None
                            }
                            Err(detail2) => {
                                record_panic(rec, &detail2);
                                prepare_degradation.push("bct:skipped".to_string());
                                None
                            }
                        }
                    }
                }
            } else {
                None
            };

            Ok(Self {
                original: Cow::Borrowed(g),
                relabel,
                config: cfg,
                red,
                offset_total,
                survivors,
                plan,
                bcc,
                prepare_elapsed: start.elapsed(),
                prepare_degradation,
            })
        })
    }

    // ---- Accessors ----------------------------------------------------

    /// The graph queries actually traverse: the relabelled graph when
    /// `reorder` is on, the original otherwise. Vertex ids of this graph
    /// are *working ids*; every query translates back before returning.
    pub fn working(&self) -> &CsrGraph {
        self.relabel.as_ref().map_or(&*self.original, |r| &r.graph)
    }

    /// The original graph the artifact was built from.
    pub fn original(&self) -> &CsrGraph {
        &self.original
    }

    /// The configuration the artifact was built with.
    pub fn config(&self) -> &PrepareConfig {
        &self.config
    }

    /// Number of vertices surviving the reduction.
    pub fn num_surviving(&self) -> usize {
        self.survivors.len()
    }

    /// Total structural-offset mass of the removal records.
    pub fn offset_total(&self) -> u64 {
        self.offset_total
    }

    /// The precomputed memory-admission figures.
    pub fn plan(&self) -> &MemoryPlan {
        &self.plan
    }

    /// Wall-clock time the prepare stage took.
    pub fn prepare_elapsed(&self) -> Duration {
        self.prepare_elapsed
    }

    /// Whether the artifact carries the Block-Cut-Tree state
    /// ([`PreparedGraph::cumulative`] requires it).
    pub fn has_bcc(&self) -> bool {
        self.bcc.is_some()
    }

    /// The degree-reorder permutation, when `reorder` was requested.
    pub fn relabeling(&self) -> Option<&Relabeling> {
        self.relabel.as_ref()
    }

    /// Prepare-stage fallbacks taken under an armed degradation policy
    /// (`"reduce:skipped"`, `"bct:skipped"`); empty on a clean build.
    pub fn prepare_degradation(&self) -> &[String] {
        &self.prepare_degradation
    }

    // ---- Translation helpers ------------------------------------------

    /// Translates a per-vertex vector from working ids back to originals.
    fn untranslate<T: Copy + Default>(&self, values: Vec<T>) -> Vec<T> {
        match &self.relabel {
            Some(r) => r.to_original_order(&values),
            None => values,
        }
    }

    /// Rebuilds an estimate computed in working ids in original-id order.
    fn untranslate_estimate(&self, est: FarnessEstimate) -> FarnessEstimate {
        let Some(r) = &self.relabel else { return est };
        FarnessEstimate::new(
            r.to_original_order(est.raw()),
            r.to_original_order(est.scaled()),
            r.to_original_order(est.sampled_mask()),
            r.to_original_order(est.coverage()),
            est.num_sources(),
            est.elapsed(),
            est.outcome(),
        )
    }

    // ---- Queries -------------------------------------------------------

    /// Exact farness of every vertex: one BFS per vertex on the working
    /// graph. All-or-nothing — interruption is an error, not a partial.
    pub fn exact<R: Recorder>(
        &self,
        ctx: &ExecutionContext<'_, R>,
    ) -> Result<Vec<u64>, CentralityError> {
        let rec = ctx.recorder();
        let values = timed_metric(rec, "estimate", Metric::QueryNanos, || {
            exact_query(self.working(), self.plan.exact_bytes, ctx.control(), ctx.kernel(), rec)
        })?;
        Ok(self.untranslate(values))
    }

    /// Random-sampling estimate (paper Algorithm 1) on the working graph.
    /// Ignores the reduction — the baseline every other method is compared
    /// against, available from the same artifact for free.
    pub fn sample<R: Recorder>(
        &self,
        sample: SampleSize,
        seed: u64,
        ctx: &ExecutionContext<'_, R>,
    ) -> Result<FarnessEstimate, CentralityError> {
        let rec = ctx.recorder();
        let est = timed_metric(rec, "estimate", Metric::QueryNanos, || {
            sampling_query(
                self.working(),
                sample,
                seed,
                self.plan.accumulate_bytes,
                ctx.control(),
                ctx.kernel(),
                rec,
            )
        })?;
        Ok(self.untranslate_estimate(est))
    }

    /// Quarantine-and-retry sampling sweep over an explicit working-graph
    /// source set — the degradation ladder's rungs run through this.
    pub(crate) fn resilient_on<R: Recorder>(
        &self,
        sources: &[NodeId],
        policy: &crate::degrade::DegradationPolicy,
        ctx: &ExecutionContext<'_, R>,
    ) -> Result<crate::degrade::ResilientRun, CentralityError> {
        let rec = ctx.recorder();
        let run = timed_metric(rec, "estimate", Metric::QueryNanos, || {
            crate::degrade::resilient_sources_query(
                self.working(),
                sources,
                self.plan.accumulate_bytes,
                policy,
                ctx.control(),
                ctx.kernel(),
                rec,
            )
        })?;
        Ok(crate::degrade::ResilientRun {
            estimate: self.untranslate_estimate(run.estimate),
            retries: run.retries,
            quarantined: run.quarantined,
        })
    }

    /// Reduction-based estimate (paper Algorithms 2–3): sources drawn from
    /// the survivors, BFS on the reduced graph, removal log replayed per
    /// source. Uses the artifact's reduction — nothing is recomputed.
    pub fn reduced<R: Recorder>(
        &self,
        sample: SampleSize,
        seed: u64,
        ctx: &ExecutionContext<'_, R>,
    ) -> Result<FarnessEstimate, CentralityError> {
        let rec = ctx.recorder();
        let est = timed_metric(rec, "estimate", Metric::QueryNanos, || {
            reduced_query(
                self.working(),
                &self.red,
                &self.survivors,
                self.offset_total,
                self.plan.accumulate_bytes,
                sample,
                seed,
                ctx.control(),
                rec,
            )
        })?;
        Ok(self.untranslate_estimate(est))
    }

    /// Exact farness via the reduction: every survivor is a source, and
    /// removed vertices are completed with one true BFS each on the working
    /// graph. Cheaper than [`PreparedGraph::exact`] when the removed set is
    /// small; mainly a stronger oracle for the reconstruction path.
    pub fn reduced_exact<R: Recorder>(
        &self,
        ctx: &ExecutionContext<'_, R>,
    ) -> Result<Vec<u64>, CentralityError> {
        let rec = ctx.recorder();
        timed_metric(rec, "estimate", Metric::QueryNanos, || {
            let n = self.original.num_nodes();
            let est = reduced_query(
                self.working(),
                &self.red,
                &self.survivors,
                self.offset_total,
                self.plan.accumulate_bytes,
                SampleSize::Fraction(1.0),
                0,
                ctx.control(),
                rec,
            )?;
            if est.is_partial() {
                return Err(CentralityError::Interrupted { outcome: est.outcome() });
            }
            // Every survivor was a source, so survivors are exact. A removed
            // vertex x holds Σ_{s surviving} d(s, x), which misses its
            // distances to the *other removed* vertices; complete those with
            // one true BFS per removed vertex.
            let working = self.working();
            let removed: Vec<NodeId> =
                (0..n as NodeId).filter(|&v| self.red.removed[v as usize]).collect();
            let mut values = est.raw().to_vec();
            let sums: Vec<(NodeId, u64)> = removed
                .par_iter()
                .map_init(
                    || Bfs::new(n),
                    |bfs, &x| {
                        let (_, sum) = bfs.run_with(working, x, |_, _| {});
                        (x, sum)
                    },
                )
                .collect();
            if rec.enabled() {
                rec.add(Counter::BfsSources, sums.len() as u64);
            }
            for (x, sum) in sums {
                values[x as usize] = sum;
            }
            Ok(self.untranslate(values))
        })
    }

    /// The full Cumulative estimate (paper Algorithms 4–6) against the
    /// prepared Block-Cut-Tree state: only the sampled-source Phase B and
    /// the assembly run per query.
    ///
    /// Errors with [`CentralityError::Internal`] if the artifact was built
    /// with `use_bcc: false`.
    pub fn cumulative<R: Recorder>(
        &self,
        sample: SampleSize,
        seed: u64,
        ctx: &ExecutionContext<'_, R>,
    ) -> Result<FarnessEstimate, CentralityError> {
        let Some(prep) = &self.bcc else {
            return Err(CentralityError::Internal {
                detail: "cumulative query on an artifact built with use_bcc: false".into(),
            });
        };
        let rec = ctx.recorder();
        let est = timed_metric(rec, "estimate", Metric::QueryNanos, || {
            cumulative_query(
                self.original.num_nodes(),
                prep,
                sample,
                seed,
                self.plan.cumulative_bytes,
                ctx.control(),
                ctx.kernel(),
                rec,
            )
        })?;
        Ok(self.untranslate_estimate(est))
    }

    /// Exact top-k closeness using an estimate from this artifact for
    /// pruning: Cumulative when the BCT state is present, reduced
    /// otherwise. Interruption surfaces as an error — a partial top-k
    /// certificate is worthless. Verification BFS are cut against the
    /// running k-th best ([`brics_graph::traversal::BfsCut`]).
    pub fn topk<R: Recorder>(
        &self,
        k: usize,
        sample: SampleSize,
        seed: u64,
        ctx: &ExecutionContext<'_, R>,
    ) -> Result<TopK, CentralityError> {
        self.topk_with(k, sample, seed, true, ctx)
    }

    /// [`PreparedGraph::topk`] with an explicit pruning switch
    /// (`prune = false` runs every verification sweep to completion — the
    /// equivalence-testing fallback; `ranked` is identical either way).
    ///
    /// Verification runs on the **reduced** graph when the reduction kept
    /// it unweighted: survivor candidates sweep `red.graph` and replay the
    /// removal log for the removed vertices' exact mass, with the cut
    /// bound corrected by a per-removed-vertex farness floor
    /// (Σ max(structural offset, 1) — every removed vertex is at least
    /// one hop from any survivor, and at least its replayed offset over a
    /// zero distance field). Chain contractions introduce arc weights the
    /// level-synchronous cut sweep cannot honor, so weighted reductions
    /// (and removed-vertex candidates, which are isolated on the reduced
    /// graph) verify on the working graph instead.
    pub fn topk_with<R: Recorder>(
        &self,
        k: usize,
        sample: SampleSize,
        seed: u64,
        prune: bool,
        ctx: &ExecutionContext<'_, R>,
    ) -> Result<TopK, CentralityError> {
        let rec = ctx.recorder();
        // Verification must run in working ids (the estimate's sampled mask
        // and raw values index the working graph), so translate only the
        // final ranking.
        let est = timed_metric(rec, "estimate", Metric::QueryNanos, || match &self.bcc {
            Some(prep) => cumulative_query(
                self.original.num_nodes(),
                prep,
                sample,
                seed,
                self.plan.cumulative_bytes,
                ctx.control(),
                ctx.kernel(),
                rec,
            ),
            None => reduced_query(
                self.working(),
                &self.red,
                &self.survivors,
                self.offset_total,
                self.plan.accumulate_bytes,
                sample,
                seed,
                ctx.control(),
                rec,
            ),
        })?;
        let working = self.working();
        // The scan charges its own per-BFS counters (actual vertices and
        // arcs scanned), so no bulk accounting happens here.
        let reduced_ctx = if self.red.weights.is_none() {
            let offsets = structural_offsets(&self.red.records, working.num_nodes());
            let removed_floor: u64 = self
                .red
                .removed
                .iter()
                .zip(&offsets)
                .filter(|&(&r, _)| r)
                .map(|(_, &o)| (o as u64).max(1))
                .sum();
            Some(crate::topk::ReducedVerify {
                graph: &self.red.graph,
                removed: &self.red.removed,
                records: &self.red.records,
                num_surviving: self.survivors.len(),
                removed_floor,
            })
        } else {
            None
        };
        let mut t = timed(rec, "topk.verify", || {
            top_k_scan(working, k, &est, prune, reduced_ctx.as_ref(), ctx.control(), rec)
        })?;
        if let Some(r) = &self.relabel {
            for (v, _) in &mut t.ranked {
                *v = r.old_of_new[*v as usize];
            }
        }
        Ok(t)
    }

    /// Harmonic-centrality estimate on the working graph (sampling with
    /// fixed-point reciprocal sums; robust to disconnection).
    pub fn harmonic<R: Recorder>(
        &self,
        sample: SampleSize,
        seed: u64,
        ctx: &ExecutionContext<'_, R>,
    ) -> Result<HarmonicEstimate, CentralityError> {
        let rec = ctx.recorder();
        let est = timed_metric(rec, "estimate", Metric::QueryNanos, || {
            harmonic_query(
                self.working(),
                self.plan.accumulate_bytes,
                sample,
                seed,
                ctx.control(),
                rec,
            )
        })?;
        Ok(HarmonicEstimate {
            values: self.untranslate(est.values),
            scaled: self.untranslate(est.scaled),
            sampled: self.untranslate(est.sampled),
            outcome: est.outcome,
        })
    }

    /// Sampled betweenness (Brandes over sampled pivots) on the working
    /// graph. Returns the scaled per-vertex values and the run outcome.
    pub fn betweenness<R: Recorder>(
        &self,
        sample: SampleSize,
        seed: u64,
        ctx: &ExecutionContext<'_, R>,
    ) -> Result<(Vec<f64>, RunOutcome), CentralityError> {
        let rec = ctx.recorder();
        let (values, outcome) = timed_metric(rec, "estimate", Metric::QueryNanos, || {
            crate::betweenness::betweenness_query(
                self.working(),
                self.plan.accumulate_bytes,
                sample,
                seed,
                ctx.control(),
                rec,
            )
        })?;
        Ok((self.untranslate(values), outcome))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cumulative::cumulative_estimate;
    use crate::exact_farness;
    use crate::reduced::reduced_estimate;
    use crate::sampling::random_sampling;
    use brics_graph::generators::{gnm_random_connected, social_like, ClassParams};
    use brics_graph::telemetry::RunRecorder;
    use brics_graph::RunControl;

    #[test]
    fn one_artifact_many_queries_matches_one_shots() {
        let g = social_like(ClassParams::new(300, 9));
        let ctx = ExecutionContext::new();
        let p = PreparedGraph::build(&g, &ReductionConfig::all(), &ctx).unwrap();
        for &rate in &[0.2, 0.6] {
            let a = p.cumulative(SampleSize::Fraction(rate), 5, &ctx).unwrap();
            let b =
                cumulative_estimate(&g, &ReductionConfig::all(), SampleSize::Fraction(rate), 5)
                    .unwrap();
            assert_eq!(a.raw(), b.raw(), "rate {rate}");
            assert_eq!(a.scaled(), b.scaled(), "rate {rate}");
            let c = p.reduced(SampleSize::Fraction(rate), 5, &ctx).unwrap();
            let d =
                reduced_estimate(&g, &ReductionConfig::all(), SampleSize::Fraction(rate), 5)
                    .unwrap();
            assert_eq!(c.raw(), d.raw(), "rate {rate}");
            let e = p.sample(SampleSize::Fraction(rate), 5, &ctx).unwrap();
            let f = random_sampling(&g, SampleSize::Fraction(rate), 5).unwrap();
            assert_eq!(e.raw(), f.raw(), "rate {rate}");
        }
        assert_eq!(p.exact(&ctx).unwrap(), exact_farness(&g).unwrap());
    }

    #[test]
    fn reduce_span_fires_once_across_queries() {
        let g = social_like(ClassParams::new(250, 3));
        let rec = RunRecorder::new();
        let ctx = ExecutionContext::new().with_recorder(&rec);
        let p = PreparedGraph::build(&g, &ReductionConfig::all(), &ctx).unwrap();
        p.cumulative(SampleSize::Fraction(0.2), 1, &ctx).unwrap();
        p.cumulative(SampleSize::Fraction(0.5), 2, &ctx).unwrap();
        p.reduced(SampleSize::Count(10), 3, &ctx).unwrap();
        let report = rec.report();
        let reduce: Vec<_> =
            report.phases.iter().filter(|ph| ph.name == "reduce").collect();
        assert_eq!(reduce.len(), 1, "one aggregated reduce phase");
        assert_eq!(reduce[0].count, 1, "the reduction ran exactly once");
        let prepare = report.phases.iter().find(|ph| ph.name == "prepare").unwrap();
        assert_eq!(prepare.count, 1);
        let estimate = report.phases.iter().find(|ph| ph.name == "estimate").unwrap();
        assert_eq!(estimate.count, 3, "three queries, three estimate spans");
    }

    #[test]
    fn reorder_translates_everything_back() {
        let g = social_like(ClassParams::new(300, 11));
        let ctx = ExecutionContext::new();
        let cfg = PrepareConfig { reorder: true, ..Default::default() };
        let p = PreparedGraph::build_with(&g, cfg, &ctx).unwrap();
        let plain = PreparedGraph::build(&g, &ReductionConfig::all(), &ctx).unwrap();
        assert_eq!(p.exact(&ctx).unwrap(), plain.exact(&ctx).unwrap());
        // Sampling picks different sources under the permutation, but the
        // estimates stay indexed by original ids and exact values agree on
        // the overlap.
        let exact = exact_farness(&g).unwrap();
        let est = p.cumulative(SampleSize::Fraction(0.4), 2, &ctx).unwrap();
        for v in 0..g.num_nodes() as u32 {
            if est.is_sampled(v) {
                assert_eq!(est.raw()[v as usize], exact[v as usize], "v {v}");
            }
        }
        // Top-k ranking is id-exact regardless of the permutation.
        let t = p.topk(5, SampleSize::Fraction(0.4), 2, &ctx).unwrap();
        let t_plain = plain.topk(5, SampleSize::Fraction(0.4), 2, &ctx).unwrap();
        assert_eq!(t.ranked, t_plain.ranked);
        // reduced_exact is exact in original ids too.
        assert_eq!(p.reduced_exact(&ctx).unwrap(), exact);
    }

    #[test]
    fn cumulative_requires_bcc_state() {
        let g = gnm_random_connected(50, 80, 1);
        let ctx = ExecutionContext::new();
        let cfg = PrepareConfig { use_bcc: false, ..Default::default() };
        let p = PreparedGraph::build_with(&g, cfg, &ctx).unwrap();
        assert!(!p.has_bcc());
        let err = p.cumulative(SampleSize::Count(5), 0, &ctx).unwrap_err();
        assert!(matches!(err, CentralityError::Internal { .. }));
        // The reduced/sample/exact queries still work.
        assert!(p.reduced(SampleSize::Count(5), 0, &ctx).is_ok());
        assert!(p.sample(SampleSize::Count(5), 0, &ctx).is_ok());
    }

    #[test]
    fn build_respects_control() {
        let g = social_like(ClassParams::new(300, 2));
        let ctx = ExecutionContext::new()
            .with_control(RunControl::new().with_timeout(std::time::Duration::ZERO));
        let err =
            PreparedGraph::build(&g, &ReductionConfig::all(), &ctx).unwrap_err();
        assert!(matches!(err, CentralityError::Interrupted { .. }));
        let ctx = ExecutionContext::new()
            .with_control(RunControl::new().with_memory_budget_bytes(8));
        let err =
            PreparedGraph::build(&g, &ReductionConfig::all(), &ctx).unwrap_err();
        assert!(matches!(err, CentralityError::BudgetExceeded { .. }));
    }

    #[test]
    fn disconnected_rejected_at_build_when_bcc() {
        let g = brics_graph::GraphBuilder::from_edges(4, &[(0, 1), (2, 3)]);
        let ctx = ExecutionContext::new();
        let err = PreparedGraph::build(&g, &ReductionConfig::all(), &ctx).unwrap_err();
        assert!(matches!(err, CentralityError::Disconnected { components: 2 }));
        // Without BCC the build succeeds; the flat queries report the
        // disconnection themselves.
        let cfg = PrepareConfig { use_bcc: false, reductions: ReductionConfig::none(), reorder: false };
        let p = PreparedGraph::build_with(&g, cfg, &ctx).unwrap();
        assert!(matches!(
            p.sample(SampleSize::Fraction(1.0), 0, &ctx),
            Err(CentralityError::Disconnected { .. })
        ));
    }

    #[test]
    fn topk_pruned_matches_full_through_both_verify_gates() {
        let ctx = ExecutionContext::new();
        let brute = |g: &brics_graph::CsrGraph, k: usize| {
            let exact = exact_farness(g).unwrap();
            let mut idx: Vec<u32> = (0..g.num_nodes() as u32).collect();
            idx.sort_by_key(|&v| (exact[v as usize], v));
            idx[..k].iter().map(|&v| (v, exact[v as usize])).collect::<Vec<_>>()
        };

        // Gate 1: contraction disabled keeps the reduced graph unweighted,
        // so survivor sweeps verify on it with the removed-vertex floor.
        let g = social_like(ClassParams::new(400, 4));
        let cfg = PrepareConfig {
            reductions: ReductionConfig::all().without_contraction(),
            ..Default::default()
        };
        let p = PreparedGraph::build_with(&g, cfg, &ctx).unwrap();
        assert!(p.red.weights.is_none(), "no contraction, no weights");
        assert!(p.red.removed.iter().any(|&r| r), "reductions fired");
        let k = 6;
        let pruned = p.topk_with(k, SampleSize::Fraction(0.15), 11, true, &ctx).unwrap();
        let full = p.topk_with(k, SampleSize::Fraction(0.15), 11, false, &ctx).unwrap();
        assert_eq!(pruned.ranked, brute(&g, k));
        assert_eq!(pruned.ranked, full.ranked);
        assert_eq!(full.pruned_bfs, 0, "full mode never cuts");

        // Gate 2: chain contraction introduces arc weights the cut sweep
        // cannot honor, so verification falls back to the working graph.
        // Barbell: two K6 cliques joined by a 20-vertex non-redundant
        // chain, which contracts into one weighted edge.
        let mut edges = Vec::new();
        for a in 0..6u32 {
            for b in (a + 1)..6 {
                edges.push((a, b));
            }
        }
        for a in 26..32u32 {
            for b in (a + 1)..32 {
                edges.push((a, b));
            }
        }
        for v in 5..26u32 {
            edges.push((v, v + 1));
        }
        let g2 = brics_graph::GraphBuilder::from_edges(32, &edges);
        let p2 = PreparedGraph::build(&g2, &ReductionConfig::all(), &ctx).unwrap();
        assert!(p2.red.weights.is_some(), "the barbell chain contracts");
        let k2 = 5;
        let pruned2 = p2.topk_with(k2, SampleSize::Fraction(0.5), 3, true, &ctx).unwrap();
        let full2 = p2.topk_with(k2, SampleSize::Fraction(0.5), 3, false, &ctx).unwrap();
        assert_eq!(pruned2.ranked, brute(&g2, k2));
        assert_eq!(pruned2.ranked, full2.ranked);
        assert_eq!(full2.pruned_bfs, 0);
    }

    #[test]
    fn memory_plan_exposed_and_sane() {
        let g = gnm_random_connected(100, 150, 3);
        let ctx = ExecutionContext::new().with_threads(2);
        let p = PreparedGraph::build(&g, &ReductionConfig::all(), &ctx).unwrap();
        assert_eq!(*p.plan(), MemoryPlan::compute(100, 2));
        assert!(p.plan().cumulative_bytes > p.plan().exact_bytes);
        assert!(p.num_surviving() <= 100);
        assert!(p.prepare_elapsed() > Duration::ZERO);
    }
}
